#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/parallel.h"

namespace triad::ops {

namespace {

// --- GEMM -------------------------------------------------------------------
//
// Every C element is one sequential chain: it starts at 0 (or at C when
// accumulating) and adds op(A)(i,p) * op(B)(p,j) for p = 0, 1, ..., k-1,
// multiply then add (no FMA: the build pins -ffp-contract=off). The paths
// below differ only in which chains they advance together, never in the order
// within a chain, so every path, tile shape and thread split writes the same
// bits. Transposed operands are addressed through strides, never copied.

// op(A)(i,p) = a[i*ars + p*acs], op(B)(p,j) = b[p*brs + j*bcs].
struct Gemm {
  const float* a;
  std::int64_t ars, acs;
  const float* b;
  std::int64_t brs, bcs;
  float* c;
  std::int64_t ldc;
  std::int64_t k;
  bool accumulate;
};

constexpr int kMR = 4;                 // register tile rows
constexpr int kNR = 16;                // register tile columns
constexpr std::int64_t kKC = 256;      // k-panel depth: B panel kKC x kNB stays in L2
constexpr std::int64_t kMB = 64;       // rows per task
constexpr std::int64_t kNB = 256;      // columns per task
constexpr std::int64_t kNarrow = 4;    // n at or below this takes a narrow path
constexpr int kSmallK = 8;             // k at or below this takes the small-k path
constexpr std::int64_t kStripRows = 32;  // C rows per L1 strip, trans_b path
constexpr std::int64_t kParallelWork = std::int64_t{1} << 18;  // m*n*k to fan out

// MR x NR tile of C held in registers over one k-panel [p0, p0 + kc).
template <int MR, int NR, bool kBUnit>
void tile(const Gemm& g, std::int64_t i, std::int64_t j, std::int64_t p0,
          std::int64_t kc, bool zero) {
  float* c = g.c + i * g.ldc + j;
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r) {
    for (int q = 0; q < NR; ++q) acc[r][q] = zero ? 0.f : c[r * g.ldc + q];
  }
  const float* a = g.a + i * g.ars + p0 * g.acs;
  const float* b = g.b + p0 * g.brs + j * g.bcs;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* bp = b + p * g.brs;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * g.ars + p * g.acs];
      TRIAD_SIMD
      for (int q = 0; q < NR; ++q) acc[r][q] += av * bp[kBUnit ? q : q * g.bcs];
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int q = 0; q < NR; ++q) c[r * g.ldc + q] = acc[r][q];
  }
}

// Bottom or right edge tile (mr < kMR rows or nr < NR columns): the same
// chains with runtime bounds.
void tile_edge(const Gemm& g, std::int64_t i, std::int64_t j, std::int64_t mr,
               std::int64_t nr, std::int64_t p0, std::int64_t kc, bool zero) {
  float* c = g.c + i * g.ldc + j;
  float acc[kMR][kNR];
  for (std::int64_t r = 0; r < mr; ++r) {
    for (std::int64_t q = 0; q < nr; ++q) acc[r][q] = zero ? 0.f : c[r * g.ldc + q];
  }
  const float* a = g.a + i * g.ars + p0 * g.acs;
  const float* b = g.b + p0 * g.brs + j * g.bcs;
  for (std::int64_t p = 0; p < kc; ++p) {
    for (std::int64_t r = 0; r < mr; ++r) {
      const float av = a[r * g.ars + p * g.acs];
      for (std::int64_t q = 0; q < nr; ++q) acc[r][q] += av * b[p * g.brs + q * g.bcs];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    for (std::int64_t q = 0; q < nr; ++q) c[r * g.ldc + q] = acc[r][q];
  }
}

// C[i0:i1, j0:j1] by register tiles. Per k-panel, rows loop outside columns,
// so each MR-row strip of A is read once per panel and reused from L1 across
// the columns while the B panel stays in L2. NR < kNR is the narrow-n path,
// whose blocks are exactly NR columns wide.
template <int NR, bool kBUnit>
void tile_block(const Gemm& g, std::int64_t i0, std::int64_t i1, std::int64_t j0,
                std::int64_t j1) {
  for (std::int64_t p0 = 0; p0 < g.k; p0 += kKC) {
    const std::int64_t kc = std::min(kKC, g.k - p0);
    const bool zero = !g.accumulate && p0 == 0;
    for (std::int64_t i = i0; i < i1; i += kMR) {
      const std::int64_t mr = std::min<std::int64_t>(kMR, i1 - i);
      for (std::int64_t j = j0; j < j1; j += NR) {
        const std::int64_t nr = std::min<std::int64_t>(NR, j1 - j);
        if (mr == kMR && nr == NR) {
          tile<kMR, NR, kBUnit>(g, i, j, p0, kc, zero);
        } else {
          tile_edge(g, i, j, mr, nr, p0, kc, zero);
        }
      }
    }
  }
}

// k <= kSmallK (outer products and their kin): a K x 64 slab of B is loaded
// once per column panel and reused down a strip of rows; each C element is
// then finished in registers and stored once, with no accumulator round trip.
template <int K>
void small_k_block(const Gemm& g, std::int64_t i0, std::int64_t i1,
                   std::int64_t j0, std::int64_t j1) {
  constexpr std::int64_t kRows = 16;
  constexpr std::int64_t kCols = 64;
  const bool zero = !g.accumulate;
  for (std::int64_t r0 = i0; r0 < i1; r0 += kRows) {
    const std::int64_t r1 = std::min(i1, r0 + kRows);
    for (std::int64_t j = j0; j < j1; j += kCols) {
      const std::int64_t nr = std::min(kCols, j1 - j);
      float bk[K][kCols];
      for (int p = 0; p < K; ++p) {
        for (std::int64_t q = 0; q < nr; ++q) bk[p][q] = g.b[p * g.brs + (j + q) * g.bcs];
      }
      for (std::int64_t i = r0; i < r1; ++i) {
        float av[K];
        for (int p = 0; p < K; ++p) av[p] = g.a[i * g.ars + p * g.acs];
        float* c = g.c + i * g.ldc + j;
        TRIAD_SIMD
        for (std::int64_t q = 0; q < nr; ++q) {
          float acc = zero ? 0.f : c[q];
          for (int p = 0; p < K; ++p) acc += av[p] * bk[p][q];
          c[q] = acc;
        }
      }
    }
  }
}

// trans_b with k > kSmallK and n > kNarrow: B is stored n x k, so neither
// operand runs along C's columns and a register tile would gather B at every
// k-step of every 4-row tile. Instead a kStripRows x 64 strip of C
// accumulates in L1, and each k-step reads its 64 strided B values once and
// applies them to every row of the strip.
void strided_b_block(const Gemm& g, std::int64_t i0, std::int64_t i1,
                     std::int64_t j0, std::int64_t j1) {
  constexpr std::int64_t kCols = 64;
  for (std::int64_t r0 = i0; r0 < i1; r0 += kStripRows) {
    const std::int64_t mr = std::min(kStripRows, i1 - r0);
    for (std::int64_t j = j0; j < j1; j += kCols) {
      const std::int64_t nr = std::min(kCols, j1 - j);
      float acc[kStripRows][kCols];
      for (std::int64_t r = 0; r < mr; ++r) {
        const float* c = g.c + (r0 + r) * g.ldc + j;
        for (std::int64_t q = 0; q < nr; ++q) acc[r][q] = g.accumulate ? c[q] : 0.f;
      }
      for (std::int64_t p = 0; p < g.k; ++p) {
        float bp[kCols];
        for (std::int64_t q = 0; q < nr; ++q) bp[q] = g.b[p * g.brs + (j + q) * g.bcs];
        for (std::int64_t r = 0; r < mr; ++r) {
          const float av = g.a[(r0 + r) * g.ars + p * g.acs];
          float* ar = acc[r];
          TRIAD_SIMD
          for (std::int64_t q = 0; q < nr; ++q) ar[q] += av * bp[q];
        }
      }
      for (std::int64_t r = 0; r < mr; ++r) {
        float* c = g.c + (r0 + r) * g.ldc + j;
        for (std::int64_t q = 0; q < nr; ++q) c[q] = acc[r][q];
      }
    }
  }
}

// trans_a with n <= kNarrow (e.g. hᵀ·g): A is stored k x m, so stream it row
// by row and apply each row as a rank-1 update to a strip of C's columns held
// in a local accumulator — contiguous loads instead of strided gathers.
void rank1_block(const Gemm& g, std::int64_t i0, std::int64_t i1, std::int64_t,
                 std::int64_t n) {
  constexpr std::int64_t kStrip = 512;
  float acc[kNarrow][kStrip];
  for (std::int64_t s0 = i0; s0 < i1; s0 += kStrip) {
    const std::int64_t len = std::min(kStrip, i1 - s0);
    for (std::int64_t q = 0; q < n; ++q) {
      for (std::int64_t i = 0; i < len; ++i) {
        acc[q][i] = g.accumulate ? g.c[(s0 + i) * g.ldc + q] : 0.f;
      }
    }
    for (std::int64_t p = 0; p < g.k; ++p) {
      const float* arow = g.a + p * g.acs + s0;
      for (std::int64_t q = 0; q < n; ++q) {
        const float bv = g.b[p * g.brs + q * g.bcs];
        float* aq = acc[q];
        TRIAD_SIMD
        for (std::int64_t i = 0; i < len; ++i) aq[i] += arow[i] * bv;
      }
    }
    for (std::int64_t q = 0; q < n; ++q) {
      for (std::int64_t i = 0; i < len; ++i) g.c[(s0 + i) * g.ldc + q] = acc[q][i];
    }
  }
}

std::int64_t ceil_div(std::int64_t x, std::int64_t y) { return (x + y - 1) / y; }

// One way of computing a block C[i0:i1, j0:j1], and the block sizes it runs
// best at (mb x nb) and may be cut down to (mgrain x ngrain).
struct Path {
  void (*block)(const Gemm&, std::int64_t, std::int64_t, std::int64_t, std::int64_t);
  std::int64_t mb, nb, mgrain, ngrain;
};

// Runs the path over a grid of C blocks. With one pool thread (or little
// work) the grid runs in order on the caller; otherwise blocks halve (down to
// the grains) until every worker has about four, and workers take blocks from
// a shared counter. Blocks are disjoint and each C element is computed whole
// inside one block, so the split changes no bits.
void run_blocks(const Gemm& g, Path path, std::int64_t m, std::int64_t n) {
  const unsigned workers = global_pool().size();
  auto grid = [&] { return ceil_div(m, path.mb) * ceil_div(n, path.nb); };
  if (workers > 1 && m * n * g.k >= kParallelWork) {
    const std::int64_t want = 4 * static_cast<std::int64_t>(workers);
    auto halve = [](std::int64_t v, std::int64_t grain) {
      return std::max(grain, ceil_div(v / 2, grain) * grain);
    };
    while (grid() < want && path.mb > path.mgrain) path.mb = halve(path.mb, path.mgrain);
    while (grid() < want && path.nb > path.ngrain) path.nb = halve(path.nb, path.ngrain);
  }
  const std::int64_t row_blocks = ceil_div(m, path.mb);
  parallel_for_chunks(0, grid(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      const std::int64_t i0 = (t % row_blocks) * path.mb;
      const std::int64_t j0 = (t / row_blocks) * path.nb;
      path.block(g, i0, std::min(m, i0 + path.mb), j0, std::min(n, j0 + path.nb));
    }
  }, /*grain=*/1);
}

Path choose_path(std::int64_t n, std::int64_t k, bool trans_a, bool trans_b) {
  if (k <= kSmallK) {
    constexpr decltype(Path::block) kByK[kSmallK + 1] = {
        nullptr,          small_k_block<1>, small_k_block<2>, small_k_block<3>,
        small_k_block<4>, small_k_block<5>, small_k_block<6>, small_k_block<7>,
        small_k_block<8>};
    return {kByK[k], 4 * kMB, n, 16, 64};
  }
  if (n > kNarrow) {
    if (trans_b) return {strided_b_block, kMB, kNB, kStripRows, 64};
    return {tile_block<kNR, true>, kMB, kNB, kMR, kNR};
  }
  if (trans_a) return {rank1_block, 512, n, 16, n};
  // Narrow n: exact-width tiles, MR independent row chains per column.
  constexpr decltype(Path::block) kByN[2][kNarrow + 1] = {
      {nullptr, tile_block<1, true>, tile_block<2, true>, tile_block<3, true>,
       tile_block<4, true>},
      {nullptr, tile_block<1, false>, tile_block<2, false>, tile_block<3, false>,
       tile_block<4, false>}};
  return {kByN[trans_b][n], kMB, n, kMR, n};
}

template <typename F>
void unary(const Tensor& x, Tensor& out, F f) {
  TRIAD_CHECK_EQ(x.rows(), out.rows());
  TRIAD_CHECK_EQ(x.cols(), out.cols());
  const float* in = x.data();
  float* o = out.data();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] = f(in[i]);
}

template <typename F>
void binary(const Tensor& a, const Tensor& b, Tensor& out, F f) {
  TRIAD_CHECK(a.rows() == b.rows() && a.cols() == b.cols() &&
                  a.rows() == out.rows() && a.cols() == out.cols(),
              "binary op shape mismatch: (" << a.rows() << "," << a.cols()
              << ") vs (" << b.rows() << "," << b.cols() << ")");
  const float* pa = a.data();
  const float* pb = b.data();
  float* o = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] = f(pa[i], pb[i]);
}

}  // namespace

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
          std::int64_t lda, bool trans_a, const float* b, std::int64_t ldb,
          bool trans_b, float* c, std::int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (std::int64_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.f);
    }
    return;
  }
  const Gemm g{a,   trans_a ? 1 : lda, trans_a ? lda : 1,
               b,   trans_b ? 1 : ldb, trans_b ? ldb : 1,
               c,   ldc,               k,
               accumulate};
  run_blocks(g, choose_path(n, k, trans_a, trans_b), m, n);
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a,
            bool trans_b, bool accumulate) {
  const std::int64_t m = trans_a ? a.cols() : a.rows();
  const std::int64_t k = trans_a ? a.rows() : a.cols();
  const std::int64_t kb = trans_b ? b.cols() : b.rows();
  const std::int64_t n = trans_b ? b.rows() : b.cols();
  TRIAD_CHECK_EQ(k, kb, "matmul inner dim");
  TRIAD_CHECK_EQ(c.rows(), m);
  TRIAD_CHECK_EQ(c.cols(), n);
  gemm(m, n, k, a.data(), a.cols(), trans_a, b.data(), b.cols(), trans_b,
       c.data(), c.cols(), accumulate);
}

void add_bias(Tensor& y, const Tensor& bias) {
  TRIAD_CHECK_EQ(bias.rows(), 1);
  TRIAD_CHECK_EQ(bias.cols(), y.cols());
  const float* b = bias.data();
  for (std::int64_t r = 0; r < y.rows(); ++r) {
    float* row = y.row(r);
    for (std::int64_t c = 0; c < y.cols(); ++c) row[c] += b[c];
  }
}

void bias_grad(const Tensor& grad, Tensor& bg, bool accumulate) {
  TRIAD_CHECK_EQ(bg.rows(), 1);
  TRIAD_CHECK_EQ(bg.cols(), grad.cols());
  if (!accumulate) bg.fill(0.f);
  float* out = bg.data();
  for (std::int64_t r = 0; r < grad.rows(); ++r) {
    const float* row = grad.row(r);
    for (std::int64_t c = 0; c < grad.cols(); ++c) out[c] += row[c];
  }
}

void leaky_relu(const Tensor& x, Tensor& out, float slope) {
  unary(x, out, [slope](float v) { return v > 0.f ? v : slope * v; });
}
void relu(const Tensor& x, Tensor& out) {
  unary(x, out, [](float v) { return v > 0.f ? v : 0.f; });
}
void elu(const Tensor& x, Tensor& out, float alpha) {
  unary(x, out, [alpha](float v) { return v > 0.f ? v : alpha * (std::exp(v) - 1.f); });
}
void exp(const Tensor& x, Tensor& out) {
  unary(x, out, [](float v) { return std::exp(v); });
}
void neg(const Tensor& x, Tensor& out) {
  unary(x, out, [](float v) { return -v; });
}
void scale(const Tensor& x, Tensor& out, float s) {
  unary(x, out, [s](float v) { return s * v; });
}
void copy(const Tensor& x, Tensor& out) {
  TRIAD_CHECK_EQ(x.numel(), out.numel());
  std::memcpy(out.data(), x.data(), x.bytes());
}

void leaky_relu_grad(const Tensor& gy, const Tensor& x, Tensor& out, float slope) {
  binary(gy, x, out, [slope](float g, float v) { return v > 0.f ? g : slope * g; });
}
void relu_grad(const Tensor& gy, const Tensor& x, Tensor& out) {
  binary(gy, x, out, [](float g, float v) { return v > 0.f ? g : 0.f; });
}
void elu_grad(const Tensor& gy, const Tensor& x, Tensor& out, float alpha) {
  binary(gy, x, out, [alpha](float g, float v) {
    return v > 0.f ? g : g * alpha * std::exp(v);
  });
}
void exp_grad(const Tensor& gy, const Tensor& y, Tensor& out) {
  binary(gy, y, out, [](float g, float v) { return g * v; });
}

void add(const Tensor& a, const Tensor& b, Tensor& out) {
  binary(a, b, out, [](float x, float y) { return x + y; });
}
void sub(const Tensor& a, const Tensor& b, Tensor& out) {
  binary(a, b, out, [](float x, float y) { return x - y; });
}
void mul(const Tensor& a, const Tensor& b, Tensor& out) {
  binary(a, b, out, [](float x, float y) { return x * y; });
}
void div(const Tensor& a, const Tensor& b, Tensor& out) {
  binary(a, b, out, [](float x, float y) { return x / y; });
}

void mul_head(const Tensor& a, const Tensor& b, Tensor& out, std::int64_t heads) {
  TRIAD_CHECK_EQ(a.rows(), b.rows());
  TRIAD_CHECK_EQ(b.cols(), heads);
  TRIAD_CHECK_EQ(a.cols() % heads, 0, "feature width not divisible by heads");
  TRIAD_CHECK_EQ(out.rows(), a.rows());
  TRIAD_CHECK_EQ(out.cols(), a.cols());
  const std::int64_t f = a.cols() / heads;
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    const float* brow = b.row(r);
    float* orow = out.row(r);
    for (std::int64_t h = 0; h < heads; ++h) {
      const float s = brow[h];
      for (std::int64_t j = 0; j < f; ++j) orow[h * f + j] = s * arow[h * f + j];
    }
  }
}

void dot_head(const Tensor& a, const Tensor& b, Tensor& out, std::int64_t heads) {
  TRIAD_CHECK_EQ(a.rows(), b.rows());
  TRIAD_CHECK_EQ(a.cols(), b.cols());
  TRIAD_CHECK_EQ(a.cols() % heads, 0);
  TRIAD_CHECK_EQ(out.rows(), a.rows());
  TRIAD_CHECK_EQ(out.cols(), heads);
  const std::int64_t f = a.cols() / heads;
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    const float* brow = b.row(r);
    float* orow = out.row(r);
    for (std::int64_t h = 0; h < heads; ++h) {
      float acc = 0.f;
      for (std::int64_t j = 0; j < f; ++j) acc += arow[h * f + j] * brow[h * f + j];
      orow[h] = acc;
    }
  }
}

void head_sum(const Tensor& x, Tensor& out, std::int64_t heads, float alpha) {
  TRIAD_CHECK_EQ(x.cols() % heads, 0);
  const std::int64_t f = x.cols() / heads;
  TRIAD_CHECK_EQ(out.rows(), x.rows());
  TRIAD_CHECK_EQ(out.cols(), f);
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    float* orow = out.row(r);
    for (std::int64_t j = 0; j < f; ++j) {
      float acc = 0.f;
      for (std::int64_t k = 0; k < heads; ++k) acc += xr[k * f + j];
      orow[j] = alpha * acc;
    }
  }
}

void head_broadcast(const Tensor& x, Tensor& out, std::int64_t heads, float alpha) {
  const std::int64_t f = x.cols();
  TRIAD_CHECK_EQ(out.rows(), x.rows());
  TRIAD_CHECK_EQ(out.cols(), f * heads);
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    float* orow = out.row(r);
    for (std::int64_t k = 0; k < heads; ++k) {
      for (std::int64_t j = 0; j < f; ++j) orow[k * f + j] = alpha * xr[j];
    }
  }
}

void axpy(Tensor& y, const Tensor& x, float alpha) {
  TRIAD_CHECK_EQ(y.numel(), x.numel());
  float* py = y.data();
  const float* px = x.data();
  const std::int64_t n = y.numel();
  for (std::int64_t i = 0; i < n; ++i) py[i] += alpha * px[i];
}

void concat_cols(const Tensor& a, const Tensor& b, Tensor& out) {
  TRIAD_CHECK_EQ(a.rows(), b.rows());
  TRIAD_CHECK_EQ(out.rows(), a.rows());
  TRIAD_CHECK_EQ(out.cols(), a.cols() + b.cols());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    std::memcpy(out.row(r), a.row(r), static_cast<std::size_t>(a.cols()) * sizeof(float));
    std::memcpy(out.row(r) + a.cols(), b.row(r),
                static_cast<std::size_t>(b.cols()) * sizeof(float));
  }
}

void slice_cols(const Tensor& x, Tensor& out, std::int64_t lo, std::int64_t hi) {
  TRIAD_CHECK(lo >= 0 && lo < hi && hi <= x.cols(), "bad slice [" << lo << "," << hi << ")");
  TRIAD_CHECK_EQ(out.rows(), x.rows());
  TRIAD_CHECK_EQ(out.cols(), hi - lo);
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    std::memcpy(out.row(r), x.row(r) + lo,
                static_cast<std::size_t>(hi - lo) * sizeof(float));
  }
}

float softmax_cross_entropy(const Tensor& logits, const IntTensor& labels,
                            Tensor* grad) {
  TRIAD_CHECK_EQ(labels.rows(), logits.rows());
  TRIAD_CHECK_EQ(labels.cols(), 1);
  if (grad != nullptr) {
    TRIAD_CHECK_EQ(grad->rows(), logits.rows());
    TRIAD_CHECK_EQ(grad->cols(), logits.cols());
  }
  const std::int64_t n = logits.rows();
  const std::int64_t c = logits.cols();
  const float inv_n = 1.f / static_cast<float>(n);
  double loss = 0.0;
  for (std::int64_t r = 0; r < n; ++r) {
    const float* row = logits.row(r);
    const std::int32_t y = labels.at(r, 0);
    TRIAD_CHECK(y >= 0 && y < c, "label " << y << " out of range " << c);
    float mx = row[0];
    for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < c; ++j) denom += std::exp(static_cast<double>(row[j] - mx));
    loss += std::log(denom) - static_cast<double>(row[y] - mx);
    if (grad != nullptr) {
      float* grow = grad->row(r);
      for (std::int64_t j = 0; j < c; ++j) {
        const float p = static_cast<float>(std::exp(static_cast<double>(row[j] - mx)) / denom);
        grow[j] = (p - (j == y ? 1.f : 0.f)) * inv_n;
      }
    }
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

float accuracy(const Tensor& logits, const IntTensor& labels) {
  std::int64_t hit = 0;
  for (std::int64_t r = 0; r < logits.rows(); ++r) {
    const float* row = logits.row(r);
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < logits.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (best == labels.at(r, 0)) ++hit;
  }
  return static_cast<float>(hit) / static_cast<float>(logits.rows());
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  TRIAD_CHECK_EQ(a.rows(), b.rows());
  TRIAD_CHECK_EQ(a.cols(), b.cols());
  float m = 0.f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const float diff = std::fabs(pa[i] - pb[i]);
    if (diff > atol + rtol * std::fabs(pb[i])) return false;
  }
  return true;
}

}  // namespace triad::ops
