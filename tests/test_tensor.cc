// Unit tests for Tensor and dense math in src/tensor.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/parallel.h"
#include "support/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace triad {
namespace {

// The GEMM thread tests need a pool with several workers whatever the host's
// core count; the size is only honored before the pool's first use.
const bool kPoolSized = set_global_pool_threads(4);

// C (+)= op(A)·op(B) as a plain triple loop: each element starts at 0 (or at
// C) and adds the products for p = 0..k-1 in order, multiply then add — the
// summation order ops::matmul promises.
Tensor naive_matmul(const Tensor& a, const Tensor& b, const Tensor& c0,
                    bool trans_a, bool trans_b, bool accumulate) {
  const std::int64_t m = trans_a ? a.cols() : a.rows();
  const std::int64_t k = trans_a ? a.rows() : a.cols();
  const std::int64_t n = trans_b ? b.rows() : b.cols();
  Tensor c(m, n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c0.data()[i * n + j] : 0.f;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a.data()[p * m + i] : a.data()[i * k + p];
        const float bv = trans_b ? b.data()[j * k + p] : b.data()[p * n + j];
        const float prod = av * bv;
        acc = acc + prod;
      }
      c.data()[i * n + j] = acc;
    }
  }
  return c;
}

// Bitwise equality: tells -0 from +0 (and compares NaN payloads).
::testing::AssertionResult same_bits(const Tensor& x, const Tensor& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) {
    return ::testing::AssertionFailure() << "shape (" << x.rows() << "," << x.cols()
                                         << ") vs (" << y.rows() << "," << y.cols() << ")";
  }
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::bit_cast<std::uint32_t>(x.data()[i]) != std::bit_cast<std::uint32_t>(y.data()[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << x.data()[i] << " vs " << y.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Operands for op(A) (m x k) and op(B) (k x n), stored transposed when asked.
struct GemmCase {
  Tensor a, b, c0;
};
GemmCase make_case(std::int64_t m, std::int64_t n, std::int64_t k, bool trans_a,
                   bool trans_b, Rng& rng) {
  return {Tensor::randn(trans_a ? k : m, trans_a ? m : k, rng),
          Tensor::randn(trans_b ? n : k, trans_b ? k : n, rng), Tensor::randn(m, n, rng)};
}

// Runs ops::matmul into a fresh copy of c0.
Tensor run_matmul(const GemmCase& g, bool trans_a, bool trans_b, bool accumulate) {
  Tensor c = g.c0.clone();
  ops::matmul(g.a, g.b, c, trans_a, trans_b, accumulate);
  return c;
}

TEST(Tensor, ShapeAndFill) {
  Tensor t = Tensor::zeros(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.numel(), 12);
  for (float v : t.flat()) EXPECT_EQ(v, 0.f);
  t.fill(2.5f);
  EXPECT_EQ(t.at(2, 3), 2.5f);
}

TEST(Tensor, SharedOwnership) {
  Tensor a = Tensor::full(2, 2, 1.f);
  Tensor b = a;  // shallow
  b.at(0, 0) = 9.f;
  EXPECT_EQ(a.at(0, 0), 9.f);
  Tensor c = a.clone();
  c.at(0, 0) = 7.f;
  EXPECT_EQ(a.at(0, 0), 9.f);
}

TEST(Tensor, OutOfRangeThrows) {
  Tensor t = Tensor::zeros(2, 2);
  EXPECT_THROW(t.at(2, 0), Error);
  EXPECT_THROW(t.at(0, -1), Error);
}

TEST(Tensor, XavierWithinBound) {
  Rng rng(1);
  Tensor t = Tensor::xavier(64, 32, rng, MemTag::kActivations);
  const float bound = std::sqrt(6.f / (64 + 32));
  for (float v : t.flat()) {
    EXPECT_LE(std::fabs(v), bound);
  }
}

TEST(Ops, MatmulIdentity) {
  Tensor a(2, 3);
  float* pa = a.data();
  for (int i = 0; i < 6; ++i) pa[i] = static_cast<float>(i + 1);
  Tensor eye = Tensor::zeros(3, 3);
  for (int i = 0; i < 3; ++i) eye.at(i, i) = 1.f;
  Tensor c = Tensor::zeros(2, 3);
  ops::matmul(a, eye, c);
  EXPECT_TRUE(ops::allclose(a, c));
}

TEST(Ops, MatmulKnownValues) {
  Tensor a(2, 2), b(2, 2), c(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(1, 0) = 3; a.at(1, 1) = 4;
  b.at(0, 0) = 5; b.at(0, 1) = 6; b.at(1, 0) = 7; b.at(1, 1) = 8;
  ops::matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.f);
}

TEST(Ops, MatmulTransposedMatchesManual) {
  Rng rng(3);
  Tensor a = Tensor::randn(7, 5, rng);
  Tensor b = Tensor::randn(7, 4, rng);
  // c = aᵀ b : (5,4)
  Tensor c = Tensor::zeros(5, 4);
  ops::matmul(a, b, c, /*trans_a=*/true);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) {
      float ref = 0.f;
      for (int k = 0; k < 7; ++k) ref += a.at(k, i) * b.at(k, j);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(c.at(i, j)), std::bit_cast<std::uint32_t>(ref));
    }
  }
}

TEST(Ops, MatmulTransBMatchesManual) {
  Rng rng(4);
  Tensor a = Tensor::randn(3, 5, rng);
  Tensor b = Tensor::randn(6, 5, rng);
  Tensor c = Tensor::zeros(3, 6);
  ops::matmul(a, b, c, false, /*trans_b=*/true);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 6; ++j) {
      float ref = 0.f;
      for (int k = 0; k < 5; ++k) ref += a.at(i, k) * b.at(j, k);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(c.at(i, j)), std::bit_cast<std::uint32_t>(ref));
    }
  }
}

TEST(Ops, MatmulAccumulate) {
  Tensor a = Tensor::full(2, 2, 1.f);
  Tensor b = Tensor::full(2, 2, 1.f);
  Tensor c = Tensor::full(2, 2, 10.f);
  ops::matmul(a, b, c, false, false, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c.at(0, 0), 12.f);
}

TEST(Ops, MatmulSweepMatchesNaiveBitwise) {
  const std::vector<std::int64_t> dims = {0, 1, 2, 3, 5, 7, 8, 9, 16, 17, 31, 33, 65, 129};
  Rng rng(11);
  for (int flags = 0; flags < 8; ++flags) {
    const bool ta = flags & 1, tb = flags & 2, acc = flags & 4;
    for (std::int64_t m : dims) {
      for (std::int64_t n : dims) {
        for (std::int64_t k : dims) {
          const GemmCase g = make_case(m, n, k, ta, tb, rng);
          ASSERT_TRUE(same_bits(run_matmul(g, ta, tb, acc), naive_matmul(g.a, g.b, g.c0, ta, tb, acc)))
              << "m=" << m << " n=" << n << " k=" << k << " trans_a=" << ta
              << " trans_b=" << tb << " accumulate=" << acc;
        }
      }
    }
  }
}

TEST(Ops, MatmulEveryNarrowWidthMatchesNaiveBitwise) {
  // Each k up to past the small-k cutoff and each n up to past the narrow
  // cutoff selects its own instantiation; the sweep above skips some of them.
  Rng rng(16);
  for (int flags = 0; flags < 8; ++flags) {
    const bool ta = flags & 1, tb = flags & 2, acc = flags & 4;
    for (std::int64_t k = 1; k <= 10; ++k) {
      for (std::int64_t n = 1; n <= 6; ++n) {
        for (std::int64_t m : {1, 6, 70}) {
          const GemmCase g = make_case(m, n, k, ta, tb, rng);
          ASSERT_TRUE(same_bits(run_matmul(g, ta, tb, acc), naive_matmul(g.a, g.b, g.c0, ta, tb, acc)))
              << "m=" << m << " n=" << n << " k=" << k << " trans_a=" << ta
              << " trans_b=" << tb << " accumulate=" << acc;
        }
      }
    }
  }
}

TEST(Ops, MatmulKeepsNegativeZeroSemantics) {
  // Every product is -0: a fresh chain starts at +0 and +0 + -0 = +0, while
  // an accumulated -0 stays -0. A kernel that seeded its accumulator with the
  // first product, or skipped a zero start, would flip these sign bits.
  for (std::int64_t k : {1, 3, 17, 300}) {
    for (std::int64_t n : {1, 3, 20}) {
      for (int flags = 0; flags < 4; ++flags) {
        const bool ta = flags & 1, tb = flags & 2;
        const std::int64_t m = 9;
        GemmCase g{Tensor::full(ta ? k : m, ta ? m : k, -1.f),
                   Tensor::full(tb ? n : k, tb ? k : n, 0.f), Tensor::full(m, n, -0.f)};
        const Tensor fresh = run_matmul(g, ta, tb, false);
        const Tensor kept = run_matmul(g, ta, tb, true);
        EXPECT_TRUE(same_bits(fresh, naive_matmul(g.a, g.b, g.c0, ta, tb, false)));
        EXPECT_TRUE(same_bits(kept, naive_matmul(g.a, g.b, g.c0, ta, tb, true)));
        EXPECT_FALSE(std::signbit(fresh.at(m - 1, n - 1)));
        EXPECT_TRUE(std::signbit(kept.at(m - 1, n - 1)));
      }
    }
  }
  // k = 0: the product is empty — zeros, or C untouched when accumulating.
  GemmCase g{Tensor(3, 0), Tensor(0, 4), Tensor::full(3, 4, -0.f)};
  EXPECT_FALSE(std::signbit(run_matmul(g, false, false, false).at(2, 3)));
  EXPECT_TRUE(std::signbit(run_matmul(g, false, false, true).at(2, 3)));
}

// The matmul calls of one full-batch GAT training step (2 layers, hidden 128,
// 1 head, 3 classes, 125-wide features) with the 19717-vertex dimension
// reduced to 613 — still past the k-panel depth and the rank-1 strip width.
struct StepShape {
  std::int64_t m, n, k;
  bool trans_a, trans_b;
};
const std::vector<StepShape> kStepShapes = {
    {613, 128, 125, false, false},  // X·W
    {125, 128, 613, true, false},   // Xᵀ·dY
    {128, 1, 613, true, false},     // hᵀ·g (attention vectors, twice)
    {128, 3, 613, true, false},     // hᵀ·dY, second layer
    {3, 1, 613, true, false},       // second-layer attention wgrad (twice)
    {613, 1, 128, false, false},    // h·a (twice)
    {613, 1, 3, false, false},      // second-layer h·a (twice)
    {613, 3, 128, false, false},    // h·W, second layer
    {613, 128, 1, false, true},     // dS·aᵀ outer product (twice)
    {613, 3, 1, false, true},       // second-layer outer product (twice)
    {613, 128, 3, false, true},     // dY·Wᵀ, second layer
};

TEST(Ops, MatmulStepShapesMatchNaiveBitwise) {
  Rng rng(12);
  for (const StepShape& s : kStepShapes) {
    for (bool acc : {false, true}) {
      const GemmCase g = make_case(s.m, s.n, s.k, s.trans_a, s.trans_b, rng);
      EXPECT_TRUE(same_bits(run_matmul(g, s.trans_a, s.trans_b, acc),
                            naive_matmul(g.a, g.b, g.c0, s.trans_a, s.trans_b, acc)))
          << s.m << "x" << s.n << "x" << s.k << " trans_a=" << s.trans_a
          << " trans_b=" << s.trans_b << " accumulate=" << acc;
    }
  }
}

TEST(Ops, MatmulBitIdenticalAcrossThreadCounts) {
  ASSERT_TRUE(kPoolSized);
  ASSERT_GT(global_pool().size(), 1u);
  // Large enough that every path fans out over the pool (the step shapes
  // with k or m raised past the kernel's parallel-work threshold).
  std::vector<StepShape> shapes = kStepShapes;
  shapes.push_back({128, 1, 4099, true, false});
  shapes.push_back({128, 3, 1031, true, false});
  shapes.push_back({4099, 1, 128, false, false});
  shapes.push_back({4099, 128, 1, false, true});
  shapes.push_back({4099, 128, 3, false, true});
  shapes.push_back({125, 128, 4099, true, false});
  Rng rng(13);
  for (const StepShape& s : shapes) {
    const GemmCase g = make_case(s.m, s.n, s.k, s.trans_a, s.trans_b, rng);
    const Tensor pooled = run_matmul(g, s.trans_a, s.trans_b, false);
    // A call made from inside a pool task runs serially on that one thread.
    Tensor serial;
    global_pool().run_on_all([&](unsigned w) {
      if (w == 0) serial = run_matmul(g, s.trans_a, s.trans_b, false);
    });
    EXPECT_TRUE(same_bits(pooled, serial)) << s.m << "x" << s.n << "x" << s.k;
    EXPECT_TRUE(same_bits(pooled, naive_matmul(g.a, g.b, g.c0, s.trans_a, s.trans_b, false)))
        << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(Ops, MatmulAllocatesNothing) {
  // Transposed operands are read by stride: no transpose copies, no scratch.
  Rng rng(14);
  const GemmCase g = make_case(70, 40, 90, true, true, rng);
  Tensor c = g.c0.clone();
  MemoryPool& pool = global_pool_mem();
  const std::size_t live = pool.live_bytes();
  pool.reset_peak();
  ops::matmul(g.a, g.b, c, true, true);
  EXPECT_EQ(pool.peak_bytes(), live);
}

TEST(Ops, GemmAddressesWindowsByLeadingDimension) {
  // op(A) = rows [2, 7) of a 9x6 tensor, Bᵀ = rows [1, 4) of a 5x6 tensor,
  // C = a 5x3 block at column 2 of a 5x8 tensor; everything else untouched.
  Rng rng(15);
  Tensor a = Tensor::randn(9, 6, rng);
  Tensor b = Tensor::randn(5, 6, rng);
  Tensor c = Tensor::randn(5, 8, rng);
  const Tensor before = c.clone();
  ops::gemm(5, 3, 6, a.row(2), 6, false, b.row(1), 6, true, c.data() + 2, 8);
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 8; ++j) {
      if (j < 2 || j >= 5) {
        EXPECT_EQ(c.at(i, j), before.at(i, j));
        continue;
      }
      float acc = 0.f;
      for (std::int64_t p = 0; p < 6; ++p) acc += a.at(i + 2, p) * b.at(j - 2 + 1, p);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(c.at(i, j)), std::bit_cast<std::uint32_t>(acc));
    }
  }
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(ops::matmul(a, b, c), Error);
}

TEST(Ops, ActivationsPointwise) {
  Tensor x(1, 4);
  x.at(0, 0) = -2.f; x.at(0, 1) = -0.5f; x.at(0, 2) = 0.f; x.at(0, 3) = 3.f;
  Tensor y(1, 4);
  ops::leaky_relu(x, y, 0.1f);
  EXPECT_FLOAT_EQ(y.at(0, 0), -0.2f);
  EXPECT_FLOAT_EQ(y.at(0, 3), 3.f);
  ops::relu(x, y);
  EXPECT_FLOAT_EQ(y.at(0, 1), 0.f);
  EXPECT_FLOAT_EQ(y.at(0, 3), 3.f);
  ops::elu(x, y, 1.f);
  EXPECT_NEAR(y.at(0, 0), std::exp(-2.f) - 1.f, 1e-6f);
  ops::exp(x, y);
  EXPECT_NEAR(y.at(0, 3), std::exp(3.f), 1e-3f);
}

TEST(Ops, BinaryElementwise) {
  Tensor a = Tensor::full(2, 2, 6.f);
  Tensor b = Tensor::full(2, 2, 3.f);
  Tensor c(2, 2);
  ops::add(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 9.f);
  ops::sub(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 3.f);
  ops::mul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 18.f);
  ops::div(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 2.f);
}

TEST(Ops, MulHeadBroadcastsPerHead) {
  // 2 heads, f=3: b scales each head block.
  Tensor a(1, 6);
  for (int j = 0; j < 6; ++j) a.at(0, j) = 1.f;
  Tensor b(1, 2);
  b.at(0, 0) = 2.f;
  b.at(0, 1) = 5.f;
  Tensor c(1, 6);
  ops::mul_head(a, b, c, 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 2.f);
  EXPECT_FLOAT_EQ(c.at(0, 2), 2.f);
  EXPECT_FLOAT_EQ(c.at(0, 3), 5.f);
  EXPECT_FLOAT_EQ(c.at(0, 5), 5.f);
}

TEST(Ops, DotHeadReducesPerHead) {
  Tensor a(1, 4), b(1, 4);
  for (int j = 0; j < 4; ++j) {
    a.at(0, j) = static_cast<float>(j + 1);
    b.at(0, j) = 1.f;
  }
  Tensor c(1, 2);
  ops::dot_head(a, b, c, 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 3.f);   // 1+2
  EXPECT_FLOAT_EQ(c.at(0, 1), 7.f);   // 3+4
}

TEST(Ops, HeadSumAndBroadcastRoundTrip) {
  Tensor x(2, 6);  // 3 heads, f=2
  for (int r = 0; r < 2; ++r) {
    for (int j = 0; j < 6; ++j) x.at(r, j) = static_cast<float>(j);
  }
  Tensor s(2, 2);
  ops::head_sum(x, s, 3, 0.5f);
  EXPECT_FLOAT_EQ(s.at(0, 0), 0.5f * (0 + 2 + 4));
  EXPECT_FLOAT_EQ(s.at(0, 1), 0.5f * (1 + 3 + 5));
  Tensor b(2, 6);
  ops::head_broadcast(s, b, 3, 2.f);
  EXPECT_FLOAT_EQ(b.at(0, 0), 2.f * s.at(0, 0));
  EXPECT_FLOAT_EQ(b.at(0, 5), 2.f * s.at(0, 1));
}

TEST(Ops, ConcatAndSlice) {
  Tensor a = Tensor::full(2, 2, 1.f);
  Tensor b = Tensor::full(2, 3, 2.f);
  Tensor c(2, 5);
  ops::concat_cols(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 1), 1.f);
  EXPECT_FLOAT_EQ(c.at(0, 2), 2.f);
  Tensor s(2, 3);
  ops::slice_cols(c, s, 2, 5);
  EXPECT_FLOAT_EQ(s.at(1, 0), 2.f);
}

TEST(Ops, BiasAndBiasGrad) {
  Tensor x = Tensor::zeros(3, 2);
  Tensor b(1, 2);
  b.at(0, 0) = 1.f;
  b.at(0, 1) = -1.f;
  ops::add_bias(x, b);
  EXPECT_FLOAT_EQ(x.at(2, 0), 1.f);
  EXPECT_FLOAT_EQ(x.at(2, 1), -1.f);
  Tensor g = Tensor::full(3, 2, 2.f);
  Tensor bg(1, 2);
  ops::bias_grad(g, bg, false);
  EXPECT_FLOAT_EQ(bg.at(0, 0), 6.f);
}

TEST(Ops, SoftmaxCrossEntropyUniformLogits) {
  Tensor logits = Tensor::zeros(4, 3);
  IntTensor labels(4, 1);
  labels.fill(1);
  Tensor grad(4, 3);
  const float loss = ops::softmax_cross_entropy(logits, labels, &grad);
  EXPECT_NEAR(loss, std::log(3.f), 1e-5f);
  // gradient rows sum to zero, true-class entry negative.
  for (int r = 0; r < 4; ++r) {
    float row_sum = 0.f;
    for (int j = 0; j < 3; ++j) row_sum += grad.at(r, j);
    EXPECT_NEAR(row_sum, 0.f, 1e-6f);
    EXPECT_LT(grad.at(r, 1), 0.f);
  }
}

TEST(Ops, SoftmaxCrossEntropyGradMatchesFiniteDiff) {
  Rng rng(11);
  Tensor logits = Tensor::randn(5, 4, rng);
  IntTensor labels(5, 1);
  for (int r = 0; r < 5; ++r) labels.at(r, 0) = r % 4;
  Tensor grad(5, 4);
  ops::softmax_cross_entropy(logits, labels, &grad);
  const float eps = 1e-3f;
  for (int r = 0; r < 5; ++r) {
    for (int j = 0; j < 4; ++j) {
      Tensor pert = logits.clone();
      pert.at(r, j) += eps;
      const float lp = ops::softmax_cross_entropy(pert, labels, nullptr);
      pert.at(r, j) -= 2 * eps;
      const float lm = ops::softmax_cross_entropy(pert, labels, nullptr);
      EXPECT_NEAR(grad.at(r, j), (lp - lm) / (2 * eps), 2e-3f);
    }
  }
}

TEST(Ops, AccuracyCounts) {
  Tensor logits = Tensor::zeros(4, 2);
  logits.at(0, 1) = 1.f;  // pred 1
  logits.at(1, 0) = 1.f;  // pred 0
  logits.at(2, 1) = 1.f;  // pred 1
  logits.at(3, 1) = 1.f;  // pred 1
  IntTensor labels(4, 1);
  labels.at(0, 0) = 1;
  labels.at(1, 0) = 0;
  labels.at(2, 0) = 0;
  labels.at(3, 0) = 1;
  EXPECT_FLOAT_EQ(ops::accuracy(logits, labels), 0.75f);
}

TEST(Ops, AllcloseRespectsTolerance) {
  Tensor a = Tensor::full(2, 2, 1.f);
  Tensor b = Tensor::full(2, 2, 1.00001f);
  EXPECT_TRUE(ops::allclose(a, b));
  b.at(0, 0) = 1.1f;
  EXPECT_FALSE(ops::allclose(a, b));
  EXPECT_NEAR(ops::max_abs_diff(a, b), 0.1f, 1e-5f);
}

}  // namespace
}  // namespace triad
