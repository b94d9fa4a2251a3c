/// \file
/// Raw dense math used by the engine's kernels.
///
/// These routines do the arithmetic only; cost accounting (FLOPs/DRAM bytes)
/// is charged by the engine kernels that invoke them, so the same math can be
/// reused by tests without polluting the experiment counters.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace triad::ops {

/// C (+)= op(A) * op(B). Register-tiled SGEMM, row-major.
/// A is (m,k) when !trans_a else (k,m); B is (k,n) when !trans_b else (n,k).
///
/// Summation order (the bit-identity contract): every C element starts at 0
/// (or at its current value when `accumulate`) and adds op(A)(i,p) *
/// op(B)(p,j) for p = 0, 1, ..., k-1 in that order, multiply then add, no FMA
/// (the build pins -ffp-contract=off). Tile shape, code path and the number
/// of pool threads never change that order, so the output is the same bits
/// as a naive triple loop. Transposed operands are read in place by stride,
/// never copied into a transposed tensor, and the kernel allocates nothing
/// (its narrow paths stage at most 8 x 64 strided B values on the stack).
void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a = false,
            bool trans_b = false, bool accumulate = false);

/// The kernel behind matmul() on raw row-major storage, for operands that are
/// windows of larger tensors (e.g. a row range of a weight matrix). op(A) is
/// m x k and op(B) is k x n; a row of A (or of Aᵀ's storage when trans_a)
/// starts every `lda` floats, likewise `ldb` for B and `ldc` for C. Same
/// summation order as matmul(); C must not overlap A or B.
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
          std::int64_t lda, bool trans_a, const float* b, std::int64_t ldb,
          bool trans_b, float* c, std::int64_t ldc, bool accumulate = false);

/// y[r, :] += bias[0, :] for every row.
void add_bias(Tensor& y, const Tensor& bias);
/// bias_grad[0, :] (+)= column-sums of grad.
void bias_grad(const Tensor& grad, Tensor& bias_grad, bool accumulate);

// --- Elementwise unary (out may alias x) ---------------------------------
void leaky_relu(const Tensor& x, Tensor& out, float slope);
void relu(const Tensor& x, Tensor& out);
void elu(const Tensor& x, Tensor& out, float alpha);
void exp(const Tensor& x, Tensor& out);
void neg(const Tensor& x, Tensor& out);
void scale(const Tensor& x, Tensor& out, float s);
void copy(const Tensor& x, Tensor& out);

// Derivatives: out = grad_y * f'(x or y), see each signature.
void leaky_relu_grad(const Tensor& grad_y, const Tensor& x, Tensor& out, float slope);
void relu_grad(const Tensor& grad_y, const Tensor& x, Tensor& out);
void elu_grad(const Tensor& grad_y, const Tensor& x, Tensor& out, float alpha);
/// exp'(x) = exp(x) = y, so the derivative reuses the forward *output*.
void exp_grad(const Tensor& grad_y, const Tensor& y, Tensor& out);

// --- Elementwise binary ----------------------------------------------------
void add(const Tensor& a, const Tensor& b, Tensor& out);
void sub(const Tensor& a, const Tensor& b, Tensor& out);
void mul(const Tensor& a, const Tensor& b, Tensor& out);
void div(const Tensor& a, const Tensor& b, Tensor& out);
/// out[r, k*f+j] = a[r, k*f+j] * b[r, k] — per-head scalar × feature block.
void mul_head(const Tensor& a, const Tensor& b, Tensor& out, std::int64_t heads);
/// Head-reduction: out[r, k] = sum_j a[r, k*f+j] * b[r, k*f+j].
void dot_head(const Tensor& a, const Tensor& b, Tensor& out, std::int64_t heads);
/// out[r, j] = alpha * sum_k x[r, k*f+j] (x has heads*f cols).
void head_sum(const Tensor& x, Tensor& out, std::int64_t heads, float alpha);
/// out[r, k*f+j] = alpha * x[r, j].
void head_broadcast(const Tensor& x, Tensor& out, std::int64_t heads, float alpha);
void axpy(Tensor& y, const Tensor& x, float alpha);  ///< y += alpha * x

/// out[:, 0:a.cols] = a, out[:, a.cols:] = b.
void concat_cols(const Tensor& a, const Tensor& b, Tensor& out);
/// out = x[:, lo:hi].
void slice_cols(const Tensor& x, Tensor& out, std::int64_t lo, std::int64_t hi);

// --- Losses / classification ----------------------------------------------
/// Row-wise softmax cross-entropy against integer labels.
/// Returns mean loss; if grad != nullptr, writes d loss / d logits into it.
float softmax_cross_entropy(const Tensor& logits, const IntTensor& labels,
                            Tensor* grad);
/// Fraction of rows whose argmax matches the label.
float accuracy(const Tensor& logits, const IntTensor& labels);

// --- Comparisons (tests) ----------------------------------------------------
/// max_i |a_i - b_i|; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace triad::ops
