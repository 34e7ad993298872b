#ifndef STTR_TENSOR_TENSOR_OPS_H_
#define STTR_TENSOR_TENSOR_OPS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sttr {

// Dense numeric kernels over 2-D tensors. These are the primitives the
// autodiff layer composes; shapes are validated with STTR_CHECK.

/// The multiply-add every GEMM below accumulates with: acc + a*b, rounded
/// once (a fused multiply-add) when the target has FMA, else the rounded
/// product plus acc. C[i][j] of MatMul/ParallelMatMul/GemmInto is the chain
/// acc = MulAdd(a[i][k], w[k][j], acc) over k = 0, 1, ..., k-1 from acc = 0,
/// then the GemmEpilogue — at every tile and strip width, serial or pooled,
/// so tiling and thread count never change a result.
inline float MulAdd(float a, float b, float acc) {
#ifdef __FP_FAST_FMAF
  return std::fma(a, b, acc);
#else
  return a * b + acc;
#endif
}

/// C = A(n,k) * B(k,m). Cache-blocked serial kernel: C is computed in
/// register-resident row/column tiles so each B element loaded from cache is
/// reused across a block of C rows.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A(n,k) * B(k,m), sharding blocks of C rows across GlobalThreadPool()
/// when n*k*m exceeds a grain threshold (and the caller is not already a
/// pool worker); falls back to the serial blocked kernel otherwise. Row
/// shards run the identical micro-kernel on disjoint outputs, so the result
/// is bit-identical to MatMul().
Tensor ParallelMatMul(const Tensor& a, const Tensor& b);

/// Per-element operations fused after a GemmInto product, applied in this
/// order: `+ bias[j]`, then ReLU as `if (x < 0) x = 0`. These are exactly
/// AddRowBroadcast's and Relu's operations, so a fused result equals
/// Relu(AddRowBroadcast(ParallelMatMul(a, w), bias)) bit for bit.
struct GemmEpilogue {
  /// m column biases, or null for none.
  const float* bias = nullptr;
  bool relu = false;
};

/// out(n,m) = epilogue(A(n,k) * W(k,m)) into caller-owned storage (row
/// stride m), allocating nothing. Row i of A starts at a + i*lda (lda >= k),
/// so a column block of a wider matrix can be the left operand. Shards rows
/// across GlobalThreadPool() under the same rule as ParallelMatMul, and each
/// shard applies the epilogue to its rows as it finishes them; results are
/// bit-identical to the serial kernel.
void GemmInto(const float* a, size_t lda, size_t n, size_t k, const float* w,
              size_t m, GemmEpilogue epilogue, float* out);

/// C = A^T(n,k)^T * B(n,m) = (k,m). Used for dW in linear backward.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// C = A(n,k) * B(m,k)^T = (n,m). Used for dX in linear backward.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// out = a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

/// out = a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// out = a ⊙ b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// out = a * alpha.
Tensor Scale(const Tensor& a, float alpha);

/// out(i,j) = x(i,j) + bias(j); x is (n,m), bias is (m) or (1,m).
Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias);

/// Column sums of a 2-D tensor -> shape (m). Reduces over rows.
Tensor ColSum(const Tensor& x);

/// Row-wise dot product of two (n,d) tensors -> (n).
Tensor RowwiseDot(const Tensor& a, const Tensor& b);

/// Concatenates two 2-D tensors with equal row counts along columns.
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Extracts columns [begin, end) of a 2-D tensor.
Tensor SliceCols(const Tensor& x, size_t begin, size_t end);

/// Gathers rows of `table` (V,d) at `indices` -> (indices.size(), d).
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices);

/// dest.row(indices[i]) += src.row(i) for all i. dest (V,d), src (n,d).
void ScatterRowsAdd(Tensor& dest, const std::vector<int64_t>& indices,
                    const Tensor& src);

/// Elementwise ReLU / its mask-based derivative helper.
Tensor Relu(const Tensor& x);

/// Numerically stable logistic sigmoid.
Tensor Sigmoid(const Tensor& x);

/// Elementwise tanh.
Tensor TanhT(const Tensor& x);

/// Single-element stable sigmoid.
float SigmoidScalar(float x);

/// log(sigmoid(x)) computed stably (= -softplus(-x)).
float LogSigmoid(float x);

}  // namespace sttr

#endif  // STTR_TENSOR_TENSOR_OPS_H_
