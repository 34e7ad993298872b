#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace sttr {

namespace {

// GEMM tile sizes. The micro-kernel computes a kRowTile x kColTile block of
// C in local accumulators (register-resident after unrolling), so every B
// element loaded is reused kRowTile times and C is written exactly once
// instead of once per inner-dimension step. 8x32 measured fastest here:
// narrower column tiles trip GCC's vectoriser cost model with runtime
// strides and fall back to 128-bit vectors (see bench/micro_matmul).
constexpr size_t kRowTile = 8;
constexpr size_t kColTile = 32;

// Row unroll of the transposed products below (their inner loops hardcode
// four-way register blocking, independent of the main GEMM tile).
constexpr size_t kQuadRows = 4;

// Below this many multiply-adds the pool dispatch costs more than it saves.
constexpr size_t kParallelFlopGrain = size_t{1} << 20;

/// Writes one finished C element: the product, then `+ bias[j]`, then
/// ReLU as `if (x < 0) x = 0` — the per-element operations, in the same
/// order, that AddRowBroadcast and Relu apply, so fused results equal the
/// unfused chain bit for bit.
inline float Finish(float acc, const float* bias, size_t j, bool relu) {
  float x = acc;
  if (bias != nullptr) x += bias[j];
  if (relu && x < 0) x = 0;
  return x;
}

/// C[0..RT)[0..CT) = A(RT rows, k) * B(k, CT cols). Accumulates over the
/// inner dimension in increasing order per element — the same per-element
/// chain as the classic i-k-j loop, so blocking does not perturb results.
/// `bias` points at this tile's first column's bias (or is null).
template <size_t RT, size_t CT>
inline void GemmMicro(const float* a, size_t lda, const float* b, size_t ldb,
                      float* c, size_t ldc, size_t k, const float* bias,
                      bool relu) {
  float acc[RT][CT] = {};
  for (size_t kk = 0; kk < k; ++kk) {
    const float* br = b + kk * ldb;
    for (size_t r = 0; r < RT; ++r) {
      const float av = a[r * lda + kk];
      for (size_t j = 0; j < CT; ++j) acc[r][j] += av * br[j];
    }
  }
  for (size_t r = 0; r < RT; ++r) {
    for (size_t j = 0; j < CT; ++j) {
      c[r * ldc + j] = Finish(acc[r][j], bias, j, relu);
    }
  }
}

/// Ragged right/bottom edge of the tiling: RT rows, jw < kColTile columns.
template <size_t RT>
inline void GemmMicroEdge(const float* a, size_t lda, const float* b,
                          size_t ldb, float* c, size_t ldc, size_t k,
                          size_t jw, const float* bias, bool relu) {
  float acc[RT][kColTile] = {};
  for (size_t kk = 0; kk < k; ++kk) {
    const float* br = b + kk * ldb;
    for (size_t r = 0; r < RT; ++r) {
      const float av = a[r * lda + kk];
      for (size_t j = 0; j < jw; ++j) acc[r][j] += av * br[j];
    }
  }
  for (size_t r = 0; r < RT; ++r) {
    for (size_t j = 0; j < jw; ++j) {
      c[r * ldc + j] = Finish(acc[r][j], bias, j, relu);
    }
  }
}

/// One GemmInto call: the operands and the epilogue.
struct GemmJob {
  const float* a;
  size_t lda;
  size_t k;
  const float* b;
  size_t m;
  GemmEpilogue epilogue;
  float* c;
};

/// Blocked GEMM over C rows [i0, i1), epilogue included: the unit of work
/// the parallel path shards. Column tiles are the outer loop so the strided
/// B panel a tile touches stays cache-resident across the row sweep.
void GemmRowRange(const GemmJob& job, size_t i0, size_t i1) {
  const size_t k = job.k, m = job.m, lda = job.lda;
  const bool relu = job.epilogue.relu;
  for (size_t j0 = 0; j0 < m; j0 += kColTile) {
    const size_t jw = std::min(kColTile, m - j0);
    const float* b = job.b + j0;
    const float* bias =
        job.epilogue.bias != nullptr ? job.epilogue.bias + j0 : nullptr;
    size_t i = i0;
    if (jw == kColTile) {
      for (; i + kRowTile <= i1; i += kRowTile) {
        GemmMicro<kRowTile, kColTile>(job.a + i * lda, lda, b, m,
                                      job.c + i * m + j0, m, k, bias, relu);
      }
      for (; i < i1; ++i) {
        GemmMicro<1, kColTile>(job.a + i * lda, lda, b, m, job.c + i * m + j0,
                               m, k, bias, relu);
      }
    } else {
      for (; i + kRowTile <= i1; i += kRowTile) {
        GemmMicroEdge<kRowTile>(job.a + i * lda, lda, b, m,
                                job.c + i * m + j0, m, k, jw, bias, relu);
      }
      for (; i < i1; ++i) {
        GemmMicroEdge<1>(job.a + i * lda, lda, b, m, job.c + i * m + j0, m, k,
                         jw, bias, relu);
      }
    }
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  STTR_CHECK_EQ(a.ndim(), 2u);
  STTR_CHECK_EQ(b.ndim(), 2u);
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  STTR_CHECK_EQ(k, b.rows()) << "MatMul inner dims";
  Tensor c({n, m});
  GemmRowRange(GemmJob{a.data(), k, k, b.data(), m, {}, c.data()}, 0, n);
  return c;
}

void GemmInto(const float* a, size_t lda, size_t n, size_t k, const float* w,
              size_t m, GemmEpilogue epilogue, float* out) {
  STTR_CHECK_GE(lda, k) << "GemmInto row stride";
  const GemmJob job{a, lda, k, w, m, epilogue, out};
  ThreadPool& pool = GlobalThreadPool();
  if (n * k * m < kParallelFlopGrain || pool.num_threads() <= 1 ||
      ThreadPool::InWorker()) {
    GemmRowRange(job, 0, n);
    return;
  }
  // Shard C rows in kRowTile multiples so every row goes through the same
  // micro-kernel path it would take serially (bit-identical outputs). The
  // shard callable captures one pointer, so dispatch does not allocate.
  const size_t grain = std::max<size_t>(
      kRowTile, (n / (4 * pool.num_threads())) & ~(kRowTile - 1));
  const GemmJob* shared = &job;
  pool.ParallelForChunked(n, grain, [shared](size_t begin, size_t end) {
    GemmRowRange(*shared, begin, end);
  });
}

Tensor ParallelMatMul(const Tensor& a, const Tensor& b) {
  STTR_CHECK_EQ(a.ndim(), 2u);
  STTR_CHECK_EQ(b.ndim(), 2u);
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  STTR_CHECK_EQ(k, b.rows()) << "ParallelMatMul inner dims";
  Tensor c({n, m});
  GemmInto(a.data(), k, n, k, b.data(), m, {}, c.data());
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  STTR_CHECK_EQ(a.ndim(), 2u);
  STTR_CHECK_EQ(b.ndim(), 2u);
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  STTR_CHECK_EQ(n, b.rows()) << "MatMulTransA outer dims";
  Tensor c({k, m});
  float* cd = c.data();
  // Rank-kQuadRows updates: processing kQuadRows rows of A/B per sweep cuts
  // the load/store traffic on C (the largest array touched) by kQuadRows.
  // Each C element still receives its i-contributions in increasing order.
  size_t i = 0;
  for (; i + kQuadRows <= n; i += kQuadRows) {
    const float* ar[kQuadRows];
    const float* br[kQuadRows];
    for (size_t r = 0; r < kQuadRows; ++r) {
      ar[r] = a.data() + (i + r) * k;
      br[r] = b.data() + (i + r) * m;
    }
    for (size_t kk = 0; kk < k; ++kk) {
      float* crow = cd + kk * m;
      const float av0 = ar[0][kk], av1 = ar[1][kk], av2 = ar[2][kk],
                  av3 = ar[3][kk];
      for (size_t j = 0; j < m; ++j) {
        float cj = crow[j];
        cj += av0 * br[0][j];
        cj += av1 * br[1][j];
        cj += av2 * br[2][j];
        cj += av3 * br[3][j];
        crow[j] = cj;
      }
    }
  }
  for (; i < n; ++i) {
    const float* arow = a.data() + i * k;
    const float* brow = b.data() + i * m;
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      float* crow = cd + kk * m;
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  STTR_CHECK_EQ(a.ndim(), 2u);
  STTR_CHECK_EQ(b.ndim(), 2u);
  const size_t n = a.rows(), k = a.cols(), m = b.rows();
  STTR_CHECK_EQ(k, b.cols()) << "MatMulTransB inner dims";
  Tensor c({n, m});
  // Row-on-row dot products; a kQuadRows x kQuadRows register tile reuses
  // every A and B row load kQuadRows times. Double accumulators as before.
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  size_t i = 0;
  for (; i + kQuadRows <= n; i += kQuadRows) {
    size_t j = 0;
    for (; j + kQuadRows <= m; j += kQuadRows) {
      double acc[kQuadRows][kQuadRows] = {};
      for (size_t kk = 0; kk < k; ++kk) {
        float avs[kQuadRows], bvs[kQuadRows];
        for (size_t r = 0; r < kQuadRows; ++r) avs[r] = ad[(i + r) * k + kk];
        for (size_t s = 0; s < kQuadRows; ++s) bvs[s] = bd[(j + s) * k + kk];
        for (size_t r = 0; r < kQuadRows; ++r) {
          for (size_t s = 0; s < kQuadRows; ++s) {
            acc[r][s] += static_cast<double>(avs[r]) * bvs[s];
          }
        }
      }
      for (size_t r = 0; r < kQuadRows; ++r) {
        for (size_t s = 0; s < kQuadRows; ++s) {
          cd[(i + r) * m + j + s] = static_cast<float>(acc[r][s]);
        }
      }
    }
    for (; j < m; ++j) {
      const float* brow = bd + j * k;
      for (size_t r = 0; r < kQuadRows; ++r) {
        const float* arow = ad + (i + r) * k;
        double s = 0;
        for (size_t kk = 0; kk < k; ++kk) {
          s += static_cast<double>(arow[kk]) * brow[kk];
        }
        cd[(i + r) * m + j] = static_cast<float>(s);
      }
    }
  }
  for (; i < n; ++i) {
    const float* arow = ad + i * k;
    float* crow = cd + i * m;
    for (size_t j = 0; j < m; ++j) {
      const float* brow = bd + j * k;
      double s = 0;
      for (size_t kk = 0; kk < k; ++kk) {
        s += static_cast<double>(arow[kk]) * brow[kk];
      }
      crow[j] = static_cast<float>(s);
    }
  }
  return c;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  STTR_CHECK(a.SameShape(b));
  Tensor out = a;
  out.AddInPlace(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  STTR_CHECK(a.SameShape(b));
  Tensor out = a;
  out.Axpy(-1.0f, b);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  STTR_CHECK(a.SameShape(b));
  Tensor out = a;
  float* o = out.data();
  const float* bd = b.data();
  for (size_t i = 0; i < out.size(); ++i) o[i] *= bd[i];
  return out;
}

Tensor Scale(const Tensor& a, float alpha) {
  Tensor out = a;
  out.ScaleInPlace(alpha);
  return out;
}

Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias) {
  STTR_CHECK_EQ(x.ndim(), 2u);
  const size_t n = x.rows(), m = x.cols();
  STTR_CHECK_EQ(bias.size(), m) << "bias size must match columns";
  Tensor out = x;
  const float* b = bias.data();
  for (size_t i = 0; i < n; ++i) {
    float* row = out.data() + i * m;
    for (size_t j = 0; j < m; ++j) row[j] += b[j];
  }
  return out;
}

Tensor ColSum(const Tensor& x) {
  STTR_CHECK_EQ(x.ndim(), 2u);
  const size_t n = x.rows(), m = x.cols();
  Tensor out({m});
  float* o = out.data();
  for (size_t i = 0; i < n; ++i) {
    const float* row = x.data() + i * m;
    for (size_t j = 0; j < m; ++j) o[j] += row[j];
  }
  return out;
}

Tensor RowwiseDot(const Tensor& a, const Tensor& b) {
  STTR_CHECK(a.SameShape(b));
  STTR_CHECK_EQ(a.ndim(), 2u);
  const size_t n = a.rows(), d = a.cols();
  Tensor out({n});
  for (size_t i = 0; i < n; ++i) {
    const float* ra = a.data() + i * d;
    const float* rb = b.data() + i * d;
    double s = 0;
    for (size_t j = 0; j < d; ++j) s += static_cast<double>(ra[j]) * rb[j];
    out.data()[i] = static_cast<float>(s);
  }
  return out;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  STTR_CHECK_EQ(a.ndim(), 2u);
  STTR_CHECK_EQ(b.ndim(), 2u);
  STTR_CHECK_EQ(a.rows(), b.rows());
  const size_t n = a.rows(), p = a.cols(), q = b.cols();
  Tensor out({n, p + q});
  for (size_t i = 0; i < n; ++i) {
    float* dst = out.data() + i * (p + q);
    const float* ra = a.data() + i * p;
    const float* rb = b.data() + i * q;
    for (size_t j = 0; j < p; ++j) dst[j] = ra[j];
    for (size_t j = 0; j < q; ++j) dst[p + j] = rb[j];
  }
  return out;
}

Tensor SliceCols(const Tensor& x, size_t begin, size_t end) {
  STTR_CHECK_EQ(x.ndim(), 2u);
  STTR_CHECK_LE(begin, end);
  STTR_CHECK_LE(end, x.cols());
  const size_t n = x.rows(), w = x.cols(), m = end - begin;
  Tensor out({n, m});
  for (size_t i = 0; i < n; ++i) {
    const float* src = x.data() + i * w + begin;
    float* dst = out.data() + i * m;
    for (size_t j = 0; j < m; ++j) dst[j] = src[j];
  }
  return out;
}

Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices) {
  STTR_CHECK_EQ(table.ndim(), 2u);
  const size_t d = table.cols(), rows = table.rows();
  Tensor out({indices.size(), d});
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    STTR_CHECK_GE(r, 0);
    STTR_CHECK_LT(static_cast<size_t>(r), rows);
    const float* src = table.data() + static_cast<size_t>(r) * d;
    float* dst = out.data() + i * d;
    for (size_t j = 0; j < d; ++j) dst[j] = src[j];
  }
  return out;
}

void ScatterRowsAdd(Tensor& dest, const std::vector<int64_t>& indices,
                    const Tensor& src) {
  STTR_CHECK_EQ(dest.ndim(), 2u);
  STTR_CHECK_EQ(src.ndim(), 2u);
  STTR_CHECK_EQ(src.rows(), indices.size());
  STTR_CHECK_EQ(src.cols(), dest.cols());
  const size_t d = dest.cols(), rows = dest.rows();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    STTR_CHECK_GE(r, 0);
    STTR_CHECK_LT(static_cast<size_t>(r), rows);
    float* dst = dest.data() + static_cast<size_t>(r) * d;
    const float* s = src.data() + i * d;
    for (size_t j = 0; j < d; ++j) dst[j] += s[j];
  }
}

Tensor Relu(const Tensor& x) {
  Tensor out = x;
  float* o = out.data();
  for (size_t i = 0; i < out.size(); ++i) {
    if (o[i] < 0) o[i] = 0;
  }
  return out;
}

float SigmoidScalar(float x) { return simd::SigmoidOne(x); }

float LogSigmoid(float x) { return simd::LogSigmoidOne(x); }

Tensor Sigmoid(const Tensor& x) {
  Tensor out = x;
  simd::SigmoidMany(out.data(), out.data(), out.size());
  return out;
}

Tensor TanhT(const Tensor& x) {
  Tensor out = x;
  float* o = out.data();
  for (size_t i = 0; i < out.size(); ++i) o[i] = std::tanh(o[i]);
  return out;
}

}  // namespace sttr
