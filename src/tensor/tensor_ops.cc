#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace sttr {

namespace {

// GEMM tiling. The micro-kernel computes an RT x CT block of C in
// register accumulators, so every B element loaded is reused RT times and C
// is written exactly once. Full kColTile-wide strips (two vector registers
// per row) cover the columns first; the remainder is covered by
// power-of-two strips of half that width down to 1 column, so every strip
// width is a compile-time constant and the narrow tower layers (32->16,
// 16->1) run as straight-line vector code instead of a loop over a run-time
// width. Tiling never changes a result: every C element is the same MulAdd
// chain over increasing k (tensor_ops.h).

// Largest row tile, and the multiple pool shards are cut in.
constexpr size_t kRowTile = 8;

// Row unroll of the transposed products below (their inner loops hardcode
// four-way register blocking, independent of the main GEMM tile).
constexpr size_t kQuadRows = 4;

// Below this many multiply-adds the pool dispatch costs more than it saves.
constexpr size_t kParallelFlopGrain = size_t{1} << 20;

/// One register's worth of C columns: W consecutive floats with the
/// operations the micro-kernel needs. Lanes<1> is plain scalar code; the
/// vector forms exist under STTR_SIMD and use explicit FMA instructions, so
/// their speed does not hinge on the auto-vectorizer and their per-lane
/// arithmetic is exactly MulAdd.
template <size_t W>
struct Lanes;

template <>
struct Lanes<1> {
  using V = float;
  static V Zero() { return 0.0f; }
  static V Load(const float* p) { return *p; }
  static void Store(float* p, V x) { *p = x; }
  static V Broadcast(const float* p) { return *p; }
  static V MulAdd(V a, V b, V acc) { return sttr::MulAdd(a, b, acc); }
  static V Add(V x, V y) { return x + y; }
  /// `if (x < 0) x = 0`: keeps -0 and NaN as they are.
  static V Relu(V x) { return x < 0 ? 0.0f : x; }
};

#ifdef STTR_SIMD
template <>
struct Lanes<4> {
  using V = __m128;
  static V Zero() { return _mm_setzero_ps(); }
  static V Load(const float* p) { return _mm_loadu_ps(p); }
  static void Store(float* p, V x) { _mm_storeu_ps(p, x); }
  static V Broadcast(const float* p) { return _mm_broadcast_ss(p); }
  static V MulAdd(V a, V b, V acc) { return _mm_fmadd_ps(a, b, acc); }
  static V Add(V x, V y) { return _mm_add_ps(x, y); }
  // max(0, x) returns its second operand unless 0 > x, so -0 and NaN pass
  // through exactly as in Lanes<1>::Relu.
  static V Relu(V x) { return _mm_max_ps(_mm_setzero_ps(), x); }
};

template <>
struct Lanes<8> {
  using V = __m256;
  static V Zero() { return _mm256_setzero_ps(); }
  static V Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, V x) { _mm256_storeu_ps(p, x); }
  static V Broadcast(const float* p) { return _mm256_broadcast_ss(p); }
  static V MulAdd(V a, V b, V acc) { return _mm256_fmadd_ps(a, b, acc); }
  static V Add(V x, V y) { return _mm256_add_ps(x, y); }
  static V Relu(V x) { return _mm256_max_ps(_mm256_setzero_ps(), x); }
};

#ifdef __AVX512F__
template <>
struct Lanes<16> {
  using V = __m512;
  static V Zero() { return _mm512_setzero_ps(); }
  static V Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, V x) { _mm512_storeu_ps(p, x); }
  static V Broadcast(const float* p) { return _mm512_set1_ps(*p); }
  static V MulAdd(V a, V b, V acc) { return _mm512_fmadd_ps(a, b, acc); }
  static V Add(V x, V y) { return _mm512_add_ps(x, y); }
  // The all-lanes masked form: GCC 12 warns on the unmasked one's
  // undefined pass-through operand. Same instruction, same semantics.
  static V Relu(V x) {
    return _mm512_maskz_max_ps(__mmask16{0xFFFF}, _mm512_setzero_ps(), x);
  }
};

constexpr size_t kMaxLanes = 16;
constexpr size_t kVectorRegs = 32;
#else
constexpr size_t kMaxLanes = 8;
constexpr size_t kVectorRegs = 16;
#endif

// Main strip width: two registers per row.
constexpr size_t kColTile = 2 * kMaxLanes;

/// Floats per register for a CT-wide strip.
constexpr size_t LaneWidth(size_t ct) {
  return ct >= 16 && kMaxLanes >= 16 ? 16 : ct >= 8 ? 8 : ct >= 4 ? 4 : 1;
}

/// Rows per micro-kernel call for a CT-wide strip: the most, up to
/// kRowTile, whose accumulators and the broadcast A value fit in the vector
/// register file (B rows can be read as memory operands of the FMAs).
constexpr size_t RowTileFor(size_t ct) {
  const size_t per_row = ct / LaneWidth(ct);
  size_t rt = kRowTile;
  while (rt > 1 && rt * per_row + 1 > kVectorRegs) --rt;
  return rt;
}

// The micro-kernel's register loops are unrolled outright: left rolled,
// GCC keeps the accumulators in a stack array and stores them on every k
// step.
#define STTR_GEMM_UNROLL _Pragma("GCC unroll 32")
#else
// Scalar build: plain loops over accumulator arrays, vectorized (or not)
// by the compiler. Narrow strips run one row at a time: GCC's SLP
// vectorizer packs one row's contiguous columns cleanly but turns a
// multi-row narrow tile into permute chains.
constexpr size_t kColTile = 32;
constexpr size_t LaneWidth(size_t) { return 1; }
constexpr size_t RowTileFor(size_t ct) {
  return ct >= kColTile ? kRowTile : 1;
}
#define STTR_GEMM_UNROLL
#endif

/// C[0..RT)[0..CT) = epilogue(A(RT rows, k) * B(k, CT cols)): each element
/// is the MulAdd chain over increasing k, then `+ bias[j]`, then ReLU —
/// the per-element operations, in the same order, that AddRowBroadcast and
/// Relu apply, so fused results equal the unfused chain bit for bit.
/// `bias` points at this strip's first column's bias (or is null).
template <size_t RT, size_t CT>
inline void GemmMicro(const float* a, size_t lda, const float* b, size_t ldb,
                      float* c, size_t ldc, size_t k, const float* bias,
                      bool relu) {
  using L = Lanes<LaneWidth(CT)>;
  constexpr size_t kW = LaneWidth(CT);
  constexpr size_t kV = CT / kW;
  typename L::V acc[RT][kV];
  STTR_GEMM_UNROLL
  for (size_t r = 0; r < RT; ++r) {
    STTR_GEMM_UNROLL
    for (size_t v = 0; v < kV; ++v) acc[r][v] = L::Zero();
  }
  for (size_t kk = 0; kk < k; ++kk) {
    const float* br = b + kk * ldb;
    typename L::V bv[kV];
    STTR_GEMM_UNROLL
    for (size_t v = 0; v < kV; ++v) bv[v] = L::Load(br + v * kW);
    STTR_GEMM_UNROLL
    for (size_t r = 0; r < RT; ++r) {
      const typename L::V av = L::Broadcast(a + r * lda + kk);
      STTR_GEMM_UNROLL
      for (size_t v = 0; v < kV; ++v) {
        acc[r][v] = L::MulAdd(av, bv[v], acc[r][v]);
      }
    }
  }
  STTR_GEMM_UNROLL
  for (size_t r = 0; r < RT; ++r) {
    STTR_GEMM_UNROLL
    for (size_t v = 0; v < kV; ++v) {
      typename L::V x = acc[r][v];
      if (bias != nullptr) x = L::Add(x, L::Load(bias + v * kW));
      if (relu) x = L::Relu(x);
      L::Store(c + r * ldc + v * kW, x);
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

/// Columns [j0, j0 + CT) of C rows [i0, i1).
template <size_t CT>
void GemmStrip(const GemmJob& job, size_t i0, size_t i1, size_t j0) {
  constexpr size_t kRt = RowTileFor(CT);
  const size_t k = job.k, m = job.m, lda = job.lda;
  const bool relu = job.epilogue.relu;
  const float* b = job.b + j0;
  const float* bias =
      job.epilogue.bias != nullptr ? job.epilogue.bias + j0 : nullptr;
  size_t i = i0;
  for (; i + kRt <= i1; i += kRt) {
    GemmMicro<kRt, CT>(job.a + i * lda, lda, b, m, job.c + i * m + j0, m, k,
                       bias, relu);
  }
  for (; i < i1; ++i) {
    GemmMicro<1, CT>(job.a + i * lda, lda, b, m, job.c + i * m + j0, m, k,
                     bias, relu);
  }
}

/// Covers columns [j0, m), fewer than 2*CT of them, with at most one strip
/// of each power-of-two width CT, CT/2, ..., 1.
template <size_t CT>
void GemmTail(const GemmJob& job, size_t i0, size_t i1, size_t j0) {
  if (job.m - j0 >= CT) {
    GemmStrip<CT>(job, i0, i1, j0);
    j0 += CT;
  }
  if constexpr (CT > 1) GemmTail<CT / 2>(job, i0, i1, j0);
}

/// Blocked GEMM over C rows [i0, i1), epilogue included: the unit of work
/// the parallel path shards. Column strips are the outer loop so the
/// strided B panel a strip touches stays cache-resident across the row
/// sweep.
void GemmRowRange(const GemmJob& job, size_t i0, size_t i1) {
  size_t j0 = 0;
  for (; j0 + kColTile <= job.m; j0 += kColTile) {
    GemmStrip<kColTile>(job, i0, i1, j0);
  }
  GemmTail<kColTile / 2>(job, i0, i1, j0);
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
  // Shard C rows in kRowTile multiples so shards are whole row tiles; the
  // result does not depend on the sharding (every element is the same
  // MulAdd chain). The shard callable captures one pointer, so dispatch
  // does not allocate.
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
