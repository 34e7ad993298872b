#ifndef STTR_TENSOR_SIMD_H_
#define STTR_TENSOR_SIMD_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/cpu_features.h"

// Single dispatch point for the hand-vectorised training hot loops — axpy
// (gradient all-reduce), the optimiser row updates (lazy Adam / AdaGrad /
// SGD) and the sigmoid / BCE-with-logits forward. STTR_SIMD is defined when the
// target supports AVX2+FMA (any x86 since Haswell under -march=native)
// unless the build opts out with -DSTTR_NO_SIMD (cmake -DSTTR_SIMD=OFF).
//
// Every kernel has a scalar form, compiled unconditionally: it is the whole
// implementation when the gate is off, it handles the sub-vector tail when
// the gate is on, and the tests use it as the reference the vector path is
// checked against. Within one build every kernel is a pure elementwise
// function of its inputs, so results are deterministic across runs and
// thread counts; across builds (SIMD on vs off) values may differ in final
// ulps from FMA contraction and the vector exp/log polynomials.
//
// Dispatch is two-staged: the compile-time gate above decides whether the
// vector bodies exist in the binary at all, and RuntimeEnabled() (cpuid via
// util/cpu_features.h) decides per process whether they are executed — an
// AVX2-built binary on a core without AVX2/FMA, or with OS YMM state saving
// disabled, silently takes the scalar path instead of faulting.
#if defined(__AVX2__) && defined(__FMA__) && !defined(STTR_NO_SIMD)
#define STTR_SIMD 1
#include <immintrin.h>
#endif

namespace sttr::simd {

/// True when this build contains the AVX2/FMA kernel bodies (compile-time
/// half of the dispatch; says nothing about the host CPU).
constexpr bool Enabled() {
#ifdef STTR_SIMD
  return true;
#else
  return false;
#endif
}

/// True when the vector kernels are compiled in AND the host CPU can run
/// them (cpuid-detected AVX2+FMA with OS YMM support, not overridden by
/// STTR_FORCE_SCALAR). Detected once and cached.
inline bool RuntimeEnabled() {
#ifdef STTR_SIMD
  static const bool enabled = HostSimdAllowed();
  return enabled;
#else
  return false;
#endif
}

// ---- Scalar reference kernels ----------------------------------------------

/// y[i] += alpha * x[i].
inline void AxpyScalar(float* y, const float* x, float alpha, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

/// Numerically stable logistic sigmoid of one element.
inline float SigmoidOne(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

/// log(sigmoid(x)) = -softplus(-x), computed stably.
inline float LogSigmoidOne(float x) {
  return std::min(x, 0.0f) - std::log1p(std::exp(-std::fabs(x)));
}

/// One stable BCE-with-logits term: -[y log s + (1-y) log(1-s)].
inline double BceTermScalar(float x, float y) {
  return -static_cast<double>(y) * LogSigmoidOne(x) -
         static_cast<double>(1.0f - y) * LogSigmoidOne(-x);
}

inline void SigmoidManyScalar(float* out, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = SigmoidOne(x[i]);
}

inline double BceWithLogitsSumScalar(const float* x, const float* y,
                                     size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += BceTermScalar(x[i], y[i]);
  return acc;
}

/// One Adam row update with precomputed bias corrections bc1/bc2.
inline void AdamRowScalar(float* w, float* m, float* v, const float* g,
                          size_t n, float lr, float beta1, float beta2,
                          float bc1, float bc2, float eps) {
  for (size_t j = 0; j < n; ++j) {
    m[j] = beta1 * m[j] + (1.0f - beta1) * g[j];
    v[j] = beta2 * v[j] + (1.0f - beta2) * g[j] * g[j];
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

inline void AdaGradRowScalar(float* w, float* acc, const float* g, size_t n,
                             float lr, float eps) {
  for (size_t j = 0; j < n; ++j) {
    acc[j] += g[j] * g[j];
    w[j] -= lr * g[j] / (std::sqrt(acc[j]) + eps);
  }
}

inline void SgdRowScalar(float* w, const float* g, size_t n, float lr) {
  for (size_t j = 0; j < n; ++j) w[j] -= lr * g[j];
}

// ---- Scalar int8 helpers ---------------------------------------------------

/// sum_i v[i] in int32 (the layer-0 column sums a quantized artifact stores
/// and checks). Artifact write/read time only, so no vector form.
inline int32_t SumI8Scalar(const int8_t* v, size_t n) {
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) acc += static_cast<int32_t>(v[i]);
  return acc;
}

#ifdef STTR_SIMD

namespace internal {

/// exp(x) on 8 lanes, Cephes-style polynomial (|rel err| ~1e-7 over the
/// clamped range [-88.4, 88.4], which covers every finite-sigmoid input).
inline __m256 Exp256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647950f));
  x = _mm256_max_ps(x, _mm256_set1_ps(-88.3762626647949f));
  // Range reduction: x = fx*log(2) + r with fx integral, |r| <= log(2)/2.
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, _mm256_add_ps(x, one));
  // Scale by 2^fx through the exponent bits.
  const __m256i emm0 = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvttps_epi32(fx), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(emm0));
}

/// log(x) on 8 lanes for strictly positive finite inputs (Cephes polynomial
/// after mantissa/exponent split). Callers here only pass x in (1, 2].
inline __m256 Log256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  __m256i imm0 = _mm256_srli_epi32(_mm256_castps_si256(x), 23);
  imm0 = _mm256_sub_epi32(imm0, _mm256_set1_epi32(0x7f));
  __m256 e = _mm256_add_ps(_mm256_cvtepi32_ps(imm0), one);
  // Mantissa in [0.5, 1).
  x = _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(
                           static_cast<int>(~0x7f800000u))));
  x = _mm256_or_ps(x, half);
  // If mantissa < sqrt(1/2): e -= 1 and mantissa doubles (x = 2x - 1 form).
  const __m256 mask =
      _mm256_cmp_ps(x, _mm256_set1_ps(0.707106781186547524f), _CMP_LT_OQ);
  const __m256 tmp = _mm256_and_ps(x, mask);
  x = _mm256_sub_ps(x, one);
  e = _mm256_sub_ps(e, _mm256_and_ps(one, mask));
  x = _mm256_add_ps(x, tmp);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(7.0376836292e-2f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-1.1514610310e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.1676998740e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-1.2420140846e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.4249322787e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-1.6668057665e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(2.0000714765e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-2.4999993993e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(3.3333331174e-1f));
  y = _mm256_mul_ps(_mm256_mul_ps(y, x), z);
  y = _mm256_fmadd_ps(e, _mm256_set1_ps(-2.12194440e-4f), y);
  y = _mm256_fnmadd_ps(half, z, y);
  x = _mm256_add_ps(x, y);
  return _mm256_fmadd_ps(e, _mm256_set1_ps(0.693359375f), x);
}

inline __m256 Abs256(__m256 x) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x);
}

}  // namespace internal

#endif  // STTR_SIMD

// ---- Dispatching kernels ----------------------------------------------------

/// y[i] += alpha * x[i]; the all-reduce / SGD primitive.
inline void Axpy(float* y, const float* x, float alpha, size_t n) {
#ifdef STTR_SIMD
  if (!RuntimeEnabled()) return AxpyScalar(y, x, alpha, n);
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  AxpyScalar(y + i, x + i, alpha, n - i);
#else
  AxpyScalar(y, x, alpha, n);
#endif
}

/// out[i] = sigmoid(x[i]) (stable for any finite input); in-place allowed.
inline void SigmoidMany(float* out, const float* x, size_t n) {
#ifdef STTR_SIMD
  if (!RuntimeEnabled()) return SigmoidManyScalar(out, x, n);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 z = internal::Exp256(_mm256_sub_ps(zero, internal::Abs256(v)));
    const __m256 denom = _mm256_add_ps(one, z);
    const __m256 pos = _mm256_div_ps(one, denom);
    const __m256 neg = _mm256_div_ps(z, denom);
    const __m256 ge = _mm256_cmp_ps(v, zero, _CMP_GE_OQ);
    _mm256_storeu_ps(out + i, _mm256_blendv_ps(neg, pos, ge));
  }
  SigmoidManyScalar(out + i, x + i, n - i);
#else
  SigmoidManyScalar(out, x, n);
#endif
}

/// Sum over i of the stable BCE-with-logits term for (logit x[i], label
/// y[i]). Vector lanes are reduced into the double accumulator in index
/// order per 8-wide block, so the result is deterministic per build.
inline double BceWithLogitsSum(const float* x, const float* y, size_t n) {
#ifdef STTR_SIMD
  if (!RuntimeEnabled()) return BceWithLogitsSumScalar(x, y, n);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  double acc = 0.0;
  alignas(32) float buf[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 yv = _mm256_loadu_ps(y + i);
    // t = log1p(exp(-|x|)); term = t - y*min(x,0) - (1-y)*min(-x,0).
    const __m256 t = internal::Log256(_mm256_add_ps(
        one, internal::Exp256(_mm256_sub_ps(zero, internal::Abs256(v)))));
    __m256 term =
        _mm256_sub_ps(t, _mm256_mul_ps(yv, _mm256_min_ps(v, zero)));
    term = _mm256_sub_ps(
        term, _mm256_mul_ps(_mm256_sub_ps(one, yv),
                            _mm256_min_ps(_mm256_sub_ps(zero, v), zero)));
    _mm256_store_ps(buf, term);
    for (int lane = 0; lane < 8; ++lane) acc += buf[lane];
  }
  for (; i < n; ++i) acc += BceTermScalar(x[i], y[i]);
  return acc;
#else
  return BceWithLogitsSumScalar(x, y, n);
#endif
}

/// Lazy-Adam inner loop over one row (or a whole dense tensor): updates
/// first/second moments m/v and the weights w from gradient g. bc1/bc2 are
/// the step's bias corrections 1-beta^t.
inline void AdamRow(float* w, float* m, float* v, const float* g, size_t n,
                    float lr, float beta1, float beta2, float bc1, float bc2,
                    float eps) {
#ifdef STTR_SIMD
  if (!RuntimeEnabled()) {
    return AdamRowScalar(w, m, v, g, n, lr, beta1, beta2, bc1, bc2, eps);
  }
  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vomb1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 vomb2 = _mm256_set1_ps(1.0f - beta2);
  const __m256 vbc1 = _mm256_set1_ps(bc1);
  const __m256 vbc2 = _mm256_set1_ps(bc2);
  const __m256 veps = _mm256_set1_ps(eps);
  const __m256 vlr = _mm256_set1_ps(lr);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 gv = _mm256_loadu_ps(g + j);
    const __m256 mv =
        _mm256_fmadd_ps(vb1, _mm256_loadu_ps(m + j), _mm256_mul_ps(vomb1, gv));
    const __m256 vv = _mm256_fmadd_ps(
        vb2, _mm256_loadu_ps(v + j), _mm256_mul_ps(vomb2, _mm256_mul_ps(gv, gv)));
    _mm256_storeu_ps(m + j, mv);
    _mm256_storeu_ps(v + j, vv);
    const __m256 upd = _mm256_div_ps(
        _mm256_mul_ps(vlr, _mm256_div_ps(mv, vbc1)),
        _mm256_add_ps(_mm256_sqrt_ps(_mm256_div_ps(vv, vbc2)), veps));
    _mm256_storeu_ps(w + j, _mm256_sub_ps(_mm256_loadu_ps(w + j), upd));
  }
  AdamRowScalar(w + j, m + j, v + j, g + j, n - j, lr, beta1, beta2, bc1, bc2,
                eps);
#else
  AdamRowScalar(w, m, v, g, n, lr, beta1, beta2, bc1, bc2, eps);
#endif
}

/// AdaGrad inner loop over one row (or a whole dense tensor).
inline void AdaGradRow(float* w, float* acc, const float* g, size_t n,
                       float lr, float eps) {
#ifdef STTR_SIMD
  if (!RuntimeEnabled()) return AdaGradRowScalar(w, acc, g, n, lr, eps);
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 veps = _mm256_set1_ps(eps);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 gv = _mm256_loadu_ps(g + j);
    const __m256 av = _mm256_fmadd_ps(gv, gv, _mm256_loadu_ps(acc + j));
    _mm256_storeu_ps(acc + j, av);
    const __m256 upd = _mm256_div_ps(
        _mm256_mul_ps(vlr, gv), _mm256_add_ps(_mm256_sqrt_ps(av), veps));
    _mm256_storeu_ps(w + j, _mm256_sub_ps(_mm256_loadu_ps(w + j), upd));
  }
  AdaGradRowScalar(w + j, acc + j, g + j, n - j, lr, eps);
#else
  AdaGradRowScalar(w, acc, g, n, lr, eps);
#endif
}

/// Momentum-free SGD: w -= lr * g.
inline void SgdRow(float* w, const float* g, size_t n, float lr) {
  Axpy(w, g, -lr, n);
}

}  // namespace sttr::simd

#endif  // STTR_TENSOR_SIMD_H_
