#include "tensor/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

namespace sttr {
namespace {

// Sizes straddling the 8-wide vector width so every test exercises both the
// full-vector body and the scalar tail (and n < 8 pure-tail cases).
const size_t kSizes[] = {1, 3, 7, 8, 9, 16, 17, 33, 256};

std::vector<float> RandomVec(size_t n, uint32_t seed, float lo = -8.0f,
                             float hi = 8.0f) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(SimdTest, AxpyMatchesScalarReference) {
  for (size_t n : kSizes) {
    const auto x = RandomVec(n, 1);
    auto y = RandomVec(n, 2);
    auto y_ref = y;
    simd::Axpy(y.data(), x.data(), 0.37f, n);
    simd::AxpyScalar(y_ref.data(), x.data(), 0.37f, n);
    for (size_t i = 0; i < n; ++i) {
      // FMA contraction may differ from the reference by one rounding.
      EXPECT_NEAR(y[i], y_ref[i], 1e-5f) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdTest, AxpyIsDeterministicAcrossRuns) {
  const size_t n = 123;
  const auto x = RandomVec(n, 3);
  auto y1 = RandomVec(n, 4);
  auto y2 = y1;
  simd::Axpy(y1.data(), x.data(), -1.25f, n);
  simd::Axpy(y2.data(), x.data(), -1.25f, n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(SimdTest, SigmoidManyMatchesScalarReference) {
  for (size_t n : kSizes) {
    const auto x = RandomVec(n, 5, -30.0f, 30.0f);
    std::vector<float> out(n), ref(n);
    simd::SigmoidMany(out.data(), x.data(), n);
    simd::SigmoidManyScalar(ref.data(), x.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out[i], ref[i], 2e-7f) << "n=" << n << " x=" << x[i];
      // Closed bounds: sigmoid(|x| >~ 17) rounds to exactly 0 or 1 in float.
      EXPECT_GE(out[i], 0.0f);
      EXPECT_LE(out[i], 1.0f);
    }
  }
}

TEST(SimdTest, SigmoidManyWorksInPlace) {
  auto x = RandomVec(40, 6);
  auto ref = x;
  simd::SigmoidMany(x.data(), x.data(), x.size());
  simd::SigmoidManyScalar(ref.data(), ref.data(), ref.size());
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], ref[i], 2e-7f);
}

TEST(SimdTest, SigmoidSaturatesStably) {
  const float xs[] = {-200.0f, -88.0f, 0.0f, 88.0f, 200.0f};
  float out[5];
  simd::SigmoidMany(out, xs, 5);
  EXPECT_GE(out[0], 0.0f);
  EXPECT_NEAR(out[2], 0.5f, 1e-6f);
  EXPECT_LE(out[4], 1.0f);
  for (float o : out) EXPECT_TRUE(std::isfinite(o));
}

TEST(SimdTest, BceWithLogitsSumMatchesScalarReference) {
  for (size_t n : kSizes) {
    const auto x = RandomVec(n, 7, -20.0f, 20.0f);
    std::vector<float> y(n);
    for (size_t i = 0; i < n; ++i) y[i] = (i % 3 == 0) ? 1.0f : 0.0f;
    const double got = simd::BceWithLogitsSum(x.data(), y.data(), n);
    const double ref = simd::BceWithLogitsSumScalar(x.data(), y.data(), n);
    EXPECT_NEAR(got, ref, 1e-4 * (1.0 + std::fabs(ref))) << "n=" << n;
    EXPECT_GE(got, 0.0);
  }
}

TEST(SimdTest, AdamRowMatchesScalarReference) {
  for (size_t n : kSizes) {
    auto w = RandomVec(n, 8, -1.0f, 1.0f);
    auto m = RandomVec(n, 9, -0.1f, 0.1f);
    auto v = RandomVec(n, 10, 0.0f, 0.1f);
    const auto g = RandomVec(n, 11, -1.0f, 1.0f);
    auto w2 = w, m2 = m, v2 = v;
    const float lr = 1e-2f, b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
    const float bc1 = 1.0f - std::pow(b1, 3.0f);
    const float bc2 = 1.0f - std::pow(b2, 3.0f);
    simd::AdamRow(w.data(), m.data(), v.data(), g.data(), n, lr, b1, b2, bc1,
                  bc2, eps);
    simd::AdamRowScalar(w2.data(), m2.data(), v2.data(), g.data(), n, lr, b1,
                        b2, bc1, bc2, eps);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(w[i], w2[i], 1e-5f) << "n=" << n << " i=" << i;
      EXPECT_NEAR(m[i], m2[i], 1e-6f);
      EXPECT_NEAR(v[i], v2[i], 1e-6f);
    }
  }
}

TEST(SimdTest, AdaGradRowMatchesScalarReference) {
  for (size_t n : kSizes) {
    auto w = RandomVec(n, 12, -1.0f, 1.0f);
    auto acc = RandomVec(n, 13, 0.0f, 0.5f);
    const auto g = RandomVec(n, 14, -1.0f, 1.0f);
    auto w2 = w, acc2 = acc;
    simd::AdaGradRow(w.data(), acc.data(), g.data(), n, 1e-2f, 1e-8f);
    simd::AdaGradRowScalar(w2.data(), acc2.data(), g.data(), n, 1e-2f, 1e-8f);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(w[i], w2[i], 1e-5f) << "n=" << n << " i=" << i;
      EXPECT_NEAR(acc[i], acc2[i], 1e-6f);
    }
  }
}

TEST(SimdTest, SgdRowIsAxpyWithNegatedLr) {
  const size_t n = 19;
  auto w = RandomVec(n, 15);
  const auto g = RandomVec(n, 16);
  auto w_ref = w;
  simd::SgdRow(w.data(), g.data(), n, 0.5f);
  simd::Axpy(w_ref.data(), g.data(), -0.5f, n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(w[i], w_ref[i]);
}

// ---- Int8 helpers ----------------------------------------------------------

std::vector<int8_t> RandomI8(size_t n, uint32_t seed) {
  // The quantizer's full code range, extremes included: [-127, 127].
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(-127, 127);
  std::vector<int8_t> v(n);
  for (auto& x : v) x = static_cast<int8_t>(dist(rng));
  return v;
}

TEST(SimdTest, SumI8MatchesNaiveAccumulation) {
  for (size_t n : {size_t{1}, size_t{31}, size_t{33}, size_t{200}}) {
    const auto v = RandomI8(n, 60 + static_cast<uint32_t>(n));
    int32_t expect = 0;
    for (const int8_t x : v) expect += x;
    EXPECT_EQ(simd::SumI8Scalar(v.data(), n), expect) << "n=" << n;
  }
}

TEST(SimdTest, ScalarHelpersAgree) {
  for (float x : {-5.0f, -0.5f, 0.0f, 0.5f, 5.0f}) {
    EXPECT_NEAR(simd::SigmoidOne(x), 1.0f / (1.0f + std::exp(-x)), 1e-6f);
    EXPECT_NEAR(simd::LogSigmoidOne(x), std::log(simd::SigmoidOne(x)), 1e-5f);
  }
  // BCE term at y=1 is -log(sigmoid(x)); at y=0 it is -log(1-sigmoid(x)).
  EXPECT_NEAR(simd::BceTermScalar(2.0f, 1.0f),
              -std::log(1.0 / (1.0 + std::exp(-2.0))), 1e-6);
  EXPECT_NEAR(simd::BceTermScalar(2.0f, 0.0f),
              -std::log(1.0 - 1.0 / (1.0 + std::exp(-2.0))), 1e-5);
}

}  // namespace
}  // namespace sttr
