#include "baselines/lce.h"

#include <cmath>

#include "baselines/common.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace sttr::baselines {

namespace {

/// Sparse matrix as parallel (row, col, value) triplets.
struct SparseMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<size_t> r;
  std::vector<size_t> c;
  std::vector<float> x;

  void Add(size_t row, size_t col, float value) {
    r.push_back(row);
    c.push_back(col);
    x.push_back(value);
  }
};

/// out(rows x k) = S * F where F is (cols x k).
Tensor SpMm(const SparseMatrix& s, const Tensor& f) {
  Tensor out({s.rows, f.cols()});
  for (size_t e = 0; e < s.r.size(); ++e) {
    const float* src = f.row(s.c[e]);
    float* dst = out.row(s.r[e]);
    const float val = s.x[e];
    for (size_t j = 0; j < f.cols(); ++j) dst[j] += val * src[j];
  }
  return out;
}

/// out(cols x k) = S^T * F where F is (rows x k).
Tensor SpMmTrans(const SparseMatrix& s, const Tensor& f) {
  Tensor out({s.cols, f.cols()});
  for (size_t e = 0; e < s.r.size(); ++e) {
    const float* src = f.row(s.r[e]);
    float* dst = out.row(s.c[e]);
    const float val = s.x[e];
    for (size_t j = 0; j < f.cols(); ++j) dst[j] += val * src[j];
  }
  return out;
}

/// Squared Frobenius error ||S - F G^T||^2 restricted to structural zeros
/// approximated by sampling is expensive; we report the error over the
/// non-zeros only (sufficient for a convergence diagnostic).
double SparseResidual(const SparseMatrix& s, const Tensor& f,
                      const Tensor& g) {
  double err = 0;
  for (size_t e = 0; e < s.r.size(); ++e) {
    const float* fr = f.row(s.r[e]);
    const float* gr = g.row(s.c[e]);
    double pred = 0;
    for (size_t j = 0; j < f.cols(); ++j) pred += static_cast<double>(fr[j]) * gr[j];
    const double d = s.x[e] - pred;
    err += d * d;
  }
  return err;
}

/// Elementwise multiplicative update F <- F * num / (den + eps).
void MultiplicativeUpdate(Tensor& f, const Tensor& num, const Tensor& den) {
  constexpr float kEps = 1e-9f;
  for (size_t i = 0; i < f.size(); ++i) {
    f[i] *= num[i] / (den[i] + kEps);
  }
}

}  // namespace

Lce::Lce(size_t rank, size_t iterations, double content_weight, uint64_t seed)
    : rank_(rank),
      iterations_(iterations),
      content_weight_(content_weight),
      seed_(seed) {
  STTR_CHECK_GT(rank, 0u);
}

Status Lce::Fit(const Dataset& dataset, const CrossCitySplit& split) {
  const TrainView view = MakeTrainView(dataset, split);
  if (view.positives.empty()) {
    return Status::InvalidArgument("empty training split");
  }

  // A: binary user-POI matrix; B: POI-word count matrix.
  SparseMatrix a;
  a.rows = dataset.num_users();
  a.cols = dataset.num_pois();
  for (UserId u = 0; u < static_cast<UserId>(dataset.num_users()); ++u) {
    for (PoiId v : view.user_pois[static_cast<size_t>(u)]) {
      a.Add(static_cast<size_t>(u), static_cast<size_t>(v), 1.0f);
    }
  }
  SparseMatrix b;
  b.rows = dataset.num_pois();
  b.cols = dataset.vocabulary().size();
  for (const Poi& p : dataset.pois()) {
    for (WordId w : p.words) {
      b.Add(static_cast<size_t>(p.id), static_cast<size_t>(w), 1.0f);
    }
  }

  Rng rng(seed_);
  u_ = Tensor::RandomUniform({a.rows, rank_}, rng, 0.01f, 1.0f);
  v_ = Tensor::RandomUniform({a.cols, rank_}, rng, 0.01f, 1.0f);
  Tensor h = Tensor::RandomUniform({b.cols, rank_}, rng, 0.01f, 1.0f);

  const float beta = static_cast<float>(content_weight_);
  loss_history_.clear();
  for (size_t it = 0; it < iterations_; ++it) {
    // U <- U * (A V) / (U V^T V)
    MultiplicativeUpdate(u_, SpMm(a, v_), MatMul(u_, MatMulTransA(v_, v_)));
    // V <- V * (A^T U + beta B H) / (V (U^T U + beta H^T H))
    Tensor v_num = SpMmTrans(a, u_);
    v_num.Axpy(beta, SpMm(b, h));
    Tensor gram = MatMulTransA(u_, u_);
    gram.Axpy(beta, MatMulTransA(h, h));
    MultiplicativeUpdate(v_, v_num, MatMul(v_, gram));
    // H <- H * (B^T V) / (H V^T V)
    MultiplicativeUpdate(h, SpMmTrans(b, v_), MatMul(h, MatMulTransA(v_, v_)));

    loss_history_.push_back(SparseResidual(a, u_, v_) +
                            content_weight_ * SparseResidual(b, v_, h));
  }
  fitted_ = true;
  return Status::OK();
}

void Lce::ScorePairsInto(std::span<const UserId> users,
                         std::span<const PoiId> pois,
                         std::span<double> out) const {
  STTR_CHECK(fitted_) << "scoring before Fit()";
  ScoreEachPair(users, pois, out, [&](UserId user, PoiId poi) -> double {
    const float* ur = u_.row(static_cast<size_t>(user));
    const float* vr = v_.row(static_cast<size_t>(poi));
    double s = 0;
    for (size_t j = 0; j < rank_; ++j) s += static_cast<double>(ur[j]) * vr[j];
    return s;
  });
}

}  // namespace sttr::baselines
