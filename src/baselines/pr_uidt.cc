#include "baselines/pr_uidt.h"

#include <algorithm>
#include <cmath>

#include "baselines/common.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace sttr::baselines {

PrUidt::PrUidt(size_t rank, size_t epochs, float learning_rate, float l2,
               size_t negatives, uint64_t seed)
    : rank_(rank),
      epochs_(epochs),
      lr_(learning_rate),
      l2_(l2),
      negatives_(negatives),
      seed_(seed) {
  STTR_CHECK_GT(rank, 0u);
}

void PrUidt::PoiFactor(PoiId poi, float* out) const {
  const auto& w_ids = dataset_->poi(poi).words;
  const float* dev = deviations_.row(static_cast<size_t>(poi));
  for (size_t j = 0; j < rank_; ++j) out[j] = dev[j];
  if (w_ids.empty()) return;
  const float inv = 1.0f / static_cast<float>(w_ids.size());
  for (WordId w : w_ids) {
    const float* wr = words_.row(static_cast<size_t>(w));
    for (size_t j = 0; j < rank_; ++j) out[j] += inv * wr[j];
  }
}

Status PrUidt::Fit(const Dataset& dataset, const CrossCitySplit& split) {
  dataset_ = &dataset;
  const TrainView view = MakeTrainView(dataset, split);
  if (view.positives.empty()) {
    return Status::InvalidArgument("empty training split");
  }

  Rng rng(seed_);
  users_ = Tensor::RandomNormal({dataset.num_users(), rank_}, rng, 0, 0.1f);
  words_ = Tensor::RandomNormal({dataset.vocabulary().size(), rank_}, rng, 0,
                                0.1f);
  deviations_ = Tensor::RandomNormal({dataset.num_pois(), rank_}, rng, 0,
                                     0.01f);

  std::vector<float> q(rank_);
  auto sgd_step = [&](UserId u, PoiId v, float label) {
    PoiFactor(v, q.data());
    float* pu = users_.row(static_cast<size_t>(u));
    double s = 0;
    for (size_t j = 0; j < rank_; ++j) s += static_cast<double>(pu[j]) * q[j];
    const float g = label - SigmoidScalar(static_cast<float>(s));
    // Gradient ascent on log-likelihood with L2 shrinkage.
    float* dv = deviations_.row(static_cast<size_t>(v));
    const auto& w_ids = dataset.poi(v).words;
    const float inv_w =
        w_ids.empty() ? 0.0f : 1.0f / static_cast<float>(w_ids.size());
    for (size_t j = 0; j < rank_; ++j) {
      const float gu = g * q[j] - l2_ * pu[j];
      const float gq = g * pu[j];
      dv[j] += lr_ * (gq - l2_ * dv[j]);
      for (WordId w : w_ids) {
        words_.row(static_cast<size_t>(w))[j] += lr_ * inv_w * gq;
      }
      pu[j] += lr_ * gu;
    }
  };

  for (size_t epoch = 0; epoch < epochs_; ++epoch) {
    for (size_t n = 0; n < view.positives.size(); ++n) {
      const auto& [u, v] = view.positives[rng.UniformInt(
          view.positives.size())];
      sgd_step(u, v, 1.0f);
      const auto& pool = view.city_pois[static_cast<size_t>(
          dataset.poi(v).city)];
      for (size_t k = 0; k < negatives_; ++k) {
        sgd_step(u, static_cast<PoiId>(pool[rng.UniformInt(pool.size())]),
                 0.0f);
      }
    }
  }
  fitted_ = true;
  return Status::OK();
}

void PrUidt::ScorePairsInto(std::span<const UserId> users,
                            std::span<const PoiId> pois,
                            std::span<double> out) const {
  STTR_CHECK(fitted_) << "scoring before Fit()";
  std::vector<float> q(rank_);
  ScoreEachPair(users, pois, out, [&](UserId user, PoiId poi) -> double {
    PoiFactor(poi, q.data());
    const float* pu = users_.row(static_cast<size_t>(user));
    double s = 0;
    for (size_t j = 0; j < rank_; ++j) s += static_cast<double>(pu[j]) * q[j];
    return SigmoidScalar(static_cast<float>(s));
  });
}

}  // namespace sttr::baselines
