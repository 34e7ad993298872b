#include "baselines/sh_cdl.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "baselines/common.h"
#include "geo/grid.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace sttr::baselines {

ShCdl::ShCdl() : ShCdl(Config{}) {}

ShCdl::ShCdl(Config config) : config_(config) {
  STTR_CHECK_GT(config_.representation_dim, 0u);
}

Status ShCdl::Fit(const Dataset& dataset, const CrossCitySplit& split) {
  const TrainView view = MakeTrainView(dataset, split);
  if (view.positives.empty()) {
    return Status::InvalidArgument("empty training split");
  }
  Rng rng(config_.seed);
  const size_t num_pois = dataset.num_pois();
  const size_t num_words = dataset.vocabulary().size();
  const size_t dim = config_.representation_dim;

  // ---- Stage 1: denoising autoencoder over POI bag-of-words. -----------------
  Tensor bow({num_pois, num_words});
  for (const Poi& p : dataset.pois()) {
    float* row = bow.row(static_cast<size_t>(p.id));
    for (WordId w : p.words) row[static_cast<size_t>(w)] += 1.0f;
    double norm = 0;
    for (size_t j = 0; j < num_words; ++j) norm += row[j] * row[j];
    norm = std::sqrt(norm);
    if (norm > 0) {
      for (size_t j = 0; j < num_words; ++j) {
        row[j] /= static_cast<float>(norm);
      }
    }
  }

  nn::Linear enc1(num_words, config_.dae_hidden, rng);
  nn::Linear enc2(config_.dae_hidden, dim, rng);
  nn::Linear dec1(dim, config_.dae_hidden, rng);
  nn::Linear dec2(config_.dae_hidden, num_words, rng);
  std::vector<ag::Variable> params;
  for (auto* layer : {&enc1, &enc2, &dec1, &dec2}) {
    for (auto& p : layer->Parameters()) params.push_back(p);
  }
  nn::Adam adam(params, config_.dae_learning_rate);

  std::vector<size_t> order(num_pois);
  for (size_t i = 0; i < num_pois; ++i) order[i] = i;
  auto encode = [&](const ag::Variable& x) {
    return ag::TanhOp(enc2.Forward(ag::Relu(enc1.Forward(x))));
  };
  for (size_t epoch = 0; epoch < config_.dae_epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < num_pois; start += config_.dae_batch) {
      const size_t end = std::min(num_pois, start + config_.dae_batch);
      Tensor clean({end - start, num_words});
      Tensor corrupted({end - start, num_words});
      for (size_t i = start; i < end; ++i) {
        const float* src = bow.row(order[i]);
        float* dst_clean = clean.row(i - start);
        float* dst_cor = corrupted.row(i - start);
        for (size_t j = 0; j < num_words; ++j) {
          dst_clean[j] = src[j];
          dst_cor[j] =
              rng.Bernoulli(config_.dae_corruption) ? 0.0f : src[j];
        }
      }
      ag::Variable x = ag::Constant(std::move(corrupted));
      ag::Variable recon = dec2.Forward(ag::Relu(dec1.Forward(encode(x))));
      ag::Variable diff = ag::Sub(recon, ag::Constant(std::move(clean)));
      ag::Variable loss = ag::Mean(ag::Mul(diff, diff));
      ag::Backward(loss);
      adam.Step();
    }
  }

  // Freeze representations: encoder output on clean inputs.
  {
    ag::Variable x = ag::Constant(bow);
    representations_ = encode(x).value();
  }

  // ---- Spatial prior: log-scaled popularity of the POI's grid cell. ----------
  std::vector<std::unique_ptr<GridIndex>> grids;
  std::vector<std::vector<double>> cell_pop(dataset.num_cities());
  for (size_t c = 0; c < dataset.num_cities(); ++c) {
    grids.push_back(std::make_unique<GridIndex>(
        dataset.city(static_cast<CityId>(c)).box, config_.grid_rows,
        config_.grid_cols));
    cell_pop[c].assign(grids[c]->NumCells(), 0.0);
  }
  for (size_t idx : split.train) {
    const CheckinRecord& rec = dataset.checkins()[idx];
    const size_t c = static_cast<size_t>(rec.city);
    cell_pop[c][grids[c]->CellOf(dataset.poi(rec.poi).location)] += 1.0;
  }
  spatial_prior_.assign(num_pois, 0.0);
  for (const Poi& p : dataset.pois()) {
    const size_t c = static_cast<size_t>(p.city);
    spatial_prior_[static_cast<size_t>(p.id)] =
        config_.spatial_weight *
        std::log1p(cell_pop[c][grids[c]->CellOf(p.location)]);
  }

  // ---- Stage 2: logistic MF against the frozen deep representations. --------
  user_factors_ =
      Tensor::RandomNormal({dataset.num_users(), dim}, rng, 0, 0.1f);
  poi_bias_.assign(num_pois, 0.0f);
  const float lr = config_.mf_learning_rate;
  auto sgd = [&](UserId u, PoiId v, float label) {
    float* pu = user_factors_.row(static_cast<size_t>(u));
    const float* rv = representations_.row(static_cast<size_t>(v));
    double s = poi_bias_[static_cast<size_t>(v)] +
               spatial_prior_[static_cast<size_t>(v)];
    for (size_t j = 0; j < dim; ++j) s += static_cast<double>(pu[j]) * rv[j];
    const float g = label - SigmoidScalar(static_cast<float>(s));
    poi_bias_[static_cast<size_t>(v)] += lr * g;
    for (size_t j = 0; j < dim; ++j) pu[j] += lr * g * rv[j];
  };
  for (size_t epoch = 0; epoch < config_.mf_epochs; ++epoch) {
    for (size_t n = 0; n < view.positives.size(); ++n) {
      const auto& [u, v] =
          view.positives[rng.UniformInt(view.positives.size())];
      sgd(u, v, 1.0f);
      const auto& pool =
          view.city_pois[static_cast<size_t>(dataset.poi(v).city)];
      for (size_t k = 0; k < config_.negatives; ++k) {
        sgd(u, static_cast<PoiId>(pool[rng.UniformInt(pool.size())]), 0.0f);
      }
    }
  }
  fitted_ = true;
  return Status::OK();
}

void ShCdl::ScorePairsInto(std::span<const UserId> users,
                           std::span<const PoiId> pois,
                           std::span<double> out) const {
  STTR_CHECK(fitted_) << "scoring before Fit()";
  ScoreEachPair(users, pois, out, [&](UserId user, PoiId poi) -> double {
    const float* pu = user_factors_.row(static_cast<size_t>(user));
    const float* rv = representations_.row(static_cast<size_t>(poi));
    double s = poi_bias_[static_cast<size_t>(poi)] +
               spatial_prior_[static_cast<size_t>(poi)];
    for (size_t j = 0; j < config_.representation_dim; ++j) {
      s += static_cast<double>(pu[j]) * rv[j];
    }
    return SigmoidScalar(static_cast<float>(s));
  });
}

std::vector<float> ShCdl::PoiRepresentation(PoiId poi) const {
  STTR_CHECK(fitted_);
  const float* row = representations_.row(static_cast<size_t>(poi));
  return std::vector<float>(row, row + representations_.cols());
}

}  // namespace sttr::baselines
