#ifndef STTR_BASELINES_SH_CDL_H_
#define STTR_BASELINES_SH_CDL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace sttr::baselines {

/// SH-CDL (Yin et al., "Spatial-aware hierarchical collaborative deep
/// learning for POI recommendation"): a deep network learns unified POI
/// representations from heterogeneous content, combined with spatial-aware
/// user preferences. Our implementation:
///
///  1. A denoising autoencoder (masking noise) over each POI's normalised
///     bag-of-words learns a deep content representation — the paper's
///     deep-belief-network stage (substitution recorded in DESIGN.md: a DAE
///     trained by backprop replaces layer-wise RBM pre-training; both yield
///     a deep content encoding).
///  2. A preference model scores sigma(p_u . enc(v) + b_v + spatial(v)):
///     user factors and POI biases trained with logistic loss and uniform
///     negatives; spatial(v) is a fixed grid-cell popularity prior, the
///     spatial-awareness of the original.
///
/// As the paper observes, only the POI side is deep — user-POI interactions
/// stay shallow, which is why PACE/ST-TransRec outrank it.
class ShCdl : public Recommender {
 public:
  struct Config {
    size_t representation_dim = 32;
    size_t dae_hidden = 96;
    size_t dae_epochs = 12;
    size_t dae_batch = 64;
    float dae_corruption = 0.3f;
    float dae_learning_rate = 1e-3f;

    size_t mf_epochs = 16;
    size_t mf_batch = 256;
    size_t negatives = 4;
    float mf_learning_rate = 5e-2f;
    double spatial_weight = 0.3;
    size_t grid_rows = 16;
    size_t grid_cols = 16;
    uint64_t seed = 23;
  };

  ShCdl();
  explicit ShCdl(Config config);

  Status Fit(const Dataset& dataset, const CrossCitySplit& split) override;
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override;
  std::string name() const override { return "SH-CDL"; }

  /// Deep POI representation (row of the encoder output), after Fit().
  std::vector<float> PoiRepresentation(PoiId poi) const;

 private:
  Config config_;
  Tensor representations_;  // pois x dim (frozen after DAE training)
  Tensor user_factors_;     // users x dim
  std::vector<float> poi_bias_;
  std::vector<double> spatial_prior_;  // per poi
  bool fitted_ = false;
};

}  // namespace sttr::baselines

#endif  // STTR_BASELINES_SH_CDL_H_
