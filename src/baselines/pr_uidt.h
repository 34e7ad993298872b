#ifndef STTR_BASELINES_PR_UIDT_H_
#define STTR_BASELINES_PR_UIDT_H_

#include <string>
#include <vector>

#include "core/recommender.h"
#include "tensor/tensor.h"

namespace sttr::baselines {

/// PR-UIDT (Ding et al., "Learning from hometown and current city:
/// cross-city POI recommendation via interest drift and transfer learning"):
/// matrix factorisation where a POI's latent factor is tied to its content,
///
///   q_v = mean_{w in W_v} e_w + d_v,
///
/// with shared word factors e_w carrying the *transferable* interest and a
/// free per-POI deviation d_v modelling the local *drift*. Trained with
/// logistic loss and uniform negatives. Following the paper's adaptation
/// ("this model makes users' preferences learned from the source city
/// directly match POIs in the target city"), scoring uses p_u . q_v with no
/// crossing-city alignment step.
class PrUidt : public Recommender {
 public:
  PrUidt(size_t rank = 32, size_t epochs = 8, float learning_rate = 0.05f,
         float l2 = 1e-4f, size_t negatives = 4, uint64_t seed = 13);

  Status Fit(const Dataset& dataset, const CrossCitySplit& split) override;
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override;
  std::string name() const override { return "PR-UIDT"; }

 private:
  size_t rank_;
  size_t epochs_;
  float lr_;
  float l2_;
  size_t negatives_;
  uint64_t seed_;

  const Dataset* dataset_ = nullptr;
  Tensor users_;       // num_users x k
  Tensor words_;       // num_words x k
  Tensor deviations_;  // num_pois x k
  bool fitted_ = false;

  void PoiFactor(PoiId poi, float* out) const;
};

}  // namespace sttr::baselines

#endif  // STTR_BASELINES_PR_UIDT_H_
