#ifndef STTR_BASELINES_LCE_H_
#define STTR_BASELINES_LCE_H_

#include <string>

#include "core/recommender.h"
#include "tensor/tensor.h"

namespace sttr::baselines {

/// LCE (Saveski & Mantrach, "Item cold-start recommendations: learning
/// local collective embeddings"): joint non-negative factorisation of the
/// user-POI interaction matrix A ~= U V^T and the POI-word content matrix
/// B ~= V H^T with *shared* POI factors V, solved with Lee-Seung
/// multiplicative updates. Cold (target-city) POIs obtain factors through
/// their content, which is what makes the method applicable across cities.
/// (The original's manifold/locality regulariser is omitted; DESIGN.md
/// records the simplification.)
class Lce : public Recommender {
 public:
  /// `rank` latent dimensions, `iterations` multiplicative update rounds,
  /// `content_weight` is beta on the content reconstruction term.
  Lce(size_t rank = 32, size_t iterations = 40, double content_weight = 1.0,
      uint64_t seed = 11);

  Status Fit(const Dataset& dataset, const CrossCitySplit& split) override;
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override;
  std::string name() const override { return "LCE"; }

  /// Frobenius reconstruction error history (one entry per iteration).
  const std::vector<double>& loss_history() const { return loss_history_; }

 private:
  size_t rank_;
  size_t iterations_;
  double content_weight_;
  uint64_t seed_;
  Tensor u_;  // users x k
  Tensor v_;  // pois x k
  std::vector<double> loss_history_;
  bool fitted_ = false;
};

}  // namespace sttr::baselines

#endif  // STTR_BASELINES_LCE_H_
