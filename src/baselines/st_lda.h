#ifndef STTR_BASELINES_ST_LDA_H_
#define STTR_BASELINES_ST_LDA_H_

#include <string>
#include <vector>

#include "core/recommender.h"

namespace sttr::baselines {

/// ST-LDA (Yin et al., "Adapting to user interest drift for POI
/// recommendation"): a probabilistic generative model learning
/// region-dependent personal interests and crowd preferences. Our
/// implementation: collapsed-Gibbs LDA over user documents (the words of
/// their visited POIs), plus a target-city *crowd* topic distribution
/// estimated from local check-ins. A candidate POI is scored by
///
///   sum_t [pi theta_u(t) + (1-pi) theta_crowd(t)] * mean_{w in W_v} phi_t(w),
///
/// mixing personal interest with the out-of-town crowd preference exactly as
/// the original interpolates the two.
class StLda : public Recommender {
 public:
  StLda(size_t num_topics = 12, size_t gibbs_iterations = 120,
        double alpha = 0.5, double beta = 0.05, double personal_weight = 0.7,
        uint64_t seed = 17);

  Status Fit(const Dataset& dataset, const CrossCitySplit& split) override;
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override;
  std::string name() const override { return "ST-LDA"; }

  /// theta_u(t) after Fit(); for tests that check topic recovery.
  const std::vector<std::vector<double>>& user_topics() const {
    return theta_;
  }

 private:
  size_t num_topics_;
  size_t iterations_;
  double alpha_;
  double beta_;
  double personal_weight_;
  uint64_t seed_;

  const Dataset* dataset_ = nullptr;
  std::vector<std::vector<double>> theta_;  // users x K
  std::vector<std::vector<double>> phi_;    // K x W
  std::vector<double> crowd_;               // K (target-city crowd prefs)
  bool fitted_ = false;
};

}  // namespace sttr::baselines

#endif  // STTR_BASELINES_ST_LDA_H_
