#ifndef STTR_BASELINES_CTLM_H_
#define STTR_BASELINES_CTLM_H_

#include <string>
#include <vector>

#include "core/recommender.h"

namespace sttr::baselines {

/// CTLM (Li et al., "A common topic transfer learning model for crossing
/// city POI recommendations"): a cross-collection topic model that separates
/// *common* topics from *city-specific* ones so users' interests transfer
/// through the common part. Each token draws a topic z from the user's
/// distribution and a switch x deciding whether the word comes from the
/// common word distribution phi0_z or the city-specific phi_z^c (collapsed
/// Beta prior on the switch). Scoring a target POI mixes the common and
/// target-specific word distributions under the user's source-learned
/// topics — the transfer mechanism of the original.
class Ctlm : public Recommender {
 public:
  Ctlm(size_t num_topics = 16, size_t gibbs_iterations = 120,
       double alpha = 0.5, double beta = 0.05, double gamma = 1.0,
       double personal_weight = 0.7, uint64_t seed = 19);

  Status Fit(const Dataset& dataset, const CrossCitySplit& split) override;
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override;
  std::string name() const override { return "CTLM"; }

  /// P(common | topic, city) after Fit(); exposed for tests (city-dependent
  /// landmark words should gravitate to the specific distributions).
  double CommonProbability(size_t topic, CityId city) const;

  /// phi0_t(w), the common word distribution.
  const std::vector<std::vector<double>>& common_phi() const { return phi0_; }

  /// theta_u(t) after Fit().
  const std::vector<std::vector<double>>& user_topics() const {
    return theta_;
  }

  /// Target-city crowd topic distribution after Fit().
  const std::vector<double>& crowd() const { return crowd_; }

  /// City-specific word distributions phi_spec[city][topic][word].
  const std::vector<std::vector<std::vector<double>>>& specific_phi() const {
    return phi_spec_;
  }

 private:
  size_t num_topics_;
  size_t iterations_;
  double alpha_;
  double beta_;
  double gamma_;  // Beta prior of the common/specific switch
  double personal_weight_;
  uint64_t seed_;

  const Dataset* dataset_ = nullptr;
  CityId target_city_ = -1;
  std::vector<std::vector<double>> theta_;  // users x K
  std::vector<std::vector<double>> phi0_;   // K x W, common
  /// phi_spec_[c][z][w], per-city specific distributions.
  std::vector<std::vector<std::vector<double>>> phi_spec_;
  /// p_common_[c][z].
  std::vector<std::vector<double>> p_common_;
  std::vector<double> crowd_;  // target-city crowd topic preferences
  bool fitted_ = false;
};

}  // namespace sttr::baselines

#endif  // STTR_BASELINES_CTLM_H_
