#ifndef STTR_BASELINES_CRCF_H_
#define STTR_BASELINES_CRCF_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/common.h"
#include "core/recommender.h"

namespace sttr::baselines {

/// CRCF (Zhang & Wang, "POI recommendation through cross-region
/// collaborative filtering"): combines a user's *content interests*
/// (TF-IDF match between their source-city history and a candidate POI's
/// description) with their *location preference* in the new region. The
/// location preference is learned from the user's own check-ins in that
/// city — which a crossing-city visitor does not have. That is exactly why
/// the paper finds CRCF weak in this scenario ("CRCF depends on the
/// location of users in a new city"): for users without target-city
/// history the location component is uninformative (flat), leaving only
/// the content match.
class Crcf : public Recommender {
 public:
  /// `content_weight` in [0,1] mixes content vs location scores.
  explicit Crcf(double content_weight = 0.7);

  Status Fit(const Dataset& dataset, const CrossCitySplit& split) override;
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override;
  std::string name() const override { return "CRCF"; }

 private:
  double content_weight_;
  std::unique_ptr<TfIdfModel> tfidf_;
  std::vector<std::unordered_map<WordId, double>> user_profiles_;
  /// location_score_[u] is set only for users with target-city training
  /// check-ins (locals); flat 0.5 otherwise.
  std::vector<std::unordered_map<PoiId, double>> user_location_score_;
  bool fitted_ = false;
};

}  // namespace sttr::baselines

#endif  // STTR_BASELINES_CRCF_H_
