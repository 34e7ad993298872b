#include "baselines/crcf.h"

#include <algorithm>
#include <cmath>

#include "geo/geo.h"
#include "util/check.h"

namespace sttr::baselines {

Crcf::Crcf(double content_weight) : content_weight_(content_weight) {
  STTR_CHECK_GE(content_weight, 0.0);
  STTR_CHECK_LE(content_weight, 1.0);
}

Status Crcf::Fit(const Dataset& dataset, const CrossCitySplit& split) {
  const TrainView view = MakeTrainView(dataset, split);
  tfidf_ = std::make_unique<TfIdfModel>(dataset);

  user_profiles_.resize(dataset.num_users());
  for (UserId u = 0; u < static_cast<UserId>(dataset.num_users()); ++u) {
    user_profiles_[static_cast<size_t>(u)] =
        tfidf_->UserProfile(view.user_pois[static_cast<size_t>(u)]);
  }

  // Location preference per user, learned only from the user's own
  // check-ins in the candidate's city: a POI scores by its proximity to
  // the user's activity centroid there. Crossing-city test users have no
  // target-city training check-ins, so their map stays empty (flat score).
  user_location_score_.assign(dataset.num_users(), {});
  std::vector<std::vector<PoiId>> user_target_pois(dataset.num_users());
  for (size_t idx : split.train) {
    const CheckinRecord& rec = dataset.checkins()[idx];
    if (rec.city == split.target_city) {
      user_target_pois[static_cast<size_t>(rec.user)].push_back(rec.poi);
    }
  }
  for (UserId u = 0; u < static_cast<UserId>(dataset.num_users()); ++u) {
    const auto& mine = user_target_pois[static_cast<size_t>(u)];
    if (mine.empty()) continue;
    GeoPoint centroid{0, 0};
    for (PoiId v : mine) {
      centroid.lat += dataset.poi(v).location.lat;
      centroid.lon += dataset.poi(v).location.lon;
    }
    centroid.lat /= static_cast<double>(mine.size());
    centroid.lon /= static_cast<double>(mine.size());
    auto& scores = user_location_score_[static_cast<size_t>(u)];
    for (PoiId v : dataset.PoisInCity(split.target_city)) {
      const double km = HaversineKm(centroid, dataset.poi(v).location);
      scores[v] = std::exp(-km / 5.0);  // ~5 km activity radius
    }
  }
  fitted_ = true;
  return Status::OK();
}

void Crcf::ScorePairsInto(std::span<const UserId> users,
                          std::span<const PoiId> pois,
                          std::span<double> out) const {
  STTR_CHECK(fitted_) << "scoring before Fit()";
  ScoreEachPair(users, pois, out, [&](UserId user, PoiId poi) -> double {
    const double content = TfIdfModel::Cosine(
        user_profiles_[static_cast<size_t>(user)], tfidf_->PoiVector(poi));
    const auto& loc = user_location_score_[static_cast<size_t>(user)];
    const auto it = loc.find(poi);
    // Unknown location in the new city -> uninformative 0.5.
    const double location = it == loc.end() ? 0.5 : it->second;
    return content_weight_ * content + (1.0 - content_weight_) * location;
  });
}

}  // namespace sttr::baselines
