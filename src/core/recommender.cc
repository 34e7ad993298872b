#include "core/recommender.h"

namespace sttr {

std::vector<std::pair<PoiId, double>> Recommender::RecommendTopK(
    const Dataset& dataset, CityId city, UserId user, size_t k,
    const std::unordered_set<PoiId>* exclude) const {
  std::vector<PoiId> candidates;
  const auto& city_pois = dataset.PoisInCity(city);
  candidates.reserve(city_pois.size());
  for (PoiId v : city_pois) {
    if (exclude != nullptr && exclude->count(v)) continue;
    candidates.push_back(v);
  }
  if (k == 0 || candidates.empty()) return {};
  const std::vector<double> scores = ScoreBatch(user, candidates);
  return TopKByScore(candidates, scores, k);
}

}  // namespace sttr
