#ifndef STTR_CORE_RECOMMENDER_H_
#define STTR_CORE_RECOMMENDER_H_

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "eval/protocol.h"
#include "util/status.h"

namespace sttr {

/// Common interface of ST-TransRec, its ablation variants and every
/// baseline: fit on the crossing-city training split, then score
/// (user, poi) pairs for the evaluation protocol.
class Recommender : public PoiScorer {
 public:
  /// Trains the model. Must be called before Score().
  virtual Status Fit(const Dataset& dataset, const CrossCitySplit& split) = 0;

  /// Display name used in benchmark tables ("ST-TransRec", "PACE", ...).
  virtual std::string name() const = 0;

  /// Top-k POIs of `city` for `user` by score, optionally excluding a set
  /// (e.g. already-visited POIs). Returns (poi, score) pairs, best first.
  std::vector<std::pair<PoiId, double>> RecommendTopK(
      const Dataset& dataset, CityId city, UserId user, size_t k,
      const std::unordered_set<PoiId>* exclude = nullptr) const;
};

}  // namespace sttr

#endif  // STTR_CORE_RECOMMENDER_H_
