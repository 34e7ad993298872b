#include "baselines/item_pop.h"

#include "util/check.h"

namespace sttr::baselines {

Status ItemPop::Fit(const Dataset& dataset, const CrossCitySplit& split) {
  popularity_.assign(dataset.num_pois(), 0);
  for (size_t idx : split.train) {
    popularity_[static_cast<size_t>(dataset.checkins()[idx].poi)] += 1;
  }
  return Status::OK();
}

void ItemPop::ScorePairsInto(std::span<const UserId> users,
                             std::span<const PoiId> pois,
                             std::span<double> out) const {
  STTR_CHECK(!popularity_.empty()) << "scoring before Fit()";
  ScoreEachPair(users, pois, out, [&](UserId /*user*/, PoiId poi) -> double {
    STTR_CHECK_GE(poi, 0);
    STTR_CHECK_LT(static_cast<size_t>(poi), popularity_.size());
    return static_cast<double>(popularity_[static_cast<size_t>(poi)]);
  });
}

}  // namespace sttr::baselines
