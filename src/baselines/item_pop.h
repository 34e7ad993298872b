#ifndef STTR_BASELINES_ITEM_POP_H_
#define STTR_BASELINES_ITEM_POP_H_

#include <string>
#include <vector>

#include "core/recommender.h"

namespace sttr::baselines {

/// Popularity baseline: ranks POIs by their number of training check-ins
/// (the paper's "ItemPop"). No personalisation at all.
class ItemPop : public Recommender {
 public:
  Status Fit(const Dataset& dataset, const CrossCitySplit& split) override;
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override;
  std::string name() const override { return "ItemPop"; }

 private:
  std::vector<size_t> popularity_;
};

}  // namespace sttr::baselines

#endif  // STTR_BASELINES_ITEM_POP_H_
