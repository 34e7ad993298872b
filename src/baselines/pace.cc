#include "baselines/pace.h"

namespace sttr::baselines {

StTransRecConfig Pace::MakeConfig(StTransRecConfig base) {
  base.use_mmd = false;
  base.resample_alpha = 0.0;
  base.use_text = true;
  base.use_geo_context = true;
  return base;
}

Pace::Pace(StTransRecConfig base) : inner_(MakeConfig(std::move(base))) {}

Status Pace::Fit(const Dataset& dataset, const CrossCitySplit& split) {
  return inner_.Fit(dataset, split);
}

void Pace::ScorePairsInto(std::span<const UserId> users,
                          std::span<const PoiId> pois,
                          std::span<double> out) const {
  inner_.ScorePairsInto(users, pois, out);
}

}  // namespace sttr::baselines
