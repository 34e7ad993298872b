#ifndef STTR_BASELINES_PACE_H_
#define STTR_BASELINES_PACE_H_

#include <string>

#include "core/st_transrec.h"

namespace sttr::baselines {

/// PACE (Yang et al., "Bridging collaborative filtering and semi-supervised
/// learning"): neural collaborative filtering jointly trained with context
/// prediction over each POI's textual description and geographic
/// neighbourhood. Shares ST-TransRec's skeleton but has neither the MMD
/// transfer layer nor the density-based resampling.
class Pace : public Recommender {
 public:
  /// `base` carries architecture/optimisation settings; the transfer and
  /// resampling switches are overridden to PACE's configuration.
  explicit Pace(StTransRecConfig base = {});

  Status Fit(const Dataset& dataset, const CrossCitySplit& split) override;
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override;
  std::string name() const override { return "PACE"; }

  const StTransRec& inner() const { return inner_; }

 private:
  static StTransRecConfig MakeConfig(StTransRecConfig base);
  StTransRec inner_;
};

}  // namespace sttr::baselines

#endif  // STTR_BASELINES_PACE_H_
