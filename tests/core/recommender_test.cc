#include "core/recommender.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synth/world_generator.h"

namespace sttr {
namespace {

struct Fixture {
  synth::SynthWorld world;
  CrossCitySplit split;
};

const Fixture& SharedFixture() {
  static const Fixture* f = [] {
    auto cfg = synth::SynthWorldConfig::FoursquareLike(synth::Scale::kTiny);
    auto* out = new Fixture{synth::GenerateWorld(cfg), {}};
    out->split = MakeCrossCitySplit(out->world.dataset, cfg.target_city);
    return out;
  }();
  return *f;
}

/// Minimal Recommender whose scores come from a caller-supplied function;
/// exercises RecommendTopK's bounded-heap selection in isolation.
class FnRecommender : public Recommender {
 public:
  using ScoreFn = double (*)(UserId, PoiId);
  explicit FnRecommender(ScoreFn fn) : fn_(fn) {}
  Status Fit(const Dataset&, const CrossCitySplit&) override {
    return Status::OK();
  }
  std::string name() const override { return "Fn"; }
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override {
    ScoreEachPair(users, pois, out, fn_);
  }

 private:
  ScoreFn fn_;
};

double ConstantScore(UserId, PoiId) { return 0.5; }

double HashScore(UserId user, PoiId poi) {
  uint64_t x = static_cast<uint64_t>(user) * 2654435761u +
               static_cast<uint64_t>(poi) * 40503u;
  x ^= x >> 13;
  x *= 0x2545F4914F6CDD1DULL;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Few distinct score levels, so ties are common and the id tie-break is
/// actually load-bearing.
double BucketedScore(UserId, PoiId poi) {
  return static_cast<double>(poi % 3);
}

/// Reference implementation: score everything, full sort, truncate.
std::vector<std::pair<PoiId, double>> FullSortTopK(
    const Recommender& rec, const Dataset& dataset, CityId city, UserId user,
    size_t k, const std::unordered_set<PoiId>* exclude = nullptr) {
  std::vector<std::pair<PoiId, double>> scored;
  for (PoiId v : dataset.PoisInCity(city)) {
    if (exclude != nullptr && exclude->count(v)) continue;
    scored.emplace_back(v, rec.Score(user, v));
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

TEST(RecommendTopKTest, MatchesFullSortReference) {
  const auto& f = SharedFixture();
  FnRecommender rec(&HashScore);
  for (size_t k : {1u, 5u, 10u, 1000000u}) {
    const auto got = rec.RecommendTopK(f.world.dataset, 0, 7, k);
    const auto want = FullSortTopK(rec, f.world.dataset, 0, 7, k);
    EXPECT_EQ(got, want) << "k=" << k;
  }
}

TEST(RecommendTopKTest, AllTiesReturnSmallestIdsInOrder) {
  const auto& f = SharedFixture();
  FnRecommender rec(&ConstantScore);
  const size_t k = 6;
  const auto top = rec.RecommendTopK(f.world.dataset, 0, 3, k);
  ASSERT_EQ(top.size(), k);
  // With every score equal, the result must be the k smallest POI ids of
  // the city, ascending — regardless of heap eviction order.
  std::vector<PoiId> ids = f.world.dataset.PoisInCity(0);
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(top[i].first, ids[i]) << "position " << i;
    EXPECT_EQ(top[i].second, 0.5);
  }
}

TEST(RecommendTopKTest, TieBreakDeterministicAcrossCalls) {
  const auto& f = SharedFixture();
  FnRecommender rec(&BucketedScore);
  const auto a = rec.RecommendTopK(f.world.dataset, 0, 1, 10);
  const auto b = rec.RecommendTopK(f.world.dataset, 0, 1, 10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, FullSortTopK(rec, f.world.dataset, 0, 1, 10));
  // Within a tied score level, ids ascend.
  for (size_t i = 1; i < a.size(); ++i) {
    if (a[i - 1].second == a[i].second) {
      EXPECT_LT(a[i - 1].first, a[i].first);
    }
  }
}

TEST(RecommendTopKTest, KZeroAndExclusionEdgeCases) {
  const auto& f = SharedFixture();
  FnRecommender rec(&HashScore);
  EXPECT_TRUE(rec.RecommendTopK(f.world.dataset, 0, 1, 0).empty());

  std::unordered_set<PoiId> all(f.world.dataset.PoisInCity(0).begin(),
                                f.world.dataset.PoisInCity(0).end());
  EXPECT_TRUE(rec.RecommendTopK(f.world.dataset, 0, 1, 5, &all).empty());

  // Excluding one POI shifts the ranking but never returns the excluded id.
  const auto top = rec.RecommendTopK(f.world.dataset, 0, 1, 5);
  ASSERT_FALSE(top.empty());
  std::unordered_set<PoiId> one{top.front().first};
  const auto rest = rec.RecommendTopK(f.world.dataset, 0, 1, 5, &one);
  EXPECT_EQ(rest, FullSortTopK(rec, f.world.dataset, 0, 1, 5, &one));
  for (const auto& [poi, score] : rest) EXPECT_NE(poi, top.front().first);
}

}  // namespace
}  // namespace sttr
