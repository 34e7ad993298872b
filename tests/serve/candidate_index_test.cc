// CandidateIndex: candidate sets are sorted, deduplicated, city-scoped,
// meet the min_candidates target (or exhaust the city), and are a
// deterministic function of (city, query cell) — the property per-cell
// result caching relies on.

#include <algorithm>
#include <cstdlib>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "geo/grid.h"
#include "geo/region_segmentation.h"
#include "serve/candidate_index.h"
#include "serve_test_util.h"
#include "util/rng.h"

namespace sttr::serve {
namespace {

class CandidateIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = new ServeFixture(MakeServeFixture()); }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  const Dataset& dataset() { return fixture_->world.dataset; }
  const CrossCitySplit& split() { return fixture_->split; }

  static ServeFixture* fixture_;
};

ServeFixture* CandidateIndexTest::fixture_ = nullptr;

TEST_F(CandidateIndexTest, CandidatesAreSortedUniqueAndInCity) {
  CandidateIndex index(dataset(), &split(), CandidateIndexConfig{});
  for (CityId city = 0; city < static_cast<CityId>(dataset().num_cities());
       ++city) {
    const auto& pois = dataset().PoisInCity(city);
    if (pois.empty()) continue;
    const GeoPoint loc = dataset().poi(pois[pois.size() / 2]).location;
    const std::vector<PoiId> candidates = index.Candidates(city, loc);
    ASSERT_FALSE(candidates.empty());
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    EXPECT_EQ(std::adjacent_find(candidates.begin(), candidates.end()),
              candidates.end())
        << "duplicate candidate";
    for (PoiId poi : candidates) {
      EXPECT_EQ(dataset().poi(poi).city, city);
    }
  }
}

TEST_F(CandidateIndexTest, MeetsMinCandidatesOrExhaustsCity) {
  CandidateIndexConfig config;
  config.min_candidates = 50;
  CandidateIndex index(dataset(), &split(), config);
  const CityId city = split().target_city;
  const size_t city_size = dataset().PoisInCity(city).size();
  const GeoPoint loc = dataset().poi(dataset().PoisInCity(city)[0]).location;

  const auto defaulted = index.Candidates(city, loc);
  EXPECT_GE(defaulted.size(), std::min<size_t>(50, city_size));

  // An explicit target overrides the config default.
  const auto ten = index.Candidates(city, loc, 10);
  EXPECT_GE(ten.size(), std::min<size_t>(10, city_size));

  // Asking for more than the city holds returns the whole city.
  const auto all = index.Candidates(city, loc, city_size * 10);
  EXPECT_EQ(all.size(), city_size);
}

TEST_F(CandidateIndexTest, SameCellSameCandidates) {
  CandidateIndex index(dataset(), &split(), CandidateIndexConfig{});
  const CityId city = split().target_city;
  const auto& pois = dataset().PoisInCity(city);
  // Find two POIs in the same grid cell.
  for (size_t i = 0; i + 1 < pois.size(); ++i) {
    const GeoPoint a = dataset().poi(pois[i]).location;
    for (size_t j = i + 1; j < pois.size(); ++j) {
      const GeoPoint b = dataset().poi(pois[j]).location;
      if (index.CellOf(city, a) != index.CellOf(city, b)) continue;
      EXPECT_EQ(index.Candidates(city, a), index.Candidates(city, b))
          << "same cell must yield the same candidate set";
      return;
    }
  }
  GTEST_SKIP() << "no two POIs share a cell in this world";
}

TEST_F(CandidateIndexTest, RepeatedQueriesAreDeterministic) {
  CandidateIndex index(dataset(), &split(), CandidateIndexConfig{});
  const CityId city = split().target_city;
  const GeoPoint loc = dataset().poi(dataset().PoisInCity(city)[3]).location;
  const auto first = index.Candidates(city, loc);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(index.Candidates(city, loc), first);
  }
  // Two independently constructed indexes agree too (no hidden RNG state).
  CandidateIndex other(dataset(), &split(), CandidateIndexConfig{});
  EXPECT_EQ(other.Candidates(city, loc), first);
}

TEST_F(CandidateIndexTest, GridOnlyModeWorks) {
  CandidateIndexConfig config;
  config.use_regions = false;
  CandidateIndex index(dataset(), &split(), config);
  const CityId city = split().target_city;
  EXPECT_EQ(index.NumRegions(city), index.NumCells(city));
  const GeoPoint loc = dataset().poi(dataset().PoisInCity(city)[0]).location;
  const auto candidates = index.Candidates(city, loc);
  EXPECT_FALSE(candidates.empty());
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
}

TEST_F(CandidateIndexTest, RegionsCoarsenCells) {
  CandidateIndex index(dataset(), &split(), CandidateIndexConfig{});
  const CityId city = split().target_city;
  EXPECT_GE(index.NumRegions(city), 1u);
  EXPECT_LE(index.NumRegions(city), index.NumCells(city));
}

TEST_F(CandidateIndexTest, CellOfIsWithinGrid) {
  CandidateIndex index(dataset(), &split(), CandidateIndexConfig{});
  const CityId city = split().target_city;
  for (PoiId poi : dataset().PoisInCity(city)) {
    EXPECT_LT(index.CellOf(city, dataset().poi(poi).location),
              index.NumCells(city));
  }
  // Out-of-bounds coordinates clamp to a valid cell instead of crashing.
  EXPECT_LT(index.CellOf(city, GeoPoint{1000.0, -1000.0}),
            index.NumCells(city));
}

/// The candidate generation CandidatesInto replaced, kept as the oracle:
/// per-cell id buckets appended while the rings expand, then one sort. It
/// rebuilds the grid and regions exactly as CandidateIndex does.
class InsertSortOracle {
 public:
  InsertSortOracle(const Dataset& dataset, const CrossCitySplit& split,
                   const CandidateIndexConfig& config, CityId city)
      : grid_(dataset.city(city).box, config.grid_rows, config.grid_cols),
        config_(config) {
    cell_pois_.resize(grid_.NumCells());
    for (PoiId v : dataset.PoisInCity(city)) {
      cell_pois_[grid_.CellOf(dataset.poi(v).location)].push_back(v);
    }
    for (auto& bucket : cell_pois_) std::sort(bucket.begin(), bucket.end());
    if (config.use_regions) {
      RegionSegmenter segmenter(grid_, config.region_delta);
      for (size_t i : split.train) {
        const CheckinRecord& rec = dataset.checkins()[i];
        if (rec.city != city) continue;
        segmenter.AddVisit(grid_.CellOf(dataset.poi(rec.poi).location),
                           rec.user);
      }
      Rng rng(config.seed ^ static_cast<uint64_t>(city));
      RegionAssignment assignment = segmenter.Segment(rng);
      cell_to_region_ = std::move(assignment.cell_to_region);
      region_cells_ = std::move(assignment.region_cells);
    } else {
      for (size_t cell = 0; cell < grid_.NumCells(); ++cell) {
        cell_to_region_.push_back(static_cast<int>(cell));
        region_cells_.push_back({cell});
      }
    }
  }

  const GridIndex& grid() const { return grid_; }

  std::vector<PoiId> Candidates(const GeoPoint& loc, size_t min_candidates) {
    const size_t target =
        min_candidates == 0 ? config_.min_candidates : min_candidates;
    const size_t origin = grid_.CellOf(loc);
    const long row0 = static_cast<long>(grid_.RowOf(origin));
    const long col0 = static_cast<long>(grid_.ColOf(origin));
    const long rows = static_cast<long>(grid_.rows());
    const long cols = static_cast<long>(grid_.cols());
    const long max_radius = std::max(std::max(row0, rows - 1 - row0),
                                     std::max(col0, cols - 1 - col0));
    std::vector<char> cell_taken(grid_.NumCells(), 0);
    std::vector<char> region_taken(region_cells_.size(), 0);
    std::vector<PoiId> out;
    for (long radius = 0; radius <= max_radius; ++radius) {
      for (long r = row0 - radius; r <= row0 + radius; ++r) {
        for (long c = col0 - radius; c <= col0 + radius; ++c) {
          if (r < 0 || r >= rows || c < 0 || c >= cols) continue;
          if (std::max(std::labs(r - row0), std::labs(c - col0)) != radius) {
            continue;
          }
          const size_t region = static_cast<size_t>(
              cell_to_region_[static_cast<size_t>(r * cols + c)]);
          if (region_taken[region]) continue;
          region_taken[region] = 1;
          for (size_t member : region_cells_[region]) {
            if (cell_taken[member]) continue;
            cell_taken[member] = 1;
            out.insert(out.end(), cell_pois_[member].begin(),
                       cell_pois_[member].end());
          }
        }
      }
      if (out.size() >= target) break;
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  GridIndex grid_;
  CandidateIndexConfig config_;
  std::vector<std::vector<PoiId>> cell_pois_;
  std::vector<int> cell_to_region_;
  std::vector<std::vector<size_t>> region_cells_;
};

TEST_F(CandidateIndexTest, CandidatesIntoEqualsInsertSortOracleEverywhere) {
  for (const bool use_regions : {true, false}) {
    CandidateIndexConfig config;
    config.use_regions = use_regions;
    const CandidateIndex index(dataset(), &split(), config);
    CandidateIndex::Scratch scratch;
    std::vector<PoiId> got;
    for (CityId city = 0; city < static_cast<CityId>(dataset().num_cities());
         ++city) {
      InsertSortOracle oracle(dataset(), split(), config, city);
      const size_t city_size = dataset().PoisInCity(city).size();
      for (const size_t min_candidates :
           {size_t{0}, size_t{10}, size_t{200}, 10 * city_size}) {
        for (size_t cell = 0; cell < oracle.grid().NumCells(); ++cell) {
          const GeoPoint loc = oracle.grid().CellCenter(cell);
          ASSERT_EQ(index.CellOf(city, loc), cell);
          index.CandidatesInto(city, loc, min_candidates, &scratch, &got);
          ASSERT_EQ(got, oracle.Candidates(loc, min_candidates))
              << "regions " << use_regions << " city " << city << " cell "
              << cell << " min_candidates " << min_candidates;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sttr::serve
