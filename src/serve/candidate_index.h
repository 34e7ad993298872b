#ifndef STTR_SERVE_CANDIDATE_INDEX_H_
#define STTR_SERVE_CANDIDATE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "geo/grid.h"
#include "geo/region_segmentation.h"

namespace sttr::serve {

struct CandidateIndexConfig {
  /// Grid resolution per city (reuses the training-side GridIndex).
  size_t grid_rows = 16;
  size_t grid_cols = 16;
  /// When true, cells are clustered into the paper's "uniformly accessible
  /// regions" (Algorithm 1 over the training check-ins) and candidate
  /// expansion pulls in whole regions: a query near downtown sees the whole
  /// downtown at once instead of a slowly growing square.
  bool use_regions = true;
  /// User-overlap merge threshold delta of Eq. 5 for the region clustering.
  double region_delta = 0.10;
  /// Seed of the (deterministic) region clustering.
  uint64_t seed = 123;
  /// Default lower bound on returned candidates; Candidates() expands rings
  /// until it is met or the city is exhausted.
  size_t min_candidates = 200;
};

/// Maps a query location to the nearby-cell POI candidate list the MLP
/// actually scores, so online requests score hundreds of POIs instead of a
/// whole city. Immutable after construction and safe for concurrent reads.
///
/// Candidate generation expands grid rings (Chebyshev distance 0, 1, 2, ...)
/// around the query cell, unioning in each touched cell's whole region, and
/// stops at the first ring boundary where at least `min_candidates` POIs
/// have been collected. The expansion only marks cells and sums their POI
/// counts; the list is then one scan of the city's POIs in id order, keeping
/// those in a marked cell. So a result is sorted by POI id without a sort,
/// and a candidate set is a deterministic function of (city, cell) alone —
/// which is what makes per-cell result caching sound.
class CandidateIndex {
 public:
  /// Builds per-city grids, cell -> POI buckets and (optionally) region
  /// assignments. `split` scopes the region clustering's user-visit counts
  /// to training check-ins; null uses all check-ins. The dataset must
  /// outlive the index.
  CandidateIndex(const Dataset& dataset, const CrossCitySplit* split,
                 CandidateIndexConfig config);

  /// Candidate POIs for a query at `loc` in `city`, sorted by id.
  /// `min_candidates` == 0 uses the config default. Never empty for a city
  /// that has POIs.
  std::vector<PoiId> Candidates(CityId city, const GeoPoint& loc,
                                size_t min_candidates = 0) const;

  /// Reusable per-thread working set for CandidatesInto. The visited-cell /
  /// visited-region bitmaps reach the city's size once and stay there.
  struct Scratch {
    std::vector<char> cell_taken;
    std::vector<char> region_taken;
  };

  /// Candidates() into caller-owned storage: `*out` is cleared and filled
  /// with the same sorted list Candidates() returns. With a warmed
  /// `scratch`/`out` pair this performs zero heap allocations — the serving
  /// workers' cache-miss path uses it.
  void CandidatesInto(CityId city, const GeoPoint& loc, size_t min_candidates,
                      Scratch* scratch, std::vector<PoiId>* out) const;

  /// Grid cell of `loc` in `city` (the result-cache key component).
  size_t CellOf(CityId city, const GeoPoint& loc) const;

  size_t NumCells(CityId city) const;
  size_t NumRegions(CityId city) const;

  const CandidateIndexConfig& config() const { return config_; }

 private:
  struct CityIndex {
    std::unique_ptr<GridIndex> grid;
    /// The city's POIs in ascending id order, and the grid cell of each.
    std::vector<PoiId> pois;
    std::vector<uint32_t> poi_cell;
    /// Number of the city's POIs in each cell.
    std::vector<size_t> cell_count;
    /// Dense region id per cell (identity when use_regions is false).
    std::vector<int> cell_to_region;
    std::vector<std::vector<size_t>> region_cells;
  };

  const CityIndex& City(CityId city) const;

  CandidateIndexConfig config_;
  std::vector<CityIndex> cities_;
};

}  // namespace sttr::serve

#endif  // STTR_SERVE_CANDIDATE_INDEX_H_
