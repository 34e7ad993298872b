#include "serve/candidate_index.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"
#include "util/rng.h"

namespace sttr::serve {

CandidateIndex::CandidateIndex(const Dataset& dataset,
                               const CrossCitySplit* split,
                               CandidateIndexConfig config)
    : config_(std::move(config)) {
  STTR_CHECK_GT(config_.grid_rows, 0u);
  STTR_CHECK_GT(config_.grid_cols, 0u);
  cities_.resize(dataset.num_cities());
  for (CityId c = 0; c < static_cast<CityId>(dataset.num_cities()); ++c) {
    CityIndex& index = cities_[static_cast<size_t>(c)];
    index.grid = std::make_unique<GridIndex>(dataset.city(c).box,
                                             config_.grid_rows,
                                             config_.grid_cols);
    index.pois = dataset.PoisInCity(c);
    std::sort(index.pois.begin(), index.pois.end());
    index.poi_cell.reserve(index.pois.size());
    index.cell_count.assign(index.grid->NumCells(), 0);
    for (PoiId v : index.pois) {
      const size_t cell = index.grid->CellOf(dataset.poi(v).location);
      index.poi_cell.push_back(static_cast<uint32_t>(cell));
      ++index.cell_count[cell];
    }

    if (config_.use_regions) {
      RegionSegmenter segmenter(*index.grid, config_.region_delta);
      const auto add_visit = [&](const CheckinRecord& rec) {
        if (rec.city != c) return;
        segmenter.AddVisit(index.grid->CellOf(dataset.poi(rec.poi).location),
                           rec.user);
      };
      if (split != nullptr) {
        for (size_t i : split->train) add_visit(dataset.checkins()[i]);
      } else {
        for (const CheckinRecord& rec : dataset.checkins()) add_visit(rec);
      }
      Rng rng(config_.seed ^ static_cast<uint64_t>(c));
      RegionAssignment assignment = segmenter.Segment(rng);
      index.cell_to_region = std::move(assignment.cell_to_region);
      index.region_cells = std::move(assignment.region_cells);
    } else {
      index.cell_to_region.resize(index.grid->NumCells());
      index.region_cells.resize(index.grid->NumCells());
      for (size_t cell = 0; cell < index.grid->NumCells(); ++cell) {
        index.cell_to_region[cell] = static_cast<int>(cell);
        index.region_cells[cell] = {cell};
      }
    }
  }
}

const CandidateIndex::CityIndex& CandidateIndex::City(CityId city) const {
  STTR_CHECK_GE(city, 0);
  STTR_CHECK_LT(static_cast<size_t>(city), cities_.size());
  return cities_[static_cast<size_t>(city)];
}

size_t CandidateIndex::CellOf(CityId city, const GeoPoint& loc) const {
  return City(city).grid->CellOf(loc);
}

size_t CandidateIndex::NumCells(CityId city) const {
  return City(city).grid->NumCells();
}

size_t CandidateIndex::NumRegions(CityId city) const {
  return City(city).region_cells.size();
}

std::vector<PoiId> CandidateIndex::Candidates(CityId city, const GeoPoint& loc,
                                              size_t min_candidates) const {
  Scratch scratch;
  std::vector<PoiId> out;
  CandidatesInto(city, loc, min_candidates, &scratch, &out);
  return out;
}

void CandidateIndex::CandidatesInto(CityId city, const GeoPoint& loc,
                                    size_t min_candidates, Scratch* scratch,
                                    std::vector<PoiId>* out_ptr) const {
  const CityIndex& index = City(city);
  const GridIndex& grid = *index.grid;
  const size_t target =
      min_candidates == 0 ? config_.min_candidates : min_candidates;

  const size_t origin = grid.CellOf(loc);
  const long row0 = static_cast<long>(grid.RowOf(origin));
  const long col0 = static_cast<long>(grid.ColOf(origin));
  const long max_radius =
      std::max(std::max(row0, static_cast<long>(grid.rows()) - 1 - row0),
               std::max(col0, static_cast<long>(grid.cols()) - 1 - col0));

  // assign() reuses the scratch capacity: allocation-free once warmed.
  std::vector<char>& cell_taken = scratch->cell_taken;
  std::vector<char>& region_taken = scratch->region_taken;
  cell_taken.assign(grid.NumCells(), 0);
  region_taken.assign(index.region_cells.size(), 0);
  size_t taken = 0;  // POIs in the marked cells

  const auto take_cell = [&](size_t cell) {
    // Pull in the cell's whole region, so a region straddling the ring
    // boundary contributes all of its POIs at once.
    const int region = index.cell_to_region[cell];
    if (region_taken[static_cast<size_t>(region)]) return;
    region_taken[static_cast<size_t>(region)] = 1;
    for (size_t member : index.region_cells[static_cast<size_t>(region)]) {
      if (cell_taken[member]) continue;
      cell_taken[member] = 1;
      taken += index.cell_count[member];
    }
  };

  for (long radius = 0; radius <= max_radius; ++radius) {
    // Cells at Chebyshev distance exactly `radius` from the origin.
    const long rlo = row0 - radius, rhi = row0 + radius;
    const long clo = col0 - radius, chi = col0 + radius;
    for (long r = rlo; r <= rhi; ++r) {
      if (r < 0 || r >= static_cast<long>(grid.rows())) continue;
      for (long col = clo; col <= chi; ++col) {
        if (col < 0 || col >= static_cast<long>(grid.cols())) continue;
        if (std::max(std::labs(r - row0), std::labs(col - col0)) != radius) {
          continue;
        }
        take_cell(static_cast<size_t>(r) * grid.cols() +
                  static_cast<size_t>(col));
      }
    }
    // Stop only at ring boundaries: the candidate set is then a function of
    // (city, origin cell) alone, independent of cell iteration order.
    if (taken >= target) break;
  }

  // One pass in id order: the output is sorted by construction.
  std::vector<PoiId>& out = *out_ptr;
  out.clear();
  for (size_t i = 0; i < index.pois.size(); ++i) {
    if (cell_taken[index.poi_cell[i]]) out.push_back(index.pois[i]);
  }
}

}  // namespace sttr::serve
