// Delta hot-patch microbenchmark: StTransRec::ApplyDelta cost as a function
// of (a) the number of patched rows at a fixed table size and (b) the table
// size at a fixed patch size. The claim under test is the one the streaming
// design rests on: apply time scales with the DELTA size, not the TABLE
// size — patching 64 rows of a 10x larger model costs about the same, while
// patching 10x more rows costs ~10x. With --out=<prefix>, emits
// <prefix>micro_delta_apply.json — the source of the streaming row in
// EXPERIMENTS.md.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_util.h"
#include "core/delta.h"
#include "core/st_transrec.h"
#include "data/split.h"
#include "data/synth/world_generator.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sttr::bench {
namespace {

/// A synthetic cumulative delta of `rows` distinct user rows (plus a few POI
/// rows so all three sections exercise their code paths).
DeltaCheckpoint MakeDelta(const StTransRec& model, size_t num_user_rows,
                          size_t num_poi_rows, Rng& rng) {
  DeltaCheckpoint delta;
  delta.config_fingerprint = model.ConfigFingerprint();
  const auto fill = [&rng](EmbeddingRowDelta* t, const Tensor& table,
                           size_t n) {
    t->dim = table.cols();
    const size_t count = std::min(n, table.rows());
    std::vector<int64_t> ids(table.rows());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
    for (size_t i = 0; i < count; ++i) {  // partial Fisher-Yates
      std::swap(ids[i], ids[i + rng.UniformInt(ids.size() - i)]);
    }
    t->rows.assign(ids.begin(), ids.begin() + static_cast<long>(count));
    t->values.resize(count * t->dim);
    for (float& v : t->values) v = static_cast<float>(rng.Uniform()) - 0.5f;
  };
  // Parameters() order: user, POI, word embedding tables first (the sparse
  // set) — legal right after Prepare(), unlike the fitted-only accessors.
  const auto params = model.Parameters();
  fill(&delta.user, params[0].value(), num_user_rows);
  fill(&delta.poi, params[1].value(), num_poi_rows);
  delta.word.dim = params[2].value().cols();
  return delta;
}

double BestApplySeconds(StTransRec& model, const DeltaCheckpoint& delta,
                        size_t reps) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Timer t;
    STTR_CHECK_OK(model.ApplyDelta(delta));
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

struct Row {
  std::string label;
  size_t table_rows = 0;
  size_t delta_rows = 0;
  double micros = 0.0;
};

int Main(int argc, char** argv) {
  FlagParser flags;
  STTR_CHECK_OK(flags.Parse(argc, argv));
  const BenchOptions opts = BenchOptions::Parse(argc, argv);
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 20));
  Rng rng(42);

  std::vector<Row> rows;
  const auto bench_world = [&](synth::Scale scale, const char* scale_name) {
    auto cfg = synth::SynthWorldConfig::FoursquareLike(scale);
    synth::SynthWorld world = synth::GenerateWorld(cfg);
    CrossCitySplit split = MakeCrossCitySplit(world.dataset, cfg.target_city);
    StTransRecConfig mcfg = opts.DeepConfig();
    StTransRec model(mcfg);
    STTR_CHECK_OK(model.Prepare(world.dataset, split));
    // Mark the parameters final and score once, so the precomputed POI
    // share of layer 0 exists and every timed apply also recomputes its
    // patched rows.
    STTR_CHECK_OK(model.ApplyDelta(MakeDelta(model, 0, 0, rng)));
    model.Score(0, 0);
    const size_t table_rows =
        world.dataset.num_users() + world.dataset.num_pois();
    for (size_t n : {16UL, 64UL, 256UL, 1024UL}) {
      if (n > world.dataset.num_users()) continue;
      const DeltaCheckpoint delta = MakeDelta(model, n, n / 4, rng);
      const double secs = BestApplySeconds(model, delta, reps);
      rows.push_back({std::string(scale_name) + "/rows=" + std::to_string(n),
                      table_rows, delta.total_rows(), secs * 1e6});
    }
  };
  bench_world(synth::Scale::kTiny, "tiny");
  bench_world(synth::Scale::kSmall, "small");

  std::printf("%-24s %12s %12s %12s\n", "case", "table_rows", "delta_rows",
              "apply_us");
  for (const Row& r : rows) {
    std::printf("%-24s %12zu %12zu %12.2f\n", r.label.c_str(), r.table_rows,
                r.delta_rows, r.micros);
  }

  // The scaling claims, asserted so a regression fails the bench run:
  // growing the table ~10x at fixed delta size must not grow apply time
  // anywhere near 10x (allow 3x for cache effects), and within one table
  // the biggest delta must cost more than the smallest.
  const auto find = [&rows](const std::string& label) -> const Row* {
    for (const Row& r : rows) {
      if (r.label == label) return &r;
    }
    return nullptr;
  };
  const Row* tiny64 = find("tiny/rows=64");
  const Row* small64 = find("small/rows=64");
  if (tiny64 != nullptr && small64 != nullptr) {
    const double table_blowup = static_cast<double>(small64->table_rows) /
                                static_cast<double>(tiny64->table_rows);
    const double time_blowup = small64->micros / tiny64->micros;
    std::printf("table %.1fx larger -> apply %.2fx (delta-size scaling "
                "requires << table blowup)\n",
                table_blowup, time_blowup);
    STTR_CHECK_LT(time_blowup, std::max(3.0, table_blowup / 3.0))
        << "ApplyDelta no longer scales with delta size";
  }

  if (!opts.out_prefix.empty()) {
    std::ostringstream json;
    json << "{\"bench\": \"micro_delta_apply\", \"rows\": [";
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) json << ", ";
      json << "{\"case\": \"" << rows[i].label
           << "\", \"table_rows\": " << rows[i].table_rows
           << ", \"delta_rows\": " << rows[i].delta_rows
           << ", \"apply_us\": " << rows[i].micros << "}";
    }
    json << "]}\n";
    std::ofstream out(opts.out_prefix + "micro_delta_apply.json");
    out << json.str();
    std::cout << "wrote " << opts.out_prefix << "micro_delta_apply.json\n";
  }
  return 0;
}

}  // namespace
}  // namespace sttr::bench

int main(int argc, char** argv) { return sttr::bench::Main(argc, argv); }
