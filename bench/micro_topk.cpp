// Top-K selection and evaluation-protocol throughput: the seed's
// materialise+partial_sort selection vs TopKByScore's bounded heap (what
// the protocol, RecommendTopK and the server rank with), and the ranking
// protocol run sequentially vs sharded across worker threads. With
// --out=<prefix>, emits <prefix>micro_topk.json for tools/summarize_bench.py.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "bench/bench_util.h"
#include "eval/protocol.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sttr::bench {
namespace {

using Entry = std::pair<int64_t, double>;

bool RanksBefore(const Entry& a, const Entry& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

/// Seed selection: build every (id, score) pair, partial_sort, truncate.
std::vector<Entry> TopKPartialSort(const std::vector<double>& scores,
                                   size_t k) {
  std::vector<Entry> scored;
  scored.reserve(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    scored.emplace_back(static_cast<int64_t>(i), scores[i]);
  }
  const size_t top = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(top),
                    scored.end(), RanksBefore);
  scored.resize(top);
  return scored;
}

template <typename Fn>
double BestOf(size_t reps, const Fn& fn) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  STTR_CHECK_OK(flags.Parse(argc, argv));
  if (flags.Has("threads")) {
    const std::string t = flags.GetString("threads", "");
    setenv("STTR_NUM_THREADS", t.c_str(), /*overwrite=*/1);
  }
  const BenchOptions opts = BenchOptions::Parse(argc, argv);
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 5));
  const size_t threads = DefaultNumThreads();

  std::ostringstream json;
  json << "{\n  \"bench\": \"micro_topk\", \"threads\": " << threads
       << ",\n  \"results\": [\n";
  bool first = true;

  // ---- Part 1: selection kernel on synthetic score vectors. ------------------
  std::cout << "[micro_topk] threads=" << threads << " reps=" << reps << "\n";
  std::cout << "selection          n      k    seconds     items/s  speedup\n";
  Rng rng(opts.seed == 0 ? 42 : opts.seed);
  volatile int64_t sink = 0;
  for (const size_t n : {size_t{10000}, size_t{100000}, size_t{1000000}}) {
    std::vector<double> scores(n);
    for (double& s : scores) s = rng.Uniform();
    std::vector<PoiId> ids(n);
    std::iota(ids.begin(), ids.end(), PoiId{0});
    for (const size_t k : {size_t{10}, size_t{100}}) {
      STTR_CHECK(TopKByScore(ids, scores, k) == TopKPartialSort(scores, k))
          << "heap and partial_sort top-k disagree";
      const double t_sort =
          BestOf(reps, [&] { sink = TopKPartialSort(scores, k)[0].first; });
      const double t_heap =
          BestOf(reps, [&] { sink = TopKByScore(ids, scores, k)[0].first; });
      struct Row {
        const char* name;
        double seconds;
      };
      for (const Row& r : {Row{"partial_sort", t_sort}, Row{"heap", t_heap}}) {
        std::printf("%-14s %8zu %6zu %10.6f %11.3g %8.2fx\n", r.name, n, k,
                    r.seconds, static_cast<double>(n) / r.seconds,
                    t_sort / r.seconds);
        if (!first) json << ",\n";
        json << "    {\"kernel\": \"topk_" << r.name << "\", \"n\": " << n
             << ", \"k\": " << k << ", \"threads\": 1, \"seconds\": "
             << r.seconds << ", \"speedup_vs_seed\": " << t_sort / r.seconds
             << "}";
        first = false;
      }
    }
  }

  // ---- Part 2: the ranking protocol, sequential vs sharded. ------------------
  // ItemPop fits instantly, so this isolates protocol + scoring overheads.
  WorldAndSplit ws = MakeWorld("foursquare", opts);
  auto rec = baselines::MakeRecommender("ItemPop");
  STTR_CHECK_OK(rec.status());
  STTR_CHECK_OK((*rec)->Fit(ws.world.dataset, ws.split));

  EvalConfig serial_cfg = opts.Eval();
  serial_cfg.num_threads = 1;
  EvalConfig parallel_cfg = opts.Eval();
  parallel_cfg.num_threads = threads;

  const EvalResult r_serial =
      EvaluateRanking(ws.world.dataset, ws.split, **rec, serial_cfg);
  const EvalResult r_parallel =
      EvaluateRanking(ws.world.dataset, ws.split, **rec, parallel_cfg);
  STTR_CHECK_EQ(r_serial.num_users_evaluated, r_parallel.num_users_evaluated);
  for (const auto& [k, m] : r_serial.at_k) {
    STTR_CHECK_EQ(m.recall, r_parallel.At(k).recall)
        << "parallel eval diverged at k=" << k;
  }

  const double t_eval_serial = BestOf(reps, [&] {
    EvaluateRanking(ws.world.dataset, ws.split, **rec, serial_cfg);
  });
  const double t_eval_parallel = BestOf(reps, [&] {
    EvaluateRanking(ws.world.dataset, ws.split, **rec, parallel_cfg);
  });
  const double users = static_cast<double>(r_serial.num_users_evaluated);
  std::cout << "\nprotocol        threads    seconds     users/s  speedup\n";
  std::printf("eval_serial     %7d %10.6f %11.1f %8.2fx\n", 1, t_eval_serial,
              users / t_eval_serial, 1.0);
  std::printf("eval_parallel   %7zu %10.6f %11.1f %8.2fx\n", threads,
              t_eval_parallel, users / t_eval_parallel,
              t_eval_serial / t_eval_parallel);
  json << ",\n    {\"kernel\": \"eval_serial\", \"n\": "
       << r_serial.num_users_evaluated << ", \"threads\": 1, \"seconds\": "
       << t_eval_serial << ", \"speedup_vs_seed\": 1.0}";
  json << ",\n    {\"kernel\": \"eval_parallel\", \"n\": "
       << r_serial.num_users_evaluated << ", \"threads\": " << threads
       << ", \"seconds\": " << t_eval_parallel
       << ", \"speedup_vs_seed\": " << t_eval_serial / t_eval_parallel << "}";
  json << "\n  ]\n}\n";

  if (!opts.out_prefix.empty()) {
    const std::string path = opts.out_prefix + "micro_topk.json";
    std::ofstream out(path);
    out << json.str();
    std::cout << "wrote " << path << "\n";
  } else {
    std::cout << json.str();
  }
  (void)sink;
  return 0;
}

}  // namespace
}  // namespace sttr::bench

int main(int argc, char** argv) { return sttr::bench::Main(argc, argv); }
