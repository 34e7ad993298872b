// Quantized-inference microbenchmark: the fp32 ScorePairs hot path vs the
// int8 QuantizedModel on identical (user, poi) batches, the embedding-table
// byte shrink, and the ranking fidelity of the quantized scorer (HR/NDCG
// delta + top-k overlap via eval/fidelity.h). With --out=<prefix>, emits
// <prefix>micro_quant.json for tools/summarize_bench.py — the source of the
// quantization row in EXPERIMENTS.md.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_util.h"
#include "core/quantized_model.h"
#include "core/st_transrec.h"
#include "eval/fidelity.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sttr::bench {
namespace {

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
  const BenchOptions opts = BenchOptions::Parse(argc, argv);
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 5));

  WorldAndSplit ws = MakeWorld("foursquare", opts);
  StTransRecConfig cfg = opts.DeepConfig();
  ApplyPaperArchitecture("foursquare", cfg);
  StTransRec model(cfg);
  STTR_CHECK_OK(model.Fit(ws.world.dataset, ws.split));

  auto quant = QuantizedModel::Quantize(model);
  STTR_CHECK_OK(quant.status());

  const size_t num_users = ws.world.dataset.num_users();
  const size_t num_pois = ws.world.dataset.num_pois();
  const size_t fp32_bytes =
      (num_users + num_pois) * cfg.embedding_dim * sizeof(float);
  const size_t int8_bytes = quant->EmbeddingBytes();
  const double shrink =
      static_cast<double>(fp32_bytes) / static_cast<double>(int8_bytes);

  std::ostringstream json;
  json << "{\n  \"bench\": \"micro_quant\", \"threads\": 1,\n  \"results\": [\n";
  bool first = true;

  std::cout << "[micro_quant] users=" << num_users << " pois=" << num_pois
            << " dim=" << cfg.embedding_dim << " reps=" << reps << "\n";
  std::printf("embeddings: %zu bytes int8 vs %zu fp32 (%.2fx smaller)\n",
              int8_bytes, fp32_bytes, shrink);

  // ---- ScorePairs throughput, fp32 vs int8, identical batches. -----------
  std::cout << "\nkernel                pairs    seconds    Mpairs/s  speedup\n";
  Rng rng(opts.seed == 0 ? 42 : opts.seed);
  volatile double sink = 0;
  for (const size_t n :
       {size_t{512}, size_t{4096}, size_t{8790}, size_t{32768}}) {
    std::vector<UserId> users(n);
    std::vector<PoiId> pois(n);
    for (size_t i = 0; i < n; ++i) {
      users[i] = static_cast<UserId>(rng.UniformInt(num_users));
      pois[i] = static_cast<PoiId>(rng.UniformInt(num_pois));
    }
    const double t_fp32 =
        BestOf(reps, [&] { sink = model.ScorePairs(users, pois)[0]; });
    const double t_int8 =
        BestOf(reps, [&] { sink = quant->ScorePairs(users, pois)[0]; });
    struct Row {
      const char* name;
      double seconds;
    };
    for (const Row& r : {Row{"score_pairs_fp32", t_fp32},
                         Row{"score_pairs_int8", t_int8}}) {
      std::printf("%-18s %8zu %10.6f %11.3f %8.2fx\n", r.name, n, r.seconds,
                  static_cast<double>(n) / r.seconds / 1e6,
                  t_fp32 / r.seconds);
      if (!first) json << ",\n";
      json << "    {\"kernel\": \"" << r.name << "\", \"pairs\": " << n
           << ", \"seconds\": " << r.seconds
           << ", \"speedup_vs_fp32\": " << t_fp32 / r.seconds << "}";
      first = false;
    }
  }
  json << "\n  ],\n";

  // ---- Fidelity: full-city ranking under both scorers. -------------------
  FidelityConfig fid_cfg;
  fid_cfg.protocol = opts.Eval();
  const FidelityReport report =
      CompareScorers(ws.world.dataset, ws.split, model, *quant, fid_cfg);
  std::cout << "\n" << report.ToString();

  json << "  \"bytes\": {\"fp32_embeddings\": " << fp32_bytes
       << ", \"int8_embeddings\": " << int8_bytes
       << ", \"shrink\": " << shrink << "},\n";
  json << "  \"fidelity\": {";
  bool first_k = true;
  for (const auto& [k, at] : report.at_k) {
    if (!first_k) json << ", ";
    json << "\"hr" << k << "_ref\": " << at.hr_ref << ", \"hr" << k
         << "_cand\": " << at.hr_cand << ", \"ndcg" << k
         << "_ref\": " << at.ndcg_ref << ", \"ndcg" << k
         << "_cand\": " << at.ndcg_cand << ", \"overlap" << k
         << "\": " << at.overlap;
    first_k = false;
  }
  json << ", \"max_abs_score_delta\": " << report.max_abs_score_delta
       << ", \"mean_abs_score_delta\": " << report.mean_abs_score_delta
       << "}\n}\n";

  if (!opts.out_prefix.empty()) {
    const std::string path = opts.out_prefix + "micro_quant.json";
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
