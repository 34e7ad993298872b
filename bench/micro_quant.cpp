// Quantized-artifact microbenchmark: the embedding-table byte shrink of the
// int8 serving artifact, and the ranking fidelity of the model a server
// loads from it — the artifact written to a v2 file, read back and
// dequantized into an StTransRec — against the fp32 model it came from
// (HR/NDCG deltas at every cutoff 2..10 + top-k overlap via
// eval/fidelity.h, and the sampled-negatives protocol for both). Both
// models score through the same StTransRec path, so the timing rows time
// that one ScorePairs. With --out=<prefix>, emits <prefix>micro_quant.json
// for tools/summarize_bench.py — the source of the quantization rows in
// EXPERIMENTS.md.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_util.h"
#include "core/quantized_model.h"
#include "core/st_transrec.h"
#include "eval/fidelity.h"
#include "util/check.h"
#include "util/fs.h"
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

  // What an int8 server scores with: the artifact's own file, loaded back.
  Env& env = *Env::Default();
  const std::string artifact_path =
      (std::filesystem::temp_directory_path() /
       ("micro_quant_" + std::to_string(::getpid()) + ".sttr"))
          .string();
  STTR_CHECK_OK(quant->WriteCheckpointFile(env, artifact_path));
  auto artifact = QuantizedModel::LoadFromCheckpoint(env, artifact_path);
  STTR_CHECK_OK(artifact.status());
  STTR_CHECK_OK(env.Remove(artifact_path));
  StTransRec served(cfg);
  STTR_CHECK_OK(served.Prepare(ws.world.dataset, ws.split));
  STTR_CHECK_OK(artifact->DequantizeInto(served));

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

  // ---- ScorePairs throughput (the one path both models score through). --
  std::cout << "\nkernel                pairs    seconds    Mpairs/s\n";
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
    const double seconds =
        BestOf(reps, [&] { sink = model.ScorePairs(users, pois)[0]; });
    std::printf("%-18s %8zu %10.6f %11.3f\n", "score_pairs_fp32", n, seconds,
                static_cast<double>(n) / seconds / 1e6);
    if (!first) json << ",\n";
    json << "    {\"kernel\": \"score_pairs_fp32\", \"pairs\": " << n
         << ", \"seconds\": " << seconds << "}";
    first = false;
  }
  json << "\n  ],\n";

  // ---- Fidelity: full-city ranking under fp32 and the served model. -----
  FidelityConfig fid_cfg;
  fid_cfg.ks = {2, 3, 4, 5, 6, 7, 8, 9, 10};
  fid_cfg.protocol = opts.Eval();
  const FidelityReport report =
      CompareScorers(ws.world.dataset, ws.split, model, served, fid_cfg);
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
       << "},\n";
  json << "  \"protocol\": {";
  first_k = true;
  for (const auto& [k, ref] : report.protocol_ref.at_k) {
    const RankingMetrics& cand = report.protocol_cand.At(k);
    if (!first_k) json << ", ";
    json << "\"recall" << k << "_ref\": " << ref.recall << ", \"recall" << k
         << "_cand\": " << cand.recall << ", \"ndcg" << k
         << "_ref\": " << ref.ndcg << ", \"ndcg" << k
         << "_cand\": " << cand.ndcg;
    first_k = false;
  }
  json << "}\n}\n";

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
