// Offline post-training quantizer: converts the newest fp32 training
// checkpoint in --ckpt_dir into an int8 serving artifact (v2 container,
// core/quantized_model.h) under --out_dir, and optionally measures the
// ranking fidelity of the model a server loads from that artifact against
// the fp32 model it came from.
//
// The world + model config must match what produced the checkpoint (the
// config fingerprint is compared, like sttr_serve). Typical flow:
//
//   sttr_serve    --ckpt_dir=/tmp/ckpt --train      # produce fp32 ckpt
//   sttr_quantize --ckpt_dir=/tmp/ckpt --fidelity   # emit /tmp/ckpt/quant
//   sttr_serve    --ckpt_dir=/tmp/ckpt --precision=auto
//
// A server running --precision=auto (or int8) hot-swaps to the artifact the
// moment it lands, because the quantized epoch ties (or beats) the fp32 one.

#include <cstdio>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "core/checkpoint.h"
#include "core/quantized_model.h"
#include "core/st_transrec.h"
#include "eval/fidelity.h"
#include "util/check.h"
#include "util/logging.h"

namespace sttr {
namespace {

void DefineFlags(FlagParser& flags) {
  flags.Define("ckpt_dir", "fp32 checkpoint directory to quantize (required)");
  flags.Define("out_dir",
               "output directory of the quantized artifact "
               "(default: <ckpt_dir>/quant)");
  flags.Define("dataset", "world preset: foursquare | yelp", "foursquare");
  flags.Define("scale", "world size: tiny | small | paper", "small");
  flags.Define("seed", "world seed override (0 = preset default)", "0");
  flags.Define("scheme", "embedding-table scheme: affine | symmetric",
               "affine");
  flags.Define("fp32_tail",
               "keep the MLP tail fp32 in the artifact (default stores fp16)");
  flags.Define("fidelity",
               "rank the target city under fp32 and under the model loaded "
               "from the artifact, and report HR/NDCG deltas + top-k "
               "overlap");
  flags.Define("fidelity_users",
               "cap on test users in the fidelity sweep (0 = all)", "0");
}

int Main(int argc, char** argv) {
  FlagParser flags;
  DefineFlags(flags);
  STTR_CHECK_OK(flags.Parse(argc, argv));
  if (flags.Has("help")) {
    std::fputs(flags.HelpText("sttr_quantize", "--ckpt_dir=DIR [flags]",
                              "Quantizes the newest fp32 checkpoint into an "
                              "int8 serving artifact\n(v2 container) and "
                              "optionally measures ranking fidelity.")
                   .c_str(),
               stdout);
    return 0;
  }
  const std::string ckpt_dir = flags.GetString("ckpt_dir", "");
  if (ckpt_dir.empty()) {
    std::fprintf(stderr, "--ckpt_dir is required (try --help)\n");
    return 2;
  }
  const std::string out_dir =
      flags.GetString("out_dir", ckpt_dir + "/quant");

  QuantizationConfig quant_cfg;
  const std::string scheme = flags.GetString("scheme", "affine");
  if (scheme == "symmetric") {
    quant_cfg.embedding_scheme = QuantScheme::kSymmetric;
  } else if (scheme != "affine") {
    std::fprintf(stderr, "unknown --scheme=%s (affine | symmetric)\n",
                 scheme.c_str());
    return 2;
  }
  quant_cfg.fp16_tail = !flags.GetBool("fp32_tail", false);

  // Same world + architecture recipe as sttr_serve: the checkpoint's config
  // fingerprint covers both, so any mismatch is caught below.
  const bench::BenchOptions opts = bench::BenchOptions::Parse(argc, argv);
  const std::string dataset_name = flags.GetString("dataset", "foursquare");
  bench::WorldAndSplit ws = bench::MakeWorld(dataset_name, opts);
  StTransRecConfig model_cfg = opts.DeepConfig();
  bench::ApplyPaperArchitecture(dataset_name, model_cfg);
  model_cfg.checkpoint_dir.clear();  // this tool never writes v1 checkpoints

  Env& env = *Env::Default();
  auto ckpt_path = FindLatestValidCheckpoint(env, ckpt_dir);
  if (!ckpt_path.ok()) {
    std::fprintf(stderr, "no valid checkpoint in %s: %s\n", ckpt_dir.c_str(),
                 ckpt_path.status().ToString().c_str());
    return 1;
  }
  auto reader = CheckpointReader::Open(env, *ckpt_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", ckpt_path->c_str(),
                 reader.status().ToString().c_str());
    return 1;
  }
  if (reader->version() != kCheckpointFormatVersion) {
    std::fprintf(stderr,
                 "%s is a v%u artifact, not an fp32 training checkpoint\n",
                 ckpt_path->c_str(), reader->version());
    return 1;
  }

  StTransRec model(model_cfg);
  STTR_CHECK_OK(model.Prepare(ws.world.dataset, ws.split));
  auto config_section = reader->Section("config");
  if (!config_section.ok() || *config_section != model.ConfigFingerprint()) {
    std::fprintf(stderr,
                 "config fingerprint mismatch: checkpoint %s was written "
                 "under a different config or dataset\n",
                 ckpt_path->c_str());
    return 1;
  }
  auto model_section = reader->Section("model");
  if (!model_section.ok()) {
    std::fprintf(stderr, "%s: %s\n", ckpt_path->c_str(),
                 model_section.status().ToString().c_str());
    return 1;
  }
  {
    std::istringstream in(*model_section, std::ios::binary);
    STTR_CHECK_OK(model.Load(in));
  }
  // Load() restores parameters but not the loss history, so the completed-
  // epoch count is carried over from the source checkpoint's meta section.
  uint64_t epoch = 0;
  if (auto meta = reader->Section("meta"); meta.ok()) {
    std::string_view in(*meta);
    ReadU64(in, &epoch);
  }
  quant_cfg.epoch = static_cast<int64_t>(epoch);

  auto quant = QuantizedModel::Quantize(model, quant_cfg);
  STTR_CHECK_OK(quant.status());

  STTR_CHECK_OK(env.CreateDir(out_dir));
  const std::string out_path =
      out_dir + "/" + CheckpointFileName(static_cast<size_t>(epoch));
  STTR_CHECK_OK(quant->WriteCheckpointFile(env, out_path));

  const size_t fp32_table_bytes =
      (quant->num_users() + quant->num_pois()) * quant->embedding_dim() *
      sizeof(float);
  std::printf("quantized %s (epoch %llu) -> %s\n", ckpt_path->c_str(),
              static_cast<unsigned long long>(epoch), out_path.c_str());
  std::printf("  embeddings: %zu bytes int8 (%s) vs %zu fp32 (%.2fx smaller)\n",
              quant->EmbeddingBytes(), QuantSchemeName(quant->embedding_scheme()),
              fp32_table_bytes,
              static_cast<double>(fp32_table_bytes) /
                  static_cast<double>(quant->EmbeddingBytes()));
  std::printf("  tail stored %s; served dequantized at fp32 size\n",
              quant->fp16_tail() ? "fp16" : "fp32");

  if (flags.GetBool("fidelity", false)) {
    // Score what a server would: the artifact just written, loaded back.
    auto artifact = QuantizedModel::LoadFromCheckpoint(env, out_path);
    STTR_CHECK_OK(artifact.status());
    StTransRec served(model_cfg);
    STTR_CHECK_OK(served.Prepare(ws.world.dataset, ws.split));
    STTR_CHECK_OK(artifact->DequantizeInto(served));
    FidelityConfig fid_cfg;
    fid_cfg.max_users =
        static_cast<size_t>(flags.GetInt("fidelity_users", 0));
    const FidelityReport report =
        CompareScorers(ws.world.dataset, ws.split, model, served, fid_cfg);
    std::fputs(report.ToString().c_str(), stdout);
  }
  return 0;
}

}  // namespace
}  // namespace sttr

int main(int argc, char** argv) { return sttr::Main(argc, argv); }
