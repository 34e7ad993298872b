// One embedding shard of a hash-sharded embedding store: loads the newest
// fp32 checkpoint, extracts the rows this shard owns (modulo placement:
// global id g belongs to shard g % num_shards and lives at local row
// g / num_shards), and answers length-prefixed gather requests from a
// ShardedEmbeddingStore client (src/serve/sharded_store.h).
//
// Four shards on one machine, against the same checkpoint dir:
//
//   for i in 0 1 2 3; do
//     sttr_shard_server --ckpt_dir=/tmp/sttr_ckpt --shard=$i --num_shards=4
//       --port=$((9100+i)) &       # (one command; wrapped here for width)
//   done
//
// The world + model flags must match the client's (sharded gathers are
// bit-identical to in-process lookups only when both sides slice the same
// tables). Kill any shard to watch the client retry and trip its breaker;
// restart it and the half-open probe folds it back in. sttr_serve scores
// in-process and does not use a store.

#include <csignal>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "serve/model_bundle.h"
#include "serve/shard_server.h"
#include "util/check.h"
#include "util/logging.h"

namespace sttr {
namespace {

volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleSignal(int) { g_shutdown_requested = 1; }

void DefineFlags(FlagParser& flags) {
  flags.Define("ckpt_dir", "checkpoint directory to slice (required)");
  flags.Define("dataset", "world preset: foursquare | yelp", "foursquare");
  flags.Define("scale", "world size: tiny | small | paper", "small");
  flags.Define("seed", "world seed override (0 = preset default)", "0");
  flags.Define("shard", "this shard's index in [0, num_shards)", "0");
  flags.Define("num_shards", "total hash shards in the deployment", "1");
  flags.Define("port", "TCP port to listen on (0 = ephemeral)", "0");
  flags.Define("workers", "connection handler threads", "2");
}

int Main(int argc, char** argv) {
  FlagParser flags;
  DefineFlags(flags);
  STTR_CHECK_OK(flags.Parse(argc, argv));
  if (flags.Has("help")) {
    std::fputs(flags.HelpText("sttr_shard_server",
                              "--ckpt_dir=DIR --shard=I --num_shards=N "
                              "[flags]",
                              "Serves one hash shard of a checkpoint's "
                              "embedding tables over the\ngather protocol "
                              "for a ShardedEmbeddingStore client.")
                   .c_str(),
               stdout);
    return 0;
  }
  const std::string ckpt_dir = flags.GetString("ckpt_dir", "");
  if (ckpt_dir.empty()) {
    std::fprintf(stderr, "--ckpt_dir is required (try --help)\n");
    return 2;
  }
  const size_t shard = static_cast<size_t>(flags.GetInt("shard", 0));
  const size_t num_shards =
      static_cast<size_t>(flags.GetInt("num_shards", 1));
  if (num_shards == 0 || shard >= num_shards) {
    std::fprintf(stderr, "--shard must be in [0, --num_shards)\n");
    return 2;
  }

  const bench::BenchOptions opts = bench::BenchOptions::Parse(argc, argv);
  const std::string dataset_name = flags.GetString("dataset", "foursquare");
  bench::WorldAndSplit ws = bench::MakeWorld(dataset_name, opts);

  StTransRecConfig model_cfg = opts.DeepConfig();
  bench::ApplyPaperArchitecture(dataset_name, model_cfg);

  serve::ModelBundleConfig bundle_cfg;
  bundle_cfg.checkpoint_dir = ckpt_dir;
  bundle_cfg.model = model_cfg;
  serve::ModelBundle bundle(ws.world.dataset, ws.split, bundle_cfg);
  const Status loaded = bundle.LoadInitial();
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load a checkpoint from %s: %s\n",
                 ckpt_dir.c_str(), loaded.ToString().c_str());
    return 1;
  }
  const std::shared_ptr<const serve::ModelSnapshot> snapshot =
      bundle.snapshot();
  STTR_CHECK(snapshot->model != nullptr)
      << "shard server slices fp32 checkpoints only";

  serve::ShardServerConfig server_cfg;
  server_cfg.port = static_cast<int>(flags.GetInt("port", 0));
  server_cfg.num_workers = static_cast<size_t>(flags.GetInt("workers", 2));
  serve::ShardServer server(
      server_cfg, serve::BuildShardSlice(*snapshot->model, shard, num_shards));
  STTR_CHECK_OK(server.Start());

  std::printf("shard %zu/%zu of %s on 127.0.0.1:%d  (ctrl-c to stop)\n",
              shard, num_shards, ckpt_dir.c_str(), server.port());
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_shutdown_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  STTR_LOG(Info) << "shard " << shard << " shutting down after "
                 << server.gathers_served() << " gathers";
  server.Shutdown();
  return 0;
}

}  // namespace
}  // namespace sttr

int main(int argc, char** argv) { return sttr::Main(argc, argv); }
