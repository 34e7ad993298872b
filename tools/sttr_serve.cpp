// Online recommendation server: serves a checkpoint directory over a
// synthetic world through the src/serve stack — checkpoint hot-reload
// (ModelBundle), grid/region candidate generation (CandidateIndex), a
// sharded LRU result cache and the HTTP endpoints /recommend, /healthz and
// /statz (plus /checkin with --stream).
//
// The world + model config must match what produced the checkpoints
// (checkpoints carry a config fingerprint and anything else is refused).
// With --train, a model is trained first when the directory holds no valid
// checkpoint — the one-command demo:
//
//   sttr_serve --ckpt_dir=/tmp/sttr_ckpt --train --port=8080
//   curl 'localhost:8080/recommend?user=3&lat=34.05&lon=-118.25&k=10'
//
// While the server runs, any newer checkpoint written into --ckpt_dir (e.g.
// by a concurrently running trainer) is hot-swapped in within --poll_ms,
// invalidating the result cache and never dropping in-flight requests.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench/bench_util.h"
#include "core/checkpoint.h"
#include "serve/candidate_index.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "stream/cold_start.h"
#include "stream/incremental_trainer.h"
#include "stream/ingest_service.h"
#include "util/check.h"
#include "util/logging.h"

namespace sttr {
namespace {

volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleSignal(int) { g_shutdown_requested = 1; }

void DefineFlags(FlagParser& flags) {
  flags.Define("ckpt_dir", "checkpoint directory to serve (required)");
  flags.Define("dataset", "world preset: foursquare | yelp", "foursquare");
  flags.Define("scale", "world size: tiny | small | paper", "small");
  flags.Define("seed", "world seed override (0 = preset default)", "0");
  flags.Define("epochs", "training epochs for --train (0 = model default)",
               "0");
  flags.Define("train",
               "train + checkpoint first when ckpt_dir has no valid "
               "checkpoint");
  flags.Define("port", "TCP port to listen on (0 = ephemeral)", "0");
  flags.Define("workers", "scoring worker threads", "8");
  flags.Define("io_threads", "epoll event-loop threads", "1");
  flags.Define("grid_rows", "candidate index grid rows", "16");
  flags.Define("grid_cols", "candidate index grid cols", "16");
  flags.Define("min_candidates", "candidate list size target per query",
               "200");
  flags.Define("no_regions",
               "disable region merging in the candidate index (pure grid "
               "rings)");
  flags.Define("cache_capacity", "result cache entries (0 = cache off)",
               "4096");
  flags.Define("cache_ttl_ms", "result cache TTL (0 = no expiry)", "5000");
  flags.Define("poll_ms", "checkpoint hot-reload poll period", "200");
  flags.Define("precision",
               "serving precision: fp32 | int8 | auto (auto serves the "
               "newest epoch across fp32 and quantized artifacts)",
               "fp32");
  flags.Define("quant_dir",
               "quantized-artifact directory for --precision=int8|auto "
               "(default: <ckpt_dir>/quant)");
  flags.Define("stream",
               "enable streaming ingestion: POST /checkin feeds an "
               "incremental trainer that publishes delta checkpoints the "
               "bundle hot-patches (needs --precision=fp32: the trainer "
               "starts from a v1 training checkpoint, and each delta names "
               "that checkpoint's model CRC)");
  flags.Define("delta_dir",
               "delta checkpoint directory for --stream "
               "(default: <ckpt_dir>/deltas)");
  flags.Define("stream_window", "check-ins per incremental training window",
               "32");
  flags.Define("stream_queue", "ingest event-log capacity (full = 503)",
               "4096");
  flags.Define("publish_windows", "publish a delta every N trained windows",
               "1");
  flags.Define("delta_keep", "delta files kept by rotation", "4");
  flags.Define("cold_start",
               "serve target-city-cold users through the word bridge "
               "(adds \"cold_start\" to /recommend responses)");
  flags.Define("time_buckets", "cold-start time-of-day buckets", "4");
  flags.Define("time_weight",
               "cold-start weight of the time-of-day popularity prior",
               "0.25");
}

int Main(int argc, char** argv) {
  FlagParser flags;
  DefineFlags(flags);
  STTR_CHECK_OK(flags.Parse(argc, argv));
  if (flags.Has("help")) {
    std::fputs(flags.HelpText("sttr_serve", "--ckpt_dir=DIR [flags]",
                              "Serves POI recommendations for a checkpoint "
                              "directory over HTTP,\nhot-reloading newer "
                              "checkpoints as the trainer writes them.")
                   .c_str(),
               stdout);
    return 0;
  }
  const std::string ckpt_dir = flags.GetString("ckpt_dir", "");
  if (ckpt_dir.empty()) {
    std::fprintf(stderr, "--ckpt_dir is required (try --help)\n");
    return 2;
  }

  const bench::BenchOptions opts = bench::BenchOptions::Parse(argc, argv);
  const std::string dataset_name = flags.GetString("dataset", "foursquare");
  bench::WorldAndSplit ws = bench::MakeWorld(dataset_name, opts);
  STTR_LOG(Info) << "world: " << ws.world.dataset.num_users() << " users, "
                 << ws.world.dataset.num_pois() << " POIs, "
                 << ws.world.dataset.num_checkins() << " check-ins";

  StTransRecConfig model_cfg = opts.DeepConfig();
  bench::ApplyPaperArchitecture(dataset_name, model_cfg);

  if (flags.GetBool("train", false) &&
      !FindLatestValidCheckpoint(*Env::Default(), ckpt_dir).ok()) {
    STTR_LOG(Info) << "no valid checkpoint in " << ckpt_dir
                   << "; training " << model_cfg.num_epochs << " epochs";
    StTransRecConfig train_cfg = model_cfg;
    train_cfg.checkpoint_dir = ckpt_dir;
    StTransRec trainer(train_cfg);
    STTR_CHECK_OK(trainer.Fit(ws.world.dataset, ws.split));
  }

  serve::ServeStats stats;

  serve::ModelBundleConfig bundle_cfg;
  bundle_cfg.checkpoint_dir = ckpt_dir;
  bundle_cfg.model = model_cfg;
  bundle_cfg.poll_interval =
      std::chrono::milliseconds(flags.GetInt("poll_ms", 200));
  const std::string precision = flags.GetString("precision", "fp32");
  if (precision == "int8") {
    bundle_cfg.precision = serve::PrecisionMode::kInt8;
  } else if (precision == "auto") {
    bundle_cfg.precision = serve::PrecisionMode::kAuto;
  } else if (precision != "fp32") {
    std::fprintf(stderr, "unknown --precision=%s (fp32 | int8 | auto)\n",
                 precision.c_str());
    return 2;
  }
  bundle_cfg.quant_checkpoint_dir = flags.GetString("quant_dir", "");
  bundle_cfg.stats = &stats;
  const bool streaming = flags.GetBool("stream", false);
  const std::string delta_dir =
      flags.GetString("delta_dir", ckpt_dir + "/deltas");
  if (streaming) {
    if (bundle_cfg.precision != serve::PrecisionMode::kFp32) {
      std::fprintf(stderr,
                   "--stream requires --precision=fp32 (the trainer starts "
                   "from a v1 training checkpoint, and each delta names "
                   "that checkpoint's model CRC)\n");
      return 2;
    }
    bundle_cfg.delta_dir = delta_dir;
  }
  serve::ModelBundle bundle(ws.world.dataset, ws.split, bundle_cfg);

  const Status loaded = bundle.LoadInitial();
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load a checkpoint from %s: %s\n"
                 "(generate one with --train)\n",
                 ckpt_dir.c_str(), loaded.ToString().c_str());
    return 1;
  }

  serve::CandidateIndexConfig index_cfg;
  index_cfg.grid_rows = static_cast<size_t>(flags.GetInt("grid_rows", 16));
  index_cfg.grid_cols = static_cast<size_t>(flags.GetInt("grid_cols", 16));
  index_cfg.use_regions = !flags.GetBool("no_regions", false);
  index_cfg.min_candidates =
      static_cast<size_t>(flags.GetInt("min_candidates", 200));
  serve::CandidateIndex index(ws.world.dataset, &ws.split, index_cfg);

  const size_t cache_capacity =
      static_cast<size_t>(flags.GetInt("cache_capacity", 4096));
  std::unique_ptr<serve::ResultCache> cache;
  if (cache_capacity > 0) {
    serve::ResultCacheConfig cache_cfg;
    cache_cfg.capacity = cache_capacity;
    cache_cfg.ttl =
        std::chrono::milliseconds(flags.GetInt("cache_ttl_ms", 5000));
    cache = std::make_unique<serve::ResultCache>(cache_cfg);
    bundle.AddReloadListener([&](const serve::ModelSnapshot& swapped_in) {
      cache->InvalidateAll(swapped_in.version);
      stats.model_reloads.fetch_add(1, std::memory_order_relaxed);
    });
  } else {
    bundle.AddReloadListener([&](const serve::ModelSnapshot&) {
      stats.model_reloads.fetch_add(1, std::memory_order_relaxed);
    });
  }

  // Streaming ingestion: an incremental trainer anchored on the serving
  // base checkpoint, fed by /checkin through an IngestService; published
  // deltas are hot-patched by the bundle's watcher, with row-level cache
  // invalidation instead of the wholesale reload flush.
  std::unique_ptr<StTransRec> stream_model;
  std::unique_ptr<stream::IncrementalTrainer> inc_trainer;
  std::unique_ptr<stream::IngestService> ingest;
  if (streaming) {
    const std::shared_ptr<const serve::ModelSnapshot> snapshot =
        bundle.snapshot();
    STTR_CHECK(snapshot->model != nullptr);
    StTransRecConfig stream_cfg = model_cfg;
    stream_cfg.checkpoint_dir.clear();
    stream_cfg.verbose = false;
    stream_model = std::make_unique<StTransRec>(stream_cfg);
    STTR_CHECK_OK(stream_model->Prepare(ws.world.dataset, ws.split));
    stream::IncrementalTrainerConfig trainer_cfg;
    trainer_cfg.delta_dir = delta_dir;
    trainer_cfg.delta_keep_last =
        static_cast<size_t>(flags.GetInt("delta_keep", 4));
    inc_trainer = std::make_unique<stream::IncrementalTrainer>(trainer_cfg);
    STTR_CHECK_OK(inc_trainer->Init(stream_model.get(), ws.world.dataset,
                                    snapshot->checkpoint_path));
    stream::IngestServiceConfig ingest_cfg;
    ingest_cfg.queue_capacity =
        static_cast<size_t>(flags.GetInt("stream_queue", 4096));
    ingest_cfg.window =
        static_cast<size_t>(flags.GetInt("stream_window", 32));
    ingest_cfg.publish_every_windows =
        static_cast<size_t>(flags.GetInt("publish_windows", 1));
    ingest = std::make_unique<stream::IngestService>(
        ws.world.dataset, inc_trainer.get(), &stats.ingest, ingest_cfg);
    ingest->Start();
    if (cache != nullptr) {
      bundle.AddDeltaListener(
          [&](const serve::ModelSnapshot& patched,
              const DeltaCheckpoint& delta) {
            serve::InvalidateForDelta(ws.world.dataset, delta, *cache,
                                      patched.version);
          });
    }
    STTR_LOG(Info) << "streaming ingestion: window "
                   << ingest_cfg.window << ", deltas -> " << delta_dir;
  }

  std::unique_ptr<stream::ColdStartScorer> cold_scorer;
  if (flags.GetBool("cold_start", false)) {
    stream::ColdStartConfig cold_cfg;
    cold_cfg.time_buckets =
        static_cast<size_t>(flags.GetInt("time_buckets", 4));
    cold_cfg.time_weight = flags.GetDouble("time_weight", 0.25);
    cold_scorer = std::make_unique<stream::ColdStartScorer>(ws.world.dataset,
                                                            cold_cfg);
    STTR_LOG(Info) << "cold-start word-bridge scoring enabled ("
                   << cold_cfg.time_buckets << " time buckets)";
  }

  serve::ServerConfig server_cfg;
  server_cfg.port = static_cast<int>(flags.GetInt("port", 0));
  server_cfg.num_workers = static_cast<size_t>(flags.GetInt("workers", 8));
  server_cfg.num_io_threads =
      static_cast<size_t>(flags.GetInt("io_threads", 1));
  server_cfg.default_city = ws.split.target_city;
  server_cfg.enable_cache = cache != nullptr;
  serve::RecommendServer server(server_cfg, ws.world.dataset, &bundle,
                                &index, cache.get(), &stats, ingest.get(),
                                cold_scorer.get());
  STTR_CHECK_OK(server.Start());
  bundle.StartWatcher();

  std::printf("serving %s on http://127.0.0.1:%d  (ctrl-c to stop)\n",
              ckpt_dir.c_str(), server.port());
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_shutdown_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  STTR_LOG(Info) << "shutting down";
  bundle.StopWatcher();
  server.Shutdown();
  // After the HTTP layer: Stop() trains the remaining partial window and
  // publishes a final delta, so nothing ingested is lost.
  if (ingest != nullptr) ingest->Stop();
  return 0;
}

}  // namespace
}  // namespace sttr

int main(int argc, char** argv) { return sttr::Main(argc, argv); }
