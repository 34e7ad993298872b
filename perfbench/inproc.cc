// In-process half of the serving benchmark. Three subcommands, all on the
// world sttr_serve builds for --dataset=foursquare --scale=paper:
//
//   perfbench_inproc prepare --state=DIR
//       Trains a one-epoch checkpoint into DIR/ckpt (once; a valid one is
//       reused) and writes DIR/world.tsv: the crossing-city test users and
//       every target-city POI with its location. The load
//       generator's request streams are drawn from that file.
//
//   perfbench_inproc reference --state=DIR --requests=FILE --out=FILE
//       The offline side of the serving == offline contract: for each
//       "user<TAB>lat<TAB>lon<TAB>k" line, CandidateIndex -> ScorePairs ->
//       TopKByScore on the same checkpoint, written as "poi:score" pairs
//       with %.17g scores (the server's formatting).
//
//   perfbench_inproc trace --state=DIR --plan=FILE --work=DIR --out=FILE
//       Replays plan targets (the load generator's format) through each
//       layer's public functions and records one span per call: name,
//       start, end, parent and request id. Each request waits for a line on
//       stdin and answers "done" on stdout, so the caller can send the same
//       request to the server just before it and compare the two under the
//       same host conditions. Spans stay in memory and are written at exit
//       together with counters (candidates per request, GEMM operation
//       counts, delta sizes). perfbench/run.py turns them into per-layer
//       self times.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "core/checkpoint.h"
#include "core/delta.h"
#include "core/recommender.h"
#include "serve/candidate_index.h"
#include "serve/conn.h"
#include "serve/embedding_store.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "stream/incremental_trainer.h"
#include "stream/ingest_service.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/fs.h"
#include "util/flags.h"

namespace sttr {
namespace {

constexpr const char* kDataset = "foursquare";
// Scored requests of a trace whose tower is also timed one GEMM at a time.
constexpr size_t kDecomposeRequests = 16;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bench::BenchOptions WorldOptions() {
  bench::BenchOptions opts;
  opts.scale = synth::Scale::kPaper;
  opts.seed = 0;  // the preset's fixed world seed, as sttr_serve uses
  return opts;
}

StTransRecConfig ModelConfig() {
  StTransRecConfig cfg = WorldOptions().DeepConfig();
  bench::ApplyPaperArchitecture(kDataset, cfg);
  return cfg;
}

// ---- Spans -----------------------------------------------------------------

struct Span {
  int64_t id;
  int64_t parent;  // -1 for a root
  int64_t req;
  std::string name;
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t), index_(t->Begin(name)) {}
    ~Scope() { t_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    size_t index_;
  };

  void set_request(int64_t req) { req_ = req; }

  void Count(const std::string& name, double value) {
    counters_.emplace_back(name, value);
  }

  void Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    STTR_CHECK(f != nullptr) << "cannot write " << path;
    for (const Span& s : spans_) {
      std::fprintf(f, "S\t%lld\t%lld\t%lld\t%s\t%lld\t%lld\n",
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.req), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    for (const auto& [name, value] : counters_) {
      std::fprintf(f, "C\t%s\t%.17g\n", name.c_str(), value);
    }
    std::fclose(f);
  }

 private:
  size_t Begin(const char* name) {
    const int64_t parent = open_.empty() ? -1 : spans_[open_.back()].id;
    spans_.push_back(Span{static_cast<int64_t>(spans_.size()), parent, req_,
                          name, NowNs(), 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void End(size_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<size_t> open_;
  std::vector<std::pair<std::string, double>> counters_;
  int64_t req_ = -1;
};

// ---- Helpers ---------------------------------------------------------------

std::string QueryParam(std::string_view query, std::string_view key) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view kv = query.substr(pos, amp - pos);
    const size_t eq = kv.find('=');
    if (eq != std::string_view::npos && kv.substr(0, eq) == key) {
      return std::string(kv.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return "";
}

std::vector<std::string> ReadPlanTargets(const std::string& path) {
  std::ifstream f(path);
  STTR_CHECK(f.good()) << "cannot read " << path;
  std::vector<std::string> targets;
  std::string line;
  while (std::getline(f, line)) {
    const size_t t2 = line.find('\t', line.find('\t') + 1);
    if (t2 != std::string::npos) targets.push_back(line.substr(t2 + 1));
  }
  return targets;
}

std::string CkptDir(const std::string& state) { return state + "/ckpt"; }

serve::ModelBundleConfig BundleConfig(const std::string& state,
                                      const std::string& delta_dir) {
  serve::ModelBundleConfig cfg;
  cfg.checkpoint_dir = CkptDir(state);
  cfg.model = ModelConfig();
  cfg.delta_dir = delta_dir;
  return cfg;
}

// ---- prepare ---------------------------------------------------------------

int Prepare(const FlagParser& flags) {
  const std::string state = flags.GetString("state", "");
  STTR_CHECK(!state.empty()) << "--state is required";
  bench::WorldAndSplit ws = bench::MakeWorld(kDataset, WorldOptions());
  const std::string ckpt = CkptDir(state);
  if (!FindLatestValidCheckpoint(*Env::Default(), ckpt).ok()) {
    StTransRecConfig cfg = ModelConfig();
    cfg.num_epochs = 1;
    cfg.checkpoint_dir = ckpt;
    StTransRec trainer(cfg);
    STTR_CHECK_OK(trainer.Fit(ws.world.dataset, ws.split));
  }
  const Dataset& d = ws.world.dataset;
  std::ofstream out(state + "/world.tsv");
  for (const auto& tu : ws.split.test_users) out << "user\t" << tu.user << "\n";
  char line[128];
  for (PoiId p : d.PoisInCity(ws.split.target_city)) {
    std::snprintf(line, sizeof(line), "poi\t%lld\t%.8f\t%.8f\n",
                  static_cast<long long>(p), d.poi(p).location.lat,
                  d.poi(p).location.lon);
    out << line;
  }
  STTR_CHECK(out.good()) << "cannot write " << state << "/world.tsv";
  return 0;
}

// ---- reference -------------------------------------------------------------

int Reference(const FlagParser& flags) {
  const std::string state = flags.GetString("state", "");
  bench::WorldAndSplit ws = bench::MakeWorld(kDataset, WorldOptions());
  serve::ModelBundle bundle(ws.world.dataset, ws.split, BundleConfig(state, ""));
  STTR_CHECK_OK(bundle.LoadInitial());
  const auto snapshot = bundle.snapshot();
  serve::CandidateIndex index(ws.world.dataset, &ws.split,
                              serve::CandidateIndexConfig{});
  std::ifstream in(flags.GetString("requests", ""));
  STTR_CHECK(in.good()) << "cannot read --requests";
  FILE* out = std::fopen(flags.GetString("out", "").c_str(), "w");
  STTR_CHECK(out != nullptr) << "cannot write --out";
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    long long user = 0;
    double lat = 0, lon = 0;
    size_t k = 0;
    fields >> user >> lat >> lon >> k;
    const std::vector<PoiId> cands =
        index.Candidates(ws.split.target_city, GeoPoint{lat, lon});
    const std::vector<UserId> users(cands.size(), static_cast<UserId>(user));
    const std::vector<double> scores =
        snapshot->scorer->ScorePairs(users, cands);
    const auto top = TopKByScore(cands, scores, k);
    for (size_t i = 0; i < top.size(); ++i) {
      std::fprintf(out, "%s%lld:%.17g", i == 0 ? "" : " ",
                   static_cast<long long>(top[i].first), top[i].second);
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
  return 0;
}

// ---- trace -----------------------------------------------------------------

// gather -> tower, then the tower's GEMMs one layer at a time at the served
// shapes (real activations, so each layer sees its true input).
void DecomposeScoring(Tracer& tr, const std::shared_ptr<const StTransRec>& model,
                      serve::InProcessEmbeddingStore& store, UserId user,
                      const std::vector<PoiId>& cands) {
  const size_t n = cands.size();
  const size_t d = store.dim();
  Tensor h({n, 2 * d});
  {
    Tracer::Scope s(&tr, "serve.embedding_store.gather");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::vector<float> urow(d);
    const int64_t uid = user;
    STTR_CHECK_OK(store.Gather(serve::EmbeddingTable::kUser, {&uid, 1},
                               urow.data(), deadline));
    std::vector<float> prows(n * d);
    const std::vector<int64_t> ids(cands.begin(), cands.end());
    STTR_CHECK_OK(store.Gather(serve::EmbeddingTable::kPoi, ids, prows.data(),
                               deadline));
    for (size_t i = 0; i < n; ++i) {
      float* dst = h.row(i);
      for (size_t j = 0; j < d; ++j) dst[j] = urow[j];
      for (size_t j = 0; j < d; ++j) dst[d + j] = prows[i * d + j];
    }
  }
  {
    Tracer::Scope s(&tr, "core.tower");
    const std::vector<double> scores = model->ScoreGatheredPairs(h);
    STTR_CHECK_EQ(scores.size(), n);
  }
  // The same forward pass one call at a time: the GEMMs are children of
  // this span, so its self time is the bias, activation and allocation
  // work between them.
  Tracer::Scope layers(&tr, "core.tower.layers");
  const std::vector<ag::Variable> params = model->Parameters();
  Tensor x = h;
  size_t layer = 0;
  for (size_t p = model->NumEmbeddingParameters(); p + 1 < params.size();
       p += 2, ++layer) {
    const Tensor& w = params[p].value();
    const Tensor& b = params[p + 1].value();
    if (w.ndim() != 2 || w.rows() != x.cols()) break;
    const std::string name = "tensor.matmul.l" + std::to_string(layer);
    Tensor y;
    {
      Tracer::Scope s(&tr, name.c_str());
      y = ParallelMatMul(x, w);
    }
    tr.Count(name + ".flops", 2.0 * static_cast<double>(x.rows()) *
                                  static_cast<double>(w.rows()) *
                                  static_cast<double>(w.cols()));
    y = AddRowBroadcast(y, b);
    x = p + 3 < params.size() ? Relu(y) : y;
  }
}

int Trace(const FlagParser& flags) {
  const std::string state = flags.GetString("state", "");
  const std::string work = flags.GetString("work", "");
  STTR_CHECK(!state.empty() && !work.empty()) << "--state and --work needed";
  const std::string delta_dir = work + "/deltas";
  Tracer tr;

  std::unique_ptr<bench::WorldAndSplit> ws;
  {
    Tracer::Scope s(&tr, "data.generate_world");
    ws = std::make_unique<bench::WorldAndSplit>(
        bench::MakeWorld(kDataset, WorldOptions()));
  }
  const Dataset& dataset = ws->world.dataset;
  const CityId city = ws->split.target_city;
  serve::ModelBundle bundle(dataset, ws->split, BundleConfig(state, delta_dir));
  {
    Tracer::Scope s(&tr, "serve.model_bundle.load_initial");
    STTR_CHECK_OK(bundle.LoadInitial());
  }
  std::unique_ptr<serve::CandidateIndex> index;
  {
    Tracer::Scope s(&tr, "serve.candidate_index.build");
    index = std::make_unique<serve::CandidateIndex>(
        dataset, &ws->split, serve::CandidateIndexConfig{});
  }
  StTransRecConfig stream_cfg = ModelConfig();
  stream_cfg.checkpoint_dir.clear();
  StTransRec stream_model(stream_cfg);
  stream::IncrementalTrainerConfig trainer_cfg;
  trainer_cfg.delta_dir = delta_dir;
  stream::IncrementalTrainer trainer(trainer_cfg);
  {
    Tracer::Scope s(&tr, "stream.incremental_trainer.init");
    STTR_CHECK_OK(stream_model.Prepare(dataset, ws->split));
    STTR_CHECK_OK(
        trainer.Init(&stream_model, dataset, bundle.snapshot()->checkpoint_path));
  }
  stream::IngestServiceConfig ingest_cfg;
  stream::IngestService ingest(dataset, &trainer, nullptr, ingest_cfg);

  serve::ResultCacheConfig cache_cfg;
  cache_cfg.ttl = std::chrono::milliseconds(0);
  serve::ResultCache cache(cache_cfg);
  serve::CandidateIndex::Scratch scratch;
  std::vector<PoiId> cands;
  std::vector<UserId> users;
  serve::ResultCache::Value cached;
  serve::Conn conn;
  size_t decomposed = 0;

  const std::vector<std::string> targets =
      ReadPlanTargets(flags.GetString("plan", ""));
  std::string step;
  for (size_t r = 0; r < targets.size() && std::getline(std::cin, step); ++r) {
    tr.set_request(static_cast<int64_t>(r));
    const std::string raw =
        "GET " + targets[r] + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    const auto snapshot = bundle.snapshot();
    bool checkin = false;
    UserId decompose_user = -1;
    {
      Tracer::Scope req(&tr, "request");
      conn.StartRequest();
      serve::ParsedRequest parsed;
      {
        Tracer::Scope s(&tr, "serve.conn.parse_request");
        STTR_CHECK(serve::ParseRequest(raw, 16 * 1024, &parsed) ==
                   serve::ParseStatus::kComplete);
      }
      const std::string_view query = parsed.query;
      const UserId user = std::atoll(QueryParam(query, "user").c_str());
      if (parsed.path == "/checkin") {
        checkin = true;
        stream::CheckinEvent ev;
        ev.user = user;
        ev.poi = std::atoll(QueryParam(query, "poi").c_str());
        {
          Tracer::Scope s(&tr, "stream.ingest.submit");
          STTR_CHECK(ingest.Submit(ev).ok());
        }
        conn.body.Append("{\"accepted\": true}");
      } else {
        const GeoPoint loc{std::atof(QueryParam(query, "lat").c_str()),
                           std::atof(QueryParam(query, "lon").c_str())};
        const std::string k_param = QueryParam(query, "k");
        const size_t k = k_param.empty() ? 10 : std::atoll(k_param.c_str());
        const bool use_cache = QueryParam(query, "nocache") != "1";
        const serve::ResultCacheKey key{
            user, city, index->CellOf(city, loc), static_cast<uint32_t>(k),
            static_cast<uint8_t>(snapshot->precision)};
        bool hit = false;
        if (use_cache) {
          Tracer::Scope s(&tr, "serve.result_cache.get");
          hit = cache.GetInto(key, &cached);
        }
        serve::ResultCache::Value top;
        if (!hit) {
          {
            Tracer::Scope s(&tr, "serve.candidate_index.candidates");
            index->CandidatesInto(city, loc, 0, &scratch, &cands);
          }
          tr.Count("serve.candidate_index.candidates_per_req",
                   static_cast<double>(cands.size()));
          users.assign(cands.size(), user);
          std::vector<double> scores;
          {
            Tracer::Scope s(&tr, "core.score_pairs");
            scores = snapshot->scorer->ScorePairs(users, cands);
          }
          {
            Tracer::Scope s(&tr, "core.topk");
            top = TopKByScore(cands, scores, k);
          }
          if (use_cache) {
            Tracer::Scope s(&tr, "serve.result_cache.put");
            cache.Put(key, top);
          }
        }
        const auto& results = hit ? cached : top;
        char num[64];
        conn.body.Append("{\"results\": [");
        for (size_t i = 0; i < results.size(); ++i) {
          std::snprintf(num, sizeof(num), "%s{\"poi\": %lld, \"score\": %.17g}",
                        i == 0 ? "" : ", ",
                        static_cast<long long>(results[i].first),
                        results[i].second);
          conn.body.Append(std::string_view(num));
        }
        conn.body.Append("]}");
        if (!hit && decomposed < kDecomposeRequests &&
            snapshot->model != nullptr) {
          ++decomposed;
          decompose_user = user;
        }
      }
      {
        Tracer::Scope s(&tr, "serve.conn.serialize");
        serve::SerializeResponseInto(&conn, true);
      }
    }
    // Outside the request span, so its duration stays the served path's.
    if (decompose_user >= 0) {
      serve::InProcessEmbeddingStore store(snapshot->model);
      DecomposeScoring(tr, snapshot->model, store, decompose_user, cands);
    }
    // The server trains and publishes on the ingest thread and applies on
    // the bundle's watcher; here they run inline, each its own root span.
    if (checkin && ingest.pending() >= ingest_cfg.window) {
      std::vector<stream::CheckinEvent> window;
      ingest.log().TryPop(ingest_cfg.window, &window);
      {
        Tracer::Scope s(&tr, "stream.incremental_trainer.train_window");
        STTR_CHECK_OK(trainer.TrainWindow(window));
      }
      {
        Tracer::Scope s(&tr, "stream.incremental_trainer.publish_delta");
        STTR_CHECK_OK(trainer.PublishDelta());
      }
      DeltaCheckpoint delta;
      {
        Tracer::Scope s(&tr, "core.delta.build");
        delta = trainer.BuildDelta();
      }
      tr.Count("core.delta.rows_per_delta",
               static_cast<double>(delta.total_rows()));
      tr.Count("core.delta.bytes",
               static_cast<double>(EncodeDeltaCheckpoint(delta).size()));
      {
        Tracer::Scope s(&tr, "serve.model_bundle.apply_delta");
        STTR_CHECK(bundle.ApplyDeltaIfNewer().ok());
      }
      {
        Tracer::Scope s(&tr, "serve.result_cache.invalidate_rows");
        serve::InvalidateForDelta(dataset, delta, cache);
      }
    }
    std::fputs("done\n", stdout);
    std::fflush(stdout);
  }
  tr.Write(flags.GetString("out", ""));
  return 0;
}

}  // namespace
}  // namespace sttr

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_inproc prepare|reference|trace "
                         "--state=DIR ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  sttr::FlagParser flags;
  STTR_CHECK_OK(flags.Parse(argc - 1, argv + 1));
  if (cmd == "prepare") return sttr::Prepare(flags);
  if (cmd == "reference") return sttr::Reference(flags);
  if (cmd == "trace") return sttr::Trace(flags);
  std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  return 2;
}
