// The HTTP contract of RecommendServer, pinned in recorded golden fixtures
// (tests/serve/golden/*.golden): every request in a fixture is replayed over
// a real loopback connection and the response must match the recorded bytes
// — status line, headers and body. Covers every endpoint, each 400 branch and
// its precedence, duplicate parameters, protocol errors, 431, 408,
// Connection: close, a hot reload, the /checkin matrix and cold-start
// serving.
//
// Fixture syntax, one item per line:
//   # ...       comment
//   connect     open a new client connection (replacing the current one)
//   closed      the server must have closed the current connection
//   reload      copy the newest checkpoint to ckpt-000007.sttr and reload
//   > REQUEST   raw request bytes, sent on the current connection
//   < RESPONSE  the response recorded for the request above
// Bytes are written with the escapes \r \n \\ and \xHH.
//
// Trained weights differ across compilers, ISAs and sanitizer builds, so
// three things are normalized before the compare, each only after checking
// it against its oracle:
//   - the "results" array, after checking it equals the offline ranking
//     (ScorePairs, or ColdStartScorer::Score for a cold-start user, then
//     TopKByScore, then %.17g) -> <results>;
//   - the Content-Length value, after checking the body is exactly one JSON
//     object of that length -> <len>;
//   - the per-process checkpoint directory in /healthz -> <ckpt_dir>.
// A request without a recorded response fails the test and prints the whole
// fixture with this run's responses filled in, ready to be committed.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/recommender.h"
#include "core/st_transrec.h"
#include "serve/candidate_index.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "serve_test_util.h"
#include "stream/cold_start.h"
#include "stream/incremental_trainer.h"
#include "stream/ingest_service.h"
#include "test_http_client.h"
#include "util/check.h"
#include "util/fs.h"
#include "util/string_util.h"

namespace sttr::serve {
namespace {

std::string Escape(std::string_view bytes) {
  std::string out;
  for (const char c : bytes) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\n') {
      out += "\\n";
    } else if (u < 0x20 || u >= 0x7f) {
      out += StrFormat("\\x%02x", u);
    } else {
      out += c;
    }
  }
  return out;
}

std::string Unescape(std::string_view text) {
  std::string out;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    STTR_CHECK_LT(i + 1, text.size()) << "dangling escape";
    const char e = text[++i];
    if (e == 'r') {
      out += '\r';
    } else if (e == 'n') {
      out += '\n';
    } else if (e == '\\') {
      out += '\\';
    } else {
      STTR_CHECK(e == 'x' && i + 2 < text.size()) << "bad escape";
      out += static_cast<char>(
          std::strtol(std::string(text.substr(i + 1, 2)).c_str(), nullptr, 16));
      i += 2;
    }
  }
  return out;
}

/// First value of `name` in a query string (first occurrence wins, as the
/// server parses it).
std::optional<std::string> QueryParam(std::string_view query,
                                      std::string_view name) {
  for (const std::string& part : Split(std::string(query), '&')) {
    const size_t eq = part.find('=');
    if (part.substr(0, eq) == name) {
      return eq == std::string::npos ? "" : part.substr(eq + 1);
    }
  }
  return std::nullopt;
}

/// True when `body` is exactly one JSON object: it opens with '{' and its
/// brackets first balance at the last byte.
bool IsOneJsonObject(std::string_view body) {
  if (body.empty() || body.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) return i + 1 == body.size();
    }
  }
  return false;
}

struct StackOptions {
  /// Empty: the suite's checkpoint directory.
  std::string ckpt_dir;
  std::chrono::milliseconds request_timeout{5000};
  bool ingest = false;
  bool cold_start = false;
};

/// One serving stack with its own bundle, cache and (optional) ingest
/// pipeline, on an ephemeral port.
struct Stack {
  std::string ckpt_dir;
  bool cold_start = false;
  ServeStats stats;
  std::unique_ptr<ModelBundle> bundle;
  std::unique_ptr<ResultCache> cache;
  std::unique_ptr<StTransRec> stream_model;
  std::unique_ptr<stream::IncrementalTrainer> trainer;
  std::unique_ptr<stream::IngestService> ingest;
  std::unique_ptr<RecommendServer> server;

  ~Stack() {
    if (server != nullptr) server->Shutdown();
    if (ingest != nullptr) ingest->Stop();
  }
};

class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new ServeFixture(MakeServeFixture());
    ckpt_dir_ = new std::string(ServeTestDir());
    TrainSmallModel(*fixture_, *ckpt_dir_);
  }
  static void TearDownTestSuite() {
    delete ckpt_dir_;
    delete fixture_;
    ckpt_dir_ = nullptr;
    fixture_ = nullptr;
  }

  void SetUp() override {
    index_ = std::make_unique<CandidateIndex>(fixture_->world.dataset,
                                              &fixture_->split,
                                              CandidateIndexConfig{});
    cold_scorer_ = std::make_unique<stream::ColdStartScorer>(
        fixture_->world.dataset, stream::ColdStartConfig{});
  }

  const Dataset& dataset() const { return fixture_->world.dataset; }

  std::unique_ptr<Stack> MakeStack(const StackOptions& opt) {
    auto stack = std::make_unique<Stack>();
    stack->ckpt_dir = opt.ckpt_dir.empty() ? *ckpt_dir_ : opt.ckpt_dir;
    stack->cold_start = opt.cold_start;
    ModelBundleConfig bundle_config;
    bundle_config.checkpoint_dir = stack->ckpt_dir;
    bundle_config.model = SmallServingModelConfig();
    stack->bundle = std::make_unique<ModelBundle>(
        dataset(), fixture_->split, bundle_config);
    STTR_CHECK_OK(stack->bundle->LoadInitial());
    stack->cache = std::make_unique<ResultCache>(ResultCacheConfig{});
    ResultCache* cache = stack->cache.get();
    stack->bundle->AddReloadListener([cache](const ModelSnapshot& swapped) {
      cache->InvalidateAll(swapped.version);
    });
    if (opt.ingest) {
      // The training loop is never started: check-ins queue in the log and
      // their sequence numbers are the only state a response shows.
      stack->stream_model =
          std::make_unique<StTransRec>(SmallServingModelConfig());
      STTR_CHECK_OK(
          stack->stream_model->Prepare(dataset(), fixture_->split));
      stream::IncrementalTrainerConfig trainer_config;
      trainer_config.delta_dir = testing_util::ScratchDir("golden_deltas");
      stack->trainer =
          std::make_unique<stream::IncrementalTrainer>(trainer_config);
      STTR_CHECK_OK(stack->trainer->Init(
          stack->stream_model.get(), dataset(),
          stack->bundle->snapshot()->checkpoint_path));
      stream::IngestServiceConfig ingest_config;
      ingest_config.queue_capacity = 256;
      ingest_config.window = 8;
      stack->ingest = std::make_unique<stream::IngestService>(
          dataset(), stack->trainer.get(), &stack->stats.ingest,
          ingest_config);
    }
    ServerConfig config;
    config.num_workers = 2;
    config.request_timeout = opt.request_timeout;
    config.default_city = fixture_->split.target_city;
    stack->server = std::make_unique<RecommendServer>(
        config, dataset(), stack->bundle.get(), index_.get(),
        stack->cache.get(), &stack->stats, stack->ingest.get(),
        opt.cold_start ? cold_scorer_.get() : nullptr);
    STTR_CHECK_OK(stack->server->Start());
    return stack;
  }

  /// A fresh checkpoint directory holding a copy of the suite's newest
  /// checkpoint, for a scenario that writes into it.
  std::string CopyOfCheckpointDir(const std::string& name) {
    const std::string dir = testing_util::ScratchDir(name);
    const auto latest = FindLatestValidCheckpoint(*Env::Default(), *ckpt_dir_);
    STTR_CHECK_OK(latest.status());
    std::filesystem::copy_file(
        *latest,
        std::filesystem::path(dir) / std::filesystem::path(*latest).filename());
    return dir;
  }

  /// What "results" must hold for `request`: the request's candidates
  /// scored offline against the stack's current snapshot, ranked by
  /// TopKByScore and printed with %.17g.
  std::string OfflineResults(const Stack& stack,
                             std::string_view request) const {
    const size_t target_start = request.find(' ') + 1;
    const std::string_view target = request.substr(
        target_start, request.find(' ', target_start) - target_start);
    const std::string_view query = target.substr(target.find('?') + 1);
    // The server's defaults for absent parameters; the rest were validated
    // by the server, or it would not have answered with results.
    const auto param = [&](std::string_view name, const std::string& dflt) {
      return QueryParam(query, name).value_or(dflt);
    };
    const UserId user = std::atoll(param("user", "").c_str());
    const GeoPoint loc{std::strtod(param("lat", "").c_str(), nullptr),
                       std::strtod(param("lon", "").c_str(), nullptr)};
    const CityId city = static_cast<CityId>(std::atoll(
        param("city", std::to_string(fixture_->split.target_city)).c_str()));
    const size_t k = static_cast<size_t>(std::atoll(
        param("k", std::to_string(ServerConfig{}.default_k)).c_str()));
    const double hour = std::strtod(param("hour", "-1").c_str(), nullptr);

    const std::shared_ptr<const ModelSnapshot> snapshot =
        stack.bundle->snapshot();
    const std::vector<PoiId> candidates = index_->Candidates(city, loc);
    std::vector<double> scores;
    if (stack.cold_start && cold_scorer_->IsColdIn(user, city)) {
      cold_scorer_->Score(snapshot->model->WordEmbeddingTable(), user,
                          cold_scorer_->BucketOf(hour),
                          {candidates.data(), candidates.size()}, &scores);
    } else {
      const std::vector<UserId> users(candidates.size(), user);
      scores = snapshot->scorer->ScorePairs(
          {users.data(), users.size()},
          {candidates.data(), candidates.size()});
    }
    std::string out;
    for (const auto& [poi, score] :
         TopKByScore({candidates.data(), candidates.size()},
                     {scores.data(), scores.size()}, k)) {
      if (!out.empty()) out += ", ";
      out += StrFormat("{\"poi\": %lld, \"score\": %.17g}",
                       static_cast<long long>(poi), score);
    }
    return out;
  }

  /// The response with its three build-dependent fields checked against
  /// their oracles and replaced by placeholders.
  std::string Normalize(const Stack& stack, const std::string& request,
                        const std::string& response) const {
    const size_t head_end = response.find("\r\n\r\n");
    STTR_CHECK_NE(head_end, std::string::npos);
    std::string head = response.substr(0, head_end + 4);
    std::string body = response.substr(head_end + 4);

    const std::string_view kLength = "Content-Length: ";
    const size_t len_at = head.find(kLength);
    EXPECT_NE(len_at, std::string::npos) << head;
    if (len_at != std::string::npos) {
      const size_t from = len_at + kLength.size();
      const size_t to = head.find("\r\n", from);
      EXPECT_EQ(head.substr(from, to - from), std::to_string(body.size()));
      EXPECT_TRUE(IsOneJsonObject(body)) << body;
      head.replace(from, to - from, "<len>");
    }

    const std::string_view kCheckpoint = "\"checkpoint\": \"";
    const size_t ckpt_at = body.find(kCheckpoint);
    if (ckpt_at != std::string::npos) {
      const size_t from = ckpt_at + kCheckpoint.size();
      EXPECT_EQ(body.compare(from, stack.ckpt_dir.size() + 1,
                             stack.ckpt_dir + "/"),
                0)
          << body;
      body.replace(from, stack.ckpt_dir.size(), "<ckpt_dir>");
    }

    const std::string_view kResults = "\"results\": [";
    const size_t results_at = body.find(kResults);
    if (results_at != std::string::npos) {
      const size_t from = results_at + kResults.size();
      const size_t to = body.rfind(']');
      EXPECT_EQ(body.substr(from, to - from), OfflineResults(stack, request))
          << "request: " << request;
      body.replace(from, to - from, "<results>");
    }
    return head + body;
  }

  /// Lands a newer checkpoint file (ckpt-000007.sttr, same contents) in the
  /// stack's directory and swaps it in at an explicit barrier, as the
  /// watcher would asynchronously.
  void Reload(Stack& stack) {
    const auto latest =
        FindLatestValidCheckpoint(*Env::Default(), stack.ckpt_dir);
    STTR_CHECK_OK(latest.status());
    std::filesystem::copy_file(*latest,
                               std::filesystem::path(stack.ckpt_dir) /
                                   CheckpointFileName(/*epoch=*/7));
    const StatusOr<bool> swapped = stack.bundle->ReloadIfNewer();
    STTR_CHECK_OK(swapped.status());
    ASSERT_TRUE(*swapped);
  }

  /// Replays tests/serve/golden/<name> against `stack`.
  void Replay(Stack& stack, const std::string& name) {
    const std::string path = std::string(STTR_GOLDEN_DIR) + "/" + name;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "cannot open " << path;
    std::unique_ptr<TestHttpClient> client;
    std::string recorded;  // the fixture with this run's responses
    bool missing = false;
    std::optional<std::string> unanswered;  // normalized, awaiting "< "
    const auto settle = [&] {
      if (unanswered.has_value()) {
        missing = true;
        recorded += "< " + Escape(*unanswered) + "\n";
        unanswered.reset();
      }
    };
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const std::string where = name + ":" + std::to_string(line_no);
      if (line.rfind("< ", 0) == 0) {
        ASSERT_TRUE(unanswered.has_value()) << where << ": no request";
        EXPECT_EQ(line, "< " + Escape(*unanswered)) << where;
        recorded += "< " + Escape(*unanswered) + "\n";
        unanswered.reset();
        continue;
      }
      settle();
      recorded += line + "\n";
      if (line.empty() || line[0] == '#') continue;
      if (line == "connect") {
        client = std::make_unique<TestHttpClient>(stack.server->port());
      } else if (line == "closed") {
        ASSERT_NE(client, nullptr) << where;
        EXPECT_TRUE(client->WaitForClose()) << where;
      } else if (line == "reload") {
        Reload(stack);
      } else if (line.rfind("> ", 0) == 0) {
        ASSERT_NE(client, nullptr) << where << ": request before connect";
        const std::string request = Unescape(line.substr(2));
        unanswered = Normalize(stack, request, client->Roundtrip(request).raw);
      } else {
        FAIL() << where << ": unknown line: " << line;
      }
    }
    settle();
    EXPECT_FALSE(missing) << path
                          << " lacks responses; this run records it as:\n"
                          << recorded;
  }

  static ServeFixture* fixture_;
  static std::string* ckpt_dir_;

  std::unique_ptr<CandidateIndex> index_;
  std::unique_ptr<stream::ColdStartScorer> cold_scorer_;
};

ServeFixture* GoldenTest::fixture_ = nullptr;
std::string* GoldenTest::ckpt_dir_ = nullptr;

TEST_F(GoldenTest, AllEndpointsAndErrorsMatchRecordedBytes) {
  auto stack = MakeStack({});
  Replay(*stack, "recommend.golden");
}

TEST_F(GoldenTest, ProtocolErrorsMatchRecordedBytesAndClose) {
  auto stack = MakeStack({});
  Replay(*stack, "protocol_errors.golden");
}

TEST_F(GoldenTest, ConnectionCloseAndTimeoutsMatchRecordedBytes) {
  {
    auto stack = MakeStack({});
    Replay(*stack, "connection_close.golden");
  }
  StackOptions fast;
  fast.request_timeout = std::chrono::milliseconds(200);
  auto stack = MakeStack(fast);
  Replay(*stack, "request_timeout.golden");
}

TEST_F(GoldenTest, HotReloadMatchesRecordedBytes) {
  StackOptions opt;
  opt.ckpt_dir = CopyOfCheckpointDir("golden_reload");
  auto stack = MakeStack(opt);
  Replay(*stack, "hot_reload.golden");
}

TEST_F(GoldenTest, CheckinMatchesRecordedBytes) {
  StackOptions opt;
  opt.ingest = true;
  opt.cold_start = true;
  auto stack = MakeStack(opt);
  Replay(*stack, "checkin.golden");
}

TEST_F(GoldenTest, CheckinWithoutIngestMatchesRecordedBytes) {
  StackOptions opt;
  opt.cold_start = true;
  auto stack = MakeStack(opt);
  Replay(*stack, "checkin_without_ingest.golden");
}

TEST_F(GoldenTest, ColdStartMatchesRecordedBytes) {
  StackOptions opt;
  opt.cold_start = true;
  auto stack = MakeStack(opt);
  Replay(*stack, "cold_start.golden");
}

}  // namespace
}  // namespace sttr::serve
