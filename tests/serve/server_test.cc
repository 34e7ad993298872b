// End-to-end HTTP tests over real loopback sockets: the full serving stack
// (bundle + index + cache + server) must return exactly what the offline
// ranking path computes — identical POI ids and scores — for lone requests
// and for concurrent mixed-user traffic; plus endpoint/error semantics,
// caching behaviour and graceful shutdown, also under concurrent traffic.
// (The byte-level HTTP contract lives in golden_test.cc.)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/quantized_model.h"
#include "core/recommender.h"
#include "serve/candidate_index.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "stream/cold_start.h"
#include "serve_test_util.h"
#include "test_http_client.h"
#include "util/check.h"
#include "util/string_util.h"

namespace sttr::serve {
namespace {

/// The full serving stack on an ephemeral loopback port.
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new ServeFixture(MakeServeFixture());
    ckpt_dir_ = new std::string(ServeTestDir());
    trainer_ = new std::shared_ptr<StTransRec>(
        TrainSmallModel(*fixture_, *ckpt_dir_));
  }
  static void TearDownTestSuite() {
    delete trainer_;
    delete ckpt_dir_;
    delete fixture_;
    trainer_ = nullptr;
    ckpt_dir_ = nullptr;
    fixture_ = nullptr;
  }

  void SetUp() override {
    ModelBundleConfig bundle_config;
    bundle_config.checkpoint_dir = *ckpt_dir_;
    bundle_config.model = SmallServingModelConfig();
    bundle_ = std::make_unique<ModelBundle>(fixture_->world.dataset,
                                            fixture_->split, bundle_config);
    ASSERT_TRUE(bundle_->LoadInitial().ok());

    CandidateIndexConfig index_config;
    index_config.min_candidates = 30;
    index_ = std::make_unique<CandidateIndex>(fixture_->world.dataset,
                                              &fixture_->split, index_config);

    ResultCacheConfig cache_config;
    cache_config.ttl = std::chrono::milliseconds(0);
    cache_ = std::make_unique<ResultCache>(cache_config);
    bundle_->AddReloadListener(
        [this](const ModelSnapshot&) { cache_->InvalidateAll(); });

    ServerConfig server_config;
    server_config.num_workers = 4;
    server_config.default_city = fixture_->split.target_city;
    server_ = std::make_unique<RecommendServer>(
        server_config, fixture_->world.dataset, bundle_.get(), index_.get(),
        cache_.get(), &stats_);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  const Dataset& dataset() { return fixture_->world.dataset; }
  CityId target_city() { return fixture_->split.target_city; }

  /// What the server *should* return: candidates from the same index,
  /// scored serially against the trained model, ranked by TopKByScore.
  std::vector<std::pair<PoiId, double>> ExpectedTopK(UserId user,
                                                     const GeoPoint& loc,
                                                     size_t k) {
    const std::vector<PoiId> candidates =
        index_->Candidates(target_city(), loc);
    const std::vector<double> scores =
        (*trainer_)->ScoreBatch(user, {candidates.data(), candidates.size()});
    return TopKByScore({candidates.data(), candidates.size()},
                       {scores.data(), scores.size()}, k);
  }

  GeoPoint PoiLocation(size_t i) {
    const auto& pois = dataset().PoisInCity(target_city());
    return dataset().poi(pois[i % pois.size()]).location;
  }

  std::string RecommendTarget(UserId user, const GeoPoint& loc, size_t k,
                              bool nocache = false) {
    std::string target = "/recommend?user=" + std::to_string(user) +
                         "&lat=" + StrFormat("%.8f", loc.lat) +
                         "&lon=" + StrFormat("%.8f", loc.lon) +
                         "&k=" + std::to_string(k);
    if (nocache) target += "&nocache=1";
    return target;
  }

  static ServeFixture* fixture_;
  static std::string* ckpt_dir_;
  static std::shared_ptr<StTransRec>* trainer_;

  ServeStats stats_;
  std::unique_ptr<ModelBundle> bundle_;
  std::unique_ptr<CandidateIndex> index_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<RecommendServer> server_;
};

ServeFixture* ServerTest::fixture_ = nullptr;
std::string* ServerTest::ckpt_dir_ = nullptr;
std::shared_ptr<StTransRec>* ServerTest::trainer_ = nullptr;

TEST_F(ServerTest, RecommendMatchesOfflineRankingExactly) {
  // The worker scores each request's candidates inline with one ScorePairs
  // call; the ids and scores must equal ScoreBatch + TopKByScore offline.
  TestHttpClient client(server_->port());
  uint64_t pairs = 0;
  for (UserId user = 0; user < 5; ++user) {
    const GeoPoint loc = PoiLocation(static_cast<size_t>(user) * 7);
    const auto response =
        client.Get(RecommendTarget(user, loc, /*k=*/10, /*nocache=*/true));
    ASSERT_EQ(response.status, 200) << response.body;
    const auto got = ParseResults(response.body);
    const auto want = ExpectedTopK(user, loc, 10);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << "rank " << i;
      // %.17g round-trips doubles exactly.
      EXPECT_EQ(got[i].second, want[i].second) << "rank " << i;
    }
    pairs += index_->Candidates(target_city(), loc).size();
  }
  EXPECT_EQ(stats_.scored_pairs.load(), pairs);
}

TEST_F(ServerTest, ConcurrentMixedRequestsMatchOfflineRanking) {
  // Eight clients over four scoring workers: ScorePairs runs on several
  // workers at once, each with its own scratch.
  constexpr int kClients = 8;
  constexpr int kPerClient = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestHttpClient client(server_->port());
      for (int i = 0; i < kPerClient; ++i) {
        const UserId user = static_cast<UserId>(
            (c * kPerClient + i) % dataset().num_users());
        const GeoPoint loc = PoiLocation(static_cast<size_t>(c * 13 + i));
        const size_t k = 5 + static_cast<size_t>(i);
        const auto response =
            client.Get(RecommendTarget(user, loc, k, /*nocache=*/true));
        if (response.status != 200 ||
            ParseResults(response.body) != ExpectedTopK(user, loc, k)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent serving diverged from serial ranking";
}

TEST_F(ServerTest, CacheServesSecondRequestAndReportsIt) {
  TestHttpClient client(server_->port());
  const GeoPoint loc = PoiLocation(2);
  const std::string target = RecommendTarget(7, loc, 10);

  const auto cold = client.Get(target);
  ASSERT_EQ(cold.status, 200);
  EXPECT_NE(cold.body.find("\"cached\": false"), std::string::npos);

  const auto warm = client.Get(target);
  ASSERT_EQ(warm.status, 200);
  EXPECT_NE(warm.body.find("\"cached\": true"), std::string::npos);
  // Identical payload apart from the cached flag.
  EXPECT_EQ(ParseResults(cold.body), ParseResults(warm.body));
  EXPECT_GE(stats_.cache_hits.load(), 1u);

  // nocache bypasses the cache but must compute the same answer.
  const auto bypass = client.Get(RecommendTarget(7, loc, 10, true));
  EXPECT_NE(bypass.body.find("\"cached\": false"), std::string::npos);
  EXPECT_EQ(ParseResults(bypass.body), ParseResults(cold.body));
}

TEST_F(ServerTest, Int8SnapshotScoresColdUsersThroughTheTower) {
  // A v2 artifact carries no word table, so an int8 snapshot's table is
  // Prepare()'s random initialisation and the word bridge must stay off: a
  // target-city-cold user is ranked by the tower, exactly as in-process
  // ScorePairs + TopKByScore rank it on that snapshot.
  const std::string quant_dir = ServeTestDir();
  const auto quant = QuantizedModel::Quantize(**trainer_);
  ASSERT_TRUE(quant.ok()) << quant.status().ToString();
  ASSERT_TRUE(quant->WriteCheckpointFile(*Env::Default(),
                                         quant_dir + "/" +
                                             CheckpointFileName(2))
                  .ok());
  ModelBundleConfig bundle_config;
  bundle_config.checkpoint_dir = *ckpt_dir_;
  bundle_config.model = SmallServingModelConfig();
  bundle_config.precision = PrecisionMode::kInt8;
  bundle_config.quant_checkpoint_dir = quant_dir;
  ModelBundle bundle(dataset(), fixture_->split, bundle_config);
  ASSERT_TRUE(bundle.LoadInitial().ok());
  const std::shared_ptr<const ModelSnapshot> snapshot = bundle.snapshot();
  ASSERT_EQ(snapshot->precision, Precision::kInt8);

  const stream::ColdStartScorer cold_start(dataset(),
                                           stream::ColdStartConfig{});
  UserId user = 0;
  while (static_cast<size_t>(user) < dataset().num_users() &&
         !cold_start.IsColdIn(user, target_city())) {
    ++user;
  }
  ASSERT_LT(static_cast<size_t>(user), dataset().num_users());

  ServeStats stats;
  ServerConfig config;
  config.num_workers = 1;
  config.default_city = target_city();
  config.enable_cache = false;
  RecommendServer server(config, dataset(), &bundle, index_.get(),
                         /*cache=*/nullptr, &stats, /*ingest=*/nullptr,
                         &cold_start);
  ASSERT_TRUE(server.Start().ok());
  const GeoPoint loc = PoiLocation(3);
  const auto response =
      TestHttpClient(server.port()).Get(RecommendTarget(user, loc, 10));
  server.Shutdown();
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"cold_start\": false"), std::string::npos)
      << response.body;
  EXPECT_EQ(stats.cold_start_requests.load(), 0u);

  const std::vector<PoiId> candidates = index_->Candidates(target_city(), loc);
  const std::vector<UserId> users(candidates.size(), user);
  const std::vector<double> scores =
      snapshot->scorer->ScorePairs(users, candidates);
  EXPECT_EQ(ParseResults(response.body),
            TopKByScore({candidates.data(), candidates.size()},
                        {scores.data(), scores.size()}, 10));
}

TEST_F(ServerTest, HealthzReportsServingCheckpoint) {
  TestHttpClient client(server_->port());
  const auto response = client.Get("/healthz");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("ckpt-"), std::string::npos);
  EXPECT_NE(response.body.find("\"model_version\": 1"), std::string::npos);
}

TEST_F(ServerTest, StatzCountsTraffic) {
  TestHttpClient client(server_->port());
  client.Get(RecommendTarget(1, PoiLocation(0), 5));
  client.Get("/recommend");  // 400
  const auto response = client.Get("/statz");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"requests\": "), std::string::npos);
  EXPECT_NE(response.body.find("\"bad_requests\": 1"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"latency_ms\""), std::string::npos);
}

TEST_F(ServerTest, RejectsBadRequests) {
  TestHttpClient client(server_->port());
  EXPECT_EQ(client.Get("/recommend").status, 400);  // no params
  EXPECT_EQ(client.Get("/recommend?user=notanumber&lat=1&lon=1").status, 400);
  EXPECT_EQ(client.Get("/recommend?user=999999999&lat=1&lon=1").status, 400);
  EXPECT_EQ(client.Get("/recommend?user=1&lat=abc&lon=1").status, 400);
  EXPECT_EQ(client.Get("/recommend?user=1&lat=1&lon=1&k=0").status, 400);
  EXPECT_EQ(client.Get("/recommend?user=1&lat=1&lon=1&k=100000").status, 400);
  EXPECT_EQ(client.Get("/recommend?user=1&lat=1&lon=1&city=99").status, 400);
  EXPECT_EQ(client.Get("/nosuchpath").status, 404);
  EXPECT_GE(stats_.bad_requests.load(), 8u);
}

TEST_F(ServerTest, RejectsMalformedAndOversizedRequests) {
  {
    TestHttpClient client(server_->port());
    const auto response = client.Roundtrip("NONSENSE\r\n\r\n");
    EXPECT_EQ(response.status, 400);
    EXPECT_TRUE(client.WaitForClose());
  }
  {
    TestHttpClient client(server_->port());
    // Headers past max_request_bytes (16K default) without a terminator.
    const std::string huge =
        "GET / HTTP/1.1\r\nX-Junk: " + std::string(20'000, 'a');
    const auto response = client.Roundtrip(huge);
    EXPECT_EQ(response.status, 431);
    EXPECT_TRUE(client.WaitForClose());
  }
}

TEST_F(ServerTest, ConnectionCloseHeaderIsHonoured) {
  TestHttpClient client(server_->port());
  const auto response = client.Roundtrip(
      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(client.WaitForClose());
}

TEST_F(ServerTest, GracefulShutdownIsIdempotentAndStopsServing) {
  EXPECT_TRUE(server_->running());
  server_->Shutdown();
  EXPECT_FALSE(server_->running());
  server_->Shutdown();  // idempotent
}

TEST_F(ServerTest, ShutdownUnderConcurrentTrafficIsGraceful) {
  // Shutting the server down while clients hammer it must never crash,
  // deadlock, or hand out a torn response — every response that does
  // arrive is complete and well-formed.
  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> clients;
  const int port = server_->port();
  const std::string raw = "GET " + RecommendTarget(1, PoiLocation(2), 5) +
                          " HTTP/1.1\r\nHost: t\r\n\r\n";
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Tolerant client: the server may close at any point; the only
        // failure is a *partial* response (headers promising more body
        // bytes than arrive before EOF).
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) continue;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<uint16_t>(port));
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0 ||
            ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) !=
                static_cast<ssize_t>(raw.size())) {
          ::close(fd);
          continue;
        }
        std::string buf;
        char chunk[4096];
        ssize_t n;
        while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
          buf.append(chunk, static_cast<size_t>(n));
        }
        ::close(fd);
        const size_t head_end = buf.find("\r\n\r\n");
        if (buf.empty()) continue;  // rejected before a response: fine
        if (head_end == std::string::npos) {
          torn.fetch_add(1);
          continue;
        }
        const size_t cl = buf.find("Content-Length: ");
        if (cl == std::string::npos ||
            buf.size() - head_end - 4 != std::strtoull(buf.c_str() + cl + 16,
                                                       nullptr, 10)) {
          torn.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Shutdown();
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  TestHttpClient client(server_->port());
  const GeoPoint loc = PoiLocation(3);
  std::string burst;
  for (int i = 0; i < 3; ++i) {
    burst += "GET " + RecommendTarget(2, loc, 5 + static_cast<size_t>(i)) +
             " HTTP/1.1\r\nHost: t\r\n\r\n";
  }
  burst += "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  client.Roundtrip(burst);  // reads the first response
  for (int i = 1; i < 3; ++i) {
    const auto r = client.ReadResponse();
    ASSERT_EQ(r.status, 200);
    EXPECT_NE(r.body.find("\"k\": " + std::to_string(5 + i)),
              std::string::npos)
        << r.body;
  }
  EXPECT_NE(client.ReadResponse().body.find("\"status\": \"ok\""),
            std::string::npos);
}

}  // namespace
}  // namespace sttr::serve
