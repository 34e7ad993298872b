// RecommendServer over an EmbeddingStore, end to end over real HTTP: a
// sharded-store server must answer byte-for-byte what an in-process-store
// server answers (which itself matches a store-less server's scores), and
// when every shard is down the server must degrade explicitly —
// "degraded": true with the popularity fallback, /healthz 503 with a
// reason, counters in /statz, and no degraded entry ever poisoning the
// result cache. After a reload the server scores in-process and counts
// each such request in /statz "store_bypassed".

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "serve/candidate_index.h"
#include "serve/embedding_store.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/shard_server.h"
#include "serve/sharded_store.h"
#include "serve/stats.h"
#include "serve_test_util.h"
#include "test_http_client.h"
#include "util/check.h"
#include "util/fs.h"
#include "util/string_util.h"

namespace sttr::serve {
namespace {

constexpr size_t kNumShards = 2;

/// One self-contained serving stack (bundle + index + cache + server) with
/// an optional EmbeddingStore, on an ephemeral port.
struct Stack {
  std::unique_ptr<ModelBundle> bundle;
  std::unique_ptr<CandidateIndex> index;
  std::unique_ptr<ResultCache> cache;
  std::unique_ptr<ServeStats> stats;
  std::unique_ptr<RecommendServer> server;

  ~Stack() {
    if (server != nullptr) server->Shutdown();
  }
};

class StoreServerTest : public ::testing::Test {
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
    for (size_t i = 0; i < kNumShards; ++i) {
      shards_.push_back(std::make_unique<ShardServer>(
          ShardServerConfig{}, BuildShardSlice(**trainer_, i, kNumShards)));
      ASSERT_TRUE(shards_.back()->Start().ok());
      shard_ports_.push_back(shards_.back()->port());
    }
  }

  void TearDown() override {
    for (auto& shard : shards_) shard->Shutdown();
  }

  /// `ckpt_dir` empty: the suite's checkpoint directory.
  std::unique_ptr<Stack> MakeStack(EmbeddingStore* store,
                                   bool with_cache = false,
                                   const std::string& ckpt_dir = "") {
    auto stack = std::make_unique<Stack>();
    ModelBundleConfig bundle_config;
    bundle_config.checkpoint_dir = ckpt_dir.empty() ? *ckpt_dir_ : ckpt_dir;
    bundle_config.model = SmallServingModelConfig();
    stack->bundle = std::make_unique<ModelBundle>(
        fixture_->world.dataset, fixture_->split, bundle_config);
    STTR_CHECK_OK(stack->bundle->LoadInitial());

    CandidateIndexConfig index_config;
    index_config.min_candidates = 30;
    stack->index = std::make_unique<CandidateIndex>(
        fixture_->world.dataset, &fixture_->split, index_config);
    stack->stats = std::make_unique<ServeStats>();
    if (with_cache) {
      ResultCacheConfig cache_config;
      cache_config.ttl = std::chrono::milliseconds(0);  // no expiry
      stack->cache = std::make_unique<ResultCache>(cache_config);
    }

    ServerConfig server_config;
    server_config.num_workers = 4;
    server_config.default_city = fixture_->split.target_city;
    server_config.enable_cache = with_cache;
    server_config.store_deadline = std::chrono::milliseconds(500);
    stack->server = std::make_unique<RecommendServer>(
        server_config, fixture_->world.dataset, stack->bundle.get(),
        stack->index.get(), stack->cache.get(), stack->stats.get(), store);
    STTR_CHECK_OK(stack->server->Start());
    return stack;
  }

  std::unique_ptr<ShardedEmbeddingStore> MakeShardedStore(
      ShardedStoreOptions opts = {}) {
    opts.shard_ports = shard_ports_;
    const Tensor& users = (*trainer_)->UserEmbeddingTable();
    const Tensor& pois = (*trainer_)->PoiEmbeddingTable();
    return std::make_unique<ShardedEmbeddingStore>(
        std::move(opts), users.cols(), users.rows(), pois.rows());
  }

  uint64_t GathersServed() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->gathers_served();
    return total;
  }

  std::string RecommendTarget(UserId user, size_t poi_index, size_t k) {
    const auto& pois =
        fixture_->world.dataset.PoisInCity(fixture_->split.target_city);
    const GeoPoint loc =
        fixture_->world.dataset.poi(pois[poi_index % pois.size()]).location;
    return "/recommend?user=" + std::to_string(user) +
           "&lat=" + StrFormat("%.8f", loc.lat) +
           "&lon=" + StrFormat("%.8f", loc.lon) +
           "&k=" + std::to_string(k);
  }

  static ServeFixture* fixture_;
  static std::string* ckpt_dir_;
  static std::shared_ptr<StTransRec>* trainer_;

  std::vector<std::unique_ptr<ShardServer>> shards_;
  std::vector<int> shard_ports_;
};

ServeFixture* StoreServerTest::fixture_ = nullptr;
std::string* StoreServerTest::ckpt_dir_ = nullptr;
std::shared_ptr<StTransRec>* StoreServerTest::trainer_ = nullptr;

// The bit-identity chain, over the wire: a server gathering rows from shard
// processes must answer the exact bytes of a server reading the tables
// directly through the in-process store.
TEST_F(StoreServerTest, ShardedStoreAnswersBytesOfInProcessStore) {
  InProcessEmbeddingStore oracle_store(*trainer_);
  auto sharded_store = MakeShardedStore();
  auto oracle = MakeStack(&oracle_store);
  auto sharded = MakeStack(sharded_store.get());

  TestHttpClient oracle_client(oracle->server->port());
  TestHttpClient sharded_client(sharded->server->port());
  for (UserId user = 0; user < 6; ++user) {
    const std::string target =
        RecommendTarget(user, static_cast<size_t>(user), 10);
    const auto want = oracle_client.Get(target);
    const auto got = sharded_client.Get(target);
    ASSERT_EQ(want.status, 200);
    EXPECT_EQ(got.body, want.body) << target;
    EXPECT_NE(got.body.find("\"degraded\": false"), std::string::npos);
  }
  EXPECT_EQ(sharded->stats->degraded_requests.load(), 0u);
}

// And the chain's other link: a store-backed server must not change the
// *scores* relative to a server with no store at all (whose body differs
// only by the absent "degraded" field).
TEST_F(StoreServerTest, StoreBackedScoresMatchStorelessServer) {
  auto storeless = MakeStack(nullptr);
  InProcessEmbeddingStore store(*trainer_);
  auto stored = MakeStack(&store);

  TestHttpClient storeless_client(storeless->server->port());
  TestHttpClient stored_client(stored->server->port());
  const std::string target = RecommendTarget(3, 1, 10);
  const auto want = storeless_client.Get(target);
  auto got = stored_client.Get(target);
  ASSERT_EQ(want.status, 200);
  ASSERT_EQ(got.status, 200);
  // Splice the store-only field out; everything else must match exactly.
  const std::string marker = ", \"degraded\": false";
  const size_t at = got.body.find(marker);
  ASSERT_NE(at, std::string::npos) << got.body;
  got.body.erase(at, marker.size());
  EXPECT_EQ(got.body, want.body);
}

TEST_F(StoreServerTest, AllShardsDownDegradesExplicitlyAndHealthzReports) {
  ShardedStoreOptions opts;
  // One retry so a stale pooled connection (dead since the shutdown below)
  // costs an attempt, not the request; threshold 2 still trips the breaker
  // deterministically on the first post-shutdown gather — the dead pooled
  // connection and the refused reconnect are two counted failures.
  opts.max_retries = 1;
  opts.trip_threshold = 2;
  opts.backoff_base = std::chrono::milliseconds(1);
  opts.open_duration = std::chrono::milliseconds(100);
  opts.default_deadline = std::chrono::milliseconds(200);
  auto store = MakeShardedStore(opts);
  auto stack = MakeStack(store.get(), /*with_cache=*/true);
  TestHttpClient client(stack->server->port());
  const std::string target = RecommendTarget(2, 0, 5);

  // Healthy first: real scores, cache fills.
  const auto healthy = client.Get(target);
  ASSERT_EQ(healthy.status, 200);
  EXPECT_NE(healthy.body.find("\"degraded\": false"), std::string::npos);
  EXPECT_EQ(client.Get("/healthz").status, 200);

  for (auto& shard : shards_) shard->Shutdown();

  // The cached entry is still valid — served from cache, not degraded.
  const auto cached = client.Get(target);
  ASSERT_EQ(cached.status, 200);
  EXPECT_NE(cached.body.find("\"cached\": true"), std::string::npos);
  EXPECT_NE(cached.body.find("\"degraded\": false"), std::string::npos);

  // A cache-missing request must degrade: explicit flag, popularity
  // ranking, HTTP 200 (the endpoint still serves), counter bumped.
  const std::string cold_target = RecommendTarget(4, 2, 5);
  const auto degraded = client.Get(cold_target);
  ASSERT_EQ(degraded.status, 200);
  EXPECT_NE(degraded.body.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(degraded.body.find("\"results\": ["), std::string::npos);
  EXPECT_GE(stack->stats->degraded_requests.load(), 1u);

  // The breaker has tripped by now, so /healthz flags the degradation.
  const auto health = client.Get("/healthz");
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"status\": \"degraded\""), std::string::npos);
  EXPECT_NE(health.body.find("embedding shards down"), std::string::npos);

  // /statz surfaces the store counters.
  const auto statz = client.Get("/statz");
  EXPECT_NE(statz.body.find("\"degraded_requests\": "), std::string::npos);
  EXPECT_NE(statz.body.find("\"shards_down\": "), std::string::npos);

  // Restart the shards; once the breaker cooldown passes, the same request
  // serves real scores again — and "cached": false proves the degraded
  // response was never written into the cache.
  for (size_t i = 0; i < kNumShards; ++i) {
    shards_[i] = std::make_unique<ShardServer>(
        ShardServerConfig{.port = shard_ports_[i]},
        BuildShardSlice(**trainer_, i, kNumShards));
    ASSERT_TRUE(shards_[i]->Start().ok());
  }
  std::this_thread::sleep_for(opts.open_duration +
                              std::chrono::milliseconds(50));
  const auto recovered = client.Get(cold_target);
  ASSERT_EQ(recovered.status, 200);
  EXPECT_NE(recovered.body.find("\"cached\": false"), std::string::npos)
      << "degraded response leaked into the result cache";
  EXPECT_NE(recovered.body.find("\"degraded\": false"), std::string::npos);
  EXPECT_EQ(client.Get("/healthz").status, 200);

  // The degraded and recovered rankings genuinely differ in provenance:
  // popularity scores are integer check-in counts, model scores are
  // sigmoids in (0, 1) — a degraded body can never be mistaken for a real
  // one.
  EXPECT_NE(degraded.body, recovered.body);
}

// The store holds the rows of the version serving at Start(). A reload
// moves the snapshot past it: requests then score in-process, and /statz
// counts each one instead of leaving the bypass silent.
TEST_F(StoreServerTest, ReloadBypassesTheStoreAndCountsIt) {
  const std::string dir = testing_util::ScratchDir("store_reload");
  const auto latest = FindLatestValidCheckpoint(*Env::Default(), *ckpt_dir_);
  ASSERT_TRUE(latest.ok());
  std::filesystem::copy_file(
      *latest,
      std::filesystem::path(dir) / std::filesystem::path(*latest).filename());
  auto store = MakeShardedStore();
  auto stack = MakeStack(store.get(), /*with_cache=*/false, dir);
  TestHttpClient client(stack->server->port());
  ASSERT_EQ(client.Get(RecommendTarget(1, 0, 5)).status, 200);
  EXPECT_EQ(stack->stats->store_bypassed.load(), 0u);
  const uint64_t gathers = GathersServed();
  EXPECT_GT(gathers, 0u);

  std::filesystem::copy_file(
      *latest, std::filesystem::path(dir) / CheckpointFileName(/*epoch=*/7));
  const StatusOr<bool> swapped = stack->bundle->ReloadIfNewer();
  ASSERT_TRUE(swapped.ok());
  ASSERT_TRUE(*swapped);

  const auto after = client.Get(RecommendTarget(1, 0, 5));
  ASSERT_EQ(after.status, 200);
  EXPECT_NE(after.body.find("\"degraded\": false"), std::string::npos);
  EXPECT_NE(after.body.find("\"model_version\": 2"), std::string::npos);
  EXPECT_EQ(stack->stats->store_bypassed.load(), 1u);
  EXPECT_EQ(GathersServed(), gathers) << "the shards saw a gather";
  EXPECT_NE(client.Get("/statz").body.find("\"store_bypassed\": 1"),
            std::string::npos);
}

}  // namespace
}  // namespace sttr::serve
