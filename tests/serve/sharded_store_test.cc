// ShardedEmbeddingStore vs the in-process oracle, under health and under
// injected failure: gathers over real loopback sockets must return bytes
// identical to direct table access, deadlines must bound every call even
// against a stalled shard, transient faults (dead connection, torn frame)
// must be retried invisibly, the per-shard circuit breaker must trip after
// consecutive failures and heal through its half-open probe, and — the
// ShardChaosTest soak — killing and restarting shards under concurrent load
// must never produce a single byte of silently wrong data.

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/embedding_store.h"
#include "serve/shard_server.h"
#include "serve/sharded_store.h"
#include "serve_test_util.h"
#include "util/rng.h"
#include "util/socket_fault.h"

namespace sttr::serve {
namespace {

using Clock = std::chrono::steady_clock;
using Op = FaultInjectionSocket::Op;
using Mode = FaultInjectionSocket::Mode;

constexpr size_t kNumShards = 3;

class ShardedStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new ServeFixture(MakeServeFixture());
    model_ = new std::shared_ptr<StTransRec>(TrainSmallModel(*fixture_));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete fixture_;
    model_ = nullptr;
    fixture_ = nullptr;
  }

  void SetUp() override {
    for (size_t i = 0; i < kNumShards; ++i) {
      ShardServerConfig cfg;
      cfg.fault = &server_fault_;
      servers_.push_back(std::make_unique<ShardServer>(
          cfg, BuildShardSlice(**model_, i, kNumShards)));
      ASSERT_TRUE(servers_.back()->Start().ok());
      ports_.push_back(servers_.back()->port());
    }
    oracle_ = std::make_unique<InProcessEmbeddingStore>(*model_);
  }

  void TearDown() override {
    server_fault_.Reset();
    client_fault_.Reset();
    store_.reset();
    for (auto& server : servers_) server->Shutdown();
  }

  /// Store under test; tweak `opts` before first use via MakeStore.
  ShardedEmbeddingStore& MakeStore(ShardedStoreOptions opts) {
    opts.shard_ports = ports_;
    opts.fault = &client_fault_;
    opts.stats = &stats_;
    const Tensor& users = (*model_)->UserEmbeddingTable();
    const Tensor& pois = (*model_)->PoiEmbeddingTable();
    store_ = std::make_unique<ShardedEmbeddingStore>(
        std::move(opts), users.cols(), users.rows(), pois.rows());
    return *store_;
  }

  /// Replaces shard `i` with a fresh server on the same port ("restart the
  /// process").
  void RestartShard(size_t i) {
    servers_[i]->Shutdown();
    ShardServerConfig cfg;
    cfg.port = ports_[i];
    cfg.fault = &server_fault_;
    servers_[i] = std::make_unique<ShardServer>(
        cfg, BuildShardSlice(**model_, i, kNumShards));
    ASSERT_TRUE(servers_[i]->Start().ok());
  }

  static Clock::time_point After(std::chrono::milliseconds budget) {
    return Clock::now() + budget;
  }

  /// Gathers `ids` through `store` and asserts the bytes equal the oracle's.
  void ExpectBitIdentical(EmbeddingStore& store, EmbeddingTable table,
                          const std::vector<int64_t>& ids,
                          std::chrono::milliseconds budget =
                              std::chrono::milliseconds(2000)) {
    std::vector<float> got(ids.size() * store.dim());
    std::vector<float> want(ids.size() * store.dim());
    ASSERT_TRUE(
        store.Gather(table, ids, got.data(), After(budget)).ok());
    ASSERT_TRUE(oracle_
                    ->Gather(table, ids, want.data(),
                             After(std::chrono::milliseconds(2000)))
                    .ok());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
  }

  static ServeFixture* fixture_;
  static std::shared_ptr<StTransRec>* model_;

  std::vector<std::unique_ptr<ShardServer>> servers_;
  std::vector<int> ports_;
  std::unique_ptr<InProcessEmbeddingStore> oracle_;
  std::unique_ptr<ShardedEmbeddingStore> store_;
  FaultInjectionSocket server_fault_;
  FaultInjectionSocket client_fault_;
  ShardedStoreStats stats_;
};

ServeFixture* ShardedStoreTest::fixture_ = nullptr;
std::shared_ptr<StTransRec>* ShardedStoreTest::model_ = nullptr;

TEST_F(ShardedStoreTest, GatherIsBitIdenticalToOracle) {
  ShardedEmbeddingStore& store = MakeStore({});
  EXPECT_EQ(store.num_shards(), kNumShards);
  EXPECT_EQ(store.shards_down(), 0u);
  // Ids spanning every shard, out of order, with repeats.
  const std::vector<int64_t> poi_ids = {7, 0, 1, 2, 12, 7, 5,
                                        static_cast<int64_t>(
                                            store.num_rows(
                                                EmbeddingTable::kPoi)) -
                                            1};
  ExpectBitIdentical(store, EmbeddingTable::kPoi, poi_ids);
  ExpectBitIdentical(store, EmbeddingTable::kUser, {0, 4, 2});
  EXPECT_EQ(stats_.shard_errors.load(), 0u);
}

TEST_F(ShardedStoreTest, OutOfRangeIdsRejectedWithoutARoundTrip) {
  ShardedEmbeddingStore& store = MakeStore({});
  std::vector<float> out(store.dim());
  const std::vector<int64_t> bad = {
      static_cast<int64_t>(store.num_rows(EmbeddingTable::kUser))};
  const Status status = store.Gather(EmbeddingTable::kUser, bad, out.data(),
                                     After(std::chrono::milliseconds(500)));
  EXPECT_FALSE(status.ok());
  // Validated router-side: no shard saw a gather, no error was recorded.
  EXPECT_EQ(stats_.shard_errors.load(), 0u);
}

// A shard that accepts the connection but never answers must cost exactly
// the request's budget, never the stall duration — the "stalled shard never
// holds a request past its deadline" acceptance criterion.
TEST_F(ShardedStoreTest, StalledShardFailsAtTheDeadline) {
  server_fault_.set_stall(std::chrono::milliseconds(400));
  server_fault_.FailAlways(Op::kRecv, Mode::kStall);  // shard reads nothing
  ShardedEmbeddingStore& store = MakeStore({});
  std::vector<float> out(store.dim());
  const std::vector<int64_t> ids = {1};
  const auto start = Clock::now();
  const Status status =
      store.Gather(EmbeddingTable::kPoi, ids, out.data(),
                   After(std::chrono::milliseconds(100)));
  const auto elapsed = Clock::now() - start;
  EXPECT_FALSE(status.ok());
  EXPECT_GE(elapsed, std::chrono::milliseconds(95));
  EXPECT_LT(elapsed, std::chrono::milliseconds(350))
      << "caller was held hostage by the stalled shard";
  server_fault_.Clear(Op::kRecv);
}

TEST_F(ShardedStoreTest, TransientSendFailureIsRetriedInvisibly) {
  client_fault_.FailNth(Op::kSend, 0, Mode::kFail);
  ShardedEmbeddingStore& store = MakeStore({});
  ExpectBitIdentical(store, EmbeddingTable::kPoi, {0, 1, 2, 3, 4, 5});
  EXPECT_GE(stats_.shard_retries.load(), 1u);
  EXPECT_GE(stats_.shard_errors.load(), 1u);
  EXPECT_EQ(store.shards_down(), 0u);  // one failure never trips a breaker
}

// A shard killed mid-response leaves a torn frame on the wire; the parser
// flags the tear, the router retries on a fresh connection.
TEST_F(ShardedStoreTest, TornResponseFrameIsRetried) {
  server_fault_.FailNth(Op::kSend, 0, Mode::kShort);
  ShardedEmbeddingStore& store = MakeStore({});
  ExpectBitIdentical(store, EmbeddingTable::kPoi, {0, 1, 2, 3, 4, 5});
  EXPECT_GE(stats_.shard_retries.load(), 1u);
  EXPECT_GE(server_fault_.faults_triggered(), 1u);
}

TEST_F(ShardedStoreTest, CircuitTripsThenHealsThroughHalfOpenProbe) {
  ShardedStoreOptions opts;
  opts.max_retries = 0;  // one failure record per Gather: deterministic trip
  opts.trip_threshold = 2;
  opts.open_duration = std::chrono::milliseconds(150);
  ShardedEmbeddingStore& store = MakeStore(opts);

  // Ids 0 and 3 both live on shard 0 (3 % kNumShards == 0).
  const std::vector<int64_t> shard0_ids = {0, 3};
  std::vector<float> out(shard0_ids.size() * store.dim());
  servers_[0]->Shutdown();

  for (size_t i = 0; i < opts.trip_threshold; ++i) {
    EXPECT_FALSE(store
                     .Gather(EmbeddingTable::kPoi, shard0_ids, out.data(),
                             After(std::chrono::milliseconds(300)))
                     .ok());
  }
  EXPECT_EQ(store.shards_down(), 1u);

  // While open, the shard fails fast — no connect attempt, so the gather
  // returns near-instantly even with a generous deadline.
  const auto start = Clock::now();
  EXPECT_FALSE(store
                   .Gather(EmbeddingTable::kPoi, shard0_ids, out.data(),
                           After(std::chrono::milliseconds(2000)))
                   .ok());
  EXPECT_LT(Clock::now() - start, std::chrono::milliseconds(100));

  // Other shards are unaffected throughout (ids 1, 4 → shard 1; 2 → shard 2).
  ExpectBitIdentical(store, EmbeddingTable::kPoi, {1, 4, 2});

  // Restart the shard; once the cooldown lapses, the half-open probe admits
  // one gather, and its success closes the breaker for everyone.
  RestartShard(0);
  std::this_thread::sleep_for(opts.open_duration +
                              std::chrono::milliseconds(50));
  ExpectBitIdentical(store, EmbeddingTable::kPoi, shard0_ids);
  EXPECT_EQ(store.shards_down(), 0u);
}

// The headline soak: concurrent gather load while shards are killed and
// restarted underneath it. Every Gather must either fail with a Status or
// return bytes identical to the oracle — a single mismatched byte fails the
// test. Afterwards the store must heal completely.
TEST_F(ShardedStoreTest, ShardChaosKillRestartUnderLoad) {
  ShardedStoreOptions opts;
  opts.trip_threshold = 3;
  opts.open_duration = std::chrono::milliseconds(60);
  opts.max_retries = 1;
  opts.backoff_base = std::chrono::milliseconds(1);
  opts.backoff_max = std::chrono::milliseconds(4);
  ShardedEmbeddingStore& store = MakeStore(opts);

  const size_t num_pois = store.num_rows(EmbeddingTable::kPoi);
  const size_t dim = store.dim();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_gathers{0};
  std::atomic<uint64_t> failed_gathers{0};
  std::atomic<uint64_t> mismatched_bytes{0};

  constexpr size_t kThreads = 4;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(0x51ab5 + t);
      std::vector<int64_t> ids(8);
      std::vector<float> got(ids.size() * dim);
      std::vector<float> want(ids.size() * dim);
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& id : ids) {
          id = static_cast<int64_t>(rng.UniformInt(uint64_t{num_pois}));
        }
        const Status status =
            store.Gather(EmbeddingTable::kPoi, ids, got.data(),
                         After(std::chrono::milliseconds(150)));
        if (!status.ok()) {
          failed_gathers.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ok_gathers.fetch_add(1, std::memory_order_relaxed);
        ASSERT_TRUE(oracle_
                        ->Gather(EmbeddingTable::kPoi, ids, want.data(),
                                 After(std::chrono::seconds(2)))
                        .ok());
        if (std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(float)) != 0) {
          mismatched_bytes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Kill and restart each shard in turn while the load runs.
  for (size_t round = 0; round < 2; ++round) {
    for (size_t i = 0; i < kNumShards; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      servers_[i]->Shutdown();
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      RestartShard(i);
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (auto& c : clients) c.join();

  EXPECT_EQ(mismatched_bytes.load(), 0u)
      << "a gather returned silently wrong bytes";
  EXPECT_GT(ok_gathers.load(), 0u);
  // Shards died under load: some gathers must have seen it (otherwise the
  // soak exercised nothing).
  EXPECT_GT(failed_gathers.load() + stats_.shard_retries.load(), 0u);

  // After the dust settles the store heals: wait out the breaker cooldown,
  // then a full-coverage gather must succeed bit-identically.
  std::vector<int64_t> all_shards_ids;
  for (int64_t id = 0; id < static_cast<int64_t>(kNumShards); ++id) {
    all_shards_ids.push_back(id);
  }
  const auto heal_deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    std::vector<float> buf(all_shards_ids.size() * dim);
    if (store
            .Gather(EmbeddingTable::kPoi, all_shards_ids, buf.data(),
                    After(std::chrono::milliseconds(500)))
            .ok()) {
      break;
    }
    ASSERT_LT(Clock::now(), heal_deadline) << "store never recovered";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ExpectBitIdentical(store, EmbeddingTable::kPoi, all_shards_ids);
  EXPECT_EQ(store.shards_down(), 0u);
}

}  // namespace
}  // namespace sttr::serve
