// ModelBundle: initial load of the newest valid checkpoint, config
// fingerprint rejection, hot reload on newer checkpoints (manual and via
// the background watcher), what a poll reads, reload listeners, and the
// in-flight guarantee that a request's captured snapshot survives a swap.
// The watcher test doubles as the TSan target for concurrent scoring
// during hot reload.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/delta.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve_test_util.h"
#include "util/fault_injection.h"

namespace sttr::serve {
namespace {

using Op = FaultInjectionEnv::Op;

class ModelBundleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new ServeFixture(MakeServeFixture());
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }

  const Dataset& dataset() { return fixture_->world.dataset; }
  const CrossCitySplit& split() { return fixture_->split; }

  ModelBundleConfig BundleConfig(const std::string& dir) {
    ModelBundleConfig config;
    config.checkpoint_dir = dir;
    config.model = SmallServingModelConfig();
    return config;
  }

  /// Simulates the trainer landing a newer checkpoint: copies the current
  /// newest file to a higher epoch name (same fingerprint, valid CRCs).
  std::string LandNewerCheckpoint(const std::string& dir, size_t epoch) {
    const auto latest = FindLatestValidCheckpoint(*Env::Default(), dir);
    STTR_CHECK_OK(latest.status());
    const std::string target =
        (std::filesystem::path(dir) / CheckpointFileName(epoch)).string();
    std::filesystem::copy_file(*latest, target);
    return target;
  }

  /// Publishes a one-row delta against `base` (what the streaming trainer
  /// writes), bypassing any fault env.
  void LandDelta(const ModelSnapshot& base, const std::string& delta_dir,
                 uint64_t seq) {
    DeltaCheckpoint delta;
    delta.base_epoch = base.epoch;
    delta.base_model_crc = base.model_crc;
    delta.seq = seq;
    delta.events_applied = seq;
    delta.config_fingerprint = base.model->ConfigFingerprint();
    delta.user.dim = SmallServingModelConfig().embedding_dim;
    delta.user.rows = {0};
    delta.user.values.assign(delta.user.dim, 0.25f);
    std::filesystem::create_directories(delta_dir);
    STTR_CHECK_OK(WriteDeltaCheckpoint(*Env::Default(),
                                       delta_dir + "/" + DeltaFileName(seq),
                                       delta));
  }

  std::vector<double> ScoreSome(const StTransRec& model) {
    const auto& pois = dataset().PoisInCity(split().target_city);
    const size_t n = std::min<size_t>(pois.size(), 16);
    return model.ScoreBatch(0, {pois.data(), n});
  }

  static ServeFixture* fixture_;
};

ServeFixture* ModelBundleTest::fixture_ = nullptr;

TEST_F(ModelBundleTest, LoadInitialServesNewestCheckpointExactly) {
  const std::string dir = ServeTestDir();
  const std::shared_ptr<StTransRec> trainer = TrainSmallModel(*fixture_, dir);

  ModelBundle bundle(dataset(), split(), BundleConfig(dir));
  ASSERT_TRUE(bundle.LoadInitial().ok());
  const auto snapshot = bundle.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch, SmallServingModelConfig().num_epochs);
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(bundle.reload_count(), 1u);

  // The served parameters are the trained parameters, bit for bit.
  EXPECT_EQ(ScoreSome(*snapshot->model), ScoreSome(*trainer));
}

TEST_F(ModelBundleTest, LoadInitialFailsOnEmptyDirectory) {
  const std::string dir = ServeTestDir();
  ModelBundle bundle(dataset(), split(), BundleConfig(dir));
  EXPECT_FALSE(bundle.LoadInitial().ok());
  EXPECT_EQ(bundle.snapshot(), nullptr);
}

TEST_F(ModelBundleTest, RejectsCheckpointFromDifferentConfig) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);

  ModelBundleConfig config = BundleConfig(dir);
  config.model.embedding_dim = 16;  // trained with 8
  ModelBundle bundle(dataset(), split(), config);
  const Status status = bundle.LoadInitial();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("different config"), std::string::npos)
      << status.ToString();
}

// A poll that finds nothing new only lists the directories: the served
// checkpoint and the applied delta are not read again.
TEST_F(ModelBundleTest, ReloadIfNewerIsNoopWhenCurrent) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  FaultInjectionEnv fault_env;
  ModelBundleConfig config = BundleConfig(dir);
  config.env = &fault_env;
  config.delta_dir = dir + "/delta";
  ModelBundle bundle(dataset(), split(), config);
  ASSERT_TRUE(bundle.LoadInitial().ok());

  size_t reads = fault_env.op_count(Op::kRead);
  for (int i = 0; i < 20; ++i) {
    const auto swapped = bundle.ReloadIfNewer();
    ASSERT_TRUE(swapped.ok());
    EXPECT_FALSE(*swapped);
  }
  EXPECT_EQ(bundle.reload_count(), 1u);
  EXPECT_EQ(fault_env.op_count(Op::kRead), reads);

  LandDelta(*bundle.snapshot(), config.delta_dir, /*seq=*/1);
  const auto applied = bundle.ApplyDeltaIfNewer();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_TRUE(*applied);
  reads = fault_env.op_count(Op::kRead);
  for (int i = 0; i < 20; ++i) {
    const auto swapped = bundle.ReloadIfNewer();
    ASSERT_TRUE(swapped.ok());
    EXPECT_FALSE(*swapped);
    const auto patched = bundle.ApplyDeltaIfNewer();
    ASSERT_TRUE(patched.ok());
    EXPECT_FALSE(*patched);
  }
  EXPECT_EQ(bundle.snapshot()->delta_seq, 1u);
  EXPECT_EQ(fault_env.op_count(Op::kRead), reads);
}

// A torn file newer than the served one is opened, fails its check and is
// skipped; the served model stays.
TEST_F(ModelBundleTest, TornNewerCheckpointIsSkipped) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  FaultInjectionEnv fault_env;
  ModelBundleConfig config = BundleConfig(dir);
  config.env = &fault_env;
  ModelBundle bundle(dataset(), split(), config);
  ASSERT_TRUE(bundle.LoadInitial().ok());
  const auto served = bundle.snapshot();
  const std::vector<double> before = ScoreSome(*served->model);

  const std::string torn = LandNewerCheckpoint(dir, /*epoch=*/50);
  std::filesystem::resize_file(torn, std::filesystem::file_size(torn) / 2);
  for (int i = 0; i < 3; ++i) {
    const size_t reads = fault_env.op_count(Op::kRead);
    const auto swapped = bundle.ReloadIfNewer();
    ASSERT_TRUE(swapped.ok());
    EXPECT_FALSE(*swapped);
    EXPECT_EQ(fault_env.op_count(Op::kRead) - reads, 1u)
        << "each poll verifies the newer file, and only it";
  }
  EXPECT_EQ(bundle.snapshot(), served);
  EXPECT_EQ(ScoreSome(*bundle.snapshot()->model), before);
}

// A valid newer checkpoint costs two reads: one to verify it, one to load.
TEST_F(ModelBundleTest, NewerCheckpointIsVerifiedThenLoaded) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  FaultInjectionEnv fault_env;
  ModelBundleConfig config = BundleConfig(dir);
  config.env = &fault_env;
  ModelBundle bundle(dataset(), split(), config);
  ASSERT_TRUE(bundle.LoadInitial().ok());

  const std::string newer = LandNewerCheckpoint(dir, /*epoch=*/50);
  const size_t reads = fault_env.op_count(Op::kRead);
  const auto swapped = bundle.ReloadIfNewer();
  ASSERT_TRUE(swapped.ok());
  EXPECT_TRUE(*swapped);
  EXPECT_EQ(fault_env.op_count(Op::kRead) - reads, 2u);
  EXPECT_EQ(bundle.snapshot()->checkpoint_path, newer);
}

// The served file is not re-read, so damage to it on disk goes unnoticed:
// the loaded model keeps serving instead of the bundle rolling back to an
// older checkpoint. A fresh start still verifies, and falls back.
TEST_F(ModelBundleTest, ServedFileCorruptedOnDiskDoesNotRollBack) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  const std::string newest = LandNewerCheckpoint(dir, /*epoch=*/50);
  ModelBundle bundle(dataset(), split(), BundleConfig(dir));
  ASSERT_TRUE(bundle.LoadInitial().ok());
  const auto served = bundle.snapshot();
  ASSERT_EQ(served->checkpoint_path, newest);

  {
    std::fstream file(newest,
                      std::ios::in | std::ios::out | std::ios::binary);
    const auto middle =
        static_cast<std::streamoff>(std::filesystem::file_size(newest) / 2);
    file.seekg(middle);
    const char byte = static_cast<char>(file.get());
    file.seekp(middle);
    file.put(static_cast<char>(~byte));
  }
  ASSERT_FALSE(CheckpointReader::Open(*Env::Default(), newest).ok());
  const auto swapped = bundle.ReloadIfNewer();
  ASSERT_TRUE(swapped.ok());
  EXPECT_FALSE(*swapped);
  EXPECT_EQ(bundle.snapshot(), served);

  ModelBundle restarted(dataset(), split(), BundleConfig(dir));
  ASSERT_TRUE(restarted.LoadInitial().ok());
  EXPECT_NE(restarted.snapshot()->checkpoint_path, newest);
}

TEST_F(ModelBundleTest, HotReloadSwapsInNewerCheckpointAndNotifies) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  ModelBundle bundle(dataset(), split(), BundleConfig(dir));

  std::vector<std::string> seen_paths;
  bundle.AddReloadListener([&](const ModelSnapshot& snapshot) {
    seen_paths.push_back(snapshot.checkpoint_path);
  });
  ASSERT_TRUE(bundle.LoadInitial().ok());
  ASSERT_EQ(seen_paths.size(), 1u);

  const std::string newer = LandNewerCheckpoint(dir, /*epoch=*/50);
  const auto swapped = bundle.ReloadIfNewer();
  ASSERT_TRUE(swapped.ok());
  EXPECT_TRUE(*swapped);
  EXPECT_EQ(bundle.reload_count(), 2u);
  ASSERT_EQ(seen_paths.size(), 2u);
  EXPECT_EQ(seen_paths.back(), newer);
  EXPECT_EQ(bundle.snapshot()->checkpoint_path, newer);
  EXPECT_EQ(bundle.snapshot()->version, 2u);
}

TEST_F(ModelBundleTest, InFlightSnapshotSurvivesSwap) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  ModelBundle bundle(dataset(), split(), BundleConfig(dir));
  ASSERT_TRUE(bundle.LoadInitial().ok());

  // An "in-flight request": holds the snapshot across a hot reload.
  const std::shared_ptr<const ModelSnapshot> in_flight = bundle.snapshot();
  const std::vector<double> before = ScoreSome(*in_flight->model);

  LandNewerCheckpoint(dir, /*epoch=*/60);
  ASSERT_TRUE(bundle.ReloadIfNewer().ok());
  EXPECT_NE(bundle.snapshot(), in_flight);

  // The old snapshot still scores, bit-identically to before the swap.
  EXPECT_EQ(ScoreSome(*in_flight->model), before);
}

TEST_F(ModelBundleTest, ReloadListenerInvalidatesResultCache) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  ModelBundle bundle(dataset(), split(), BundleConfig(dir));

  ResultCache cache(ResultCacheConfig{});
  bundle.AddReloadListener(
      [&](const ModelSnapshot&) { cache.InvalidateAll(); });
  ASSERT_TRUE(bundle.LoadInitial().ok());

  ResultCacheKey key;
  key.user = 1;
  key.city = split().target_city;
  key.cell = 3;
  key.k = 10;
  cache.Put(key, {{7, 0.9}});
  ASSERT_TRUE(cache.Get(key).has_value());

  LandNewerCheckpoint(dir, /*epoch=*/70);
  ASSERT_TRUE(bundle.ReloadIfNewer().ok());
  EXPECT_FALSE(cache.Get(key).has_value())
      << "stale pre-reload result served after the model changed";
}

// A request in flight across a hot reload, in the server's order: cache
// ticket, snapshot capture, (reload lands), score, Put. What it scored on
// the old model must not be served after the reload; the next request's
// result, scored on the new model, must be.
TEST_F(ModelBundleTest, ResultScoredAcrossAReloadIsNotCachedAsFresh) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  ModelBundle bundle(dataset(), split(), BundleConfig(dir));
  ResultCache cache(ResultCacheConfig{});
  bundle.AddReloadListener(
      [&](const ModelSnapshot&) { cache.InvalidateAll(); });
  ASSERT_TRUE(bundle.LoadInitial().ok());

  ResultCacheKey key;
  key.user = 0;
  key.city = split().target_city;
  key.k = 16;
  const auto ToValue = [](const std::vector<double>& scores) {
    ResultCache::Value value;
    for (size_t i = 0; i < scores.size(); ++i) {
      value.emplace_back(static_cast<PoiId>(i), scores[i]);
    }
    return value;
  };

  const ResultCache::Ticket ticket = cache.TakeTicket();
  const std::shared_ptr<const ModelSnapshot> in_flight = bundle.snapshot();
  LandNewerCheckpoint(dir, /*epoch=*/80);
  ASSERT_TRUE(bundle.ReloadIfNewer().ok());
  ASSERT_NE(bundle.snapshot(), in_flight);
  cache.Put(key, ToValue(ScoreSome(*in_flight->model)), ticket);
  EXPECT_FALSE(cache.Get(key).has_value())
      << "a result scored on the pre-reload model was served as fresh";

  const ResultCache::Ticket next = cache.TakeTicket();
  const std::shared_ptr<const ModelSnapshot> current = bundle.snapshot();
  cache.Put(key, ToValue(ScoreSome(*current->model)), next);
  EXPECT_TRUE(cache.Get(key).has_value());
}

// The hot-reload acceptance test (and the TSan target): scorer threads
// hammer snapshot()->ScoreBatch while the background watcher swaps in newer
// checkpoints. No request may ever observe torn parameters — two reads of
// one captured snapshot must agree bitwise — and no reload may be missed.
TEST_F(ModelBundleTest, WatcherHotReloadsUnderConcurrentScoring) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  ModelBundleConfig config = BundleConfig(dir);
  config.poll_interval = std::chrono::milliseconds(2);
  ModelBundle bundle(dataset(), split(), config);
  ASSERT_TRUE(bundle.LoadInitial().ok());
  bundle.StartWatcher();

  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> scorers;
  for (int t = 0; t < 4; ++t) {
    scorers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const ModelSnapshot> snap = bundle.snapshot();
        const std::vector<double> a = ScoreSome(*snap->model);
        const std::vector<double> b = ScoreSome(*snap->model);
        if (a != b) torn_reads.fetch_add(1);
      }
    });
  }

  // The "trainer" lands three newer checkpoints while traffic flows.
  for (size_t epoch = 80; epoch < 83; ++epoch) {
    LandNewerCheckpoint(dir, epoch);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (bundle.reload_count() < epoch - 78 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(bundle.reload_count(), epoch - 78) << "watcher missed a reload";
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : scorers) t.join();
  bundle.StopWatcher();

  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(bundle.reload_count(), 4u);  // initial + three hot reloads
  EXPECT_EQ(bundle.snapshot()->version, 4u);
}

}  // namespace
}  // namespace sttr::serve
