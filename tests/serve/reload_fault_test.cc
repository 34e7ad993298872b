// Hot-reload fault tolerance through FaultInjectionEnv: when a newer
// checkpoint exists but its load read fails, the old snapshot must keep
// serving, the failure must be *visible* (model_reload_failures + the error
// string at /statz — a silent failure looks exactly like "no new checkpoint
// yet"), and the next attempt must recover. The watcher soak runs the same
// scenario against a quantized artifact under the background poller while a
// scorer keeps reading the snapshot — the mid-reload tear zero-downtime
// rollouts depend on surviving.

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/quantized_model.h"
#include "serve/model_bundle.h"
#include "serve/stats.h"
#include "serve_test_util.h"
#include "util/fault_injection.h"

namespace sttr::serve {
namespace {

using Op = FaultInjectionEnv::Op;

class ReloadFaultTest : public ::testing::Test {
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

  /// Copies the newest checkpoint to a higher epoch via std::filesystem —
  /// deliberately NOT through the FaultInjectionEnv, so landing artifacts
  /// never perturbs the read counters the tests arm against.
  std::string LandNewerFp32(const std::string& dir, size_t epoch) {
    const auto latest = FindLatestValidCheckpoint(*Env::Default(), dir);
    STTR_CHECK_OK(latest.status());
    const std::string target =
        (std::filesystem::path(dir) / CheckpointFileName(epoch)).string();
    std::filesystem::copy_file(*latest, target);
    return target;
  }

  /// Quantizes `model` and lands the v2 artifact in <dir>/quant under
  /// `epoch` (what tools/sttr_quantize produces), bypassing the fault env.
  void LandQuantArtifact(const StTransRec& model, const std::string& dir,
                         size_t epoch) {
    QuantizationConfig cfg;
    cfg.epoch = static_cast<int64_t>(epoch);
    const auto quant = QuantizedModel::Quantize(model, cfg);
    STTR_CHECK_OK(quant.status());
    const std::string quant_dir = dir + "/quant";
    std::filesystem::create_directories(quant_dir);
    STTR_CHECK_OK(quant->WriteCheckpointFile(
        *Env::Default(), quant_dir + "/" + CheckpointFileName(epoch)));
  }

  std::vector<double> ScoreSome(const PoiScorer& scorer) {
    const auto& pois = dataset().PoisInCity(split().target_city);
    const size_t n = std::min<size_t>(pois.size(), 16);
    const std::vector<UserId> users(n, 0);
    return scorer.ScorePairs(users, {pois.data(), n});
  }

  /// Reads per healthy reload, measured rather than hard-coded: land a
  /// newer artifact, reload, count. The sequence is stable because
  /// FindLatestValidCheckpoint validates newest-first and stops at the
  /// first valid file, so extra older checkpoints never add reads.
  static ServeFixture* fixture_;
};

ServeFixture* ReloadFaultTest::fixture_ = nullptr;

TEST_F(ReloadFaultTest, FailedReloadKeepsOldSnapshotAndIsVisible) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  const size_t epoch = SmallServingModelConfig().num_epochs;

  FaultInjectionEnv fault_env;
  ServeStats stats;
  ModelBundleConfig config;
  config.checkpoint_dir = dir;
  config.model = SmallServingModelConfig();
  config.env = &fault_env;
  config.stats = &stats;
  ModelBundle bundle(dataset(), split(), config);
  ASSERT_TRUE(bundle.LoadInitial().ok());
  ASSERT_EQ(bundle.snapshot()->version, 1u);

  // Calibrate: reads consumed by one healthy reload (validate + load).
  LandNewerFp32(dir, epoch + 1);
  const size_t before = fault_env.op_count(Op::kRead);
  auto reloaded = bundle.ReloadIfNewer();
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(*reloaded);
  const size_t reads_per_reload = fault_env.op_count(Op::kRead) - before;
  ASSERT_GE(reads_per_reload, 2u);

  // Fail exactly the *load* read of the next reload. (Failing the earlier
  // validation read would just make the selector fall back to the current
  // checkpoint — no failure, which is itself correct but not this test.)
  LandNewerFp32(dir, epoch + 2);
  const auto baseline = ScoreSome(*bundle.snapshot()->scorer);
  // FailNth counts from now: the last read of the next reload is the load.
  fault_env.FailNth(Op::kRead, reads_per_reload - 1);
  const auto failed = bundle.ReloadIfNewer();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(fault_env.faults_triggered(), 1u);

  // The old snapshot is untouched and keeps serving identical scores.
  // (Copies carry the original epoch in their payload, so provenance is
  // asserted via the file path, not snapshot->epoch.)
  const auto snapshot = bundle.snapshot();
  EXPECT_EQ(snapshot->version, 2u);
  EXPECT_NE(snapshot->checkpoint_path.find(CheckpointFileName(epoch + 1)),
            std::string::npos);
  EXPECT_EQ(ScoreSome(*snapshot->scorer), baseline);

  // The failure is visible: counter, error string, and /statz JSON.
  EXPECT_EQ(stats.model_reload_failures.load(), 1u);
  EXPECT_NE(stats.LastReloadError(), "");
  EXPECT_NE(stats.ToJson(0).find("\"model_reload_failures\": 1"),
            std::string::npos);

  // Next attempt (the watcher's next poll, here by hand) recovers and
  // clears the error — /statz distinguishes "failing now" from "failed
  // once, fine since".
  const auto recovered = bundle.ReloadIfNewer();
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(*recovered);
  EXPECT_EQ(bundle.snapshot()->version, 3u);
  EXPECT_NE(bundle.snapshot()->checkpoint_path.find(
                CheckpointFileName(epoch + 2)),
            std::string::npos);
  EXPECT_EQ(stats.model_reload_failures.load(), 1u);
  EXPECT_EQ(stats.LastReloadError(), "");
}

// The watcher soak: tear a *quantized* artifact's load mid-watch (kAuto
// precision, the production serving mode) while a reader keeps scoring.
// Arm the fault before StartWatcher and then touch only atomics until
// StopWatcher — FaultInjectionEnv itself is not thread-safe.
TEST_F(ReloadFaultTest, WatcherSurvivesTornQuantReloadAndRecovers) {
  const std::string dir = ServeTestDir();
  const auto trainer = TrainSmallModel(*fixture_, dir);
  const size_t epoch = SmallServingModelConfig().num_epochs;
  LandQuantArtifact(*trainer, dir, epoch);

  FaultInjectionEnv fault_env;
  ServeStats stats;
  ModelBundleConfig config;
  config.checkpoint_dir = dir;
  config.model = SmallServingModelConfig();
  config.precision = PrecisionMode::kAuto;
  config.poll_interval = std::chrono::milliseconds(10);
  config.env = &fault_env;
  config.stats = &stats;
  ModelBundle bundle(dataset(), split(), config);
  ASSERT_TRUE(bundle.LoadInitial().ok());
  ASSERT_EQ(bundle.snapshot()->precision, Precision::kInt8);
  ASSERT_NE(bundle.snapshot()->model, nullptr);
  EXPECT_EQ(bundle.snapshot()->scorer.get(), bundle.snapshot()->model.get());

  // Calibrate the kAuto read sequence (fp32 validate + quant validate +
  // load) with a healthy foreground reload.
  LandQuantArtifact(*trainer, dir, epoch + 1);
  const size_t before = fault_env.op_count(Op::kRead);
  auto reloaded = bundle.ReloadIfNewer();
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(*reloaded);
  const size_t reads_per_reload = fault_env.op_count(Op::kRead) - before;
  const auto baseline = ScoreSome(*bundle.snapshot()->scorer);
  const uint64_t version_before = bundle.snapshot()->version;

  // Land the next artifact, arm the torn load, then hand the env to the
  // watcher thread.
  LandQuantArtifact(*trainer, dir, epoch + 2);
  // FailNth counts from now: the last read of the watcher's first poll is
  // the quant artifact's load.
  fault_env.FailNth(Op::kRead, reads_per_reload - 1);
  bundle.StartWatcher();

  // Wait for the watcher to hit the fault; the snapshot must stay valid
  // and keep serving the calibrated scores the whole time.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stats.model_reload_failures.load() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "watcher never hit the armed fault";
    const auto snapshot = bundle.snapshot();
    ASSERT_NE(snapshot->model, nullptr);
    ASSERT_EQ(snapshot->scorer.get(), snapshot->model.get());
    EXPECT_EQ(ScoreSome(*snapshot->scorer), baseline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // The fault is one-shot, so the next poll recovers on its own.
  while (bundle.reload_count() <= version_before) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "watcher never recovered after the injected fault";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  bundle.StopWatcher();

  // Post-join (happens-before established): exactly one injected fault,
  // failure counted, error cleared by the recovery, newest epoch serving.
  EXPECT_EQ(fault_env.faults_triggered(), 1u);
  EXPECT_GE(stats.model_reload_failures.load(), 1u);
  EXPECT_EQ(stats.LastReloadError(), "");
  const auto snapshot = bundle.snapshot();
  EXPECT_EQ(snapshot->epoch, epoch + 2);
  EXPECT_EQ(snapshot->precision, Precision::kInt8);
  ASSERT_NE(snapshot->model, nullptr);
  EXPECT_EQ(snapshot->scorer.get(), snapshot->model.get());
  EXPECT_EQ(ScoreSome(*snapshot->scorer), baseline);
}

}  // namespace
}  // namespace sttr::serve
