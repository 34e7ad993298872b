// Precision selection and fp32 <-> int8 hot swapping in ModelBundle: kAuto
// serves whichever artifact is newest by epoch (quantized preferred on
// ties), explicit modes refuse the wrong container version, an int8
// snapshot is the artifact dequantized into an StTransRec (one scorer per
// snapshot, whatever the format), the result cache keys on precision so a
// swap can't serve stale fp32 top-K as int8, and — the TSan target —
// scorer threads hammer the snapshot while the watcher swaps precision
// underneath them.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/quantized_model.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "tensor/quant.h"
#include "serve_test_util.h"
#include "util/fault_injection.h"

namespace sttr::serve {
namespace {

class PrecisionReloadTest : public ::testing::Test {
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

  ModelBundleConfig BundleConfig(const std::string& dir, PrecisionMode mode) {
    ModelBundleConfig config;
    config.checkpoint_dir = dir;
    config.model = SmallServingModelConfig();
    config.precision = mode;
    return config;
  }

  /// Quantizes `model` and lands the v2 artifact in <dir>/quant under
  /// `epoch` — what tools/sttr_quantize produces.
  std::string LandQuantArtifact(const StTransRec& model,
                                const std::string& dir, size_t epoch) {
    QuantizationConfig cfg;
    cfg.epoch = static_cast<int64_t>(epoch);
    const auto quant = QuantizedModel::Quantize(model, cfg);
    STTR_CHECK_OK(quant.status());
    const std::string quant_dir = dir + "/quant";
    std::filesystem::create_directories(quant_dir);
    const std::string path = quant_dir + "/" + CheckpointFileName(epoch);
    STTR_CHECK_OK(quant->WriteCheckpointFile(*Env::Default(), path));
    return path;
  }

  std::string LandNewerFp32(const std::string& dir, size_t epoch) {
    const auto latest = FindLatestValidCheckpoint(*Env::Default(), dir);
    STTR_CHECK_OK(latest.status());
    const std::string target =
        (std::filesystem::path(dir) / CheckpointFileName(epoch)).string();
    std::filesystem::copy_file(*latest, target);
    return target;
  }

  /// `quant` dequantized into a freshly prepared model: what an int8
  /// snapshot of it must score like.
  std::unique_ptr<StTransRec> Dequantized(const QuantizedModel& quant) {
    auto model = std::make_unique<StTransRec>(SmallServingModelConfig());
    STTR_CHECK_OK(model->Prepare(dataset(), split()));
    STTR_CHECK_OK(quant.DequantizeInto(*model));
    return model;
  }

  /// Every published snapshot, whatever its format, scores with its model.
  static bool SingleScorer(const ModelSnapshot& snapshot) {
    return snapshot.model != nullptr &&
           snapshot.scorer.get() == snapshot.model.get();
  }

  std::vector<double> ScoreSome(const PoiScorer& scorer) {
    const auto& pois = dataset().PoisInCity(split().target_city);
    const size_t n = std::min<size_t>(pois.size(), 16);
    const std::vector<UserId> users(n, 0);
    return scorer.ScorePairs(users, {pois.data(), n});
  }

  static ServeFixture* fixture_;
};

ServeFixture* PrecisionReloadTest::fixture_ = nullptr;

TEST_F(PrecisionReloadTest, AutoPrefersQuantizedArtifactOnEpochTie) {
  const std::string dir = ServeTestDir();
  const auto trainer = TrainSmallModel(*fixture_, dir);
  const size_t epoch = SmallServingModelConfig().num_epochs;
  LandQuantArtifact(*trainer, dir, epoch);

  ModelBundle bundle(dataset(), split(),
                     BundleConfig(dir, PrecisionMode::kAuto));
  ASSERT_TRUE(bundle.LoadInitial().ok());
  const auto snapshot = bundle.snapshot();
  EXPECT_EQ(snapshot->precision, Precision::kInt8);
  EXPECT_EQ(snapshot->epoch, epoch);
  ASSERT_TRUE(SingleScorer(*snapshot));
  // Dequantized, the parameters are resident at fp32 size.
  size_t fp32_bytes = 0;
  for (const auto& p : trainer->Parameters()) {
    fp32_bytes += p.value().size() * sizeof(float);
  }
  EXPECT_EQ(snapshot->resident_bytes, fp32_bytes);

  // The served int8 snapshot is bit-identical to quantizing in process.
  const auto quant = QuantizedModel::Quantize(*trainer);
  ASSERT_TRUE(quant.ok());
  EXPECT_EQ(ScoreSome(*snapshot->scorer), ScoreSome(*Dequantized(*quant)));
}

TEST_F(PrecisionReloadTest, Int8SnapshotHoldsDequantizedArtifact) {
  const std::string dir = ServeTestDir();
  const auto trainer = TrainSmallModel(*fixture_, dir);
  LandQuantArtifact(*trainer, dir, 7);
  ModelBundle bundle(dataset(), split(),
                     BundleConfig(dir, PrecisionMode::kInt8));
  ASSERT_TRUE(bundle.LoadInitial().ok());
  const auto snapshot = bundle.snapshot();
  ASSERT_TRUE(SingleScorer(*snapshot));

  // Quantization is deterministic, so requantizing the trained tables gives
  // the artifact's codes: each served row is their dequantization, bit for
  // bit.
  const auto expect_rows = [](const Tensor& trained, const Tensor& served) {
    const RowQuantizedMatrix q = QuantizeRows(trained, QuantScheme::kAffine);
    ASSERT_EQ(served.shape(), trained.shape());
    std::vector<float> row(q.cols);
    for (size_t r = 0; r < q.rows; ++r) {
      q.DequantizeRowInto(r, row.data());
      for (size_t c = 0; c < q.cols; ++c) {
        ASSERT_EQ(served.row(r)[c], row[c]) << "row " << r << " col " << c;
      }
    }
  };
  expect_rows(trainer->UserEmbeddingTable(),
              snapshot->model->UserEmbeddingTable());
  expect_rows(trainer->PoiEmbeddingTable(),
              snapshot->model->PoiEmbeddingTable());

  // Layer 0: W0[c][j] = scale_j * q[j][c] over the transposed weight.
  const Tensor& w0 = trainer->Parameters()[3].value();
  Tensor w0t({w0.cols(), w0.rows()});
  for (size_t c = 0; c < w0.rows(); ++c) {
    for (size_t j = 0; j < w0.cols(); ++j) w0t.row(j)[c] = w0.row(c)[j];
  }
  const RowQuantizedMatrix q = QuantizeRows(w0t, QuantScheme::kSymmetric);
  const Tensor& served_w0 = snapshot->model->Parameters()[3].value();
  ASSERT_EQ(served_w0.shape(), w0.shape());
  for (size_t c = 0; c < w0.rows(); ++c) {
    for (size_t j = 0; j < w0.cols(); ++j) {
      ASSERT_EQ(served_w0.row(c)[j],
                q.scale(j) * static_cast<float>(q.row(j)[c]))
          << "c " << c << " j " << j;
    }
  }
}

TEST_F(PrecisionReloadTest, AutoServesFp32WhenNoQuantArtifactExists) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  ModelBundle bundle(dataset(), split(),
                     BundleConfig(dir, PrecisionMode::kAuto));
  ASSERT_TRUE(bundle.LoadInitial().ok());
  EXPECT_EQ(bundle.snapshot()->precision, Precision::kFp32);
  EXPECT_TRUE(SingleScorer(*bundle.snapshot()));
}

TEST_F(PrecisionReloadTest, Int8ModeRefusesTrainingCheckpoints) {
  const std::string dir = ServeTestDir();
  TrainSmallModel(*fixture_, dir);
  // Point the int8 mode's quant dir at the fp32 (v1) files: must be refused
  // up front, never half-served.
  ModelBundleConfig config = BundleConfig(dir, PrecisionMode::kInt8);
  config.quant_checkpoint_dir = dir;
  ModelBundle bundle(dataset(), split(), config);
  const Status status = bundle.LoadInitial();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
}

TEST_F(PrecisionReloadTest, Fp32ModeRefusesQuantizedArtifacts) {
  const std::string dir = ServeTestDir();
  const auto trainer = TrainSmallModel(*fixture_, dir);
  const std::string quant_path = LandQuantArtifact(*trainer, dir, 99);
  // Point the fp32 mode's checkpoint dir at the quant (v2) files.
  ModelBundleConfig config = BundleConfig(dir + "/quant", PrecisionMode::kFp32);
  ModelBundle bundle(dataset(), split(), config);
  const Status status = bundle.LoadInitial();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
}

TEST_F(PrecisionReloadTest, Int8ModeServesQuantDir) {
  const std::string dir = ServeTestDir();
  const auto trainer = TrainSmallModel(*fixture_, dir);
  LandQuantArtifact(*trainer, dir, 7);
  ModelBundle bundle(dataset(), split(),
                     BundleConfig(dir, PrecisionMode::kInt8));
  ASSERT_TRUE(bundle.LoadInitial().ok());
  EXPECT_EQ(bundle.snapshot()->precision, Precision::kInt8);
  EXPECT_EQ(bundle.snapshot()->epoch, 7u);
  EXPECT_TRUE(SingleScorer(*bundle.snapshot()));
}

TEST_F(PrecisionReloadTest, NewerEpochWinsAcrossPrecisions) {
  const std::string dir = ServeTestDir();
  const auto trainer = TrainSmallModel(*fixture_, dir);
  const size_t epoch = SmallServingModelConfig().num_epochs;

  ModelBundle bundle(dataset(), split(),
                     BundleConfig(dir, PrecisionMode::kAuto));
  ASSERT_TRUE(bundle.LoadInitial().ok());
  ASSERT_EQ(bundle.snapshot()->precision, Precision::kFp32);

  // Quant artifact at the same epoch: swap to int8.
  LandQuantArtifact(*trainer, dir, epoch);
  auto swapped = bundle.ReloadIfNewer();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_TRUE(*swapped);
  EXPECT_EQ(bundle.snapshot()->precision, Precision::kInt8);
  EXPECT_TRUE(SingleScorer(*bundle.snapshot()));

  // A newer fp32 checkpoint (the trainer moved on): swap back. (The copied
  // file's meta still says `epoch`, so only the precision is asserted —
  // selection goes by filename epoch, snapshot->epoch by the meta section.)
  LandNewerFp32(dir, epoch + 5);
  swapped = bundle.ReloadIfNewer();
  ASSERT_TRUE(swapped.ok());
  EXPECT_TRUE(*swapped);
  EXPECT_EQ(bundle.snapshot()->precision, Precision::kFp32);
  EXPECT_TRUE(SingleScorer(*bundle.snapshot()));

  // An even newer quant artifact: int8 again.
  LandQuantArtifact(*trainer, dir, epoch + 9);
  swapped = bundle.ReloadIfNewer();
  ASSERT_TRUE(swapped.ok());
  EXPECT_TRUE(*swapped);
  EXPECT_EQ(bundle.snapshot()->precision, Precision::kInt8);
  EXPECT_EQ(bundle.snapshot()->epoch, epoch + 9);
  EXPECT_TRUE(SingleScorer(*bundle.snapshot()));
}

// Under kAuto a poll with nothing new opens no file, whichever precision
// is served: files in the other directory count only when they would win
// (newer, or as new for a quantized artifact).
TEST_F(PrecisionReloadTest, AutoPollOpensNoFileWhileCurrent) {
  const std::string dir = ServeTestDir();
  const auto trainer = TrainSmallModel(*fixture_, dir);
  const size_t epoch = SmallServingModelConfig().num_epochs;
  LandQuantArtifact(*trainer, dir, epoch);

  FaultInjectionEnv fault_env;
  ModelBundleConfig config = BundleConfig(dir, PrecisionMode::kAuto);
  config.env = &fault_env;
  ModelBundle bundle(dataset(), split(), config);
  ASSERT_TRUE(bundle.LoadInitial().ok());
  const auto expect_polls_read_nothing = [&] {
    const size_t reads = fault_env.op_count(FaultInjectionEnv::Op::kRead);
    for (int i = 0; i < 5; ++i) {
      const auto swapped = bundle.ReloadIfNewer();
      ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
      EXPECT_FALSE(*swapped);
    }
    EXPECT_EQ(fault_env.op_count(FaultInjectionEnv::Op::kRead), reads);
  };
  ASSERT_EQ(bundle.snapshot()->precision, Precision::kInt8);
  expect_polls_read_nothing();

  LandNewerFp32(dir, epoch + 1);
  const auto swapped = bundle.ReloadIfNewer();
  ASSERT_TRUE(swapped.ok());
  ASSERT_TRUE(*swapped);
  ASSERT_EQ(bundle.snapshot()->precision, Precision::kFp32);
  expect_polls_read_nothing();
}

TEST_F(PrecisionReloadTest, ResultCacheKeysDistinguishPrecision) {
  ResultCache cache(ResultCacheConfig{});
  ResultCacheKey fp32_key;
  fp32_key.user = 1;
  fp32_key.city = 0;
  fp32_key.cell = 3;
  fp32_key.k = 10;
  fp32_key.precision = static_cast<uint8_t>(Precision::kFp32);
  ResultCacheKey int8_key = fp32_key;
  int8_key.precision = static_cast<uint8_t>(Precision::kInt8);

  cache.Put(fp32_key, {{7, 0.9}});
  EXPECT_TRUE(cache.Get(fp32_key).has_value());
  // A precision flip must miss: int8 scores are not the fp32 top-K.
  EXPECT_FALSE(cache.Get(int8_key).has_value());
  cache.Put(int8_key, {{8, 0.8}});
  ASSERT_TRUE(cache.Get(int8_key).has_value());
  EXPECT_EQ(cache.Get(int8_key)->front().first, 8);
  EXPECT_EQ(cache.Get(fp32_key)->front().first, 7);
}

// The precision hot-swap acceptance test (and the TSan target): scorer
// threads hammer snapshot()->scorer while the watcher swaps fp32 -> int8 ->
// fp32 underneath them. Captured snapshots must keep scoring their own
// parameters bit-stably through both swaps.
TEST_F(PrecisionReloadTest, WatcherSwapsPrecisionUnderConcurrentScoring) {
  const std::string dir = ServeTestDir();
  const auto trainer = TrainSmallModel(*fixture_, dir);
  const size_t epoch = SmallServingModelConfig().num_epochs;

  ModelBundleConfig config = BundleConfig(dir, PrecisionMode::kAuto);
  config.poll_interval = std::chrono::milliseconds(2);
  ModelBundle bundle(dataset(), split(), config);
  ASSERT_TRUE(bundle.LoadInitial().ok());
  bundle.StartWatcher();

  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};
  std::atomic<int> split_scorers{0};
  std::vector<std::thread> scorers;
  for (int t = 0; t < 4; ++t) {
    scorers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const ModelSnapshot> snap = bundle.snapshot();
        if (!SingleScorer(*snap)) split_scorers.fetch_add(1);
        const std::vector<double> a = ScoreSome(*snap->scorer);
        const std::vector<double> b = ScoreSome(*snap->scorer);
        if (a != b) torn_reads.fetch_add(1);
      }
    });
  }

  const auto wait_for_reload = [&](uint64_t count) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (bundle.reload_count() < count &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return bundle.reload_count() >= count;
  };

  // fp32 -> int8 (quant artifact ties the epoch) -> fp32 (newer training
  // checkpoint) while traffic flows.
  LandQuantArtifact(*trainer, dir, epoch);
  ASSERT_TRUE(wait_for_reload(2)) << "watcher missed the int8 swap";
  EXPECT_EQ(bundle.snapshot()->precision, Precision::kInt8);

  LandNewerFp32(dir, epoch + 10);
  ASSERT_TRUE(wait_for_reload(3)) << "watcher missed the fp32 swap-back";
  EXPECT_EQ(bundle.snapshot()->precision, Precision::kFp32);

  stop.store(true, std::memory_order_release);
  for (auto& t : scorers) t.join();
  bundle.StopWatcher();

  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(split_scorers.load(), 0);
  EXPECT_EQ(bundle.reload_count(), 3u);
}

}  // namespace
}  // namespace sttr::serve
