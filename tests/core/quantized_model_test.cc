// Quantized serving artifacts (core/quantized_model.h): the model a server
// loads from one (the artifact dequantized into an StTransRec) scores
// within the documented bound of the fp32 model, the v2 checkpoint round
// trip is bit-identical, and the version accept/reject matrix keeps
// training checkpoints and serving artifacts from crossing paths.

#include "core/quantized_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/st_transrec.h"
#include "data/synth/world_generator.h"
#include "scratch_dir.h"

namespace sttr {
namespace {

struct Fixture {
  synth::SynthWorld world;
  CrossCitySplit split;
};

Fixture MakeFixture() {
  auto cfg = synth::SynthWorldConfig::FoursquareLike(synth::Scale::kTiny);
  Fixture f{synth::GenerateWorld(cfg), {}};
  f.split = MakeCrossCitySplit(f.world.dataset, cfg.target_city);
  return f;
}

StTransRecConfig SmallConfig() {
  StTransRecConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_dims = {16};
  cfg.num_epochs = 2;
  cfg.batch_size = 32;
  cfg.mmd_batch = 8;
  return cfg;
}

std::string TestDir() {
  return testing_util::TestScratchDir("sttr_quant");
}

/// All (test user, target-city POI) pairs, the serving workload.
void TestPairs(const Fixture& f, std::vector<UserId>* users,
               std::vector<PoiId>* pois) {
  const auto& city_pois = f.world.dataset.PoisInCity(f.split.target_city);
  for (const CrossCitySplit::TestUser& tu : f.split.test_users) {
    for (const PoiId p : city_pois) {
      users->push_back(tu.user);
      pois->push_back(p);
    }
  }
}

class QuantizedModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture(MakeFixture());
    model_ = new StTransRec(SmallConfig());
    STTR_CHECK_OK(model_->Fit(fixture_->world.dataset, fixture_->split));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete fixture_;
    model_ = nullptr;
    fixture_ = nullptr;
  }

  /// What a server scores with: `quant` dequantized into a freshly
  /// prepared model.
  static std::unique_ptr<StTransRec> Dequantized(const QuantizedModel& quant) {
    auto model = std::make_unique<StTransRec>(SmallConfig());
    STTR_CHECK_OK(model->Prepare(fixture_->world.dataset, fixture_->split));
    STTR_CHECK_OK(quant.DequantizeInto(*model));
    return model;
  }

  /// `quant` written to a v2 file and read back.
  static QuantizedModel RoundTrip(const QuantizedModel& quant) {
    const std::string path = TestDir() + "/" + CheckpointFileName(2);
    STTR_CHECK_OK(quant.WriteCheckpointFile(*Env::Default(), path));
    auto back = QuantizedModel::LoadFromCheckpoint(*Env::Default(), path);
    STTR_CHECK_OK(back.status());
    return *std::move(back);
  }

  static Fixture* fixture_;
  static StTransRec* model_;
};

Fixture* QuantizedModelTest::fixture_ = nullptr;
StTransRec* QuantizedModelTest::model_ = nullptr;

TEST_F(QuantizedModelTest, ScoresTrackFp32Closely) {
  const auto quant = QuantizedModel::Quantize(*model_);
  ASSERT_TRUE(quant.ok()) << quant.status().ToString();
  // The model loaded back from the artifact is what an int8 server scores.
  const auto served = Dequantized(RoundTrip(*quant));
  std::vector<UserId> users;
  std::vector<PoiId> pois;
  TestPairs(*fixture_, &users, &pois);
  const std::vector<double> ref = model_->ScorePairs(users, pois);
  const std::vector<double> got = served->ScorePairs(users, pois);
  ASSERT_EQ(ref.size(), got.size());
  double max_delta = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    max_delta = std::max(max_delta, std::fabs(ref[i] - got[i]));
  }
  // Post-sigmoid scores; int8 tables and layer 0 with per-row scales stay
  // well inside this on the tiny world.
  EXPECT_LT(max_delta, 0.05);
}

TEST_F(QuantizedModelTest, EmbeddingBytesMatchQuantizedLayout) {
  const auto quant = QuantizedModel::Quantize(*model_);
  ASSERT_TRUE(quant.ok());
  const size_t rows = quant->num_users() + quant->num_pois();
  // int8 data plus a fp32 scale and int32 zero point per row (affine
  // default). At this test's dim=8 the per-row metadata caps the shrink
  // near 2x; the headline >= 3x holds from dim ~24 up (quant_test checks it
  // at 32, micro_quant measures 3.56x at the paper's 64).
  EXPECT_EQ(quant->EmbeddingBytes(),
            rows * quant->embedding_dim() +
                rows * (sizeof(float) + sizeof(int32_t)));
  EXPECT_LT(quant->EmbeddingBytes(),
            rows * quant->embedding_dim() * sizeof(float));
}

TEST_F(QuantizedModelTest, CheckpointRoundTripIsBitIdentical) {
  std::vector<UserId> users;
  std::vector<PoiId> pois;
  TestPairs(*fixture_, &users, &pois);
  for (const bool fp16_tail : {true, false}) {
    QuantizationConfig cfg;
    cfg.fp16_tail = fp16_tail;
    const auto quant = QuantizedModel::Quantize(*model_, cfg);
    ASSERT_TRUE(quant.ok());
    const QuantizedModel back = RoundTrip(*quant);
    EXPECT_EQ(back.epoch(), quant->epoch());
    EXPECT_EQ(back.config_fingerprint(), quant->config_fingerprint());
    EXPECT_EQ(back.fp16_tail(), fp16_tail);

    // Quantize() pre-round-trips the tail through fp16, so the model loaded
    // from the file must score like the in-memory artifact bit for bit —
    // the property that makes --fidelity numbers measured in-process match
    // production.
    EXPECT_EQ(Dequantized(*quant)->ScorePairs(users, pois),
              Dequantized(back)->ScorePairs(users, pois))
        << "fp16_tail=" << fp16_tail;
  }
}

TEST_F(QuantizedModelTest, SymmetricSchemeAlsoRoundTrips) {
  QuantizationConfig cfg;
  cfg.embedding_scheme = QuantScheme::kSymmetric;
  const auto quant = QuantizedModel::Quantize(*model_, cfg);
  ASSERT_TRUE(quant.ok());
  EXPECT_EQ(quant->embedding_scheme(), QuantScheme::kSymmetric);
  const QuantizedModel back = RoundTrip(*quant);
  EXPECT_EQ(back.embedding_scheme(), QuantScheme::kSymmetric);
  std::vector<UserId> users;
  std::vector<PoiId> pois;
  TestPairs(*fixture_, &users, &pois);
  EXPECT_EQ(Dequantized(*quant)->ScorePairs(users, pois),
            Dequantized(back)->ScorePairs(users, pois));
}

TEST_F(QuantizedModelTest, DequantizeRejectsAModelOfAnotherConfig) {
  const auto quant = QuantizedModel::Quantize(*model_);
  ASSERT_TRUE(quant.ok());
  StTransRecConfig wider = SmallConfig();
  wider.embedding_dim = 16;
  StTransRec other(wider);
  ASSERT_TRUE(other.Prepare(fixture_->world.dataset, fixture_->split).ok());
  const Status status = quant->DequantizeInto(other);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  StTransRec unprepared(SmallConfig());
  EXPECT_FALSE(quant->DequantizeInto(unprepared).ok());
}

TEST_F(QuantizedModelTest, EpochDefaultsToLossHistoryAndHonorsOverride) {
  const auto from_fit = QuantizedModel::Quantize(*model_);
  ASSERT_TRUE(from_fit.ok());
  EXPECT_EQ(from_fit->epoch(), model_->loss_history().size());

  QuantizationConfig cfg;
  cfg.epoch = 41;  // what sttr_quantize passes from the source meta section
  const auto overridden = QuantizedModel::Quantize(*model_, cfg);
  ASSERT_TRUE(overridden.ok());
  EXPECT_EQ(overridden->epoch(), 41u);
}

TEST_F(QuantizedModelTest, QuantizeRejectsUnfittedModel) {
  StTransRec unfitted(SmallConfig());
  EXPECT_FALSE(QuantizedModel::Quantize(unfitted).ok());
}

// ---- Version accept/reject matrix ------------------------------------------

class VersionMatrixTest : public QuantizedModelTest {
 protected:
  /// Writes one v1 training checkpoint and one v2 artifact into a fresh dir.
  void WriteBoth(std::string* v1_path, std::string* v2_path) {
    const std::string dir = TestDir();
    StTransRecConfig cfg = SmallConfig();
    cfg.checkpoint_dir = dir;
    StTransRec trainer(cfg);
    STTR_CHECK_OK(trainer.Fit(fixture_->world.dataset, fixture_->split));
    const auto latest = FindLatestValidCheckpoint(*Env::Default(), dir);
    STTR_CHECK_OK(latest.status());
    *v1_path = *latest;

    const auto quant = QuantizedModel::Quantize(trainer);
    STTR_CHECK_OK(quant.status());
    *v2_path = dir + "/quant-" + CheckpointFileName(2);
    STTR_CHECK_OK(quant->WriteCheckpointFile(*Env::Default(), *v2_path));
  }
};

TEST_F(VersionMatrixTest, ReadersAcceptAndRejectByVersion) {
  std::string v1_path, v2_path;
  WriteBoth(&v1_path, &v2_path);

  // Current reader accepts both container versions.
  const auto v1 = CheckpointReader::Open(*Env::Default(), v1_path);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->version(), kCheckpointFormatVersion);
  const auto v2 = CheckpointReader::Open(*Env::Default(), v2_path);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->version(), kQuantCheckpointFormatVersion);

  // An old (v1-only) reader must reject a v2 file cleanly, not misparse it.
  const auto old_reader = CheckpointReader::Open(
      *Env::Default(), v2_path, /*max_supported_version=*/1);
  ASSERT_FALSE(old_reader.ok());
  EXPECT_NE(old_reader.status().ToString().find("unsupported format version"),
            std::string::npos)
      << old_reader.status().ToString();
  // ...while still accepting v1 files.
  EXPECT_TRUE(CheckpointReader::Open(*Env::Default(), v1_path, 1).ok());
}

TEST_F(VersionMatrixTest, TrainingRestoreRejectsServingArtifact) {
  std::string v1_path, v2_path;
  WriteBoth(&v1_path, &v2_path);
  StTransRec model(SmallConfig());
  ASSERT_TRUE(model.Prepare(fixture_->world.dataset, fixture_->split).ok());
  const Status status = model.RestoreFromCheckpoint(v2_path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.ToString().find("not a training checkpoint"),
            std::string::npos)
      << status.ToString();
  // The v1 file restores fine into the same prepared model.
  EXPECT_TRUE(model.RestoreFromCheckpoint(v1_path).ok());
}

TEST_F(VersionMatrixTest, QuantizedLoadRejectsTrainingCheckpoint) {
  std::string v1_path, v2_path;
  WriteBoth(&v1_path, &v2_path);
  EXPECT_FALSE(
      QuantizedModel::LoadFromCheckpoint(*Env::Default(), v1_path).ok());
  EXPECT_TRUE(
      QuantizedModel::LoadFromCheckpoint(*Env::Default(), v2_path).ok());
}

}  // namespace
}  // namespace sttr
