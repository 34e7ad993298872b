// Kill-and-resume tests for the crash-safe checkpointing in StTransRec:
// training interrupted at a checkpointed epoch and resumed in a fresh
// process must be indistinguishable — bit-identical loss history and
// scores — from an uninterrupted run, for both the serial and the
// data-parallel trainer. The fault-injection soak at the bottom proves a
// failure at any IO step never leaves a torn checkpoint behind.

#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/st_transrec.h"
#include "data/synth/world_generator.h"
#include "nn/optimizer.h"
#include "util/fault_injection.h"
#include "scratch_dir.h"

namespace sttr {
namespace {

std::string TestDir() {
  return testing_util::TestScratchDir("sttr_resume");
}

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

StTransRecConfig SmallConfig(size_t workers) {
  StTransRecConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_dims = {16};
  cfg.num_epochs = 4;
  cfg.batch_size = 32;
  cfg.mmd_batch = 8;
  cfg.num_train_workers = workers;
  return cfg;
}

/// Scores of `model` for one test user over every target-city POI.
std::vector<double> TargetScores(const StTransRec& model, const Fixture& f) {
  const UserId u = f.split.test_users.front().user;
  const auto& pois = f.world.dataset.PoisInCity(f.split.target_city);
  return model.ScoreBatch(u, {pois.data(), pois.size()});
}

/// The acceptance criterion of the checkpointing subsystem: train
/// uninterrupted for num_epochs; separately train to `kill_at` epochs with
/// checkpointing on, then Resume() a fresh model from the directory. Both
/// loss histories and all scores must be bit-identical.
void ExpectKillAndResumeBitIdentical(size_t workers, size_t kill_at) {
  auto f = MakeFixture();

  auto full_cfg = SmallConfig(workers);
  StTransRec uninterrupted(full_cfg);
  ASSERT_TRUE(uninterrupted.Fit(f.world.dataset, f.split).ok());

  const std::string dir = TestDir();
  auto killed_cfg = SmallConfig(workers);
  killed_cfg.num_epochs = kill_at;  // the "crash" after epoch kill_at
  killed_cfg.checkpoint_dir = dir;
  StTransRec killed(killed_cfg);
  ASSERT_TRUE(killed.Fit(f.world.dataset, f.split).ok());

  auto resumed_cfg = SmallConfig(workers);
  resumed_cfg.checkpoint_dir = dir;
  StTransRec resumed(resumed_cfg);
  ASSERT_TRUE(resumed.Resume(f.world.dataset, f.split).ok());

  ASSERT_EQ(resumed.loss_history().size(),
            uninterrupted.loss_history().size());
  for (size_t e = 0; e < resumed.loss_history().size(); ++e) {
    EXPECT_DOUBLE_EQ(resumed.loss_history()[e],
                     uninterrupted.loss_history()[e])
        << "epoch " << e;
  }
  const auto want = TargetScores(uninterrupted, f);
  const auto got = TargetScores(resumed, f);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(want[i], got[i]) << "poi index " << i;
  }
}

TEST(ResumeTest, SerialKillAndResumeIsBitIdentical) {
  ExpectKillAndResumeBitIdentical(/*workers=*/1, /*kill_at=*/2);
}

TEST(ResumeTest, ParallelKillAndResumeIsBitIdentical) {
  ExpectKillAndResumeBitIdentical(/*workers=*/2, /*kill_at=*/2);
}

TEST(ResumeTest, SerialKillAfterOneEpochResumes) {
  ExpectKillAndResumeBitIdentical(/*workers=*/1, /*kill_at=*/1);
}

// The serving path: a model that was only Prepare()d and Load()ed never
// created its optimizer. Resume() must still restore the checkpoint's Adam
// moments and continue exactly where the killed run stopped.
TEST(ResumeTest, LoadedModelResumesBitIdentically) {
  auto f = MakeFixture();
  StTransRec uninterrupted(SmallConfig(1));
  ASSERT_TRUE(uninterrupted.Fit(f.world.dataset, f.split).ok());

  const std::string dir = TestDir();
  auto killed_cfg = SmallConfig(1);
  killed_cfg.num_epochs = 2;
  killed_cfg.checkpoint_dir = dir;
  StTransRec killed(killed_cfg);
  ASSERT_TRUE(killed.Fit(f.world.dataset, f.split).ok());

  auto resumed_cfg = SmallConfig(1);
  resumed_cfg.checkpoint_dir = dir;
  StTransRec resumed(resumed_cfg);
  ASSERT_TRUE(resumed.Prepare(f.world.dataset, f.split).ok());
  const auto latest = FindLatestValidCheckpoint(*Env::Default(), dir);
  ASSERT_TRUE(latest.ok());
  const auto reader = CheckpointReader::Open(*Env::Default(), *latest);
  ASSERT_TRUE(reader.ok());
  const auto params = reader->Section("model");
  ASSERT_TRUE(params.ok());
  std::istringstream in(*params, std::ios::binary);
  ASSERT_TRUE(resumed.Load(in).ok());
  ASSERT_TRUE(resumed.Resume(f.world.dataset, f.split).ok());

  EXPECT_EQ(resumed.loss_history(), uninterrupted.loss_history());
  const auto want = uninterrupted.Parameters();
  const auto got = resumed.Parameters();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const Tensor& a = want[i].value();
    const Tensor& b = got[i].value();
    ASSERT_TRUE(a.SameShape(b)) << "parameter " << i;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "parameter " << i;
  }
}

// A model that never stepped has no optimizer until it checkpoints; the
// section it writes then is a fresh Adam's, as when Prepare() built one.
TEST(ResumeTest, NeverSteppedModelWritesAFreshOptimizerState) {
  auto f = MakeFixture();
  auto cfg = SmallConfig(1);
  cfg.checkpoint_dir = TestDir();
  StTransRec model(cfg);
  ASSERT_TRUE(model.Prepare(f.world.dataset, f.split).ok());
  ASSERT_TRUE(model.WriteCheckpoint().ok());

  const auto latest =
      FindLatestValidCheckpoint(*Env::Default(), cfg.checkpoint_dir);
  ASSERT_TRUE(latest.ok());
  const auto reader = CheckpointReader::Open(*Env::Default(), *latest);
  ASSERT_TRUE(reader.ok());
  const auto written = reader->Section("optimizer");
  ASSERT_TRUE(written.ok());

  nn::Adam fresh(model.Parameters(), cfg.learning_rate);
  std::ostringstream want(std::ios::binary);
  ASSERT_TRUE(fresh.SaveState(want).ok());
  EXPECT_EQ(*written, want.str());
}

TEST(ResumeTest, EmptyDirectoryIsNotFound) {
  auto f = MakeFixture();
  auto cfg = SmallConfig(1);
  cfg.checkpoint_dir = TestDir();
  StTransRec model(cfg);
  EXPECT_EQ(model.Resume(f.world.dataset, f.split).code(),
            StatusCode::kNotFound);
}

TEST(ResumeTest, NoDirectoryConfiguredIsInvalidArgument) {
  auto f = MakeFixture();
  StTransRec model(SmallConfig(1));
  EXPECT_EQ(model.Resume(f.world.dataset, f.split).code(),
            StatusCode::kInvalidArgument);
}

TEST(ResumeTest, DifferentConfigIsRejected) {
  auto f = MakeFixture();
  const std::string dir = TestDir();
  auto cfg = SmallConfig(1);
  cfg.num_epochs = 1;
  cfg.checkpoint_dir = dir;
  StTransRec writer(cfg);
  ASSERT_TRUE(writer.Fit(f.world.dataset, f.split).ok());

  auto other = SmallConfig(1);
  other.checkpoint_dir = dir;
  other.learning_rate = 5e-3f;  // hyper-parameter drift since the checkpoint
  StTransRec model(other);
  const Status s = model.Resume(f.world.dataset, f.split);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("different config"), std::string::npos);
}

TEST(ResumeTest, ChangedWorkerCountIsRejected) {
  auto f = MakeFixture();
  const std::string dir = TestDir();
  auto cfg = SmallConfig(1);
  cfg.num_epochs = 1;
  cfg.checkpoint_dir = dir;
  StTransRec writer(cfg);
  ASSERT_TRUE(writer.Fit(f.world.dataset, f.split).ok());

  auto parallel = SmallConfig(2);
  parallel.checkpoint_dir = dir;
  StTransRec model(parallel);
  EXPECT_EQ(model.Resume(f.world.dataset, f.split).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ResumeTest, AlreadyCompleteRunResumesToFittedNoop) {
  auto f = MakeFixture();
  const std::string dir = TestDir();
  auto cfg = SmallConfig(1);
  cfg.num_epochs = 2;
  cfg.checkpoint_dir = dir;
  StTransRec writer(cfg);
  ASSERT_TRUE(writer.Fit(f.world.dataset, f.split).ok());

  StTransRec model(cfg);  // same epoch budget: nothing left to train
  ASSERT_TRUE(model.Resume(f.world.dataset, f.split).ok());
  EXPECT_EQ(model.loss_history().size(), 2u);
  const auto want = TargetScores(writer, f);
  const auto got = TargetScores(model, f);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(want[i], got[i]);
  }
}

TEST(ResumeTest, CheckpointCadenceAndFinalEpoch) {
  auto f = MakeFixture();
  const std::string dir = TestDir();
  auto cfg = SmallConfig(1);
  cfg.num_epochs = 5;
  cfg.checkpoint_every_n_epochs = 2;
  cfg.checkpoint_keep_last = 10;
  cfg.checkpoint_dir = dir;
  StTransRec model(cfg);
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  // Epochs 2 and 4 by cadence, 5 because the final epoch always checkpoints.
  EXPECT_EQ(*Env::Default()->ListDir(dir),
            (std::vector<std::string>{CheckpointFileName(2),
                                      CheckpointFileName(4),
                                      CheckpointFileName(5)}));
}

TEST(ResumeTest, RotationKeepsLastK) {
  auto f = MakeFixture();
  const std::string dir = TestDir();
  auto cfg = SmallConfig(1);
  cfg.num_epochs = 4;
  cfg.checkpoint_keep_last = 2;
  cfg.checkpoint_dir = dir;
  StTransRec model(cfg);
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  EXPECT_EQ(*Env::Default()->ListDir(dir),
            (std::vector<std::string>{CheckpointFileName(3),
                                      CheckpointFileName(4)}));
}

using Op = FaultInjectionEnv::Op;

/// Fault-injection soak: fail each write, fsync and rename of the checkpoint
/// write protocol in turn (with torn writes on, so a failed write leaves half
/// the bytes behind). Every failure must surface as a Status, and the
/// directory must still hold a fully valid checkpoint afterwards — the
/// previous one if the new write did not complete.
TEST(CheckpointFaultSoakTest, EveryIoFaultLeavesAValidCheckpoint) {
  auto f = MakeFixture();
  FaultInjectionEnv fenv;
  const std::string dir = TestDir();
  auto cfg = SmallConfig(1);
  cfg.num_epochs = 1;
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_keep_last = 1;
  cfg.env = &fenv;
  StTransRec model(cfg);
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());

  // Dry run to count the IO operations one checkpoint write performs.
  fenv.Reset();
  ASSERT_TRUE(model.WriteCheckpoint().ok());
  const std::vector<std::pair<Op, size_t>> plan = {
      {Op::kWrite, fenv.op_count(Op::kWrite)},
      {Op::kFsync, fenv.op_count(Op::kFsync)},
      {Op::kRename, fenv.op_count(Op::kRename)},
  };

  const auto expect_dir_still_valid = [&](const std::string& context) {
    auto names = fenv.ListDir(dir);
    ASSERT_TRUE(names.ok());
    size_t valid = 0;
    for (const std::string& name : *names) {
      if (IsTempFileName(name)) continue;  // residue, ignored by recovery
      EXPECT_TRUE(CheckpointReader::Open(fenv, dir + "/" + name).ok())
          << context << ": torn checkpoint " << name;
      ++valid;
    }
    EXPECT_GE(valid, 1u) << context;
    EXPECT_TRUE(FindLatestValidCheckpoint(fenv, dir).ok()) << context;
  };

  for (const auto& [op, count] : plan) {
    ASSERT_GT(count, 0u);
    for (size_t n = 0; n < count; ++n) {
      fenv.Reset();
      fenv.set_torn_writes(true);
      fenv.FailNth(op, n);
      const Status s = model.WriteCheckpoint();
      EXPECT_FALSE(s.ok());
      EXPECT_EQ(fenv.faults_triggered(), 1u);
      fenv.Reset();  // verification IO runs fault-free
      expect_dir_still_valid("op " + std::to_string(static_cast<int>(op)) +
                             " #" + std::to_string(n));
    }
  }

  // A failed Remove during rotation reports the error but the freshly
  // written checkpoint stays the valid newest one.
  const std::string stale = dir + "/" + CheckpointFileName(0);
  ASSERT_TRUE(
      fenv.WriteFile(stale, *fenv.ReadFile(*FindLatestValidCheckpoint(
                                fenv, dir)))
          .ok());
  fenv.Reset();
  fenv.FailNth(Op::kRemove, 0);
  EXPECT_FALSE(model.WriteCheckpoint().ok());
  fenv.Reset();
  auto latest = FindLatestValidCheckpoint(fenv, dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(BaseName(*latest), CheckpointFileName(1));

  // After all that abuse, a clean write still succeeds and resume works.
  fenv.Reset();
  ASSERT_TRUE(model.WriteCheckpoint().ok());
  StTransRec resumed(cfg);
  ASSERT_TRUE(resumed.Resume(f.world.dataset, f.split).ok());
  EXPECT_EQ(resumed.loss_history().size(), 1u);
}

}  // namespace
}  // namespace sttr
