// Chaos tests for delta publishing: a FaultInjectionEnv on the trainer's
// delta writer fails (and tears) writes, fsyncs and renames at every step of
// the atomic-publish protocol, and the serving-side consumer must never
// observe a torn or half-renamed delta — it either sees the previous good
// delta or nothing, and a retry after the fault publishes cleanly. The
// trainer is driven synchronously (FaultInjectionEnv is not thread-safe).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../serve/serve_test_util.h"
#include "core/checkpoint.h"
#include "core/delta.h"
#include "core/st_transrec.h"
#include "serve/model_bundle.h"
#include "stream/incremental_trainer.h"
#include "util/fault_injection.h"

namespace sttr::stream {
namespace {

using serve::MakeServeFixture;
using serve::ModelBundle;
using serve::ModelBundleConfig;
using serve::ServeFixture;
using serve::ServeTestDir;
using serve::SmallServingModelConfig;
using serve::TrainSmallModel;

class StreamChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ServeTestDir();
    fixture_ = MakeServeFixture();
    TrainSmallModel(fixture_, dir_ + "/ckpt");
    StatusOr<std::string> base =
        FindLatestValidCheckpoint(*Env::Default(), dir_ + "/ckpt");
    STTR_CHECK_OK(base.status());
    base_path_ = *base;
  }

  std::unique_ptr<StTransRec> MakeStreamModel() {
    auto model = std::make_unique<StTransRec>(SmallServingModelConfig());
    STTR_CHECK_OK(model->Prepare(fixture_.world.dataset, fixture_.split));
    return model;
  }

  std::vector<CheckinEvent> Events(size_t offset, size_t n) const {
    std::vector<CheckinEvent> events;
    const auto& checkins = fixture_.world.dataset.checkins();
    for (size_t i = offset; i < offset + n && i < checkins.size(); ++i) {
      CheckinEvent e;
      e.user = checkins[i].user;
      e.poi = checkins[i].poi;
      e.city = checkins[i].city;
      e.time = checkins[i].time;
      events.push_back(e);
    }
    return events;
  }

  std::string dir_;
  ServeFixture fixture_;
  std::string base_path_;
};

TEST_F(StreamChaosTest, FaultAtEveryStepNeverExposesATornDelta) {
  using Op = FaultInjectionEnv::Op;
  const struct {
    Op op;
    bool torn;
  } cases[] = {
      {Op::kWrite, false}, {Op::kWrite, true},  // clean + torn write fault
      {Op::kFsync, false},
      {Op::kRename, false},
  };
  for (const auto& c : cases) {
    for (size_t nth = 0; nth < 2; ++nth) {
      SCOPED_TRACE("op=" + std::to_string(static_cast<int>(c.op)) +
                   " torn=" + std::to_string(c.torn) +
                   " nth=" + std::to_string(nth));
      const std::string delta_dir =
          dir_ + "/deltas_" + std::to_string(static_cast<int>(c.op)) + "_" +
          std::to_string(c.torn) + "_" + std::to_string(nth);
      FaultInjectionEnv env;
      auto model = MakeStreamModel();
      IncrementalTrainerConfig tcfg;
      tcfg.delta_dir = delta_dir;
      tcfg.env = &env;
      IncrementalTrainer trainer(tcfg);
      ASSERT_TRUE(
          trainer.Init(model.get(), fixture_.world.dataset, base_path_).ok());

      // A first delta publishes cleanly: this is the "previous good state"
      // the faulty publish must not damage.
      ASSERT_TRUE(trainer.TrainWindow(Events(0, 8)).ok());
      ASSERT_TRUE(trainer.PublishDelta().ok());
      ASSERT_EQ(trainer.published_seq(), 1u);
      const StatusOr<DeltaCheckpoint> good = ReadDeltaCheckpoint(
          env, delta_dir + "/" + DeltaFileName(1));
      ASSERT_TRUE(good.ok());

      // Publish again under an injected fault.
      ASSERT_TRUE(trainer.TrainWindow(Events(8, 8)).ok());
      env.set_torn_writes(c.torn);
      env.FailNth(c.op, nth);
      const Status faulty = trainer.PublishDelta();
      env.set_torn_writes(false);
      if (faulty.ok()) {
        // The nth op of this kind never happened during publish — nothing
        // to verify beyond the delta being valid, which the checks below
        // do anyway.
        EXPECT_EQ(env.faults_triggered(), 0u);
      } else {
        EXPECT_EQ(env.faults_triggered(), 1u);
      }

      // Invariant: whatever happened, the newest delta the serving side
      // finds parses completely and targets the right base. A torn temp
      // file or half-renamed delta must never surface.
      StatusOr<std::string> latest = FindLatestValidDelta(env, delta_dir);
      ASSERT_TRUE(latest.ok()) << latest.status().ToString();
      StatusOr<DeltaCheckpoint> seen = ReadDeltaCheckpoint(env, *latest);
      ASSERT_TRUE(seen.ok()) << seen.status().ToString();
      EXPECT_EQ(seen->base_model_crc, good->base_model_crc);
      EXPECT_GE(seen->seq, 1u);

      // Retry after the fault clears: the publish completes and the newest
      // delta carries all 16 events (cumulative).
      env.Reset();
      if (!faulty.ok()) {
        ASSERT_TRUE(trainer.PublishDelta().ok());
      }
      latest = FindLatestValidDelta(env, delta_dir);
      ASSERT_TRUE(latest.ok());
      seen = ReadDeltaCheckpoint(env, *latest);
      ASSERT_TRUE(seen.ok());
      EXPECT_EQ(seen->events_applied, 16u);

      // And the serving bundle applies it end to end.
      ModelBundleConfig bcfg;
      bcfg.checkpoint_dir = dir_ + "/ckpt";
      bcfg.model = SmallServingModelConfig();
      bcfg.delta_dir = delta_dir;
      ModelBundle bundle(fixture_.world.dataset, fixture_.split, bcfg);
      STTR_CHECK_OK(bundle.LoadInitial());
      StatusOr<bool> applied = bundle.ApplyDeltaIfNewer();
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      EXPECT_TRUE(*applied);
      EXPECT_EQ(bundle.snapshot()->delta_seq, seen->seq);
    }
  }
}

TEST_F(StreamChaosTest, PublishFailureLeavesTrainerConsistent) {
  // After a failed publish the trainer's in-memory state is untouched: the
  // same cumulative delta is re-published on the next attempt, and its
  // bytes match what a fault-free publish would have produced.
  FaultInjectionEnv env;
  auto model = MakeStreamModel();
  IncrementalTrainerConfig tcfg;
  tcfg.delta_dir = dir_ + "/deltas";
  tcfg.env = &env;
  IncrementalTrainer trainer(tcfg);
  ASSERT_TRUE(
      trainer.Init(model.get(), fixture_.world.dataset, base_path_).ok());
  ASSERT_TRUE(trainer.TrainWindow(Events(0, 8)).ok());

  const DeltaCheckpoint before = trainer.BuildDelta();
  env.FailNth(FaultInjectionEnv::Op::kWrite, 0);
  EXPECT_FALSE(trainer.PublishDelta().ok());
  EXPECT_EQ(trainer.published_seq(), 0u);

  env.Reset();
  ASSERT_TRUE(trainer.PublishDelta().ok());
  EXPECT_EQ(trainer.published_seq(), 1u);
  StatusOr<DeltaCheckpoint> published = ReadDeltaCheckpoint(
      env, tcfg.delta_dir + "/" + DeltaFileName(1));
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(EncodeDeltaCheckpoint(*published).size(),
            EncodeDeltaCheckpoint(before).size());
  EXPECT_EQ(published->events_applied, before.events_applied);
}

}  // namespace
}  // namespace sttr::stream
