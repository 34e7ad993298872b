// Tests for the ingest service: Submit-time validation against the
// dataset's id spaces, backpressure, lifecycle, and the background loop
// draining a stream into trained windows and published deltas.

#include "stream/ingest_service.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../serve/serve_test_util.h"
#include "core/checkpoint.h"
#include "core/delta.h"
#include "core/st_transrec.h"

namespace sttr::stream {
namespace {

using serve::MakeServeFixture;
using serve::ServeFixture;
using serve::ServeTestDir;
using serve::SmallServingModelConfig;
using serve::TrainSmallModel;

class IngestServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ServeTestDir();
    fixture_ = MakeServeFixture();
    TrainSmallModel(fixture_, dir_ + "/ckpt");
    StatusOr<std::string> base =
        FindLatestValidCheckpoint(*Env::Default(), dir_ + "/ckpt");
    STTR_CHECK_OK(base.status());

    model_ = std::make_unique<StTransRec>(SmallServingModelConfig());
    STTR_CHECK_OK(model_->Prepare(fixture_.world.dataset, fixture_.split));
    IncrementalTrainerConfig tcfg;
    tcfg.delta_dir = dir_ + "/delta";
    trainer_ = std::make_unique<IncrementalTrainer>(tcfg);
    STTR_CHECK_OK(trainer_->Init(model_.get(), fixture_.world.dataset, *base));
  }

  CheckinEvent ValidEvent(size_t i = 0) const {
    const CheckinRecord& r = fixture_.world.dataset.checkins()[i];
    CheckinEvent e;
    e.user = r.user;
    e.poi = r.poi;
    e.city = r.city;
    e.time = r.time;
    return e;
  }

  std::string dir_;
  ServeFixture fixture_;
  std::unique_ptr<StTransRec> model_;
  std::unique_ptr<IncrementalTrainer> trainer_;
  IngestStats stats_;
};

TEST_F(IngestServiceTest, SubmitValidatesIds) {
  IngestService svc(fixture_.world.dataset, trainer_.get(), &stats_, {});

  EXPECT_TRUE(svc.Submit(ValidEvent()).ok());

  CheckinEvent bad_user = ValidEvent();
  bad_user.user = static_cast<int64_t>(fixture_.world.dataset.num_users());
  EXPECT_EQ(svc.Submit(bad_user).status().code(),
            StatusCode::kInvalidArgument);

  CheckinEvent bad_poi = ValidEvent();
  bad_poi.poi = -2;
  EXPECT_EQ(svc.Submit(bad_poi).status().code(),
            StatusCode::kInvalidArgument);

  // A stated city that contradicts the POI's home city is refused...
  CheckinEvent wrong_city = ValidEvent();
  wrong_city.city = wrong_city.city == 0 ? 1 : 0;
  EXPECT_EQ(svc.Submit(wrong_city).status().code(),
            StatusCode::kInvalidArgument);

  // ...while an unstated city is filled in from the POI.
  CheckinEvent no_city = ValidEvent();
  no_city.city = -1;
  EXPECT_TRUE(svc.Submit(no_city).ok());

  EXPECT_EQ(stats_.checkins_accepted.load(), 2u);
  EXPECT_EQ(stats_.checkins_rejected.load(), 3u);
  EXPECT_EQ(svc.pending(), 2u);
}

TEST_F(IngestServiceTest, FullQueueIsResourceExhausted) {
  IngestServiceConfig cfg;
  cfg.queue_capacity = 2;
  IngestService svc(fixture_.world.dataset, trainer_.get(), &stats_, cfg);
  ASSERT_TRUE(svc.Submit(ValidEvent(0)).ok());
  ASSERT_TRUE(svc.Submit(ValidEvent(1)).ok());
  EXPECT_EQ(svc.Submit(ValidEvent(2)).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(stats_.checkins_rejected.load(), 1u);
}

TEST_F(IngestServiceTest, StopWithoutStartClosesTheLog) {
  IngestService svc(fixture_.world.dataset, trainer_.get(), &stats_, {});
  svc.Stop();
  EXPECT_EQ(svc.Submit(ValidEvent()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(IngestServiceTest, LoopTrainsWindowsAndPublishes) {
  IngestServiceConfig cfg;
  cfg.window = 8;
  cfg.publish_every_windows = 1;
  IngestService svc(fixture_.world.dataset, trainer_.get(), &stats_, cfg);
  svc.Start();
  // 20 events = two full windows + one partial trained at Stop().
  for (size_t i = 0; i < 20; ++i) {
    while (!svc.Submit(ValidEvent(i)).ok()) {
    }
  }
  svc.Stop();

  EXPECT_EQ(trainer_->events_applied(), 20u);
  EXPECT_EQ(stats_.events_trained.load(), 20u);
  EXPECT_EQ(svc.pending(), 0u);
  // At least the final flush published; the delta on disk covers all 20.
  ASSERT_GT(stats_.deltas_published.load(), 0u);
  StatusOr<std::string> path =
      FindLatestValidDelta(*Env::Default(), trainer_->delta_dir());
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  StatusOr<DeltaCheckpoint> delta = ReadDeltaCheckpoint(*Env::Default(), *path);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->events_applied, 20u);
  EXPECT_EQ(delta->seq, trainer_->published_seq());

  // Stop() is idempotent and the service stays rejecting afterwards.
  svc.Stop();
  EXPECT_FALSE(svc.Submit(ValidEvent()).ok());
}

}  // namespace
}  // namespace sttr::stream
