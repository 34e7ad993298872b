// Tests for the incremental (streaming) trainer: deterministic replay,
// frozen dense tower, row-level delta completeness, publish/rotation, and
// ApplyDelta reproducing the trainer's exact parameters — the unit-level
// half of the ingest -> delta -> serving bit-identity invariant.

#include "stream/incremental_trainer.h"

#include <memory>
#include <sstream>
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

/// A Prepare()d (untrained) model over the fixture, ready for trainer Init.
std::unique_ptr<StTransRec> MakeStreamModel(const ServeFixture& f) {
  auto model = std::make_unique<StTransRec>(SmallServingModelConfig());
  STTR_CHECK_OK(model->Prepare(f.world.dataset, f.split));
  return model;
}

/// Loads only the parameter bytes of a full checkpoint into a Prepare()d
/// model — the same thing IncrementalTrainer::Init does with its base.
void LoadBaseParams(StTransRec* model, const std::string& path) {
  StatusOr<CheckpointReader> reader = CheckpointReader::Open(*Env::Default(),
                                                             path);
  STTR_CHECK_OK(reader.status());
  StatusOr<std::string> params = reader->Section("model");
  STTR_CHECK_OK(params.status());
  std::istringstream in(*params);
  STTR_CHECK_OK(model->Load(in));
}

/// First `n` dataset check-ins as stream events, with log-style seqs.
std::vector<CheckinEvent> EventsFromDataset(const ServeFixture& f, size_t n) {
  std::vector<CheckinEvent> events;
  const auto& checkins = f.world.dataset.checkins();
  for (size_t i = 0; i < n && i < checkins.size(); ++i) {
    CheckinEvent e;
    e.user = checkins[i].user;
    e.poi = checkins[i].poi;
    e.city = checkins[i].city;
    e.time = checkins[i].time;
    e.seq = i + 1;
    events.push_back(e);
  }
  return events;
}

void ExpectTablesBitIdentical(const StTransRec& a, const StTransRec& b) {
  const Tensor* ta[3] = {&a.UserEmbeddingTable(), &a.PoiEmbeddingTable(),
                         &a.WordEmbeddingTable()};
  const Tensor* tb[3] = {&b.UserEmbeddingTable(), &b.PoiEmbeddingTable(),
                         &b.WordEmbeddingTable()};
  for (int t = 0; t < 3; ++t) {
    ASSERT_EQ(ta[t]->size(), tb[t]->size());
    for (size_t i = 0; i < ta[t]->size(); ++i) {
      ASSERT_EQ(ta[t]->data()[i], tb[t]->data()[i])
          << "table " << t << " diverges at flat index " << i;
    }
  }
}

class IncrementalTrainerTest : public ::testing::Test {
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

  IncrementalTrainerConfig Config(const std::string& leaf) const {
    IncrementalTrainerConfig cfg;
    cfg.delta_dir = dir_ + "/" + leaf;
    return cfg;
  }

  std::string dir_;
  ServeFixture fixture_;
  std::string base_path_;
};

TEST_F(IncrementalTrainerTest, ReplayIsBitIdentical) {
  const std::vector<CheckinEvent> events = EventsFromDataset(fixture_, 64);
  ASSERT_GE(events.size(), 2u);
  const size_t half = events.size() / 2;
  const std::span<const CheckinEvent> w1(events.data(), half);
  const std::span<const CheckinEvent> w2(events.data() + half,
                                         events.size() - half);

  auto model_a = MakeStreamModel(fixture_);
  IncrementalTrainer a(Config("delta_a"));
  ASSERT_TRUE(a.Init(model_a.get(), fixture_.world.dataset, base_path_).ok());
  ASSERT_TRUE(a.TrainWindow(w1).ok());
  ASSERT_TRUE(a.TrainWindow(w2).ok());

  auto model_b = MakeStreamModel(fixture_);
  IncrementalTrainer b(Config("delta_b"));
  ASSERT_TRUE(b.Init(model_b.get(), fixture_.world.dataset, base_path_).ok());
  ASSERT_TRUE(b.TrainWindow(w1).ok());
  ASSERT_TRUE(b.TrainWindow(w2).ok());

  EXPECT_EQ(a.events_applied(), events.size());
  ExpectTablesBitIdentical(*model_a, *model_b);
  // The cumulative deltas must agree byte-for-byte too.
  EXPECT_EQ(EncodeDeltaCheckpoint(a.BuildDelta()),
            EncodeDeltaCheckpoint(b.BuildDelta()));
}

TEST_F(IncrementalTrainerTest, WindowingDoesNotChangeTheResult) {
  // One window of N events vs. N windows of one event: different optimizer
  // step counts, so the parameters legitimately differ — but the trainer
  // must be deterministic for a FIXED windowing. Guard that two same-shape
  // replays agree while a different windowing is allowed to differ, which
  // documents that "the same event stream" in the invariant means the same
  // window boundaries as well.
  const std::vector<CheckinEvent> events = EventsFromDataset(fixture_, 16);
  auto model_a = MakeStreamModel(fixture_);
  IncrementalTrainer a(Config("delta_a"));
  ASSERT_TRUE(a.Init(model_a.get(), fixture_.world.dataset, base_path_).ok());
  ASSERT_TRUE(a.TrainWindow(events).ok());

  auto model_b = MakeStreamModel(fixture_);
  IncrementalTrainer b(Config("delta_b"));
  ASSERT_TRUE(b.Init(model_b.get(), fixture_.world.dataset, base_path_).ok());
  for (const CheckinEvent& e : events) {
    ASSERT_TRUE(b.TrainWindow(std::span<const CheckinEvent>(&e, 1)).ok());
  }
  EXPECT_EQ(a.events_applied(), b.events_applied());
}

TEST_F(IncrementalTrainerTest, DenseTowerIsFrozen) {
  auto model = MakeStreamModel(fixture_);
  IncrementalTrainer trainer(Config("delta"));
  ASSERT_TRUE(
      trainer.Init(model.get(), fixture_.world.dataset, base_path_).ok());

  // Params 0..2 are the embedding tables; everything after is the dense
  // tower the streaming trainer must never move.
  std::vector<ag::Variable> params = model->Parameters();
  ASSERT_GT(params.size(), 3u);
  std::vector<std::vector<float>> dense_before;
  for (size_t i = 3; i < params.size(); ++i) {
    const Tensor& v = params[i].value();
    dense_before.emplace_back(v.data(), v.data() + v.size());
  }

  ASSERT_TRUE(trainer.TrainWindow(EventsFromDataset(fixture_, 32)).ok());
  ASSERT_GT(trainer.dirty_user_rows() + trainer.dirty_poi_rows(), 0u);

  for (size_t i = 3; i < params.size(); ++i) {
    const Tensor& v = params[i].value();
    const std::vector<float>& before = dense_before[i - 3];
    ASSERT_EQ(before.size(), v.size());
    for (size_t j = 0; j < v.size(); ++j) {
      ASSERT_EQ(before[j], v.data()[j])
          << "dense param " << i << " moved at flat index " << j;
    }
  }
  // And the delta never carries a dense refresh.
  EXPECT_TRUE(trainer.BuildDelta().dense_params.empty());
}

TEST_F(IncrementalTrainerTest, DeltaCoversExactlyTheChangedRows) {
  auto base_model = MakeStreamModel(fixture_);
  LoadBaseParams(base_model.get(), base_path_);

  auto model = MakeStreamModel(fixture_);
  IncrementalTrainer trainer(Config("delta"));
  ASSERT_TRUE(
      trainer.Init(model.get(), fixture_.world.dataset, base_path_).ok());
  ASSERT_TRUE(trainer.TrainWindow(EventsFromDataset(fixture_, 32)).ok());

  const DeltaCheckpoint delta = trainer.BuildDelta();
  struct TableCase {
    const Tensor* before;
    const Tensor* after;
    const EmbeddingRowDelta* rows;
  };
  const TableCase cases[3] = {
      {&base_model->UserEmbeddingTable(), &model->UserEmbeddingTable(),
       &delta.user},
      {&base_model->PoiEmbeddingTable(), &model->PoiEmbeddingTable(),
       &delta.poi},
      {&base_model->WordEmbeddingTable(), &model->WordEmbeddingTable(),
       &delta.word}};
  for (const TableCase& c : cases) {
    const size_t dim = c.after->cols();
    ASSERT_EQ(c.rows->dim, dim);
    std::vector<bool> in_delta(c.after->rows(), false);
    for (int64_t r : c.rows->rows) in_delta[static_cast<size_t>(r)] = true;
    for (size_t r = 0; r < c.after->rows(); ++r) {
      bool changed = false;
      for (size_t j = 0; j < dim; ++j) {
        if (c.before->data()[r * dim + j] != c.after->data()[r * dim + j]) {
          changed = true;
          break;
        }
      }
      // Every bitwise-changed row is in the delta (rows the optimizer
      // touched without net movement may also be listed — that is harmless).
      if (changed) {
        EXPECT_TRUE(in_delta[r]) << "changed row " << r << " missing";
      }
    }
    // Delta payloads carry the post-training row contents.
    for (size_t i = 0; i < c.rows->num_rows(); ++i) {
      const size_t r = static_cast<size_t>(c.rows->rows[i]);
      for (size_t j = 0; j < dim; ++j) {
        ASSERT_EQ(c.rows->row_values(i)[j], c.after->data()[r * dim + j]);
      }
    }
  }
}

TEST_F(IncrementalTrainerTest, ApplyDeltaReproducesTrainerState) {
  auto model = MakeStreamModel(fixture_);
  IncrementalTrainer trainer(Config("delta"));
  ASSERT_TRUE(
      trainer.Init(model.get(), fixture_.world.dataset, base_path_).ok());
  ASSERT_TRUE(trainer.TrainWindow(EventsFromDataset(fixture_, 48)).ok());
  ASSERT_TRUE(trainer.PublishDelta().ok());
  EXPECT_EQ(trainer.published_seq(), 1u);

  StatusOr<std::string> path =
      FindLatestValidDelta(*Env::Default(), trainer.delta_dir());
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  StatusOr<DeltaCheckpoint> delta = ReadDeltaCheckpoint(*Env::Default(), *path);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();

  // A fresh base copy patched with the published delta matches the trainer
  // bit-for-bit: the delta IS the trainer's state relative to the base.
  auto patched = MakeStreamModel(fixture_);
  LoadBaseParams(patched.get(), base_path_);
  ASSERT_TRUE(patched->ApplyDelta(*delta).ok());
  ExpectTablesBitIdentical(*model, *patched);

  // Applying the same cumulative delta again is a no-op (idempotent), which
  // is what makes the serving side's double-buffer rotation safe.
  ASSERT_TRUE(patched->ApplyDelta(*delta).ok());
  ExpectTablesBitIdentical(*model, *patched);
}

TEST_F(IncrementalTrainerTest, PublishRotatesAndBumpsSeq) {
  auto model = MakeStreamModel(fixture_);
  IncrementalTrainerConfig cfg = Config("delta");
  cfg.delta_keep_last = 1;
  IncrementalTrainer trainer(cfg);
  ASSERT_TRUE(
      trainer.Init(model.get(), fixture_.world.dataset, base_path_).ok());

  // Publishing before any training is a no-op: no file appears.
  ASSERT_TRUE(trainer.PublishDelta().ok());
  EXPECT_EQ(trainer.published_seq(), 0u);
  EXPECT_FALSE(FindLatestValidDelta(*Env::Default(), cfg.delta_dir).ok());

  const std::vector<CheckinEvent> events = EventsFromDataset(fixture_, 32);
  ASSERT_TRUE(trainer.TrainWindow({events.data(), 16}).ok());
  ASSERT_TRUE(trainer.PublishDelta().ok());
  ASSERT_TRUE(trainer.TrainWindow({events.data() + 16, 16}).ok());
  ASSERT_TRUE(trainer.PublishDelta().ok());
  EXPECT_EQ(trainer.published_seq(), 2u);

  // keep_last=1: only the newest delta remains, and it carries the
  // provenance of the base it patches.
  StatusOr<std::vector<std::string>> names =
      Env::Default()->ListDir(cfg.delta_dir);
  ASSERT_TRUE(names.ok());
  size_t delta_files = 0;
  for (const std::string& n : *names) delta_files += ParseDeltaSeq(n).ok();
  EXPECT_EQ(delta_files, 1u);

  StatusOr<std::string> path = FindLatestValidDelta(*Env::Default(),
                                                    cfg.delta_dir);
  ASSERT_TRUE(path.ok());
  StatusOr<DeltaCheckpoint> delta = ReadDeltaCheckpoint(*Env::Default(), *path);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->seq, 2u);
  EXPECT_EQ(delta->events_applied, 32u);
  EXPECT_EQ(delta->config_fingerprint, model->ConfigFingerprint());

  // base_epoch / base_model_crc must name the exact base checkpoint.
  StatusOr<CheckpointReader> base =
      CheckpointReader::Open(*Env::Default(), base_path_);
  ASSERT_TRUE(base.ok());
  for (const CheckpointSection& s : base->sections()) {
    if (s.name == "model") {
      EXPECT_EQ(delta->base_model_crc, s.crc);
    }
  }
}

TEST_F(IncrementalTrainerTest, InitRejectsMismatchedBase) {
  // A base trained under a different config fingerprint must be refused.
  StTransRecConfig other = SmallServingModelConfig();
  other.embedding_dim = 16;
  other.checkpoint_dir = dir_ + "/other_ckpt";
  StTransRec other_model(other);
  STTR_CHECK_OK(other_model.Fit(fixture_.world.dataset, fixture_.split));
  StatusOr<std::string> other_base =
      FindLatestValidCheckpoint(*Env::Default(), other.checkpoint_dir);
  ASSERT_TRUE(other_base.ok());

  auto model = MakeStreamModel(fixture_);
  IncrementalTrainer trainer(Config("delta"));
  EXPECT_FALSE(
      trainer.Init(model.get(), fixture_.world.dataset, *other_base).ok());
}

}  // namespace
}  // namespace sttr::stream
