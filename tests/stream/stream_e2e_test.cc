// The end-to-end streaming invariant: ingest -> delta publish -> serving
// snapshot patch must be bit-identical to an offline retrain (a fresh
// trainer replaying the same event stream over the same base checkpoint),
// and the patch must actually shift recommendations. Also covers the
// serving-side guards: stale deltas are not re-applied, foreign-base deltas
// are refused, and row-level cache invalidation drops exactly the patched
// rows' entries.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../serve/serve_test_util.h"
#include "core/checkpoint.h"
#include "core/delta.h"
#include "core/st_transrec.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "stream/incremental_trainer.h"
#include "stream/ingest_service.h"

namespace sttr::stream {
namespace {

using serve::InvalidateForDelta;
using serve::MakeServeFixture;
using serve::ModelBundle;
using serve::ModelBundleConfig;
using serve::ModelSnapshot;
using serve::ResultCache;
using serve::ResultCacheConfig;
using serve::ServeFixture;
using serve::ServeTestDir;
using serve::SmallServingModelConfig;
using serve::TrainSmallModel;

class StreamE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ServeTestDir();
    fixture_ = MakeServeFixture();
    TrainSmallModel(fixture_, dir_ + "/ckpt");
  }

  std::unique_ptr<ModelBundle> MakeBundle(const std::string& delta_dir) {
    ModelBundleConfig cfg;
    cfg.checkpoint_dir = dir_ + "/ckpt";
    cfg.model = SmallServingModelConfig();
    cfg.delta_dir = delta_dir;
    auto bundle = std::make_unique<ModelBundle>(fixture_.world.dataset,
                                                fixture_.split, cfg);
    STTR_CHECK_OK(bundle->LoadInitial());
    return bundle;
  }

  std::unique_ptr<StTransRec> MakeStreamModel() {
    auto model = std::make_unique<StTransRec>(SmallServingModelConfig());
    STTR_CHECK_OK(model->Prepare(fixture_.world.dataset, fixture_.split));
    return model;
  }

  std::vector<CheckinEvent> Events(size_t n) const {
    std::vector<CheckinEvent> events;
    const auto& checkins = fixture_.world.dataset.checkins();
    for (size_t i = 0; i < n && i < checkins.size(); ++i) {
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
};

TEST_F(StreamE2ETest, IngestDeltaServeMatchesOfflineRetrainBitForBit) {
  constexpr size_t kWindow = 8;
  constexpr size_t kEvents = 44;  // 5 full windows + a partial flushed at Stop

  // --- Online path: HTTP-shaped ingest through the service loop. ---
  auto bundle = MakeBundle(dir_ + "/deltas");
  const std::string base_path = bundle->snapshot()->checkpoint_path;

  auto online_model = MakeStreamModel();
  IncrementalTrainerConfig tcfg;
  tcfg.delta_dir = dir_ + "/deltas";
  IncrementalTrainer trainer(tcfg);
  ASSERT_TRUE(
      trainer.Init(online_model.get(), fixture_.world.dataset, base_path)
          .ok());
  IngestServiceConfig icfg;
  icfg.window = kWindow;
  IngestService svc(fixture_.world.dataset, &trainer, nullptr, icfg);
  svc.Start();
  const std::vector<CheckinEvent> events = Events(kEvents);
  ASSERT_EQ(events.size(), kEvents);
  for (const CheckinEvent& e : events) {
    while (!svc.Submit(e).ok()) {
    }
  }
  svc.Stop();
  ASSERT_EQ(trainer.events_applied(), kEvents);
  ASSERT_GT(trainer.published_seq(), 0u);

  // --- The serving side consumes the published delta. ---
  StatusOr<bool> applied = bundle->ApplyDeltaIfNewer();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_TRUE(*applied);
  std::shared_ptr<const ModelSnapshot> snapshot = bundle->snapshot();
  ASSERT_NE(snapshot->model, nullptr);
  EXPECT_EQ(snapshot->delta_seq, trainer.published_seq());
  // The base identity is unchanged — a delta patch is not a reload.
  EXPECT_EQ(snapshot->checkpoint_path, base_path);

  // --- Offline retrain: fresh trainer, same base, same stream, the same
  // deterministic windowing the service used. ---
  auto offline_model = MakeStreamModel();
  IncrementalTrainerConfig ocfg;
  ocfg.delta_dir = dir_ + "/deltas_offline";
  IncrementalTrainer offline(ocfg);
  ASSERT_TRUE(
      offline.Init(offline_model.get(), fixture_.world.dataset, base_path)
          .ok());
  for (size_t i = 0; i < events.size(); i += kWindow) {
    const size_t n = std::min(kWindow, events.size() - i);
    ASSERT_TRUE(
        offline.TrainWindow(std::span<const CheckinEvent>(events.data() + i,
                                                          n))
            .ok());
  }

  // --- The invariant: bit-identical embedding tables. ---
  const StTransRec& served = *snapshot->model;
  const Tensor* got[3] = {&served.UserEmbeddingTable(),
                          &served.PoiEmbeddingTable(),
                          &served.WordEmbeddingTable()};
  const Tensor* want[3] = {&offline_model->UserEmbeddingTable(),
                           &offline_model->PoiEmbeddingTable(),
                           &offline_model->WordEmbeddingTable()};
  for (int t = 0; t < 3; ++t) {
    ASSERT_EQ(got[t]->size(), want[t]->size());
    for (size_t i = 0; i < got[t]->size(); ++i) {
      ASSERT_EQ(got[t]->data()[i], want[t]->data()[i])
          << "table " << t << " diverges from the offline retrain at flat "
          << "index " << i;
    }
  }

  // --- And the patch shifted recommendations for a streamed user. ---
  auto base_model = MakeStreamModel();
  {
    StatusOr<CheckpointReader> reader =
        CheckpointReader::Open(*Env::Default(), base_path);
    ASSERT_TRUE(reader.ok());
    StatusOr<std::string> params = reader->Section("model");
    ASSERT_TRUE(params.ok());
    std::istringstream in(*params);
    ASSERT_TRUE(base_model->Load(in).ok());
  }
  const UserId user = events[0].user;
  const std::vector<PoiId>& candidates =
      fixture_.world.dataset.PoisInCity(events[0].city);
  const std::vector<double> before =
      base_model->ScoreBatch(user, candidates);
  const std::vector<double> after = served.ScoreBatch(user, candidates);
  EXPECT_NE(before, after);
}

TEST_F(StreamE2ETest, SuccessiveDeltasServeExactlyAFreshlyPatchedModel) {
  // The double-buffered instances alternate: each one is served (which
  // builds its precomputed layer 0), then patched again two deltas later
  // (which recomputes only the patched rows of it). Its scores must stay
  // those of a model that loads the base and applies the newest delta.
  auto bundle = MakeBundle(dir_ + "/deltas");
  const std::string base_path = bundle->snapshot()->checkpoint_path;
  auto stream_model = MakeStreamModel();
  IncrementalTrainerConfig tcfg;
  tcfg.delta_dir = dir_ + "/deltas";
  IncrementalTrainer trainer(tcfg);
  ASSERT_TRUE(
      trainer.Init(stream_model.get(), fixture_.world.dataset, base_path)
          .ok());

  std::string base_params;
  {
    StatusOr<CheckpointReader> reader =
        CheckpointReader::Open(*Env::Default(), base_path);
    ASSERT_TRUE(reader.ok());
    StatusOr<std::string> params = reader->Section("model");
    ASSERT_TRUE(params.ok());
    base_params = *params;
  }
  std::vector<UserId> users;
  std::vector<PoiId> pois;
  const std::vector<PoiId>& city =
      fixture_.world.dataset.PoisInCity(fixture_.split.target_city);
  for (const CrossCitySplit::TestUser& tu : fixture_.split.test_users) {
    for (PoiId p : city) {
      users.push_back(tu.user);
      pois.push_back(p);
    }
  }

  constexpr size_t kWindow = 8;
  const std::vector<CheckinEvent> events = Events(4 * kWindow);
  for (size_t round = 0; round < 4; ++round) {
    ASSERT_TRUE(trainer
                    .TrainWindow(std::span<const CheckinEvent>(
                        events.data() + round * kWindow, kWindow))
                    .ok());
    ASSERT_TRUE(trainer.PublishDelta().ok());
    StatusOr<bool> applied = bundle->ApplyDeltaIfNewer();
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ASSERT_TRUE(*applied) << "round " << round;
    const std::vector<double> served =
        bundle->snapshot()->scorer->ScorePairs(users, pois);

    auto fresh = MakeStreamModel();
    std::istringstream in(base_params);
    ASSERT_TRUE(fresh->Load(in).ok());
    ASSERT_TRUE(fresh->ApplyDelta(trainer.BuildDelta()).ok());
    ASSERT_EQ(served, fresh->ScorePairs(users, pois)) << "round " << round;
  }
}

TEST_F(StreamE2ETest, StaleAndForeignDeltasAreRefused) {
  auto bundle = MakeBundle(dir_ + "/deltas");
  const std::string base_path = bundle->snapshot()->checkpoint_path;

  auto model = MakeStreamModel();
  IncrementalTrainerConfig tcfg;
  tcfg.delta_dir = dir_ + "/deltas";
  IncrementalTrainer trainer(tcfg);
  ASSERT_TRUE(
      trainer.Init(model.get(), fixture_.world.dataset, base_path).ok());
  ASSERT_TRUE(trainer.TrainWindow(Events(16)).ok());
  ASSERT_TRUE(trainer.PublishDelta().ok());

  StatusOr<bool> first = bundle->ApplyDeltaIfNewer();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  // Same delta again: recognized as already applied, no new swap.
  StatusOr<bool> again = bundle->ApplyDeltaIfNewer();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);

  // A delta claiming a different base must never be patched in.
  StatusOr<std::string> path =
      FindLatestValidDelta(*Env::Default(), tcfg.delta_dir);
  ASSERT_TRUE(path.ok());
  StatusOr<DeltaCheckpoint> forged =
      ReadDeltaCheckpoint(*Env::Default(), *path);
  ASSERT_TRUE(forged.ok());
  forged->base_model_crc ^= 0xff;
  forged->seq += 1;
  ASSERT_TRUE(WriteDeltaCheckpoint(*Env::Default(),
                                   tcfg.delta_dir + "/" +
                                       DeltaFileName(forged->seq),
                                   *forged)
                  .ok());
  const uint64_t seq_before = bundle->snapshot()->delta_seq;
  StatusOr<bool> foreign = bundle->ApplyDeltaIfNewer();
  ASSERT_TRUE(foreign.ok()) << foreign.status().ToString();
  EXPECT_FALSE(*foreign);
  EXPECT_EQ(bundle->snapshot()->delta_seq, seq_before);
}

TEST_F(StreamE2ETest, DeltaListenerInvalidatesExactlyThePatchedRows) {
  auto bundle = MakeBundle(dir_ + "/deltas");
  ResultCache cache(ResultCacheConfig{});
  ResultCache* cache_ptr = &cache;
  const Dataset& dataset = fixture_.world.dataset;
  bundle->AddDeltaListener(
      [cache_ptr, &dataset](const ModelSnapshot&, const DeltaCheckpoint& d) {
        InvalidateForDelta(dataset, d, *cache_ptr);
      });

  auto model = MakeStreamModel();
  IncrementalTrainerConfig tcfg;
  tcfg.delta_dir = dir_ + "/deltas";
  IncrementalTrainer trainer(tcfg);
  ASSERT_TRUE(trainer
                  .Init(model.get(), fixture_.world.dataset,
                        bundle->snapshot()->checkpoint_path)
                  .ok());
  const std::vector<CheckinEvent> events = Events(12);
  ASSERT_TRUE(trainer.TrainWindow(events).ok());
  ASSERT_TRUE(trainer.PublishDelta().ok());
  const DeltaCheckpoint delta = trainer.BuildDelta();
  ASSERT_GT(delta.user.num_rows(), 0u);

  // Seed the cache: one entry for a streamed (patched) user in an
  // untouched city, one for an untouched user in an untouched city.
  const UserId touched_user = static_cast<UserId>(delta.user.rows[0]);
  UserId untouched_user = -1;
  for (UserId u = 0; u < static_cast<UserId>(dataset.num_users()); ++u) {
    bool in_delta = false;
    for (int64_t r : delta.user.rows) in_delta |= r == u;
    if (!in_delta) {
      untouched_user = u;
      break;
    }
  }
  ASSERT_GE(untouched_user, 0);
  // A city none of the patched POIs live in (city ids are small in the
  // tiny fixture; pick one outside the delta's poi-city set or fall back
  // to a synthetic id — city matching only, no dataset lookup involved).
  CityId untouched_city = static_cast<CityId>(dataset.cities().size()) + 7;

  serve::ResultCacheKey touched_key;
  touched_key.user = touched_user;
  touched_key.city = untouched_city;
  touched_key.k = 5;
  serve::ResultCacheKey untouched_key;
  untouched_key.user = untouched_user;
  untouched_key.city = untouched_city;
  untouched_key.k = 5;
  cache.Put(touched_key, {{1, 1.0}});
  cache.Put(untouched_key, {{2, 2.0}});

  StatusOr<bool> applied = bundle->ApplyDeltaIfNewer();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_TRUE(*applied);

  // The patched user's entry is gone even in a city the delta never
  // touched; the untouched user's entry survives (row-level, not
  // wholesale).
  EXPECT_FALSE(cache.Get(touched_key).has_value());
  EXPECT_TRUE(cache.Get(untouched_key).has_value());
  EXPECT_EQ(cache.GetStats().row_invalidations, 1u);
  EXPECT_EQ(cache.GetStats().invalidations, 0u);
}

}  // namespace
}  // namespace sttr::stream
