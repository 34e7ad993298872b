// HTTP-level tests of the streaming ingest endpoint and cold-start serving:
// /checkin backpressure and lifecycle, ingest counters on /statz, and the
// cold-start marker + word-bridge path on /recommend. The /checkin
// validation matrix and the cold-start response bytes are pinned by
// tests/serve/golden/ (golden_test.cc).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../serve/serve_test_util.h"
#include "../serve/test_http_client.h"
#include "core/checkpoint.h"
#include "core/st_transrec.h"
#include "serve/candidate_index.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "stream/cold_start.h"
#include "stream/incremental_trainer.h"
#include "stream/ingest_service.h"
#include "util/string_util.h"

namespace sttr::stream {
namespace {

using serve::MakeServeFixture;
using serve::ModelBundle;
using serve::ModelBundleConfig;
using serve::RecommendServer;
using serve::ResultCache;
using serve::ResultCacheConfig;
using serve::ServeFixture;
using serve::ServerConfig;
using serve::ServeStats;
using serve::ServeTestDir;
using serve::SmallServingModelConfig;
using serve::TestHttpClient;
using serve::TrainSmallModel;

std::string Request(const std::string& method, const std::string& target) {
  return method + " " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

/// One serving stack with its own streaming pipeline (stream model, trainer,
/// ingest service).
struct Side {
  ServeStats stats;
  std::unique_ptr<ModelBundle> bundle;
  std::unique_ptr<ResultCache> cache;
  std::unique_ptr<StTransRec> stream_model;
  std::unique_ptr<IncrementalTrainer> trainer;
  std::unique_ptr<IngestService> ingest;
  std::unique_ptr<RecommendServer> server;

  ~Side() {
    if (server != nullptr) server->Shutdown();
    if (ingest != nullptr) ingest->Stop();
  }
};

struct SideOptions {
  bool with_ingest = true;
  bool with_cold_start = true;
  bool start_ingest_loop = false;
  size_t queue_capacity = 256;
};

class IngestServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new ServeFixture(MakeServeFixture());
    ckpt_dir_ = new std::string(ServeTestDir());
    TrainSmallModel(*fixture_, *ckpt_dir_);
  }
  static void TearDownTestSuite() {
    delete ckpt_dir_;
    delete fixture_;
    ckpt_dir_ = nullptr;
    fixture_ = nullptr;
  }

  void SetUp() override {
    index_ = std::make_unique<serve::CandidateIndex>(
        fixture_->world.dataset, &fixture_->split,
        serve::CandidateIndexConfig{});
    cold_scorer_ =
        std::make_unique<ColdStartScorer>(fixture_->world.dataset,
                                          ColdStartConfig{});
  }

  std::unique_ptr<Side> MakeSide(const SideOptions& opt,
                                 const std::string& leaf) {
    auto side = std::make_unique<Side>();
    ModelBundleConfig bundle_config;
    bundle_config.checkpoint_dir = *ckpt_dir_;
    bundle_config.model = SmallServingModelConfig();
    side->bundle = std::make_unique<ModelBundle>(
        fixture_->world.dataset, fixture_->split, bundle_config);
    STTR_CHECK_OK(side->bundle->LoadInitial());
    side->cache = std::make_unique<ResultCache>(ResultCacheConfig{});

    if (opt.with_ingest) {
      side->stream_model =
          std::make_unique<StTransRec>(SmallServingModelConfig());
      STTR_CHECK_OK(
          side->stream_model->Prepare(fixture_->world.dataset,
                                      fixture_->split));
      IncrementalTrainerConfig tcfg;
      tcfg.delta_dir = ServeTestDir() + "/delta_" + leaf;
      side->trainer = std::make_unique<IncrementalTrainer>(tcfg);
      STTR_CHECK_OK(side->trainer->Init(
          side->stream_model.get(), fixture_->world.dataset,
          side->bundle->snapshot()->checkpoint_path));
      IngestServiceConfig icfg;
      icfg.queue_capacity = opt.queue_capacity;
      icfg.window = 8;
      side->ingest = std::make_unique<IngestService>(
          fixture_->world.dataset, side->trainer.get(), &side->stats.ingest,
          icfg);
      if (opt.start_ingest_loop) side->ingest->Start();
    }

    ServerConfig config;
    config.num_workers = 2;
    config.default_city = fixture_->split.target_city;
    side->server = std::make_unique<RecommendServer>(
        config, fixture_->world.dataset, side->bundle.get(), index_.get(),
        side->cache.get(), &side->stats, side->ingest.get(),
        opt.with_cold_start ? cold_scorer_.get() : nullptr);
    STTR_CHECK_OK(side->server->Start());
    return side;
  }

  std::string CheckinTarget(size_t i, bool with_city = true,
                            bool with_time = true) const {
    const CheckinRecord& r = fixture_->world.dataset.checkins()[i];
    std::string target = "/checkin?user=" + std::to_string(r.user) +
                         "&poi=" + std::to_string(r.poi);
    if (with_city) target += "&city=" + std::to_string(r.city);
    if (with_time) target += "&t=" + StrFormat("%.4f", r.time);
    return target;
  }

  std::string RecommendTarget(UserId user, const std::string& extra = "") {
    const auto& pois =
        fixture_->world.dataset.PoisInCity(fixture_->split.target_city);
    const GeoPoint loc = fixture_->world.dataset.poi(pois[0]).location;
    return "/recommend?user=" + std::to_string(user) +
           "&lat=" + StrFormat("%.8f", loc.lat) +
           "&lon=" + StrFormat("%.8f", loc.lon) + "&k=5" + extra;
  }

  /// A user with check-ins but none in the target city, or -1.
  UserId FindColdUser() const {
    const Dataset& ds = fixture_->world.dataset;
    const CityId target = fixture_->split.target_city;
    for (UserId u = 0; u < static_cast<UserId>(ds.num_users()); ++u) {
      const std::vector<size_t>& idx = ds.CheckinsOfUser(u);
      if (idx.empty()) continue;
      bool in_city = false;
      for (size_t i : idx) in_city |= ds.checkins()[i].city == target;
      if (!in_city) return u;
    }
    return -1;
  }

  UserId FindWarmUser() const {
    const Dataset& ds = fixture_->world.dataset;
    for (UserId u = 0; u < static_cast<UserId>(ds.num_users()); ++u) {
      for (size_t i : ds.CheckinsOfUser(u)) {
        if (ds.checkins()[i].city == fixture_->split.target_city) return u;
      }
    }
    return -1;
  }

  static ServeFixture* fixture_;
  static std::string* ckpt_dir_;

  std::unique_ptr<serve::CandidateIndex> index_;
  std::unique_ptr<ColdStartScorer> cold_scorer_;
};

ServeFixture* IngestServerTest::fixture_ = nullptr;
std::string* IngestServerTest::ckpt_dir_ = nullptr;

TEST_F(IngestServerTest, CheckinBackpressureAndStopAre503) {
  SideOptions opt;
  opt.queue_capacity = 2;  // loop not started: nothing drains
  auto side = MakeSide(opt, "bp");
  TestHttpClient client(side->server->port());
  EXPECT_EQ(client.Roundtrip(Request("POST", CheckinTarget(0))).status, 200);
  EXPECT_EQ(client.Roundtrip(Request("POST", CheckinTarget(1))).status, 200);
  const auto full = client.Roundtrip(Request("POST", CheckinTarget(2)));
  EXPECT_EQ(full.status, 503);
  EXPECT_NE(full.body.find("ingest queue full"), std::string::npos);

  side->ingest->Stop();
  const auto stopped = client.Roundtrip(Request("POST", CheckinTarget(3)));
  EXPECT_EQ(stopped.status, 503);
  EXPECT_NE(stopped.body.find("ingest stopped"), std::string::npos);
}

TEST_F(IngestServerTest, AcceptedCheckinsReachTrainerAndStatz) {
  SideOptions opt;
  opt.start_ingest_loop = true;
  auto side = MakeSide(opt, "train");
  TestHttpClient client(side->server->port());
  for (size_t i = 0; i < 10; ++i) {
    const auto r = client.Roundtrip(Request("POST", CheckinTarget(i)));
    ASSERT_EQ(r.status, 200) << r.body;
    EXPECT_NE(r.body.find("\"accepted\": true"), std::string::npos);
    EXPECT_NE(r.body.find("\"seq\": " + std::to_string(i + 1)),
              std::string::npos);
  }
  side->ingest->Stop();  // drains + trains the final partial window
  EXPECT_EQ(side->trainer->events_applied(), 10u);
  EXPECT_GT(side->trainer->published_seq(), 0u);

  const auto statz = client.Roundtrip(Request("GET", "/statz"));
  EXPECT_EQ(statz.status, 200);
  EXPECT_NE(statz.body.find("\"checkins_http\": 10"), std::string::npos);
  EXPECT_NE(statz.body.find("\"checkins_accepted\": 10"), std::string::npos);
  EXPECT_NE(statz.body.find("\"events_trained\": 10"), std::string::npos);
  EXPECT_NE(statz.body.find("\"deltas_published\""), std::string::npos);
  EXPECT_NE(statz.body.find("\"delta_apply_ms\""), std::string::npos);
}

TEST_F(IngestServerTest, ColdStartRecommendUsesWordBridge) {
  auto side = MakeSide({}, "cold");
  TestHttpClient client(side->server->port());
  const UserId cold = FindColdUser();
  const UserId warm = FindWarmUser();
  ASSERT_GE(cold, 0) << "fixture has no source-only user";
  ASSERT_GE(warm, 0);

  const auto cold_resp =
      client.Roundtrip(Request("GET", RecommendTarget(cold, "&hour=13.5")));
  ASSERT_EQ(cold_resp.status, 200) << cold_resp.body;
  EXPECT_NE(cold_resp.body.find("\"cold_start\": true"), std::string::npos);
  // Non-degraded: real ranked results, not an empty or error payload.
  EXPECT_NE(cold_resp.body.find("\"results\""), std::string::npos);
  EXPECT_NE(cold_resp.body.find("\"poi\""), std::string::npos);

  const auto warm_resp = client.Roundtrip(Request("GET",
                                                  RecommendTarget(warm)));
  ASSERT_EQ(warm_resp.status, 200);
  EXPECT_NE(warm_resp.body.find("\"cold_start\": false"), std::string::npos);

  const auto bad_hour =
      client.Roundtrip(Request("GET", RecommendTarget(cold, "&hour=-3")));
  EXPECT_EQ(bad_hour.status, 400);
  EXPECT_NE(bad_hour.body.find("invalid 'hour'"), std::string::npos);

  EXPECT_GE(side->stats.cold_start_requests.load(), 1u);
}

TEST_F(IngestServerTest, ColdStartMarkerAbsentWithoutScorer) {
  SideOptions opt;
  opt.with_cold_start = false;
  auto side = MakeSide(opt, "nocold");
  TestHttpClient client(side->server->port());
  const auto resp =
      client.Roundtrip(Request("GET", RecommendTarget(FindColdUser())));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.find("cold_start"), std::string::npos);
}

}  // namespace
}  // namespace sttr::stream
