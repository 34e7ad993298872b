// Asserts the epoll serving core's zero-allocation contract instead of
// claiming it: once a connection and its worker are warmed, a cache-hit
// /recommend request performs zero heap allocations end to end — none inside
// the worker's request processing (hot_allocs, metered by the counting
// operator-new hook) and none on the event-loop thread (loop_allocs, metered
// per loop iteration). A warmed nocache=1 request, which scores and ranks
// through the tower, allocates nothing inside the worker either. Also pins
// the alloc/syscall counters' plumbing through /statz.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "serve/alloc_hook.h"
#include "serve/candidate_index.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "serve_test_util.h"
#include "test_http_client.h"
#include "util/string_util.h"

namespace sttr::serve {
namespace {

class ZeroAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(AllocHookActive())
        << "counting operator new not linked in; the zero-alloc contract "
           "cannot be asserted";
    fixture_ = std::make_unique<ServeFixture>(MakeServeFixture());
    ckpt_dir_ = ServeTestDir();
    TrainSmallModel(*fixture_, ckpt_dir_);

    ModelBundleConfig bundle_config;
    bundle_config.checkpoint_dir = ckpt_dir_;
    bundle_config.model = SmallServingModelConfig();
    bundle_ = std::make_unique<ModelBundle>(fixture_->world.dataset,
                                            fixture_->split, bundle_config);
    ASSERT_TRUE(bundle_->LoadInitial().ok());

    CandidateIndexConfig index_config;
    index_config.min_candidates = 30;
    index_ = std::make_unique<CandidateIndex>(fixture_->world.dataset,
                                              &fixture_->split, index_config);
    cache_ = std::make_unique<ResultCache>(ResultCacheConfig{});

    ServerConfig server_config;
    server_config.num_workers = 1;  // one worker -> one scratch to warm
    server_config.default_city = fixture_->split.target_city;
    server_ = std::make_unique<RecommendServer>(
        server_config, fixture_->world.dataset, bundle_.get(), index_.get(),
        cache_.get(), &stats_);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  std::string Target() {
    const auto& pois = fixture_->world.dataset.PoisInCity(
        fixture_->split.target_city);
    const GeoPoint loc = fixture_->world.dataset.poi(pois[0]).location;
    return "/recommend?user=1&lat=" + StrFormat("%.8f", loc.lat) +
           "&lon=" + StrFormat("%.8f", loc.lon) + "&k=10";
  }

  std::unique_ptr<ServeFixture> fixture_;
  std::string ckpt_dir_;
  ServeStats stats_;
  std::unique_ptr<ModelBundle> bundle_;
  std::unique_ptr<CandidateIndex> index_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<RecommendServer> server_;
};

TEST_F(ZeroAllocTest, WarmedCacheHitRequestsAllocateNothing) {
  TestHttpClient client(server_->port());
  const std::string target = Target();

  // Cold request fills the cache; a few warm ones grow every sticky buffer
  // (connection arena, worker scratch, loop queues) to its high water.
  ASSERT_EQ(client.Get(target).status, 200);
  for (int i = 0; i < 5; ++i) {
    const auto r = client.Get(target);
    ASSERT_EQ(r.status, 200);
    ASSERT_NE(r.body.find("\"cached\": true"), std::string::npos) << r.body;
  }

  const uint64_t hot_requests0 = stats_.hot_requests.load();
  const uint64_t hot_allocs0 = stats_.hot_allocs.load();
  const uint64_t loop_allocs0 = stats_.loop_allocs.load();

  constexpr int kSteadyState = 50;
  std::string last_body;
  for (int i = 0; i < kSteadyState; ++i) {
    const auto r = client.Get(target);
    ASSERT_EQ(r.status, 200);
    if (i == 0) {
      last_body = r.body;
    } else {
      ASSERT_EQ(r.body, last_body) << "steady-state responses must not vary";
    }
  }

  EXPECT_EQ(stats_.hot_requests.load() - hot_requests0,
            static_cast<uint64_t>(kSteadyState));
  // The tentpole assertion: zero allocations per hot request, both on the
  // worker (request processing) and on the event-loop thread (parse +
  // serialize + I/O).
  EXPECT_EQ(stats_.hot_allocs.load() - hot_allocs0, 0u);
  EXPECT_EQ(stats_.loop_allocs.load() - loop_allocs0, 0u);
}

TEST_F(ZeroAllocTest, WarmedColdRequestsAllocateNothing) {
  // nocache=1 runs the whole miss path: candidates, the tower through
  // ScorePairsInto and TopKByScoreInto, all into worker scratch. What this
  // does not cover still allocates: a cache fill copies the ranking in
  // ResultCache::Put, and a cold-start user's word-bridge score builds two
  // profile vectors in ColdStartScorer::Score.
  TestHttpClient client(server_->port());
  const std::string target = Target() + "&nocache=1";
  for (int i = 0; i < 5; ++i) ASSERT_EQ(client.Get(target).status, 200);

  const uint64_t allocs0 = stats_.recommend_allocs.load();
  const uint64_t pairs0 = stats_.scored_pairs.load();
  std::string first_body;
  for (int i = 0; i < 20; ++i) {
    const auto r = client.Get(target);
    ASSERT_EQ(r.status, 200);
    ASSERT_NE(r.body.find("\"cached\": false"), std::string::npos) << r.body;
    if (i == 0) first_body = r.body;
    ASSERT_EQ(r.body, first_body);
  }
  EXPECT_GT(stats_.scored_pairs.load(), pairs0);  // the tower really ran
  EXPECT_EQ(stats_.recommend_allocs.load() - allocs0, 0u);
}

TEST_F(ZeroAllocTest, StatzExposesAllocAndSyscallCountersAndPercentiles) {
  TestHttpClient client(server_->port());
  const std::string target = Target();
  for (int i = 0; i < 3; ++i) ASSERT_EQ(client.Get(target).status, 200);

  const auto statz = client.Get("/statz");
  ASSERT_EQ(statz.status, 200);
  for (const char* key :
       {"\"allocs\": {\"recommend\": ", "\"hot_requests\": ", "\"hot\": ",
        "\"loop\": ", "\"syscalls\": {\"reads\": ", "\"writes\": ",
        "\"epoll_waits\": ", "\"accepts\": ", "\"p50\": ", "\"p95\": ",
        "\"p99\": "}) {
    EXPECT_NE(statz.body.find(key), std::string::npos)
        << key << " missing from " << statz.body;
  }
  // The loop actually counts its syscalls.
  EXPECT_GT(stats_.sys_reads.load(), 0u);
  EXPECT_GT(stats_.sys_writes.load(), 0u);
  EXPECT_GT(stats_.sys_epoll_waits.load(), 0u);
  EXPECT_GT(stats_.sys_accepts.load(), 0u);
}

TEST_F(ZeroAllocTest, PercentileMatchesSummarize) {
  LatencyHistogram hist;
  for (uint64_t i = 1; i <= 1000; ++i) hist.Record(i * 1000);  // 1..1000us
  const auto summary = hist.Summarize();
  EXPECT_DOUBLE_EQ(hist.Percentile(0.50), summary.p50_ms);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.95), summary.p95_ms);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.99), summary.p99_ms);
  // Monotone in p, clamped outside [0, 1].
  EXPECT_LE(hist.Percentile(0.1), hist.Percentile(0.9));
  EXPECT_EQ(hist.Percentile(-1.0), hist.Percentile(0.0));
  EXPECT_EQ(hist.Percentile(2.0), hist.Percentile(1.0));
  EXPECT_EQ(LatencyHistogram().Percentile(0.5), 0.0);
}

}  // namespace
}  // namespace sttr::serve
