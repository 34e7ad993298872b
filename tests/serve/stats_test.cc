// LatencyHistogram and ServeStats: percentile accuracy within the bucket
// resolution, concurrent recording, and the /statz JSON payload.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/stats.h"

namespace sttr::serve {
namespace {

TEST(LatencyHistogramTest, EmptySummaryIsZero) {
  LatencyHistogram h;
  const auto s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean_ms, 0.0);
  EXPECT_EQ(s.p50_ms, 0.0);
  EXPECT_EQ(s.p99_ms, 0.0);
  EXPECT_EQ(s.max_ms, 0.0);
}

TEST(LatencyHistogramTest, SingleValue) {
  LatencyHistogram h;
  h.Record(1'000'000);  // 1ms
  const auto s = h.Summarize();
  EXPECT_EQ(s.count, 1u);
  EXPECT_NEAR(s.mean_ms, 1.0, 1e-9);  // mean uses the exact sum
  // Percentiles come from bucket upper bounds: ~6% relative resolution.
  EXPECT_NEAR(s.p50_ms, 1.0, 0.07);
  EXPECT_NEAR(s.max_ms, 1.0, 1e-9);
}

TEST(LatencyHistogramTest, PercentilesOfUniformDistribution) {
  LatencyHistogram h;
  // 1..10000 microseconds, uniformly.
  for (uint64_t us = 1; us <= 10'000; ++us) h.Record(us * 1'000);
  const auto s = h.Summarize();
  EXPECT_EQ(s.count, 10'000u);
  EXPECT_NEAR(s.mean_ms, 5.0005, 1e-6);
  EXPECT_NEAR(s.p50_ms, 5.0, 0.5);
  EXPECT_NEAR(s.p95_ms, 9.5, 0.7);
  EXPECT_NEAR(s.p99_ms, 9.9, 0.7);
  EXPECT_NEAR(s.max_ms, 10.0, 1e-9);
  EXPECT_LE(s.p50_ms, s.p95_ms);
  EXPECT_LE(s.p95_ms, s.p99_ms);
}

TEST(LatencyHistogramTest, ExtremeValuesDoNotOverflowBuckets) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(~uint64_t{0});  // way past the last octave; must clamp
  const auto s = h.Summarize();
  EXPECT_EQ(s.count, 3u);
  EXPECT_GT(s.max_ms, 0.0);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(1'000'000);
  h.Reset();
  const auto s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max_ms, 0.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordLosesNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(i) * 100);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Summarize().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ServeStatsTest, ToJsonCarriesCountersAndLatency) {
  ServeStats stats;
  stats.requests.store(42);
  stats.cache_hits.store(7);
  stats.cache_misses.store(35);
  stats.scored_pairs.store(3500);
  stats.model_reloads.store(2);
  stats.request_latency.Record(2'000'000);

  const std::string json = stats.ToJson(/*uptime_seconds=*/21.0);
  EXPECT_NE(json.find("\"requests\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_hits\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"model_reloads\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"scored_pairs\": 3500"), std::string::npos) << json;
  // sttr_serve holds no embedding store, so /statz has no store block.
  EXPECT_EQ(json.find("\"store\""), std::string::npos) << json;
  EXPECT_EQ(json.find("shard"), std::string::npos) << json;
  EXPECT_EQ(json.find("batch"), std::string::npos) << json;
  EXPECT_NE(json.find("\"qps\": 2"), std::string::npos) << json;  // 42/21
  EXPECT_NE(json.find("\"latency_ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
}

TEST(ServeStatsTest, NonPositiveUptimeOmitsQps) {
  ServeStats stats;
  stats.requests.store(5);
  EXPECT_EQ(stats.ToJson(0.0).find("\"qps\""), std::string::npos);
}

}  // namespace
}  // namespace sttr::serve
