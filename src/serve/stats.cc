#include "serve/stats.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/string_util.h"

namespace sttr::serve {

LatencyHistogram::LatencyHistogram() : count_(0), sum_nanos_(0), max_nanos_(0) {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

size_t LatencyHistogram::BucketOf(uint64_t nanos) {
  if (nanos < (1u << kSubBits)) return static_cast<size_t>(nanos);
  const int msb = 63 - std::countl_zero(nanos);
  const size_t octave = static_cast<size_t>(msb);
  const size_t sub =
      static_cast<size_t>((nanos >> (octave - kSubBits)) & ((1u << kSubBits) - 1));
  return std::min((octave << kSubBits) + sub, kNumBuckets - 1);
}

double LatencyHistogram::BucketValue(size_t bucket) {
  const size_t octave = bucket >> kSubBits;
  const size_t sub = bucket & ((1u << kSubBits) - 1);
  if (octave == 0) return static_cast<double>(sub);
  const double base = static_cast<double>(uint64_t{1} << octave);
  // Upper edge of the linear sub-bucket within [2^octave, 2^(octave+1)).
  return base + base * static_cast<double>(sub + 1) /
                    static_cast<double>(1u << kSubBits);
}

void LatencyHistogram::Record(uint64_t nanos) {
  buckets_[BucketOf(nanos)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  uint64_t prev = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > prev &&
         !max_nanos_.compare_exchange_weak(prev, nanos,
                                           std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Summary LatencyHistogram::Summarize() const {
  Summary s;
  std::array<uint64_t, kNumBuckets> counts;
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  s.count = total;
  if (total == 0) return s;
  s.mean_ms = static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) /
              static_cast<double>(total) / 1e6;
  s.max_ms =
      static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) / 1e6;
  const auto percentile = [&](double p) {
    const uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total));
    uint64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      seen += counts[i];
      if (seen > rank) return BucketValue(i) / 1e6;
    }
    return BucketValue(kNumBuckets - 1) / 1e6;
  };
  s.p50_ms = percentile(0.50);
  s.p95_ms = percentile(0.95);
  s.p99_ms = percentile(0.99);
  return s;
}

double LatencyHistogram::Percentile(double p) const {
  p = std::clamp(p, 0.0, 1.0);
  std::array<uint64_t, kNumBuckets> counts;
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total));
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += counts[i];
    if (seen > rank) return BucketValue(i) / 1e6;
  }
  return BucketValue(kNumBuckets - 1) / 1e6;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
  max_nanos_.store(0, std::memory_order_relaxed);
}

std::string ServeStats::ToJson(double uptime_seconds) const {
  const LatencyHistogram::Summary lat = request_latency.Summarize();
  const uint64_t reqs = requests.load(std::memory_order_relaxed);
  std::ostringstream os;
  os << "{";
  os << "\"requests\": " << reqs;
  os << ", \"bad_requests\": " << bad_requests.load(std::memory_order_relaxed);
  os << ", \"cache_hits\": " << cache_hits.load(std::memory_order_relaxed);
  os << ", \"cache_misses\": "
     << cache_misses.load(std::memory_order_relaxed);
  os << ", \"scored_pairs\": "
     << scored_pairs.load(std::memory_order_relaxed);
  os << ", \"model_reloads\": "
     << model_reloads.load(std::memory_order_relaxed);
  os << ", \"model_reload_failures\": "
     << model_reload_failures.load(std::memory_order_relaxed);
  os << ", \"last_reload_error\": \"" << JsonEscaped(LastReloadError())
     << "\"";
  {
    const uint64_t precision =
        snapshot_precision.load(std::memory_order_relaxed);
    const char* name = precision == 1   ? "fp32"
                       : precision == 2 ? "int8"
                                        : "none";
    os << ", \"model\": {\"resident_bytes\": "
       << snapshot_bytes.load(std::memory_order_relaxed)
       << ", \"precision\": \"" << name << "\"}";
  }
  {
    const LatencyHistogram::Summary apply = delta_apply_latency.Summarize();
    os << ", \"ingest\": {\"checkins_http\": "
       << checkins_http.load(std::memory_order_relaxed)
       << ", \"checkins_accepted\": "
       << ingest.checkins_accepted.load(std::memory_order_relaxed)
       << ", \"checkins_rejected\": "
       << ingest.checkins_rejected.load(std::memory_order_relaxed)
       << ", \"events_trained\": "
       << ingest.events_trained.load(std::memory_order_relaxed)
       << ", \"deltas_published\": "
       << ingest.deltas_published.load(std::memory_order_relaxed)
       << ", \"delta_publish_failures\": "
       << ingest.delta_publish_failures.load(std::memory_order_relaxed)
       << ", \"deltas_applied\": "
       << deltas_applied.load(std::memory_order_relaxed)
       << ", \"delta_apply_failures\": "
       << delta_apply_failures.load(std::memory_order_relaxed)
       << ", \"rows_patched\": " << rows_patched.load(std::memory_order_relaxed)
       << ", \"cold_start_requests\": "
       << cold_start_requests.load(std::memory_order_relaxed)
       << ", \"delta_apply_ms\": {\"count\": " << apply.count
       << ", \"mean\": " << StrFormat("%.4f", apply.mean_ms)
       << ", \"p50\": " << StrFormat("%.4f", apply.p50_ms)
       << ", \"p99\": " << StrFormat("%.4f", apply.p99_ms)
       << ", \"max\": " << StrFormat("%.4f", apply.max_ms) << "}}";
  }
  os << ", \"rejected_connections\": "
     << rejected_connections.load(std::memory_order_relaxed);
  os << ", \"rejected_requests\": "
     << rejected_requests.load(std::memory_order_relaxed);
  os << ", \"allocs\": {\"recommend\": "
     << recommend_allocs.load(std::memory_order_relaxed)
     << ", \"hot_requests\": " << hot_requests.load(std::memory_order_relaxed)
     << ", \"hot\": " << hot_allocs.load(std::memory_order_relaxed)
     << ", \"loop\": " << loop_allocs.load(std::memory_order_relaxed) << "}";
  os << ", \"syscalls\": {\"reads\": "
     << sys_reads.load(std::memory_order_relaxed)
     << ", \"writes\": " << sys_writes.load(std::memory_order_relaxed)
     << ", \"epoll_waits\": "
     << sys_epoll_waits.load(std::memory_order_relaxed)
     << ", \"accepts\": " << sys_accepts.load(std::memory_order_relaxed)
     << "}";
  if (uptime_seconds > 0) {
    os << ", \"uptime_seconds\": " << StrFormat("%.3f", uptime_seconds);
    os << ", \"qps\": "
       << StrFormat("%.1f", static_cast<double>(reqs) / uptime_seconds);
  }
  os << ", \"latency_ms\": {\"count\": " << lat.count
     << ", \"mean\": " << StrFormat("%.4f", lat.mean_ms)
     << ", \"p50\": " << StrFormat("%.4f", lat.p50_ms)
     << ", \"p95\": " << StrFormat("%.4f", lat.p95_ms)
     << ", \"p99\": " << StrFormat("%.4f", lat.p99_ms)
     << ", \"max\": " << StrFormat("%.4f", lat.max_ms) << "}";
  os << "}";
  return os.str();
}

}  // namespace sttr::serve
