#ifndef STTR_SERVE_STATS_H_
#define STTR_SERVE_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "stream/ingest_stats.h"
#include "util/mutex.h"

namespace sttr::serve {

/// Lock-free latency histogram: log2 major buckets with 16 linear
/// sub-buckets per octave (~6% relative resolution), recorded in
/// nanoseconds. Record() is a single relaxed atomic increment, cheap enough
/// for every request on the serving hot path; Summarize() walks the buckets
/// and interpolates percentiles.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(uint64_t nanos);

  struct Summary {
    uint64_t count = 0;
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
  };

  /// Consistent-enough snapshot for monitoring: buckets are read relaxed, so
  /// a summary taken under concurrent Record() traffic may straddle a few
  /// in-flight increments.
  Summary Summarize() const;

  /// The latency (in milliseconds) at quantile `p` in [0, 1] — e.g.
  /// Percentile(0.99) is the p99. Returns 0 when nothing was recorded.
  /// Reads the buckets relaxed, same snapshot semantics as Summarize().
  double Percentile(double p) const;

  void Reset();

 private:
  // Octaves 0..39 cover [1ns, ~18 minutes); 16 sub-buckets each.
  static constexpr size_t kSubBits = 4;
  static constexpr size_t kNumBuckets = 40u << kSubBits;

  static size_t BucketOf(uint64_t nanos);
  /// Representative (upper-bound) value of a bucket, in nanoseconds.
  static double BucketValue(size_t bucket);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_;
  std::atomic<uint64_t> count_;
  std::atomic<uint64_t> sum_nanos_;
  std::atomic<uint64_t> max_nanos_;
};

/// Counters of the serving subsystem, surfaced at /statz. All relaxed
/// atomics: every field is monotonic and independently meaningful, so torn
/// cross-field reads only show a monitoring snapshot a few events stale.
struct ServeStats {
  std::atomic<uint64_t> requests{0};        ///< HTTP requests accepted
  std::atomic<uint64_t> bad_requests{0};    ///< 4xx responses
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> scored_pairs{0};  ///< (user, poi) pairs scored
  std::atomic<uint64_t> model_reloads{0};
  /// Reload attempts that found a newer checkpoint but failed to load it
  /// (the old snapshot keeps serving). The failure *reason* is kept in the
  /// guarded last_reload_error below.
  std::atomic<uint64_t> model_reload_failures{0};
  /// Gauges describing the current snapshot, refreshed by the /statz
  /// handlers: approximate resident parameter bytes and the serving
  /// precision (0 = no model, else serve::Precision — 1 fp32, 2 int8).
  std::atomic<uint64_t> snapshot_bytes{0};
  std::atomic<uint64_t> snapshot_precision{0};
  std::atomic<uint64_t> rejected_connections{0};  ///< over connection limit
  std::atomic<uint64_t> rejected_requests{0};     ///< worker queue full (503)

  // Allocation accounting (counting operator-new hook, see alloc_hook.h).
  // The zero-alloc contract of the epoll hot path is asserted on these.
  std::atomic<uint64_t> recommend_allocs{0};  ///< allocs inside /recommend work
  std::atomic<uint64_t> hot_requests{0};      ///< cache-hit /recommend requests
  std::atomic<uint64_t> hot_allocs{0};        ///< allocs inside those (0 warmed)
  std::atomic<uint64_t> loop_allocs{0};       ///< allocs on event-loop threads

  // Syscall tallies from the event loops.
  std::atomic<uint64_t> sys_reads{0};
  std::atomic<uint64_t> sys_writes{0};
  std::atomic<uint64_t> sys_epoll_waits{0};
  std::atomic<uint64_t> sys_accepts{0};

  // Streaming ingestion (src/stream/): producer-side counters live in the
  // embedded IngestStats (bumped by the ingest service), consumer-side
  // delta-apply counters below (bumped by the model bundle).
  stream::IngestStats ingest;
  std::atomic<uint64_t> deltas_applied{0};  ///< delta hot-patches gone live
  std::atomic<uint64_t> delta_apply_failures{0};
  std::atomic<uint64_t> rows_patched{0};  ///< embedding rows patched in place
  std::atomic<uint64_t> cold_start_requests{0};  ///< word-bridge-scored
  std::atomic<uint64_t> checkins_http{0};  ///< /checkin requests accepted

  LatencyHistogram request_latency;  ///< full request handling, server side
  LatencyHistogram delta_apply_latency;  ///< delta load+patch+swap, bundle side

  /// Last reload failure message, "" when the most recent attempt succeeded.
  /// A string cannot be a relaxed atomic, so this pair is Mutex-guarded —
  /// reload and /statz are both off the request hot path.
  void RecordReloadError(std::string_view msg) {
    MutexLock lock(reload_error_mu_);
    last_reload_error_.assign(msg);
  }
  std::string LastReloadError() const {
    MutexLock lock(reload_error_mu_);
    return last_reload_error_;
  }

  /// /statz payload. `uptime_seconds` <= 0 omits the QPS estimate.
  std::string ToJson(double uptime_seconds) const;

 private:
  mutable Mutex reload_error_mu_;
  std::string last_reload_error_ GUARDED_BY(reload_error_mu_);
};

}  // namespace sttr::serve

#endif  // STTR_SERVE_STATS_H_
