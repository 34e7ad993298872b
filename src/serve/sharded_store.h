#ifndef STTR_SERVE_SHARDED_STORE_H_
#define STTR_SERVE_SHARDED_STORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/embedding_store.h"
#include "serve/shard_protocol.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/socket_fault.h"

namespace sttr::serve {

/// Counters a ShardedEmbeddingStore bumps when given a sink; monotonic
/// relaxed atomics. Tripped shards are read from shards_down().
struct ShardedStoreStats {
  std::atomic<uint64_t> shard_gathers{0};  ///< store Gather() calls
  std::atomic<uint64_t> shard_errors{0};   ///< failed per-shard attempts
  std::atomic<uint64_t> shard_retries{0};  ///< re-sent per-shard sub-gathers
};

struct ShardedStoreOptions {
  /// Loopback ports of the N shard servers; shard i of ids maps to
  /// shard_ports[i] (modulo placement, see shard_protocol.h).
  std::vector<int> shard_ports;

  /// Default per-Gather budget when the caller passes no tighter deadline.
  std::chrono::milliseconds default_deadline{50};

  /// Retry policy: a failed per-shard sub-gather is re-sent at most
  /// `max_retries` times, only on transient errors (connect/send/recv
  /// failure, torn frame, shard EOF, kShuttingDown) and only while deadline
  /// budget remains. Backoff doubles from `backoff_base` up to `backoff_max`
  /// with uniform jitter in [0.5, 1.0)x so N routers hammered by the same
  /// shard outage do not retry in lockstep.
  size_t max_retries = 2;
  std::chrono::milliseconds backoff_base{2};
  std::chrono::milliseconds backoff_max{16};

  /// Circuit breaker: `trip_threshold` consecutive sub-gather failures trip
  /// a shard open for `open_duration`; while open the shard fails fast
  /// (no connect attempt). After the cooldown, one probe gather goes
  /// through half-open; success resets the breaker, failure re-opens it.
  size_t trip_threshold = 3;
  std::chrono::milliseconds open_duration{250};

  /// Per-shard connect timeout (loopback: generous) and idle-pool cap.
  std::chrono::milliseconds connect_timeout{200};
  size_t max_pooled_connections = 4;

  /// Jitter source seed (all randomness flows through sttr::Rng).
  uint64_t jitter_seed = 0x5354524eULL;

  /// Client-side fault injection applied to this router's connect/send/recv.
  FaultInjectionSocket* fault = nullptr;
  /// Optional counter sink.
  ShardedStoreStats* stats = nullptr;
};

/// Gather router over N hash shards: partitions the id batch by residue,
/// fans the per-shard requests out concurrently (nonblocking sockets driven
/// by one poll() loop per Gather call), reassembles rows in request order,
/// and wraps the whole exchange in deadline + retry + circuit-breaker
/// discipline. A Gather either returns rows bit-identical to the in-process
/// oracle or a non-OK Status, never silently wrong rows. A library: the
/// recommend server scores in-process and holds no store.
///
/// Thread-safe: concurrent Gathers share only the per-shard connection
/// pools and health state, both Mutex/atomic-guarded; each Gather drives
/// its own sockets.
class ShardedEmbeddingStore final : public EmbeddingStore {
 public:
  /// `dim`/`num_users`/`num_pois` describe the full (pre-shard) tables —
  /// the router validates ids locally instead of paying a round trip.
  ShardedEmbeddingStore(ShardedStoreOptions options, size_t dim,
                        size_t num_users, size_t num_pois);
  ~ShardedEmbeddingStore() override;

  size_t dim() const override { return dim_; }
  size_t num_rows(EmbeddingTable table) const override {
    return table == EmbeddingTable::kUser ? num_users_ : num_pois_;
  }
  /// Shard count, and how many shards are tripped unhealthy right now.
  size_t num_shards() const { return options_.shard_ports.size(); }
  size_t shards_down() const;

  Status Gather(EmbeddingTable table, std::span<const int64_t> ids,
                float* out,
                std::chrono::steady_clock::time_point deadline) override;

  /// Drops every pooled connection (chaos tests: force reconnects).
  void CloseAllConnections();

 private:
  struct ShardState;

  /// One in-flight sub-gather during a fan-out round.
  struct Pending;

  /// Circuit-breaker gate: false when the shard is open (fail fast).
  /// Half-open: after the cooldown exactly one caller wins the probe slot.
  bool AdmitShard(ShardState& shard, bool* is_probe);
  void RecordShardSuccess(ShardState& shard);
  void RecordShardFailure(ShardState& shard);

  /// Pops a pooled connection or establishes a new one (nonblocking
  /// connect bounded by min(deadline, connect_timeout)). Returns -1 on
  /// failure with errno describing the cause.
  int AcquireConnection(ShardState& shard,
                        std::chrono::steady_clock::time_point deadline);
  void ReleaseConnection(ShardState& shard, int fd);

  /// Runs one fan-out round over `pending`, marking each entry done or
  /// failed. Never blocks past `deadline`.
  void RunRound(std::vector<Pending>& pending, EmbeddingTable table,
                float* out, std::chrono::steady_clock::time_point deadline);

  std::chrono::milliseconds JitteredBackoff(size_t attempt);

  const ShardedStoreOptions options_;
  const size_t dim_;
  const size_t num_users_;
  const size_t num_pois_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::atomic<uint64_t> next_request_id_{1};

  Mutex rng_mu_;
  Rng rng_ GUARDED_BY(rng_mu_);
};

}  // namespace sttr::serve

#endif  // STTR_SERVE_SHARDED_STORE_H_
