#ifndef STTR_SERVE_RESULT_CACHE_H_
#define STTR_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/types.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sttr::serve {

/// Cache key of one recommendation result. Queries are keyed by the grid
/// cell of the request location (not the raw coordinates), so every query
/// falling into the same cell — which by construction sees the same
/// candidate set — shares one entry.
struct ResultCacheKey {
  UserId user = -1;
  CityId city = -1;
  uint64_t cell = 0;
  uint32_t k = 0;
  /// Precision of the snapshot that produced (or would produce) the entry
  /// (serve::Precision); int8 and fp32 scores rank slightly differently, so
  /// a precision flip must not serve the other path's cached top-K even in
  /// the instant before the reload listener invalidates.
  uint8_t precision = 0;

  bool operator==(const ResultCacheKey& o) const {
    return user == o.user && city == o.city && cell == o.cell && k == o.k &&
           precision == o.precision;
  }
};

struct ResultCacheConfig {
  /// Independent LRU shards; the shard is picked by key hash, so concurrent
  /// requests for different users rarely contend on the same mutex.
  size_t num_shards = 8;
  /// Total entry capacity across shards (each shard gets its equal cut,
  /// minimum 1).
  size_t capacity = 4096;
  /// Entries older than this are served as misses and lazily evicted.
  /// Zero or negative disables expiry.
  std::chrono::milliseconds ttl{5000};
  /// Injectable clock for tests; null uses steady_clock.
  std::function<std::chrono::steady_clock::time_point()> clock;
};

/// Sharded LRU cache of per-(user, cell, k) top-K results with TTL and
/// wholesale invalidation. InvalidateAll() bumps a generation counter —
/// O(1), no locking of the shards — and entries from older generations are
/// treated as misses and evicted lazily; the model bundle calls it on every
/// hot reload so no request is ever served from a stale model's scores.
class ResultCache {
 public:
  using Value = std::vector<std::pair<PoiId, double>>;

  explicit ResultCache(ResultCacheConfig config);

  /// Returns the cached top-K, refreshing its LRU position; nullopt on
  /// miss/expired/invalidated.
  std::optional<Value> Get(const ResultCacheKey& key);

  /// One request's view of the model, for its cache probe and its Put().
  ///
  /// The request takes the ticket BEFORE it captures its model snapshot,
  /// then sets `version` to the captured snapshot's version. An
  /// invalidation that lands after the ticket — while the value is scored
  /// on the pre-invalidation model — then outdates the entry, however late
  /// the Put() runs. (A ticket taken after the capture could postdate an
  /// invalidation the snapshot predates: a stale value served as fresh.)
  /// The model bundle swaps in a new snapshot before it invalidates, so a
  /// ticket that postdates an invalidation is always followed by a capture
  /// of the swapped-in model.
  ///
  /// That order leaves a window after the swap in which the invalidation
  /// has not run yet. `version` closes it: a probe only takes an entry
  /// computed at another, older version once the invalidation that made
  /// the request's version current has run (InvalidateAll/InvalidateRows
  /// with that version), and never one computed at a newer version.
  struct Ticket {
    uint64_t seq = 0;         ///< position among Put stamps and row floors
    uint64_t generation = 0;  ///< InvalidateAll() generation at the time
    uint64_t version = 0;     ///< version of the snapshot the request uses
  };
  Ticket TakeTicket();

  /// Get() without the return-value allocation: copies the hit into `*out`
  /// (capacity-sticky, so a reused scratch vector makes the probe
  /// allocation-free once warmed). Returns false and leaves `*out`
  /// untouched on miss. This is the serving hot path's probe.
  bool GetInto(const ResultCacheKey& key, const Ticket& ticket, Value* out);

  /// GetInto() for unversioned callers: takes only entries Put() without a
  /// version.
  bool GetInto(const ResultCacheKey& key, Value* out) {
    return GetInto(key, Ticket{}, out);
  }

  /// Inserts or replaces `value`, stamped with `ticket`, evicting the
  /// shard's LRU tail beyond capacity.
  void Put(const ResultCacheKey& key, Value value, Ticket ticket);

  /// Put() for a value computed from the current model: takes its ticket
  /// now. Callers holding a model snapshot use the Ticket form.
  void Put(const ResultCacheKey& key, Value value) {
    Put(key, std::move(value), TakeTicket());
  }

  /// Drops every current entry in O(1) by advancing the generation.
  /// `version` is the model version this flush makes current (0: none).
  void InvalidateAll(uint64_t version = 0);

  /// Row-level invalidation for delta hot-patches: lazily drops every entry
  /// whose user is in `users` OR whose city is in `cities`; all other
  /// entries survive (no wholesale flush). Cost is O(|users| + |cities|)
  /// map updates, plus — on lookups — a staleness check that is a single
  /// atomic load for entries written after the newest row invalidation.
  /// The side index of invalidation floors is bounded; if a pathological
  /// stream of distinct rows would overflow it, the call degrades to
  /// InvalidateAll() (correct, just coarser) and the index restarts empty.
  /// `version` is the model version the patch makes current (0: none); it
  /// counts as made current even when no row changed.
  void InvalidateRows(std::span<const UserId> users,
                      std::span<const CityId> cities, uint64_t version = 0);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;      ///< InvalidateAll() calls
    uint64_t row_invalidations = 0;  ///< InvalidateRows() calls
    size_t entries = 0;              ///< resident entries, any generation
  };
  Stats GetStats() const;

 private:
  struct Entry {
    ResultCacheKey key;
    Value value;
    uint64_t generation = 0;
    /// Ticket::seq of the request that computed the value; compared against
    /// the row-invalidation floors to decide whether a patched row outdates
    /// this entry.
    uint64_t seq = 0;
    /// Ticket::version of that request: the model version of the value.
    uint64_t version = 0;
    std::chrono::steady_clock::time_point expires_at;
  };

  struct KeyHash {
    size_t operator()(const ResultCacheKey& k) const;
  };

  struct Shard {
    Mutex mu;
    /// Front = most recent. The map holds iterators into the list.
    std::list<Entry> lru GUARDED_BY(mu);
    std::unordered_map<ResultCacheKey, std::list<Entry>::iterator, KeyHash>
        index GUARDED_BY(mu);
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
  };

  Shard& ShardOf(const ResultCacheKey& key);
  std::chrono::steady_clock::time_point Now() const;

  /// True when a row invalidation newer than `entry` covers its user or
  /// city. Single atomic load unless the entry predates the newest row
  /// invalidation. Called with the entry's shard lock held; lock order is
  /// shard.mu → floor_mu_ (InvalidateRows takes floor_mu_ alone).
  bool RowStale(const Entry& entry) EXCLUDES(floor_mu_);

  /// Records that every invalidation up to model `version` has run.
  void MarkCurrent(uint64_t version);

  ResultCacheConfig config_;
  size_t per_shard_capacity_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> row_invalidations_{0};
  /// Ticket and row-floor stamps, one order for both; entry.seq <= a row
  /// floor means "model read before that row was patched".
  std::atomic<uint64_t> put_seq_{0};
  /// Highest floor ever set — the fast-path screen in RowStale().
  std::atomic<uint64_t> max_floor_{0};
  /// Highest model version whose invalidation has run (MarkCurrent()).
  std::atomic<uint64_t> current_version_{0};
  Mutex floor_mu_;
  std::unordered_map<UserId, uint64_t> user_floor_ GUARDED_BY(floor_mu_);
  std::unordered_map<CityId, uint64_t> city_floor_ GUARDED_BY(floor_mu_);
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sttr::serve

#endif  // STTR_SERVE_RESULT_CACHE_H_
