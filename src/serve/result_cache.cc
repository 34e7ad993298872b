#include "serve/result_cache.h"

#include <algorithm>

#include "util/check.h"

namespace sttr::serve {

namespace {

/// SplitMix64 finaliser: cheap, well-mixed 64-bit hash step.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Cap on each row-invalidation floor map. Far above any realistic delta
/// stream (deltas touch tens to thousands of rows); past it InvalidateRows
/// degrades to a wholesale flush rather than growing without bound.
constexpr size_t kMaxFloorEntries = 1u << 20;

}  // namespace

size_t ResultCache::KeyHash::operator()(const ResultCacheKey& k) const {
  uint64_t h = Mix(static_cast<uint64_t>(k.user));
  h = Mix(h ^ static_cast<uint64_t>(static_cast<int64_t>(k.city)));
  h = Mix(h ^ k.cell);
  h = Mix(h ^ k.k);
  h = Mix(h ^ k.precision);
  return static_cast<size_t>(h);
}

ResultCache::ResultCache(ResultCacheConfig config)
    : config_(std::move(config)) {
  STTR_CHECK_GT(config_.num_shards, 0u);
  per_shard_capacity_ =
      std::max<size_t>(1, config_.capacity / config_.num_shards);
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardOf(const ResultCacheKey& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

std::chrono::steady_clock::time_point ResultCache::Now() const {
  return config_.clock ? config_.clock() : std::chrono::steady_clock::now();
}

std::optional<ResultCache::Value> ResultCache::Get(const ResultCacheKey& key) {
  Value value;
  if (!GetInto(key, &value)) return std::nullopt;
  return value;
}

bool ResultCache::GetInto(const ResultCacheKey& key, const Ticket& ticket,
                          Value* out) {
  const uint64_t gen = generation_.load(std::memory_order_acquire);
  Shard& shard = ShardOf(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  const Entry& entry = *it->second;
  if (entry.version != ticket.version &&
      (entry.version > ticket.version ||
       current_version_.load(std::memory_order_acquire) < ticket.version)) {
    // Another model's value, not (yet) known to hold for this request's
    // model. It may still serve other requests, so it stays.
    ++shard.misses;
    return false;
  }
  const bool expired = config_.ttl.count() > 0 && Now() >= entry.expires_at;
  if (entry.generation != gen || expired || RowStale(entry)) {
    // Stale generation or past TTL: evict lazily, count as a miss.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    ++shard.evictions;
    ++shard.misses;
    return false;
  }
  // Refresh LRU position: splice the hit entry to the front.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  // assign() reuses `out`'s capacity: no allocation once warmed.
  out->assign(it->second->value.begin(), it->second->value.end());
  return true;
}

ResultCache::Ticket ResultCache::TakeTicket() {
  Ticket ticket;
  // Acquire pairs with the release in InvalidateAll()/InvalidateRows(): a
  // ticket that sees an invalidation also sees the snapshot swap before it.
  ticket.generation = generation_.load(std::memory_order_acquire);
  ticket.seq = put_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
  return ticket;
}

void ResultCache::Put(const ResultCacheKey& key, Value value, Ticket ticket) {
  Shard& shard = ShardOf(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  Entry entry;
  entry.key = key;
  entry.value = std::move(value);
  entry.generation = ticket.generation;
  entry.seq = ticket.seq;
  entry.version = ticket.version;
  if (config_.ttl.count() > 0) entry.expires_at = Now() + config_.ttl;
  shard.lru.push_front(std::move(entry));
  shard.index[key] = shard.lru.begin();
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ResultCache::InvalidateAll(uint64_t version) {
  generation_.fetch_add(1, std::memory_order_acq_rel);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  MarkCurrent(version);
}

void ResultCache::MarkCurrent(uint64_t version) {
  // Release pairs with GetInto()'s acquire: a probe that sees `version`
  // current also sees the floors and generation set before it.
  uint64_t cur = current_version_.load(std::memory_order_relaxed);
  while (cur < version && !current_version_.compare_exchange_weak(
                              cur, version, std::memory_order_release,
                              std::memory_order_relaxed)) {
  }
}

void ResultCache::InvalidateRows(std::span<const UserId> users,
                                 std::span<const CityId> cities,
                                 uint64_t version) {
  if (users.empty() && cities.empty()) {
    MarkCurrent(version);
    return;
  }
  // Every ticket at or below this floor predates the patch; tickets taken
  // afterwards come from requests that captured the patched model, and
  // their entries survive. A read-modify-write, so the floor and every
  // ticket fall in one total order and a later ticket synchronizes with it.
  const uint64_t floor = put_seq_.fetch_add(1, std::memory_order_acq_rel);
  {
    MutexLock lock(floor_mu_);
    if (user_floor_.size() + users.size() > kMaxFloorEntries ||
        city_floor_.size() + cities.size() > kMaxFloorEntries) {
      // The wholesale flush kills every resident entry, so the floors have
      // nothing left to outdate and the maps can restart empty.
      user_floor_.clear();
      city_floor_.clear();
      InvalidateAll();
    } else {
      for (UserId u : users) {
        uint64_t& f = user_floor_[u];
        f = std::max(f, floor);
      }
      for (CityId c : cities) {
        uint64_t& f = city_floor_[c];
        f = std::max(f, floor);
      }
    }
  }
  uint64_t cur = max_floor_.load(std::memory_order_relaxed);
  while (cur < floor && !max_floor_.compare_exchange_weak(
                            cur, floor, std::memory_order_release,
                            std::memory_order_relaxed)) {
  }
  row_invalidations_.fetch_add(1, std::memory_order_relaxed);
  MarkCurrent(version);
}

bool ResultCache::RowStale(const Entry& entry) {
  // Fast path: newer than every row invalidation so far → cannot be stale.
  if (entry.seq > max_floor_.load(std::memory_order_acquire)) return false;
  MutexLock lock(floor_mu_);
  auto uit = user_floor_.find(entry.key.user);
  if (uit != user_floor_.end() && entry.seq <= uit->second) return true;
  auto cit = city_floor_.find(entry.key.city);
  return cit != city_floor_.end() && entry.seq <= cit->second;
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.row_invalidations = row_invalidations_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.entries += shard->lru.size();
  }
  return stats;
}

}  // namespace sttr::serve
