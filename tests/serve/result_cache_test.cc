// ResultCache: LRU ordering, TTL expiry on an injected clock, O(1)
// generation-bump invalidation, sharding, and concurrent access.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/result_cache.h"

namespace sttr::serve {
namespace {

ResultCacheKey Key(UserId user, uint64_t cell = 0, uint32_t k = 10,
                   CityId city = 1) {
  ResultCacheKey key;
  key.user = user;
  key.city = city;
  key.cell = cell;
  key.k = k;
  return key;
}

ResultCache::Value Val(PoiId poi, double score) { return {{poi, score}}; }

TEST(ResultCacheTest, PutGetRoundTrip) {
  ResultCache cache(ResultCacheConfig{});
  EXPECT_FALSE(cache.Get(Key(1)).has_value());
  cache.Put(Key(1), Val(42, 0.5));
  const auto hit = cache.Get(Key(1));
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0].first, 42);
  EXPECT_EQ((*hit)[0].second, 0.5);
}

TEST(ResultCacheTest, DistinctKeyComponentsAreDistinctEntries) {
  ResultCache cache(ResultCacheConfig{});
  cache.Put(Key(1, /*cell=*/0, /*k=*/10), Val(1, 1.0));
  EXPECT_FALSE(cache.Get(Key(2, 0, 10)).has_value());   // other user
  EXPECT_FALSE(cache.Get(Key(1, 1, 10)).has_value());   // other cell
  EXPECT_FALSE(cache.Get(Key(1, 0, 20)).has_value());   // other k
  EXPECT_FALSE(cache.Get(Key(1, 0, 10, 2)).has_value());  // other city
  EXPECT_TRUE(cache.Get(Key(1, 0, 10)).has_value());
}

TEST(ResultCacheTest, PutReplacesExistingEntry) {
  ResultCache cache(ResultCacheConfig{});
  cache.Put(Key(1), Val(7, 0.1));
  cache.Put(Key(1), Val(8, 0.2));
  const auto hit = cache.Get(Key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].first, 8);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(ResultCacheTest, EvictsLruBeyondCapacity) {
  ResultCacheConfig config;
  config.num_shards = 1;  // single shard so capacity is exact
  config.capacity = 3;
  ResultCache cache(config);
  cache.Put(Key(1), Val(1, 1));
  cache.Put(Key(2), Val(2, 2));
  cache.Put(Key(3), Val(3, 3));
  ASSERT_TRUE(cache.Get(Key(1)).has_value());  // refresh 1: LRU is now 2
  cache.Put(Key(4), Val(4, 4));                // evicts 2
  EXPECT_TRUE(cache.Get(Key(1)).has_value());
  EXPECT_FALSE(cache.Get(Key(2)).has_value());
  EXPECT_TRUE(cache.Get(Key(3)).has_value());
  EXPECT_TRUE(cache.Get(Key(4)).has_value());
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().entries, 3u);
}

TEST(ResultCacheTest, TtlExpiresOnInjectedClock) {
  auto now = std::chrono::steady_clock::time_point{};
  ResultCacheConfig config;
  config.ttl = std::chrono::milliseconds(100);
  config.clock = [&now] { return now; };
  ResultCache cache(config);

  cache.Put(Key(1), Val(1, 1));
  now += std::chrono::milliseconds(99);
  EXPECT_TRUE(cache.Get(Key(1)).has_value());
  now += std::chrono::milliseconds(2);  // 101ms after Put
  EXPECT_FALSE(cache.Get(Key(1)).has_value());
  // The expired entry was lazily evicted by the failed Get.
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ResultCacheTest, ZeroTtlNeverExpires) {
  auto now = std::chrono::steady_clock::time_point{};
  ResultCacheConfig config;
  config.ttl = std::chrono::milliseconds(0);
  config.clock = [&now] { return now; };
  ResultCache cache(config);
  cache.Put(Key(1), Val(1, 1));
  now += std::chrono::hours(1000);
  EXPECT_TRUE(cache.Get(Key(1)).has_value());
}

TEST(ResultCacheTest, InvalidateAllDropsEveryEntry) {
  ResultCache cache(ResultCacheConfig{});
  for (UserId u = 0; u < 100; ++u) cache.Put(Key(u), Val(u, 1.0));
  cache.InvalidateAll();
  for (UserId u = 0; u < 100; ++u) {
    EXPECT_FALSE(cache.Get(Key(u)).has_value()) << "user " << u;
  }
  EXPECT_EQ(cache.GetStats().invalidations, 1u);
  // New puts after the invalidation are served again.
  cache.Put(Key(5), Val(9, 2.0));
  EXPECT_TRUE(cache.Get(Key(5)).has_value());
}

TEST(ResultCacheTest, StatsCountHitsAndMisses) {
  ResultCache cache(ResultCacheConfig{});
  cache.Get(Key(1));  // miss
  cache.Put(Key(1), Val(1, 1));
  cache.Get(Key(1));  // hit
  cache.Get(Key(1));  // hit
  cache.Get(Key(2));  // miss
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ResultCacheTest, ConcurrentMixedTrafficIsSafe) {
  ResultCacheConfig config;
  config.capacity = 64;  // small enough to force constant eviction
  ResultCache cache(config);
  std::atomic<uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5000; ++i) {
        const UserId u = (t * 37 + i) % 200;
        if (i % 3 == 0) {
          cache.Put(Key(u), Val(u, static_cast<double>(i)));
        } else if (auto hit = cache.Get(Key(u))) {
          EXPECT_EQ((*hit)[0].first, u);
          observed_hits.fetch_add(1);
        }
        if (i % 1000 == 999) cache.InvalidateAll();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(observed_hits.load(), 0u);
  EXPECT_LE(cache.GetStats().entries, 64u + 8u);  // capacity, give-or-take lazy eviction
}

TEST(ResultCacheTest, InvalidateRowsDropsMatchingUsersOnly) {
  ResultCache cache(ResultCacheConfig{});
  for (UserId u = 1; u <= 3; ++u) cache.Put(Key(u), Val(u, 1.0));
  const std::vector<UserId> users = {2};
  cache.InvalidateRows(users, {});
  EXPECT_TRUE(cache.Get(Key(1)).has_value());
  EXPECT_FALSE(cache.Get(Key(2)).has_value());
  EXPECT_TRUE(cache.Get(Key(3)).has_value());
  EXPECT_EQ(cache.GetStats().row_invalidations, 1u);
}

TEST(ResultCacheTest, InvalidateRowsDropsMatchingCities) {
  ResultCache cache(ResultCacheConfig{});
  cache.Put(Key(1, 0, 10, /*city=*/7), Val(1, 1.0));
  cache.Put(Key(2, 0, 10, /*city=*/8), Val(2, 1.0));
  const std::vector<CityId> cities = {7};
  cache.InvalidateRows({}, cities);
  // Every entry in city 7 is gone regardless of user; city 8 survives.
  EXPECT_FALSE(cache.Get(Key(1, 0, 10, 7)).has_value());
  EXPECT_TRUE(cache.Get(Key(2, 0, 10, 8)).has_value());
}

TEST(ResultCacheTest, InvalidateRowsSparesEntriesPutAfterward) {
  ResultCache cache(ResultCacheConfig{});
  const std::vector<UserId> users = {1};
  cache.Put(Key(1), Val(1, 1.0));
  cache.InvalidateRows(users, {});
  EXPECT_FALSE(cache.Get(Key(1)).has_value());
  // A result computed AFTER the patch saw the new rows and must be served.
  cache.Put(Key(1), Val(1, 2.0));
  const auto hit = cache.Get(Key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].second, 2.0);
  // ...until the next patch of the same row outdates it again.
  cache.InvalidateRows(users, {});
  EXPECT_FALSE(cache.Get(Key(1)).has_value());
}

// The serving interleaving, step by step: a request takes its ticket and
// captures the pre-delta model, the delta lands (invalidation), and only
// then does the request Put() what it scored. The entry must not be served:
// its scores are the old model's, though the Put() postdates the patch.
TEST(ResultCacheTest, ResultScoredBeforeRowInvalidationIsNeverFresh) {
  ResultCache cache(ResultCacheConfig{});
  const std::vector<UserId> users = {1};
  const std::vector<CityId> cities = {7};

  const ResultCache::Ticket user_request = cache.TakeTicket();
  const ResultCache::Ticket city_request = cache.TakeTicket();
  const ResultCache::Ticket bystander = cache.TakeTicket();
  cache.InvalidateRows(users, cities);
  cache.Put(Key(1), Val(1, 1.0), user_request);
  cache.Put(Key(2, 0, 10, /*city=*/7), Val(2, 1.0), city_request);
  cache.Put(Key(3), Val(3, 1.0), bystander);
  EXPECT_FALSE(cache.Get(Key(1)).has_value()) << "patched user served stale";
  EXPECT_FALSE(cache.Get(Key(2, 0, 10, 7)).has_value())
      << "patched city served stale";
  EXPECT_TRUE(cache.Get(Key(3)).has_value()) << "untouched row dropped";

  // A request that starts after the patch scores the patched model.
  cache.Put(Key(1), Val(1, 2.0), cache.TakeTicket());
  const auto hit = cache.Get(Key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].second, 2.0);
}

// The same interleaving around a wholesale flush (hot reload).
TEST(ResultCacheTest, ResultScoredBeforeInvalidateAllIsNeverFresh) {
  ResultCache cache(ResultCacheConfig{});
  const ResultCache::Ticket in_flight = cache.TakeTicket();
  cache.InvalidateAll();
  cache.Put(Key(1), Val(1, 1.0), in_flight);
  EXPECT_FALSE(cache.Get(Key(1)).has_value());
  cache.Put(Key(1), Val(1, 2.0), cache.TakeTicket());
  EXPECT_TRUE(cache.Get(Key(1)).has_value());
}

// The window the bundle's order (swap, then invalidate) leaves open: a
// request that already uses the patched model probes before the patch's
// invalidation has run. It must not take an entry of the older model until
// that invalidation has run — and then only for rows the patch left alone.
TEST(ResultCacheTest, ProbeWaitsForTheInvalidationOfItsModelVersion) {
  ResultCache cache(ResultCacheConfig{});
  const auto TicketAt = [&](uint64_t version) {
    ResultCache::Ticket ticket = cache.TakeTicket();
    ticket.version = version;
    return ticket;
  };
  cache.InvalidateAll(/*version=*/1);
  cache.Put(Key(1), Val(1, 1.0), TicketAt(1));  // user 1: patched below
  cache.Put(Key(2), Val(2, 1.0), TicketAt(1));  // user 2: untouched

  // Version 2 is swapped in; its invalidation has not run yet.
  ResultCache::Value out;
  EXPECT_FALSE(cache.GetInto(Key(1), TicketAt(2), &out));
  EXPECT_FALSE(cache.GetInto(Key(2), TicketAt(2), &out));
  // Requests still on version 1 keep their hits meanwhile.
  EXPECT_TRUE(cache.GetInto(Key(2), TicketAt(1), &out));

  const std::vector<UserId> users = {1};
  cache.InvalidateRows(users, {}, /*version=*/2);
  EXPECT_FALSE(cache.GetInto(Key(1), TicketAt(2), &out));
  EXPECT_TRUE(cache.GetInto(Key(2), TicketAt(2), &out));

  // A value of a newer model never answers a request on an older one.
  cache.Put(Key(3), Val(3, 1.0), TicketAt(3));
  EXPECT_FALSE(cache.GetInto(Key(3), TicketAt(2), &out));
  EXPECT_TRUE(cache.GetInto(Key(3), TicketAt(3), &out));
}

TEST(ResultCacheTest, EmptyInvalidateRowsIsANoOp) {
  ResultCache cache(ResultCacheConfig{});
  cache.Put(Key(1), Val(1, 1.0));
  cache.InvalidateRows({}, {});
  EXPECT_TRUE(cache.Get(Key(1)).has_value());
  EXPECT_EQ(cache.GetStats().row_invalidations, 0u);
}

TEST(ResultCacheTest, FloorOverflowDegradesToFullFlush) {
  ResultCache cache(ResultCacheConfig{});
  cache.Put(Key(1), Val(1, 1.0));
  cache.Put(Key(999999), Val(2, 1.0));
  // More distinct rows than the floor index may hold: the call must stay
  // correct by degrading to a wholesale flush (coarser, never stale).
  std::vector<UserId> flood((1u << 20) + 1);
  for (size_t i = 0; i < flood.size(); ++i) {
    flood[i] = static_cast<UserId>(i + 100);
  }
  cache.InvalidateRows(flood, {});
  EXPECT_FALSE(cache.Get(Key(1)).has_value());  // not even in `flood`
  EXPECT_FALSE(cache.Get(Key(999999)).has_value());
  EXPECT_GE(cache.GetStats().invalidations, 1u);
  // The index restarted empty, so row-level precision is back.
  cache.Put(Key(1), Val(1, 3.0));
  cache.Put(Key(2), Val(2, 3.0));
  const std::vector<UserId> one = {1};
  cache.InvalidateRows(one, {});
  EXPECT_FALSE(cache.Get(Key(1)).has_value());
  EXPECT_TRUE(cache.Get(Key(2)).has_value());
}

// TSan shape: readers and writers race InvalidateRows. The safety property
// is freedom from data races plus the staleness invariant spot-checked at
// the end (a final row patch with no later Put must never be served).
TEST(ResultCacheTest, ConcurrentRowInvalidationIsSafe) {
  ResultCache cache(ResultCacheConfig{});
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 3000; ++i) {
        const UserId u = (t * 41 + i) % 64;
        if (i % 2 == 0) {
          cache.Put(Key(u), Val(u, static_cast<double>(i)));
        } else if (auto hit = cache.Get(Key(u))) {
          EXPECT_EQ((*hit)[0].first, u);
        }
      }
    });
  }
  std::thread invalidator([&] {
    for (int i = 0; i < 1000; ++i) {
      const std::vector<UserId> users = {static_cast<UserId>(i % 64)};
      const std::vector<CityId> cities = {static_cast<CityId>(i % 4)};
      cache.InvalidateRows(users, cities);
    }
  });
  for (auto& th : threads) th.join();
  invalidator.join();

  for (UserId u = 0; u < 64; ++u) {
    const std::vector<UserId> users = {u};
    cache.InvalidateRows(users, {});
    EXPECT_FALSE(cache.Get(Key(u)).has_value()) << "stale user " << u;
  }
}

}  // namespace
}  // namespace sttr::serve
