// Regression tests for the shutdown lifecycle races surfaced by the
// thread-safety-annotation migration. ModelBundle::StopWatcher() used to
// check joinable() under its mutex but join() the *member* thread after
// dropping it, so two concurrent stops — the canonical shape being an
// explicit stop racing the destructor's — could both reach join() on the
// same std::thread handle, which is undefined behaviour (in practice
// std::terminate). It now tracks lifecycle with an explicit
// running_/stopping_ pair: exactly one caller (the one that flips
// stopping_) moves the handle into a local and joins it, a start that races
// an in-progress stop is a no-op (keying it off joinable() instead would
// reset the stop flag and spawn a second watcher while the old loop, now
// unable to see the stop, spins forever — hanging the stopper's join), and
// latecomer stops block until the winner finishes, so a latecoming
// destructor can't free the mutex/condvars under the winner. These tests
// hammer exactly those windows and also run under tools/run_tsan.sh, where
// the old code additionally reports the data race on the thread member.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/model_bundle.h"
#include "serve_test_util.h"

namespace sttr::serve {
namespace {

/// Releases `n` threads as close to simultaneously as possible.
class StartGate {
 public:
  explicit StartGate(size_t n) : waiting_for_(n) {}
  void ArriveAndWait() {
    waiting_for_.fetch_sub(1, std::memory_order_acq_rel);
    while (waiting_for_.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<int64_t> waiting_for_;
};

TEST(ShutdownRaceTest, BundleConcurrentStopWatcherJoinsOnce) {
  ServeFixture fixture = MakeServeFixture();
  ModelBundleConfig config;
  // Empty checkpoint dir: every poll is a NotFound retry, which is exactly
  // the state a watcher spends most of its life in. 1ms keeps it cycling
  // through the wait/reload boundary where StopWatcher must catch it.
  config.checkpoint_dir = ServeTestDir();
  config.model = SmallServingModelConfig();
  config.poll_interval = std::chrono::milliseconds(1);
  ModelBundle bundle(fixture.world.dataset, fixture.split, config);

  constexpr size_t kStoppers = 4;
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    bundle.StartWatcher();
    StartGate gate(kStoppers);
    std::vector<std::thread> stoppers;
    stoppers.reserve(kStoppers);
    for (size_t i = 0; i < kStoppers; ++i) {
      stoppers.emplace_back([&] {
        gate.ArriveAndWait();
        bundle.StopWatcher();
      });
    }
    for (auto& t : stoppers) t.join();
  }
}

TEST(ShutdownRaceTest, BundleStartStopChurnFromManyThreads) {
  ServeFixture fixture = MakeServeFixture();
  ModelBundleConfig config;
  config.checkpoint_dir = ServeTestDir();
  config.model = SmallServingModelConfig();
  config.poll_interval = std::chrono::milliseconds(1);
  ModelBundle bundle(fixture.world.dataset, fixture.split, config);

  constexpr size_t kChurners = 4;
  StartGate gate(kChurners);
  std::vector<std::thread> churners;
  churners.reserve(kChurners);
  for (size_t i = 0; i < kChurners; ++i) {
    churners.emplace_back([&] {
      gate.ArriveAndWait();
      for (int j = 0; j < 25; ++j) {
        bundle.StartWatcher();
        std::this_thread::yield();
        bundle.StopWatcher();
      }
    });
  }
  for (auto& t : churners) t.join();
  // Whatever interleaving happened, a final stop must leave no watcher.
  bundle.StopWatcher();
}

}  // namespace
}  // namespace sttr::serve
