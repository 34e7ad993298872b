// Concurrency test for checkpoint-directory maintenance: readers running
// FindLatestValidCheckpoint while a trainer-style writer thread lands new
// checkpoints and rotates after each one must always come back with a fully
// valid, fully verifiable checkpoint — never a torn file (rotation only
// deletes old checkpoints; the newest is sacrosanct). This is the
// serving-side contract ModelBundle's hot-reload watcher depends on.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "util/fs.h"
#include "scratch_dir.h"

namespace sttr {
namespace {

std::string TestDir() {
  return testing_util::TestScratchDir("sttr_ckpt_race");
}

/// A small but real checkpoint container whose payload encodes its epoch.
std::string CheckpointBytes(size_t epoch) {
  CheckpointWriter writer;
  std::string meta;
  AppendU64(meta, epoch);
  writer.AddSection("meta", meta);
  writer.AddSection("model", std::string(1024, static_cast<char>(epoch % 251)));
  return writer.Encode();
}

TEST(CheckpointRaceTest, FindLatestRacingRotationAndWrites) {
  const std::string dir = TestDir();
  Env& env = *Env::Default();

  // Seed one checkpoint so readers never start on an empty directory.
  ASSERT_TRUE(
      AtomicWriteFile(env, dir + "/" + CheckpointFileName(0), CheckpointBytes(0))
          .ok());

  constexpr size_t kEpochs = 60;
  std::atomic<size_t> newest_written{0};
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};

  // Writer: lands checkpoints epoch 1..kEpochs and rotates after each one,
  // exactly as the trainer loop does. (Rotation must stay in the writer
  // thread: it sweeps `*.tmp.*` residue, so running it concurrently with an
  // in-flight AtomicWriteFile would delete the writer's live temp file.)
  std::thread writer([&] {
    for (size_t epoch = 1; epoch <= kEpochs; ++epoch) {
      const std::string path = dir + "/" + CheckpointFileName(epoch);
      if (!AtomicWriteFile(env, path, CheckpointBytes(epoch)).ok()) {
        failures.fetch_add(1);
        break;
      }
      newest_written.store(epoch, std::memory_order_release);
      if (!RotateCheckpoints(env, dir, /*keep=*/2).ok()) {
        failures.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Readers: what the serving watcher does every poll. Every result must
  // (a) exist, (b) re-verify end to end, (c) not be older than rotation
  // allows at the time the lookup started.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!writer_done.load(std::memory_order_acquire)) {
        const size_t floor_epoch =
            newest_written.load(std::memory_order_acquire);
        StatusOr<std::string> latest = FindLatestValidCheckpoint(env, dir);
        if (!latest.ok()) {
          // The directory is never empty, so a lookup can only fail in the
          // sub-millisecond window where every file of a stale listing was
          // rotated away; an immediate retry must recover.
          latest = FindLatestValidCheckpoint(env, dir);
          if (!latest.ok()) {
            failures.fetch_add(1);
            continue;
          }
        }
        // The found file must re-verify end to end — unless rotation beat
        // us to it because two newer checkpoints landed in between, in
        // which case it is gone entirely; what it may never be is torn.
        const StatusOr<CheckpointReader> reader =
            CheckpointReader::Open(env, *latest);
        if (!reader.ok()) {
          if (std::filesystem::exists(*latest)) failures.fetch_add(1);
          continue;
        }
        const StatusOr<size_t> epoch =
            ParseCheckpointEpoch(std::filesystem::path(*latest).filename());
        if (!epoch.ok() || *epoch < floor_epoch) {
          // Monotonicity: a lookup can never surface something older than
          // what was durably the newest before the lookup began.
          failures.fetch_add(1);
        }
      }
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Steady state after the dust settles: rotation kept the newest files,
  // and the very newest epoch survived.
  ASSERT_TRUE(RotateCheckpoints(env, dir, 2).ok());
  const auto latest = FindLatestValidCheckpoint(env, dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*ParseCheckpointEpoch(std::filesystem::path(*latest).filename()),
            kEpochs);
  size_t remaining = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++remaining;
  }
  EXPECT_EQ(remaining, 2u);
}

}  // namespace
}  // namespace sttr
