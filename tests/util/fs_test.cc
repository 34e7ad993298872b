#include "util/fs.h"

#include <algorithm>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "util/fault_injection.h"
#include "scratch_dir.h"

namespace sttr {
namespace {

std::string TestDir() {
  return testing_util::TestScratchDir("sttr_fs");
}

TEST(PathTest, DirAndBaseName) {
  EXPECT_EQ(DirName("/a/b/c.txt"), "/a/b");
  EXPECT_EQ(BaseName("/a/b/c.txt"), "c.txt");
  EXPECT_EQ(DirName("c.txt"), ".");
  EXPECT_EQ(BaseName("c.txt"), "c.txt");
}

TEST(PathTest, TempFileNameDetection) {
  EXPECT_TRUE(IsTempFileName("ckpt-000001.sttr.tmp.1234"));
  EXPECT_FALSE(IsTempFileName("ckpt-000001.sttr"));
}

TEST(EnvTest, WriteReadRoundTrip) {
  Env& env = *Env::Default();
  const std::string path = TestDir() + "/f.bin";
  const std::string data("hello\0world", 11);  // embedded NUL survives
  ASSERT_TRUE(env.WriteFile(path, data).ok());
  auto read = env.ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(EnvTest, ReadMissingFileIsIOError) {
  auto r = Env::Default()->ReadFile(TestDir() + "/missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(EnvTest, CreateDirIsRecursiveAndIdempotent) {
  Env& env = *Env::Default();
  const std::string dir = TestDir() + "/a/b/c";
  ASSERT_TRUE(env.CreateDir(dir).ok());
  ASSERT_TRUE(env.CreateDir(dir).ok());
  EXPECT_TRUE(env.WriteFile(dir + "/f", "x").ok());
}

TEST(EnvTest, ListDirSortedFilesOnly) {
  Env& env = *Env::Default();
  const std::string dir = TestDir();
  ASSERT_TRUE(env.WriteFile(dir + "/b.txt", "b").ok());
  ASSERT_TRUE(env.WriteFile(dir + "/a.txt", "a").ok());
  ASSERT_TRUE(env.CreateDir(dir + "/subdir").ok());
  auto names = env.ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a.txt", "b.txt"}));
}

TEST(EnvTest, RenameReplacesAndRemoveDeletes) {
  Env& env = *Env::Default();
  const std::string dir = TestDir();
  ASSERT_TRUE(env.WriteFile(dir + "/old", "new contents").ok());
  ASSERT_TRUE(env.WriteFile(dir + "/target", "previous").ok());
  ASSERT_TRUE(env.Rename(dir + "/old", dir + "/target").ok());
  EXPECT_FALSE(env.FileExists(dir + "/old"));
  EXPECT_EQ(*env.ReadFile(dir + "/target"), "new contents");
  ASSERT_TRUE(env.Remove(dir + "/target").ok());
  EXPECT_FALSE(env.FileExists(dir + "/target"));
}

TEST(AtomicWriteTest, WritesAndReplacesWithoutResidue) {
  Env& env = *Env::Default();
  const std::string dir = TestDir();
  const std::string path = dir + "/state.bin";
  ASSERT_TRUE(AtomicWriteFile(env, path, "v1").ok());
  EXPECT_EQ(*env.ReadFile(path), "v1");
  ASSERT_TRUE(AtomicWriteFile(env, path, "v2").ok());
  EXPECT_EQ(*env.ReadFile(path), "v2");
  // No temp files survive a successful write.
  const auto names = env.ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    EXPECT_FALSE(IsTempFileName(name)) << name;
  }
}

using Op = FaultInjectionEnv::Op;

TEST(FaultInjectionTest, FailsExactlyTheScheduledOp) {
  FaultInjectionEnv env;
  const std::string dir = TestDir();
  env.FailNth(Op::kWrite, 1);
  EXPECT_TRUE(env.WriteFile(dir + "/a", "x").ok());   // op 0
  auto second = env.WriteFile(dir + "/b", "x");       // op 1: injected
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), StatusCode::kIOError);
  EXPECT_NE(second.message().find("injected"), std::string::npos);
  EXPECT_TRUE(env.WriteFile(dir + "/c", "x").ok());   // one-shot: op 2 passes
  EXPECT_EQ(env.faults_triggered(), 1u);
  EXPECT_EQ(env.op_count(Op::kWrite), 3u);
}

TEST(FaultInjectionTest, ResetClearsFaultsAndCounters) {
  FaultInjectionEnv env;
  env.FailNth(Op::kRename, 0);
  env.Reset();
  const std::string dir = TestDir();
  ASSERT_TRUE(env.WriteFile(dir + "/a", "x").ok());
  EXPECT_TRUE(env.Rename(dir + "/a", dir + "/b").ok());
  EXPECT_EQ(env.faults_triggered(), 0u);
  EXPECT_EQ(env.op_count(Op::kWrite), 1u);
}

TEST(FaultInjectionTest, TornWriteLeavesHalfTheData) {
  FaultInjectionEnv env;
  env.set_torn_writes(true);
  env.FailNth(Op::kWrite, 0);
  const std::string path = TestDir() + "/torn";
  ASSERT_FALSE(env.WriteFile(path, "0123456789").ok());
  auto left = Env::Default()->ReadFile(path);
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(*left, "01234");  // first half flushed, rest lost
}

TEST(AtomicWriteTest, FailedWriteLeavesTargetUntouched) {
  FaultInjectionEnv env;
  const std::string path = TestDir() + "/state.bin";
  ASSERT_TRUE(AtomicWriteFile(env, path, "v1").ok());
  for (Op op : {Op::kWrite, Op::kFsync, Op::kRename}) {
    env.Reset();
    env.set_torn_writes(true);
    env.FailNth(op, 0);
    EXPECT_FALSE(AtomicWriteFile(env, path, "v2-should-not-appear").ok());
    EXPECT_EQ(*Env::Default()->ReadFile(path), "v1")
        << "op " << static_cast<int>(op);
  }
  // A fsync fault after the rename (the directory sync) is reported, but by
  // then the new data is already in place — both are crash-consistent states.
  env.Reset();
  env.FailNth(Op::kFsync, 1);
  EXPECT_FALSE(AtomicWriteFile(env, path, "v2").ok());
  EXPECT_EQ(*Env::Default()->ReadFile(path), "v2");
}

}  // namespace
}  // namespace sttr
