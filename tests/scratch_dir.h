#ifndef STTR_TESTS_SCRATCH_DIR_H_
#define STTR_TESTS_SCRATCH_DIR_H_

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "util/check.h"

namespace sttr::testing_util {

namespace internal {

/// The scratch directories this process created, removed at exit.
class ScratchDirs {
 public:
  ~ScratchDirs() {
    // A forked child (death tests) that exits normally must not remove
    // its parent's directories.
    if (::getpid() != owner_) return;
    for (const auto& [name, dir] : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

  std::string Get(const std::string& name) {
    auto it = dirs_.find(name);
    if (it != dirs_.end()) {
      std::filesystem::remove_all(it->second);
      std::filesystem::create_directories(it->second);
      return it->second;
    }
    const std::string pattern =
        (std::filesystem::path(::testing::TempDir()) /
         (name + "_" + std::to_string(::getpid()) + "_XXXXXX"))
            .string();
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    STTR_CHECK(::mkdtemp(buf.data()) != nullptr) << "mkdtemp " << pattern;
    return dirs_.emplace(name, std::string(buf.data())).first->second;
  }

 private:
  const pid_t owner_ = ::getpid();
  std::map<std::string, std::string> dirs_;
};

inline ScratchDirs& Registry() {
  static ScratchDirs dirs;
  return dirs;
}

}  // namespace internal

/// An empty scratch directory private to this test process:
/// <gtest TempDir>/<name>_<pid>_XXXXXX, created by mkdtemp. ctest runs every
/// gtest case in its own process, often several at once, so a directory
/// named after the suite or test alone is shared by sibling processes that
/// wipe each other's files mid-write; the pid and the random suffix rule
/// that out. Calling again with the same `name` in one process returns the
/// same path, emptied. Everything is removed when the process exits. Call
/// from the test's main thread.
inline std::string ScratchDir(const std::string& name) {
  return internal::Registry().Get(name);
}

/// ScratchDir keyed by the running test ("<prefix>_<suite>_<test>"), or by
/// the suite outside a test body (e.g. in SetUpTestSuite).
inline std::string TestScratchDir(const std::string& prefix) {
  const auto* unit = ::testing::UnitTest::GetInstance();
  const auto* info = unit->current_test_info();
  std::string leaf;
  if (info != nullptr) {
    leaf = std::string(info->test_suite_name()) + "_" + info->name();
  } else if (unit->current_test_suite() != nullptr) {
    leaf = std::string(unit->current_test_suite()->name()) + "_suite";
  } else {
    leaf = "suite";
  }
  // Parameterized names carry '/', which must not nest directories.
  for (char& c : leaf) {
    if (c == '/') c = '_';
  }
  return ScratchDir(prefix + "_" + leaf);
}

}  // namespace sttr::testing_util

#endif  // STTR_TESTS_SCRATCH_DIR_H_
