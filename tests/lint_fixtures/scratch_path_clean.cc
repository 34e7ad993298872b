// lint-fixture-as: tests/core/scratch_clean_test.cc
//
// A test that takes its directory from tests/scratch_dir.h lints clean,
// including a TempDir() call next to it; "/tmp/..." in a comment is
// documentation, not a path the test uses.
#include <string>

#include <gtest/gtest.h>

#include "scratch_dir.h"

std::string Dir() {
  const std::string base = ::testing::TempDir();  // e.g. /tmp/
  return sttr::testing_util::ScratchDir("ckpt") + base.substr(0, 0);
}
