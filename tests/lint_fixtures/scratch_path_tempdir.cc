// lint-fixture-as: tests/core/tempdir_test.cc
// expect-violation: test-scratch-path
//
// gtest's TempDir() is shared by every test process; without
// tests/scratch_dir.h there is no per-process directory under it. Names
// that merely end in TempDir must NOT fire.
#include <string>

#include <gtest/gtest.h>

std::string MyTempDir();

std::string Legal() { return MyTempDir(); }

std::string Illegal() { return ::testing::TempDir() + "ckpt"; }
