// lint-fixture-as: tests/serve/tmp_literal_test.cc
// expect-violation: test-scratch-path
//
// A literal under /tmp is one directory for every test process ctest runs
// in parallel. The spellings below must NOT fire: a path in a comment
// ("/tmp/in_a_comment"), a flag value that merely contains /tmp, and a
// relative path.
#include <string>

std::string Legal() {
  return std::string("--out=/tmp/x") + "data/tmp/y";
}

std::string Illegal() { return "/tmp/sttr_ckpt"; }

std::string AlsoIllegal() { return "/tmp"; }
