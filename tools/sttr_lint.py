#!/usr/bin/env python3
"""Project-invariant linter: the rules the compilers cannot see.

The invariants, each load-bearing for the reproduction's contract
(bit-identical results under any worker count, tier-1 gating in CI):

  banned-randomness   All randomness flows through src/util/rng.* (sttr::Rng,
                      seedable xoshiro256**). rand()/std::random_device/
                      mt19937/time()-seeding anywhere else silently breaks
                      run-to-run determinism.
  raw-mutex           std::mutex / std::condition_variable / std::lock_guard
                      may appear only inside src/util/mutex.h. Everything
                      else uses sttr::Mutex + MutexLock + CondVar so Clang's
                      -Wthread-safety analysis sees every lock in the tree.
  test-include        src/ must never #include from tests/ (library code
                      cannot depend on test scaffolding).
  tier1-label         Every tests/**/*_test.cc is registered through
                      sttr_test() in tests/CMakeLists.txt, which applies the
                      tier1 ctest label CI gates on — an unregistered test
                      is a test that silently never runs.
  no-analysis-escape  NO_THREAD_SAFETY_ANALYSIS is forbidden in src/serve/
                      and src/stream/ (the concurrent serving + ingestion
                      layers must stay fully analyzed) and requires a
                      one-line justification comment everywhere else in
                      src/.
  raw-socket          ::connect / ::send / ::recv / ::poll / ::accept4
                      may appear only inside src/util/socket_io.*
                      (sttr::net::{Connect,Send,Recv,Poll}). A raw call
                      anywhere else bypasses the fault-injection seam the
                      chaos suites rely on, so the fault paths it takes are
                      exactly the ones that never get tested. (::poll was
                      added when the router's fan-out loop was found to
                      escape the seam; ::accept4 preemptively with it.)
  test-scratch-path   Test code under tests/ never names a fixed scratch
                      path: no "/tmp/..." string literal, and no TempDir()
                      call in a file that does not include
                      tests/scratch_dir.h. ctest runs test cases as
                      parallel processes, and a shared fixed directory lets
                      one process delete another's files mid-write;
                      scratch_dir.h gives each process its own (mkdtemp).

Runs as a tier-1 ctest (sttr_lint) plus a fixture-driven self-test
(sttr_lint_selftest); see tools/README.md.
"""

import os
import re
import sys

RULES = {
    "banned-randomness": "non-Rng randomness source in src/ (determinism)",
    "raw-mutex": "raw std mutex primitive outside src/util/mutex.h",
    "test-include": "src/ file #includes test scaffolding from tests/",
    "tier1-label": "test file not registered with the tier1 ctest label",
    "no-analysis-escape":
        "NO_THREAD_SAFETY_ANALYSIS in src/serve/ or src/stream/, or "
        "without justification",
    "raw-socket":
        "raw ::connect/::send/::recv/::poll/::accept4 outside "
        "src/util/socket_io.*",
    "test-scratch-path":
        "fixed scratch path in tests/: a \"/tmp/...\" literal, or TempDir() "
        "without tests/scratch_dir.h",
}

# Randomness sources that bypass sttr::Rng. \b guards keep identifiers like
# `operand(` or `grand_total` from matching.
BANNED_RANDOMNESS = re.compile(
    r"\b(?:s?rand|s?random|drand48|[lm]rand48)\s*\(|"
    r"\brandom_device\b|\bmt19937(?:_64)?\b|\bminstd_rand0?\b|"
    r"\bdefault_random_engine\b|\branlux\d+\b|"
    r"(?:std::)?\btime\s*\(\s*(?:nullptr|NULL|0)?\s*\)")

# Raw standard primitives that would be invisible to -Wthread-safety.
RAW_MUTEX = re.compile(
    r"\bstd::(?:recursive_|shared_|timed_)?mutex\b|"
    r"\bstd::condition_variable(?:_any)?\b|"
    r"\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
    r"\bpthread_(?:mutex|cond|rwlock)_t\b")

# Matched against the raw line (the comment/string stripper blanks the
# quoted path); the ^ anchor keeps commented-out includes from firing.
TEST_INCLUDE = re.compile(r'^\s*#\s*include\s*[<"](?:\.\./)*tests/')

# Globally-qualified socket syscalls that would bypass sttr::net's
# fault-injection seam. Requiring the leading :: is deliberate: net::Send /
# any_object.send(...) stay legal, and the wrappers themselves are the only
# place a bare ::send belongs.
RAW_SOCKET = re.compile(r"(?<![\w:])::(?:connect|send|recv|poll|accept4)\s*\(")

ESCAPE_MACRO = "NO_THREAD_SAFETY_ANALYSIS"

# A string literal naming /tmp or a path under it; matched with comments
# blanked but string contents kept.
TMP_LITERAL = re.compile(r'"/tmp(?:/|")')
# gtest's ::testing::TempDir(): one directory shared by every test process.
TEMPDIR_CALL = re.compile(r"\bTempDir\s*\(")
SCRATCH_INCLUDE = re.compile(
    r'^\s*#\s*include\s*"(?:tests/)?scratch_dir\.h"', re.MULTILINE)

# Files whose existence defines the allowed homes of the banned constructs.
RNG_HOME = ("src/util/rng.h", "src/util/rng.cc")
MUTEX_HOME = ("src/util/mutex.h",)
ANNOTATIONS_HOME = ("src/util/thread_annotations.h",)
SOCKET_HOME = ("src/util/socket_io.h", "src/util/socket_io.cc")
SCRATCH_HOME = ("tests/scratch_dir.h",)

FIXTURE_DIR = "tests/lint_fixtures"


class Violation:
    def __init__(self, rule, path, line, text):
        self.rule = rule
        self.path = path
        self.line = line
        self.text = text

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.text.strip()}"


# R"delim( possibly preceded by an encoding prefix, anchored so the check
# below can demand the prefix is a whole token (FOOR"x" is the identifier
# FOOR followed by an ordinary string, not a raw string).
RAW_STRING_INTRO = re.compile(r"(?:u8|[uUL])?R$")


def _is_digit_separator(source, i):
    """True when source[i] == "'" separates digits of one numeric literal

    (1'000'000, 0xdead'beef) rather than opening a char literal."""
    prev_c = source[i - 1] if i > 0 else ""
    next_c = source[i + 1] if i + 1 < len(source) else ""
    hexdigits = "0123456789abcdefABCDEF"
    if prev_c not in hexdigits or next_c not in hexdigits:
        return False
    # Walk back over the token: a separator only exists inside a literal
    # that *starts* with a digit, so u8'a' / L'a' stay char literals even
    # though 'a' and '8' are hex digits.
    j = i - 1
    while j >= 0 and (source[j].isalnum() or source[j] in "'."):
        j -= 1
    return source[j + 1].isdigit()


def strip_comments_and_strings(source, keep_strings=False):
    """Blanks comments and string/char literals, preserving line structure,

    so a rule regex never fires on documentation or log text. Knows C++14
    digit separators (1'000'000 is code, not a char literal) and raw string
    literals (R"delim(...)delim", where escapes and quotes are inert).
    With `keep_strings`, only comments are blanked."""

    def literal(text):
        if keep_strings:
            return text
        return "".join("\n" if ch == "\n" else " " for ch in text)

    out = []
    i, n = 0, len(source)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                intro = RAW_STRING_INTRO.search(source, max(0, i - 3), i)
                if intro is not None and (
                        intro.start() == 0 or
                        not (source[intro.start() - 1].isalnum()
                             or source[intro.start() - 1] == "_")):
                    # Raw string: blank through the matching )delim" in one
                    # step — no escape or quote handling applies inside.
                    open_paren = source.find("(", i + 1)
                    delim = source[i + 1:open_paren] if open_paren != -1 else ""
                    terminator = ')' + delim + '"'
                    end = (source.find(terminator, open_paren + 1)
                           if open_paren != -1 else -1)
                    end = n if end == -1 else end + len(terminator)
                    out.append(literal(source[i:end]))
                    i = end
                    continue
                state = "string"
                out.append(literal(c))
                i += 1
                continue
            if c == "'":
                if _is_digit_separator(source, i):
                    out.append(c)
                    i += 1
                    continue
                state = "char"
                out.append(literal(c))
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(literal(source[i:i + 2]))
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(literal(c))
        i += 1
    return "".join(out)


def lint_source_file(rel_path, source):
    """Rules over one src/ file; `rel_path` uses forward slashes."""
    violations = []
    stripped = strip_comments_and_strings(source).splitlines()
    raw = source.splitlines()

    for lineno, line in enumerate(stripped, start=1):
        if rel_path not in RNG_HOME and BANNED_RANDOMNESS.search(line):
            violations.append(
                Violation("banned-randomness", rel_path, lineno,
                          raw[lineno - 1]))
        if (rel_path not in MUTEX_HOME and rel_path not in ANNOTATIONS_HOME
                and RAW_MUTEX.search(line)):
            violations.append(
                Violation("raw-mutex", rel_path, lineno, raw[lineno - 1]))
        if TEST_INCLUDE.search(raw[lineno - 1]):
            violations.append(
                Violation("test-include", rel_path, lineno, raw[lineno - 1]))
        if rel_path not in SOCKET_HOME and RAW_SOCKET.search(line):
            violations.append(
                Violation("raw-socket", rel_path, lineno, raw[lineno - 1]))

    if rel_path not in ANNOTATIONS_HOME:
        for lineno, line in enumerate(stripped, start=1):
            if ESCAPE_MACRO not in line:
                continue
            if rel_path.startswith(("src/serve/", "src/stream/")):
                violations.append(
                    Violation("no-analysis-escape", rel_path, lineno,
                              "escape hatch is forbidden in src/serve/ and "
                              "src/stream/"))
                continue
            # Elsewhere: demand a justification comment on the same line or
            # the line above (the raw text still has the comments).
            same = "//" in raw[lineno - 1].split(ESCAPE_MACRO, 1)[1]
            above = lineno >= 2 and raw[lineno - 2].lstrip().startswith("//")
            if not (same or above):
                violations.append(
                    Violation("no-analysis-escape", rel_path, lineno,
                              "add a one-line justification comment"))
    return violations


def lint_test_file(rel_path, source):
    """Rules over one tests/ file; `rel_path` uses forward slashes."""
    if rel_path in SCRATCH_HOME:
        return []
    violations = []
    raw = source.splitlines()
    code = strip_comments_and_strings(source).splitlines()
    with_strings = strip_comments_and_strings(
        source, keep_strings=True).splitlines()
    has_scratch = SCRATCH_INCLUDE.search(source) is not None
    for lineno, line in enumerate(with_strings, start=1):
        if TMP_LITERAL.search(line):
            violations.append(
                Violation("test-scratch-path", rel_path, lineno,
                          raw[lineno - 1]))
        elif not has_scratch and TEMPDIR_CALL.search(code[lineno - 1]):
            violations.append(
                Violation("test-scratch-path", rel_path, lineno,
                          "TempDir() without tests/scratch_dir.h: use "
                          "ScratchDir()/TestScratchDir()"))
    return violations


def lint_file(rel_path, source):
    """The rules for `rel_path`'s tree: tests/ files get the test rules,
    everything else the src/ rules."""
    if rel_path.startswith("tests/"):
        return lint_test_file(rel_path, source)
    return lint_source_file(rel_path, source)


def lint_tier1_registration(tests_dir, cmakelists_path):
    """Every *_test.cc under `tests_dir` must be named in an sttr_test()

    call in `cmakelists_path` (sttr_test applies LABELS tier1)."""
    violations = []
    try:
        with open(cmakelists_path, encoding="utf-8") as f:
            cmake = strip_cmake_comments(f.read())
    except OSError:
        return [Violation("tier1-label", cmakelists_path, 1,
                          "tests/CMakeLists.txt is missing")]
    registered = set(re.findall(r"sttr_test\s*\(\s*[\w-]+\s+([^\s)]+)", cmake))
    for root, _dirs, files in os.walk(tests_dir):
        rel_root = os.path.relpath(root, tests_dir).replace(os.sep, "/")
        if rel_root.startswith("lint_fixtures"):
            continue
        for name in sorted(files):
            if not name.endswith("_test.cc"):
                continue
            rel = name if rel_root == "." else f"{rel_root}/{name}"
            if rel not in registered:
                violations.append(
                    Violation("tier1-label", f"tests/{rel}", 1,
                              "not registered via sttr_test() in "
                              "tests/CMakeLists.txt"))
    return violations


def strip_cmake_comments(text):
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def iter_source_files(src_dir):
    for root, _dirs, files in os.walk(src_dir):
        for name in sorted(files):
            if name.endswith((".h", ".hpp", ".cc", ".cpp")):
                yield os.path.join(root, name)


def lint_repo(repo_root):
    violations = []
    for tree in ("src", "tests"):
        for path in iter_source_files(os.path.join(repo_root, tree)):
            rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
            if rel.startswith(FIXTURE_DIR + "/"):
                continue
            with open(path, encoding="utf-8") as f:
                violations.extend(lint_file(rel, f.read()))
    violations.extend(
        lint_tier1_registration(
            os.path.join(repo_root, "tests"),
            os.path.join(repo_root, "tests", "CMakeLists.txt")))
    return violations


FIXTURE_AS = re.compile(r"lint-fixture-as:\s*(\S+)")
EXPECT = re.compile(r"expect-violation:\s*([\w-]+)")


def self_test(repo_root):
    """Fixture-driven check that each rule actually fires (and only where

    expected). Each tests/lint_fixtures/*.cc declares, in comments:
      // lint-fixture-as: src/serve/foo.cc   (path the rule should see)
      // expect-violation: raw-mutex         (zero or more)
    A fixture with no expect-violation lines must lint clean."""
    fixture_dir = os.path.join(repo_root, FIXTURE_DIR)
    fixtures = sorted(
        f for f in os.listdir(fixture_dir) if f.endswith((".cc", ".h")))
    if not fixtures:
        print(f"self-test: no fixtures in {FIXTURE_DIR}", file=sys.stderr)
        return 1
    failures = 0
    for name in fixtures:
        with open(os.path.join(fixture_dir, name), encoding="utf-8") as f:
            source = f.read()
        as_match = FIXTURE_AS.search(source)
        rel_path = as_match.group(1) if as_match else f"src/{name}"
        expected = sorted(EXPECT.findall(source))
        got = sorted({v.rule for v in lint_file(rel_path, source)})
        if got != expected:
            failures += 1
            print(f"self-test FAIL {name} (as {rel_path}):\n"
                  f"  expected rules: {expected or ['<clean>']}\n"
                  f"  fired rules:    {got or ['<clean>']}", file=sys.stderr)
        else:
            print(f"self-test ok    {name}: "
                  f"{', '.join(expected) if expected else 'clean'}")

    # tier1-label is path-structural, so it gets directory fixtures: a tests
    # tree whose CMakeLists misses one test must trip, a complete one not.
    for case, want in (("tier1_bad", True), ("tier1_good", False)):
        case_dir = os.path.join(fixture_dir, case)
        got = lint_tier1_registration(
            os.path.join(case_dir, "tests"),
            os.path.join(case_dir, "tests", "CMakeLists.txt"))
        fired = any(v.rule == "tier1-label" for v in got)
        if fired != want:
            failures += 1
            print(f"self-test FAIL {case}: tier1-label "
                  f"{'did not fire' if want else 'fired'}", file=sys.stderr)
        else:
            print(f"self-test ok    {case}: "
                  f"tier1-label {'fired' if want else 'clean'}")

    if failures:
        print(f"self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"self-test: all {len(fixtures) + 2} fixture cases passed.")
    return 0


def usage():
    rows = [
        (f"--root={os.path.dirname(os.path.dirname(os.path.abspath(__file__)))}",
         "repository root to lint"),
        ("--self-test", "run the rules against tests/lint_fixtures/ and exit"),
        ("--list-rules", "print every rule with its rationale and exit"),
        ("--help", "print this help and exit"),
    ]
    width = max(len(flag) for flag, _ in rows)
    lines = [
        "usage: tools/sttr_lint.py [--root=DIR] [--self-test] [--list-rules]",
        "",
        "Enforces the project invariants the compilers cannot see; any",
        "violation fails the run. Registered as the tier-1 ctests sttr_lint",
        "and sttr_lint_selftest.",
        "",
        "flags:",
    ]
    for flag, desc in rows:
        lines.append(f"  {flag}{' ' * (width - len(flag) + 2)}{desc}")
    return "\n".join(lines) + "\n"


def main(argv):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run_self_test = False
    for arg in argv[1:]:
        if arg.startswith("--root="):
            repo_root = arg[len("--root="):]
        elif arg == "--self-test":
            run_self_test = True
        elif arg == "--list-rules":
            width = max(len(r) for r in RULES)
            for rule, why in RULES.items():
                print(f"  {rule}{' ' * (width - len(rule) + 2)}{why}")
            return 0
        elif arg in ("--help", "-h"):
            sys.stdout.write(usage())
            return 0
        else:
            print(f"error: unknown flag '{arg}' (see --help)",
                  file=sys.stderr)
            return 2

    if run_self_test:
        return self_test(repo_root)

    violations = lint_repo(repo_root)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        print(f"sttr_lint: {len(violations)} violation(s).", file=sys.stderr)
        return 1
    print("sttr_lint: clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
