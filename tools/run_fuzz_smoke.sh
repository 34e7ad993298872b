#!/usr/bin/env bash
# Time-boxed libFuzzer smoke run over the tests/fuzz/ harnesses: configures
# a Clang build tree with -DSTTR_FUZZ=ON (libFuzzer + ASan), then runs each
# fuzzer seeded from its committed corpus for a bounded wall-clock budget.
# This is a smoke test — it catches shallow regressions in the parsers on
# every CI run; long-running fuzz campaigns happen out of band. The replay
# side of the same harnesses (fuzz_driver.h) runs as tier-1 ctests in every
# ordinary build, so the committed seeds gate even without Clang.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-fuzz"
budget_s=20

usage() {
  cat <<EOF
usage: tools/run_fuzz_smoke.sh [--build-dir=DIR] [--budget=SECONDS]

Builds the tests/fuzz/ harnesses with -DSTTR_FUZZ=ON (Clang + libFuzzer +
ASan) and runs each for SECONDS of fuzzing seeded from tests/fuzz/corpus/.
Any crash or FUZZ_CHECK failure fails the run.

flags:
  --build-dir=${repo_root}/build-fuzz  libFuzzer build tree (created if absent)
  --budget=20                          per-harness fuzz time in seconds
  --help                               print this help and exit
EOF
}

for arg in "$@"; do
  case "${arg}" in
    --build-dir=*) build_dir="${arg#--build-dir=}" ;;
    --budget=*) budget_s="${arg#--budget=}" ;;
    --help|-h) usage; exit 0 ;;
    *) echo "error: unknown flag '${arg}' (see --help)" >&2; exit 2 ;;
  esac
done

# Gate on the toolchain rather than hard-failing: libFuzzer needs Clang, and
# dev containers that only ship GCC still exercise these harnesses through
# the tier-1 corpus-replay tests. CI's fuzz-smoke job installs Clang and
# does gate on crashes. Same skip-with-notice contract as run_tidy.sh.
clangxx=""
for candidate in clang++ clang++-18 clang++-17 clang++-16 clang++-15 \
                 clang++-14; do
  if command -v "${candidate}" > /dev/null 2>&1; then
    clangxx="${candidate}"
    break
  fi
done
if [[ -z "${clangxx}" ]]; then
  echo "run_fuzz_smoke.sh: SKIPPED — no clang++ binary on PATH." >&2
  echo "Install Clang (>= 14) to run the libFuzzer smoke locally; the" >&2
  echo "corpus-replay tier-1 tests still cover the committed seeds." >&2
  exit 0
fi

if [[ ! -f "${build_dir}/CMakeCache.txt" ]]; then
  # -march=native off for parity with the other analysis trees; warnings
  # stay on but -Werror off — Clang and GCC disagree on a few diagnostics
  # and this tree exists to find memory bugs, not warning drift.
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_CXX_COMPILER="${clangxx}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSTTR_FUZZ=ON -DSTTR_NATIVE_ARCH=OFF -DSTTR_WERROR=OFF
fi

cmake --build "${build_dir}" -j "$(nproc)" \
  --target fuzz_http_parser fuzz_checkpoint_reader

declare -A corpus=(
  [fuzz_http_parser]=http
  [fuzz_checkpoint_reader]=ckpt
)

failed=0
for harness in fuzz_http_parser fuzz_checkpoint_reader; do
  seed_dir="${repo_root}/tests/fuzz/corpus/${corpus[${harness}]}"
  work_dir="${build_dir}/corpus-${harness}"
  mkdir -p "${work_dir}"
  echo "run_fuzz_smoke.sh: ${harness} for ${budget_s}s (seeds: ${seed_dir})"
  # Work dir first so new coverage-increasing inputs land there, seeds are
  # read-only starting points. -timeout guards single-input hangs.
  if ! "${build_dir}/tests/fuzz/${harness}" \
      -max_total_time="${budget_s}" -timeout=10 -print_final_stats=1 \
      "${work_dir}" "${seed_dir}"; then
    echo "run_fuzz_smoke.sh: ${harness} FAILED — reproducer in $(pwd)" >&2
    failed=1
  fi
done

if [[ "${failed}" != "0" ]]; then
  echo "run_fuzz_smoke.sh: crashes above — triage the crash-* file, fix," >&2
  echo "then commit the input under tests/fuzz/corpus/ as a regression." >&2
  exit 1
fi
echo "fuzz smoke clean (${budget_s}s per harness)."
