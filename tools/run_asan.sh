#!/usr/bin/env bash
# Memory- and UB-checks the tier-1 suite under ASan+UBSan: configures a
# separate build tree with -DSTTR_SANITIZE=address,undefined and runs the
# full tier-1 label, which includes the checkpoint corruption-matrix and
# fault-injection tests — every injected IO fault and truncated/bit-flipped
# checkpoint must surface as a Status, never as a crash or UB.
# Usage: tools/run_asan.sh [build-dir] (default: build-asan).
# The TSan sibling for race checks is tools/run_tsan.sh.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"

# Gate on the sanitizer runtime rather than hard-failing mid-build: libasan
# ships as a separate package on most distros, and a container without it
# still runs the rest of the analysis stack. Same skip-with-notice contract
# as run_tidy.sh / run_fuzz_smoke.sh; CI installs the runtime and gates.
if ! echo 'int main(){}' | c++ -fsanitize=address,undefined -x c++ - \
    -o /dev/null 2> /dev/null; then
  echo "run_asan.sh: SKIPPED — the ASan/UBSan runtime does not link" >&2
  echo "(install libasan/libubsan for your compiler to run this locally)." >&2
  exit 0
fi

cmake -B "${build_dir}" -S "${repo_root}" -DSTTR_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${build_dir}" -j "$(nproc)"

# Any ASan/UBSan report fails the run; abort_on_error keeps reports readable
# and makes UBSan findings fatal instead of log-only.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
ctest --test-dir "${build_dir}" --output-on-failure -L tier1 -j "$(nproc)"
echo "ASan+UBSan run clean."
