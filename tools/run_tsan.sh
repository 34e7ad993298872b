#!/usr/bin/env bash
# Race-checks the multi-threaded training/eval/serving paths under
# ThreadSanitizer: configures a separate build tree with -DSTTR_SANITIZE=thread
# and runs the concurrency-heavy tier-1 tests (thread pool, parallel trainer,
# sparse all-reduce, and the serving subsystem: result cache, checkpoint
# hot-reload under concurrent scoring, HTTP server, epoll event loop, the
# golden HTTP-contract replay, the serving core under misbehaving clients
# (hang-ups mid-head, resets while a request is scored or mid-response),
# reloads racing injected checkpoint-read faults, and the streaming
# ingestion subsystem: the bounded event log under concurrent producers,
# row-level result-cache invalidation racing lookups, and the /checkin
# ingest path on the live server). zero_alloc_test is left out: its
# zero-allocation assertions were found not to hold under TSan's
# interceptors. (serve_chaos_test's warmed-hit window asserts the same
# counters and passes under GCC 12's TSan runtime.)
# Usage: tools/run_tsan.sh [build-dir] (default: build-tsan).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"

# Gate on the sanitizer runtime rather than hard-failing mid-build: libtsan
# ships as a separate package on most distros, and a container without it
# still runs the rest of the analysis stack. Same skip-with-notice contract
# as run_tidy.sh / run_fuzz_smoke.sh; CI installs the runtime and gates.
if ! echo 'int main(){}' | c++ -fsanitize=thread -x c++ - \
    -o /dev/null 2> /dev/null; then
  echo "run_tsan.sh: SKIPPED — the TSan runtime does not link" >&2
  echo "(install libtsan for your compiler to run this locally)." >&2
  exit 0
fi

cmake -B "${build_dir}" -S "${repo_root}" -DSTTR_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${build_dir}" -j \
  --target thread_pool_test parallel_trainer_test sparse_allreduce_test \
           checkpoint_race_test result_cache_test \
           model_bundle_test server_test shutdown_race_test \
           event_loop_test golden_test precision_reload_test \
           serve_chaos_test reload_fault_test \
           event_log_test ingest_service_test ingest_server_test \
           stream_e2e_test

# TSan findings abort the run; halt_on_error keeps the first report readable.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
ctest --test-dir "${build_dir}" --output-on-failure \
  -R '(ThreadPool|ParallelTrainer|SparseAllReduce|CheckpointRace|ResultCache|ModelBundle|ServerTest|ShutdownRace|EventLoop|GoldenTest|PrecisionReload|ServeChaos|ReloadFault|EventLog|IngestService|IngestServer|StreamE2E)'
echo "TSan run clean."
