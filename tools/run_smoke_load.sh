#!/usr/bin/env bash
# CI smoke-load: builds the serving stack, trains a tiny model, and runs
# bench/serve_loadgen --smoke against the epoll core for a few seconds.
# serve_loadgen exits nonzero unless every scenario served traffic (nonzero
# qps) AND the warmed cache-hit window performed exactly zero heap
# allocations on both the scoring workers and the event-loop threads — the
# regression gate for the zero-allocation hot path.
# Usage: tools/run_smoke_load.sh [build-dir] (default: build).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j --target serve_loadgen

ckpt_dir="$(mktemp -d)"
trap 'rm -rf "${ckpt_dir}"' EXIT

"${build_dir}/bench/serve_loadgen" \
  --scale=tiny --smoke \
  --clients=4 --connections=128 --open_qps=200 \
  --ckpt_dir="${ckpt_dir}"
echo "Smoke load clean."
