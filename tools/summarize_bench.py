#!/usr/bin/env python3
"""Summarises bench output into the headline numbers EXPERIMENTS.md cites.

Usage: tools/summarize_bench.py [bench_output.txt | micro_*.json ...]

Text arguments are parsed as figure/table bench transcripts; ``.json``
arguments are the micro-benchmark emissions of bench/micro_matmul and
bench/micro_topk (``--out=<prefix>`` writes ``<prefix>micro_*.json``).
Purely a convenience for maintaining the paper-vs-measured tables; the
canonical data is the bench output itself.
"""
import json
import re
import sys


def summarize_micro(path: str, data: dict) -> None:
    """Prints per-kernel throughput and the serial-vs-parallel speedups of a
    micro-benchmark JSON file."""
    print(f"\n### {data.get('bench', path)} (threads={data.get('threads', '?')})")
    for row in data.get("results", []):
        # Shape columns vary per bench: GEMM uses n/k/m, the all-reduce bench
        # rows/dim/touched, table2 workers, micro_quant pairs.
        shape = "x".join(
            str(row[d])
            for d in ("n", "k", "m", "rows", "dim", "touched", "workers", "pairs")
            if d in row
        )
        line = f"  {row['kernel']:<16} {shape:<20}"
        if "gflops" in row:
            line += f" {row['gflops']:9.2f} GFLOP/s"
        line += f" {row['seconds']:.6f}s"
        for key, value in row.items():
            if key.startswith("speedup_vs_"):
                line += f"  {value:6.2f}x vs {key[len('speedup_vs_'):]}"
        print(line)
    # micro_quant extras: the artifact's table shrink and the fidelity of
    # the model loaded back from it (full-city ranking and the protocol).
    if "bytes" in data:
        b = data["bytes"]
        print(
            f"  embeddings: {b['int8_embeddings']} bytes int8"
            f" vs {b['fp32_embeddings']} fp32 ({b['shrink']:.2f}x smaller)"
        )
    if "fidelity" in data:
        f = data["fidelity"]
        ks = sorted(
            int(k[len("overlap"):]) for k in f if k.startswith("overlap")
        )
        for k in ks:
            print(
                f"  @{k}: HR {f[f'hr{k}_ref']:.4f} -> {f[f'hr{k}_cand']:.4f}"
                f"  NDCG {f[f'ndcg{k}_ref']:.4f} -> {f[f'ndcg{k}_cand']:.4f}"
                f"  overlap {f[f'overlap{k}']:.4f}"
            )
        print(
            f"  score delta: max {f['max_abs_score_delta']:.3e}"
            f" mean {f['mean_abs_score_delta']:.3e}"
        )
    if "protocol" in data:
        p = data["protocol"]
        ks = sorted(
            int(k[len("recall"):-len("_ref")])
            for k in p if k.startswith("recall") and k.endswith("_ref")
        )
        for k in ks:
            print(
                f"  protocol@{k}: recall {p[f'recall{k}_ref']:.4f}"
                f" -> {p[f'recall{k}_cand']:.4f}"
                f"  NDCG {p[f'ndcg{k}_ref']:.4f} -> {p[f'ndcg{k}_cand']:.4f}"
            )


def summarize_serve(path: str, data: dict) -> None:
    """Prints the serve_loadgen rows: throughput/latency per scenario, plus
    the allocation and syscall rates and the open-loop dropped/late
    accounting."""
    print(f"\n### {data.get('bench', path)} (threads={data.get('threads', '?')})")
    for row in data.get("results", []):
        line = (
            f"  {row['kernel']:<18}"
            f" conns={row.get('connections', row.get('clients', '?')):<5}"
            f" {row['qps']:>9.1f} qps"
            f"  p50 {row['p50_ms']:7.3f}ms  p99 {row['p99_ms']:7.3f}ms"
        )
        if "allocs_per_req" in row:
            line += f"  {row['allocs_per_req']:6.1f} alloc/req"
            line += f"  {row['sys_per_req']:5.2f} sys/req"
        if "hot_allocs_per_hit" in row:
            line += f"  hot={row['hot_allocs_per_hit']:.2f} alloc/hit"
        if "dropped" in row:
            line += f"  dropped={row['dropped']} late={row['late']}"
        print(line)


def main() -> None:
    paths = sys.argv[1:] if len(sys.argv) > 1 else ["bench_output.txt"]
    json_paths = [p for p in paths if p.endswith(".json")]
    for p in json_paths:
        with open(p) as f:
            data = json.load(f)
        if data.get("bench") == "serve_loadgen":
            summarize_serve(p, data)
        else:
            summarize_micro(p, data)
    text_paths = [p for p in paths if not p.endswith(".json")]
    if not text_paths:
        return
    text = "".join(open(p).read() for p in text_paths)

    # Per-figure Recall tables: "== Recall ==" blocks under each [figN] tag.
    for tag in re.findall(r"^\[(\w+)\].*$", text, re.M):
        pass

    sections = re.split(r"^(\[[\w]+\].*)$", text, flags=re.M)
    current = None
    for chunk in sections:
        if chunk.startswith("["):
            current = chunk.strip()
            print(f"\n### {current}")
            continue
        if current is None:
            continue
        m = re.search(r"== Recall ==\n(.*?)\n\n", chunk, re.S)
        if m:
            lines = m.group(1).strip().splitlines()
            print("  Recall@10 ranking:")
            rows = []
            for line in lines[2:]:
                parts = line.split()
                if len(parts) >= 6:
                    rows.append((parts[0], float(parts[-1])))
            for name, r10 in sorted(rows, key=lambda t: -t[1]):
                print(f"    {name:<16} {r10:.4f}")
        m = re.search(r"best \w+ per metric.*?\n((?:  .*\n)+)", chunk)
        if m:
            print("  optima:")
            print(m.group(1).rstrip())


if __name__ == "__main__":
    main()
