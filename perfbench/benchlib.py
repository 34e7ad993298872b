"""Pure logic of the serving benchmark: seeded request schedules, percentile
choice, span self times and response parsing. No I/O and no processes, so
perfbench/tests/ can cover all of it without building anything."""

import bisect
import json
import math
import random

TAIL_MAX = 0.99


def nearest_rank(sorted_values, q):
    """Nearest-rank q-quantile of an ascending list (q in (0, 1])."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))


def choose_tail_quantile(n, min_beyond):
    """Highest whole percentile, at most p99, that leaves at least
    `min_beyond` of n samples above it, so a tail is never read off a
    handful of outliers. None when even p1 would not."""
    for pct in range(round(TAIL_MAX * 100), 0, -1):
        if samples_beyond(n, pct / 100) >= min_beyond:
            return pct / 100
    return None


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def poisson_offsets_ns(rng, rate_per_s, count):
    """Due times (ns from phase start) of `count` Poisson arrivals at
    `rate_per_s`: cumulative exponential gaps drawn from `rng`."""
    offsets = []
    t = 0.0
    for _ in range(count):
        t += rng.expovariate(rate_per_s)
        offsets.append(int(t * 1e9))
    return offsets


class Zipf:
    """Seeded Zipf(s) sampler over ranks 0..n-1 (rank 0 most popular)."""

    def __init__(self, n, s):
        weights = [1.0 / (i + 1) ** s for i in range(n)]
        total = sum(weights)
        self.cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cdf.append(acc)

    def sample(self, rng):
        return min(bisect.bisect_left(self.cdf, rng.random()), len(self.cdf) - 1)


def is_checkin(i, share):
    """Deterministic interleave: request i of a stream is a check-in iff the
    running count of check-ins at `share` steps up at i."""
    return math.floor((i + 1) * share) > math.floor(i * share)


def workload_rng(workload, seed, stream):
    """Independent deterministic stream per (workload, seed, purpose)."""
    return random.Random("%s:%d:%s" % (workload, seed, stream))


# ---- Spans -------------------------------------------------------------------


def covered_ns(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time per span id: duration minus the part of it that its direct
    children cover (overlapping children counted once). `spans` are dicts
    with id, parent, start, end."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered_ns(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def parse_trace(text):
    """Parses perfbench_inproc trace output into (spans, counters)."""
    spans, counters = [], {}
    for line in text.splitlines():
        f = line.split("\t")
        if f[0] == "S":
            spans.append({"id": int(f[1]), "parent": int(f[2]), "req": int(f[3]),
                          "name": f[4], "start": int(f[5]), "end": int(f[6])})
        elif f[0] == "C":
            counters.setdefault(f[1], []).append(float(f[2]))
    return spans, counters


def layer_stats(spans):
    """name -> sorted list of self times (ns)."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(own[s["id"]])
    return {name: sorted(v) for name, v in by_name.items()}


# ---- Responses ---------------------------------------------------------------


def parse_recommend(body):
    """/recommend body -> dict with user, k, cached, model_version and
    results as [(poi, score_text)], scores kept as the exact %.17g text."""
    doc = json.loads(body, parse_float=str)
    for key in ("user", "cached", "model_version", "results"):
        if key not in doc:
            raise ValueError("recommend response lacks %r" % key)
    results = [(int(r["poi"]), str(r["score"])) for r in doc["results"]]
    return {"user": doc["user"], "k": doc.get("k"), "cached": doc["cached"],
            "model_version": int(doc["model_version"]), "results": results}


def parse_checkin(body):
    """/checkin body -> admission sequence number; raises unless accepted."""
    doc = json.loads(body)
    if doc.get("accepted") is not True or not isinstance(doc.get("seq"), int):
        raise ValueError("check-in not accepted: %s" % body)
    return doc["seq"]


def parse_statz(body):
    """/statz body -> flat dict of the counters the benchmark reads."""
    doc = json.loads(body)
    ingest = doc.get("ingest", {})
    allocs = doc.get("allocs", {})
    sys = doc.get("syscalls", {})
    return {
        "requests": doc["requests"],
        "cache_hits": doc["cache_hits"],
        "cache_misses": doc["cache_misses"],
        "batches": doc.get("batches", 0),
        "batched_requests": doc.get("batched_requests", 0),
        "rejected_requests": doc.get("rejected_requests", 0),
        "allocs_recommend": allocs.get("recommend", 0),
        "hot_requests": allocs.get("hot_requests", 0),
        "hot_allocs": allocs.get("hot", 0),
        "syscalls": sum(sys.get(k, 0) for k in
                        ("reads", "writes", "epoll_waits", "accepts")),
        "deltas_applied": ingest.get("deltas_applied", 0),
        "checkins_rejected": ingest.get("checkins_rejected", 0),
    }


def parse_reference_line(line):
    """perfbench_inproc reference line -> [(poi, score_text)]."""
    out = []
    for item in line.split():
        poi, score = item.split(":", 1)
        out.append((int(poi), score))
    return out


def ratio(num, den):
    return num / den if den else 0.0
