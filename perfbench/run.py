#!/usr/bin/env python3
"""Serving benchmark for tools/sttr_serve.

    python3 perfbench/run.py --workload recommend_cold --seed 1 --seconds 12 --trace 0

Builds the repository's sttr_serve plus the perfbench helpers into
.bench_build/ (once per checkout), trains a paper-scale checkpoint once per
build, then starts sttr_serve as the system under test and drives it over
loopback from one single-threaded generator process with four keep-alive
connections. Every response is checked; a mismatch exits non-zero and
prints no result.

--trace 0  the timed run: set-up time (median of several spawns), a
           closed-loop capacity phase and an open-loop phase at the
           workload's fixed Poisson rate. Reports set-up time, peak RSS and
           server CPU per request; prints capacity and latency.
--trace 1  the traced run: /statz counters around a closed-loop phase,
           then an in-process replay of the same seeded requests through
           each layer's public functions with one span per call, the first
           few also sent to the server alone just before the replay serves
           them (the single-client phase). Prints the per-layer metrics
           (self time = span duration minus the time its child spans
           cover).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Workload flags and rates are in
perfbench/config.json; why each workload and value was chosen, and which
end-to-end metric each per-layer metric should move, is in
perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was

import benchlib  # noqa: E402

BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CMAKE_DIR = os.path.join(BUILD, "cmake")
STATE = os.path.join(BUILD, "state")
BUILD_TYPE = "RelWithDebInfo"

# Span name -> (per-layer metric, unit); reported as median and p99 self time.
SPAN_METRICS = [
    ("serve.conn.parse_request", "serve.conn.parse_request_ns", "ns"),
    ("serve.conn.serialize", "serve.conn.serialize_ns", "ns"),
    ("serve.result_cache.get", "serve.result_cache.get_ns", "ns"),
    ("serve.result_cache.put", "serve.result_cache.put_us", "us"),
    ("serve.candidate_index.candidates", "serve.candidate_index.candidates_us", "us"),
    ("serve.embedding_store.gather", "serve.embedding_store.gather_us", "us"),
    ("core.tower", "core.tower_us", "us"),
    ("core.score_pairs", "core.score_pairs_us", "us"),
    ("tensor.matmul.l0", "tensor.matmul.l0_us", "us"),
    ("tensor.matmul.l1", "tensor.matmul.l1_us", "us"),
    ("tensor.matmul.l2", "tensor.matmul.l2_us", "us"),
    ("tensor.matmul.l3", "tensor.matmul.l3_us", "us"),
    ("tensor.matmul.l4", "tensor.matmul.l4_us", "us"),
    ("core.topk", "core.topk_us", "us"),
    ("stream.ingest.submit", "stream.ingest.submit_us", "us"),
    ("stream.incremental_trainer.train_window",
     "stream.incremental_trainer.train_window_ms", "ms"),
    ("stream.incremental_trainer.publish_delta",
     "stream.incremental_trainer.publish_delta_ms", "ms"),
    ("serve.model_bundle.apply_delta", "serve.model_bundle.apply_delta_ms", "ms"),
    ("serve.result_cache.invalidate_rows",
     "serve.result_cache.invalidate_rows_us", "us"),
    ("core.tower.layers", "core.tower.elementwise_us", "us"),
]
# The served path of one /recommend in the replay, in order. Their self
# times plus the request span's own (the replay's query parsing and JSON
# assembly, not the server's) add up to the request span's duration.
REQUEST_STAGES = ["serve.conn.parse_request", "serve.result_cache.get",
                  "serve.candidate_index.candidates", "core.score_pairs", "core.topk",
                  "serve.result_cache.put", "serve.conn.serialize"]
# One-off set-up spans, reported as their duration.
SETUP_SPANS = [
    ("data.generate_world", "data.generate_world_s"),
    ("serve.model_bundle.load_initial", "serve.model_bundle.load_initial_s"),
    ("serve.candidate_index.build", "serve.candidate_index.build_s"),
    ("stream.incremental_trainer.init", "stream.incremental_trainer.init_s"),
]
NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class BenchError(Exception):
    """A failed check or an unusable run: reported on stderr, no result."""

    def __init__(self, msg, code=1):
        super().__init__(msg)
        self.code = code


def log(msg):
    print(msg, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_split():
    """(server CPUs, generator CPUs): the single-threaded generator gets the
    last CPU to itself, so neither side's scheduling delays read as the
    other's."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) == 1:
        return cpus, cpus
    return cpus[:-1], cpus[-1:]


# ---- Build and preparation ---------------------------------------------------


def file_tail(path):
    with open(path, "rb") as f:
        return f.read()[-4000:].decode(errors="replace")


def run_logged(cmd, log_path, what):
    """Runs cmd to completion, output to log_path."""
    with open(log_path, "ab") as out:
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
    if rc != 0:
        raise BenchError("%s failed (exit %d):\n%s" % (what, rc, file_tail(log_path)))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no repository sources next to perfbench/ in %s" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], build_log, "configure")
    run_logged(["cmake", "--build", CMAKE_DIR, "-j", str(nproc()), "--target",
                "sttr_serve_bin", "perfbench_inproc", "perfbench_loadgen"],
               build_log, "build")


def binary(name):
    return os.path.join(CMAKE_DIR, name)


def file_sha1(path):
    h = hashlib.sha1()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def prepare():
    """Trains the checkpoint once per build (outside every timed phase)."""
    stamp = file_sha1(binary("perfbench_inproc"))
    stamp_path = os.path.join(STATE, "stamp")
    if os.path.isfile(stamp_path) and open(stamp_path).read() == stamp:
        return
    shutil.rmtree(STATE, ignore_errors=True)
    os.makedirs(STATE)
    run_logged([binary("perfbench_inproc"), "prepare", "--state=" + STATE],
               os.path.join(BUILD, "prepare.log"), "checkpoint preparation")
    with open(stamp_path, "w") as f:
        f.write(stamp)


def load_world():
    world = {"users": [], "pois": []}
    with open(os.path.join(STATE, "world.tsv")) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            if p[0] == "user":
                world["users"].append(int(p[1]))
            elif p[0] == "poi":
                world["pois"].append((int(p[1]), p[2], p[3]))
    return world


def checkpoint_path():
    ckpt_dir = os.path.join(STATE, "ckpt")
    names = sorted(n for n in os.listdir(ckpt_dir) if n.endswith(".sttr"))
    if not names:
        raise BenchError("no checkpoint in " + ckpt_dir)
    return os.path.join(ckpt_dir, names[-1])


def provenance():
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except OSError:
        commit = ""
    h = hashlib.sha1()
    for top in ("src", "tools"):
        for dirpath, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                h.update(open(path, "rb").read())
    return "commit=%s source_sha1=%s build=%s nproc=%d" % (
        commit or "none", h.hexdigest()[:12], BUILD_TYPE, nproc())


# ---- Request plans -----------------------------------------------------------


def recommend_target(user, poi, nocache):
    _, lat, lon = poi
    t = "/recommend?user=%d&lat=%s&lon=%s&k=10" % (user, lat, lon)
    return t + "&nocache=1" if nocache else t


def entry(target, kind, key=None, keep=False, offset=0):
    return {"target": target, "kind": kind, "key": key, "keep": keep,
            "offset": offset}


def make_plans(workload, seed, seconds, cfg, world):
    """Seeded request streams of one run: warmup, closed and open. Same
    (workload, seed, seconds) -> same plans."""
    w = cfg["workloads"][workload]
    rng = lambda stream: benchlib.workload_rng(workload, seed, stream)  # noqa
    users, pois = world["users"], world["pois"]
    n_open = max(1, round(w["open_rate_qps"] * (1 - cfg["phases"]["closed_share"])
                         * seconds))

    if workload == "recommend_cold":
        def cold_stream(stream, n):
            r = rng(stream)
            return [entry(recommend_target(r.choice(users), r.choice(pois), True),
                          "recommend") for _ in range(n)]
        plans = {"warmup": cold_stream("warmup", 8),
                 "closed": cold_stream("closed", 4096),
                 "open": cold_stream("open", n_open)}
        for i in rng("keep").sample(range(n_open), min(w["keep_sample"], n_open)):
            plans["open"][i]["keep"] = True
    else:
        kr = rng("keys")
        keys = []
        seen = set()
        while len(keys) < w["keys"]:
            k = (kr.choice(users), kr.choice(pois))
            if (k[0], k[1][0]) not in seen:
                seen.add((k[0], k[1][0]))
                keys.append(k)
        zipf = benchlib.Zipf(len(keys), w["zipf_s"])
        share = w["checkin_share"]

        def mixed_stream(stream, n, reads_only=False):
            r = rng(stream)
            out = []
            for i in range(n):
                if not reads_only and benchlib.is_checkin(i, share):
                    out.append(entry("/checkin?user=%d&poi=%d" % (
                        r.choice(users), r.choice(pois)[0]), "checkin", keep=True))
                else:
                    k = zipf.sample(r)
                    # Bodies are kept to show any stale answer found.
                    out.append(entry(recommend_target(keys[k][0], keys[k][1], False),
                                     "recommend", key=k, keep=True))
            return out
        # Closed-loop readers alone would push check-ins as fast as the
        # server admits them, past what the trainer absorbs, so the closed
        # phase paces check-ins at the open phase's check-in rate.
        rate = w["open_rate_qps"] * share
        n_paced = math.ceil(rate * cfg["phases"]["closed_share"] * seconds * 1.5) + 10
        paced = [e for e in mixed_stream("paced", math.ceil(n_paced / share) + 1)
                 if e["kind"] == "checkin"][:n_paced]
        for e, off in zip(paced, benchlib.poisson_offsets_ns(
                rng("paced_arrivals"), rate, n_paced)):
            e["offset"] = off
        plans = {"warmup": [entry(recommend_target(u, p, False), "recommend", key=i)
                            for i, (u, p) in enumerate(keys[:w["warm_keys"]])],
                 "closed": mixed_stream("closed", 50000, reads_only=True),
                 "closed_paced": paced,
                 "open": mixed_stream("open", n_open)}
    offsets = benchlib.poisson_offsets_ns(rng("arrivals"), w["open_rate_qps"], n_open)
    for e, off in zip(plans["open"], offsets):
        e["offset"] = off
    return plans


# ---- Server and generator ----------------------------------------------------


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http_get(port, path, timeout=5.0):
    """One request on a fresh connection -> (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(("GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close"
                   "\r\n\r\n" % path).encode())
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body.decode()


class Server:
    """One sttr_serve process on a private copy of the checkpoint."""

    def __init__(self, work, index, flags, cpus):
        self.dir = os.path.join(work, "spawn%d" % index)
        ckpt_dir = os.path.join(self.dir, "ckpt")
        os.makedirs(ckpt_dir)
        # Read the checkpoint's bytes (untimed) into a fresh directory, so
        # each spawn starts from the same page-cache-warm file and no delta
        # from an earlier spawn is visible to it.
        src = checkpoint_path()
        shutil.copyfile(src, os.path.join(ckpt_dir, os.path.basename(src)))
        self.port = free_port()
        self.cmd = [binary("repo/tools/sttr_serve"), "--ckpt_dir=" + ckpt_dir,
                    "--port=%d" % self.port] + flags
        self.log_path = os.path.join(self.dir, "server.log")
        self.cpus = cpus
        self.proc = None

    def start(self):
        """Spawns and waits for the first /healthz 200; returns seconds."""
        logf = open(self.log_path, "wb")
        t0 = time.monotonic()
        # The GEMM pool sizes itself from the machine, not from the CPUs the
        # server may use; size it to the server's share of them.
        env = dict(os.environ, STTR_NUM_THREADS=str(len(self.cpus)))
        self.proc = subprocess.Popen(
            self.cmd, stdout=logf, stderr=subprocess.STDOUT, cwd=self.dir, env=env,
            preexec_fn=lambda: os.sched_setaffinity(0, self.cpus))
        logf.close()
        deadline = t0 + 150
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("sttr_serve exited with %d during start-up:\n%s" % (
                    self.proc.returncode, self.log_tail()))
            try:
                status, _ = http_get(self.port, "/healthz", timeout=2.0)
                if status == 200:
                    return time.monotonic() - t0
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchError("sttr_serve not healthy after 150 s")

    def statz(self):
        status, body = http_get(self.port, "/statz")
        if status != 200:
            raise BenchError("/statz answered %d" % status)
        return benchlib.parse_statz(body)

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for pid %d" % self.proc.pid)

    def stop(self):
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def log_tail(self):
        with open(self.log_path, "rb") as f:
            return f.read()[-3000:].decode(errors="replace")


class Phase:
    """One generator invocation: its plan, results and accounting."""

    def __init__(self, name, plan, summary, results):
        self.name, self.plan, self.summary, self.results = name, plan, summary, results
        self.ok = [r for r in results if r["cause"] == "ok"]
        self.failed = len(results) - len(self.ok)
        self.causes = {}
        for r in results:
            if r["cause"] != "ok":
                key = "%s:%d" % (r["cause"], r["status"])
                self.causes[key] = self.causes.get(key, 0) + 1

    def latencies_ms(self, kind, timeout_ms):
        """Due-to-done latencies; a failed request counts as the timeout."""
        return sorted((r["done"] - r["due"]) / 1e6 if r["cause"] == "ok"
                      else float(timeout_ms)
                      for r in self.results if self.plan[r["idx"]]["kind"] == kind)

    def report(self):
        s = self.summary
        line = "phase %-7s sent=%d ok=%d failed=%d" % (
            self.name, s["sent"], len(self.ok), self.failed)
        if self.causes:
            line += " causes=" + ",".join(
                "%s=%d" % kv for kv in sorted(self.causes.items()))
        if s["mode"] == "open":
            line += " late_share=%.4f max_lag_ms=%.3f" % (
                benchlib.ratio(s["late"], s["sent"]), s["max_lag_ns"] / 1e6)
        log(line)


def write_plan(path, plan):
    with open(path, "w") as f:
        for e in plan:
            f.write("%d\t%d\t%s\n" % (e["offset"], 1 if e["keep"] else 0, e["target"]))


def run_generator(name, server, plan, work, mode, conns, cfg, duration_ms=0,
                  paced=None):
    """One perfbench_loadgen invocation -> (plan incl. paced, summary, results)."""
    plan_path = os.path.join(work, name + ".plan")
    out_path = os.path.join(work, name + ".out")
    write_plan(plan_path, plan)
    cmd = [binary("perfbench_loadgen"), "--port=%d" % server.port, "--mode=" + mode,
           "--conns=%d" % conns, "--plan=" + plan_path, "--out=" + out_path,
           "--duration_ms=%d" % duration_ms, "--server_pid=%d" % server.proc.pid,
           "--timeout_ms=%d" % cfg["phases"]["timeout_ms"]]
    if paced:
        write_plan(os.path.join(work, name + ".paced"), paced)
        cmd.append("--paced_plan=" + os.path.join(work, name + ".paced"))
        plan = plan + paced
    gen_cpus = cpu_split()[1]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          preexec_fn=lambda: os.sched_setaffinity(0, gen_cpus))
    if proc.returncode != 0:
        raise BenchError("load generator failed: " + proc.stderr)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    results = []
    with open(out_path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t", 9)
            results.append({"idx": int(p[0]), "conn": int(p[1]), "status": int(p[2]),
                            "cause": p[3], "due": int(p[4]), "send": int(p[5]),
                            "done": int(p[6]), "digest": p[7], "version": int(p[8]),
                            "body": p[9] if len(p) > 9 else ""})
    return plan, summary, results


def run_phase(name, server, plan, work, mode, conns, cfg, duration_ms=0, paced=None):
    phase = Phase(name, *run_generator(name, server, plan, work, mode, conns, cfg,
                                       duration_ms, paced))
    phase.report()
    return phase


# ---- Correctness gate --------------------------------------------------------


def check_cold(phases, work):
    """Served top-K ids and %.17g scores == the in-process offline reference."""
    sample = []
    for ph in phases:
        for r in ph.ok:
            e = ph.plan[r["idx"]]
            if e["keep"] and e["kind"] == "recommend":
                sample.append((e["target"], benchlib.parse_recommend(r["body"])))
    if not sample:
        raise BenchError("correctness gate: no cold responses were sampled")
    req_path = os.path.join(work, "reference.in")
    out_path = os.path.join(work, "reference.out")
    with open(req_path, "w") as f:
        for target, served in sample:
            q = dict(kv.split("=", 1) for kv in target.split("?", 1)[1].split("&"))
            f.write("%s\t%s\t%s\t%s\n" % (q["user"], q["lat"], q["lon"], q["k"]))
    run_logged([binary("perfbench_inproc"), "reference", "--state=" + STATE,
                "--requests=" + req_path, "--out=" + out_path],
               os.path.join(work, "reference.log"), "offline reference")
    with open(out_path) as f:
        expected = [benchlib.parse_reference_line(line) for line in f]
    if len(expected) != len(sample):
        raise BenchError("offline reference answered %d of %d requests" % (
            len(expected), len(sample)))
    for (target, served), want in zip(sample, expected):
        if served["results"] != want:
            raise BenchError("serving != offline for %s:\n served %s\n offline %s" % (
                target, served["results"], want))
    log("check   cold: %d sampled responses == offline reference" % len(sample))


def stale_answers(phases):
    """Responses that differ from the first answer for the same key under
    the same model_version. Scores are a function of (key, model), so any
    such response carries scores of another model than the one it names: a
    cache entry that outlived the delta it predates. Counted and shown, not
    fatal: the mix workload measures the cache as it is."""
    first = {}
    stale = 0
    example = None
    for ph in phases:
        for r in ph.ok:
            e = ph.plan[r["idx"]]
            if e["key"] is None:
                continue
            group = (e["key"], r["version"])
            seen = first.setdefault(group, r)
            if seen["digest"] != r["digest"]:
                stale += 1
                example = example or (seen["body"], r["body"])
    if example:
        log("stale   %d responses disagree with an earlier answer at the same "
            "model_version, e.g.\n  first %s\n  later %s" % (stale, *example))
    return stale


def check_versions(phases):
    """model_version never goes backwards on a connection; check-ins accepted."""
    n_checkins = 0
    for ph in phases:
        last = {}
        for r in ph.ok:
            e = ph.plan[r["idx"]]
            if e["kind"] == "checkin":
                benchlib.parse_checkin(r["body"])
                n_checkins += 1
                continue
            if r["version"] < last.get(r["conn"], 0):
                raise BenchError("model_version went back from %d to %d in %s" % (
                    last[r["conn"]], r["version"], ph.name))
            last[r["conn"]] = r["version"]
    log("check   mix: model_version monotone per connection, %d check-ins "
        "accepted" % n_checkins)


def check_all(workload, phases, work):
    for ph in phases:
        for r in ph.ok:
            if ph.plan[r["idx"]]["keep"] and ph.plan[r["idx"]]["kind"] == "recommend":
                benchlib.parse_recommend(r["body"])
    if workload == "recommend_cold":
        check_cold(phases, work)
    else:
        check_versions(phases)
    return stale_answers(phases)


def latency_validity(phase, cfg):
    """"valid", or why the phase's latencies do not measure the server: a
    generator that fell behind its schedule delays sends itself. No result
    metric is timed in the open loop, so the run still counts."""
    s = phase.summary
    late_share = benchlib.ratio(s["late"], s["sent"])
    if late_share > cfg["phases"]["late_share_max"]:
        return "INVALID: the generator fell behind its schedule (%.4f of sends " \
            "over 2 ms late, max lag %.2f ms)" % (late_share, s["max_lag_ns"] / 1e6)
    return "valid"


def statz_delta(a, b):
    return {k: b[k] - a[k] for k in a}


# ---- Runs --------------------------------------------------------------------


def server_flags(workload, cfg):
    workers = min(cfg["server"]["workers"], len(cpu_split()[0]))
    return (cfg["server"]["common_flags"] + ["--workers=%d" % workers]
            + cfg["workloads"][workload]["flags"])


def timed_run(workload, seconds, plans, cfg, work):
    flags = server_flags(workload, cfg)
    log("server  " + " ".join(flags))
    conns = cfg["server"]["connections"]
    setups = []
    server = None
    try:
        for i in range(cfg["server"]["setup_spawns"]):
            if server is not None:
                server.stop()
            server = Server(work, i, flags, cpu_split()[0])
            setups.append(server.start())
        log("setup   spawns_s=" + ",".join("%.4f" % s for s in setups))
        warm = run_phase("warmup", server, plans["warmup"], work, "closed", conns, cfg)
        s0 = server.statz()
        closed = run_phase("closed", server, plans["closed"], work, "closed", conns,
                           cfg, duration_ms=int(seconds * cfg["phases"]["closed_share"]
                                                * 1000),
                           paced=plans.get("closed_paced"))
        opened = run_phase("open", server, plans["open"], work, "open", conns, cfg)
        s2 = server.statz()
        rss_mb = server.vm_hwm_mb()
    finally:
        if server is not None:
            server.stop()
    phases = [warm, closed, opened]
    check_all(workload, phases, work)
    d = statz_delta(s0, s2)
    hit_ratio = benchlib.ratio(d["cache_hits"], d["cache_hits"] + d["cache_misses"])
    log("statz   hits=%d misses=%d hit_ratio=%.4f batches=%d deltas_applied=%d "
        "checkins_rejected=%d rejected_requests=%d" % (
            d["cache_hits"], d["cache_misses"], hit_ratio, d["batches"],
            d["deltas_applied"], d["checkins_rejected"], d["rejected_requests"]))

    timeout_ms = cfg["phases"]["timeout_ms"]
    lat = opened.latencies_ms("recommend", timeout_ms)
    q = benchlib.choose_tail_quantile(len(lat), cfg["phases"]["tail_min_beyond"])
    cpu_ms = closed.summary["server_cpu_ticks"] * 1000.0 / closed.summary["clk_tck"]
    attempted = sum(len(p.results) for p in phases)
    failed = sum(p.failed for p in phases)
    # Only figures steady between runs of the same code on a shared host go
    # in the result; the wall-clock ones move with the host's load and are
    # printed (perfbench/README.md, "End-to-end metrics").
    metrics = {
        "setup_s": (benchlib.median(setups), "s"),
        "rss_mb": (rss_mb, "MB"),
        "cpu_ms_per_req": (cpu_ms / max(1, len(closed.ok)), "ms"),
    }
    log("capacity closed loop %.4f req/s (%d requests, printed only)" % (
        len(closed.ok) / (closed.summary["elapsed_ns"] / 1e9), len(closed.ok)))
    tail = "" if q is None else " p%g_ms=%.4f (%d samples above)" % (
        q * 100, benchlib.nearest_rank(lat, q), benchlib.samples_beyond(len(lat), q))
    validity = latency_validity(opened, cfg)
    log("latency /recommend n=%d p50_ms=%.4f%s; printed only, %s" % (
        len(lat), benchlib.median(lat), tail, validity))
    checkin_lat = opened.latencies_ms("checkin", timeout_ms)
    if checkin_lat:
        cq = benchlib.choose_tail_quantile(len(checkin_lat),
                                           cfg["phases"]["tail_min_beyond"])
        if cq is not None:
            log("latency /checkin n=%d p%g_ms=%.4f (%d samples above); %s" % (
                len(checkin_lat), cq * 100, benchlib.nearest_rank(checkin_lat, cq),
                benchlib.samples_beyond(len(checkin_lat), cq), validity))
    log("fail_share %.6f (%d of %d operations)" % (
        benchlib.ratio(failed, attempted), failed, attempted))
    return attempted, failed, metrics


def paired_replay(server, replayed, n_warm, n_single, work, trace_out, cfg):
    """Steps the in-process replay through `replayed` one request at a time.
    The first n_single /recommend requests after the warm-up also go to the
    server, one at a time on one connection, just before the replay serves
    them, so each pair is timed under the same host conditions. Returns the
    single-client Phase and {replay index: its result}."""
    cpus = cpu_split()[0]
    trace_plan = os.path.join(work, "trace.plan")
    write_plan(trace_plan, replayed)
    log_path = os.path.join(work, "trace.log")
    plan, results, paired = [], [], {}
    with open(log_path, "wb") as logf:
        replay = subprocess.Popen(
            [binary("perfbench_inproc"), "trace", "--state=" + STATE,
             "--plan=" + trace_plan, "--work=" + work, "--out=" + trace_out],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=logf, cwd=ROOT,
            env=dict(os.environ, STTR_NUM_THREADS=str(len(cpus))),
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    try:
        try:
            for i, e in enumerate(replayed):
                if i >= n_warm and e["kind"] == "recommend" and len(plan) < n_single:
                    e = dict(e, keep=True, offset=0)
                    _, _, (r,) = run_generator("single", server, [e], work,
                                               "closed", 1, cfg)
                    r["idx"] = len(plan)
                    plan.append(e)
                    results.append(r)
                    paired[i] = r
                replay.stdin.write(b"go\n")
                replay.stdin.flush()
                if replay.stdout.readline() != b"done\n":
                    break
            replay.stdin.close()
        except BrokenPipeError:
            pass  # the replay died; its exit code and log say why
        rc = replay.wait(timeout=120)
    except subprocess.TimeoutExpired:
        raise BenchError("traced replay did not finish")
    finally:
        if replay.poll() is None:
            replay.kill()
            replay.wait()
    if rc != 0 or not os.path.isfile(trace_out):
        raise BenchError("traced replay failed (exit %d):\n%s" % (
            rc, file_tail(log_path)))
    phase = Phase("single", plan, {"sent": len(results), "mode": "closed"}, results)
    phase.report()
    return phase, paired


def traced_run(workload, seconds, plans, cfg, work):
    flags = server_flags(workload, cfg)
    w = cfg["workloads"][workload]
    conns = cfg["server"]["connections"]
    server = Server(work, 0, flags, cpu_split()[0])
    try:
        server.start()
        warm = run_phase("warmup", server, plans["warmup"], work, "closed", conns, cfg)
        s0 = server.statz()
        closed = run_phase("closed", server, plans["closed"], work, "closed", conns,
                           cfg, duration_ms=int(seconds * cfg["phases"]["closed_share"]
                                                * 1000),
                           paced=plans.get("closed_paced"))
        s1 = server.statz()
        # The replay starts from the warm-up requests, like the server did,
        # and leaves them out of the figures.
        n_warm = len(plans["warmup"])
        replayed = plans["warmup"] + plans["open"][:w["trace_requests"]]
        trace_out = os.path.join(work, "trace.out")
        single, paired = paired_replay(server, replayed, n_warm,
                                       w["single_client_requests"], work, trace_out, cfg)
    finally:
        server.stop()
    phases = [warm, closed, single]
    stale = check_all(workload, phases, work)

    with open(trace_out) as f:
        spans, counters = benchlib.parse_trace(f.read())
    spans = [sp for sp in spans if sp["req"] < 0 or sp["req"] >= n_warm]
    stats = benchlib.layer_stats(spans)

    metrics = {}
    log("layer   %-44s %12s %12s %8s" % ("span", "p50_self", "p99_self", "calls"))
    for span, name, unit in SPAN_METRICS:
        v = stats.get(span, [])
        p50 = benchlib.median(v) / NS_PER[unit] if v else 0.0
        p99 = benchlib.nearest_rank(v, 0.99) / NS_PER[unit] if v else 0.0
        metrics[name] = (p50, unit)
        metrics[name + ".p99"] = (p99, unit)
        log("layer   %-44s %12.3f %12.3f %8d  %s" % (span, p50, p99, len(v), unit))
    for span, name in SETUP_SPANS:
        metrics[name] = (sum(stats.get(span, [0])) / 1e9, "s")

    def counter(name):
        return benchlib.median(counters[name]) if name in counters else 0.0
    metrics["serve.candidate_index.candidates_per_req"] = (
        counter("serve.candidate_index.candidates_per_req"), "count")
    l0 = stats.get("tensor.matmul.l0", [])
    metrics["tensor.matmul.l0_gflops"] = (
        counter("tensor.matmul.l0.flops") / benchlib.median(l0) if l0 else 0.0,
        "GFLOP/s")
    metrics["core.delta.rows_per_delta"] = (counter("core.delta.rows_per_delta"), "count")
    metrics["core.delta.bytes"] = (counter("core.delta.bytes"), "bytes")

    d = statz_delta(s0, s1)
    n_rec = sum(1 for r in closed.results if closed.plan[r["idx"]]["kind"] == "recommend")
    metrics["serve.result_cache.hit_ratio"] = (benchlib.ratio(
        d["cache_hits"], d["cache_hits"] + d["cache_misses"]), "ratio")
    metrics["serve.batcher.requests_per_flush"] = (benchlib.ratio(
        d["batched_requests"], d["batches"]), "count")
    metrics["serve.stats.allocs_per_req"] = (benchlib.ratio(
        d["allocs_recommend"], n_rec), "count")
    metrics["serve.stats.hot_allocs_per_hit"] = (benchlib.ratio(
        d["hot_allocs"], d["hot_requests"]), "count")
    metrics["serve.stats.sys_per_req"] = (benchlib.ratio(
        d["syscalls"], d["requests"]), "count")
    metrics["serve.stats.deltas_applied"] = (d["deltas_applied"], "count")
    metrics["stream.checkins_rejected"] = (d["checkins_rejected"], "count")
    metrics["serve.result_cache.stale_answers"] = (stale, "count")

    # Per replayed /recommend, the time its served stages (the library calls
    # above) cover, apart from the replay's own query parsing and JSON
    # assembly, which stand in for the server's and are printed only.
    own = benchlib.self_times(spans)
    reads = [sp for sp in spans if sp["req"] >= 0
             and replayed[sp["req"]]["kind"] == "recommend"]
    requests = [sp for sp in reads if sp["name"] == "request"]
    inproc_us = benchlib.median([sp["end"] - sp["start"] - own[sp["id"]]
                                 for sp in requests]) / 1e3
    log("replay  own work per /recommend (query parsing, JSON assembly): "
        "p50 %.1f us, not a metric" % (
            benchlib.median([own[sp["id"]] for sp in requests]) / 1e3))
    metrics["request.inproc_us"] = (inproc_us, "us")
    # Only cold's single-client requests take the replay's path (score, no
    # cache, no writes), so only there does the replay account for them:
    # per pair, the server's latency minus the replay's served stages.
    e2e_us = unaccounted_us = 0.0
    if workload == "recommend_cold":
        served = {sp["req"]: sp["end"] - sp["start"] - own[sp["id"]] for sp in requests}
        pairs = [((r["done"] - r["due"]) / 1e3, served[i] / 1e3)
                 for i, r in paired.items() if r["cause"] == "ok"]
        e2e_us = benchlib.median([e2e for e2e, _ in pairs])
        unaccounted_us = benchlib.median([e2e - stages for e2e, stages in pairs])
        stages = benchlib.layer_stats(reads)
        parts = {name: benchlib.median(stages[name]) / 1e3 * len(stages[name])
                 / len(requests) for name in REQUEST_STAGES if name in stages}
        log("account single-client e2e %.1f us: served stages %.1f us (%s) + "
            "HTTP, query parsing and JSON, batcher hand-off, queue and tracing "
            "%.1f us (median over %d pairs)" % (
                e2e_us, inproc_us, ", ".join("%s %.1f" % kv for kv in parts.items()),
                unaccounted_us, len(pairs)))
    metrics["request.e2e_single_client_us"] = (e2e_us, "us")
    metrics["request.unaccounted_us"] = (unaccounted_us, "us")
    attempted = sum(len(p.results) for p in phases)
    failed = sum(p.failed for p in phases)
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    def terminate(signum, _frame):
        raise BenchError("terminated by signal %d" % signum, code=128 + signum)
    signal.signal(signal.SIGTERM, terminate)
    with open(os.path.join(HERE, "config.json")) as f:
        cfg = json.load(f)
    if args.workload not in cfg["workloads"]:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    work = os.path.join(BUILD, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                      os.getpid()))
    try:
        build()
        prepare()
        world = load_world()
        log("run     %s seed=%d seconds=%g trace=%d %s" % (
            args.workload, args.seed, args.seconds, args.trace, provenance()))
        plans = make_plans(args.workload, args.seed, args.seconds, cfg, world)
        os.makedirs(work)
        run = traced_run if args.trace else timed_run
        attempted, failed, metrics = run(args.workload, args.seconds, plans, cfg, work)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return e.code
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        log("metric  %-48s %.6f %s" % (name, value, unit))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
