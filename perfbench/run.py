"""Benchmark runner for qgeom: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload gf2 --seed 1 --seconds 35 --trace 0

Set-up (interpreter, ``import qgeom``, fields and forms, seeded random
draws) happens once.  Then one warm-up round runs from cold caches; it
fills the library's process-wide Grassmann graph cache and counts as
set-up.  With ``--trace 0`` the process then runs timed rounds until
they have taken ``--seconds`` (at least ``MIN_ROUNDS``; no round starts
that the median round time says would overrun) and reports the median
round.  With ``--trace 1`` it instead clears the cache and runs one
round from cold with spans and kernel counters on, and reports the
per-layer metrics.  Every round is checked against the independent
oracle outside its timed part.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
MIN_ROUNDS = 3

sys.path.insert(0, SRC)
sys.path.insert(0, HERE)


class OpFailed(Exception):
    """A library call raised unexpectedly or gave the wrong verdict."""


class Runner:
    """Counts operations (library calls) and, when traced, wraps each in a span."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.tracer = tracer

    def op(self, name, fn, *args, **kwargs):
        self.attempted += 1
        sid = self.tracer.begin(name) if self.tracer is not None else None
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OpFailed(f"{name}: {type(exc).__name__}: {exc}") from exc
        finally:
            if sid is not None:
                self.tracer.end(sid)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def import_library():
    import qgeom

    where = os.path.realpath(os.path.dirname(qgeom.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"qgeom imported from {where}, not from this checkout's src/")


def time_startup(args) -> float:
    """Median wall time from process spawn to 'ready' over fresh set-ups."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SystemExit("set-up probe failed")
        times.append(dt)
    return statistics.median(times)


def run_round(wl, r: Runner):
    """One timed round; returns (out, wall, cpu, peak_rss_mb)."""
    gc.collect()
    if r.tracer is not None:
        r.tracer.install()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = wl.round(r)
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if r.tracer is not None:
            r.tracer.uninstall()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out, wall, cpu, rss


def layer_metrics(tr, counts: dict, traced_wall: float, untraced_wall: float) -> dict:
    from spans import KERNELS, median_and_tail

    def total(name, parent=None):
        return sum(tr.durations(name, parent))

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    # every Grassmann graph built in the round, wherever it was built
    enum = total("grassmann.enumerate", parent="grassmann.graph")
    adjacency = total("grassmann.graph") - enum
    m["grassmann.enumerate_s"] = (enum, "s")
    m["grassmann.adjacency_s"] = (adjacency, "s")
    m["grassmann.adjacency_us_per_pair"] = (per(adjacency, tr.graph_pairs, 1e6), "us")
    for stem in ("bfs", "formula", "intersection_array", "duality"):
        m[f"grassmann.{stem}_s"] = (total(f"grassmann.{stem}"), "s")
    m["ioformats.export_s"] = (total("ioformats.export"), "s")
    for stem in ("build", "dual_graph", "intersection_array"):
        m[f"polar.{stem}_s"] = (total(f"polar.{stem}"), "s")
    search_s = total("search")
    nodes = counts.get("search.nodes", 0)
    m["search.target_s"] = (total("search.target"), "s")
    m["search.s"] = (search_s, "s")
    m["search.nodes"] = (nodes, "count")
    m["search.nodes_per_s"] = (per(nodes, search_s), "1/s")
    m["search.members"] = (counts.get("search.members", 0), "count")
    split = total("structure.split")
    m["structure.canonical_s"] = (total("structure.canonical"), "s")
    m["structure.split_s"] = (split, "s")
    m["structure.split_us_per_member"] = (per(split, counts.get("structure.members", 0), 1e6), "us")
    analyze = tr.durations("structure.analyze")
    p50, tail, _ = median_and_tail(analyze)
    m["structure.analyze_s"] = (sum(analyze), "s")
    m["structure.analyze_ms_p50"] = (p50 * 1e3, "ms")
    m["structure.analyze_ms_tail"] = (tail * 1e3, "ms")
    verify_s = total("verify")
    vpairs = counts.get("verify.pairs", 0)
    m["verify.s"] = (verify_s, "s")
    m["verify.pairs"] = (vpairs, "count")
    m["verify.us_per_pair"] = (per(verify_s, vpairs, 1e6), "us")
    base = tr.durations("witness.base")
    p50, tail, _ = median_and_tail(base)
    m["witness.base_s"] = (sum(base), "s")
    m["witness.base_ms_p50"] = (p50 * 1e3, "ms")
    m["witness.base_ms_tail"] = (tail * 1e3, "ms")
    m["witness.flat_s"] = (total("witness.flat"), "s")
    pair = tr.durations("witness.pair")
    p50, tail, _ = median_and_tail(pair)
    m["witness.pair_s"] = (sum(pair), "s")
    m["witness.pairs"] = (counts.get("witness.pairs", 0), "count")
    m["witness.pair_us_p50"] = (p50 * 1e6, "us")
    m["witness.pair_us_tail"] = (tail * 1e6, "us")
    for k in KERNELS:
        m[f"subspace.{k}.calls"] = (tr.calls[k], "count")
        m[f"subspace.{k}.self_s"] = (tr.self_s[k], "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from oracle import CheckFailed
    from workloads import WORKLOADS, fresh_caches

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, stem)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    os.makedirs(stem, exist_ok=True)

    attempted = failed = 0
    correct = True
    rss = 0.0
    counts = None

    def one_round(label, tracer=None):
        nonlocal attempted, failed, correct, rss, counts
        r = Runner(tracer)
        try:
            out, wall, cpu, peak = run_round(wl, r)
        except (OpFailed, CheckFailed) as exc:
            print(f"{label} stopped: {exc}", file=sys.stderr)
            correct = False
            return None
        finally:
            attempted += r.attempted
            failed += r.failed
        rss = max(rss, peak)
        try:
            wl.check(out)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        counts = out["counts"]
        print(f"{label}: wall {wall:.3f} s, cpu {cpu:.3f} s, {r.attempted} operations", flush=True)
        return wall, cpu

    fresh_caches()
    warm = one_round("warm-up")
    walls, cpus = [], []
    metrics = {}
    if correct and args.trace:
        from spans import Tracer

        fresh_caches()
        tracer = Tracer(round_id=1)
        res = one_round("traced round", tracer)
        if res is not None:
            tracer.dump(stem + ".trace.json", {"workload": args.workload, "seed": args.seed,
                                               "untraced_wall_s": warm[0], "traced_wall_s": res[0],
                                               "counts": counts})
            lm = layer_metrics(tracer, counts, res[0], warm[0])
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in lm.items()}
    elif correct:
        while correct:
            res = one_round(f"round {len(walls) + 1}")
            if res is None:
                break
            walls.append(res[0])
            cpus.append(res[1])
            if (len(walls) >= MIN_ROUNDS
                    and sum(walls) + statistics.median(walls) > args.seconds):
                break
        if correct:
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
                "setup_s": {"value": time_startup(args) + warm[0], "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
    for name in os.listdir(stem):
        os.remove(os.path.join(stem, name))
    os.rmdir(stem)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
