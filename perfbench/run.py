#!/usr/bin/env python3
"""Benchmark of the shimura_pq checker, timed end to end and per layer.

    python3 perfbench/run.py --workload cold_check --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after the other

Workloads (README.md says why each was chosen):
  cold_check    `check` on an empty cache for (13,47), (29,47) and (5,163);
  warm_recheck  `check --l 3|5` on the caches of (13,47) and (13,83) built in set-up;
  disc_scan     optimal-embedding counts into every vertex and edge order of
                the (13,47) graph, for every other discriminant with |D| <= 100.
The seed sets the order of the operations.  A check operation is one `python -m shimura_pq.cli check ... --override-hypotheses
--cache DIR` child process; disc_scan runs in this process.  Operations run one
at a time.  The measured phase runs whole rounds of the workload's operations;
another round starts only if it should end within --seconds (at least one runs).
Every output is checked by perfbench/verify.py.  Times are in reference
seconds, corrected for the drifting speed of a shared CPU (refclock.py).

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from perfbench/layers.py.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; a copy with the
provenance and every operation goes to perfbench/results/.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")
NPROC = len(os.sched_getaffinity(0))
sys.path.insert(0, HERE)

from layers import Tracer, layer_metrics, merge  # noqa: E402
from refclock import REF_PROBE_S, RefClock  # noqa: E402
from verify import (  # noqa: E402
    CheckError,
    check_certificate,
    check_graph,
    check_same_bytes,
    check_trace_identities,
)

COLD_PAIRS = ((13, 47), (29, 47), (5, 163))
WARM_PAIRS = ((13, 47), (13, 83))
WARM_ELLS = (3, 5)
SCAN_PAIR = (13, 47)
SCAN_BOUND = 100
SETUP_REPEATS = 3
DEADLINE_S = 170  # the whole run, set-up included, must end within 180 s
OP_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "peak_rss_mib": "MiB",
}
TRACE_WALL = "trace.wall_s"  # traced round wall time, for the tracing overhead
# Output that a check cannot read is wrong output, like a failed check.
UNREADABLE = (CheckError, ValueError, KeyError, IndexError, TypeError, OSError)


class SetupError(Exception):
    """The workload's set-up failed; there is nothing to measure."""


class Run:
    """One workload run: its work directory, operation records and stats."""

    def __init__(self, seed, trace, work):
        self.rng = random.Random(seed)
        self.trace = trace
        self.work = work
        self.start = time.perf_counter()
        self.setup_s = []
        self.rounds = []
        self.ops = []
        self.stats = {}
        self.correct = True
        self.peak_rss_kib = 0
        self.children = 0
        self.clock = RefClock()

    def timeout(self):
        left = DEADLINE_S - (time.perf_counter() - self.start)
        return max(1.0, min(OP_TIMEOUT_S, left))

    def judge(self, rec, check):
        """Record the operation; it fails on an error already noted, or if
        its output does not pass `check`."""
        if rec["error"] is None:
            try:
                check()
            except UNREADABLE as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
                self.correct = False
        self.ops.append(rec)
        self.peak_rss_kib = max(self.peak_rss_kib, rec.get("rss_kib", 0))

    def measure(self, seconds, one_round):
        """Whole rounds: one, then another only if it should end within seconds."""
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            first = len(self.ops)
            one_round()
            self.rounds.append(self.ops[first:])
            now = time.perf_counter()
            if now - t_start + (now - t0) > seconds:
                break


# -- child processes ---------------------------------------------------------

def spawn(run, argv, out_path):
    """Run argv with stdout to out_path and stderr beside it: (exit code or
    None on timeout, raw s, reference s, CPU s, peak RSS KiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        return run.clock.child(argv, run.timeout(), stdout=out, stderr=err, env=env, cwd=ROOT)


def check_op(run, label, p, q, cache, ell=None, traced=False):
    """One `check` child process; the record keeps its stdout bytes."""
    args = ["check", "--p", str(p), "--q", str(q), "--override-hypotheses", "--cache", cache]
    if ell is not None:
        args += ["--l", str(ell)]
    run.children += 1
    n = run.children
    out = os.path.join(run.work, f"op{n}.out")
    stats_file = os.path.join(run.work, f"op{n}.stats.json")
    if traced:
        argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), stats_file, *args]
    else:
        argv = [sys.executable, "-m", "shimura_pq.cli", *args]
    code, raw, ref, cpu, rss = spawn(run, argv, out)
    rec = {"op": label, "wall_s": ref, "cpu_s": cpu * ref / raw, "raw_wall_s": raw,
           "raw_cpu_s": cpu, "rss_kib": rss, "exit": code, "error": None}
    if code is None:
        rec["error"] = "timeout"
    elif code not in (0, 1, 2):
        with open(out + ".err", encoding="utf-8", errors="replace") as fh:
            rec["error"] = f"exit code {code}: {fh.read().strip()[-500:]}"
    with open(out, "rb") as fh:
        rec["stdout"] = fh.read()
    if traced and os.path.exists(stats_file):
        with open(stats_file, encoding="utf-8") as fh:
            merge(run.stats, json.load(fh))
    return rec


def read_cache(cache):
    """The one graph file the CLI wrote into the cache directory."""
    names = [n for n in os.listdir(cache) if n.endswith(".json")]
    if len(names) != 1:
        raise CheckError("cache.file", f"expected one graph file in the cache, found {names}")
    with open(os.path.join(cache, names[0]), "rb") as fh:
        return fh.read()


# -- workloads ---------------------------------------------------------------

def cold_check(run, seconds):
    """`check` on an empty cache: a user's first run on a pair."""
    for i in range(SETUP_REPEATS):
        # Set-up is the import warm-up of the CLI (it also compiles the
        # bytecode on a fresh checkout); the caches are new directories.
        code, _, ref, _, _ = spawn(
            run, [sys.executable, "-m", "shimura_pq.cli", "ogg", "--p", "13", "--q", "47"],
            os.path.join(run.work, f"setup{i}.out"))
        if code != 0:
            raise SetupError(f"`python -m shimura_pq.cli ogg` exited with {code}")
        run.setup_s.append(ref)
    plan = list(COLD_PAIRS)
    run.rng.shuffle(plan)

    def one_round():
        for p, q in plan:
            cache = os.path.join(run.work, f"cold-{p}-{q}")
            shutil.rmtree(cache, ignore_errors=True)
            os.makedirs(cache)
            rec = check_op(run, f"cold {p} {q}", p, q, cache, traced=run.trace)

            def check(rec=rec, cache=cache, p=p, q=q):
                payload = json.loads(read_cache(cache))
                check_graph(payload, p, q)
                check_certificate(json.loads(rec["stdout"]), payload, rec["exit"])

            run.judge(rec, check)
            shutil.rmtree(cache)

    run.measure(seconds, one_round)


def warm_recheck(run, seconds):
    """`check --l 3|5` on caches built in set-up: a user studying a pair."""
    built = {}
    setup = 0.0
    for p, q in WARM_PAIRS:
        cache = os.path.join(run.work, f"warm-{p}-{q}")
        rec = check_op(run, f"build {p} {q}", p, q, cache, ell=3)
        setup += rec["wall_s"]
        try:
            if rec["error"] is not None:
                raise SetupError(rec["error"])
            blob = read_cache(cache)
            payload = json.loads(blob)
            check_graph(payload, p, q)
            check_certificate(json.loads(rec["stdout"]), payload, rec["exit"])
        except UNREADABLE as exc:
            raise SetupError(f"cold run of ({p},{q}): {exc}") from exc
        built[(p, q)] = (cache, blob, payload, rec["stdout"])
    run.setup_s.append(setup)
    plan = [(p, q, ell) for p, q in WARM_PAIRS for ell in WARM_ELLS]
    run.rng.shuffle(plan)

    def one_round():
        for p, q, ell in plan:
            cache, blob, payload, cold_cert = built[(p, q)]
            rec = check_op(run, f"warm {p} {q} l={ell}", p, q, cache, ell=ell, traced=run.trace)

            def check(rec=rec, ell=ell, cache=cache, blob=blob, payload=payload, cold_cert=cold_cert):
                if read_cache(cache) != blob:
                    raise CheckError("warm.cache_unchanged", "a warm run rewrote the cache")
                check_certificate(json.loads(rec["stdout"]), payload, rec["exit"])
                if ell == 3:
                    check_same_bytes(rec["stdout"], cold_cert)

            run.judge(rec, check)

    run.measure(seconds, one_round)


def scan_discriminants(rng, p, q, bound=SCAN_BOUND):
    """Every other negative discriminant coprime to pq with |D| <= bound, in
    an order drawn from rng.

    The set is fixed and spans the window: the cost of a discriminant grows
    with |D| (0.05 s at D = -3, 2 s at D = -100) and not smoothly, so a set
    drawn at random would move the median operation time with the seed.
    """
    window = [d for d in range(-3, -bound - 1, -1) if d % 4 in (0, 1) and d % p and d % q]
    chosen = window[::2]
    rng.shuffle(chosen)
    return chosen


def disc_scan(run, seconds):
    """Eichler trace-identity battery on the (13,47) graph, in this process."""
    from shimura_pq import certify, gross, ssgraph

    p, q = SCAN_PAIR

    def setup():
        graph = ssgraph.build_graph(p, q)
        vertex_orders = [(rec.right_order, graph.vset.units_of(k))
                         for k, rec in enumerate(graph.vset.classes)]
        edge_orders = [(e.eichler, gross.graph_eichler_units(graph, i))
                       for i, e in enumerate(graph.edges)]
        return graph, vertex_orders, edge_orders

    for _ in range(SETUP_REPEATS):
        (graph, vertex_orders, edge_orders), _, ref, _ = run.clock.call(setup)
        run.setup_s.append(ref)
    try:
        check_graph(certify.graph_payload(graph), p, q)
    except CheckError as exc:
        raise SetupError(f"graph of ({p},{q}): {exc}") from exc
    draw = scan_discriminants(run.rng, p, q)

    def scan(d):
        # Looked up at call time, so that the tracer's wrapper is used.
        count = gross.optimal_embeddings
        try:
            return (sum(count(order, d, units) for order, units in vertex_orders),
                    sum(count(order, d, units) for order, units in edge_orders)), None
        except Exception as exc:  # a failed operation, recorded and counted
            return None, f"{type(exc).__name__}: {exc}"

    def one_round():
        for d in draw:
            (totals, error), raw, ref, cpu = run.clock.call(lambda d=d: scan(d))
            rec = {"op": f"scan D={d}", "wall_s": ref, "cpu_s": cpu * ref / raw,
                   "raw_wall_s": raw, "raw_cpu_s": cpu, "exit": None, "error": error}
            run.judge(rec, lambda d=d, totals=totals: check_trace_identities(d, p, q, *totals))

    # Wrapper times are CPU times less the probes' CPU, so the probes run
    # from the timer signal are not charged to the layer they interrupt.
    tracer = Tracer(lambda: time.process_time() - run.clock.probe_cpu_s) if run.trace else None
    if tracer:
        tracer.install()
    try:
        run.measure(seconds, one_round)
    finally:
        if tracer:
            tracer.uninstall()
            merge(run.stats, tracer.stats)
    run.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {"cold_check": cold_check, "warm_recheck": warm_recheck, "disc_scan": disc_scan}


# -- results -----------------------------------------------------------------

def metrics_of(run):
    walls = [sum(r["wall_s"] for r in rnd) for rnd in run.rounds]
    if run.trace:
        scale = sum(r["wall_s"] for r in run.ops) / sum(r["raw_wall_s"] for r in run.ops)
        out = layer_metrics(run.stats, len(run.rounds), scale)
        out[TRACE_WALL] = {"value": statistics.median(walls), "unit": "s"}
        return out
    values = {
        "setup_s": statistics.median(run.setup_s),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(r["cpu_s"] for r in rnd) for rnd in run.rounds),
        "op_p50_s": statistics.median(r["wall_s"] for r in run.ops),
        "peak_rss_mib": run.peak_rss_kib / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def provenance():
    """Git SHA (None outside a git checkout), Python, nproc and src/ size."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src_lines = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": NPROC, "src_lines": src_lines}


def run_workload(name, seed, seconds, trace):
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(seed, bool(trace), work)
    try:
        WORKLOADS[name](run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": run.correct,
        "attempted": len(run.ops),
        "failed": sum(1 for r in run.ops if r["error"] is not None),
        "metrics": metrics_of(run),
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        **provenance(), "result": result, "rounds": len(run.rounds), "setup_s": run.setup_s,
        "ref_probe_s": REF_PROBE_S, "probes_s": run.clock.probes,
        "ops": [{k: v for k, v in r.items() if k != "stdout"} for r in run.ops],
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}-{time.time_ns()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shimura_pq", "__init__.py")):
        print(f"error: no shimura_pq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Probes and operations (children inherit this) run on one CPU: the two
    # CPUs of a shared machine change speed independently of each other.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except SetupError as exc:
            print(f"error: {name} set-up failed: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"{name}  {metric:36s} {m['value']:12.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
