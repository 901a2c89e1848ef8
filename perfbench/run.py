"""Closed-loop benchmark of the tctp package: one client, one thread.

    python3 perfbench/run.py --workload poly|search|cli [--seed N]
                             [--seconds S] [--trace 0|1] [--pin]

Run from the root of a checkout; the package is imported from ``src/``.
Each operation of the workload's seeded corpus starts only when the previous
one has returned. Whole passes over the corpus repeat until ``--seconds`` of
timed work is done, at least three of them; timings are per-operation
medians, scaled by the host's speed as ``hostspeed.py`` samples it during
each operation. Every answer is checked afterwards; a wrong answer prints the result
with ``"correct": false`` and exits 1. The last line of stdout is
the result object; the full record, with provenance, goes to
``.perfbench_out/``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` traces one corpus
build and one pass, between two untraced passes, and reports the per-layer
metrics. ``--pin`` records the answers of one pass in
``perfbench/pinned.json``, for the two pinned seeds and the fixed operations.
See NOTES.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HASH_SEED = "0"
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 5
MIN_PASSES = 3  # per-operation medians need three passes to outvote one slow one
SHORT_S = 0.02  # an op faster than this runs SHORT_RUNS times in each timed pass
SHORT_RUNS = 3
WORKLOADS = ("poly", "search", "cli")
OUT_DIR = ".perfbench_out"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned.json")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"corpus seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="timed work per run; whole passes, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="record this seed's answers in pinned.json")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance


def git_rev() -> str:
    """HEAD of the checkout read from .git without running git; else unknown."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {
        "python": sys.version.split()[0],
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# set-up, corpus and passes


def import_seconds(src: str) -> float:
    """Cold import of tctp in a fresh interpreter, as that interpreter times it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import tctp; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def build(corpus, workload: str, seed: int, workdir: str) -> list:
    if workload == "poly":
        return corpus.poly_ops(seed)
    if workload == "search":
        return corpus.search_ops()
    os.makedirs(workdir, exist_ok=True)
    return corpus.cli_ops(corpus.cli_files(seed, workdir))


def run_once(corpus, op, clock, speed) -> tuple:
    """(latency, span, digest, failure) of one run of ``op``."""
    if speed is not None:
        speed.sample()
    spent = speed.spent if speed is not None else 0.0
    t0 = clock()
    try:
        digest, failure = op.run(), None
    except corpus.OpFailed as exc:
        digest, failure = None, str(exc)
    except Exception as exc:  # a crashing op is counted, not fatal
        digest, failure = None, f"raised {type(exc).__name__}"
    t1 = clock()
    if speed is not None:
        spent = speed.spent - spent
    return t1 - t0 - spent, (t0, t1), digest, failure


def run_pass(corpus, ops, clock=time.perf_counter, tracer=None, speed=None) -> tuple:
    """Run every op in order; returns (results, op wall seconds, unsteady ops).

    A result is (op, latency, digest, failure): exactly one of digest and
    failure is None. With a running ``speed`` sampler the sampler's chunks
    are taken out of each latency and the latency is scaled by the host's
    speed over the op; an op that answered in under SHORT_S then runs
    SHORT_RUNS times in all, and its latency is the median of its runs. An op
    whose repeated runs answered differently is listed as unsteady.
    """
    results, wall, unsteady = [], 0.0, []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        lat, span, digest, failure = run_once(corpus, op, clock, speed)
        if speed is None:
            results.append((op, lat, digest, failure))
            wall += lat
            continue
        runs = [(lat, span)]
        while failure is None and lat < SHORT_S and len(runs) < SHORT_RUNS:
            lat, span, again, failure = run_once(corpus, op, clock, speed)
            runs.append((lat, span))
            if failure is None and again != digest:
                unsteady.append(op.name)
        results.append((op, runs, digest, failure))
        wall += sum(r[0] for r in runs)
    if speed is not None:
        results = [(op, statistics.median(lat * speed.scale(*span) for lat, span in runs),
                    digest, failure) for op, runs, digest, failure in results]
    return results, wall, unsteady


def check(passes, pinned: dict, workload: str, seed: int) -> list:
    """Wrong answers, as (op name, reason); failures are not judged here."""
    fixed = pinned.get(workload, {}).get("fixed", {})
    seeded = pinned.get(workload, {}).get("seeds", {}).get(str(seed), {})
    wrong, first = [], {}
    for results in passes:
        for op, _lat, digest, failure in results:
            if failure is not None:
                continue
            if op.name in first:
                if first[op.name] != digest:
                    wrong.append((op.name, "answer changed between passes"))
                continue
            first[op.name] = digest
            want = (fixed if op.fixed else seeded).get(op.name)
            if want is not None and want != json.loads(json.dumps(digest)):
                wrong.append((op.name, f"pinned {want}, got {digest}"))
                continue
            if op.check is not None:
                reason = op.check(digest)
                if reason is not None:
                    wrong.append((op.name, reason))
    return wrong


def pin(passes, workload: str, seed: int) -> None:
    pinned = load_pinned()
    entry = pinned.setdefault(workload, {"fixed": {}, "seeds": {}})
    seeded: dict = {}
    for op, _lat, digest, failure in passes[0]:
        if failure is None:
            (entry["fixed"] if op.fixed else seeded)[op.name] = digest
    if seeded:
        entry["seeds"][str(seed)] = seeded
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_pinned() -> dict:
    try:
        with open(PINNED, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------------------
# metrics


def op_medians(passes) -> dict:
    """Per operation: (median latency over the passes, first pass's failure)."""
    by_op: dict = {}
    for results in passes:
        for op, lat, _digest, failure in results:
            by_op.setdefault(op.name, []).append((lat, failure))
    return {name: (statistics.median(x[0] for x in runs), runs[0][1])
            for name, runs in by_op.items()}


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict:
    """Timings come from each operation's median scaled wall time over the passes.

    The host-speed scale takes out the slow minutes of a shared host; the
    median then outvotes a burst that covers one pass of an operation.
    """
    by_op = op_medians(passes)
    lat = [x[0] for x in by_op.values()]
    answered = sum(1 for x in by_op.values() if x[1] is None)
    attempted = sum(len(r) for r in passes)
    failed = sum(1 for results in passes for r in results if r[3] is not None)
    return {
        "ops_per_s": (answered / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
                           "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
    }


def kind_summary(passes) -> dict:
    """Per operation class: samples, median and max latency in ms."""
    by_kind: dict = {}
    for results in passes:
        for op, lat, _digest, _failure in results:
            by_kind.setdefault(op.kind, []).append(lat)
    return {k: {"n": len(v), "p50_ms": statistics.median(v) * 1e3,
                "max_ms": max(v) * 1e3} for k, v in sorted(by_kind.items())}


# ---------------------------------------------------------------------------


def main(argv) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # fixed string hashing, so set and dict orders repeat across runs
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv,
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tctp", "__init__.py")):
        print(f"perfbench: no tctp package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import corpus
    import hostspeed
    import tracing

    prov = provenance()
    out_dir = os.path.join(ROOT, OUT_DIR)
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        imports, builds, setup_scales = [], [], []
        for _ in range(SETUP_REPEATS):
            with hostspeed.HostSpeed() as speed:
                t0 = time.perf_counter()
                imports.append(import_seconds(src))
                spent, t1 = speed.spent, time.perf_counter()
                ops = build(corpus, args.workload, args.seed, workdir)
                order = random.Random(args.seed).sample(ops, len(ops))
                t2 = time.perf_counter()
                builds.append(t2 - t1 - (speed.spent - spent))
                setup_scales.append(speed.scale(t0, t2))
        setup_s = statistics.median((i + b) * f
                                    for i, b, f in zip(imports, builds, setup_scales))
        # the corpus is the harness's, not the workload's: keep it out of
        # the collector's full passes
        gc.collect()
        gc.freeze()

        passes, unsteady, wall = [], [], 0.0
        tracer = None
        if args.trace:
            # the untraced passes on either side are the overhead baseline
            before, before_wall, _ = run_pass(corpus, order)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tracer.op = "setup"
                ops = build(corpus, args.workload, args.seed, workdir)
                order = random.Random(args.seed).sample(ops, len(ops))
                traced, traced_wall, _ = run_pass(corpus, order, tracer.clock, tracer)
            finally:
                tracer.uninstall()
            after, after_wall, _ = run_pass(corpus, order)
            base_wall = (before_wall + after_wall) / 2
            wall = before_wall + traced_wall + after_wall
            passes = [before, traced, after]
        else:
            with hostspeed.HostSpeed() as speed:
                while not passes or (not args.pin and (len(passes) < MIN_PASSES
                                                       or wall < args.seconds)):
                    results, dt, changed = run_pass(corpus, order, speed=speed)
                    passes.append(results)
                    unsteady += changed
                    wall += dt
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        wrong = check(passes, load_pinned(), args.workload, args.seed)
        wrong += [(name, "answer changed between repeated runs")
                  for name in sorted(set(unsteady))]
        if args.pin and not wrong:
            pin(passes, args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov["loadavg_end"] = list(os.getloadavg())
    counted = [traced] if args.trace else passes
    attempted = sum(len(r) for r in counted)
    failed = sum(1 for r in counted for x in r if x[3] is not None)
    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced_wall - base_wall
        metrics["trace.overhead_ratio"] = traced_wall / base_wall - 1
        units = {m: unit for m, (unit, _better) in tracing.METRICS.items()}
        result_metrics = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        e2e = end_to_end(passes, setup_s, peak_rss_mb)
        result_metrics = {m: {"value": v, "unit": u} for m, (v, u) in e2e.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": prov, "passes": len(passes), "timed_wall_s": wall,
        "setup": {"import_s": imports, "corpus_s": builds, "scale": setup_scales},
        "samples": attempted, "kinds": kind_summary(counted),
        "op_ms": {name: x[0] * 1e3 for name, x in op_medians(counted).items()},
        "failures": sorted({(x[0].name, x[3]) for r in counted for x in r
                            if x[3] is not None}),
        "wrong": wrong, "metrics": result_metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} samples={attempted} failed={failed} "
          f"python={prov['python']} rev={prov['git_rev'][:12]} nproc={prov['nproc']} "
          f"PYTHONHASHSEED={prov['PYTHONHASHSEED']} "
          f"loadavg={prov['loadavg_start'][0]:.2f}->{prov['loadavg_end'][0]:.2f}")
    for op_name, reason in wrong:
        print(f"WRONG {op_name}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
