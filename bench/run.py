"""suisim benchmark: one workload, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of the workload's operations until ``--seconds``
have passed, and at least ``MIN_ROUNDS``.  Each round runs in a fresh worker
process, as each suisim command does, so no round profits from a cache an
earlier round filled; each worker first times its own set-up (importing
suisim and loading the workload's configs), which gives ``setup_s``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
traced and untraced rounds and reports the per-layer metrics and the
tracing overhead.  ``--workload all`` runs every workload in turn.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; each run also
writes its metrics with provenance to ``bench/results/``.
"""

from __future__ import annotations

import os

# One compute thread keeps run-to-run spread low; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import probe
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
#: Fewest whole rounds per run: three latencies of each operation and three
#: set-up samples, of which the medians are reported.  The spectral
#: workload compares the CSV bytes of each round with the first round's.
MIN_ROUNDS = 3
#: Longest a worker process may take for one round.
WORKER_TIMEOUT_S = 150

#: A worker: times the set-up a fresh suisim process pays, then runs one round.
_WORKER_CODE = """
import sys, time
src, bench, name, seed, kind = sys.argv[1:6]
sys.path[:0] = [src, bench]
t0 = time.perf_counter()
import suisim, suisim.cli
t1 = time.perf_counter()
import workloads
docs = workloads.config_documents(name, int(seed))
t2 = time.perf_counter()
for raw in docs:
    suisim.config.load_config(raw)
t3 = time.perf_counter()
import run
sys.exit(run.run_worker(name, int(seed), kind, {"import_s": t1 - t0, "load_s": t3 - t2}))
"""


# --------------------------------------------------------------------------
# worker: one round in a fresh process
# --------------------------------------------------------------------------


def run_round(ops, tracer) -> dict:
    """Run every operation once, each between two host-speed probes."""
    outcomes, problems, digests = [], [], {}
    probe.probe()  # first use of numpy's linalg and fft
    probes = [probe.probe()]
    for op in ops:
        if op.workdir is not None:
            workloads.clear_dir(op.workdir)
        out = None
        with tracer.operation(op.label):
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # noqa: BLE001 - failures are counted, not fatal
                # Handled here so the traceback, and the arrays its frames
                # hold, is freed before the next operation starts.
                latency = time.perf_counter() - t0
                if op.expect_error is None or op.expect_error not in str(exc):
                    problems.append(f"{op.label}: unexpected {type(exc).__name__}: {exc}")
                    traceback.print_exception(exc, file=sys.stderr)
            else:
                latency = time.perf_counter() - t0
        probes.append(probe.probe())
        outcomes.append([op.label, latency, out is not None])
        if out is not None:
            with tracer.paused():
                problems += op.check(out)
            out = None
            if op.workdir is not None:
                digests[op.label] = workloads.csv_digest(op.workdir)
        if tracer.enabled and op.workdir is not None:
            tracer.counts["cli.out_bytes"] += sum(
                entry.stat().st_size for entry in os.scandir(op.workdir) if entry.is_file()
            )
    return {"ops": outcomes, "probes": probes, "problems": problems, "digests": digests}


def run_worker(workload: str, seed: int, kind: str, setup: dict) -> int:
    import numpy
    import scipy

    import suisim
    import suisim.cli  # noqa: F401 - loads every module the tracer patches

    workdir = os.path.join(BENCH_DIR, "_work", workload)
    ops = workloads.build_ops(workload, seed, workdir)
    tracer = spans.Tracer()
    if kind == "traced":
        tracer.install()
        tracer.enabled = True
    out = run_round(ops, tracer)
    tracer.enabled = False
    out["setup"] = setup
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"suisim": suisim.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__}
    if kind == "traced":
        from suisim import verify

        out["layers"] = spans.layer_metrics(tracer, 1, verify.check_ids())
        os.makedirs(RESULTS_DIR, exist_ok=True)
        tracer.save(os.path.join(RESULTS_DIR, f"spans-{workload}.npz"))
    print(json.dumps(out))
    return 0


# --------------------------------------------------------------------------
# parent: set-up, rounds, metrics
# --------------------------------------------------------------------------


def spawn_round(args, src: str, kind: str) -> dict:
    argv = [sys.executable, "-c", _WORKER_CODE, src, BENCH_DIR, args.workload, str(args.seed), kind]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} round of {args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scipy_import_seconds(src: str) -> float:
    """Cumulative import time of the outermost scipy modules, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import sys; sys.path.insert(0, {src!r}); import suisim"],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> float:
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    # Entries are printed children first; walking backwards meets each
    # parent before its children.
    total_us = 0
    stack: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not (parent == "scipy" or parent.startswith("scipy.")):
            total_us += cumulative
        stack.append((level, name))
    return total_us / 1e6


def git_commit(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def work_median(latency: dict[str, float], failed: set[str]) -> float:
    """Latency at the median second of work.

    Operations are weighted by their own time, so an operation that costs
    4 s counts for more than one that costs 0.04 ms; a failed operation
    counts as infinitely late.  Each operation stands at the middle of the
    work it spans, and the median is interpolated between the two
    operations on either side of the half-way point.  Without that, the
    figure jumped from one operation's latency to the next whenever an
    operation's share of the work crossed one half (spectral: 2.6 s or
    5.8 s on the same code).
    """
    ranked = sorted((math.inf if label in failed else t, t) for label, t in latency.items())
    half = sum(t for _, t in ranked) / 2.0
    spent, before = 0.0, None
    for late, t in ranked:
        middle = spent + t / 2.0
        if middle >= half:
            if before is None:
                return late
            share = (half - before[0]) / (middle - before[0])
            return before[1] + share * (late - before[1])
        before, spent = (middle, late), spent + t
    return ranked[-1][0]


def latencies(rnd: dict, slope: float) -> list[float]:
    """A round's operation latencies on the nominal host (see probe.py)."""
    return [op[1] * f for op, f in zip(rnd["ops"], probe.factors(rnd["probes"], slope))]


def end_to_end(rounds: list[dict], setup: list[dict], slope: float) -> dict[str, tuple[float, str]]:
    """Metrics of the untraced rounds, each operation at its median
    scaled latency over the rounds; set-up times are the wall times of
    every worker of the run."""
    scaled: dict[str, list[float]] = {}
    failed = set()
    for rnd in rounds:
        for (label, _, ok), latency in zip(rnd["ops"], latencies(rnd, slope)):
            scaled.setdefault(label, []).append(latency)
            if not ok:
                failed.add(label)
    typical = {label: statistics.median(times) for label, times in scaled.items()}
    return {
        "setup_s": (statistics.median(s["import_s"] + s["load_s"] for s in setup), "s"),
        "ops_per_s": ((len(typical) - len(failed)) / sum(typical.values()), "ops/s"),
        "op_p50_ms": (work_median(typical, failed) * 1e3, "ms"),
        "peak_rss_mb": (max(rnd["maxrss_mb"] for rnd in rounds), "MB"),
    }


def run_workload(args, root: str) -> int:
    src = os.path.join(root, "src")
    rounds: dict[str, list[dict]] = {"plain": [], "traced": []}
    plain, traced = rounds["plain"], rounds["traced"]
    start = time.perf_counter()
    try:
        if args.trace:
            while min(len(plain), len(traced)) < 1 or time.perf_counter() - start < args.seconds:
                kind = "traced" if len(traced) <= len(plain) else "plain"
                rounds[kind].append(spawn_round(args, src, kind))
        else:
            while len(plain) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
                plain.append(spawn_round(args, src, "plain"))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(BENCH_DIR, "_work"), ignore_errors=True)

    every = plain + traced
    setup = [rnd["setup"] for rnd in every]
    problems = [p for rnd in every for p in rnd["problems"]]
    attempted = sum(len(rnd["ops"]) for rnd in every)
    failed = sum(not ok for rnd in every for *_, ok in rnd["ops"])
    for label, digest in every[0]["digests"].items():
        if any(rnd["digests"].get(label, digest) != digest for rnd in every):
            problems.append(f"{label}: CSV bytes differ between rounds with the same seed")
    n_faults = sum(label in workloads.FAULT_LABELS for label, *_ in every[0]["ops"])

    if args.trace:
        metrics = {}
        for name, (_, unit) in traced[0]["layers"].items():
            total = sum(rnd["layers"][name][0] for rnd in traced)
            metrics[name] = (spans.per_round(total, len(traced)), unit)
        metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in setup), "s")
        metrics["setup.scipy_import_s"] = (scipy_import_seconds(src), "s")
        slope = workloads.PROBE_SLOPE[args.workload]
        busy = {kind: statistics.median(sum(latencies(rnd, slope)) for rnd in rounds[kind]) for kind in rounds}
        overhead = busy["traced"] / busy["plain"]
        metrics["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%")
    else:
        metrics = end_to_end(plain, setup, workloads.PROBE_SLOPE[args.workload])

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        expected_failed=n_faults * len(every),
        rounds={"untraced": len(plain), "traced": len(traced)},
        probe_ms=statistics.median(p for rnd in every for p in rnd["probes"]) * 1e3,
        setup_samples=setup,
        problems=problems[:50],
        provenance=dict(
            every[0]["versions"],
            python=sys.version.split()[0],
            nproc=os.cpu_count(),
            git_commit=git_commit(root),
            seed=args.seed,
            utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  attempted {attempted}, failed {failed} (expected {record['expected_failed']})")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn; sums counts, prefixes metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "suisim", "__init__.py")):
        print("bench: src/suisim not found; run from the root of a suisim checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
