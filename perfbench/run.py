"""bohrcheck benchmark: one workload, end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload maps --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer split with every public bohrcheck
function wrapped (see ``spans.py``), plus the tracing overhead. Both modes
run the correctness gate. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``metrics`` holds the metrics that ``BENCHMARK.json`` lists for the mode.
Every metric, including those not listed there, is printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fresh interpreters started to measure setup_s; the median is reported.
SETUP_REPEATS = 7

#: BLAS runs single-threaded: the matrices are at most 8 x 8, and one thread
#: never exceeds nproc.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment() -> Path:
    """Pin BLAS threads and put this checkout's ``src`` first on sys.path.

    Must run before numpy is imported. Exits with status 2 when the
    checkout has no bohrcheck sources.
    """
    src = ROOT / "src"
    if not (src / "bohrcheck" / "__init__.py").is_file():
        print(f"error: no bohrcheck package under {src}", file=sys.stderr)
        raise SystemExit(2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    return ROOT


def git_revision(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_revision": git_revision(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(workload, batch) -> float:
    """Median time from a fresh interpreter to bohrcheck imported and one trial done."""
    probe = [sys.executable, str(ROOT / "perfbench" / "first_trial.py"), *workload.probe_args(batch)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "done":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def _rate(passes) -> float:
    """Trials per second over a set of passes: all trials over all timed seconds."""
    passes = list(passes)
    return sum(p.attempted for p in passes) / sum(p.seconds for p in passes)


def _batch(workload, args, k: int):
    import workloads

    return workload.prepare(workloads.pass_seed(args.seed, k), workloads.PASS_TRIALS[args.workload])


def run_untraced(workload, args) -> tuple[dict, list, int, int]:
    import gate

    # The gate runs first: it warms the process up, and a replay batch
    # replaces the artifacts of the one before it.
    problems = gate.compare(workload.name, workload.run(gate.gate_batch(workload)))
    first = _batch(workload, args, 0)
    setup_s = measure_setup(workload, first)

    passes = []
    while not passes or sum(p.seconds for p in passes) < args.seconds:
        batch = _batch(workload, args, len(passes)) if passes else first
        passes.append(workload.run(batch))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems += p.problems
    metrics = {
        "trials_per_s": _rate(passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": failed / attempted,
        "passes": len(passes),
        "pass_trials_per_s_min": min(p.trials_per_s for p in passes),
        "pass_trials_per_s_max": max(p.trials_per_s for p in passes),
        "trials_per_pass": passes[0].attempted,
    }
    return metrics, problems, attempted, failed


def run_traced(workload, args) -> tuple[dict, list, int, int]:
    import gate
    import spans

    gate_batch = gate.gate_batch(workload)
    with spans.installed(spans.Tracer()):
        problems = gate.compare(workload.name, workload.run(gate_batch))
    batch = _batch(workload, args, 0)

    untraced, traced = [], []
    while len(traced) < 2 or sum(p.seconds for p, _ in traced + untraced) < args.seconds:
        # Alternate which side runs first, so warm-up favours neither.
        for side in ("u", "t") if len(traced) % 2 == 0 else ("t", "u"):
            if side == "u":
                untraced.append((workload.run(batch), None))
            else:
                tracer = spans.Tracer()
                with spans.installed(tracer):
                    traced.append((workload.run(batch), tracer))

    reference, _ = untraced[0]
    first_counts = spans.counts(traced[0][1])
    for p, tracer in untraced + traced:
        problems += p.problems
        if p.outcomes != reference.outcomes or p.output_sha256 != reference.output_sha256:
            problems.append("traced and untraced passes over the same inputs disagree")
        if tracer is not None and spans.counts(tracer) != first_counts:
            problems.append(f"count metrics differ between traced passes: {spans.counts(tracer)} vs {first_counts}")
    trials = reference.attempted
    per_pass = [spans.layer_metrics(tracer, trials) for _, tracer in traced]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.untraced_trials_per_s"] = _rate(p for p, _ in untraced)
    metrics["trace.traced_trials_per_s"] = _rate(p for p, _ in traced)
    metrics["trace.overhead_ratio"] = metrics["trace.traced_trials_per_s"] / metrics["trace.untraced_trials_per_s"]
    metrics["trace.passes"] = len(traced)

    out = ROOT / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
    traced[0][1].write(out)
    print(f"spans of the first traced pass: {out.relative_to(ROOT)}")
    attempted = sum(p.attempted for p, _ in untraced + traced)
    failed = sum(p.failed for p, _ in untraced + traced)
    return metrics, problems, attempted, failed


def _unit(key: str) -> str:
    """Unit of a printed metric that BENCHMARK.json does not list."""
    for suffix, unit in (("_us_per_call", "us/call"), ("_us", "us"), ("_share", "%"), ("_per_s", "1/s")):
        if key.endswith(suffix) or f"{suffix}_" in key:
            return unit
    return "ratio" if "ratio" in key else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("maps", "spectral", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    prepare_environment()
    import bohrcheck
    import workloads

    if not Path(bohrcheck.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported bohrcheck from {bohrcheck.__file__}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args)), flush=True)

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / "perfbench" / "out"))
    try:
        workload = workloads.make(args.workload, workdir)
        run = run_traced if args.trace else run_untraced
        metrics, problems, attempted, failed = run(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for key in sorted(metrics):
        print(f"{key:40s} {metrics[key]:<14.6g} {units.get(key) or _unit(key)}")
    for problem in problems[:20]:
        print(f"GATE: {problem}", file=sys.stderr)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
