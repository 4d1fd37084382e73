"""flmar benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload grid40 --seed 0 --seconds 25 --trace 0

Run from the repository root; ``BENCHMARK.json`` lists the workloads and
metrics.  The load is a closed loop with one caller in one process, and BLAS
and OpenMP are pinned to one thread.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates each chunk untraced and traced, probes
every layer after each traced op and prints the per-layer metrics.  Every op
is checked against ``reference.json``; the untraced ``grid40`` ops carry rows
only, so their allocations are checked in the traced run's replay.  The last
line of standard output is the result; the line before it holds the details
and the machine, and ``bench/out/`` keeps both, plus the batch timings and
the spans of a traced run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3           # this process plus two child processes
P75_MIN_SAMPLES = 40        # ten or more samples beyond the 75th percentile
SETUP_CALIBRATIONS = 10


def prepare_environment() -> None:
    """Pin native thread pools to one thread and put ``src/`` on the import path.

    Must run before numpy is first imported.
    """
    if not (SRC / "flmar" / "__init__.py").is_file():
        sys.exit(f"flmar sources not found under {SRC}; run from a checkout of the repository")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup(name: str, seed: int, tracer):
    """Import flmar, build the workload's inputs and finish one warm-up op.

    Returns the workload, the set-up time and calibration samples taken
    right after it.
    """
    started = perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed, tracer)
    workload.warmup()
    elapsed = perf_counter() - started
    import calibration

    return workload, elapsed, [calibration.kernel_ms() for _ in range(SETUP_CALIBRATIONS)]


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def measure(workload, seconds: float, tracer):
    """Run chunks in seed order until the next one would end after ``seconds``.

    After every untraced batch of ops the calibration kernel runs, outside
    the timed interval; each op's ``time_scale`` scales its times by the kernel
    samples taken just before and just after it.  ``timings`` keeps each
    batch's wall times and kernel samples, so the scaling can be re-fitted.
    A traced run repeats each chunk traced right after its untraced run, then
    probes the layers, so both halves see the same instances.
    """
    import calibration
    import layers
    from spans import NULL_TRACER

    traced = tracer is not NULL_TRACER
    ops, traced_ops, oracle_scenarios, timings = [], [], [], []
    busy_s = scaled_busy_s = 0.0
    before = calibration.sample_ms(0.0)
    start = perf_counter()
    for chunk in itertools.cycle(workload.chunks):
        chunk_start = perf_counter()
        batches = workload.run_chunk(chunk)
        while True:
            batch_start = perf_counter()
            batch = next(batches, None)
            elapsed = perf_counter() - batch_start
            if batch is None:
                break
            after = calibration.sample_ms(elapsed)
            scale = calibration.time_scale([before, after])
            timings.append({"elapsed_s": elapsed, "kernel_ms": [before, after],
                            "solve_ms": [[op.scheme, op.solve_ms] for op in batch
                                         if op.outcomes.get("joint") == "ok"]})
            before = after
            for op in batch:
                op.time_scale = scale
            ops += batch
            busy_s += elapsed
            scaled_busy_s += elapsed * scale
        if traced:
            chunk_ops = [op for batch in workload.run_chunk(chunk, tracer) for op in batch]
            for op in chunk_ops:
                layers.probe(tracer, op)
            if workload.has_oracle:
                oracle_scenarios += [op.scenario for op in chunk_ops]
            else:
                fdma = next((op for op in chunk_ops
                             if op.scheme == "fdma" and "joint" in op.reports), None)
                if fdma is not None:
                    oracle_scenarios += layers.probe_oracle(tracer, fdma)
            traced_ops += chunk_ops
        now = perf_counter()
        if (now - start) + (now - chunk_start) > seconds:
            break
    return ops, traced_ops, busy_s, scaled_busy_s, oracle_scenarios, timings


def _solve_samples(ops, scheme, scaled=True):
    return [op.solve_ms * (op.time_scale if scaled else 1.0) for op in ops
            if op.scheme == scheme and op.outcomes.get("joint") == "ok"]


def end_to_end(ops, scaled_busy_s, setup_samples) -> dict:
    """The gated metrics, with times at the reference speed.

    A scheme without a solved op has no latency metric; its ops have failed
    the reference check, so the run is not correct.
    """
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(ops) / scaled_busy_s, "op/s"),
    }
    for scheme in ("fdma", "noma"):
        samples = _solve_samples(ops, scheme)
        if samples:
            metrics[f"{scheme}_solve_ms_p50"] = (statistics.median(samples), "ms")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def extra_metrics(ops, all_ops, failed, setup_samples, busy_s, scaled_busy_s) -> dict:
    """Figures outside the gate: not on every workload, possibly 0, or unscaled."""
    out = {
        "ops_attempted": {"value": len(all_ops), "unit": "count"},
        "ops_failed": {"value": failed, "unit": "count"},
        "setup_s_samples": {"value": setup_samples, "unit": "s"},
        "time_scale_mean": {"value": scaled_busy_s / busy_s, "unit": "ratio"},
        "ops_per_s_wall": {"value": len(ops) / busy_s, "unit": "op/s"},
    }
    for scheme in ("fdma", "noma"):
        samples = _solve_samples(ops, scheme)
        out[f"{scheme}_solve_samples"] = {"value": len(samples), "unit": "count"}
        if samples:
            out[f"{scheme}_solve_ms_p50_wall"] = {
                "value": statistics.median(_solve_samples(ops, scheme, scaled=False)),
                "unit": "ms"}
        if len(samples) >= P75_MIN_SAMPLES:
            out[f"{scheme}_solve_ms_p75"] = {
                "value": statistics.quantiles(samples, n=4)[2], "unit": "ms",
                "samples": len(samples)}

    def objectives(solver):
        return {op.key: row.objective for op in all_ops for row in op.rows
                if row.solver == solver}

    joint = objectives("joint")
    for solver in ("random", "oracle"):
        other = objectives(solver)
        pairs = [(joint[k], other[k]) for k in joint.keys() & other.keys()]
        if not pairs:
            continue
        if solver == "random":
            out["objective_vs_random"] = {
                "value": statistics.mean(j / r for j, r in pairs), "unit": "ratio"}
        else:
            out["oracle_gap_pct_max"] = {
                "value": max(100.0 * (j - o) / o for j, o in pairs), "unit": "%"}
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def context(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("grid40", "scale640", "pinned", "oracle"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long to measure; BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for the set-up samples)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    from spans import NULL_TRACER, Tracer

    tracer = Tracer() if args.trace else NULL_TRACER
    workload, setup_wall_s, setup_kernel_ms = setup(args.workload, args.seed, tracer)
    import calibration

    setup_s = setup_wall_s * calibration.time_scale(setup_kernel_ms)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks
    import layers

    ops, traced_ops, busy_s, scaled_busy_s, oracle_scenarios, batch_timings = measure(
        workload, args.seconds, tracer)
    all_ops = ops + traced_ops
    reference = checks.load_reference(args.workload)
    per_op = [checks.check_op(op, reference.get(op.key)) for op in all_ops]
    problems = [p for found in per_op for p in found]
    failed = sum(bool(found) for found in per_op)

    setup_samples = [setup_s]
    if args.trace:
        layers.end_of_run(tracer, [row for op in traced_ops for row in op.rows])
        traced_rate = len(traced_ops) / sum(tracer.durations("op"))
        untraced_rate = len(ops) / busy_s
        overhead = (traced_rate, untraced_rate, 100.0 * (untraced_rate / traced_rate - 1.0))
        metrics = layers.layer_metrics(tracer, traced_ops, oracle_scenarios, overhead)
    else:
        setup_samples += [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(ops, scaled_busy_s, setup_samples)

    result = {"correct": not problems, "attempted": len(all_ops), "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": busy_s,
        "extra_metrics": extra_metrics(ops, all_ops, failed, setup_samples, busy_s,
                                       scaled_busy_s),
        "outputs": checks.output_summary(all_ops, reference),
        "problems": problems[:20],
        "context": context(args.seed),
    }
    OUT.mkdir(exist_ok=True)
    timings = {"setup": {"wall_s": setup_wall_s, "kernel_ms": setup_kernel_ms},
               "batches": batch_timings}
    record = {"result": result, "detail": detail, "timings": timings,
              "spans": tracer.as_dicts() if args.trace else []}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
