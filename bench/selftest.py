"""Smoke test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload in BENCHMARK.json at minimal size (``--seconds 1``,
so one chunk), untraced and traced, on a seed other than the default, and
checks the result line: every declared metric present with its unit, the
extra end-to-end figures printed, and no failed op.  Then checks that the
benchmark fails without printing a result where the flmar sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 5                    # run.py defaults to seed 0
EXTRA = ("ops_attempted", "ops_failed")


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(done, declared: dict, trace: int) -> list:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {detail['problems'][:3]}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metrics {sorted(set(metrics) ^ set(declared))} differ from declared")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), float):
            problems.append(f"{name}: {got} lacks a float value in {unit}")
    if trace == 0:
        extra = detail["extra_metrics"]
        missing = [k for k in EXTRA if k not in extra]
        if missing or extra["ops_failed"]["value"] != 0:
            problems.append(f"extra metrics missing {missing} or ops failed")
    return problems


def check_without_sources() -> list:
    """The benchmark alone, without src/, must fail and print no result."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(bare, "oracle", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without sources: exit {done.returncode}, stdout {done.stdout[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    groups = {0: "end_to_end", 1: "per_layer"}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in groups.items():
            declared = {m["name"]: m["unit"] for m in spec[group]}
            problems = check_result(run(ROOT, workload, trace), declared, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
    problems = check_without_sources()
    print(f"without sources: {'ok' if not problems else 'FAIL'}")
    failures += problems
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
