"""Per-op correctness checks against the committed reference outcomes.

``reference.json`` holds, for every instance in every workload's population,
the outcome of each solver, each solved objective at full precision and each
result row at CSV precision (9 significant digits).  ``make_reference.py``
writes it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from flmar import objective, rows_to_csv, system_metrics

REFERENCE = Path(__file__).with_name("reference.json")

# The joint solver may beat its reference by any margin but lose by at most
# this share, so solver improvements pass and regressions fail.
JOINT_REL_TOL = 1e-6
# The oracle and the random baseline are deterministic references, and an
# objective recomputed from the same allocation must agree to rounding.
MATCH_REL_TOL = 1e-9


def load_reference(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def csv_line(row) -> str:
    return rows_to_csv([row]).splitlines()[1]


def reference_entry(op) -> dict:
    return {
        "outcomes": op.outcomes,
        "objective": {row.solver: row.objective for row in op.rows},
        "rows": [csv_line(row) for row in op.rows],
    }


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_op(op, ref: dict | None) -> list:
    """Problems with one op's outputs; empty when it passes."""
    if ref is None:
        return [f"{op.key}: no reference entry"]
    problems = []
    if op.outcomes != ref["outcomes"]:
        problems.append(f"outcomes {op.outcomes} differ from reference {ref['outcomes']}")
    for solver, report in op.reports.items():
        errors = report.allocation.validate(op.scenario)
        if errors:
            problems.append(f"{solver}: invalid allocation: {errors[0]}")
        again = objective(op.weights, system_metrics(op.scenario, report.allocation))
        if not _close(again, report.objective, MATCH_REL_TOL):
            problems.append(f"{solver}: objective {report.objective} recomputes to {again}")
    w = op.weights
    for row in op.rows:
        from_totals = (w.w1 * row.total_energy_j + w.w2 * row.total_time_s
                       + w.w3 * op.n_devices * (1.0 - row.mean_accuracy))
        if not _close(from_totals, row.objective, MATCH_REL_TOL):
            problems.append(f"{row.solver}: objective {row.objective} != totals {from_totals}")
        expected = ref["objective"].get(row.solver)
        if expected is None:
            continue
        if row.solver == "joint":
            if row.objective - expected > JOINT_REL_TOL * abs(expected):
                problems.append(f"joint objective {row.objective} worse than "
                                f"reference {expected}")
        elif not _close(row.objective, expected, MATCH_REL_TOL):
            problems.append(f"{row.solver} objective {row.objective} != reference {expected}")
    return [f"{op.key}: {p}" for p in problems]


def output_summary(ops, reference: dict) -> dict:
    """Digest of the run's rows at CSV precision, and how many match the reference.

    Informational: a last-bit change can flip a 9-digit rounding boundary.
    """
    lines = sorted({csv_line(row) for op in ops for row in op.rows})
    unchanged = sum(
        line in reference.get(op.key, {}).get("rows", ())
        for op in ops for line in map(csv_line, op.rows)
    )
    return {
        "rows_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "distinct_rows": len(lines),
        "rows_checked": sum(len(op.rows) for op in ops),
        "rows_as_reference": unchanged,
    }
