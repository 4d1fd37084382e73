"""Regenerate reference.json: every instance of every workload solved once.

    python3 bench/make_reference.py [workload ...]

Run it from the repository root, and only for a change meant to alter solver
outputs; the diff of reference.json then shows which outputs moved.  Names
given on the command line are regenerated, the other workloads kept.
"""

from __future__ import annotations

import json
import sys

from run import prepare_environment


def main(argv) -> int:
    prepare_environment()
    import checks
    from workloads import WORKLOADS

    names = argv or list(WORKLOADS)
    try:
        with open(checks.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    for name in names:
        workload = WORKLOADS[name](seed=0)
        entries = {}
        for chunk in range(workload.population):
            for op in (op for batch in workload.run_chunk(chunk) for op in batch):
                entries[op.key] = checks.reference_entry(op)
                problems = checks.check_op(op, entries[op.key])
                if problems:
                    raise SystemExit("\n".join(problems))
        reference[name] = entries
        print(f"{name}: {len(entries)} instances", file=sys.stderr)
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
