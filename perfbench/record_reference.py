"""Record the reference values that ``checks.py`` compares artifacts with.

Usage, from the repository root::

    python3 perfbench/record_reference.py

Runs every op of every workload once for each seed in ``SEEDS``, in this
process, and writes ``perfbench/reference.json``.  The analytic workload
draws no random numbers, so it is recorded for seed 0 only.  Re-record only when a change
is meant to alter results, and say so with the change.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(12)


def main() -> None:
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)

    import lpconc.cli as cli

    import checks
    import workloads

    data = {"version": 1, "workloads": {}}
    for workload in workloads.WORKLOADS:
        seeds = [0] if workload == "analytic" else list(SEEDS)
        names: dict[str, list[str]] = {}
        per_seed = {}
        for seed in seeds:
            record = {}
            for op in workloads.build(workload, seed):
                if cli.run(list(op.argv)) != 0:
                    raise SystemExit(f"{workload} seed {seed}: {op.name} failed")
                with open(op.out) as handle:
                    doc = json.load(handle)
                found = checks.quantities(doc)
                problems = checks.oracles(doc, op.meta)
                if problems:
                    raise SystemExit(f"{workload} seed {seed}: {op.name}: {problems}")
                if names.setdefault(op.name, list(found)) != list(found):
                    raise SystemExit(f"{workload} seed {seed}: {op.name}: quantities changed")
                record[op.name] = [_plain(value) for _, value, _, _ in found.values()]
            per_seed[str(seed)] = record
            print(f"recorded {workload} seed {seed}", flush=True)
        data["workloads"][workload] = {"names": names, "seeds": per_seed}
    with open(checks.REFERENCE_PATH, "w") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.write("\n")


def _plain(value):
    """Non-finite floats as the CLI writes them, so the file stays plain JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


if __name__ == "__main__":
    main()
