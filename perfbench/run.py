"""lpconc benchmark: drives the ``lpconc`` CLI in process over three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload {analytic,montecarlo,tables} \\
        --seed N --seconds S --trace {0,1}

Load model: a closed loop.  One process runs one CLI invocation (an op) at
a time through ``lpconc.cli.run`` and starts the next when it returns; the
library's chunk thread pool keeps its default size.  Each repetition (every
op of the workload once) runs in a fresh Python process, as a CLI user
would, so no cache outlives it and set-up time and peak RSS are per process.
With ``--trace 0`` a new repetition starts while it is expected to end
within ``--seconds`` of the start (at least ``MIN_REPS`` run), and the
end-to-end metrics are reported.  With ``--trace 1`` one untraced and two
traced repetitions run and the per-layer metrics are reported.  The first
repetition's artifacts are checked (``checks.py``); every later one's must be
byte identical to them.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full
results, the environment and per-op timings go to
``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_REPS = 3
DEADLINE_S = 165.0  # the whole run must end within 180 s


def unit_of(name: str) -> str:
    if name.endswith("_ns_per_entry"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("evals_per_rate"):
        return "evals/rate"
    if name.endswith(("_ratio", "_efficiency", "_amplification", "_max_op", "_speedup",
                      "overhead")):
        return "ratio"
    return "count"


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="lpconc benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _spawn(args, index: int, traced: bool, out_dir: str, started: float) -> dict:
    result_path = os.path.join(out_dir, f"rep{index}.json")
    remaining = DEADLINE_S + 10.0 - (time.monotonic() - started)
    spawned = time.monotonic()
    cmd = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--spawned", repr(spawned),
        "--result", result_path,
        "--check", "1" if index == 0 else "0",
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(remaining, 5.0))
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": "repetition timed out"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = (proc.stderr or "").strip().splitlines()[-5:]
        return {"traced": traced, "error": f"exit {proc.returncode}: " + " | ".join(tail)}
    with open(result_path) as handle:
        rep = json.load(handle)
    rep["traced"] = traced
    rep["process_s"] = time.monotonic() - spawned
    return rep


def _failures(reps: list[dict], ops: list[workloads.Op]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every op of every repetition."""
    attempted = failed = 0
    notes: list[str] = []
    first_hash: dict[str, str] = {}
    for i, rep in enumerate(reps):
        if "error" in rep:
            attempted += len(ops)
            failed += len(ops)
            notes.append(f"rep {i}: {rep['error']}")
            continue
        for record in rep["ops"] + rep["extra"]:
            attempted += 1
            problems = list(record["problems"])
            if record["code"] != 0:
                problems.insert(0, record["error"] or f"exit code {record['code']}")
            digest = record["sha256"]
            if digest is not None and first_hash.setdefault(record["name"], digest) != digest:
                problems.append("artifact differs from the first repetition's")
            if problems:
                failed += 1
                notes.append(f"rep {i} {record['name']}: " + "; ".join(problems[:3]))
    return attempted, failed, notes


def environment(workload: str) -> dict:
    import numpy
    import scipy

    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = 0
    sys.path.insert(0, os.path.abspath("src"))
    working = workloads.working_set_bytes(workload)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l3_bytes": l3 or None,
        "working_set_bytes_computed": working,
        "working_set_over_l3": {k: v / l3 for k, v in working.items()} if l3 else None,
    }


def end_to_end(plain: list[dict], ops: list[workloads.Op], workload: str) -> tuple[dict, list]:
    walls = [r["wall_s"] for r in plain]
    op_times = [o["seconds"] for r in plain for o in r["ops"]]
    # each op's median over the repetitions, then the median over ops: the ops
    # differ in size by up to 1000x, so a median of pooled samples would fall
    # in a gap between two ops' extremes
    per_op = [statistics.median(r["ops"][i]["seconds"] for r in plain) for i in range(len(ops))]
    work = sum(op.work for op in ops)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (work / wall, "work/s"),
        "op_s_p50": (statistics.median(per_op), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }
    lines = [
        f"  setup_s      {metrics['setup_s'][0]:.4f} s   median of {len(plain)} processes",
        f"  wall_s       {wall:.4f} s   median of {len(walls)} iterations",
        f"  work_per_s   {metrics['work_per_s'][0]:.6g} {workloads.work_unit(workload)}/s   "
        f"{work} per iteration over the median iteration",
        f"  op_s_p50     {metrics['op_s_p50'][0]:.4f} s   median over {len(ops)} ops of each "
        f"op's median ({len(op_times)} op samples)",
    ]
    beyond = len(op_times) - math.ceil(0.9 * len(op_times))
    if beyond >= 10:
        p90 = statistics.quantiles(op_times, n=10, method="inclusive")[-1]
        lines.append(f"  op_s_p90     {p90:.4f} s   {len(op_times)} op samples")
    else:
        lines.append(f"  op_s_p90     not reported: {beyond} of {len(op_times)} samples lie "
                     "beyond it, 10 needed")
    lines.append(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB   median of {len(plain)} "
                 "processes")
    return metrics, lines


def per_layer(plain: list[dict], traced: list[dict], workload: str) -> tuple[dict, list, list]:
    first, second = traced[0]["layers"], traced[1]["layers"]
    import layers

    mismatched = [k for k in layers.REPEATABLE_COUNTS if first[k] != second[k]]
    every = plain + traced
    values: dict = {}
    for name, value in first.items():
        if value is None or unit_of(name) in ("count", "bytes"):
            values[name] = value
        else:
            values[name] = statistics.median([value, second[name]])
    values["setup.import_s"] = statistics.median(r["import_s"] for r in every)
    values["setup.inputs_s"] = statistics.median(r["inputs_s"] for r in every)
    values["trace.overhead"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in plain
    )
    speedups = []
    for rep in traced:
        if rep["extra"]:
            speedups.append(rep["extra"][0]["seconds"] / rep["ops"][0]["seconds"])
    values["monte_carlo.parallel_speedup"] = statistics.median(speedups) if speedups else None

    lines = []
    for name in sorted(values):
        value = values[name]
        if value is None:
            lines.append(f"  {name:<44} n/a: the {workload} workload does not run this layer")
        else:
            lines.append(f"  {name:<44} {value:.6g} {unit_of(name)}")
    lines.append(
        "  trace integrity: count metrics "
        + ("repeat exactly across two traced iterations" if not mismatched
           else "DIFFER between traced iterations: " + ", ".join(mismatched))
    )
    if "rate_engine.evals_per_rate" in values and values["rate_engine.evals_per_rate"]:
        lines.append(f"  (evals_per_rate base: {values['rate_engine.rate.calls']} rate() calls)")
    return values, lines, mismatched


def baseline_lines(rows: dict) -> list[str]:
    lines = []
    chunk = rows.get("mc_chunk_p0.5")
    if chunk:
        road = chunk["roadmap"]
        lines.append(
            f"  Monte Carlo chunk at p=0.5, {chunk['entries_per_chunk']} entries, median of "
            f"{chunk['chunks']} chunks on 2 threads: draw {chunk['draw_ms']:.1f} ms, log|x| "
            f"{chunk['log_ms']:.1f} ms, logsumexp reduce {chunk['reduce_ms']:.1f} ms "
            f"(ROADMAP, one run of {road['entries_per_chunk']} entries: {road['draw_ms']}, "
            f"{road['log_ms']}, {road['reduce_ms']} ms)"
        )
    rate = rows.get("rate_call")
    if rate:
        road = rate["roadmap"]
        lines.append(
            f"  rate() with the optimizer: {rate['ms_min']:.1f} to {rate['ms_max']:.1f} ms and "
            f"{rate['evals_min']} to {rate['evals_max']} objective evaluations per call "
            f"(ROADMAP: {road['ms_min']} to {road['ms_max']} ms, {road['evals_min']} to "
            f"{road['evals_max']} evaluations)"
        )
        for law, row in rate["per_law"].items():
            lines.append(f"    {law:<32} {row['calls']} calls, median {row['ms_median']:.1f} ms, "
                         f"{row['evals_median']:g} evaluations")
    return lines


def main() -> None:
    args = _parse()
    if not os.path.isfile(os.path.join("src", "lpconc", "cli.py")):
        print("perfbench: run from the repository root; src/lpconc is missing", file=sys.stderr)
        sys.exit(2)
    # the metrics the final line carries; BENCHMARK.json's per-layer list
    # holds those defined on every workload
    with open("BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    started = time.monotonic()
    out_dir = workloads.work_dir(args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    plan = [False, True, True] if args.trace else None
    reps: list[dict] = []
    while True:
        if plan is not None:
            if len(reps) == len(plan):
                break
            traced = plan[len(reps)]
        else:
            elapsed = time.monotonic() - started
            # the next repetition is expected to take as long as the longest so far
            longest = max((r["process_s"] for r in reps), default=0.0)
            if len(reps) >= MIN_REPS and elapsed + longest > args.seconds:
                break
            if elapsed + longest > DEADLINE_S:
                break
            traced = False
        rep = _spawn(args, len(reps), traced, out_dir, started)
        reps.append(rep)
        if "error" in rep:
            break

    ops = workloads.ops_for(args.workload, args.seed)
    attempted, failed, notes = _failures(reps, ops)
    ok_reps = [r for r in reps if "error" not in r]
    plain = [r for r in ok_reps if not r["traced"]]
    traced = [r for r in ok_reps if r["traced"]]
    complete = len(ok_reps) == len(reps) and plain and (not args.trace or len(traced) == 2)

    print(f"lpconc benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  repetitions={len(reps)} (one fresh process each)")
    env = environment(args.workload)
    print("environment: " + json.dumps(env, sort_keys=True))
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "environment": env, "notes": notes}
    metrics: dict = {}
    mismatched: list[str] = []
    if complete:
        e2e, lines = end_to_end(plain, ops, args.workload)
        print("end to end (tracing off):")
        print("\n".join(lines))
        result["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        if args.trace:
            layer_values, lines, mismatched = per_layer(plain, traced, args.workload)
            print("per layer (traced iterations):")
            print("\n".join(lines))
            result["per_layer"] = layer_values
            result["baseline"] = traced[0]["baseline"]
            lines = baseline_lines(traced[0]["baseline"])
            if lines:
                print("ROADMAP baseline rows, restated from this traced run:")
                print("\n".join(lines))
            metrics = {m["name"]: {"value": layer_values[m["name"]], "unit": m["unit"]}
                       for m in benchmark["per_layer"]}
        else:
            metrics = {m["name"]: result["end_to_end"][m["name"]]
                       for m in benchmark["end_to_end"]}
    print(f"  error_rate   {failed / max(attempted, 1):.6g}   {failed} failed of "
          f"{attempted} attempted ops")
    for note in notes[:20]:
        print("  failure: " + note)
    result["per_op"] = [
        {"rep": i, "traced": r["traced"], **{k: o[k] for k in ("name", "seconds", "code")}}
        for i, r in enumerate(ok_reps) for o in r["ops"] + r["extra"]
    ]
    with open(os.path.join(out_dir, "result.json"), "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)

    correct = bool(complete) and failed == 0 and not mismatched
    if not complete:
        sys.stderr.write("perfbench: the run did not complete; no metrics\n")
        sys.exit(1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
