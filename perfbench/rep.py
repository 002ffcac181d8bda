"""One repetition of a workload, in a fresh Python process.

Run by ``run.py``; never by hand.  Set-up (importing lpconc and building the
inputs) is timed from the moment the parent started this process.  The
workload's ops then run once each, in a closed loop, through
``lpconc.cli.run``.  Each artifact is then checked and hashed.  The result -
timings, check outcomes, artifact hashes, peak RSS and, when traced,
per-layer metrics - goes to the JSON file named by ``--result``.  With
``--check 0`` the artifacts are only hashed: ``run.py`` checks the first
repetition's artifacts and requires every later one to be byte identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--result", required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    return parser.parse_args()


def _run_op(cli, op) -> dict:
    if os.path.exists(op.out):
        os.remove(op.out)
    error = None
    start = time.perf_counter()
    try:
        code = cli.run(list(op.argv))
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 2
    except Exception:  # an op that raises is a failed op, not a failed benchmark
        code = None
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    return {"name": op.name, "seconds": seconds, "code": code, "error": error}


def _same_results(text: str, base: str | None) -> list[str]:
    """The results section must match byte for byte; the config differs only
    in the ``workers`` field it echoes."""
    if base is None:
        return ["no artifact from the default-workers op to compare with"]

    def results(doc_text: str) -> str:
        return json.dumps(json.loads(doc_text)["results"], indent=2, sort_keys=True)

    if results(text) != results(base):
        return ["results differ from the default-workers run"]
    return []


def main() -> None:
    args = _parse()
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    sys.path.insert(0, here)

    import lpconc
    import lpconc.cli as cli

    imported = time.monotonic()
    if not os.path.abspath(lpconc.__file__).startswith(src + os.sep):
        raise SystemExit(f"lpconc imported from {lpconc.__file__}, not from {src}")

    import workloads

    ops = workloads.build(args.workload, args.seed)
    ready = time.monotonic()

    tracer = None
    quad_warnings = 0
    if args.trace:
        import warnings

        from scipy.integrate import IntegrationWarning

        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    records = []
    iteration_start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is None:
            records.append(_run_op(cli, op))
            continue
        tracer.op = index
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            span = tracer.open("cli.run")
            try:
                records.append(_run_op(cli, op))
            finally:
                tracer.close(span)
        quad_warnings += sum(issubclass(w.category, IntegrationWarning) for w in caught)
    wall = time.perf_counter() - iteration_start

    extra = []
    if tracer is not None and args.workload == "montecarlo":
        # single-threaded baseline of the first op, outside the iteration
        op = workloads.workers1_op(workloads.work_dir(args.workload), args.seed)
        tracer.op = len(ops)
        extra.append((op, _run_op(cli, op)))
    if tracer is not None:
        tracer.uninstall()

    # peak RSS of the ops, before the checks allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    reference = checks.load_reference(args.workload) if args.check else None
    texts = {}
    result = {
        "setup_s": ready - args.spawned,
        "import_s": imported - args.spawned,
        "inputs_s": ready - imported,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "ops": [],
        "extra": [],
    }
    for bucket, pairs in (("ops", zip(ops, records)), ("extra", extra)):
        for op, record in pairs:
            text = None
            if record["code"] == 0 and os.path.exists(op.out):
                with open(op.out) as handle:
                    text = handle.read()
            texts[op.name] = text
            record["sha256"] = None if text is None else hashlib.sha256(text.encode()).hexdigest()
            record["bytes"] = 0 if text is None else len(text.encode())
            if text is None:
                record["problems"] = [] if record["code"] != 0 else ["no artifact written"]
            elif bucket == "ops" and not args.check:
                record["problems"] = []
            elif bucket == "ops":
                record["problems"] = checks.check_op(op.name, text, op.meta, args.seed, reference)
            else:
                record["problems"] = _same_results(text, texts[ops[0].name])
            result[bucket].append(record)

    if tracer is not None:
        import layers

        spans = [s for s in tracer.spans if s.op is not None and s.op < len(ops)]
        artifact_bytes = sum(r["bytes"] for r in result["ops"])
        result["layers"] = layers.layer_metrics(spans, quad_warnings, artifact_bytes)
        result["baseline"] = layers.baseline_rows(spans)
        spans_path = os.path.splitext(args.result)[0] + ".spans.jsonl"
        with open(spans_path, "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.record()) + "\n")
        result["spans_file"] = spans_path

    with open(args.result, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
