"""Per-layer metrics derived from one traced iteration's spans.

A span's self time is its duration minus the part of that interval its
child spans cover (children on pool threads included, overlaps counted
once).  Every value here is measured from spans; bytes derived from array
sizes live in ``workloads.working_set_bytes`` and are labelled computed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import Span
from workloads import EMBED_KINDS

# count metrics that must repeat exactly between two traced iterations
REPEATABLE_COUNTS = (
    "distributions.log_mgf.calls",
    "rate_engine.objective_evals",
    "monte_carlo.chunks",
    "seeding.generator.calls",
    "distributions.draw.entries",
    "anti_concentration.prob_evals",
)

MC_DISPATCH = ("monte_carlo.concentration_frequency", "monte_carlo.relative_contrast")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


class SpanIndex:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        kids = [(max(c.start, span.start), min(c.end, span.end)) for c in self.children[span.id]]
        return span.duration - _covered([k for k in kids if k[1] > k[0]])

    def parent(self, span: Span) -> Span | None:
        return None if span.parent is None else self.by_id.get(span.parent)

    def outermost(self, spans: list[Span]) -> list[Span]:
        """Spans whose parent does not carry the same name."""
        return [s for s in spans if (p := self.parent(s)) is None or p.name != s.name]

    def under(self, span: Span, names: tuple[str, ...]) -> bool:
        node = self.parent(span)
        while node is not None:
            if node.name in names:
                return True
            node = self.parent(node)
        return False


def _ratio(num: float, den: float):
    return num / den if den else None


def _when(spans: list, value: float):
    """A layer time, or None when the iteration never entered the layer."""
    return value if spans else None


def layer_metrics(spans: list[Span], quad_warnings: int, artifact_bytes: int) -> dict:
    """Every per-layer metric the spans support; None marks a layer the
    workload does not exercise (the reason is printed with the report)."""
    ix = SpanIndex(spans)
    m: dict = {}

    def total_self(name: str) -> float:
        return sum(ix.self_time(s) for s in ix.named(name))

    def total_duration(spans_: list[Span]) -> float:
        return sum(s.duration for s in spans_)

    # distributions
    mgf = ix.named("distributions.log_mgf")
    draws = ix.named("distributions.draw")
    outer_draws = ix.outermost(draws)
    m["distributions.log_mgf.calls"] = len(ix.outermost(mgf))
    m["distributions.log_mgf.self_s"] = _when(mgf, sum(ix.self_time(s) for s in mgf))
    m["distributions.draw.calls"] = len(outer_draws)
    m["distributions.draw.entries"] = sum(s.info["entries"] for s in outer_draws)
    m["distributions.draw.self_s"] = _when(draws, sum(ix.self_time(s) for s in draws))
    m["distributions.quad_warnings"] = quad_warnings

    # rate_engine: rate self time includes lambda_value's, excludes log-MGF children
    rates = ix.named("rate_engine.rate")
    evals = sum(s.info["iterations"] for s in rates)
    m["rate_engine.rate.calls"] = len(rates)
    m["rate_engine.rate.self_s"] = _when(
        rates, total_self("rate_engine.rate") + total_self("rate_engine.lambda_value")
    )
    m["rate_engine.objective_evals"] = evals
    m["rate_engine.evals_per_rate"] = _ratio(evals, len(rates))
    m["rate_engine.tol_miss"] = sum(not s.info["tolerance_met"] for s in rates)

    # anti_concentration
    finds = ix.named("anti_concentration.find_p_star")
    by_method: dict[str, float] = {}
    for s in finds:
        by_method[s.info["method"]] = by_method.get(s.info["method"], 0.0) + s.duration
    m["anti_concentration.find_p_star.exact_s"] = by_method.get("exact-binomial")
    m["anti_concentration.find_p_star.mc_s"] = by_method.get("monte-carlo")
    m["anti_concentration.prob_evals"] = sum(
        1
        for s in spans
        if s.name in ("anti_concentration.exact_prob", "monte_carlo.concentration_frequency")
        and (p := ix.parent(s)) is not None
        and p.name == "anti_concentration.find_p_star"
    )

    # seeding: every generator call, whichever module made it
    gens = [s for s in spans if s.name.endswith(".generator")]
    m["seeding.generator.calls"] = len(gens)
    m["seeding.generator.self_s"] = _when(gens, sum(ix.self_time(s) for s in gens))

    # monte_carlo
    # embedding_lab reuses log_lp_norms, so keep only spans under a Monte Carlo call
    chunks = ix.named("monte_carlo.generator")
    norms = [s for s in ix.named("monte_carlo.log_lp_norms") if ix.under(s, MC_DISPATCH)]
    reduces = [s for s in ix.named("monte_carlo.logsumexp") if ix.under(s, MC_DISPATCH)]
    mc_draws = [s for s in outer_draws if ix.under(s, MC_DISPATCH)]
    consumed = sum(s.info["entries"] for s in norms)
    drawn = sum(s.info["entries"] for s in mc_draws)
    m["monte_carlo.chunks"] = len(chunks)
    m["monte_carlo.entries"] = consumed
    m["monte_carlo.draw_amplification"] = _ratio(drawn, consumed)
    per_op = [
        _ratio(sum(s.info["entries"] for s in mc_draws if s.op == op),
               sum(s.info["entries"] for s in norms if s.op == op))
        for op in {s.op for s in norms}
    ]
    m["monte_carlo.draw_amplification_max_op"] = max(per_op) if per_op else None
    mc_draw_self = sum(
        ix.self_time(s) for s in draws if ix.under(s, MC_DISPATCH)
    )
    m["monte_carlo.draw_ns_per_entry"] = _ratio(1e9 * mc_draw_self, drawn)
    m["monte_carlo.transform_ns_per_entry"] = _ratio(
        1e9 * sum(ix.self_time(s) for s in norms), consumed
    )
    m["monte_carlo.reduce_ns_per_entry"] = _ratio(
        1e9 * total_duration(reduces), sum(s.info["entries"] for s in reduces)
    )
    threads_used = 0
    busy = capacity = 0.0
    for d in (s for s in spans if s.name in MC_DISPATCH):
        kids = [c for c in ix.children[d.id] if c.name == "monte_carlo.generator"
                or c.thread != d.thread]
        threads = {c.thread for c in kids}
        threads_used = max(threads_used, len(threads))
        if len(threads) > 1:
            busy += total_duration([c for c in ix.children[d.id] if c.thread != d.thread])
            capacity += len(threads) * d.duration
    m["monte_carlo.threads_used"] = threads_used
    m["monte_carlo.parallel_efficiency"] = _ratio(busy, capacity)
    m["monte_carlo.failed_cells"] = sum(
        s.info["failed_cells"] for s in ix.named("monte_carlo.curve_sweep")
    )

    # embedding_lab, per kind
    tables = ix.named("embedding_lab.concentration_table") + ix.named(
        "embedding_lab.contrast_table"
    )
    for kind in EMBED_KINDS:
        gens_k = [s for s in ix.named("embedding_lab.generate") if s.info["kind"] == kind]
        tables_k = [s for s in tables if s.info.get("kind") == kind]
        generate_s = total_duration(gens_k)
        m[f"embedding_lab.{kind}.generate_s"] = _when(gens_k, generate_s)
        m[f"embedding_lab.{kind}.reduce_s"] = _when(
            tables_k, total_duration(tables_k) - generate_s
        )
        m[f"embedding_lab.{kind}.nonzero_ratio"] = _ratio(
            sum(s.info["nonzero"] for s in gens_k), sum(s.info["entries"] for s in gens_k)
        )

    # diagnostics
    loads = ix.named("diagnostics.load_csv")
    curves = ix.named("diagnostics.concentration_curve")
    drift = ix.named("diagnostics.ks_two_sample") + ix.named("diagnostics.wasserstein_1d")
    m["diagnostics.load_csv_s"] = _when(loads, total_duration(loads))
    m["diagnostics.load_csv.cells"] = sum(s.info["cells"] for s in loads)
    m["diagnostics.reduce_s"] = _when(curves, total_duration(ix.named("diagnostics.logsumexp")))
    m["diagnostics.curve_s"] = _when(curves, total_duration(curves))
    m["diagnostics.drift_s"] = _when(drift, total_duration(drift))
    m["diagnostics.flagged_points"] = sum(s.info["flagged"] for s in curves)

    # cli: run() time minus the wrapped library calls
    m["cli.self_s"] = total_self("cli.run")
    m["cli.artifact_bytes"] = artifact_bytes
    return m


def baseline_rows(spans: list[Span]) -> dict:
    """ROADMAP's baseline rows restated from the trace.

    Monte Carlo: per-chunk draw / log transform / reduce split of the
    ``contrast`` chunks at p = 0.5 (2097 pairs x 2 x 1000 = 4,194,000
    entries, close to ROADMAP's 4096 x 1000).  Rates: ms and objective
    evaluations per ``rate()`` call, per law.
    """
    ix = SpanIndex(spans)
    rows: dict = {}
    split = defaultdict(list)
    for gen in ix.named("monte_carlo.generator"):
        parent = ix.parent(gen)
        if parent is None or parent.name != "monte_carlo.relative_contrast":
            continue
        if parent.info.get("p") != 0.5:
            continue
        siblings = [c for c in ix.children[parent.id] if c.thread == gen.thread
                    and c.start >= gen.start]
        draw = next((c for c in siblings if c.name == "distributions.draw"), None)
        norm = next((c for c in siblings if c.name == "monte_carlo.log_lp_norms"), None)
        if draw is None or norm is None:
            continue
        reduce_ = sum(c.duration for c in ix.children[norm.id])
        split["entries"].append(draw.info["entries"])
        split["draw_ms"].append(1e3 * draw.duration)
        split["log_ms"].append(1e3 * (norm.duration - reduce_))
        split["reduce_ms"].append(1e3 * reduce_)
    if split:
        rows["mc_chunk_p0.5"] = {
            "chunks": len(split["entries"]),
            "entries_per_chunk": max(split["entries"]),
            **{k: statistics.median(v) for k, v in split.items() if k != "entries"},
            "roadmap": {"entries_per_chunk": 4096 * 1000, "draw_ms": 62, "log_ms": 31,
                        "reduce_ms": 128},
        }
    per_law = defaultdict(lambda: {"ms": [], "evals": []})
    for s in ix.named("rate_engine.rate"):
        if s.info["iterations"] == 0:
            continue
        law = s.info["law"]
        per_law[law]["ms"].append(1e3 * s.duration)
        per_law[law]["evals"].append(s.info["iterations"])
    if per_law:
        all_ms = [v for d in per_law.values() for v in d["ms"]]
        all_evals = [v for d in per_law.values() for v in d["evals"]]
        rows["rate_call"] = {
            "ms_min": min(all_ms),
            "ms_max": max(all_ms),
            "evals_min": min(all_evals),
            "evals_max": max(all_evals),
            "per_law": {
                law: {"calls": len(d["ms"]), "ms_median": statistics.median(d["ms"]),
                      "evals_median": statistics.median(d["evals"])}
                for law, d in sorted(per_law.items())
            },
            "roadmap": {"ms_min": 12, "ms_max": 146, "evals_min": 24, "evals_max": 28},
        }
    return rows
