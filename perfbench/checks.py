"""Output checks for every op's artifact.

Each artifact is flattened into named quantities, and each quantity carries
the tolerance it is compared at:

* ``rate``  - large-deviation rates, relative 1e-6 (quadrature runs at
  epsrel 1e-8 and the optimizer at 1e-8 in its argument);
* ``freq``  - Monte Carlo and table frequencies, within the cell's own
  Wilson halfwidth, so a count flipping at a rounding edge still passes
  (``table_freq`` for embedding-table frequencies, which an oracle also
  recomputes, see below);
* ``tight`` - Monte Carlo median contrasts, diagnose fractions, drift
  statistics and exact-binomial results, relative 1e-9;
* ``median`` - embedding-table median contrasts, relative 1e-9 on a stored
  seed and recomputed by an oracle on every seed (see below);
* ``pmc``   - a ``p_star`` bisected over sampled frequencies, relative 1e-2:
  the frequency there moves about 0.2 per unit of relative p, so 1e-2 is
  about a fifth of the Wilson halfwidth at M = 5000;
* ``count`` - counts of skipped pairs, equality;
* ``exact`` - regimes, flags, failed cells and dataset shapes, equality.

Reference values were recorded once per stored seed (``record_reference.py``).
A seed with a stored reference is compared at these tolerances.  Any other
seed is compared with the mean over the stored seeds, since the references
are independent seeded draws of the same quantities.  The bound there is
the quantity's own tolerance (for frequencies and fractions, their Wilson
halfwidth) and ``STAT_SIGMAS`` standard deviations of the stored seeds,
added in quadrature.  Counts get ``STAT_SIGMAS`` deviations of the stored
seeds and of a Poisson count in quadrature, so a quantity that happened to
be constant over the stored seeds (a rare skipped pair, a fraction at 0 or
1) still passes on a new seed.

Independent oracles run on top: two-point rates against the analytic
maximizer (a Bernoulli relative entropy), exact ``pstar`` against the exact
binomial mass on both sides of ``p_star``, ``tolerance_met`` on every
interior-regime rate, no failed curve cells, and every embedding-table cell
(median contrast and concentration frequency) recomputed from its vectors
with a log-norm written out here.  That last oracle replaces the comparison
with the stored seeds on a new seed, because some of these cells jump
between two values from seed to seed: a sample median between the two
clusters of a bimodal contrast distribution (relu at p = 0.01 reads 1.0 on
most seeds and 1.19 or 1.73 on others), and the binary kind's frequency at
p = 0.01, which is 0 unless the pooled mean lands within about 0.1% of a
reachable count of ones (about 0.07 then; 0 on all twelve stored seeds at
M = 500, 0.068 on seed 40).  No spread over twelve seeds bounds either.
"""

from __future__ import annotations

import json
import math
import os
import statistics

REL_RATE = 1e-6
REL_TIGHT = 1e-9
REL_PSTAR_MC = 1e-2
# a recomputed frequency may differ by this many rows that sit on a band edge
EDGE_ROWS = 2
ABS_FLOOR = 1e-12
STAT_SIGMAS = 5.0
_WILSON_Z = 1.959963984540054

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def wilson_halfwidth(count: int, total: int) -> float:
    """Wilson 95% halfwidth, written out here so the checks do not rely on
    the program under test."""
    z = _WILSON_Z
    phat = count / total
    denom = 1.0 + z * z / total
    return (z / denom) * math.sqrt(phat * (1.0 - phat) / total + z * z / (4.0 * total * total))


def _num(value):
    """JSON numbers, with the CLI's 'inf'/'nan' strings mapped back to floats."""
    if isinstance(value, str) and value in ("inf", "-inf", "nan"):
        return float(value)
    return value


def _tolerance(kind: str, value, hw: float = 0.0) -> float:
    if kind == "rate":
        return max(REL_RATE * abs(value), ABS_FLOOR)
    if kind in ("tight", "median"):
        return max(REL_TIGHT * abs(value), ABS_FLOOR)
    if kind == "pmc":
        return REL_PSTAR_MC * abs(value)
    if kind in ("freq", "table_freq"):
        return hw
    return 0.0


def quantities(doc: dict) -> dict[str, tuple[str, object, float, float]]:
    """Flatten one artifact into {name: (kind, value, same-seed tolerance,
    sampling halfwidth)}."""
    res = doc["results"]
    out: dict[str, tuple[str, object, float, float]] = {}

    def put(name, kind, value, hw=0.0):
        value = _num(value)
        finite = isinstance(value, float) and math.isfinite(value)
        out[name] = (kind, value, _tolerance(kind, value, hw) if finite else 0.0, hw)

    def fraction_hw(fraction, total):
        fraction = _num(fraction)
        return wilson_halfwidth(round(fraction * total), total) if math.isfinite(fraction) else 0.0

    sub = doc["config"]["subcommand"]
    if sub == "rates":
        for row in res["rates"]:
            p = row["p"]
            for side in ("plus", "minus"):
                rec = row[f"rate_{side}"]
                put(f"p{p}.{side}.value", "rate", rec["value"])
                put(f"p{p}.{side}.regime", "exact", rec["regime"])
                put(f"p{p}.{side}.tolerance_met", "exact", rec["tolerance_met"])
                put(f"p{p}.{side}.closed_form", "tight", row[f"small_p_closed_form_{side}"])
    elif sub == "pstar":
        kind = "tight" if res["method"] == "exact-binomial" else "freq"
        put("p_star", "tight" if kind == "tight" else "pmc", res["p_star"])
        hw = 0.0 if kind == "tight" else wilson_halfwidth(
            round(res["exact_prob_at_p_star"] * res["sample_count"]), res["sample_count"]
        )
        put("prob_at_p_star", kind, res["exact_prob_at_p_star"], hw)
        put("mode_prob", "tight", res["binomial_mode_prob"])
    elif sub == "curve":
        for i, p in enumerate(res["p_grid"]):
            for j, n in enumerate(res["n_grid"]):
                put(f"p{p}.n{n}.freq", "freq", res["freq"][i][j], _num(res["ci"][i][j]))
        put("failed_cells", "exact", len(res["failed"]))
    elif sub == "contrast":
        for row in res["contrast"]:
            p = row["p"]
            put(f"p{p}.median_rc", "tight", row["median_rc"])
            put(f"p{p}.freq_below_delta", "freq", row["freq_below_delta"], row["ci"])
            joint = row["joint_half_band_freq"]
            put(f"p{p}.joint_half_band_freq", "freq", joint,
                wilson_halfwidth(round(joint * row["pairs"]), row["pairs"]))
            put(f"p{p}.skipped", "count", row["skipped"])
    elif sub == "embedsim":
        for label, table in res.items():
            for cell in table["cells"]:
                key = f"{label}.{cell['kind']}.p{cell['p']}"
                if label == "concentration":
                    put(key + ".value", "table_freq", cell["value"], cell["ci"])
                else:
                    put(key + ".value", "median", cell["value"])
                put(key + ".skipped", "count", cell["skipped"])
    elif sub in ("diagnose", "perturb"):
        for field, value in res["dataset"].items():
            put(f"dataset.{field}", "exact", value)
        rows = res["dataset"]["rows"]
        if sub == "diagnose":
            for point in res["curve"]["points"]:
                put(f"p{point['p']}.fraction", "tight", point["fraction"],
                    fraction_hw(point["fraction"], rows))
                put(f"p{point['p']}.flagged", "exact", point["flagged"])
        else:
            put("wasserstein_total", "tight", res["wasserstein_total"])
            put("ks_statistic_max", "tight", res["ks_statistic_max"])
            # spans orders of magnitude across seeds, so compared in log10
            pvalue = res["ks_min_pvalue"]
            put("log10_ks_min_pvalue", "tight", math.log10(pvalue) if pvalue > 0 else -math.inf)
            put("realized_fraction", "tight", res["realized_fraction"],
                fraction_hw(res["realized_fraction"], rows * res["dataset"]["columns"]))
            for row in res["curves"]:
                for field in ("frac_original", "frac_perturbed"):
                    put(f"p{row['p']}.{field}", "tight", row[field], fraction_hw(row[field], rows))
    else:
        raise ValueError(f"no checks for subcommand {sub!r}")
    return out


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def compare(found: dict, refs: list[dict], same_seed: bool) -> list[str]:
    """Problems found comparing quantities with one or more references."""
    problems = []
    for name, (kind, value, tol, hw) in found.items():
        ref_values = [_num(r[name]) for r in refs if name in r]
        if not ref_values:
            problems.append(f"{name}: no reference value")
            continue
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in [value, *ref_values]
        )
        if same_seed or len(ref_values) == 1 or not numeric:
            ref = ref_values[0]
            if not same_seed and len(set(map(repr, ref_values))) > 1:
                continue  # a non-numeric quantity that varies with the seed
            if numeric and kind not in ("exact", "count"):
                if abs(value - ref) > tol:
                    problems.append(f"{name}: {value!r} vs reference {ref!r} (tol {tol:.3g})")
            elif not _same(value, ref):
                problems.append(f"{name}: {value!r} vs reference {ref!r}")
            continue
        if kind in ("median", "table_freq"):
            continue  # recomputed by the oracle instead
        mean = statistics.fmean(ref_values)
        spread = statistics.stdev(ref_values)
        if kind == "count":
            bound = STAT_SIGMAS * math.sqrt(spread * spread + max(mean, 1.0))
        else:
            bound = math.hypot(max(tol, hw), STAT_SIGMAS * spread)
        if abs(value - mean) > bound:
            problems.append(
                f"{name}: {value!r} vs reference mean {mean!r} over {len(ref_values)} seeds "
                f"(bound {bound:.3g})"
            )
    return problems


def _two_point_rate(a: float, r: float, p: float, delta: float, sign: int) -> float:
    """Rate for |x| on {0, r}: the Bernoulli relative entropy at the band edge."""
    q = 1.0 - a
    edge = (1.0 + sign * delta) ** p * q
    if edge > 1.0:
        return math.inf
    if edge == 1.0:
        return -math.log(q)
    return edge * math.log(edge / q) + (1.0 - edge) * math.log((1.0 - edge) / a)


def oracles(doc: dict, meta: dict) -> list[str]:
    res = doc["results"]
    sub = doc["config"]["subcommand"]
    problems = []
    if sub == "rates":
        law = meta["law"]
        two_point = None
        if law.startswith(("twopoint:", "threepoint:")):
            params = dict(kv.split("=") for kv in law.split(":", 1)[1].split(","))
            two_point = float(params["a"]), float(params.get("r", 1.0))
        for row in res["rates"]:
            for side, sign in (("plus", 1), ("minus", -1)):
                rec = row[f"rate_{side}"]
                value = _num(rec["value"])
                if rec["regime"] == "interior-optimum" and not rec["tolerance_met"]:
                    problems.append(f"p{row['p']}.{side}: tolerance_met is false")
                if two_point is None:
                    continue
                want = _two_point_rate(*two_point, row["p"], meta["delta"], sign)
                tol = 0.0 if math.isinf(want) else max(REL_TIGHT * abs(want), ABS_FLOOR)
                if not (value == want or abs(value - want) <= tol):
                    problems.append(
                        f"p{row['p']}.{side}: rate {value!r}, analytic maximizer gives {want!r}"
                    )
    elif sub == "pstar":
        if res["method"] == "exact-binomial":
            from lpconc.anti_concentration import exact_two_point_concentration

            dist = doc["config"]["dist"]
            params = dict(kv.split("=") for kv in dist.split(":", 1)[1].split(","))
            a, r = float(params["a"]), float(params.get("r", 1.0))
            n, delta, Delta, p = res["n"], res["delta"], res["target_Delta"], res["p_star"]
            if p is None:
                problems.append("p_star is absent")
            else:
                at = exact_two_point_concentration(a, r, p, delta, n)
                above = exact_two_point_concentration(a, r, p * (1.0 + 1e-9), delta, n)
                if not at <= Delta:
                    problems.append(f"exact mass {at!r} at p_star exceeds Delta {Delta}")
                if not above > Delta:
                    problems.append(f"exact mass {above!r} just above p_star is <= Delta")
        elif res["p_star"] is not None and not res["exact_prob_at_p_star"] <= res["target_Delta"]:
            problems.append("sampled frequency at p_star exceeds Delta")
    elif sub == "curve" and res["failed"]:
        problems.append(f"{len(res['failed'])} failed cells")
    elif sub == "embedsim" and "concentration" in res:
        table = res["concentration"]
        for kind in dict.fromkeys(cell["kind"] for cell in table["cells"]):
            cells = [cell for cell in table["cells"] if cell["kind"] == kind]
            wanted = _concentration(kind, [c["p"] for c in cells], table["delta"], table["M"],
                                    table["seed"])
            for cell, want in zip(cells, wanted):
                if abs(cell["value"] - want) > EDGE_ROWS / table["M"]:
                    problems.append(
                        f"concentration.{kind}.p{cell['p']}: {cell['value']!r}, recomputed {want!r}"
                    )
    elif sub == "embedsim" and "median_contrast" in res:
        table = res["median_contrast"]
        for kind in dict.fromkeys(cell["kind"] for cell in table["cells"]):
            cells = [cell for cell in table["cells"] if cell["kind"] == kind]
            wanted = _median_contrasts(kind, [c["p"] for c in cells], table["M"], table["seed"])
            for cell, want in zip(cells, wanted):
                value = _num(cell["value"])
                if not (_same(value, want) or abs(value - want) <= max(REL_TIGHT * abs(want),
                                                                       ABS_FLOOR)):
                    problems.append(
                        f"median_contrast.{kind}.p{cell['p']}: {value!r}, recomputed {want!r}"
                    )
    return problems


def _concentration(kind_name: str, p_grid: list[float], delta: float, M: int,
                   seed: int) -> list[float]:
    """A kind's concentration cells recomputed from the table's own vectors,
    stream (seed, kind index, 0) of ``embedding_lab.generate``: the share of
    rows whose l_p norm over (dim * pooled mean of |x|^p)^(1/p) lies in
    [1 - delta, 1 + delta].  Only the vectors come from the program."""
    import numpy as np
    from lpconc import embedding_lab
    from lpconc.seeding import derive_seed

    names = [k.name for k in embedding_lab.ALL_KINDS]
    index = names.index(kind_name)
    rows = embedding_lab.generate(embedding_lab.ALL_KINDS[index], M, derive_seed(seed, index, 0))
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(rows))
    lo, hi = math.log1p(-delta), math.log1p(delta)
    out = []
    for p in p_grid:
        row_log = _log_norm(log_abs, p)
        flat = p * log_abs.ravel()
        top = flat.max()
        pooled = top + math.log(np.exp(flat - top).sum()) - math.log(flat.size)
        log_ratio = row_log - (math.log(rows.shape[1]) + pooled) / p
        out.append(int(np.count_nonzero((log_ratio >= lo) & (log_ratio <= hi))) / M)
    return out


def _median_contrasts(kind_name: str, p_grid: list[float], pairs: int, seed: int) -> list[float]:
    """A kind's median-contrast cells recomputed from the table's own
    vectors, streams (seed, kind index, 1) and (seed, kind index, 2) of
    ``embedding_lab.generate``, with a max-shifted log-norm written out
    here.  Only the vectors come from the program."""
    import numpy as np
    from lpconc import embedding_lab
    from lpconc.seeding import derive_seed

    names = [k.name for k in embedding_lab.ALL_KINDS]
    index = names.index(kind_name)
    logs = []
    for stream in (1, 2):
        rows = embedding_lab.generate(embedding_lab.ALL_KINDS[index], pairs,
                                      derive_seed(seed, index, stream))
        with np.errstate(divide="ignore"):
            logs.append(np.log(np.abs(rows)))
    out = []
    for p in p_grid:
        l1, l2 = (_log_norm(log_abs, p) for log_abs in logs)
        valid = l1 > -math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            rc = np.abs(np.expm1(l2[valid] - l1[valid]))
        out.append(float(np.median(rc)) if rc.size else math.nan)
    return out


def _log_norm(log_abs, p: float):
    """log of each row's l_p norm from log|x|; -inf for a row of zeros."""
    import numpy as np

    scaled = p * log_abs
    top = scaled.max(axis=1)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return (shift + np.log(np.exp(scaled - shift[:, None]).sum(axis=1))) / p


def load_reference(workload: str) -> dict[str, dict]:
    """{seed: {op name: {quantity: value}}} for one workload."""
    with open(REFERENCE_PATH) as handle:
        stored = json.load(handle)["workloads"].get(workload)
    if stored is None:
        return {}
    names = stored["names"]
    return {
        seed: {op: dict(zip(names[op], values)) for op, values in ops.items()}
        for seed, ops in stored["seeds"].items()
    }


def check_op(op_name: str, text: str, meta: dict, seed: int, reference: dict) -> list[str]:
    doc = json.loads(text)
    found = quantities(doc)
    problems = oracles(doc, meta)
    if str(seed) in reference:
        refs, same_seed = [reference[str(seed)][op_name]], True
    else:
        refs = [per_seed[op_name] for per_seed in reference.values() if op_name in per_seed]
        same_seed = False
    if not refs:
        return problems + ["no reference values for this op"]
    return problems + compare(found, refs, same_seed)
