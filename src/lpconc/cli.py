"""Command-line front end.

Every subcommand echoes its fully resolved configuration inside the output,
so a run can be reproduced exactly from the artifact alone.  Output is JSON
or long-format CSV; numeric payloads are byte-identical across repeat runs
and across worker counts.

Exit codes: 0 success, 1 input or data errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Sequence

from . import anti_concentration, closed_forms, diagnostics, embedding_lab, monte_carlo
from . import rate_engine
from .distributions import moment_report, parse_spec, validate_assumptions

SCHEMA_VERSION = 1
WORKERS_ENV = "LPCONC_WORKERS"

__all__ = ["main", "run", "RunConfig", "SCHEMA_VERSION", "WORKERS_ENV"]


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one invocation; embedded in every artifact."""

    subcommand: str
    dist: str | None = None
    p_grid: tuple[float, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    delta: float | None = None
    M: int | None = None
    seed: int | None = None
    out: str | None = None
    format: str = "json"
    normalization: str | None = None
    workers: int | None = None
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        record = {k: v for k, v in asdict(self).items() if k != "extra" and v is not None}
        record.update(self.extra)
        return record


def _floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _ints(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _default_workers() -> int | None:
    raw = os.environ.get(WORKERS_ENV)
    return int(raw) if raw else None


def _sanitize(value):
    """JSON-safe copy: non-finite floats become strings."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        return value
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(config: RunConfig, payload: dict, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    if config.format == "json":
        document = {
            "schema_version": SCHEMA_VERSION,
            "config": _sanitize(config.to_json_dict()),
            "results": _sanitize(payload),
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    buffer.write(f"# schema_version={SCHEMA_VERSION}\n")
    for key, value in sorted(config.to_json_dict().items()):
        buffer.write(f"# {key}={value}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buffer.getvalue()


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _cmd_rates(args) -> tuple[RunConfig, dict, list[str], list[list]]:
    dist = parse_spec(args.dist)
    config = RunConfig(
        subcommand="rates",
        dist=dist.spec_string(),
        p_grid=args.p,
        delta=args.delta,
        out=args.out,
        format=args.format,
    )
    rows = []
    records = []
    for p in args.p:
        plus = rate_engine.rate(dist, p, args.delta, +1)
        minus = rate_engine.rate(dist, p, args.delta, -1)
        cf_plus = closed_forms.small_p_closed(dist.closed_family, args.delta, +1)
        cf_minus = closed_forms.small_p_closed(dist.closed_family, args.delta, -1)
        rows.append(
            [p, plus.value, minus.value, plus.regime, minus.regime, cf_plus, cf_minus]
        )
        records.append(
            {
                "p": p,
                "rate_plus": plus.json_record(),
                "rate_minus": minus.json_record(),
                "small_p_closed_form_plus": cf_plus,
                "small_p_closed_form_minus": cf_minus,
            }
        )
    header = [
        "p",
        "rate_plus",
        "rate_minus",
        "regime_plus",
        "regime_minus",
        "small_p_closed_form_plus",
        "small_p_closed_form_minus",
    ]
    return config, {"rates": records}, header, rows


def _cmd_curve(args) -> tuple[RunConfig, dict, list[str], list[list]]:
    dist = parse_spec(args.dist)
    workers = args.workers if args.workers is not None else _default_workers()
    config = RunConfig(
        subcommand="curve",
        dist=dist.spec_string(),
        p_grid=args.p,
        n_grid=args.n,
        delta=args.delta,
        M=args.M,
        seed=args.seed,
        out=args.out,
        format=args.format,
        normalization=args.normalization,
        workers=workers,
    )
    grid = monte_carlo.curve_sweep(
        dist,
        p_grid=args.p,
        n_grid=args.n,
        delta=args.delta,
        M=args.M,
        seed=args.seed,
        normalization=args.normalization,
        workers=workers,
    )
    rows = [list(row) for row in grid.rows()]
    return config, grid.to_json_dict(), ["p", "n", "frequency", "ci_halfwidth"], rows


def _cmd_contrast(args) -> tuple[RunConfig, dict, list[str], list[list]]:
    dist = parse_spec(args.dist)
    workers = args.workers if args.workers is not None else _default_workers()
    config = RunConfig(
        subcommand="contrast",
        dist=dist.spec_string(),
        p_grid=args.p,
        n_grid=(args.n,),
        delta=args.delta,
        M=args.M,
        seed=args.seed,
        out=args.out,
        format=args.format,
        normalization=args.normalization,
        workers=workers,
    )
    summaries = monte_carlo.contrast_sweep(
        dist,
        n=args.n,
        p_grid=args.p,
        M=args.M,
        seed=args.seed,
        delta=args.delta,
        normalization=args.normalization,
        workers=workers,
    )
    header = [
        "p",
        "n",
        "median_rc",
        "freq_below_delta",
        "joint_half_band_freq",
        "skipped",
        "ci_halfwidth",
    ]
    rows = [
        [s.p, s.n, s.median_rc, s.freq_below_delta, s.joint_half_band_freq, s.skipped, s.ci_halfwidth]
        for s in summaries
    ]
    return config, {"contrast": [s.to_json_dict() for s in summaries]}, header, rows


def _cmd_pstar(args) -> tuple[RunConfig, dict, list[str], list[list]]:
    dist = parse_spec(args.dist)
    workers = args.workers if args.workers is not None else _default_workers()
    config = RunConfig(
        subcommand="pstar",
        dist=dist.spec_string(),
        n_grid=(args.n,),
        delta=args.delta,
        M=args.M,
        out=args.out,
        format=args.format,
        workers=workers,
        extra={"Delta": args.Delta, "method": args.method},
    )
    report = anti_concentration.find_p_star(
        dist,
        n=args.n,
        delta=args.delta,
        Delta=args.Delta,
        method=args.method,
        M=args.M,
        workers=workers,
    )
    record = report.to_json_dict()
    header = ["n", "delta", "target_Delta", "p_star", "prob_at_p_star", "mode_prob", "method"]
    rows = [
        [
            report.n,
            report.delta,
            report.target_Delta,
            report.p_star,
            report.exact_prob_at_p_star,
            report.binomial_mode_prob,
            report.method,
        ]
    ]
    return config, record, header, rows


def _cmd_embedsim(args) -> tuple[RunConfig, dict, list[str], list[list]]:
    kinds = tuple(embedding_lab.kind_by_name(name.strip()) for name in args.kinds.split(","))
    config = RunConfig(
        subcommand="embedsim",
        p_grid=args.p,
        delta=args.delta,
        M=args.M,
        seed=args.seed,
        out=args.out,
        format=args.format,
        extra={"table": args.table, "kinds": [k.name for k in kinds], "pairs": args.pairs},
    )
    payload: dict = {}
    rows: list[list] = []
    if args.table in ("concentration", "both"):
        table = embedding_lab.concentration_table(
            kinds,
            p_grid=args.p or embedding_lab.DEFAULT_CONCENTRATION_P,
            delta=args.delta,
            M=args.M,
            seed=args.seed,
        )
        payload["concentration"] = table.to_json_dict()
        rows.extend(["concentration", *row] for row in table.rows())
    if args.table in ("contrast", "both"):
        table = embedding_lab.contrast_table(
            kinds,
            p_grid=args.p or embedding_lab.DEFAULT_CONTRAST_P,
            pairs=args.pairs,
            seed=args.seed,
        )
        payload["median_contrast"] = table.to_json_dict()
        rows.extend(["median-contrast", *row] for row in table.rows())
    header = ["table", "kind", "p", "value", "ci_halfwidth", "skipped"]
    return config, payload, header, rows


def _load_prepared(args) -> diagnostics.Dataset:
    data = diagnostics.load_csv(args.input, missing_policy=args.missing_policy)
    if not args.keep_constant:
        data = diagnostics.drop_constant(data)
    if args.standardize:
        data = diagnostics.standardize(data)
    return data


def _dataset_summary(data: diagnostics.Dataset) -> dict:
    return {
        "rows": data.M,
        "columns": data.n,
        "constant_columns_dropped": data.meta.get("dropped_constant", 0),
        "missing_cells": data.meta.get("missing_cells", 0),
    }


def _cmd_diagnose(args) -> tuple[RunConfig, dict, list[str], list[list]]:
    config = RunConfig(
        subcommand="diagnose",
        p_grid=args.p,
        delta=args.delta,
        out=args.out,
        format=args.format,
        normalization=args.normalization,
        extra={
            "input": args.input,
            "standardize": args.standardize,
            "keep_constant": args.keep_constant,
            "missing_policy": args.missing_policy,
        },
    )
    data = _load_prepared(args)
    curve = diagnostics.concentration_curve(
        data, p_grid=args.p, delta=args.delta, normalization=args.normalization
    )
    payload = {"dataset": _dataset_summary(data), "curve": curve.to_json_dict()}
    rows = [
        [p, fraction, flagged]
        for p, fraction, flagged in zip(curve.p_grid, curve.fraction, curve.flagged)
    ]
    return config, payload, ["p", "fraction", "flagged"], rows


def _cmd_perturb(args) -> tuple[RunConfig, dict, list[str], list[list]]:
    config = RunConfig(
        subcommand="perturb",
        p_grid=args.p,
        delta=args.delta,
        seed=args.seed,
        out=args.out,
        format=args.format,
        normalization=args.normalization,
        extra={
            "input": args.input,
            "gap_prob": args.gap,
            "standardize": args.standardize,
            "keep_constant": args.keep_constant,
            "missing_policy": args.missing_policy,
        },
    )
    data = _load_prepared(args)
    report = diagnostics.perturb_report(
        data,
        gap_prob=args.gap,
        seed=args.seed,
        p_grid=args.p,
        delta=args.delta,
        normalization=args.normalization,
    )
    payload = {"dataset": _dataset_summary(data), **report.to_json_dict()}
    rows = [[row.p, row.frac_original, row.frac_perturbed] for row in report.curves]
    return config, payload, ["p", "frac_original", "frac_perturbed"], rows


def _cmd_validate(args) -> tuple[RunConfig, dict, list[str], list[list]]:
    dist = parse_spec(args.dist)
    config = RunConfig(
        subcommand="validate",
        dist=dist.spec_string(),
        out=args.out,
        format=args.format,
        extra={"p": args.p_probe},
    )
    assumptions = validate_assumptions(dist)
    moments = moment_report(dist, args.p_probe)
    payload = {"assumptions": asdict(assumptions), "moments": asdict(moments)}
    header = ["field", "value"]
    rows = [[k, v] for k, v in {**asdict(assumptions), **{f"moment_{k}": v for k, v in asdict(moments).items()}}.items()]
    return config, payload, header, rows


_HANDLERS = {
    "rates": _cmd_rates,
    "curve": _cmd_curve,
    "contrast": _cmd_contrast,
    "pstar": _cmd_pstar,
    "embedsim": _cmd_embedsim,
    "diagnose": _cmd_diagnose,
    "perturb": _cmd_perturb,
    "validate": _cmd_validate,
}


def _add_common(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--out", help="write the artifact to this path instead of stdout")
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default=default_format,
        help=f"output format (default {default_format})",
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"parallel worker cap; default ${WORKERS_ENV} or all cores; results do not depend on it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpconc",
        description="Concentration of p-norms: rates, frequencies, anti-concentration, diagnostics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    rates = sub.add_parser("rates", help="exponential rates over p, with closed-form limit columns")
    rates.add_argument("--dist", required=True, help="distribution spec, e.g. uniform:b=1")
    rates.add_argument("--p", type=_floats, required=True, help="comma-separated p values")
    rates.add_argument("--delta", type=float, required=True, help="band half-width")
    _add_common(rates, "csv")

    curve = sub.add_parser("curve", help="concentration frequency over a (p, n) grid")
    curve.add_argument("--dist", required=True)
    curve.add_argument("--p", type=_floats, default=monte_carlo.DEFAULT_P_GRID, help="p grid")
    curve.add_argument("--n", type=_ints, default=monte_carlo.DEFAULT_N_GRID, help="dimension grid")
    curve.add_argument("--delta", type=float, default=0.1)
    curve.add_argument("--M", type=int, default=100_000, help="samples per cell")
    curve.add_argument("--seed", type=int, default=0)
    curve.add_argument(
        "--normalization", choices=monte_carlo.NORMALIZATIONS, default="analytic-mu"
    )
    _add_workers(curve)
    _add_common(curve, "json")

    contrast = sub.add_parser("contrast", help="relative contrast of i.i.d. vector pairs")
    contrast.add_argument("--dist", required=True)
    contrast.add_argument("--n", type=int, required=True, help="dimension")
    contrast.add_argument("--p", type=_floats, required=True)
    contrast.add_argument("--delta", type=float, default=0.1)
    contrast.add_argument("--M", type=int, default=100_000, help="number of pairs")
    contrast.add_argument("--seed", type=int, default=0)
    contrast.add_argument(
        "--normalization", choices=monte_carlo.NORMALIZATIONS, default="analytic-mu"
    )
    _add_workers(contrast)
    _add_common(contrast, "json")

    pstar = sub.add_parser("pstar", help="largest p keeping non-concentration above a target")
    pstar.add_argument("--dist", required=True)
    pstar.add_argument("--n", type=int, required=True)
    pstar.add_argument("--delta", type=float, required=True)
    pstar.add_argument("--Delta", type=float, required=True, help="target band probability")
    pstar.add_argument(
        "--method", choices=("exact-binomial", "monte-carlo"), default="exact-binomial"
    )
    pstar.add_argument("--M", type=int, default=100_000, help="samples (monte-carlo method)")
    _add_workers(pstar)
    _add_common(pstar, "json")

    embed = sub.add_parser("embedsim", help="synthetic embedding concentration/contrast tables")
    embed.add_argument("--table", choices=("concentration", "contrast", "both"), default="both")
    embed.add_argument(
        "--kinds",
        default=",".join(k.name for k in embedding_lab.ALL_KINDS),
        help="comma-separated kind names",
    )
    embed.add_argument("--p", type=_floats, default=None, help="p grid (defaults per table)")
    embed.add_argument("--M", type=int, default=5000, help="vectors per kind")
    embed.add_argument("--pairs", type=int, default=3000, help="pairs per contrast cell")
    embed.add_argument("--delta", type=float, default=0.1)
    embed.add_argument("--seed", type=int, default=0)
    _add_common(embed, "json")

    diagnose = sub.add_parser("diagnose", help="dataset summary and concentration curve")
    diagnose.add_argument("--input", required=True, help="numeric CSV with a header row")
    diagnose.add_argument("--p", type=_floats, default=diagnostics.DEFAULT_CURVE_P)
    diagnose.add_argument("--delta", type=float, default=0.1)
    diagnose.add_argument(
        "--normalization", choices=diagnostics.NORMALIZATIONS, default="pooled"
    )
    diagnose.add_argument("--standardize", action="store_true", help="standardize columns first")
    diagnose.add_argument(
        "--keep-constant", action="store_true", help="keep constant columns instead of dropping"
    )
    diagnose.add_argument(
        "--missing-policy", choices=("error", "drop-rows", "mean-impute"), default="error"
    )
    _add_common(diagnose, "json")

    perturb = sub.add_parser("perturb", help="zero-imputation drift report")
    perturb.add_argument("--input", required=True)
    perturb.add_argument("--gap", type=float, required=True, help="zero-imputation probability")
    perturb.add_argument("--seed", type=int, required=True)
    perturb.add_argument("--p", type=_floats, default=diagnostics.DEFAULT_CURVE_P)
    perturb.add_argument("--delta", type=float, default=0.1)
    perturb.add_argument(
        "--normalization", choices=diagnostics.NORMALIZATIONS, default="pooled"
    )
    perturb.add_argument("--standardize", action="store_true")
    perturb.add_argument("--keep-constant", action="store_true")
    perturb.add_argument(
        "--missing-policy", choices=("error", "drop-rows", "mean-impute"), default="error"
    )
    _add_common(perturb, "json")

    validate = sub.add_parser("validate", help="check working assumptions for a distribution")
    validate.add_argument("--dist", required=True)
    validate.add_argument("--p-probe", type=float, default=1.0, help="p for the moment report")
    _add_common(validate, "json")

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.subcommand]
    try:
        config, payload, header, rows = handler(args)
        _write(_emit(config, payload, header, rows), config.out)
    except (ValueError, OSError, KeyError) as error:
        print(f"lpconc: {error}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
