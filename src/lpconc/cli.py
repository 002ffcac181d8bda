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
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Sequence

from . import anti_concentration, closed_forms, diagnostics, embedding_lab, monte_carlo
from . import rate_engine
from .distributions import moment_report, parse_spec, validate_assumptions

SCHEMA_VERSION = 1
WORKERS_ENV = "LPCONC_WORKERS"

__all__ = ["main", "run", "SCHEMA_VERSION", "WORKERS_ENV"]

# argument names whose artifact key differs
_CONFIG_NAMES = {"p": "p_grid", "n": "n_grid", "gap": "gap_prob", "p_probe": "p"}


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


def _workers(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _resolve(args: argparse.Namespace) -> None:
    """Replace the law spec, kind list and missing worker count by what they
    resolve to, in place."""
    if "dist" in args:
        args.dist = parse_spec(args.dist)
    if "kinds" in args:
        names = args.kinds.split(",")
        args.kinds = tuple(embedding_lab.kind_by_name(name.strip()) for name in names)
    if "workers" in args and args.workers is None and os.environ.get(WORKERS_ENV):
        try:
            args.workers = _workers(os.environ[WORKERS_ENV])
        except (ValueError, argparse.ArgumentTypeError) as error:
            _parser().error(f"${WORKERS_ENV}: {error}")  # a usage error: exit 2


def _config(args: argparse.Namespace) -> dict:
    """The resolved arguments under their artifact names; unset ones are left out."""
    config = {}
    for name, value in vars(args).items():
        if value is None:
            continue
        if name == "dist":
            value = value.spec_string()
        elif name == "kinds":
            value = [kind.name for kind in value]
        elif name == "n" and isinstance(value, int):
            value = (value,)
        config[_CONFIG_NAMES.get(name, name)] = value
    return config


def _sanitize(value, names: dict | None = None):
    """JSON-safe copy: non-finite floats become strings, and dict keys found
    in names are renamed, at every depth."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        return value
    if isinstance(value, dict):
        return {(names or {}).get(k, k): _sanitize(v, names) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v, names) for v in value]
    return value


def _record(result, **renames) -> dict:
    """A result dataclass as artifacts record it: its fields, with
    ci_halfwidth named ci and each of renames applied, at every depth."""
    return _sanitize(asdict(result), {"ci_halfwidth": "ci", **renames})


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64 too
    return str(value)


def _emit(config: dict, payload: dict, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    if config["format"] == "json":
        document = {
            "schema_version": SCHEMA_VERSION,
            "config": _sanitize(config),
            "results": _sanitize(payload),
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    buffer.write(f"# schema_version={SCHEMA_VERSION}\n")
    for key, value in sorted(config.items()):
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


def _cmd_rates(args) -> tuple[dict, list[str], list[list]]:
    rows = []
    records = []
    for p in args.p:
        plus = rate_engine.rate(args.dist, p, args.delta, +1)
        minus = rate_engine.rate(args.dist, p, args.delta, -1)
        cf_plus = closed_forms.small_p_closed(args.dist.closed_family, args.delta, +1)
        cf_minus = closed_forms.small_p_closed(args.dist.closed_family, args.delta, -1)
        rows.append(
            [p, plus.value, minus.value, plus.regime, minus.regime, cf_plus, cf_minus]
        )
        rate_plus, rate_minus = _record(plus), _record(minus)
        del rate_plus["iterations"], rate_minus["iterations"]
        records.append(
            {
                "p": p,
                "rate_plus": rate_plus,
                "rate_minus": rate_minus,
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
    return {"rates": records}, header, rows


def _cmd_curve(args) -> tuple[dict, list[str], list[list]]:
    grid = monte_carlo.curve_sweep(
        args.dist,
        p_grid=args.p,
        n_grid=args.n,
        delta=args.delta,
        M=args.M,
        seed=args.seed,
        normalization=args.normalization,
        workers=args.workers,
    )
    rows = [list(row) for row in grid.rows()]
    return _record(grid, sample_count="M"), ["p", "n", "frequency", "ci_halfwidth"], rows


def _cmd_contrast(args) -> tuple[dict, list[str], list[list]]:
    summaries = monte_carlo.contrast_sweep(
        args.dist,
        n=args.n,
        p_grid=args.p,
        M=args.M,
        seed=args.seed,
        delta=args.delta,
        normalization=args.normalization,
        workers=args.workers,
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
    return {"contrast": [_record(s) for s in summaries]}, header, rows


def _cmd_pstar(args) -> tuple[dict, list[str], list[list]]:
    report = anti_concentration.find_p_star(
        args.dist,
        n=args.n,
        delta=args.delta,
        Delta=args.Delta,
        method=args.method,
        M=args.M,
        workers=args.workers,
    )
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
    return _record(report), header, rows


def _cmd_embedsim(args) -> tuple[dict, list[str], list[list]]:
    payload: dict = {}
    rows: list[list] = []
    if args.table in ("concentration", "both"):
        table = embedding_lab.concentration_table(
            args.kinds,
            p_grid=args.p or embedding_lab.DEFAULT_CONCENTRATION_P,
            delta=args.delta,
            M=args.M,
            seed=args.seed,
        )
        payload["concentration"] = _record(table, sample_count="M")
        rows.extend(["concentration", *row] for row in table.rows())
    if args.table in ("contrast", "both"):
        table = embedding_lab.contrast_table(
            args.kinds,
            p_grid=args.p or embedding_lab.DEFAULT_CONTRAST_P,
            pairs=args.pairs,
            seed=args.seed,
        )
        payload["median_contrast"] = _record(table, sample_count="M")
        rows.extend(["median-contrast", *row] for row in table.rows())
    header = ["table", "kind", "p", "value", "ci_halfwidth", "skipped"]
    return payload, header, rows


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


def _cmd_diagnose(args) -> tuple[dict, list[str], list[list]]:
    data = _load_prepared(args)
    curve = diagnostics.concentration_curve(
        data, p_grid=args.p, delta=args.delta, normalization=args.normalization
    )
    header = ["p", "fraction", "flagged"]
    rows = [list(point) for point in zip(curve.p_grid, curve.fraction, curve.flagged)]
    points = [dict(zip(header, row)) for row in rows]
    curve_record = {"delta": curve.delta, "normalization": curve.normalization, "points": points}
    return {"dataset": _dataset_summary(data), "curve": curve_record}, header, rows


def _cmd_perturb(args) -> tuple[dict, list[str], list[list]]:
    data = _load_prepared(args)
    report = diagnostics.perturb_report(
        data,
        gap_prob=args.gap,
        seed=args.seed,
        p_grid=args.p,
        delta=args.delta,
        normalization=args.normalization,
    )
    payload = {"dataset": _dataset_summary(data), **_record(report)}
    rows = [[row.p, row.frac_original, row.frac_perturbed] for row in report.curves]
    return payload, ["p", "frac_original", "frac_perturbed"], rows


def _cmd_validate(args) -> tuple[dict, list[str], list[list]]:
    assumptions = validate_assumptions(args.dist)
    moments = moment_report(args.dist, args.p_probe)
    payload = {"assumptions": asdict(assumptions), "moments": asdict(moments)}
    header = ["field", "value"]
    rows = [[k, v] for k, v in {**asdict(assumptions), **{f"moment_{k}": v for k, v in asdict(moments).items()}}.items()]
    return payload, header, rows


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
        type=_workers,
        default=None,
        help=f"parallel worker cap; default ${WORKERS_ENV} or all cores; results do not depend on it",
    )


def _add_monte_carlo(parser: argparse.ArgumentParser, m_help: str) -> None:
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--M", type=int, default=100_000, help=m_help)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--normalization", choices=monte_carlo.NORMALIZATIONS, default="analytic-mu")
    _add_workers(parser)
    _add_common(parser, "json")


def _add_dataset(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=_floats, default=diagnostics.DEFAULT_CURVE_P)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--normalization", choices=diagnostics.NORMALIZATIONS, default="pooled")
    parser.add_argument("--standardize", action="store_true", help="standardize columns first")
    parser.add_argument(
        "--keep-constant", action="store_true", help="keep constant columns instead of dropping"
    )
    parser.add_argument(
        "--missing-policy", choices=("error", "drop-rows", "mean-impute"), default="error"
    )
    _add_common(parser, "json")


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
    _add_monte_carlo(curve, "samples per cell")

    contrast = sub.add_parser("contrast", help="relative contrast of i.i.d. vector pairs")
    contrast.add_argument("--dist", required=True)
    contrast.add_argument("--n", type=int, required=True, help="dimension")
    contrast.add_argument("--p", type=_floats, required=True)
    _add_monte_carlo(contrast, "number of pairs")

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
    _add_dataset(diagnose)

    perturb = sub.add_parser("perturb", help="zero-imputation drift report")
    perturb.add_argument("--input", required=True, help="numeric CSV with a header row")
    perturb.add_argument("--gap", type=float, required=True, help="zero-imputation probability")
    perturb.add_argument("--seed", type=int, required=True)
    _add_dataset(perturb)

    validate = sub.add_parser("validate", help="check working assumptions for a distribution")
    validate.add_argument("--dist", required=True)
    validate.add_argument("--p-probe", type=float, default=1.0, help="p for the moment report")
    _add_common(validate, "json")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing mutates only the namespace."""
    return build_parser()


def run(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler = _HANDLERS[args.subcommand]
    try:
        _resolve(args)
        payload, header, rows = handler(args)
        _write(_emit(_config(args), payload, header, rows), args.out)
    except (ValueError, OSError, KeyError) as error:
        print(f"lpconc: {error}", file=sys.stderr)
        return 1
    except OverflowError as error:
        print(f"lpconc: a result overflows a float: {error}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
