"""Command-line behavior: artifact shape, exit codes, reproducibility."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lpconc import monte_carlo
from lpconc.cli import SCHEMA_VERSION, WORKERS_ENV, _cell, build_parser, run


def _json_out(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out)


def test_rates_defaults_to_csv_with_config_comments(capsys):
    code = run(["rates", "--dist", "uniform01", "--p", "0.5,1.0", "--delta", "0.2"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == f"# schema_version={SCHEMA_VERSION}"
    comments = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# dist=") for l in comments)
    assert any(l.startswith("# delta=0.2") for l in comments)
    header_index = len(comments)
    assert lines[header_index].split(",") == [
        "p", "rate_plus", "rate_minus", "regime_plus", "regime_minus",
        "small_p_closed_form_plus", "small_p_closed_form_minus",
    ]
    data_rows = lines[header_index + 1:]
    assert len(data_rows) == 2
    first = data_rows[0].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) > 0.0
    assert first[3] == "interior-optimum"
    # uniform |x| laws carry the scale-free small-p closed form columns
    assert float(first[5]) > 0.0 and float(first[6]) > 0.0


def test_rates_twopoint_has_no_closed_form_columns(capsys):
    code = run(["rates", "--dist", "twopoint:a=0.5,r=1", "--p", "1.0",
                "--delta", "0.2", "--format", "csv"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    cells = lines[1].split(",")
    assert cells[5] == "" and cells[6] == ""


def test_rates_json_structure(capsys):
    code = run(["rates", "--dist", "uniform:b=1", "--p", "1.0", "--delta", "0.1",
                "--format", "json"])
    assert code == 0
    document = _json_out(capsys)
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["config"]["subcommand"] == "rates"
    assert document["config"]["p_grid"] == [1.0]
    record = document["results"]["rates"][0]
    assert record["rate_plus"]["regime"] == "interior-optimum"
    assert record["rate_plus"]["value"] > 0.0
    assert record["small_p_closed_form_plus"] > 0.0


def test_rates_divergent_value_serializes_as_string(capsys):
    code = run(["rates", "--dist", "uniform01", "--p", "19.0", "--delta", "0.2",
                "--format", "json"])
    assert code == 0
    record = _json_out(capsys)["results"]["rates"][0]
    assert record["rate_plus"]["value"] == "inf"
    assert record["rate_plus"]["regime"] == "divergent"


def test_rates_normal_just_below_p2_exits_zero(capsys):
    code = run(["rates", "--dist", "normal", "--delta", "0.5", "--p", "1.9999999999999998,2",
                "--format", "json"])
    assert code == 0
    below, at_two = _json_out(capsys)["results"]["rates"]
    assert below["rate_plus"]["value"] == pytest.approx(at_two["rate_plus"]["value"], rel=1e-12)


def test_rates_past_delta_1_leave_the_closed_form_columns_empty(capsys):
    code = run(["rates", "--dist", "uniform01", "--p", "1", "--delta", "1.5"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    cells = lines[1].split(",")
    assert float(cells[1]) > 0.0
    assert cells[5] == "" and cells[6] == ""


def test_rates_config_echoes_a_spec_that_rebuilds_the_law(capsys):
    code = run(["rates", "--dist", "uniform:b=1.2345678", "--p", "1", "--delta", "0.1",
                "--format", "json"])
    assert code == 0
    assert _json_out(capsys)["config"]["dist"] == "uniform:b=1.2345678"


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in text.split("```sh\n")[1:]:
        body = block.split("```", 1)[0].replace("\\\n", " ")
        commands += [line for line in body.splitlines() if line.startswith("lpconc ")]
    return commands


def test_readme_cli_examples_parse():
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit as exc:
            pytest.fail(f"README example does not parse ({exc.code}): {line}")


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        run(["rates", "--dist", "uniform01"])  # missing --p/--delta
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 2


def test_worker_counts_below_one_are_usage_errors(monkeypatch, capsys):
    base = ["curve", "--dist", "uniform01", "--p", "1", "--n", "10", "--M", "100"]
    for workers in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as info:
            run(base + ["--workers", workers])
        assert info.value.code == 2
        monkeypatch.setenv(WORKERS_ENV, workers)
        with pytest.raises(SystemExit) as info:
            run(base)
        assert info.value.code == 2
        monkeypatch.delenv(WORKERS_ENV)
    assert capsys.readouterr().out == ""


def test_input_errors_exit_one(capsys):
    assert run(["rates", "--dist", "mystery:x=1", "--p", "1", "--delta", "0.1"]) == 1
    assert "lpconc:" in capsys.readouterr().err
    assert run(["perturb", "--input", "/no/such/file.csv", "--gap", "0.1",
                "--seed", "1"]) == 1
    assert run(["contrast", "--dist", "uniform01", "--n", "16", "--p", "1",
                "--M", "5"]) == 1  # M too small


def test_contrast_with_every_first_norm_zero_exits_one(capsys):
    # 100 single draws of a law with a 0.999 atom at zero are all zero
    assert run(["contrast", "--dist", "zeroinflated:a=0.999,base=uniform01", "--n", "1",
                "--p", "1", "--M", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lpconc: every pair had a zero first norm\n"


def test_curve_marks_failed_cells_instead_of_dying(capsys):
    # per-cell errors are data, not a crash: M below the sampler's floor
    code = run(["curve", "--dist", "uniform01", "--p", "1", "--n", "16",
                "--M", "5", "--format", "json"])
    assert code == 0
    results = _json_out(capsys)["results"]
    assert results["freq"][0][0] == "nan"
    assert results["failed"][0][:2] == [0, 0]


def test_pstar_json_and_csv(capsys, tmp_path):
    args = ["pstar", "--dist", "twopoint:a=0.5,r=1", "--n", "100",
            "--delta", "0.1", "--Delta", "0.2"]
    assert run(args) == 0
    document = _json_out(capsys)
    assert document["config"]["Delta"] == 0.2
    assert document["config"]["method"] == "exact-binomial"
    results = document["results"]
    assert results["p_star"] == pytest.approx(0.20777032775292786, rel=1e-9)
    assert results["exact_prob_at_p_star"] <= 0.2
    assert run(args + ["--format", "csv"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[0].split(",") == ["n", "delta", "target_Delta", "p_star",
                                   "prob_at_p_star", "mode_prob", "method"]
    assert lines[1].split(",")[6] == "exact-binomial"


def test_out_file_and_byte_identical_reruns(tmp_path, capsys):
    args = ["curve", "--dist", "uniform01", "--p", "0.5,1.0", "--n", "16,64",
            "--M", "300", "--seed", "4", "--format", "json"]
    target = tmp_path / "a.json"
    assert run(args + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""  # artifact went to the file
    first_bytes = target.read_bytes()
    assert run(args + ["--out", str(target)]) == 0
    assert target.read_bytes() == first_bytes
    document = json.loads(target.read_text())
    assert document["results"]["M"] == 300
    assert len(document["results"]["freq"]) == 2


def test_one_parser_serves_every_run_of_a_process(tmp_path, capsys):
    # run() builds its parser once; parsing one subcommand must leave nothing
    # behind that changes the next, so interleaved runs repeat byte for byte
    argvs = [
        ["rates", "--dist", "normal", "--p", "0.5,1.5", "--delta", "0.2", "--format", "json"],
        ["curve", "--dist", "uniform01", "--p", "0.5", "--n", "16", "--M", "200", "--seed", "2"],
        ["validate", "--dist", "diffuniform", "--p-probe", "0.5", "--format", "csv"],
    ]
    written = []
    for i in (0, 1, 2, 2, 1, 0):
        target = tmp_path / f"{i}.out"  # the echoed --out path is part of the bytes
        assert run(argvs[i] + ["--out", str(target)]) == 0
        written.append(target.read_bytes())
    assert capsys.readouterr().out == ""
    assert written[:3] == written[3:][::-1]
    assert len(set(written[:3])) == 3


def test_curve_results_do_not_depend_on_workers(tmp_path, monkeypatch):
    base = ["curve", "--dist", "uniform01", "--p", "1.0", "--n", "2048",
            "--M", "3000", "--seed", "8", "--format", "json"]
    out1 = tmp_path / "w1.json"
    out3 = tmp_path / "w3.json"
    outenv = tmp_path / "wenv.json"
    assert run(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert run(base + ["--workers", "3", "--out", str(out3)]) == 0
    monkeypatch.setenv(WORKERS_ENV, "2")
    assert run(base + ["--out", str(outenv)]) == 0
    r1 = json.loads(out1.read_text())
    r3 = json.loads(out3.read_text())
    renv = json.loads(outenv.read_text())
    assert r1["results"] == r3["results"] == renv["results"]
    assert r1["config"]["workers"] == 1
    assert r3["config"]["workers"] == 3
    assert renv["config"]["workers"] == 2


def test_contrast_subcommand(capsys):
    code = run(["contrast", "--dist", "uniform01", "--n", "64", "--p", "0.5,2.0",
                "--M", "400", "--seed", "2"])
    assert code == 0
    results = _json_out(capsys)["results"]["contrast"]
    assert len(results) == 2
    for record in results:
        assert 0.0 <= record["freq_below_delta"] <= 1.0
        assert record["joint_half_band_freq"] <= record["freq_below_delta"] + 1e-12
        assert record["n"] == 64


# sha256 of the stdout artifact as written when each p drew its own sample
CONTRAST_DIGESTS = {
    "analytic-mu": "a55c274f757bd5765944ac396d436ea4b3a385f3e827d146428135f997bb6c49",
    "empirical-mu": "985d1c4ae120aef6aeb8d0e8ade22d919a40563c183068452cd2dadb7e699621",
}


@pytest.mark.parametrize("normalization", sorted(CONTRAST_DIGESTS))
def test_contrast_p_list_writes_the_same_bytes(monkeypatch, normalization):
    # one sample now serves both p; the artifact must not change
    monkeypatch.setattr(monte_carlo, "CHUNK_TARGET_ENTRIES", 1 << 16)  # 5 chunks
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["contrast", "--dist", "uniform01", "--n", "300", "--p", "0.01,0.5",
                    "--M", "500", "--seed", "3", "--workers", "2",
                    "--normalization", normalization])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CONTRAST_DIGESTS[normalization]


def test_contrast_reports_an_overflowing_mean_as_an_error(capsys):
    # 2^5000 overflows the law's mean of |x|^p
    code = run(["contrast", "--dist", "uniform:b=2", "--n", "16", "--p", "5000", "--M", "200"])
    assert code == 1
    assert capsys.readouterr().err.startswith("lpconc:")


def test_rates_report_an_overflowing_moment_as_an_error(capsys):
    # 10^400 overflows the law's mean of |x|^p before any rate is solved
    assert run(["rates", "--dist", "uniform:b=10", "--p", "400", "--delta", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lpconc:") and "overflow" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("value", [0.1, 0.04252808594960955, -2.5e-300, float("nan"), float("inf")])
def test_numpy_floats_render_like_python_floats(value):
    assert _cell(np.float64(value)) == _cell(value) == repr(value)


@pytest.mark.parametrize("module", ["lpconc", "lpconc.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: lpconc")
    assert "contrast" in done.stdout and "pstar" in done.stdout


def test_embedsim_subcommand(capsys):
    code = run(["embedsim", "--table", "both", "--kinds", "binary", "--p", "1.0",
                "--M", "200", "--pairs", "150", "--seed", "1"])
    assert code == 0
    document = _json_out(capsys)
    results = document["results"]
    assert set(results) == {"concentration", "median_contrast"}
    assert results["concentration"]["cells"][0]["kind"] == "binary"
    assert results["median_contrast"]["M"] == 150
    assert document["config"]["kinds"] == ["binary"]
    code = run(["embedsim", "--table", "contrast", "--kinds", "binary", "--p", "1.0",
                "--pairs", "120", "--format", "csv"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[0] == "table"
    assert lines[1].split(",")[0] == "median-contrast"


def _write_csv(tmp_path, name="d.csv"):
    rows = ["x,y,const"]
    import random

    rng = random.Random(5)
    for _ in range(60):
        rows.append(f"{rng.uniform(0.5, 1.5):.6f},{rng.uniform(2.0, 4.0):.6f},7")
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_diagnose_subcommand(tmp_path, capsys):
    path = _write_csv(tmp_path)
    code = run(["diagnose", "--input", path, "--p", "0.5,1.0", "--standardize"])
    assert code == 0
    document = _json_out(capsys)
    summary = document["results"]["dataset"]
    assert summary["rows"] == 60
    assert summary["columns"] == 2  # constant column dropped
    assert summary["constant_columns_dropped"] == 1
    points = document["results"]["curve"]["points"]
    assert len(points) == 2 and all(not pt["flagged"] for pt in points)
    assert document["config"]["standardize"] is True

    code = run(["diagnose", "--input", path, "--p", "1.0", "--keep-constant",
                "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "# input=" in out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "p,fraction,flagged"
    assert lines[1].split(",")[2] == "False"


def test_diagnose_on_one_row_names_the_cause_and_the_remedy(tmp_path, capsys):
    # one row makes every column constant, and dropping them leaves nothing
    path = tmp_path / "one.csv"
    path.write_text("x,y,z\n1.5,2,-3\n")
    assert run(["diagnose", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lpconc: every column is constant over the 1 row,")
    assert "--keep-constant" in err and len(err.splitlines()) == 1


def test_perturb_subcommand_fields_and_determinism(tmp_path, capsys):
    path = _write_csv(tmp_path)
    args = ["perturb", "--input", path, "--gap", "0.2", "--seed", "6",
            "--p", "0.05,1.0", "--standardize"]
    assert run(args) == 0
    document = _json_out(capsys)
    results = document["results"]
    assert results["gap_prob"] == 0.2
    assert results["wasserstein_total"] > 0.0
    assert 0.0 <= results["ks_min_pvalue"] <= 1.0
    assert results["ks_statistic_max"] > 0.0
    assert len(results["curves"]) == 2
    assert document["config"]["gap_prob"] == 0.2

    target = tmp_path / "report.json"
    assert run(args + ["--out", str(target)]) == 0
    first_bytes = target.read_bytes()
    assert run(args + ["--out", str(target)]) == 0
    assert target.read_bytes() == first_bytes


def _write_seeded_csv(tmp_path):
    """2000 x 12: normal columns, few-level columns and one constant column."""
    rng = np.random.default_rng([3, 0x6C70])
    columns = []
    for j in range(11):
        if j % 4 == 3:
            columns.append(rng.integers(0, 2 + j % 5, 2000).astype(float))
        else:
            columns.append(rng.normal(0.1 * j, 1.0 + 0.05 * j, 2000))
    columns.append(np.full(2000, 3.0))
    path = tmp_path / "seeded.csv"
    header = ",".join(f"c{j:02d}" for j in range(12))
    np.savetxt(path, np.column_stack(columns), fmt="%.12g", delimiter=",", header=header,
               comments="")
    return str(path)


# sha256 of the artifact without its config block (which echoes the input
# path), as written when every cell was parsed by the per-cell Python loop
TABLE_DIGESTS = {
    "diagnose": "80f448e6a2fc011c5fe0a502e59d4cce504121c4bdbbee52e63e94a7550839de",
    "perturb": "21c24a03bfafacb36b0871b1f1488880995c289b4772bb6e5df61d9d688f43e6",
}


@pytest.mark.parametrize("subcommand", sorted(TABLE_DIGESTS))
def test_diagnose_and_perturb_write_the_same_results(tmp_path, capsys, subcommand):
    path = _write_seeded_csv(tmp_path)
    extra = ["--gap", "0.05", "--seed", "3"] if subcommand == "perturb" else []
    assert run([subcommand, "--input", path, "--standardize", *extra]) == 0
    document = _json_out(capsys)
    del document["config"]
    text = json.dumps(document, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[subcommand]


def test_validate_subcommand(capsys):
    code = run(["validate", "--dist", "normal", "--p-probe", "2.0"])
    assert code == 0
    results = _json_out(capsys)["results"]
    assert "assumptions" in results and "moments" in results
    code = run(["validate", "--dist", "twopoint:a=0.5", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "field,value"
    assert len(lines) > 3
