"""Start-up footprint: lpconc runs on numpy alone.

Every CLI invocation pays its imports before any work, and importing
scipy.special alone took longer than numpy and all of lpconc together.  A
fresh interpreter imports lpconc, runs one small invocation of each of the
eight subcommands, and reports every module that got loaded along the way;
no scipy module may be among them.  The tests themselves still use scipy
as an oracle.  The `rates` calls, which run first, must not load numpy.ma
either, which numpy imports on the first call of helpers such as np.unique.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = r"""
import json, os, sys
import lpconc, lpconc.cli

work = sys.argv[1]
path = os.path.join(work, "d.csv")
with open(path, "w") as handle:
    handle.write("x,y,z\n")
    for i in range(60):
        handle.write(f"{1 + (i * 7) % 11},{(i * 5) % 13 - 6},{(i % 4) * 0.5}\n")
rates = [["rates", "--dist", spec, "--p", "0.01,0.5,1.5", "--delta", "0.2"]
         for spec in ("normal", "zeroinflated:a=0.3,base=normal", "uniform01", "diffuniform")]
argvs = rates + [
    ["curve", "--dist", "uniform01", "--p", "1", "--n", "16", "--M", "200"],
    ["embedsim", "--table", "both", "--kinds", "binary", "--p", "1.0",
     "--M", "100", "--pairs", "60"],
    ["diagnose", "--input", path, "--p", "0.5,1.0", "--standardize"],
    ["perturb", "--input", path, "--gap", "0.2", "--seed", "3", "--p", "0.5,1.0",
     "--standardize"],
    ["pstar", "--dist", "twopoint:a=0.5", "--n", "100", "--delta", "0.1", "--Delta", "0.2"],
    ["pstar", "--dist", "zeroinflated:a=0.3,base=normal", "--n", "20", "--delta", "0.1",
     "--Delta", "0.2", "--method", "monte-carlo", "--M", "200"],
    ["contrast", "--dist", "normal", "--n", "20", "--p", "0.5,1", "--M", "200",
     "--normalization", "empirical-mu"],
    ["validate", "--dist", "normal", "--p-probe", "0.5"],
]
codes = []
for i, argv in enumerate(argvs):
    codes.append(lpconc.cli.run(argv + ["--out", os.path.join(work, f"{i}.out")]))
    if i == len(rates) - 1:
        after_rates = sorted(sys.modules)
print(json.dumps({"codes": codes, "modules": sorted(sys.modules), "after_rates": after_rates}))
"""


def test_cli_runs_without_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 12
    loaded = [name for name in report["modules"] if name.split(".")[0] == "scipy"]
    assert loaded == [], f"imported at start-up or by a subcommand: {loaded}"
    assert "numpy.ma" not in report["after_rates"]

