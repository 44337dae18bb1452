"""xolopt runs without scipy.

The package needs only numpy and the standard library; scipy is a test
dependency.  A fresh interpreter blocks every scipy import
(`sys.modules["scipy"] = None` makes `import scipy...` fail) and then runs
each kind of work the package does: import, phi for every distortion kind,
the model solvers, the estimators and three commands.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys
    sys.modules["scipy"] = None

    import contextlib, io, json

    import xolopt, xolopt.cli
    from xolopt import (
        ConstantLoading, DecreasingLoading, DistortionMeasure, ParetoII,
        SharpeLoading, StdDevLoading, estimate_decreasing, estimate_sd,
        estimate_sharpe, parse_measure, solve_retention, solve_retention_edgeworth,
    )
    from xolopt.distortion import _phi_grid

    report = {"grid_built_at_import": _phi_grid.cache_info().currsize}
    texts = ("var:0.75", "es:0.9", "dualpower:2", "gini:0.5", "pht:0.5", "wang:0.5")
    report["phi"] = {t: parse_measure(t).phi_normal() for t in texts}
    model = ParetoII(9.0, 8.0)
    rules = [ConstantLoading(0.3), DecreasingLoading(0.5), StdDevLoading(0.5),
             SharpeLoading(0.5)]
    for text in texts:
        for rule in rules:
            solve_retention(model, rule, parse_measure(text), 100)
    losses = model.sample(2000, 7)
    measure = DistortionMeasure.var(0.75)
    estimate_decreasing(losses, 0.5, measure)
    estimate_sd(losses, 0.5, measure)
    estimate_sharpe(losses, 0.5, measure)
    solve_retention_edgeworth(model, ConstantLoading(0.3), 0.75, 25, 3)

    commands = {
        "selfcheck": ["selfcheck"],
        "insolvency": ["simulate", "insolvency", "--N", "2", "3", "--B", "1000",
                       "--out", "insolvency"],
        "analyze": ["analyze", "--synthetic", "--sweep", "rho", "--out", "analyze"],
    }
    report["exit"] = {}
    for name, argv in commands.items():
        with contextlib.redirect_stdout(io.StringIO()):
            report["exit"][name] = xolopt.cli.main(argv)
    report["scipy_loaded"] = sorted(m for m in sys.modules if m.startswith("scipy."))
    print(json.dumps(report))
    """
)


def test_solvers_and_estimators_never_import_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["grid_built_at_import"] == 0
    assert all(isinstance(v, float) for v in report["phi"].values())
    assert report["exit"] == {"selfcheck": 0, "insolvency": 0, "analyze": 0}
    assert report["scipy_loaded"] == []
