"""scipy stays off the import path of everything but quadrature.

A cold command pays for every module `import xolopt` loads, and scipy is
most of it.  The solvers and estimators need only numpy and the standard
library; scipy is loaded on demand by the quadrature-based distortions
(dualpower, gini, pht) and by the self-check.  Each check runs in a fresh
interpreter, because this test session may already have imported scipy.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import xolopt, xolopt.cli
    from xolopt import (
        ConstantLoading, DecreasingLoading, DistortionMeasure, ParetoII,
        SharpeLoading, StdDevLoading, estimate_decreasing, estimate_sd,
        estimate_sharpe, parse_measure, solve_retention,
    )

    report = {"after_import": scipy_modules()}
    model = ParetoII(9.0, 8.0)
    rules = [ConstantLoading(0.3), DecreasingLoading(0.5), StdDevLoading(0.5),
             SharpeLoading(0.5)]
    for text in ("var:0.75", "es:0.9", "wang:0.5"):
        measure = parse_measure(text)
        for rule in rules:
            solve_retention(model, rule, measure, 100)
    losses = model.sample(2000, 7)
    measure = DistortionMeasure.var(0.75)
    estimate_decreasing(losses, 0.5, measure)
    estimate_sd(losses, 0.5, measure)
    estimate_sharpe(losses, 0.5, measure)
    report["after_solves"] = scipy_modules()

    report["gini_phi"] = DistortionMeasure.gini(0.5).phi_normal()
    with contextlib.redirect_stdout(io.StringIO()):
        report["selfcheck_exit"] = xolopt.cli.main(["selfcheck"])
    report["after_quadrature"] = scipy_modules()
    print(json.dumps(report))
    """
)


def test_solvers_and_estimators_never_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["after_import"] == []
    assert report["after_solves"] == []
    # gini(beta) has h'(s) = 1 + beta - 2 beta s, so phi = 2 beta E[Z Phi(Z)]
    # = beta / sqrt(pi)
    assert abs(report["gini_phi"] - 0.5 / math.sqrt(math.pi)) < 1e-8
    assert report["selfcheck_exit"] == 0
    assert "scipy.integrate" in report["after_quadrature"]
