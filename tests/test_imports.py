"""What importing xolopt loads: no scipy, numpy with one BLAS thread, and
no submodule until a name from it is used.

The package needs only numpy and the standard library; scipy is a test
dependency.  A fresh interpreter blocks every scipy import
(`sys.modules["scipy"] = None` makes `import scipy...` fail) and then runs
each kind of work the package does: import, phi for every distortion kind,
the model solvers, the estimators and three commands.

The package loads numpy with OPENBLAS_NUM_THREADS=1 unless the caller set a
BLAS thread count or imported numpy first, and leaves the environment as it
found it.  Each case runs in a fresh interpreter, and the outputs of three
commands must not move by a bit with the caller's thread count.

Each public name loads its module on first use, and each command loads the
modules it runs: `optimize` loads neither the Monte Carlo oracle, the
estimators, the plots nor hashlib.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

SCRIPT = textwrap.dedent(
    """
    import sys
    sys.modules["scipy"] = None

    import contextlib, io, json

    import xolopt, xolopt.cli
    from xolopt import (
        ConstantLoading, DecreasingLoading, DistortionMeasure, ParetoII,
        SharpeLoading, StdDevLoading, estimate, parse_measure, solve_retention,
        solve_retention_edgeworth,
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
    estimate(losses, DecreasingLoading(0.5), measure)
    estimate(losses, StdDevLoading(0.5), measure)
    estimate(losses, SharpeLoading(0.5), measure)
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


def _env(**overrides) -> dict:
    """This environment with src first on the path, no BLAS thread count,
    and the given variables set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env | overrides


def test_solvers_and_estimators_never_import_scipy(tmp_path):
    env = _env()
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


# Imports xolopt (after numpy with argv[1] == "numpy-first") and reports the
# threads of the process and every change made to a BLAS thread variable of
# the C environment (numpy's own import sets and unsets OPENBLAS_MAIN_FREE).
PIN_SCRIPT = textwrap.dedent(
    """
    import json, os, sys
    if sys.argv[1] == "numpy-first":
        import numpy
    changes = []
    watched = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}

    def putenv(key, value, _putenv=os.putenv):
        if os.fsdecode(key) in watched:
            changes.append(["set", os.fsdecode(key), os.fsdecode(value)])
        _putenv(key, value)

    def unsetenv(key, _unsetenv=os.unsetenv):
        if os.fsdecode(key) in watched:
            changes.append(["unset", os.fsdecode(key)])
        _unsetenv(key)

    os.putenv, os.unsetenv = putenv, unsetenv
    before = dict(os.environ)
    import xolopt
    tasks = "/proc/self/task"
    print(json.dumps({
        "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
        "unchanged": dict(os.environ) == before,
        "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
        "changes": changes,
    }))
    """
)

MULTICORE_LINUX = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and (os.cpu_count() or 1) >= 2),
    reason="thread counts are read from /proc/self/task on 2 or more cores",
)


def _report(tmp_path, script: str, *argv: str, **env) -> dict:
    """The last stdout line of script, run in a fresh interpreter with the
    given variables set, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=_env(**env), capture_output=True,
        text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_xolopt(tmp_path, order="xolopt-first", **env) -> dict:
    return _report(tmp_path, PIN_SCRIPT, order, **env)


def test_import_leaves_the_environment_as_it_found_it(tmp_path):
    report = _import_xolopt(tmp_path)
    assert report["unchanged"]
    assert report["openblas"] is None
    assert report["changes"] == [["set", "OPENBLAS_NUM_THREADS", "1"],
                                 ["unset", "OPENBLAS_NUM_THREADS"]]


@MULTICORE_LINUX
def test_cold_import_loads_one_blas_thread(tmp_path):
    assert _import_xolopt(tmp_path)["threads"] == 1


@MULTICORE_LINUX
def test_caller_thread_count_is_honoured(tmp_path):
    report = _import_xolopt(tmp_path, OPENBLAS_NUM_THREADS="2")
    assert report["threads"] == 2
    assert report["openblas"] == "2"
    assert report["unchanged"] and report["changes"] == []


@pytest.mark.parametrize("var", ["GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_any_blas_thread_variable_turns_the_pin_off(tmp_path, var):
    report = _import_xolopt(tmp_path, **{var: "1"})
    assert report["unchanged"] and report["changes"] == []


def test_numpy_imported_first_sets_nothing(tmp_path):
    report = _import_xolopt(tmp_path, "numpy-first")
    assert report["unchanged"] and report["changes"] == []


COMMANDS = {
    "table1": ["simulate", "table1", "--only", "stddev", "--B", "1000"],
    "table2": ["simulate", "table2", "--M", "100", "--only", "sharpe"],
    "analyze": ["analyze", "--synthetic", "--sweep", "rho"],
}


def _outputs(out: Path) -> dict:
    """Every file under out by relative path, with the manifest's creation
    time and output directory left out."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["created_utc"], manifest["params"]["out"]
            data = json.dumps(manifest, sort_keys=True).encode()
        files[str(path.relative_to(out))] = data
    return files


def test_blas_thread_count_moves_no_output_bit(tmp_path):
    """The outputs of the pinned load equal, byte for byte, those of a load
    with two BLAS threads chosen by the caller."""
    outputs = []
    for side, env in (("pinned", _env()), ("two", _env(OPENBLAS_NUM_THREADS="2"))):
        for name, argv in COMMANDS.items():
            subprocess.run(
                [sys.executable, "-m", "xolopt.cli", *argv, "--out", str(tmp_path / side / name)],
                env=env, check=True, capture_output=True, cwd=tmp_path, timeout=300,
            )
        outputs.append(_outputs(tmp_path / side))
    assert len(outputs[0]) == 11
    assert outputs[0] == outputs[1]


# Imports xolopt, reports the xolopt submodules it loaded, uses one name from
# the solvers and reports the threads of the process again.
SHELL_SCRIPT = textwrap.dedent(
    """
    import json, os, sys
    import xolopt
    loaded = sorted(m for m in sys.modules if m.startswith("xolopt."))
    xolopt.solve_retention(xolopt.ParetoII(9.0, 8.0), xolopt.DecreasingLoading(0.5),
                           xolopt.DistortionMeasure.var(0.75), 100)
    tasks = "/proc/self/task"
    print(json.dumps({
        "loaded": loaded,
        "numpy": "numpy" in sys.modules,
        "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
        "used": sorted(m for m in sys.modules if m.startswith("xolopt.")),
    }))
    """
)


def test_import_loads_numpy_and_no_submodule(tmp_path):
    report = _report(tmp_path, SHELL_SCRIPT)
    assert report["loaded"] == []
    assert report["numpy"]
    assert report["used"] == ["xolopt.distortion", "xolopt.errors", "xolopt.numerics",
                              "xolopt.retention", "xolopt.severity"]
    if report["threads"] is not None and (os.cpu_count() or 1) >= 2:
        assert report["threads"] == 1


EXPORTS_SCRIPT = textwrap.dedent(
    """
    import json, sys
    import xolopt
    wrong = []
    for name in xolopt.__all__:
        value = getattr(xolopt, name)
        module = getattr(value, "__module__", "")
        if not (module.startswith("xolopt.") and name in vars(sys.modules[module])
                and getattr(sys.modules[module], name) is value):
            wrong.append(name)
    star = {}
    exec("from xolopt import *", star)
    try:
        xolopt.no_such_name
        missing = None
    except AttributeError as exc:
        missing = str(exc)
    print(json.dumps({
        "all": xolopt.__all__,
        "wrong": wrong,
        "star": sorted(k for k in star if k != "__builtins__"),
        "dir": sorted(set(xolopt.__all__) - set(dir(xolopt))),
        "missing": missing,
        "severity": xolopt.severity is sys.modules["xolopt.severity"],
        "cli": xolopt.cli.main.__module__,
    }))
    """
)


def test_every_export_is_its_modules_object(tmp_path):
    report = _report(tmp_path, EXPORTS_SCRIPT)
    assert len(report["all"]) == 55
    assert report["wrong"] == []
    assert report["star"] == report["all"]
    assert report["dir"] == []
    assert report["missing"] == "module 'xolopt' has no attribute 'no_such_name'"
    assert report["severity"]
    assert report["cli"] == "xolopt.cli"


# Runs one command through cli.main and reports the modules it loaded.
COMMAND_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import xolopt.cli
    argv = json.loads(sys.argv[1])
    if argv[0] == "estimate":
        losses = xolopt.ParetoII(9.0, 8.0).sample(2000, 1)
        with open("claims.csv", "w") as fh:
            fh.write("loss\\n" + "\\n".join(map(repr, losses.tolist())) + "\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        code = xolopt.cli.main(argv)
    print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
    """
)

OPTIMIZE = ["optimize", "--model", "pareto", "--alpha", "9", "--lambda", "8",
            "--rule", "decreasing", "--delta", "0.5", "--out", "opt"]


@pytest.mark.parametrize("argv,absent", [
    (OPTIMIZE, {"xolopt.montecarlo", "xolopt.inference", "xolopt.plots", "hashlib"}),
    (["estimate", "--input", "claims.csv", "--rule", "stddev", "--rho0", "0.5", "--out", "est"],
     {"xolopt.montecarlo", "xolopt.plots"}),
    (["analyze", "--synthetic", "--sweep", "rho", "--out", "ana"],
     {"xolopt.montecarlo", "xolopt.plots"}),
    (["selfcheck"], {"xolopt.inference", "xolopt.plots"}),
    (["simulate", "insolvency", "--N", "2", "--B", "1000", "--out", "sim"],
     {"xolopt.inference", "xolopt.plots"}),
], ids=["optimize", "estimate", "analyze", "selfcheck", "insolvency"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, absent):
    report = _report(tmp_path, COMMAND_SCRIPT, json.dumps(argv))
    assert report["exit"] == 0
    assert absent.isdisjoint(report["modules"])
