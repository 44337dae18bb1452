"""Optimal excess-of-loss retentions: solvers, estimators, and simulation."""

import importlib as _importlib
import os as _os
import sys as _sys

# numpy's OpenBLAS starts a busy-waiting worker per extra core when it loads,
# which costs a cold command about 0.1 CPU-s on 2 cores and never pays back
# here (the largest product is about 3 x 100 x 1000).  Load it with one
# thread, unless the caller chose a count or loaded numpy already, and give
# the caller's environment back exactly, for child processes and later reads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_pin = "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARS)
if _pin:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _numpy
finally:
    if _pin:
        del _os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

# The public names of each module.  A name loads its module on first use
# (PEP 562), so `import xolopt` costs numpy and this file, and a command
# compiles and runs only the modules it calls.
_EXPORTS = {
    "dataio": ("content_digest", "make_synthetic_losses", "read_loss_csv",
               "write_csv_atomic", "write_json_atomic"),
    "distortion": ("DistortionMeasure", "normal_quantile", "parse_measure"),
    "errors": ("AllZero", "AtomConditionViolated", "ConditionNotMet", "ConditionViolated",
               "DegenerateVariance", "DomainError", "GridBoundaryMinimum", "LossParseError",
               "NonfiniteMoment", "NonpositivePhi", "NoRootFound", "NumericalFailure",
               "XoloptError"),
    "inference": ("CurvePoint", "EstimationResult", "estimate", "retention_curve"),
    "montecarlo": ("BruteForceResult", "InsolvencyResult", "McConfig", "McEstimateRow",
                   "McTableRow", "brute_force_optimal", "insolvency_probability",
                   "mc_var_total_cost", "replicate_table1", "replicate_table2",
                   "turning_points"),
    "retention": ("ConstantLoading", "DecreasingLoading", "RetentionSolution",
                  "SharpeLoading", "StdDevLoading", "condition_report", "edgeworth_objective",
                  "effective_rho", "objective", "solve_retention", "solve_retention_edgeworth",
                  "stationarity_function", "stop_loss_retention"),
    "severity": ("EmpiricalLosses", "LossSummary", "ParetoII", "SeverityModel",
                 "kde_density", "summary_and_lorenz"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "numerics", "plots"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
