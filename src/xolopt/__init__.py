"""Optimal excess-of-loss retentions: solvers, estimators, and simulation."""

import os as _os
import sys as _sys

# numpy's OpenBLAS starts a busy-waiting worker per extra core when it loads,
# which costs a cold command about 0.1 CPU-s on 2 cores and never pays back
# here (the largest product is about 3 x 100 x 1000).  Load it with one
# thread, unless the caller chose a count or loaded numpy already, and give
# the caller's environment back exactly, for child processes and later reads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .dataio import (
    content_digest,
    make_synthetic_losses,
    read_loss_csv,
    write_csv_atomic,
    write_json_atomic,
)
from .distortion import DistortionMeasure, normal_quantile, parse_measure
from .errors import (
    AllZero,
    AtomConditionViolated,
    ConditionNotMet,
    ConditionViolated,
    DegenerateVariance,
    DomainError,
    GridBoundaryMinimum,
    LossParseError,
    NonfiniteMoment,
    NonpositivePhi,
    NoRootFound,
    NumericalFailure,
    XoloptError,
)
from .inference import (
    CurvePoint,
    EstimationResult,
    estimate,
    retention_curve,
)
from .montecarlo import (
    BruteForceResult,
    InsolvencyResult,
    McConfig,
    McEstimateRow,
    McTableRow,
    brute_force_optimal,
    insolvency_probability,
    mc_var_total_cost,
    replicate_table1,
    replicate_table2,
    turning_points,
)
from .retention import (
    ConstantLoading,
    DecreasingLoading,
    RetentionSolution,
    SharpeLoading,
    StdDevLoading,
    condition_report,
    edgeworth_objective,
    effective_rho,
    objective,
    solve_retention,
    solve_retention_edgeworth,
    stationarity_function,
    stop_loss_retention,
)
from .severity import (
    EmpiricalLosses,
    HigherTruncatedMoments,
    LossSummary,
    ParetoII,
    SeverityModel,
    TruncatedMoments,
    kde_density,
    summary_and_lorenz,
)

__version__ = "0.1.0"
