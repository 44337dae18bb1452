"""Optimal excess-of-loss retentions: solvers, estimators, and simulation."""

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
    estimate_decreasing,
    estimate_sd,
    estimate_sharpe,
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
