"""Command-line front end for retention optimisation and loss analysis.

Subcommands: optimize | estimate | simulate {table1,table2,insolvency} |
analyze | selfcheck.  Exit codes: 0 success, 2 domain or solver condition
failure, 64 usage error, 65 loss-file parse error.  Failures print a
machine-readable {"error": ...} object; file outputs are written atomically
and accompanied by a run manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    content_digest,
    make_synthetic_losses,
    read_loss_csv,
    write_csv_atomic,
    write_json_atomic,
)
from .distortion import DistortionMeasure, normal_quantile, parse_measure
from .errors import LossParseError, NumericalFailure, XoloptError
from .inference import _estimate, retention_curve
from .montecarlo import (
    TABLE1_SIZES,
    TABLE2_SIZES,
    McConfig,
    insolvency_probability,
    mc_var_total_cost,
    replicate_table1,
    replicate_table2,
)
from .retention import (
    _RULES,
    DecreasingLoading,
    SharpeLoading,
    StdDevLoading,
    solve_retention,
    stop_loss_retention,
)
from .severity import (
    EmpiricalLosses,
    ParetoII,
    kde_density,
    summary_and_lorenz,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems on exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(json.dumps({"error": {"type": "UsageError", "message": message}}))
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunManifest:
    """Reproducibility record accompanying every file output."""

    command: str
    params: dict
    seed: int
    input_digest: str | None
    version: str
    python: str
    numpy: str
    created_utc: str


def _manifest(args: argparse.Namespace, digest: str | None) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k != "func" and not k.startswith("_")
    }
    man = RunManifest(
        command=args.command,
        params=params,
        seed=args.seed,
        input_digest=digest,
        version=__version__,
        python=platform.python_version(),
        numpy=np.__version__,
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    return asdict(man)


def _emit_error(exc: Exception) -> dict:
    payload: dict = {"type": type(exc).__name__, "message": str(exc)}
    line = getattr(exc, "line", 0)
    if line:
        payload["line"] = line
    return {"error": payload}


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _print_table(header: tuple[str, ...], rows) -> None:
    def fmt(c):
        return f"{c:.6g}" if isinstance(c, float) else str(c)

    cells = [header] + [tuple(fmt(c) for c in row) for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))


def _resolve_out(args) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- models


def _build_model(args, parser: _Parser):
    """Severity model plus input digest from --input or --model flags."""
    if getattr(args, "input", None):
        losses = read_loss_csv(args.input)
        return EmpiricalLosses(losses), content_digest(args.input)
    if getattr(args, "model", None) == "pareto":
        if args.alpha is None or args.lam is None:
            parser.error("--model pareto requires --alpha and --lambda")
        return ParetoII(args.alpha, args.lam), None
    parser.error("specify --input FILE or --model pareto --alpha A --lambda L")


def _build_rule(args, parser: _Parser):
    """The loading rule named by --rule, from the flag of its one parameter."""
    cls = _RULES[args.rule]
    (param,) = fields(cls)
    value = getattr(args, param.name)
    if value is None:
        parser.error(f"--rule {args.rule} requires --{param.name}")
    return cls(value)


def _measure_from(args) -> DistortionMeasure:
    if getattr(args, "measure", None):
        return parse_measure(args.measure)
    return DistortionMeasure.var(args.p)


# ------------------------------------------------------------- optimize


def cmd_optimize(args, parser: _Parser) -> int:
    if args.rule == "sl":
        # one contract's VaR optimum at a constant loading: it reads no other
        # measure, portfolio size or loading rule
        ignored = [flag for flag, value in (("--measure", args.measure), ("--N", args.n),
                                            ("--delta", args.delta), ("--rho0", args.rho0))
                   if value is not None]
        if ignored:
            parser.error(f"--rule sl takes only --rho and --p, not {' '.join(ignored)}")
        if args.rho is None:
            parser.error("--rule sl requires --rho")
    model, digest = _build_model(args, parser)
    if args.rule == "sl":
        d = stop_loss_retention(model, args.rho, args.p)
        result = {"rule": "sl", "rho": args.rho, "p": args.p, "d_star": d}
    else:
        rule = _build_rule(args, parser)
        measure = _measure_from(args)
        n = args.n
        if n is None:
            # only a rate that does not fall as 1/sqrt(N) moves the optimum with N
            if not rule.falls_with_n:
                parser.error(f"--rule {args.rule} requires --N")
            n = 100
        result = solve_retention(model, rule, measure, n).to_json_dict()
    _print_json(result)
    out = _resolve_out(args)
    if out is not None:
        write_json_atomic(out / "optimize.json", result)
        write_json_atomic(out / "manifest.json", _manifest(args, digest))
    return EXIT_OK


# ------------------------------------------------------------- estimate


def cmd_estimate(args, parser: _Parser) -> int:
    losses = read_loss_csv(args.input)
    digest = content_digest(args.input)
    rule = _build_rule(args, parser)
    measure = _measure_from(args)
    result = _estimate(losses, rule, measure, args.level, args.bandwidth).to_json_dict()
    _print_json(result)
    out = _resolve_out(args)
    if out is not None:
        write_json_atomic(out / "estimate.json", result)
        write_json_atomic(out / "manifest.json", _manifest(args, digest))
    return EXIT_OK


# ------------------------------------------------------------- simulate

# portfolio sizes of each study when --N is not given
_STUDY_SIZES = {"table1": TABLE1_SIZES, "table2": TABLE2_SIZES, "insolvency": (2, 3, 5, 10)}


def cmd_simulate(args, parser: _Parser) -> int:
    # reject a flag the study would ignore, before any file is written
    if args.only is not None and args.study == "insolvency":
        parser.error("--only applies to table1 and table2, not insolvency")
    if args.mc_b is not None and args.study == "table2":
        parser.error("--B applies to table1 and insolvency, not table2")
    if args.mc_m is not None and args.study != "table2":
        parser.error("--M applies to table2 only")
    if args.n_values is None:
        args.n_values = list(_STUDY_SIZES[args.study])
    model = ParetoII(args.alpha, args.lam)
    cfg = McConfig(seed=args.seed)
    if args.full_scale:
        cfg = cfg.full_scale()
    if args.mc_b is not None:
        cfg = replace(cfg, b=args.mc_b)
    if args.mc_m is not None:
        cfg = replace(cfg, m=args.mc_m)
    out = _resolve_out(args) or Path(".")
    if args.study == "table1":
        rows = replicate_table1(
            model, cfg, p=args.p, n_values=tuple(args.n_values), rho=args.rho,
            delta=args.delta, rho0=args.rho0, only=args.only,
        )
    elif args.study == "table2":
        rows = replicate_table2(
            model, cfg, p=args.p, n_values=tuple(args.n_values), delta=args.delta,
            rho0=args.rho0, only=args.only,
        )
    else:
        rows = [insolvency_probability(model, n, args.rho, args.p, cfg)
                for n in args.n_values]
    target = out / f"{args.study}.csv"
    header = tuple(f.name for f in fields(rows[0]))
    data = [astuple(r) for r in rows]
    write_csv_atomic(target, header, data)
    write_json_atomic(out / "manifest.json", _manifest(args, None))
    if args.json:
        _print_json([dict(zip(header, row)) for row in data])
    else:
        _print_table(header, data)
        print(f"wrote {target}")
    return EXIT_OK


# -------------------------------------------------------------- analyze


def _sweep_grid(args, parser: _Parser) -> np.ndarray:
    if args.grid:
        try:
            lo_s, hi_s, count_s = args.grid.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
        except ValueError:
            parser.error(f"bad --grid {args.grid!r}, expected lo:hi:count")
        if not (0.0 < lo < hi < math.inf and count >= 1):
            parser.error(f"bad --grid range {args.grid!r}")
        if args.sweep == "p" and not hi < 1.0:
            parser.error(f"bad --grid {args.grid!r}: risk levels must lie in (0, 1)")
        if args.sweep == "rho":
            return np.geomspace(lo, hi, count)
        return np.linspace(lo, hi, count)
    if args.sweep == "rho":
        return np.geomspace(0.001, 0.05, 12)
    return np.linspace(0.80, 0.99, 12)


def cmd_analyze(args, parser: _Parser) -> int:
    # validate the sweep before any work
    grid = _sweep_grid(args, parser)
    if args.input:
        losses = read_loss_csv(args.input)
        digest = content_digest(args.input)
    elif args.synthetic:
        losses = make_synthetic_losses()
        digest = "synthetic"
    else:
        parser.error("analyze needs --input FILE or --synthetic")
    fixed = args.fixed_p if args.sweep == "rho" else args.fixed_rho
    out = _resolve_out(args) or Path(".")
    summary = summary_and_lorenz(losses)
    write_json_atomic(
        out / "summary.json",
        {
            "count": summary.count,
            "mean": summary.mean,
            "median": summary.median,
            "max": summary.max,
        },
    )
    write_csv_atomic(
        out / "lorenz.csv", ("u", "share"), [tuple(pt) for pt in summary.lorenz]
    )
    xs = np.linspace(0.0, float(np.quantile(losses, 0.99)), 200)
    dens = kde_density(losses, xs, args.bandwidth)
    write_csv_atomic(out / "density.csv", ("x", "density"), list(zip(xs, dens)))

    curves = {}
    for family in args.families:
        points = retention_curve(
            losses, family, args.sweep, grid, fixed,
            level=args.level, bandwidth=args.bandwidth,
        )
        curves[family] = points
        write_csv_atomic(
            out / f"curve_{family}.csv",
            ("param", "d_hat", "ci_lo", "ci_hi", "error"),
            [(pt.param, pt.d_hat, pt.ci_lo, pt.ci_hi, pt.error or "") for pt in points],
        )
    write_json_atomic(out / "manifest.json", _manifest(args, digest))
    if args.svg:
        _render_analysis_svg(out, losses, summary, xs, dens, grid, curves, args.sweep)
    listing = sorted(p.name for p in out.iterdir() if p.suffix in (".csv", ".json", ".svg"))
    if args.json:
        _print_json({"out_dir": str(out), "files": listing})
    else:
        print(f"wrote {', '.join(listing)} in {out}")
    return EXIT_OK


def _render_analysis_svg(out, losses, summary, xs, dens, grid, curves, sweep) -> None:
    from .plots import render_svg

    render_svg(
        out / "density.svg", "Claim severity density", "loss", "density",
        [("kde", xs, dens)],
    )
    lor = summary.lorenz
    render_svg(
        out / "lorenz.svg", "Loss concentration", "claim rank share", "loss share",
        [("lorenz", lor[:, 0], lor[:, 1]), ("equality", np.array([0.0, 1.0]), np.array([0.0, 1.0]))],
    )
    for family, points in curves.items():
        params = np.array([pt.param for pt in points])
        d_hat = np.array([pt.d_hat for pt in points])
        lo = np.array([pt.ci_lo for pt in points])
        hi = np.array([pt.ci_hi for pt in points])
        render_svg(
            out / f"curve_{family}.svg",
            f"Retention vs {sweep} ({family})", sweep, "retention",
            [("estimate", params, d_hat)],
            band=(params, lo, hi),
        )


# ------------------------------------------------------------ selfcheck

# Double-exponential rules (Takahasi & Mori 1974) on the 289 nodes t = k/32,
# |k| <= 144.  For the smooth Lomax integrands of the self-check both reach
# double precision.
_DE_STEP = 1.0 / 32.0
_DE_NODES = np.arange(-144, 145) * _DE_STEP


def _weighted_sum(f, x: np.ndarray, w: np.ndarray) -> float:
    total = float(w @ np.array([f(float(xi)) for xi in x]))
    if not math.isfinite(total):
        raise NumericalFailure(f"quadrature gave {total}")
    return total


def integrate_finite(f, a: float, b: float) -> float:
    """Integral of f over [a, b] by the tanh-sinh rule."""
    u = 0.5 * math.pi * np.sinh(_DE_NODES)
    # distance of each node from the nearer end, exact where tanh(u) rounds to 1
    gap = (b - a) / (1.0 + np.exp(2.0 * np.abs(u)))
    x = np.where(_DE_NODES < 0.0, a + gap, b - gap)
    w = 0.25 * math.pi * (b - a) * _DE_STEP * np.cosh(_DE_NODES) / np.cosh(u) ** 2
    return _weighted_sum(f, x, w)


def integrate_tail(f, d: float) -> float:
    """Integral of f over (d, inf) by the exp-sinh rule x = d + exp(pi sinh t)."""
    e = np.exp(math.pi * np.sinh(_DE_NODES))
    return _weighted_sum(f, d + e, math.pi * _DE_STEP * np.cosh(_DE_NODES) * e)


def _check_pareto_moments() -> tuple[bool, str]:
    worst = 0.0
    for model in (ParetoII(9.0, 8.0), ParetoII(2.5, 3.0)):
        for d in (0.3, 1.0, 4.0):
            tm = model.truncated_moments(d)
            mu1 = integrate_finite(lambda x: model.survival(x), 0.0, d)
            nu1 = integrate_tail(lambda x: model.survival(x), d)
            mu2 = 2.0 * integrate_finite(lambda x: x * model.survival(x), 0.0, d)
            nu2 = 2.0 * integrate_tail(lambda x: model.survival(x) * (x - d), d)
            worst = max(
                worst, abs(tm.mu1 - mu1), abs(tm.nu1 - nu1),
                abs(tm.mu2 - mu2), abs(tm.nu2 - nu2),
            )
    return worst < 1e-8, f"max closed-form vs quadrature gap {worst:.2e}"


def _check_quantile_table() -> tuple[bool, str]:
    from . import distortion

    worst = 0.0
    for p, z_ref in distortion.REFERENCE_QUANTILES:
        worst = max(worst, abs(normal_quantile(p) - z_ref))
    return worst < 1e-9, f"max quantile gap {worst:.2e}"


def _check_phi_values() -> tuple[bool, str]:
    root_pi = math.sqrt(math.pi)
    pairs = [
        # the trapezoid rule against E[max of 2 or 3 standard normals]
        (DistortionMeasure.gini(1.0), 1.0 / root_pi),
        (DistortionMeasure.dual_power(2.0), 1.0 / root_pi),
        (DistortionMeasure.dual_power(3.0), 1.5 / root_pi),
        # the closed form against E[Z | Z > z_0.75] from 30-digit arithmetic
        (DistortionMeasure.es(0.75), 1.27110629074),
    ]
    worst = max(abs(measure.phi_normal() - value) for measure, value in pairs)
    return worst < 1e-8, f"max distortion coefficient gap {worst:.2e}"


def _check_reference_optima() -> tuple[bool, str]:
    model = ParetoII(9.0, 8.0)
    measure = DistortionMeasure.var(0.75)
    refs = [
        (DecreasingLoading(0.5), 0.547247),
        (StdDevLoading(0.5), 0.818945),
        (SharpeLoading(0.5), 0.321770),
    ]
    worst = 0.0
    for rule, ref in refs:
        sol = solve_retention(model, rule, measure, 100)
        worst = max(worst, abs(sol.d_star - ref))
    return worst < 1e-4, f"max solver drift from frozen optima {worst:.2e}"


def _check_stationarity() -> tuple[bool, str]:
    from .retention import stationarity_function

    model = ParetoII(9.0, 8.0)
    measure = DistortionMeasure.var(0.75)
    rule = DecreasingLoading(0.5)
    sol = solve_retention(model, rule, measure, 100)
    resid = abs(float(stationarity_function(model, rule, measure, 100, sol.d_star)))
    return resid < 1e-9, f"stationarity residual {resid:.2e}"


def _check_mc_determinism() -> tuple[bool, str]:
    model = ParetoII(9.0, 8.0)
    cfg = McConfig(b=1000, m=100, seed=11)
    rule = DecreasingLoading(0.5)
    v1 = mc_var_total_cost(model, rule, 5, 0.75, 0.6, cfg)
    v2 = mc_var_total_cost(model, rule, 5, 0.75, 0.6, cfg)
    same_samples = np.array_equal(model.sample(16, 3), model.sample(16, 3))
    ok = v1 == v2 and same_samples
    return ok, f"repeat quantile gap {abs(v1 - v2):.2e}"


_SELFCHECKS = (
    ("pareto-moment-closed-forms", _check_pareto_moments),
    ("normal-quantile-table", _check_quantile_table),
    ("distortion-coefficients", _check_phi_values),
    ("solver-reference-optima", _check_reference_optima),
    ("stationarity-residual", _check_stationarity),
    ("mc-determinism", _check_mc_determinism),
)


def cmd_selfcheck(args, parser: _Parser) -> int:
    report = []
    all_ok = True
    for name, fn in _SELFCHECKS:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        all_ok &= ok
        report.append(
            {"check": name, "passed": ok, "detail": detail, "seconds": round(elapsed, 3)}
        )
    if args.json:
        _print_json({"passed": all_ok, "checks": report})
    else:
        for item in report:
            status = "ok " if item["passed"] else "FAIL"
            print(f"{status} {item['check']}: {item['detail']} ({item['seconds']}s)")
    return EXIT_OK if all_ok else EXIT_DOMAIN


# ---------------------------------------------------------------- parser


def build_parser() -> _Parser:
    parser = _Parser(prog="xolopt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"xolopt {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root seed for anything random")
    common.add_argument("--out", help="directory for file outputs")
    common.add_argument("--json", action="store_true", help="machine-readable stdout")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    opt = sub.add_parser("optimize", parents=[common], help="model-based optimal retention")
    _add_model_flags(opt)
    opt.add_argument("--rule", required=True,
                     choices=(*_RULES, "sl"))
    _add_rule_params(opt)
    opt.add_argument("--p", type=float, default=0.75, help="risk level")
    opt.add_argument("--N", dest="n", type=int, help="portfolio size")
    opt.add_argument("--measure", help="distortion measure, e.g. var:0.75 or es:0.9")
    opt.set_defaults(func=cmd_optimize)

    est = sub.add_parser("estimate", parents=[common],
                         help="nonparametric retention estimate with CI")
    est.add_argument("--input", required=True, help="loss CSV")
    est.add_argument("--rule", required=True, choices=("decreasing", "stddev", "sharpe"))
    _add_rule_params(est)
    est.add_argument("--p", type=float, default=0.75, help="risk level")
    est.add_argument("--measure", help="distortion measure, e.g. var:0.75")
    est.add_argument("--level", type=_probability, default=0.95, help="confidence level")
    est.add_argument("--bandwidth", type=_positive, default=0.1, help="KDE bandwidth")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", parents=[common], help="Monte Carlo studies")
    sim.add_argument("study", choices=("table1", "table2", "insolvency"))
    _add_model_flags(sim, empirical=False)
    sim.add_argument("--p", type=float, default=0.75)
    sim.add_argument("--rho", type=float, default=0.3, help="constant loading")
    sim.add_argument("--delta", type=float, default=0.5, help="decreasing loading scale")
    sim.add_argument("--rho0", type=float, default=0.5, help="stddev/sharpe loading scale")
    sim.add_argument("--N", dest="n_values", type=int, nargs="+",
                     help="portfolio sizes of the study (default: 10 25 100 for table1, "
                          "500 2000 10000 for table2, 2 3 5 10 for insolvency)")
    sim.add_argument("--only", help="restrict table1 or table2 rows to one rule")
    sim.add_argument("--B", dest="mc_b", type=int,
                     help="simulated portfolios per quantile of table1 and insolvency")
    sim.add_argument("--M", dest="mc_m", type=int,
                     help="outer replications of the table2 study")
    sim.add_argument("--full-scale", action="store_true",
                     help="B=50000, M=5000 instead of desk scale")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", parents=[common],
                         help="summary, Lorenz, density, and retention curves")
    ana.add_argument("--input", help="loss CSV")
    ana.add_argument("--synthetic", action="store_true",
                     help="use the bundled synthetic loss sample")
    ana.add_argument("--sweep", required=True, choices=("rho", "p"))
    ana.add_argument("--fixed-p", type=_probability, default=0.9,
                     help="risk level when sweeping rho")
    ana.add_argument("--fixed-rho", type=_positive, default=0.005,
                     help="effective loading when sweeping p")
    ana.add_argument("--grid", help="sweep grid as lo:hi:count")
    ana.add_argument("--families", nargs="+",
                     default=["decreasing", "stddev", "sharpe"],
                     choices=("decreasing", "stddev", "sharpe"))
    ana.add_argument("--level", type=_probability, default=0.95)
    ana.add_argument("--bandwidth", type=_positive, default=0.1)
    ana.add_argument("--svg", action="store_true", help="also render SVG plots")
    ana.set_defaults(func=cmd_analyze)

    chk = sub.add_parser("selfcheck", parents=[common], help="fast invariant suite")
    chk.set_defaults(func=cmd_selfcheck)
    return parser


def _add_model_flags(p: _Parser, empirical: bool = True) -> None:
    p.add_argument("--model", choices=("pareto",), default=None if empirical else "pareto")
    p.add_argument("--alpha", type=float, default=None if empirical else 9.0,
                   help="Pareto tail index")
    p.add_argument("--lambda", dest="lam", type=float, default=None if empirical else 8.0,
                   help="Pareto scale")
    if empirical:
        p.add_argument("--input", help="loss CSV for an empirical model")


def _between(lo: float, hi: float):
    """An argparse type for a number strictly between lo and hi, so that a
    bad value is a usage error before any work."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(f"expected a number in ({lo:g}, {hi:g}), got {text}")
        return value

    return parse


_positive = _between(0.0, math.inf)
_probability = _between(0.0, 1.0)


def _add_rule_params(p: _Parser) -> None:
    p.add_argument("--rho", type=float, help="constant or stop-loss loading")
    p.add_argument("--delta", type=float, help="decreasing loading scale")
    p.add_argument("--rho0", type=float, help="stddev/sharpe loading scale")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except LossParseError as exc:
        _print_json(_emit_error(exc))
        return EXIT_PARSE
    except XoloptError as exc:
        _print_json(_emit_error(exc))
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
