"""Per-layer spans and counters for the traced run.

Wrappers are installed, from the benchmark's side, on the public functions
and methods of each xolopt module, under every name a module of the package
binds them to (``xolopt.montecarlo.solve_retention`` as well as
``xolopt.retention.solve_retention``).  Each call records a span: a name, a
start, an end and the span that was open when it began.  A layer's self time
is its span time minus the time of its child spans.  Spans stay in memory
and are written out when the run ends.

A target that a later version of the program no longer has is reported as
absent; it does not stop the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (span name, module, attribute path).  Several targets may share a span
# name: the Lomax and empirical versions of a method count as one layer.
TARGETS = [
    ("cli.main", "xolopt.cli", "main"),
    ("distortion.phi_normal", "xolopt.distortion", "DistortionMeasure.phi_normal"),
    ("severity.pareto_moment_grid", "xolopt.severity", "ParetoII.moment_grid"),
    ("severity.higher_moments", "xolopt.severity", "ParetoII.higher_truncated_moments"),
    ("severity.higher_moments", "xolopt.severity", "EmpiricalLosses.higher_truncated_moments"),
    ("severity.sample", "xolopt.severity", "ParetoII.sample_rng"),
    ("severity.sample", "xolopt.severity", "EmpiricalLosses.sample_rng"),
    ("severity.empirical_init", "xolopt.severity", "EmpiricalLosses.__init__"),
    ("severity.empirical_moment_grid", "xolopt.severity", "EmpiricalLosses.moment_grid"),
    ("severity.kde", "xolopt.severity", "kde_density"),
    ("retention.solve", "xolopt.retention", "solve_retention"),
    ("retention.objective", "xolopt.retention", "objective"),
    ("retention.stationarity", "xolopt.retention", "stationarity_function"),
    ("retention.edgeworth", "xolopt.retention", "solve_retention_edgeworth"),
    ("retention.effective_rho", "xolopt.retention", "effective_rho"),
    ("numerics.grid_then_golden", "xolopt.numerics", "grid_then_golden"),
    ("numerics.leftmost_local_min", "xolopt.numerics", "leftmost_local_min"),
    ("numerics.expand_and_solve", "xolopt.numerics", "expand_and_solve"),
    ("numerics.first_sign_change", "xolopt.numerics", "first_sign_change"),
    ("inference.estimate_decreasing", "xolopt.inference", "estimate_decreasing"),
    ("inference.estimate_sd", "xolopt.inference", "estimate_sd"),
    ("inference.estimate_sharpe", "xolopt.inference", "estimate_sharpe"),
    ("inference.retention_curve", "xolopt.inference", "retention_curve"),
    ("montecarlo.brute_force_optimal", "xolopt.montecarlo", "brute_force_optimal"),
    ("montecarlo.insolvency_probability", "xolopt.montecarlo", "insolvency_probability"),
    ("montecarlo.replicate_table1", "xolopt.montecarlo", "replicate_table1"),
    ("montecarlo.replicate_table2", "xolopt.montecarlo", "replicate_table2"),
    ("dataio.read_loss_csv", "xolopt.dataio", "read_loss_csv"),
    ("dataio.write", "xolopt.dataio", "write_csv_atomic"),
    ("dataio.write", "xolopt.dataio", "write_json_atomic"),
    ("plots.render_svg", "xolopt.plots", "render_svg"),
]

_ESTIMATORS = ("inference.estimate_decreasing", "inference.estimate_sd",
               "inference.estimate_sharpe")

# Counters and the span that feeds each; a metric is absent with its span.
COUNTER_SOURCES = {
    "numerics.golden_evals": "numerics.grid_then_golden",
    "numerics.root_iterations": "numerics.expand_and_solve",
    "inference.estimates_per_curve_point": "inference.retention_curve",
    "montecarlo.replications": "montecarlo.replicate_table2",
    "montecarlo.replications_failed": "montecarlo.replicate_table2",
    "dataio.bytes_written": "dataio.write",
}

# Per-layer metrics: name -> (unit, better).  Each one should move the
# end-to-end metric named beside it (see README.md for the full table).
PER_LAYER = {
    "cli.import_s": ("s", "lower"),                       # setup_s, optimize_s
    "cli.import_scipy_s": ("s", "lower"),                 # setup_s, optimize_s
    "cli.main.self_s": ("s", "lower"),                    # optimize_s, estimate_s
    "distortion.phi_normal.calls": ("count", "lower"),    # solves_per_s
    "distortion.phi_normal.self_s": ("s", "lower"),       # solves_per_s, selfcheck_s
    "severity.pareto_moment_grid.calls": ("count", "lower"),
    "severity.pareto_moment_grid.self_s": ("s", "lower"),  # solves_per_s, table1_s
    "severity.higher_moments.calls": ("count", "lower"),
    "severity.higher_moments.self_s": ("s", "lower"),     # table1_s (Edgeworth)
    "severity.sample.self_s": ("s", "lower"),             # table1_s, insolvency_s
    "severity.empirical_init.calls": ("count", "lower"),
    "severity.empirical_init.self_s": ("s", "lower"),     # table2_s, analyze_s
    "severity.empirical_moment_grid.calls": ("count", "lower"),
    "severity.empirical_moment_grid.self_s": ("s", "lower"),  # table2_s, analyze_s
    "severity.kde.self_s": ("s", "lower"),                # analyze_s, estimate_s
    "retention.solve.calls": ("count", "lower"),
    "retention.solve.self_s": ("s", "lower"),             # solves_per_s
    "retention.objective.calls": ("count", "lower"),
    "retention.stationarity.calls": ("count", "lower"),
    "retention.edgeworth.self_s": ("s", "lower"),         # table1_s
    "retention.effective_rho.calls": ("count", "lower"),  # table1_s
    "numerics.grid_then_golden.calls": ("count", "lower"),
    "numerics.grid_then_golden.self_s": ("s", "lower"),   # table1_s, table2_s
    "numerics.golden_evals": ("count", "lower"),          # table1_s
    "numerics.expand_and_solve.calls": ("count", "lower"),
    "numerics.root_iterations": ("count", "lower"),       # solves_per_s, analyze_s
    "inference.estimate_decreasing.calls": ("count", "lower"),
    "inference.estimate_decreasing.self_s": ("s", "lower"),
    "inference.estimate_sd.calls": ("count", "lower"),
    "inference.estimate_sd.self_s": ("s", "lower"),
    "inference.estimate_sharpe.calls": ("count", "lower"),
    "inference.estimate_sharpe.self_s": ("s", "lower"),
    "inference.retention_curve.self_s": ("s", "lower"),   # analyze_s
    "inference.estimates_per_curve_point": ("count", "lower"),  # analyze_s
    "montecarlo.brute_force_optimal.calls": ("count", "lower"),
    "montecarlo.brute_force_optimal.self_s": ("s", "lower"),  # table1_s, insolvency_s
    "montecarlo.insolvency_probability.self_s": ("s", "lower"),
    "montecarlo.replicate_table2.self_s": ("s", "lower"),  # table2_s
    "montecarlo.replications": ("count", "higher"),
    "montecarlo.replications_failed": ("count", "lower"),
    "dataio.read_loss_csv.self_s": ("s", "lower"),        # estimate_s, analyze_s
    "dataio.write.self_s": ("s", "lower"),                # analyze_s
    "dataio.bytes_written": ("count", "lower"),
    "plots.render_svg.calls": ("count", "lower"),
    "plots.render_svg.self_s": ("s", "lower"),            # analyze_s
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


class Tracer:
    """Installs the wrappers, keeps spans and counters, and removes the
    wrappers again."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --------------------------------------------------------- spans

    def _call(self, name, fn, args, kwargs, after=None):
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
        if after is not None:
            after(result, args, kwargs)
        return result

    def _counting(self, f, counter: str):
        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return f(*args, **kwargs)
        return counted

    def _wrapper(self, name: str, fn):
        after = _AFTER.get(name)
        if name in ("numerics.grid_then_golden", "numerics.leftmost_local_min"):
            def wrapped(f, *args, **kwargs):
                return self._call(name, fn, (self._counting(f, "numerics.golden_evals"),) + args,
                                  kwargs)
        else:
            def wrapped(*args, **kwargs):
                return self._call(name, fn, args, kwargs,
                                  None if after is None else functools.partial(after, self))
        return functools.wraps(fn)(wrapped)

    # ------------------------------------------------------ install

    def install(self) -> None:
        for module in {m for _, m, _ in TARGETS}:
            importlib.import_module(module)
        package = [m for name, m in sys.modules.items()
                   if name == "xolopt" or name.startswith("xolopt.")]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if outer else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapped = self._wrapper(name, original)
            if outer:
                self._set(owner, attr, wrapped)
                continue
            for module in package:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, bound, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------ summary

    def layer_totals(self) -> dict[str, float]:
        """calls and self_s per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        in_curve = [False] * len(self.spans)
        totals: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
                in_curve[i] = in_curve[span.parent] or \
                    self.spans[span.parent].name == "inference.retention_curve"
            if in_curve[i] and span.name in _ESTIMATORS:
                totals["inference.curve_estimates"] += 1
        for span, inner in zip(self.spans, child):
            totals[f"{span.name}.calls"] += 1
            totals[f"{span.name}.self_s"] += span.end - span.start - inner
        totals.update(self.counters)
        points = totals.get("inference.curve_points", 0)
        totals["inference.estimates_per_curve_point"] = (
            totals["inference.curve_estimates"] / points if points else 0.0
        )
        return dict(totals)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()


def _after_root(tracer, result, args, kwargs):
    tracer.counters["numerics.root_iterations"] += getattr(result, "iterations", 0) or 0


def _after_write(tracer, result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tracer.counters["dataio.bytes_written"] += os.path.getsize(path)


def _after_table2(tracer, result, args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    tracer.counters["montecarlo.replications"] += len(result) * cfg.m
    tracer.counters["montecarlo.replications_failed"] += sum(r.failures for r in result)


def _after_curve(tracer, result, args, kwargs):
    tracer.counters["inference.curve_points"] += len(result)


_AFTER = {
    "numerics.expand_and_solve": _after_root,
    "numerics.first_sign_change": _after_root,
    "dataio.write": _after_write,
    "montecarlo.replicate_table2": _after_table2,
    "inference.retention_curve": _after_curve,
}


def import_times(python: str, env: dict) -> tuple[float, float]:
    """Cumulative ``-X importtime`` of xolopt, and the self time of scipy.*
    modules within it, in seconds, from one cold interpreter."""
    import subprocess

    proc = subprocess.run([python, "-X", "importtime", "-c", "import xolopt"],
                          env=env, capture_output=True, text=True, check=True)
    total = scipy = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the column header
        module = parts[2].strip()
        if module == "xolopt":
            total = cumulative_us / 1e6
        elif module == "scipy" or module.startswith("scipy."):
            scipy += self_us / 1e6
    return total, scipy
