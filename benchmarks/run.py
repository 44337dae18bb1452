"""Benchmark runner for xolopt.

    python3 benchmarks/run.py --workload {desk,mc-oracle,estimation} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One client runs the workload's operations one after
another, in whole rounds, for about ``--seconds`` of wall-clock time (at
least one round).  Outputs are checked after each round, outside the timed
part.

Times are CPU seconds (user + system) of the process that did the work: on
a shared virtual machine the host can take the CPU away for minutes at a
time, which stretches wall time but is not charged as CPU time.  The host
also slows the CPU itself for seconds to minutes; a fixed calibration task
timed after every step gives the run's speed factor, and the end-to-end
times are divided by it (rates multiplied), so that they read as CPU
seconds on the reference machine.

--trace 0 times cold ``xolopt`` processes and the in-process sweep with no
tracing and reports the end-to-end metrics.  --trace 1 runs the same
operations inside this process through ``xolopt.cli.main``, alternating a
plain round with a traced one, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


class ColdCli:
    """Each command in a fresh interpreter, started by the small helper
    spawn.py so that its peak RSS is its own; CPU time and peak RSS come
    from wait4."""

    def __init__(self, env: dict):
        self.env = env
        self.helper = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                       text=True)

    def call(self, argv: list[str]) -> dict:
        self.helper.stdin.write(json.dumps({"argv": argv, "env": self.env}) + "\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError("the spawn helper ended")
        return json.loads(line)

    def run(self, argv: list[str], out_dir: Path) -> workloads.Outcome:
        shutil.rmtree(out_dir, ignore_errors=True)
        reply = self.call([sys.executable, "-m", "xolopt.cli", *argv])
        return workloads.Outcome(reply["rc"], reply["stdout"], reply["cpu_s"],
                                 reply["rss_mb"], out_dir)

    def close(self) -> None:
        """End the helper; on an interrupted run also the command it runs."""
        if self.helper.poll() is None and self.helper.stdin and not self.helper.stdin.closed:
            try:
                self.helper.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.helper.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            self.helper.terminate()
            self.helper.wait()
        self.helper.stdout.close()


class InProcessCli:
    """Each command through xolopt.cli.main in this process."""

    def run(self, argv: list[str], out_dir: Path) -> workloads.Outcome:
        shutil.rmtree(out_dir, ignore_errors=True)
        cli = sys.modules["xolopt.cli"]
        buf = io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return workloads.Outcome(rc, buf.getvalue(), time.process_time() - start, None, out_dir)


class Tally:
    """Attempts, failures and the first problems seen, over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def add(self, problems: list[str], wrong: bool) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += wrong
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


# CPU seconds that calibrate() takes on the reference machine (2-vCPU Xeon VM,
# Python 3.11.7, numpy 2.4.6) when its host is not contended.
CALIBRATION_REFERENCE_S = 0.0125


def calibrate() -> float:
    """CPU seconds of a fixed piece of interpreter and numpy work that does
    not touch xolopt.  Timed after every step of a round, it measures how
    fast the machine runs during the run."""
    start = time.process_time()
    values = np.random.default_rng(0).random(100_000)
    for _ in range(3):
        total = np.cumsum(np.sort(values))
        np.exp(-total / total[-1])
    acc = 0
    for i in range(60_000):
        acc += i * i
    ",".join(str(i) for i in range(20_000))
    return time.process_time() - start


def run_round(plan: workloads.Plan, cli, xo, work: Path):
    """One round of the plan's steps, each followed by calibrate(); returns
    outcomes, sweep parts, calibration times and wall seconds."""
    outcomes, sweeps, calibration = [], [], []
    start = time.perf_counter()
    for step in plan.steps:
        if isinstance(step, workloads.SweepPart):
            sweeps.append(workloads.run_sweep(xo, step))
        else:
            outcomes.append((step, cli.run(step.argv, work / step.out_name)))
        calibration.append(calibrate())
    return outcomes, sweeps, calibration, time.perf_counter() - start


def check_round(outcomes, sweeps, plan, ref: workloads.References, tally: Tally,
                samples) -> None:
    for op, out in outcomes:
        if out.rc != 0:
            tally.add([f"{' '.join(op.argv[:3])}: exit code {out.rc}"], False)
            continue
        try:
            problems = op.check(out)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            problems = [f"{' '.join(op.argv[:3])}: unreadable output: {exc!r}"]
        tally.add(problems, True)
        samples[op.metric].append(out.seconds)
        if out.rss_mb is not None:
            samples["peak_rss_mb"].append(out.rss_mb)
    for seconds, solves, results, errors in sweeps:
        samples["sweep_solves"].append(solves)
        samples["sweep_seconds"].append(seconds)
        for message in errors:
            tally.add([message], False)
        for case, d in results:
            tally.add(workloads.check_sweep_result(ref, case, d), True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def time_setup(cold: ColdCli) -> list[float]:
    """CPU time of cold ``import xolopt`` processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        reply = cold.call([sys.executable, "-c", "import xolopt"])
        if reply["rc"]:
            raise SystemExit(f"import xolopt exited with code {reply['rc']}")
        times.append(reply["cpu_s"])
    return times


def import_program():
    """Import xolopt into this process for the API sweep, and run one
    untimed sweep pass so that lazy imports and caches are settled, as
    they are in a pricing loop after its first call."""
    sys.path.insert(0, str(SRC))
    xo = importlib.import_module("xolopt")
    importlib.import_module("xolopt.cli")
    for i in range(workloads.SWEEP_PARTS):
        workloads.run_sweep(xo, workloads.SweepPart(i))
    return xo


def keep_going(round_seconds: list[float], seconds: float) -> bool:
    """Start another round only if it would end no more than half a round
    after the measuring time (wall clock)."""
    return sum(round_seconds) + 0.5 * statistics.mean(round_seconds) <= seconds


def end_to_end(args, plan, env, ref, work, tally) -> dict:
    samples: dict[str, list[float]] = defaultdict(list)
    cold = ColdCli(env)
    round_seconds: list[float] = []
    try:
        samples["setup_s"] = time_setup(cold)
        xo = import_program()
        while True:
            outcomes, sweeps, calibration, took = run_round(plan, cold, xo, work)
            round_seconds.append(took)
            samples["calibration"] += calibration
            check_round(outcomes, sweeps, plan, ref, tally, samples)
            if not keep_going(round_seconds, args.seconds):
                break
    finally:
        cold.close()
    # Times are divided, and rates multiplied, by the run's speed factor, so
    # that they read as CPU seconds on the reference machine.
    speed = statistics.median(samples["calibration"]) / CALIBRATION_REFERENCE_S
    samples["solves_per_s"] = [n / t * speed for n, t in zip(samples["sweep_solves"],
                                                               samples["sweep_seconds"])]
    metrics = {}
    for name, (unit, _) in workloads.END_TO_END.items():
        values = samples.get(name)
        if not values:
            raise SystemExit(f"no successful operation measured {name}")
        if unit == "s":
            values = [v / speed for v in values]
        q1, value, q3 = quartiles(values)
        if name == "peak_rss_mb":
            value = max(values)
        elif name == "solves_per_s":  # all solves over all timed sweep seconds
            value = sum(samples["sweep_solves"]) / sum(samples["sweep_seconds"]) * speed
        print(f"{name:14s} {value:12.6g} {unit:4s}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"speed factor {speed:.4f} (median calibrate() {statistics.median(samples['calibration']):.5f} s "
          f"over {len(samples['calibration'])} samples)")
    print(f"rounds {len(round_seconds)}  measured {sum(round_seconds):.2f} s")
    return metrics


def per_layer(args, plan, env, ref, work, tally) -> dict:
    import_s, import_scipy_s = tracing.import_times(sys.executable, env)
    xo = import_program()
    cli = InProcessCli()
    tracer = tracing.Tracer()
    plain, traced, rounds = [], [], []
    samples: dict[str, list[float]] = defaultdict(list)
    while True:
        outcomes, sweeps, _, took = run_round(plan, cli, xo, work)
        plain.append(took)
        check_round(outcomes, sweeps, plan, ref, tally, samples)
        tracer.reset()
        tracer.install()
        try:
            outcomes, sweeps, _, took = run_round(plan, cli, xo, work)
        finally:
            tracer.uninstall()
        traced.append(took)
        rounds.append(tracer.layer_totals())
        check_round(outcomes, sweeps, plan, ref, tally, samples)
        if not keep_going([a + b for a, b in zip(plain, traced)], args.seconds):
            break
    spans_path = HERE / ".work" / f"spans-{args.workload}.jsonl"
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps([span.name, span.start, span.end, span.parent]) + "\n")
    absent = set(tracer.absent)
    metrics = {}
    for name, (unit, _) in tracing.PER_LAYER.items():
        if name == "cli.import_s":
            value = import_s
        elif name == "cli.import_scipy_s":
            value = import_scipy_s
        elif name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        else:
            value = statistics.median(r.get(name, 0.0) for r in rounds)
        source = tracing.COUNTER_SOURCES.get(name, name.rsplit(".", 1)[0])
        mark = "  absent" if source in absent else ""
        print(f"{name:42s} {value:14.6g} {unit}{mark}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"rounds {len(rounds)}  plain {statistics.median(plain):.3f} s  "
          f"traced {statistics.median(traced):.3f} s  spans {len(tracer.spans)}  -> {spans_path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "xolopt" / "__init__.py").is_file():
        print(f"no xolopt sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    ref = workloads.References()
    try:
        plan = workloads.build(args.workload, args.seed, work, ref)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args, plan, env, ref, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, value in plan.notes.items():
        print(f"note  {key:44s} {value:.4g}")
    print(f"attempted {tally.attempted}  failed {tally.failed}  wrong outputs {tally.wrong}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
