"""One workload process: set up, say "ready", run the timed phase, report.

Started by run.py, which times set-up from the moment it starts this
process until the "ready" line. With --seconds 0 the process exits
there. Otherwise it runs whole rounds of the workload's operations until
--seconds have passed, checking every output, and prints one JSON line.

With --trace 1 the timed phase is split: the first half runs untraced,
the second half with every layer wrapped in spans. Each other workload
then runs traced for PROBE_SECONDS, so every per-layer metric has a
value; each metric is computed from the spans of the workload it belongs
to. Span tables are written to .bench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, CheckFailed, Context, startup_ms

# per-layer metric -> unit; layer_metrics says which workload's spans give each
PER_LAYER = {
    "rng.uniform_block.ns_per_draw": "ns",
    "rng.sample_stream.draws_per_op": "count",
    "probability.estimate.ns_per_sample": "ns",
    "probability.estimate.self_ns_per_sample": "ns",
    "probability.estimate.thread_speedup": "ratio",
    "locus.solve.ns_per_angle": "ns",
    "locus.sample_curve.ns_per_point": "ns",
    "locus.sample_curve.self_ns_per_point": "ns",
    "locus.sample_curve.points_per_op": "count",
    "locus.samples_to_csv.ns_per_point": "ns",
    "svg.render_svg.ns_per_point": "ns",
    "serialize.fmt17.ns_per_call": "ns",
    "serialize.fmt17.calls_per_op": "count",
    "fourpoint.find_witness_hyper.us_p50": "us",
    "fourpoint.find_witness_hyper.us_mean": "us",
    "fourpoint.find_witness_hyper.sweeps_per_call": "count",
    "fourpoint.find_witness_hyper.solve_r2_per_call": "count",
    "fourpoint.find_witness_euclid.us_per_call": "us",
    "halfplane.axis_angle.elements_per_call": "count",
    "halfplane.equal_angle_residual.us_per_call": "us",
    "probability.pe_quadrature.us_per_call": "us",
    "probability.ph_quadrature.us_per_call": "us",
    "probability.calibrate_ratio.ms_per_call": "ms",
    "probability.calibrate_ratio.quadratures_per_call": "count",
    "serialize.render_json.us_per_call": "us",
    "diophantine.verify_identity.us_per_call": "us",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_scipy_ms": "ms",
    **{f"cli.{sub}.ms": "ms" for sub in WORKLOADS["cli"].SUBCOMMANDS},
    "trace.ops_ratio": "ratio",
}

# each other workload's traced pass in a --trace 1 run lasts this long
# (whole rounds, at least one)
PROBE_SECONDS = 2.0

# the CPUs this process may use before the cli workload pins it to one
CPUS = os.sched_getaffinity(0)


class NoTracer:
    active = False

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


# The machine changes speed by up to 1.7x in bursts of seconds to minutes
# (load from outside this process), so bare wall times say more about
# the host than about the code. A fixed kernel of interpreter and numpy
# work, independent of the package, is timed at most every CAL_EVERY_S
# between the ops, and each op's wall time is scaled by CAL_REF_S over the
# mean of the kernel times just before and just after it: the op's time at
# the kernel's reference speed.
CAL_REF_S = 0.003
CAL_EVERY_S = 0.25
_CAL_X = np.linspace(0.5, 2.0, 256)


class _CalPoint:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _kernel_s() -> float:
    t0 = time.perf_counter()
    points = [_CalPoint(v, math.sqrt(v)) for v in (0.5 + 0.001 * i for i in range(3000))]
    text = ",".join(f"{p.y:.17g}" for p in points[:1500])
    acc = 0.0
    for _ in range(150):
        acc += float(np.arctan2(_CAL_X, _CAL_X + 1.0).sum())
    elapsed = time.perf_counter() - t0
    if not (text and math.isfinite(acc)):
        raise RuntimeError("calibration kernel produced no result")
    return elapsed


def calibration_s() -> float:
    """Median of three runs of the kernel: objects, float formatting, small numpy calls."""
    return statistics.median(_kernel_s() for _ in range(3))


class Phase:
    """Timings and outcomes of consecutive whole rounds.

    An op's figure is the median over the rounds of its scaled time;
    op_p50 is the median of those over the round's ops, and ops_per_s
    the rate they add up to.
    """

    def __init__(self, round_size: int):
        self.op_ns: list[int] = []  # wall time of each op, in order
        self.scaled_ns: list[float] = []  # the same at the reference speed
        self.failed = 0
        self.errors: list[str] = []
        self.round_size = round_size
        self._calibration = 0.0
        self._unscaled = 0  # ops at the end of op_ns since the last calibration

    def calibrate(self, seconds: float) -> None:
        """A kernel time: the ops since the last one are scaled by the mean of the two."""
        if self._unscaled:
            factor = CAL_REF_S / (0.5 * (self._calibration + seconds))
            self.scaled_ns += [t * factor for t in self.op_ns[-self._unscaled :]]
            self._unscaled = 0
        self._calibration = seconds

    def record(self, wall_ns: int) -> None:
        self.op_ns.append(wall_ns)
        self._unscaled += 1

    @property
    def attempted(self) -> int:
        return len(self.op_ns)

    @property
    def rounds(self) -> int:
        return self.attempted // self.round_size

    def per_op_ns(self) -> list[float]:
        k = self.round_size
        return [statistics.median(self.scaled_ns[i::k]) for i in range(k)]

    def ops_per_s(self) -> float:
        per_op = self.per_op_ns()
        return 1e9 * len(per_op) / sum(per_op)

    def op_p50_ms(self) -> float:
        return statistics.median(self.per_op_ns()) / 1e6

    def wall_p50_ms(self) -> float:
        return statistics.median(self.op_ns) / 1e6


def run_rounds(workload, tracer, seconds: float = 0.0, ops=None) -> Phase:
    """Repeat whole rounds until `seconds` have passed (at least one round).

    Only the operation itself is timed; its check runs after the clock
    stops. An expected failure counts its time and is not checked; it is
    a failed op on an op marked known_fault and an error on any other.
    """
    ops = workload.round if ops is None else ops
    phase = Phase(len(ops))
    start = time.perf_counter()
    phase.calibrate(calibration_s())
    calibrated_at = time.perf_counter()
    while True:
        for op in ops:
            if time.perf_counter() - calibrated_at >= CAL_EVERY_S:
                phase.calibrate(calibration_s())
                calibrated_at = time.perf_counter()
            t0 = time.perf_counter_ns()
            try:
                out = op.run(tracer)
            except workload.expected_failures as exc:
                phase.record(time.perf_counter_ns() - t0)
                if op.known_fault:
                    phase.failed += 1
                else:
                    phase.errors.append(f"{op.label}: {exc!r}")
                continue
            phase.record(time.perf_counter_ns() - t0)
            try:
                op.check(out)
            except CheckFailed as exc:
                phase.errors.append(f"{op.label}: {exc}")
        if time.perf_counter() - start >= seconds:
            phase.calibrate(calibration_s())
            return phase


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(name: str, spans, ops: int) -> dict:
    """Per-layer metrics of one workload's traced pass."""
    s = spans
    if name == "montecarlo":
        estimates = ("probability.estimate_pe", "probability.estimate_ph")
        samples = sum(s.work(e) for e in estimates)
        return {
            "rng.uniform_block.ns_per_draw": _ratio(s.total_ns("rng.uniform_block"), s.work("rng.uniform_block")),
            "rng.sample_stream.draws_per_op": _ratio(s.count("rng.SampleStream.next_float"), ops),
            "probability.estimate.ns_per_sample": _ratio(sum(s.total_ns(e) for e in estimates), samples),
            "probability.estimate.self_ns_per_sample": _ratio(sum(s.self_ns(e) for e in estimates), samples),
            "probability.estimate.thread_speedup": _ratio(
                s.total_ns("bench.estimate_ph.threads1"),
                s.total_ns(f"bench.estimate_ph.threads{WORKLOADS['montecarlo'].THREADS}"),
            ),
        }
    if name == "curves":
        points = s.work("locus.sample_curve")
        return {
            "locus.solve.ns_per_angle": _ratio(s.total_ns("locus._solve_arrays"), s.work("locus._solve_arrays")),
            "locus.sample_curve.ns_per_point": _ratio(s.total_ns("locus.sample_curve"), points),
            "locus.sample_curve.self_ns_per_point": _ratio(s.self_ns("locus.sample_curve"), points),
            "locus.sample_curve.points_per_op": _ratio(points, ops),
            "locus.samples_to_csv.ns_per_point": _ratio(s.total_ns("locus.samples_to_csv"), s.work("locus.samples_to_csv")),
            "svg.render_svg.ns_per_point": _ratio(s.total_ns("svg.render_svg"), s.work("svg.render_svg")),
            "serialize.fmt17.ns_per_call": _ratio(s.total_ns("serialize.fmt17"), s.count("serialize.fmt17")),
            "serialize.fmt17.calls_per_op": _ratio(s.count("serialize.fmt17"), ops),
        }
    if name == "witness":
        hyper = s.durations_ns("fourpoint.find_witness_hyper")
        calls = len(hyper)
        return {
            "fourpoint.find_witness_hyper.us_p50": statistics.median(hyper.tolist()) / 1e3 if calls else 0.0,
            "fourpoint.find_witness_hyper.us_mean": _ratio(hyper.sum(), calls) / 1e3,
            "fourpoint.find_witness_hyper.sweeps_per_call": _ratio(s.count("fourpoint._scan_locus"), calls),
            "fourpoint.find_witness_hyper.solve_r2_per_call": _ratio(s.count("locus.solve_r2"), calls),
            "fourpoint.find_witness_euclid.us_per_call": _ratio(
                s.total_ns("fourpoint.find_witness_euclid"), 1e3 * s.count("fourpoint.find_witness_euclid")
            ),
            "halfplane.axis_angle.elements_per_call": _ratio(s.work("halfplane.axis_angle"), s.count("halfplane.axis_angle")),
            "halfplane.equal_angle_residual.us_per_call": _ratio(
                s.total_ns("halfplane.equal_angle_residual"), 1e3 * s.count("halfplane.equal_angle_residual")
            ),
        }
    if name == "cli":

        def us_per_call(span_name):
            return _ratio(s.total_ns(span_name), 1e3 * s.count(span_name))

        out = {
            "probability.pe_quadrature.us_per_call": us_per_call("probability.pe_quadrature"),
            "probability.ph_quadrature.us_per_call": us_per_call("probability.ph_quadrature"),
            "probability.calibrate_ratio.ms_per_call": us_per_call("probability.calibrate_ratio") / 1e3,
            "probability.calibrate_ratio.quadratures_per_call": _ratio(
                s.child_count("probability.calibrate_ratio", "probability.ph_quadrature"),
                s.count("probability.calibrate_ratio"),
            ),
            "serialize.render_json.us_per_call": us_per_call("serialize.render_json"),
            "diophantine.verify_identity.us_per_call": us_per_call("diophantine.verify_identity"),
        }
        for sub in WORKLOADS["cli"].SUBCOMMANDS:
            walls = s.durations_ns(f"cli.{sub}")
            out[f"cli.{sub}.ms"] = statistics.median(walls.tolist()) / 1e6 if len(walls) else 0.0
        return out
    raise ValueError(f"unknown workload {name!r}")


def traced_pass(workload, seconds: float, out_path: Path):
    from spans import Spans, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        phase = run_rounds(workload, tracer, seconds)
    finally:
        tracer.restore()
    spans = Spans.concat([tracer.spans(), *tracer.children])
    spans.save(out_path)
    return phase, spans


def trace_run(name: str, workload, seed: int, seconds: float, ctx: Context) -> dict:
    untraced = run_rounds(workload, NoTracer, seconds / 2)
    stem = ctx.out_dir / f"spans-{name}"
    traced, spans = traced_pass(workload, seconds / 2, Path(f"{stem}-{name}.npz"))
    metrics = layer_metrics(name, spans, traced.attempted)
    metrics["trace.ops_ratio"] = traced.ops_per_s() / untraced.ops_per_s()
    errors = untraced.errors + traced.errors
    for other, cls in WORKLOADS.items():
        if other == name:
            continue
        os.sched_setaffinity(0, CPUS)  # undo the pin of a Cli built before
        probe = cls(seed, ctx)
        phase, spans = traced_pass(probe, PROBE_SECONDS, Path(f"{stem}-{other}.npz"))
        metrics.update(layer_metrics(other, spans, phase.attempted))
        errors += phase.errors
    os.sched_setaffinity(0, CPUS)
    metrics.update(startup_ms(ctx))
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "errors": errors,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in PER_LAYER.items()},
    }


def versions() -> dict:
    out = {"python": platform.python_version(), "nproc": os.cpu_count()}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.find_spec("apollonius")
    if spec is None or Path(spec.origin).resolve().parent != root / "src" / "apollonius":
        print(f"error: apollonius must be importable from {root / 'src'}", file=sys.stderr)
        return 1
    out_dir = root / ".bench_out"
    ctx = Context(root=root, out_dir=out_dir, scratch=out_dir / f"tmp-{os.getpid()}", env=dict(os.environ))
    ctx.scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, ctx)
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)


def _run(args, ctx: Context) -> int:
    workload = WORKLOADS[args.workload](args.seed, ctx)
    warm = run_rounds(workload, NoTracer, ops=workload.warm_up)
    print("ready", flush=True)
    # the kernel time right after set-up; run.py scales set-up by the mean
    # of this and one taken before the start
    print(f"calibration {calibration_s()!r}", flush=True)
    if args.seconds <= 0:
        return 0  # a set-up only worker; the timed one reports the same checks

    if args.trace:
        result = trace_run(args.workload, workload, args.seed, args.seconds, ctx)
    else:
        phase = run_rounds(workload, NoTracer, args.seconds)
        result = {
            "attempted": phase.attempted,
            "failed": phase.failed,
            "errors": phase.errors,
            "ops_per_s": phase.ops_per_s(),
            "op_p50_ms": phase.op_p50_ms(),
            "wall_op_p50_ms": phase.wall_p50_ms(),
            "round_size": phase.round_size,
            "rounds": phase.rounds,
            "peak_rss_mb": workload.peak_rss_kb() / 1024.0,
        }
    result["errors"] = warm.errors + result["errors"]
    result["versions"] = versions()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
