"""The four workloads: seeded inputs, one round of operations, and checks.

A workload builds all of its inputs from the run seed, then exposes a
round: a fixed list of operations that the runner repeats whole, so
every run attempts the same mix of operations in the same proportions;
and warm_up, the operations set-up runs once before the timed phase.
Each operation returns its outputs; the runner times the call and then
hands the outputs to the operation's check, which compares them with
reference.py, never with stored program output.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref
from spans import Spans


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable  # run(tracer) -> outputs
    check: Callable  # check(outputs) -> None, raises CheckFailed
    # the inputs hit a known fault of the program: the workload's
    # expected_failures raised here count as failed ops, elsewhere as errors
    known_fault: bool = False


@dataclass
class Context:
    root: Path  # checkout root; the package is imported from root/src
    out_dir: Path  # run outputs, inside the checkout
    scratch: Path  # this process's files, removed when it ends
    env: dict  # environment for child interpreters


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values in [lo, hi), one drawn in each of n equal strata, in random order.

    Stratifying the properties that set an operation's cost keeps the
    mix of cheap and dear operations nearly the same for every seed.
    """
    order = list(range(n))
    rng.shuffle(order)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in order]


# ---------------------------------------------------------------- montecarlo


class MonteCarlo:
    """estimate_pe and estimate_ph(ratio=2) at one thread, then estimate_ph sharded."""

    SAMPLES = 1 << 20
    # set-up warms up on the same calls at this size: a full op would add
    # ~0.2 s of bulk numpy work, which the calibration kernel (interpreter
    # work) tracks poorly, to the package's start-up
    WARM_UP_SAMPLES = 1 << 14
    RATIO = 2.0
    THREADS = min(2, os.cpu_count() or 1)

    def __init__(self, seed: int, ctx: Context):
        from apollonius import probability

        self.prob = probability
        self.seed = seed
        self.setup = probability.HyperProbSetup(self.RATIO)
        self.ph_reference = ref.ph_integral(self.RATIO)
        self.round = [self._op("estimates", self.SAMPLES)]
        self.warm_up = [self._op("warm-up", self.WARM_UP_SAMPLES)]
        self.expected_failures = ()

    def _op(self, label, n):
        return Op(label, lambda tracer: self._run(tracer, n), lambda out: self._check(out, n))

    def _run(self, tracer, n):
        seed = self.seed
        with tracer.span("bench.estimate_pe.threads1"):
            pe = self.prob.estimate_pe(n, seed, threads=1)
        with tracer.span("bench.estimate_ph.threads1"):
            ph1 = self.prob.estimate_ph(n, seed, self.setup, threads=1)
        with tracer.span(f"bench.estimate_ph.threads{self.THREADS}"):
            phk = self.prob.estimate_ph(n, seed, self.setup, threads=self.THREADS)
        return pe, ph1, phk

    def _check(self, out, n) -> None:
        pe, ph1, phk = out
        require(pe.n == ph1.n == n, "estimate reports the wrong sample count")
        require(
            abs(pe.mean - ref.PE_EXACT) <= 5.0 * pe.stderr,
            f"P_e estimate {pe.mean!r} is over 5 stderr from {ref.PE_EXACT!r}",
        )
        require(
            abs(ph1.mean - self.ph_reference) <= 5.0 * ph1.stderr,
            f"P_h(2) estimate {ph1.mean!r} is over 5 stderr from {self.ph_reference!r}",
        )
        require(
            (phk.mean, phk.stderr) == (ph1.mean, ph1.stderr),
            f"threads={self.THREADS} estimate differs from threads=1",
        )

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ------------------------------------------------------------------- witness

# heights whose squared cross-ratio is 2.07e-5 (a witness exists), on
# which the hyperbolic witness search raises WitnessSearchError
FAILING_CONFIG = (7561250845457.369, 26337281.46913603, 26337009.31360804, 6202.018550019891)

EUCLID_TOL = 1e-10
HYPER_TOL = 1e-8


def witness_configs(seed: int, n_log=256, n_below=640, n_above=127, min_gap=0.01):
    """Seeded four-height configs, (kind, (a, b, c, d)), in shuffled order.

    - "log": log-uniform heights, log(a/d) stratified on [0.1, 30];
    - "below": b^2 placed 1e-9 to 1e-2 (relative, stratified in log)
      below the boundary B*, so a hyperbolic witness exists;
    - "above": the same distances above B*, so none exists;
    - "fixed": FAILING_CONFIG, once per round.

    The interior log-positions are stratified too; a draw that breaks
    the ordering or the gap is redrawn freely. Neighbouring heights differ
    by at least min_gap in log. Closer middle heights, or distances to B*
    below 1e-9, make the witness search fail on some seeds and not
    others, so they are kept out of the seeded part.
    """
    rng = random.Random(seed)
    configs = []
    for spread, u, v in zip(*(strata(rng, n_log, lo, hi) for lo, hi in ((0.1, 30.0), (0.0, 1.0), (0.0, 1.0)))):
        while True:
            log_d = rng.uniform(-10.0, 10.0)
            hi, lo = sorted((u, v), reverse=True)
            logs = (log_d + spread, log_d + spread * hi, log_d + spread * lo, log_d)
            if min(logs[i] - logs[i + 1] for i in range(3)) >= min_gap:
                break
            u, v = rng.random(), rng.random()
        configs.append(("log", tuple(math.exp(x) for x in logs)))
    for kind, n, sign in (("below", n_below, -1.0), ("above", n_above, 1.0)):
        draws = zip(strata(rng, n, 0.1, 30.0), strata(rng, n, -9.0, -2.0), strata(rng, n, 0.0, 1.0))
        for spread, exponent, position in draws:
            while True:
                log_d = rng.uniform(-10.0, 10.0)
                a = math.exp(log_d + spread)
                c = math.exp(log_d + spread * position)
                d = math.exp(log_d)
                b = math.sqrt(ref.boundary_b2(a, c, d) * (1.0 + sign * 10.0**exponent))
                if a > b > c > d and min(math.log(a / b), math.log(b / c), math.log(c / d)) >= min_gap:
                    break
                position = rng.random()
            configs.append((kind, (a, b, c, d)))
    configs.append(("fixed", FAILING_CONFIG))
    rng.shuffle(configs)
    return configs


class Witness:
    """Existence test and witness in both geometries, one config per operation."""

    def __init__(self, seed: int, ctx: Context):
        from apollonius import fourpoint

        self.fp = fourpoint
        self.round = [
            Op(kind, self._runner(heights), self._checker(heights), known_fault=kind == "fixed")
            for kind, heights in witness_configs(seed)
        ]
        self.warm_up = self.round[:16]
        self.expected_failures = (fourpoint.WitnessSearchError,)

    def _runner(self, heights):
        fp = self.fp

        def run(tracer):
            ce = fp.FourConfig(*heights, fp.Geometry.EUCLIDEAN)
            exists_e = fp.exists_euclid(ce)
            witness_e = fp.find_witness_euclid(ce)
            ch = fp.FourConfig(*heights, fp.Geometry.HYPERBOLIC)
            exists_h = fp.exists_hyper(ch)
            witness_h = fp.find_witness_hyper(ch)
            return exists_e, witness_e, exists_h, witness_h

        return run

    @staticmethod
    def _checker(heights):
        exact_e = ref.cross_ratio_exact(*heights, squared=False) < 3
        exact_h = ref.cross_ratio_exact(*heights, squared=True) < 3

        def check(out):
            exists_e, witness_e, exists_h, witness_h = out
            for geometry, exists, exact, witness, tol in (
                ("Euclidean", exists_e, exact_e, witness_e, EUCLID_TOL),
                ("hyperbolic", exists_h, exact_h, witness_h, HYPER_TOL),
            ):
                require(exists == exact, f"{geometry} existence {exists} disagrees with the exact cross-ratio for {heights}")
                if witness is None:
                    require(not exact, f"no {geometry} witness returned although one exists for {heights}")
                    continue
                require(exact, f"{geometry} witness returned although none exists for {heights}")
                res = ref.witness_residuals(witness.x, witness.y, heights, geometry == "hyperbolic")
                worst = max(abs(res[0]), abs(res[1]))
                require(
                    witness.x != 0.0 and (witness.y > 0.0 or geometry == "Euclidean") and worst <= tol,
                    f"{geometry} witness ({witness.x!r}, {witness.y!r}) for {heights} has residual {worst:.3e} > {tol}",
                )

        return check

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -------------------------------------------------------------------- curves


def gallery_triples(seed: int, galleries=8):
    """galleries lists of (regime, (a, b, c)), one triple per regime each.

    log(a/c) and the position of b inside each open regime's interval are
    stratified across the galleries, because they set how much of the
    angle grid carries the ovals' points.
    """
    rng = random.Random(seed)
    ratios = strata(rng, galleries, 0.5, 3.0)
    fractions = [strata(rng, galleries, 0.1, 0.9) for _ in range(4)]
    out = []
    for k in range(galleries):
        c = math.exp(rng.uniform(-3.0, 3.0))
        a = c * math.exp(ratios[k])
        q = math.sqrt(0.5 * (a * a + c * c))
        g = math.sqrt(a * c)
        h = a * c * math.sqrt(2.0 / (a * a + c * c))
        f = [fr[k] for fr in fractions]
        bs = (q + (a - q) * f[0], q, g + (q - g) * f[1], g, h + (g - h) * f[2], h, c + (h - c) * f[3])
        out.append(list(zip(ref.REGIMES, ((a, b, c) for b in bs))))
    return out


def check_csv(text: str, triple, expected_rows: int) -> None:
    """Header, row count, exact float round trip and the quartic at every point."""
    lines = text.splitlines()
    require(lines and lines[0] == "theta,r,x,y", "CSV header is not theta,r,x,y")
    rows = [line.split(",") for line in lines[1:]]
    require(len(rows) == expected_rows, f"CSV has {len(rows)} rows, expected {expected_rows}")
    xs, ys = [], []
    for row in rows:
        require(len(row) == 4, f"CSV row {row} does not have 4 fields")
        for field in row:
            require(f"{float(field):.17g}" == field, f"CSV float {field!r} does not round-trip")
        xs.append(float(row[2]))
        ys.append(float(row[3]))
    if rows:
        worst = float(ref.quartic_relative_residual(*triple, xs, ys).max())
        require(worst <= 1e-9, f"curve point off the quartic of {triple}: relative residual {worst:.3e}")


def check_svg(text: str) -> None:
    root = ET.fromstring(text)
    require(root.tag == "{http://www.w3.org/2000/svg}svg", f"SVG root is {root.tag}")
    require(
        root.find(".//{http://www.w3.org/2000/svg}polyline") is not None,
        "SVG holds no polyline",
    )


class Curves:
    """A gallery round: sample, render and serialise one curve per regime."""

    GALLERIES = 8
    ANGLES = 1024

    def __init__(self, seed: int, ctx: Context):
        from apollonius import locus, svg

        self.locus = locus
        self.svg = svg
        self.round = [
            Op(f"gallery{k}", self._runner(triples), self._checker(triples))
            for k, triples in enumerate(gallery_triples(seed, self.GALLERIES))
        ]
        self.warm_up = self.round[:1]
        self.expected_failures = ()

    def _runner(self, triples):
        locus, svg, n = self.locus, self.svg, self.ANGLES

        def run(tracer):
            out = []
            for _, (a, b, c) in triples:
                samples = locus.sample_curve(locus.TripleConfig(a, b, c), n)
                out.append((len(samples), svg.render_svg(samples), locus.samples_to_csv(samples)))
            return out

        return run

    @staticmethod
    def _checker(triples):
        def check(out):
            for (regime, triple), (count, svg_text, csv_text) in zip(triples, out):
                require(count > 0, f"{regime} curve of {triple} has no points")
                check_csv(csv_text, triple, count)
                check_svg(svg_text)

        return check

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------- cli

CALIBRATION_TARGET = 0.4201514924


class Cli:
    """One fresh `python -m apollonius.cli` per operation, cycling the subcommands."""

    SUBCOMMANDS = ("classify", "sample", "euclid-locus", "fourpoint", "prob-pe", "prob-calibrate", "dioph")

    def __init__(self, seed: int, ctx: Context):
        self.ctx = ctx
        # children inherit this: they run on the CPU the calibration kernel
        # measures, not on whichever the scheduler picks; a traced run
        # restores the worker's CPUs before it builds any other workload
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        rng = random.Random(seed)
        self.dir = d = ctx.scratch

        def ints():
            c = rng.randint(1, 300)
            b = c + rng.randint(1, 300)
            return b + rng.randint(1, 300), b, c

        classify = ints()
        euclid = ints()
        _, curve = rng.choice(gallery_triples(seed, 1)[0])
        below = [h for kind, h in witness_configs(seed, 0, 8, 0) if kind == "below"][0]
        family = rng.choice(("quadratic", "geometric", "harmonic"))
        prob_seed = rng.randrange(1 << 31)
        self.round = [
            self._op("classify", ["classify", *_triple_args(classify), "-o", d / "classify.json"],
                     lambda: self._check_classify(classify)),
            self._op("sample", ["sample", *_triple_args(curve), "-n", "64", "--svg", d / "curve.svg", "-o", d / "curve.csv"],
                     lambda: self._check_sample(curve)),
            self._op("euclid-locus", ["euclid-locus", *_triple_args(euclid), "-o", d / "euclid.json"],
                     lambda: self._check_euclid(euclid)),
            self._op("fourpoint", ["fourpoint", "--geometry", "hyper", *_triple_args(below), "-d", repr(below[3]),
                                   "--witness", "-o", d / "fourpoint.json"],
                     lambda: self._check_fourpoint(below)),
            self._op("prob-pe", ["prob", "pe", "-n", "20000", "--seed", str(prob_seed), "-o", d / "pe.json"],
                     self._check_pe),
            self._op("prob-calibrate", ["prob", "ph", "--calibrate", repr(CALIBRATION_TARGET), "-o", d / "calibrate.json"],
                     self._check_calibrate),
            self._op("dioph", ["dioph", "--family", family, "--m-range=-4:4", "--n-range=-4:4", "-o", d / "dioph.csv"],
                     lambda: self._check_dioph(family)),
        ]
        self.warm_up = self.round[:1]
        self.expected_failures = ()

    def _op(self, label, argv, check_files):
        argv = [str(v) for v in argv]
        outputs = [Path(v) for v in argv if v.startswith(str(self.dir))]

        def run(tracer):
            for path in outputs:
                path.unlink(missing_ok=True)
            if tracer.active:
                spans_path = self.dir / f"spans-{label}.npz"
                cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans_path), *argv]
            else:
                cmd = [sys.executable, "-m", "apollonius.cli", *argv]
            with tracer.span(f"cli.{label}"):
                proc = subprocess.run(cmd, env=self.ctx.env, cwd=self.ctx.root, capture_output=True, text=True)
            if tracer.active and spans_path.exists():
                tracer.children.append(Spans.load(spans_path))
            return proc

        def check(proc):
            require(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            check_files()

        return Op(label, run, check)

    def _json(self, name):
        return json.loads((self.dir / name).read_text(encoding="utf-8"))

    def _check_classify(self, triple):
        record = self._json("classify.json")
        require(record["class"] == ref.regime_exact(*triple), f"classify {triple} gave {record['class']}")
        require((record["a"], record["b"], record["c"]) == triple, "classify echoes other heights")

    def _check_sample(self, triple):
        text = (self.dir / "curve.csv").read_text(encoding="utf-8")
        check_csv(text, triple, len(text.splitlines()) - 1)
        check_svg((self.dir / "curve.svg").read_text(encoding="utf-8"))

    def _check_euclid(self, triple):
        record = self._json("euclid.json")
        if record["kind"] == "circle":
            x = record["radius"] * math.sqrt(0.5)
            y = record["center_y"] + x
        else:
            require(record["kind"] == "line", f"unknown Euclidean locus kind {record['kind']!r}")
            x, y = 1.0, record["height"]
        a, b, c = triple
        residual = ref.euclid_angle(x, y, a, b) - ref.euclid_angle(x, y, b, c)
        require(abs(residual) <= 1e-9, f"Euclidean locus of {triple} misses equal angles by {residual:.3e}")

    def _check_fourpoint(self, heights):
        record = self._json("fourpoint.json")
        exact = ref.cross_ratio_exact(*heights, squared=True) < 3
        require(record["exists"] == exact, f"fourpoint existence {record['exists']} for {heights}")
        witness = record["witness"]
        require(witness is not None, f"fourpoint returned no witness for {heights}")
        res = ref.witness_residuals(witness["x"], witness["y"], heights, True)
        require(max(map(abs, res)) <= HYPER_TOL, f"fourpoint witness residual {res} for {heights}")

    def _check_pe(self):
        record = self._json("pe.json")
        n, mean = record["n"], record["mean"]
        stderr = math.sqrt(mean * (1.0 - mean) / n)
        require(abs(mean - ref.PE_EXACT) <= 5.0 * stderr, f"prob pe mean {mean!r} is over 5 stderr off")
        require(abs(record["closed_form"] - ref.PE_EXACT) <= 1e-15, "prob pe closed form is wrong")
        require(abs(record["quadrature"] - ref.PE_EXACT) <= 1e-9, "prob pe quadrature is off")

    def _check_calibrate(self):
        ratio = self._json("calibrate.json")["ratio"]
        require(ratio is not None, "calibration found no ratio")
        value = ref.ph_integral(ratio)
        require(
            abs(value - CALIBRATION_TARGET) <= 1e-6,
            f"calibrated ratio {ratio!r} gives P_h {value!r}, target {CALIBRATION_TARGET}",
        )

    def _check_dioph(self, family):
        lines = (self.dir / "dioph.csv").read_text(encoding="utf-8").splitlines()
        require(lines[0] == "m,n,a,b,c,kind,verified", "dioph header differs")
        require(len(lines) > 1, f"dioph {family} produced no rows")
        for line in lines[1:]:
            m, n, a, b, c, kind, verified = line.split(",")
            require(verified == "true", f"dioph row {line} is not verified")
            require(ref.family_identity(kind, int(a), int(b), int(c)), f"dioph row {line} breaks its identity")

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def startup_ms(ctx: Context, repeats=3) -> dict:
    """Interpreter floor, in-process import time and scipy's share of it, in ms."""
    python = sys.executable
    wall = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=ctx.env, check=True)
        wall.append(time.perf_counter() - t)
    probe = "import time; t = time.perf_counter(); import apollonius.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(repeats):
        proc = subprocess.run([python, "-c", probe], env=ctx.env, cwd=ctx.root,
                              check=True, capture_output=True, text=True)
        imports.append(float(proc.stdout))
    scipy = []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import apollonius.cli"],
                              env=ctx.env, cwd=ctx.root, check=True, capture_output=True, text=True)
        scipy.append(scipy_import_us(proc.stderr) / 1e3)
    return {
        "cli.interpreter_ms": 1e3 * statistics.median(wall),
        "cli.import_ms": 1e3 * statistics.median(imports),
        "cli.import_scipy_ms": statistics.median(scipy),
    }


def _triple_args(heights):
    return ["-a", repr(heights[0]), "-b", repr(heights[1]), "-c", repr(heights[2])]


def scipy_import_us(importtime_log: str) -> float:
    """Cumulative microseconds of the scipy modules imported from outside scipy.

    -X importtime lists modules children first, nested by two spaces per
    level; a module's parent is the next line at a shallower level.
    """
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        name = name.rstrip()[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    total = 0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):  # parents now precede children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors else ""
        if name.startswith("scipy") and not parent.startswith("scipy"):
            total += cumulative
        ancestors.append((depth, name))
    return float(total)


WORKLOADS = {"montecarlo": MonteCarlo, "witness": Witness, "curves": Curves, "cli": Cli}
