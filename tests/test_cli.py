"""End-to-end CLI tests against committed golden files."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from apollonius import locus
from apollonius.cli import run
from apollonius.halfplane import AxisPoint, HPoint, equal_angle_residual
from apollonius.locus import Curve, TripleConfig, sample_curve
from apollonius.probability import HyperProbSetup, ph_quadrature
from apollonius.serialize import render_json
from apollonius.svg import render_svg

from _exact_residuals import exact_residuals
from _regen_goldens import GOLDEN, GOLDEN_CASES, SVG_CASES


@pytest.mark.parametrize("golden_name,argv", GOLDEN_CASES.items(), ids=list(GOLDEN_CASES))
def test_golden_output(golden_name, argv, tmp_path):
    out = tmp_path / golden_name
    assert run(argv + ["-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden_name).read_bytes()


@pytest.mark.parametrize("golden_name,argv", SVG_CASES.items(), ids=["circle", "hyperbola", "lemniscate"])
def test_golden_svg(golden_name, argv, tmp_path):
    svg = tmp_path / golden_name
    csv = tmp_path / "out.csv"
    assert run(argv + ["--svg", str(svg), "-o", str(csv)]) == 0
    assert svg.read_bytes() == (GOLDEN / golden_name).read_bytes()


class TestValidation:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["classify", "-a", "2", "-b", "2", "-c", "1"], "-a"),
            (["classify", "-a", "4", "-b", "1", "-c", "1"], "-b"),
            (["classify", "-a", "4", "-b", "2", "-c", "0"], "-c"),
            (["sample", "-a", "4", "-b", "2", "-c", "1", "-n", "1"], "-n"),
            (["prob", "ph", "--ratio", "1.0", "-n", "10"], "--ratio"),
            (["prob", "pe", "-n", "0"], "-n"),
            (
                ["fourpoint", "--geometry", "hyper", "-a", "4", "-b", "2", "-c", "1", "-d", "0"],
                "-d",
            ),
            # the generator reduces seeds modulo 2^64, so these ran another seed's stream
            (["prob", "pe", "-n", "10", "--seed", "-1"], "seed must lie in [0, 2^64), got -1"),
            (["prob", "pe", "-n", "10", "--seed", str(1 << 64)], f"seed must lie in [0, 2^64), got {1 << 64}"),
            (
                ["fourpoint", "--geometry", "euclid", "-a", "1", "-b", "2", "-c", "0.5", "-d", "0"],
                "-a must exceed -b",
            ),
            (
                ["fourpoint", "--geometry", "euclid", "-a", "4", "-b", "2", "-c", "1", "-d", "1"],
                "-c must exceed -d, got -c 1.0 <= -d 1.0",
            ),
            (["prob", "pe", "-n", "10", "--threads", "0"], "--threads"),
            (["prob", "pe", "-n", "10", "--calibrate", "0.4"], "--calibrate applies to prob ph only"),
            (["dioph", "--family", "geometric", "--m-range", "1"], "--m-range expects LO:HI"),
            (["dioph", "--family", "geometric", "--m-range", "3:1"], "--m-range range is empty"),
            (["euclid-locus", "-a", "1e300", "-b", "1e-30", "-c", "1e-300"], "span more than float64"),
            (["classify", "-a", "35", "-b", "25", "-c", "5", "-o", "/nonexistent/x.json"], "-o '/nonexistent/x.json'"),
            (
                ["sample", "-a", "4", "-b", "2", "-c", "1", "-n", "5", "--svg", "/nonexistent/c.svg"],
                "--svg '/nonexistent/c.svg'",
            ),
        ],
    )
    def test_exit_2_and_flag_named(self, argv, flag, capsys):
        assert run(argv) == 2
        assert flag in capsys.readouterr().err

    def test_ratio_one_ulp_above_one_estimates_pe(self, tmp_path):
        # the kernel forms no interior height, so the first double above 1
        # samples the Euclidean limit: each indicator, and so the mean, is P_e's
        ph, pe = tmp_path / "ph.json", tmp_path / "pe.json"
        assert run(["prob", "ph", "--ratio", "1.0000000000000002", "-n", "4096", "--seed", "7", "-o", str(ph)]) == 0
        assert run(["prob", "pe", "-n", "4096", "--seed", "7", "-o", str(pe)]) == 0
        assert json.loads(ph.read_text())["mean"] == json.loads(pe.read_text())["mean"]

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("bad", ["-o", "--svg"])
    def test_exit_2_leaves_every_file_as_it_was(self, bad, existing, tmp_path, capsys):
        # the other flag's path can be opened; a bad -o once left the SVG written
        good = {"-o": "--svg", "--svg": "-o"}[bad]
        paths = {bad: tmp_path / "missing" / "out", good: tmp_path / "out"}
        if existing:
            paths[good].write_bytes(b"earlier run\n")
        argv = ["sample", "-a", "4", "-b", "2", "-c", "1", "-n", "5", "-o", str(paths["-o"]), "--svg", str(paths["--svg"])]
        assert run(argv) == 2
        assert f"{bad} {str(paths[bad])!r} cannot be opened for writing" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == (["out"] if existing else [])
        if existing:
            assert paths[good].read_bytes() == b"earlier run\n"

    def test_unknown_arguments_exit_2(self):
        assert run(["classify", "-a", "4", "-b", "2"]) == 2

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "pe.json"
        assert run(["prob", "pe", "-n", "100000", "--seed", str((1 << 64) - 1), "-o", str(out)]) == 0
        record = json.loads(out.read_text())
        assert (record["seed"], record["mean"]) == ((1 << 64) - 1, 0.43435)

    def test_no_straddle_calibration_exits_3(self, tmp_path, capsys):
        out = tmp_path / "cal.json"
        assert run(["prob", "ph", "--calibrate", "1.5", "-n", "1", "-o", str(out)]) == 3
        assert '"ratio": null' in out.read_text()
        ends = [ph_quadrature(HyperProbSetup(r)) for r in (1.01, 1000.0)]
        assert capsys.readouterr().err == (
            "calibration target 1.5 not bracketed on (1.01, 1000.0): "
            f"P_h(1.01) = {ends[0]!r}, P_h(1000.0) = {ends[1]!r}\n"
        )

    @pytest.mark.parametrize("with_svg", [False, True], ids=["csv", "svg"])
    def test_empty_sweep_exits_3_and_writes_nothing(self, with_svg, tmp_path, capsys):
        # an AboveQuadratic oval narrower than the grid spacing around pi/2
        triple = ["-a", "289.5518751638477", "-b", "289.1118833932628", "-c", "63.65994921183639"]
        csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
        argv = ["sample", *triple, "-n", "1024", "-o", str(csv)]
        if with_svg:
            argv += ["--svg", str(svg)]
        assert run(argv) == 3
        assert not csv.exists() and not svg.exists()
        err = capsys.readouterr().err
        assert err.startswith("search failure: ")
        assert "(289.5518751638477, 289.1118833932628, 63.65994921183639)" in err
        assert "1024" in err and "odd -n" in err
        # an odd grid samples theta = pi/2, which lies on the oval
        assert run(["sample", *triple, "-n", "1023", "-o", str(csv)]) == 0
        assert len(csv.read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "heights", [("1e39", "1e38", "1e37"), ("4e-60", "2e-60", "1e-60")], ids=["large", "small"]
    )
    def test_sample_at_extreme_scales(self, heights, tmp_path):
        # the quartic is solved on the heights divided by a power of two, so
        # B^2 - 4AC does not overflow at 1e39, and gamma does not underflow
        # to 0 at 4e-60, which would leave no root and a false search failure
        out = tmp_path / "curve.csv"
        a, b, c = map(float, heights)
        assert run(["sample", "-a", heights[0], "-b", heights[1], "-c", heights[2], "-n", "9", "-o", str(out)]) == 0
        rows = [tuple(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 9
        assert (math.pi / 2, b) in {(theta, r) for theta, r, _, _ in rows}
        for _, _, x, y in rows:
            residual = equal_angle_residual(HPoint(x, y), AxisPoint(a), AxisPoint(b), AxisPoint(c))
            assert abs(residual.value) <= 1e-12

    def test_sample_below_2_to_the_minus_1024(self, tmp_path):
        # the unit copy scales each height with its own ldexp, since the
        # common factor 2^1029 lies past the float range: this exited 1
        out = tmp_path / "curve.csv"
        assert run(["sample", "-a", "1e-310", "-b", "5e-311", "-c", "1e-311", "-n", "5", "-o", str(out)]) == 0
        rows = [tuple(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
        assert [theta for theta, _, _, _ in rows] == locus.theta_grid(5).tolist()
        assert all(y > 0.0 for _, _, _, y in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sample_radius_past_the_float_range_exits_2(self, tmp_path, capsys):
        # numpy's ldexp overflow warning came first, then "curve points must
        # have finite x and y"
        out = tmp_path / "curve.csv"
        assert run(["sample", "-a", "1.7e308", "-b", "1.2e308", "-c", "1e307", "-n", "65", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: radius r of TripleConfig(a=1.7e+308, b=1.2e+308, c=1e+307) at theta ")
        assert err.endswith(" * 2**1024, lies past the float range\n")
        assert not out.exists()

    def test_sample_svg_frame_past_the_float_range_exits_2(self, tmp_path, capsys):
        # this exited 0 with viewBox="-inf ... inf ..." and stroke-width="inf"
        csv, svg = tmp_path / "curve.csv", tmp_path / "curve.svg"
        argv = ["sample", "-a", "1.5e308", "-b", "1e308", "-c", "5e307", "-n", "65", "--svg", str(svg), "-o", str(csv)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the SVG frame of the curve does not fit in float64: x from -1.6")
        assert err.endswith(", padded by 5%, span inf by 1.1000000000000002e+308\n")
        assert not csv.exists() and not svg.exists()

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_calibration_target_exits_2_and_writes_nothing(self, target, tmp_path, capsys):
        out = tmp_path / "cal.json"
        assert run(["prob", "ph", f"--calibrate={target}", "-n", "1", "-o", str(out)]) == 2
        assert "--calibrate must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "heights,nulls",
        [
            (("6e51", "4e51", "2e51"), ["gamma"]),
            (("1e200", "1e199", "1e198"), ["alpha", "beta", "gamma"]),
        ],
    )
    def test_overflowing_coefficients_are_null_beside_the_class(self, heights, nulls, tmp_path):
        # these exited 2 on the overflow, although the class is decided
        # exactly at every scale
        out = tmp_path / "classify.json"
        a, b, c = heights
        assert run(["classify", "-a", a, "-b", b, "-c", c, "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [name for name in ("alpha", "beta", "gamma") if report[name] is None] == nulls
        assert all(math.isfinite(report[name]) for name in ("alpha", "beta", "gamma") if name not in nulls)
        assert report["class"] == "BetweenGeometricAndQuadratic"

    @pytest.mark.parametrize(
        "heights,regime",
        [
            # the float means read BetweenHarmonicAndGeometric here
            (("4e-100", "1.1e-100", "1e-100"), "BelowHarmonic"),
            # a^2 + c^2 underflowed to 0: "internal error: float division by zero"
            (("4e-200", "2e-200", "1e-200"), "GeometricCircle"),
        ],
    )
    def test_classify_far_below_one(self, heights, regime, capsys):
        a, b, c = heights
        assert run(["classify", "-a", a, "-b", b, "-c", c]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == regime

    def test_non_finite_report_value_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        # render_json refuses nan and infinities, so a report that carried one
        # past every check still writes no file
        monkeypatch.delenv("APOLLONIUS_DEBUG", raising=False)
        # classify imports its report from locus when it runs
        monkeypatch.setattr(locus, "classification_report", lambda cfg, eps: {"alpha": math.nan})
        out = tmp_path / "classify.json"
        assert run(["classify", "-a", "4", "-b", "2", "-c", "1", "-o", str(out)]) == 1
        assert "non-finite float nan" in capsys.readouterr().err
        assert not out.exists()
        for value in (math.inf, -math.inf, np.float64("nan")):
            with pytest.raises(ValueError, match="non-finite"):
                render_json({"x": [1.0, value]})
        assert render_json({"x": [10**400, 1.5]}) == '{"x": [' + str(10**400) + ', 1.5]}\n'

    def test_debug_mode_reraises_internal_error(self, monkeypatch):
        monkeypatch.setenv("APOLLONIUS_DEBUG", "1")
        monkeypatch.setattr(locus, "classification_report", lambda cfg, eps: {"alpha": math.nan})
        with pytest.raises(ValueError, match="non-finite"):
            run(["classify", "-a", "4", "-b", "2", "-c", "1"])
        # validation errors, an unwritable output among them, keep their exit code in debug mode
        assert run(["classify", "-a", "4", "-b", "2", "-c", "-1"]) == 2
        assert run(["euclid-locus", "-a", "4", "-b", "2", "-c", "1", "-o", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize("flags", [["-n", "0"], ["--threads", "0"], ["--ratio", "1"]], ids=lambda f: f[0])
    def test_calibration_ignores_the_monte_carlo_flags(self, flags, tmp_path):
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        assert run(["prob", "ph", "--calibrate", "0.4201514924", "-o", str(plain)]) == 0
        assert run(["prob", "ph", "--calibrate", "0.4201514924", *flags, "-o", str(flagged)]) == 0
        assert flagged.read_bytes() == plain.read_bytes()

    def test_negative_exponent_form_takes_the_equals_sign(self, capsys):
        argv = ["fourpoint", "--geometry", "euclid", "-a", "1", "-b", "0.5", "-c", "0.25"]
        assert run([*argv, "-d=-1e-5"]) == 0
        out = capsys.readouterr().out
        assert '"d": -1.0000000000000001e-05' in out
        assert run([*argv, "-d", "-0.00001"]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize(
        "argv,flag,value",
        [
            (["fourpoint", "--geometry", "euclid", "-a", "1", "-b", "0.5", "-c", "0.25"], "-d", "-1e-3"),
            (["euclid-locus", "-a", "1", "-b", "0.5"], "-c", "-1e-3"),
            (["classify", "-a", "35", "-b", "25", "-c", "5"], "--eps", "-1E-12"),
            (["prob", "ph"], "--calibrate", "-1e-3"),
            (["prob", "ph"], "--cal", "-1e-3"),
        ],
        ids=["fourpoint", "euclid-locus", "classify", "calibrate", "calibrate-prefix"],
    )
    def test_negative_exponent_form_as_its_own_token(self, argv, flag, value, capsys):
        # argparse on its own reads a separate -1e-3 as an option and exits 2
        # with "argument -d: expected one argument"
        joined = run([*argv, f"{flag}={value}"]), capsys.readouterr()
        assert run([*argv, flag, value]) == joined[0]
        assert capsys.readouterr() == joined[1]
        assert "expected one argument" not in joined[1].err

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    def test_negative_non_finite_as_its_own_token_exits_2(self, value, capsys):
        argv = ["fourpoint", "--geometry", "euclid", "-a", "1", "-b", "0.5", "-c", "0.25", "-d", value]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: -d must be finite\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["classify", "-a", "4", "-b", "2", "-c", "-o", "out.json"], "argument -c: expected one argument"),
            (["prob", "ph", "--", "--cal", "-1e-3"], "unrecognized arguments: --cal -1e-3"),
        ],
        ids=["option", "after-separator"],
    )
    def test_tokens_other_than_a_flags_negative_value_stay_apart(self, argv, message, capsys):
        assert run(argv) == 2
        assert message in capsys.readouterr().err


class TestDeterminism:
    def test_monte_carlo_reruns_bit_identical(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["prob", "pe", "-n", "50000", "--seed", "3"]
        assert run(argv + ["-o", str(first)]) == 0
        assert run(argv + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_thread_count_invisible_in_output(self, tmp_path):
        single, pooled = tmp_path / "t1.json", tmp_path / "t8.json"
        argv = ["prob", "ph", "-n", "50000", "--seed", "3", "--ratio", "2"]
        assert run(argv + ["--threads", "1", "-o", str(single)]) == 0
        assert run(argv + ["--threads", "8", "-o", str(pooled)]) == 0
        assert single.read_bytes() == pooled.read_bytes()

    def test_svg_reruns_bit_identical(self):
        curve = sample_curve(TripleConfig(35, 30, 5), 48)
        assert render_svg(curve) == render_svg(curve)


def _rows(curve, index):
    """The curve made of the given rows, in the given order."""
    return Curve(*(column[index] for column in (curve.theta, curve.r, curve.x, curve.y, curve.rank)))


class TestSvgStructure:
    def test_circle_is_single_polyline(self):
        curve = sample_curve(TripleConfig(4, 2, 1), 64)
        svg = render_svg(curve)
        assert svg.count("<polyline") == 1
        assert "<line" in svg  # boundary axis

    def test_oval_regime_has_two_branches(self):
        curve = sample_curve(TripleConfig(35, 30, 5), 64)
        svg = render_svg(curve)
        assert svg.count("<polyline") == 2

    def test_empty_samples_rejected(self):
        from apollonius.halfplane import GeometryError

        curve = sample_curve(TripleConfig(4, 2, 1), 64)
        with pytest.raises(GeometryError):
            render_svg(_rows(curve, np.arange(0)))

    def test_jump_gap_splits_polyline(self):
        # synthetic branch with a hole: the two arcs must not be bridged
        curve = sample_curve(TripleConfig(4, 2, 1), 64)
        gappy = _rows(curve, np.r_[0:20, 44:64])
        svg = render_svg(gappy)
        assert svg.count("<polyline") == 2

    def test_viewbox_includes_axis_and_margin(self):
        curve = sample_curve(TripleConfig(4, 2, 1), 64)
        svg = render_svg(curve)
        viewbox = svg.split('viewBox="')[1].split('"')[0]
        x_lo, neg_y_hi, width, height = map(float, viewbox.split())
        ys = curve.y.tolist()
        xs = curve.x.tolist()
        assert -neg_y_hi >= max(ys)  # top edge above the data
        assert -neg_y_hi - height <= 0.0  # bottom edge at or below the axis
        assert x_lo <= min(xs) and x_lo + width >= max(xs)
        assert width >= (max(xs) - min(xs)) * 1.05


def test_fourpoint_without_witness_flag_skips_search(tmp_path):
    out = tmp_path / "four.json"
    argv = ["fourpoint", "--geometry", "hyper", "-a", "10", "-b", "6", "-c", "5", "-d", "1"]
    assert run(argv + ["-o", str(out)]) == 0
    text = out.read_text()
    assert '"witness": null' in text
    assert '"exists": true' in text


def test_fourpoint_witness_search_failure_exits_3(capsys):
    # b, c and d within 1e-10: no float point near the witness meets the oracle
    argv = ["fourpoint", "--geometry", "hyper", "-a", "1.2840254166877414", "-b", "1.000000000095",
            "-c", "1.000000000025", "-d", "1.0", "--witness"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "search failure: existence holds (cross-ratio 2.8 < 3) but the mapped witness has residuals (1.308e-07, 9.012e-08)\n"
    )


SPANNING_ARGS = ["-a", "1e300", "-b", "3e-300", "-c", "2e-300", "-d", "1e-300"]


@pytest.mark.parametrize("geometry", ["euclid", "hyper"])
def test_heights_spanning_past_the_unit_copy_are_decided(geometry, capsys):
    # ordered heights that collapse in a copy divided by the largest: every
    # variant exited 2 with
    # "heights must satisfy a > b > c > d, got (0.7466108948025751, 0.0, 0.0, 0.0)"
    argv = ["fourpoint", "--geometry", geometry, *SPANNING_ARGS]
    assert run(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["exists"] is True and math.isfinite(record["cross_ratio"])


@pytest.mark.parametrize(
    "geometry, heights",
    [
        # the squared outer gap overflows: it enters as the ratio 0
        ("hyper", ("1e159", "3", "2", "1")),
        ("hyper", ("1e200", "3", "2", "1")),
        ("hyper", ("1e300", "3", "2", "1")),
        # the squares of b, c and d underflow to 0 in a copy scaled by a
        ("hyper", ("1", "2.5e-300", "2e-300", "1e-300")),
        # b, c and d collapse in a copy scaled by a, or a, b and c by -d
        ("euclid", tuple(SPANNING_ARGS[1::2])),
        ("euclid", ("3e-300", "2e-300", "1e-300", "-1e300")),
        # the exact cross-ratio is 3 - 1e-323: the float gaps are equal, and
        # the divisor is the margin itself, so the witness lies near 6e161
        ("euclid", ("3", "2", "1", "-5e-324")),
    ],
    ids=lambda value: value if isinstance(value, str) else ",".join(value),
)
def test_witness_of_the_middle_pair_copy_exits_0(geometry, heights, capsys):
    # each of these exited 3 with "existence holds" and a failure of the
    # copy scaled by the largest height
    argv = ["fourpoint", "--geometry", geometry]
    for flag, value in zip(("-a", "-b", "-c", "-d"), heights):
        argv += [flag, value]
    assert run(argv + ["--witness"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["exists"] is True
    witness = record["witness"]
    flat = geometry == "euclid"
    exact = exact_residuals(witness["x"], witness["y"], [float(h) for h in heights], flat=flat)
    assert max(map(abs, exact)) <= (1e-10 if flat else 1e-8)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "-a", "4", "-b", "2", "-c", "1", "-n", "1000001"], "-n must lie in [2, 1000000], got 1000001"),
        (
            ["dioph", "--family", "quadratic", "--m-range", "0:0", "--n-range", "0:1000000"],
            "--m-range and --n-range give 1000001 pairs, more than 1000000",
        ),
    ],
    ids=["sample", "dioph"],
)
def test_size_past_its_cap_exits_2_before_allocating(argv, message, tmp_path, capsys):
    # sample -n 10**9 asked numpy for 8 GB arrays, and dioph holds every row
    # in memory: one past each cap exits 2 naming the flag, having
    # allocated a few kB, not the ~160 MB that the rows at the cap take
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert run(argv + ["-o", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == f"error: {message}\n"
    assert peak < 4 << 20 and not out.exists()


# the float cross-ratio reads below 3, the exact one above it
FLOAT_YES_EXACT_NO = ["fourpoint", "--geometry", "euclid", "-a", "0.75", "-b", "0.24999999999999806",
                      "-c", "-0.25000000000000194", "-d", "-0.75", "--witness"]


def test_existence_is_decided_exactly(capsys):
    # this exited 3 with "existence holds (cross-ratio 3 < 3)"
    assert run(FLOAT_YES_EXACT_NO) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["cross_ratio"], record["exists"], record["witness"]) == (3, False, None)


def test_unresolvable_euclid_witness_exits_3(capsys):
    # b - c = 1e-10: existence holds, but no float point meets the residual bound
    argv = ["fourpoint", "--geometry", "euclid", "-a", "20", "-b", "10.0000000001", "-c", "10", "-d", "0"]
    assert run(argv + ["--witness"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("search failure: existence holds (cross-ratio 2e-11 < 3)")


@pytest.mark.parametrize(
    "geometry, heights",
    [
        ("euclid", ("4e-320", "2e-320", "1e-320", "0")),
        ("hyper", tuple(repr(h * 2.0**-1070) for h in (10.0, 6.0, 5.0, 1.0))),
    ],
)
def test_witness_in_the_subnormals_exits_3(geometry, heights, capsys):
    # every height lies below 2^-1024: this exited 1 with "internal error:
    # math range error"; existence holds, and the witness is subnormal
    argv = ["fourpoint", "--geometry", geometry]
    for flag, value in zip(("-a", "-b", "-c", "-d"), heights):
        argv += [flag, value]
    assert run(argv) == 0
    assert '"exists": true' in capsys.readouterr().out
    assert run(argv + ["--witness"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("search failure: existence holds (cross-ratio ")
    assert "lies in the subnormal range (below 2.22507e-308)" in captured.err


def test_euclid_witness_far_below_one_exits_0(capsys):
    # the angles at (1e-200, 1e-200) multiply coordinate differences near
    # 1e-200, whose products underflowed: this exited 3 at residual 7.854e-01
    argv = ["fourpoint", "--geometry", "euclid", "-a", "1", "-b", "2e-200", "-c", "1e-200", "-d", "0", "--witness"]
    assert run(argv) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert (witness["x"], witness["y"]) == pytest.approx((1e-200, 1e-200), rel=1e-15, abs=0.0)


def test_tangent_loci_witness_exits_0(capsys):
    # cross-ratio 3 - 4.2e-16: float circle loci met on the axis here; the
    # closed form gives a witness off it
    argv = ["fourpoint", "--geometry", "euclid", "-a", "1.0", "-b", "0.18352734933459244",
            "-c", "0.05320530938513346", "-d", "0.0", "--witness"]
    assert run(argv) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["x"] > 0


@pytest.mark.parametrize(
    "heights, cause",
    [
        # the closed form's point misses the Euclidean contract of 1e-10
        (("62.18405961560278", "24.55849812734293", "24.558498082097245", "-36.229585738926005"),
         "the loci meet at residual 1.984e-10 > 1e-10"),
        # gaps of one subnormal step: the point meets the loci exactly, but
        # its x is a subnormal
        (("0.5", "1.5e-323", "1e-323", "5e-324"),
         "the witness x = 4.94066e-324 lies in the subnormal range (below 2.22507e-308)"),
    ],
    ids=["over-euclid-contract", "subnormal-gaps"],
)
def test_euclid_witness_failure_exits_3_naming_the_cause(heights, cause, capsys):
    argv = ["fourpoint", "--geometry", "euclid"]
    for flag, value in zip(("-a", "-b", "-c", "-d"), heights):
        argv += [flag, value]
    assert run(argv) == 0
    assert '"exists": true' in capsys.readouterr().out
    assert run(argv + ["--witness"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("search failure: existence holds (cross-ratio ")
    assert cause in captured.err


@pytest.mark.parametrize(
    "geometry, heights",
    [
        ("euclid", ("1", "0.5", "1e-323", "5e-324")),
        ("hyper", ("1.5", "1", "1.5e-323", "1e-323")),
    ],
)
def test_cross_ratio_past_the_float_range_is_null(geometry, heights, capsys):
    # the cross-ratio overflows to inf, which JSON cannot hold: this exited 1
    # with "JSON has no form for the non-finite float inf"
    argv = ["fourpoint", "--geometry", geometry]
    for flag, value in zip(("-a", "-b", "-c", "-d"), heights):
        argv += [flag, value]
    for extra in ([], ["--witness"]):
        assert run(argv + extra) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["cross_ratio"], record["exists"], record["witness"]) == (None, False, None)


@pytest.mark.parametrize(
    "heights, radius",
    [(("4e-200", "2e-200", "1e-200"), 2e-200), (("4e200", "2e200", "1e200"), 2e200)],
    ids=["far-below-one", "far-above-one"],
)
def test_euclid_locus_far_from_one_exits_0(heights, radius, capsys):
    # the product of the gaps underflowed to a radius of 0 (exit 2), or
    # overflowed to a center of -inf (exit 1)
    argv = ["euclid-locus", "-a", heights[0], "-b", heights[1], "-c", heights[2]]
    assert run(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["kind"] == "circle"
    assert record["center_y"] == 0
    assert record["radius"] == pytest.approx(radius, rel=1e-15, abs=0.0)


def test_euclid_locus_past_the_float_range_exits_2(capsys):
    # the circle reaches past 1.8e308: named, where it exited 1
    assert run(["euclid-locus", "-a", "1.7e308", "-b", "1e308", "-c", "1e307"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: the Euclidean locus of (1.7e+308, 1e+308, 1e+307) does not fit in float64: the circle of center "
    )


def test_prob_ph_far_above_one_exits_0_near_its_quadrature(capsys):
    # squaring heights near 1e160 overflowed: every sample read False, and
    # this printed "mean": 0 beside "quadrature": 0.00375, with numpy's
    # overflow warnings (which the test run turns into errors)
    assert run(["prob", "ph", "--ratio", "1e160", "-n", "2000", "--seed", "5"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["mean"] > 0
    assert abs(record["mean"] - record["quadrature"]) <= 4 * record["stderr"]


def test_hyper_cross_ratio_far_below_one_exits_0(capsys):
    # the squares of 4e-200 .. 1e-200 underflow to 0: this exited 2 with
    # "got (0.25, 0.0, 0.0, 0.0)", the squares rather than the input
    argv = ["fourpoint", "--geometry", "hyper", "-a", "1", "-b", "4e-200", "-c", "2e-200", "-d", "1e-200"]
    assert run(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["cross_ratio"], record["exists"]) == (4.0, False)


def test_hyper_witness_through_underflowing_squares_exits_0(capsys):
    # the cross-ratio is 0.75 (it read 0.750329 from the squares); the flat
    # gaps of the squares, near 1e-320 in a copy scaled by a, kept too few
    # bits for a point within the contract and this exited 3. Scaled by the
    # middle pair they are normal floats
    heights = (1.0, 2.5e-160, 2e-160, 1e-160)
    argv = ["fourpoint", "--geometry", "hyper", "-a", "1", "-b", "2.5e-160", "-c", "2e-160", "-d", "1e-160"]
    assert run(argv + ["--witness"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["cross_ratio"] == 0.75
    witness = record["witness"]
    assert max(map(abs, exact_residuals(witness["x"], witness["y"], heights))) <= 1e-15
