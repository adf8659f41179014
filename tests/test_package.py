"""The package namespace and what importing it, or running a subcommand, loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apollonius

GOLDEN = Path(__file__).parent / "golden"

# what `from apollonius import *` binds: the public names of the package
# with every submodule imported, as they were when all were imported eagerly
STAR_NAMES = """
    AngleResidual AxisCircle AxisPoint Curve DegenerateInputError EuclideanLocus
    FamilyKind FourConfig Geometry GeometryError HPoint HorizontalLine
    HyperProbSetup IntTriple LocusClass OnAxisError OrderingError
    ProbEstimate QuarticCoeffs SampleStream TripleConfig Witness
    WitnessSearchError calibrate_ratio classify coefficients
    cross_ratio_euclid cross_ratio_hyper diophantine equal_angle_residual estimate_pe
    estimate_ph euclidean_equal_angle_residual euclidean_locus eval_quartic
    exists_euclid exists_hyper find_witness_euclid find_witness_hyper fourpoint
    geometric_family halfplane hyp_angle locus
    normalize_triple pe_quadrature ph_quadrature ph_reference_constant
    probability pythagorean_family quadratic_form_family render_svg rng
    sample_curve samples_to_csv serialize
    solve_r2 svg theta_grid verify_identity
""".split()

SUBMODULES = ("diophantine", "fourpoint", "halfplane", "locus", "probability", "rng", "serialize", "svg")

# prints which of numpy and scipy the interpreter has loaded, then which of
# the modules that start-up leaves out: dataclasses and the inspect it
# imports (8-14 ms), and concurrent.futures, which imports logging (~10 ms),
# then the package's submodules: where no bytecode cache is written, each
# one loaded is compiled from source on every run
PRINT_LOADED = (
    "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})); "
    "print(sorted(set(sys.modules) & {'concurrent.futures', 'dataclasses', 'inspect'})); "
    "print(*sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('apollonius.')))"
)

RUN_CLI = "import sys; from apollonius.cli import run; assert run(sys.argv[1:]) == 0; " + PRINT_LOADED


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """`python argv...` in a new interpreter importing this checkout; it must exit 0."""
    src = str(Path(apollonius.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def fresh_python(code: str, *args: str) -> str:
    """stdout of `python -c code args...` in a new interpreter importing this checkout."""
    return run_python("-c", code, *args).stdout


class TestNamespace:
    def test_all_lists_the_star_names(self):
        assert apollonius.__all__ == sorted(STAR_NAMES)

    def test_star_import_binds_the_same_names(self):
        code = "ns = {}; exec('from apollonius import *', ns); print(*sorted(set(ns) - {'__builtins__'}))"
        assert fresh_python(code).split() == sorted(STAR_NAMES)

    def test_each_name_is_its_home_modules_object(self):
        modules = {m: importlib.import_module(f"apollonius.{m}") for m in SUBMODULES}
        homes = {name: getattr(module, name) for module in modules.values() for name in module.__all__}
        for name in apollonius.__all__:
            assert getattr(apollonius, name) is (modules[name] if name in modules else homes[name]), name

    def test_unknown_attribute_is_named(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            apollonius.no_such_name

    def test_dir_lists_lazy_names(self):
        assert set(apollonius.__all__) | {"__version__"} <= set(dir(apollonius))

    def test_halfplane_keeps_only_the_judge(self):
        # the geodesic objects, the tangent of a geodesic and the distance
        # are the test reference tests/_geodesics.py, not the library's
        halfplane = importlib.import_module("apollonius.halfplane")
        assert halfplane.__all__ == [
            "GeometryError",
            "DegenerateInputError",
            "OnAxisError",
            "OrderingError",
            "HPoint",
            "AxisPoint",
            "AngleResidual",
            "hyp_angle",
            "equal_angle_residual",
        ]
        removed = "Arc VerticalRay Geodesic geodesic_through tangent_direction axis_center hyp_distance OffCurveError"
        for name in removed.split():
            assert not hasattr(halfplane, name), name
            with pytest.raises(AttributeError, match=f"'{name}'"):
                getattr(apollonius, name)

    def test_probability_keeps_no_scalar_sampling_path(self):
        # the scalar samplers, the indicator streams and the config rescalers
        # are the test reference tests/_scalar_sampler.py, not the library's
        for name in "sample_config_euclid sample_config_hyper pe_closed_form".split():
            with pytest.raises(AttributeError, match=f"'{name}'"):
                getattr(apollonius, name)
        removed = "sample_config_euclid sample_config_hyper euclid_indicator_stream hyper_indicator_stream"
        for name in removed.split():
            with pytest.raises(AttributeError, match=f"'{name}'"):
                getattr(apollonius.probability, name)
        for config in (apollonius.FourConfig, apollonius.TripleConfig):
            assert not hasattr(config, "scaled") and not hasattr(config, "shifted"), config


class TestSharedBase:
    # the error classes and the record base live in _base; each module
    # that uses one imports it from there, and halfplane and fourpoint
    # re-export theirs
    NAMES = (
        "GeometryError",
        "DegenerateInputError",
        "OnAxisError",
        "OrderingError",
        "WitnessSearchError",
        "_Record",
    )

    def test_each_error_class_and_the_record_base_is_one_object(self):
        base = importlib.import_module("apollonius._base")
        modules = [importlib.import_module(f"apollonius.{m}") for m in (*SUBMODULES, "cli")]
        for module in (apollonius, *modules):
            for name in self.NAMES:
                if hasattr(module, name):
                    assert getattr(module, name) is getattr(base, name), (module.__name__, name)
        assert apollonius.halfplane.GeometryError is apollonius.locus.GeometryError is apollonius.GeometryError
        assert apollonius.fourpoint.WitnessSearchError is apollonius.WitnessSearchError
        assert set(self.NAMES[:4]) <= set(apollonius.halfplane.__all__)
        assert "WitnessSearchError" in apollonius.fourpoint.__all__

    def test_geometry_error_from_a_module_without_halfplane_exits_2(self):
        # locus raises it for a negative --eps, and classify never loads halfplane
        code = (
            "import sys; sys.stderr = sys.stdout; from apollonius.cli import run; "
            "print(run(sys.argv[1:])); print('apollonius.halfplane' in sys.modules)"
        )
        out = fresh_python(code, "classify", "-a", "4", "-b", "2", "-c", "1", "--eps", "-1")
        assert out == "error: eps must be finite and nonnegative, got -1.0\n2\nFalse\n"


@pytest.mark.parametrize(
    "module,submodules", [("apollonius", ""), ("apollonius.cli", "_base cli")], ids=["apollonius", "apollonius.cli"]
)
def test_import_loads_no_numpy_or_scipy(module, submodules):
    # numpy's import was about 70% of a CLI run for the subcommands that never use it
    assert fresh_python(f"import sys, {module}; {PRINT_LOADED}") == f"[]\n[]\n{submodules}\n"


def test_calibration_names_resolve_without_numpy():
    # P_e and P_h are evaluated in closed form, so none of these names
    # needs numpy or rng, which only probability's Monte Carlo kernels import
    names = "apollonius.calibrate_ratio, apollonius.HyperProbSetup, apollonius.pe_quadrature, apollonius.ph_quadrature"
    code = f"import sys, apollonius; {names}; {PRINT_LOADED}"
    assert fresh_python(code) == "[]\n[]\n_base probability\n"


def test_importtime_lists_modules_loaded_on_first_use():
    # the package loads through __import__, which -X importtime logs;
    # importlib.import_module would bypass the log
    log = run_python("-X", "importtime", "-c", "import apollonius; apollonius.svg").stderr
    assert [line.split("|")[-1].strip() for line in log.splitlines()].count("apollonius.svg") == 1


# the submodules each subcommand loads: only those it runs
SUBCOMMAND_MODULES = {
    "classify_35_25_5.json": "_base cli locus serialize",
    "euclid_locus_9_4_1.json": "_base cli locus serialize",
    "fourpoint_hyper_10_6_5_1.json": "_base cli fourpoint halfplane serialize",
    "fourpoint_hyper_1e300_3_2_1.json": "_base cli fourpoint halfplane serialize",
    "fourpoint_hyper_1e300_3em300_2em300_1em300.json": "_base cli fourpoint halfplane serialize",
    "dioph_quadratic.csv": "_base cli diophantine",
    "prob_ph_calibrate_reference.json": "_base cli probability serialize",
    "sample_4_2_1_n64.svg": "_base _fmt17 cli locus serialize svg",
    "prob_pe_n10000_seed7.json": "_base cli probability rng serialize",
}

NUMPY_FREE_CASES = [
    ("classify_35_25_5.json", ["classify", "-a", "35", "-b", "25", "-c", "5"]),
    ("euclid_locus_9_4_1.json", ["euclid-locus", "-a", "9", "-b", "4", "-c", "1"]),
    (
        "fourpoint_hyper_10_6_5_1.json",
        ["fourpoint", "--geometry", "hyper", "-a", "10", "-b", "6", "-c", "5", "-d", "1", "--witness"],
    ),
    (
        "fourpoint_hyper_1e300_3_2_1.json",
        ["fourpoint", "--geometry", "hyper", "-a", "1e300", "-b", "3", "-c", "2", "-d", "1", "--witness"],
    ),
    (
        "fourpoint_hyper_1e300_3em300_2em300_1em300.json",
        ["fourpoint", "--geometry", "hyper", "-a", "1e300", "-b", "3e-300", "-c", "2e-300", "-d", "1e-300", "--witness"],
    ),
    ("dioph_quadratic.csv", ["dioph", "--family", "quadratic", "--m-range", "0:3", "--n-range", "1:2"]),
    ("prob_ph_calibrate_reference.json", ["prob", "ph", "--calibrate", "0.4201514931601543", "-n", "1"]),
]


def _case_ids(cases):
    """Each case's subcommand, or its golden file's stem where an earlier case runs the same subcommand."""
    ids = []
    for name, argv in cases:
        ids.append(name.rsplit(".", 1)[0] if argv[0] in ids else argv[0])
    return ids


@pytest.mark.parametrize("golden_name,argv", NUMPY_FREE_CASES, ids=_case_ids(NUMPY_FREE_CASES))
def test_subcommand_loads_no_numpy(golden_name, argv, tmp_path):
    out = tmp_path / golden_name
    loaded = fresh_python(RUN_CLI, *argv, "-o", str(out))
    assert loaded == f"[]\n[]\n{SUBCOMMAND_MODULES[golden_name]}\n"
    assert out.read_bytes() == (GOLDEN / golden_name).read_bytes()


def test_exact_existence_loads_no_numpy_or_fractions(tmp_path):
    # the float cross-ratio of these heights reads below 3 and the exact one
    # above it, so "exists": false comes from the integer decision
    out = tmp_path / "fourpoint.json"
    argv = ["fourpoint", "--geometry", "euclid", "-a", "0.75", "-b", "0.24999999999999806",
            "-c", "-0.25000000000000194", "-d", "-0.75", "--witness", "-o", str(out)]
    loaded = fresh_python(RUN_CLI + "; print('fractions' in sys.modules)", *argv)
    assert loaded == f"[]\n[]\n{SUBCOMMAND_MODULES['fourpoint_hyper_10_6_5_1.json']}\nFalse\n"
    record = json.loads(out.read_text())
    assert (record["exists"], record["witness"]) == (False, None)


def test_no_straddle_calibration_loads_no_numpy(tmp_path):
    # P_h at the bracket ends, which the exit-3 message prints, comes from
    # the same closed form as the root solve
    code = "import sys; from apollonius.cli import run; assert run(sys.argv[1:]) == 3; " + PRINT_LOADED
    argv = ["prob", "ph", "--calibrate", "1.5", "-n", "1", "-o", str(tmp_path / "cal.json")]
    proc = run_python("-c", code, *argv)
    assert proc.stdout == "[]\n[]\n_base cli probability serialize\n"
    assert proc.stderr == (
        "calibration target 1.5 not bracketed on (1.01, 1000.0): "
        "P_h(1.01) = 0.4344025751390507, P_h(1000.0) = 0.17011275854032254\n"
    )


# the last flag takes the output path
NUMPY_CASES = [
    (
        "sample_4_2_1_n64.svg",
        ["sample", "-a", "4", "-b", "2", "-c", "1", "-n", "64", "-o", os.devnull, "--svg"],
    ),
    ("prob_pe_n10000_seed7.json", ["prob", "pe", "-n", "10000", "--seed", "7", "-o"]),
]


@pytest.mark.parametrize("golden_name,argv", NUMPY_CASES, ids=[c[1][0] for c in NUMPY_CASES])
def test_numpy_subcommand_imports_it_on_first_use(golden_name, argv, tmp_path):
    out = tmp_path / golden_name
    numpy_loaded, start_up_loaded, submodules = fresh_python(RUN_CLI, *argv, str(out)).splitlines()
    assert numpy_loaded == "['numpy']"
    assert submodules == SUBCOMMAND_MODULES[golden_name]
    # numpy itself may import inspect; the thread pool waits for --threads > 1
    assert "concurrent.futures" not in start_up_loaded
    assert out.read_bytes() == (GOLDEN / golden_name).read_bytes()
