"""The package namespace and what importing it, or running a subcommand, loads."""

import importlib
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
    AngleResidual Arc AxisCircle AxisPoint Curve DegenerateInputError EuclideanLocus
    FamilyKind FourConfig Geodesic Geometry GeometryError HPoint HorizontalLine
    HyperProbSetup IntTriple LocusClass OffCurveError OnAxisError OrderingError
    ProbEstimate QuarticCoeffs SampleStream TripleConfig VerticalRay Witness
    WitnessSearchError axis_center calibrate_ratio classify coefficients
    cross_ratio_euclid cross_ratio_hyper diophantine equal_angle_residual estimate_pe
    estimate_ph euclidean_equal_angle_residual euclidean_locus eval_quartic
    exists_euclid exists_hyper find_witness_euclid find_witness_hyper fourpoint
    geodesic_through geometric_family halfplane hyp_angle hyp_distance locus
    normalize_triple pe_closed_form pe_quadrature ph_quadrature ph_reference_constant
    probability pythagorean_family quadratic_form_family render_svg rng
    sample_config_euclid sample_config_hyper sample_curve samples_to_csv serialize
    solve_r2 svg tangent_direction theta_grid verify_identity
""".split()

SUBMODULES = ("diophantine", "fourpoint", "halfplane", "locus", "probability", "rng", "serialize", "svg")

# prints which of numpy and scipy the interpreter has loaded, then which of
# the modules that start-up leaves out: dataclasses and the inspect it
# imports (8-14 ms), and concurrent.futures, which imports logging (~10 ms)
PRINT_LOADED = (
    "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})); "
    "print(sorted(set(sys.modules) & {'concurrent.futures', 'dataclasses', 'inspect'}))"
)

RUN_CLI = "import sys; from apollonius.cli import run; assert run(sys.argv[1:]) == 0; " + PRINT_LOADED


def fresh_python(code: str, *args: str) -> str:
    """stdout of `python -c code args...` in a new interpreter importing this checkout."""
    src = str(Path(apollonius.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


@pytest.mark.parametrize("module", ["apollonius", "apollonius.cli"])
def test_import_loads_no_numpy_or_scipy(module):
    # numpy's import was about 70% of a CLI run for the subcommands that never use it
    assert fresh_python(f"import sys, {module}; {PRINT_LOADED}") == "[]\n[]\n"


NUMPY_FREE_CASES = [
    ("classify_35_25_5.json", ["classify", "-a", "35", "-b", "25", "-c", "5"]),
    ("euclid_locus_9_4_1.json", ["euclid-locus", "-a", "9", "-b", "4", "-c", "1"]),
    (
        "fourpoint_hyper_10_6_5_1.json",
        ["fourpoint", "--geometry", "hyper", "-a", "10", "-b", "6", "-c", "5", "-d", "1", "--witness"],
    ),
    ("dioph_quadratic.csv", ["dioph", "--family", "quadratic", "--m-range", "0:3", "--n-range", "1:2"]),
]


@pytest.mark.parametrize("golden_name,argv", NUMPY_FREE_CASES, ids=[c[1][0] for c in NUMPY_FREE_CASES])
def test_subcommand_loads_no_numpy(golden_name, argv, tmp_path):
    out = tmp_path / golden_name
    assert fresh_python(RUN_CLI, *argv, "-o", str(out)) == "[]\n[]\n"
    assert out.read_bytes() == (GOLDEN / golden_name).read_bytes()


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
    numpy_loaded, start_up_loaded = fresh_python(RUN_CLI, *argv, str(out)).splitlines()
    assert numpy_loaded == "['numpy']"
    # numpy itself may import inspect; the thread pool waits for --threads > 1
    assert "concurrent.futures" not in start_up_loaded
    assert out.read_bytes() == (GOLDEN / golden_name).read_bytes()
