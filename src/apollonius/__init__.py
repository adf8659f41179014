"""Equal-angle loci in the hyperbolic half-plane.

The classical Apollonius circle answers "from where do two adjacent
collinear segments look equally long?" in the flat plane. This package
computes the analogous locus in the half-plane model of the hyperbolic
plane (a polar quartic with seven shape regimes), decides the four-point
version of the question via cross-ratios in both geometries, estimates
the associated geometric probabilities with reproducible Monte Carlo and
in closed form, and generates the integer height triples that realize the
boundary shapes exactly.
"""

import sys as _sys

# Every public name resolves on first use (PEP 562) from the module named
# here, so `import apollonius` loads no submodule: a CLI subcommand
# imports, and without a bytecode cache compiles, only the modules it
# runs, and numpy loads only where it is used. The error
# classes resolve from _base, their home, which halfplane and fourpoint
# re-export.
_LAZY = {
    name: module
    for module, names in {
        "_base": "DegenerateInputError GeometryError OnAxisError OrderingError WitnessSearchError",
        "diophantine": "FamilyKind IntTriple geometric_family normalize_triple pythagorean_family "
        "quadratic_form_family verify_identity",
        "fourpoint": "FourConfig Geometry Witness cross_ratio_euclid cross_ratio_hyper exists_euclid "
        "exists_hyper find_witness_euclid find_witness_hyper",
        "halfplane": "AngleResidual AxisPoint HPoint equal_angle_residual hyp_angle",
        "locus": "AxisCircle Curve EuclideanLocus HorizontalLine LocusClass QuarticCoeffs TripleConfig "
        "classify coefficients euclidean_equal_angle_residual euclidean_locus eval_quartic sample_curve "
        "samples_to_csv solve_r2 theta_grid",
        "probability": "HyperProbSetup ProbEstimate calibrate_ratio estimate_pe estimate_ph pe_quadrature "
        "ph_quadrature ph_reference_constant",
        "rng": "SampleStream",
        "svg": "render_svg",
    }.items()
    for name in names.split()
}
_LAZY_MODULES = ("diophantine", "fourpoint", "halfplane", "locus", "probability", "rng", "serialize", "svg")

__all__ = sorted({*_LAZY, *_LAZY_MODULES})

__version__ = "0.1.0"


def _submodule(name):
    # through __import__, as an import statement loads, which python
    # -X importtime logs; importlib.import_module bypasses that log
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _LAZY:
        value = getattr(_submodule(_LAZY[name]), name)
    elif name in _LAZY_MODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
