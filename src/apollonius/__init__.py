"""Equal-angle loci in the hyperbolic half-plane.

The classical Apollonius circle answers "from where do two adjacent
collinear segments look equally long?" in the flat plane. This package
computes the analogous locus in the half-plane model of the hyperbolic
plane (a polar quartic with seven shape regimes), decides the four-point
version of the question via cross-ratios in both geometries, estimates
the associated geometric probabilities with reproducible Monte Carlo and
quadrature, and generates the integer height triples that realize the
boundary shapes exactly.
"""

from importlib import import_module as _import_module

from .diophantine import (
    FamilyKind,
    IntTriple,
    geometric_family,
    normalize_triple,
    pythagorean_family,
    quadratic_form_family,
    verify_identity,
)
from .fourpoint import (
    FourConfig,
    Geometry,
    Witness,
    WitnessSearchError,
    cross_ratio_euclid,
    cross_ratio_hyper,
    exists_euclid,
    exists_hyper,
    find_witness_euclid,
    find_witness_hyper,
)
from .halfplane import (
    AngleResidual,
    Arc,
    AxisPoint,
    DegenerateInputError,
    Geodesic,
    GeometryError,
    HPoint,
    OffCurveError,
    OnAxisError,
    OrderingError,
    VerticalRay,
    axis_center,
    equal_angle_residual,
    geodesic_through,
    hyp_angle,
    hyp_distance,
    tangent_direction,
)
from .locus import (
    AxisCircle,
    Curve,
    EuclideanLocus,
    HorizontalLine,
    LocusClass,
    QuarticCoeffs,
    TripleConfig,
    classify,
    coefficients,
    euclidean_equal_angle_residual,
    euclidean_locus,
    eval_quartic,
    sample_curve,
    samples_to_csv,
    solve_r2,
    theta_grid,
)
# Names whose modules import numpy resolve on first use (PEP 562), so
# that the subcommands computing without numpy start without it. The
# submodules that no eager import binds resolve the same way, and so do
# the calibration names, whose module is only needed by prob ph.
_LAZY = {
    **dict.fromkeys(
        (
            "ProbEstimate",
            "estimate_pe",
            "estimate_ph",
            "pe_closed_form",
            "pe_quadrature",
            "ph_reference_constant",
            "ph_quadrature",
            "sample_config_euclid",
            "sample_config_hyper",
        ),
        "probability",
    ),
    "HyperProbSetup": "_calibrate",
    "calibrate_ratio": "_calibrate",
    "SampleStream": "rng",
    "render_svg": "svg",
}
_LAZY_MODULES = ("probability", "rng", "serialize", "svg")

__all__ = sorted({n for n in globals() if not n.startswith("_")} | {*_LAZY, *_LAZY_MODULES})

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY:
        value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _LAZY_MODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
