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
from .probability import (
    HyperProbSetup,
    ProbEstimate,
    calibrate_ratio,
    estimate_pe,
    estimate_ph,
    pe_closed_form,
    pe_quadrature,
    ph_reference_constant,
    ph_quadrature,
    sample_config_euclid,
    sample_config_hyper,
)
from .rng import SampleStream
from .svg import render_svg

__version__ = "0.1.0"
