"""Computable p-divisibility criteria for everywhere-locally-divisible classes
of elliptic curves, with the finite-group-cohomology engine behind them."""

from .cohomology import (
    CohomologyClassSpace,
    GModule,
    common_irreducible_factor,
    composition_factors,
    groupcrit_side_analytic,
    groupcrit_side_structural,
    h1,
    h1_star,
    make_adjoint_module,
    make_standard_module,
    modules_isomorphic,
)
from .divisibility import (
    DivisibilityVerdict,
    Outcome,
    RunConfig,
    TwistScanReport,
    twist_scan,
    unipotent_lift_exception,
    verdict_number_field,
    verdict_over_Q,
)
from .elliptic import (
    EllipticCurveQ,
    FrobeniusData,
    ReductionType,
    count_points,
    curve,
    derive_invariants,
    frobenius_traces,
    has_full_rational_2torsion,
    is_supersingular,
    quadratic_twist,
    reduction_type,
    trace_at,
)
from .galois_image import (
    Consistent,
    CyclotomicPair,
    RefutedAt,
    cyclotomic_pair_candidates,
    nv3_bad_sets,
    nv_sieve_bound,
    test_cyclotomic_pair,
)
from .gl2 import (
    Exhaustive,
    Sampled,
    Subgroup,
    closure,
    embeds_in_s3,
    enumerate_subgroups,
    normalizer_in,
    p_sylow,
)
from .local_cubic import (
    CubeClass,
    DiagonalCubic,
    coordinate_section_point,
    cube_class,
    has_local_point,
    has_zeta3,
    is_cube,
    selmer_example_report,
)

__version__ = "0.1.0"
