"""Witnessed piecewise-continuous retractions on finite-dimensional normed
spaces, with a numerical property-verification suite."""

from .core import (
    DiagonalBands,
    DimensionMismatch,
    FiniteUnion,
    Interval,
    NormBand,
    NormKind,
    PieceFamily,
    SetDescriptor,
    Singleton,
    Tolerance,
    as_vector,
    constant_family,
    norm,
    piece,
)
from .constructions import (
    Clamp1D,
    Constant,
    ConstructionError,
    PiecewiseMap,
    PuncturedSpace,
    RadialProjection,
    build_construction,
    canonical_constant_extension,
    canonical_extend,
    canonical_glue,
    extend_retraction,
    fractional_part_retraction,
    glue_retraction,
    open_ball_retraction,
    radial_projection_map,
    sphere_retraction,
    unit_sphere,
)
from .fields import (
    ScalarField,
    const_field,
    extension_operator,
    linear_combination,
    parse_field,
)
from .verification import (
    CheckReport,
    Sampler,
    borsuk_discontinuity_demo,
    check_cover,
    check_norm_identity_open_ball,
    check_operator_properties,
    check_piece_continuity,
    check_retraction_identity,
    codomain_sampler,
    domain_sampler,
    run_suite,
)

__version__ = "0.1.0"
