"""Exact arithmetic for a classical continuous nowhere-differentiable function.

The package evaluates the function, its one-parameter family and its
antiderivative at rational points with exact rational results, builds the
piecewise-linear construction iterates, and computes the fractal geometry
of the graph: box-counting dimension, cover areas, a self-similar measure
and polygonal arc lengths.
"""

from .antiderivative import (
    build_F_iterate,
    eval_F_exact,
    integral_closed_form,
    integral_symmetric,
    range_integral,
)
from .errors import (
    BourbakiError,
    ConsistencyError,
    DigitError,
    DomainError,
    EmptyInputError,
    OrderError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    SingularMapError,
)
from .function import (
    CLASSICAL,
    BreakpointTable,
    FamilyParam,
    PlanePoint,
    approx_eval,
    bracket_value,
    build_iterate,
    closed_form_value,
    digit_step_map,
    eval_exact,
    eval_iterate,
    ifs_map_point,
    ifs_refine,
    parse_decimal,
)
from .geometry import (
    BoxCountReport,
    CoverRectangle,
    MassMeasure,
    arc_length,
    arc_length_profile,
    box_count,
    cover_level,
    dimension_estimate,
    interval_mass,
    iter_segment_squares,
    mass_bound_check,
    mass_measure,
)
from .prng import SplitMix64
from .render import csv_table, decimal_12, format_rational, format_value, svg_polyline
from .ternary import (
    AffineMap,
    TernaryExpansion,
    affine_compose,
    affine_fixed_point,
    check_unit_interval,
    compose_chain,
    digit_stream,
    from_ternary,
    to_ternary,
)
from .verify import VerifyReport, available_suites, run_verification

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "BoxCountReport",
    "BourbakiError",
    "BreakpointTable",
    "CLASSICAL",
    "ConsistencyError",
    "CoverRectangle",
    "DigitError",
    "DomainError",
    "EmptyInputError",
    "FamilyParam",
    "MassMeasure",
    "OrderError",
    "ParameterError",
    "ParseError",
    "PlanePoint",
    "ResourceLimitError",
    "SingularMapError",
    "SplitMix64",
    "TernaryExpansion",
    "VerifyReport",
    "affine_compose",
    "affine_fixed_point",
    "approx_eval",
    "arc_length",
    "arc_length_profile",
    "available_suites",
    "box_count",
    "bracket_value",
    "build_F_iterate",
    "build_iterate",
    "check_unit_interval",
    "closed_form_value",
    "compose_chain",
    "cover_level",
    "csv_table",
    "decimal_12",
    "digit_step_map",
    "digit_stream",
    "dimension_estimate",
    "eval_F_exact",
    "eval_exact",
    "eval_iterate",
    "format_rational",
    "format_value",
    "from_ternary",
    "ifs_map_point",
    "ifs_refine",
    "integral_closed_form",
    "integral_symmetric",
    "interval_mass",
    "iter_segment_squares",
    "mass_bound_check",
    "mass_measure",
    "parse_decimal",
    "range_integral",
    "run_verification",
    "svg_polyline",
    "to_ternary",
    "__version__",
]
