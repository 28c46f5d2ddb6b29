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
)
from .function import (
    BreakpointTable,
    FamilyParam,
    approx_eval,
    bracket_value,
    build_iterate,
    closed_form_value,
    eval_exact,
    eval_iterate,
    ifs_refine,
)
from .geometry import (
    arc_length,
    arc_length_profile,
    box_count,
    cover_level,
    dimension_estimate,
    interval_mass,
    mass_bound_check,
    mass_measure,
)
from .prng import SplitMix64
from .ternary import (
    digit_stream,
    from_ternary,
    to_ternary,
)
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "BourbakiError",
    "BreakpointTable",
    "ConsistencyError",
    "DigitError",
    "DomainError",
    "EmptyInputError",
    "FamilyParam",
    "OrderError",
    "ParameterError",
    "ParseError",
    "ResourceLimitError",
    "SplitMix64",
    "VerifyReport",
    "approx_eval",
    "arc_length",
    "arc_length_profile",
    "box_count",
    "bracket_value",
    "build_F_iterate",
    "build_iterate",
    "closed_form_value",
    "cover_level",
    "digit_stream",
    "dimension_estimate",
    "eval_F_exact",
    "eval_exact",
    "eval_iterate",
    "from_ternary",
    "ifs_refine",
    "integral_closed_form",
    "integral_symmetric",
    "interval_mass",
    "mass_bound_check",
    "mass_measure",
    "range_integral",
    "run_verification",
    "to_ternary",
    "__version__",
]
