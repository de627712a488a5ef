"""Positive integral friezes of Dynkin type: verification, analysis,
bounds, and exhaustive enumeration with exact arithmetic."""

from .bounds import (
    a_vector,
    bounds_report,
    check_pattern_against_bounds,
    entry_caps,
    floor_pow2,
    integer_root,
    interval_certificate,
    row_products,
)
from .catalog import (
    DynkinType,
    cartan_matrix,
    inverse_cartan,
    repetition_arrows,
    type_profile,
)
from .fixtures import e8_example_pattern
from .formats import (
    JSON_SCHEMAS,
    FriezeFormatError,
    emit_frieze,
    emit_quiver_dot,
    parse_frieze,
)
from .mesh import (
    DeadEndError,
    FriezePattern,
    FriezeSlice,
    IndivisibleError,
    NoRecurrenceError,
    detect_period,
    mesh_product,
    pattern_from_columns,
    propagate_backward,
    propagate_forward,
    verify_pattern,
)
from .search import SearchConfig, enumerate_friezes

__version__ = "0.1.0"

__all__ = [
    "DeadEndError",
    "DynkinType",
    "FriezeFormatError",
    "FriezePattern",
    "FriezeSlice",
    "IndivisibleError",
    "JSON_SCHEMAS",
    "NoRecurrenceError",
    "SearchConfig",
    "a_vector",
    "bounds_report",
    "cartan_matrix",
    "check_pattern_against_bounds",
    "detect_period",
    "e8_example_pattern",
    "emit_frieze",
    "emit_quiver_dot",
    "enumerate_friezes",
    "floor_pow2",
    "integer_root",
    "inverse_cartan",
    "interval_certificate",
    "mesh_product",
    "parse_frieze",
    "pattern_from_columns",
    "propagate_backward",
    "propagate_forward",
    "entry_caps",
    "repetition_arrows",
    "row_products",
    "type_profile",
    "verify_pattern",
]
