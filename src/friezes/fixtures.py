"""Golden fixture: the verified E8 example frieze used by tests, demos, and docs."""

from __future__ import annotations

from .catalog import DynkinType
from .mesh import FriezePattern, pattern_from_columns

__all__ = ["E8_EXAMPLE_ROWS", "e8_example_pattern"]

# A period-4 positive integral frieze of type E8 (rows in Cartan index
# order, columns k = 0..3).  Every one of its 32 mesh relations holds; it
# doubles as the golden fixture for the E8 bound computations.
E8_EXAMPLE_ROWS: tuple[tuple[int, ...], ...] = (
    (4, 4, 3, 3),
    (6, 7, 6, 5),
    (11, 15, 11, 8),
    (29, 41, 41, 29),
    (21, 18, 16, 18),
    (13, 13, 7, 7),
    (5, 8, 5, 3),
    (2, 3, 3, 2),
)


def e8_example_pattern() -> FriezePattern:
    return pattern_from_columns(DynkinType("E", 8), zip(*E8_EXAMPLE_ROWS))
