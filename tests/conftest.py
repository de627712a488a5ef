import pytest

from friezes import catalog
from friezes import (
    DynkinType,
    e8_example_pattern,
    emit_frieze,
    pattern_from_columns,
)

# A finite slice of the infinite catalog, for "every type" sweeps.
CATALOG_SAMPLE = tuple(
    DynkinType.from_name(s)
    for s in (
        "A1", "A2", "A3", "A4", "A5",
        "B2", "B3", "B4",
        "C2", "C3", "C4",
        "D4", "D5", "D6",
        "E6", "E7", "E8",
        "F4", "G2",
    )
)


def types_up_to(r):
    """Every catalog type of rank at most ``r``, family by family."""
    return tuple(
        DynkinType(family, n)
        for family, (_, admissible, _) in catalog._FAMILIES.items()
        for n in range(1, r + 1)
        if admissible(n)
    )


@pytest.fixture(scope="session")
def e8_pattern():
    return e8_example_pattern()


@pytest.fixture(scope="session")
def a2_pattern():
    # the single A2 orbit: five columns cycling under propagation
    return pattern_from_columns(DynkinType("A", 2), [(1, 1), (3, 2), (1, 2), (2, 1), (2, 3)])


@pytest.fixture()
def e8_file(tmp_path, e8_pattern):
    path = tmp_path / "e8.frieze"
    path.write_text(emit_frieze(e8_pattern), encoding="utf-8")
    return str(path)


@pytest.fixture()
def a2_file(tmp_path, a2_pattern):
    path = tmp_path / "a2.frieze"
    path.write_text(emit_frieze(a2_pattern), encoding="utf-8")
    return str(path)


def t(name: str) -> DynkinType:
    return DynkinType.from_name(name)


def continuant(seq) -> int:
    """``K(a_1, ..., a_m)``: ``K() = 1``, ``K(a_1) = a_1`` and
    ``K(a_1..a_m) = a_m K(a_1..a_{m-1}) - K(a_1..a_{m-2})``."""
    prev, cur = 0, 1
    for a in seq:
        prev, cur = cur, a * cur - prev
    return cur


def conway_coxeter_columns(quiddity) -> list[tuple[int, ...]]:
    """Columns ``0 .. size-1`` of the A_n frieze of a triangulated
    ``(n+3)``-gon with this quiddity (triangles per polygon vertex):
    ``F[i,k]`` is the continuant of ``a[1-k], ..., a[i-k]``, indices mod
    ``n+3`` (Conway-Coxeter)."""
    size = len(quiddity)
    return [
        tuple(continuant(quiddity[(x - k) % size] for x in range(1, i + 1)) for i in range(1, size - 2))
        for k in range(size)
    ]


@pytest.fixture(scope="session")
def a6_pattern():
    # triangles (0,1,2) (0,2,5) (2,3,5) (3,4,5) (0,5,8) (5,6,8) (6,7,8) of a 9-gon
    return pattern_from_columns(DynkinType("A", 6), conway_coxeter_columns([3, 1, 3, 2, 1, 5, 2, 1, 3]))
