import itertools
import math
import random
import types
from fractions import Fraction

import pytest

import friezes
from friezes import catalog
from friezes import (
    CATALOG_SAMPLE,
    DynkinType,
    cartan_matrix,
    inverse_cartan,
    leading_principal_minors,
    repetition_arrows,
    type_profile,
)
from friezes.catalog import search_period, twist

# The E8 Cartan matrix and its integer inverse under the fixed numbering.
E8_CARTAN = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)

E8_INVERSE = (
    (4, 5, 7, 10, 8, 6, 4, 2),
    (5, 8, 10, 15, 12, 9, 6, 3),
    (7, 10, 14, 20, 16, 12, 8, 4),
    (10, 15, 20, 30, 24, 18, 12, 6),
    (8, 12, 16, 24, 20, 15, 10, 5),
    (6, 9, 12, 18, 15, 12, 8, 4),
    (4, 6, 8, 12, 10, 8, 6, 3),
    (2, 3, 4, 6, 5, 4, 3, 2),
)


def test_package_exports_match_all():
    # every listed name is bound, and every public non-module name is listed
    assert all(hasattr(friezes, name) for name in friezes.__all__)
    public = {
        name
        for name, value in vars(friezes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(friezes.__all__)


@pytest.mark.parametrize(
    "name", ["A0", "B1", "C1", "D3", "E5", "E9", "F3", "F5", "G1", "G3"]
)
def test_inadmissible_ranks_rejected(name):
    requires = {
        "A": "rank >= 1",
        "B": "rank >= 2",
        "C": "rank >= 2",
        "D": "rank >= 4",
        "E": "rank in {6, 7, 8}",
        "F": "rank = 4",
        "G": "rank = 2",
    }[name[0]]
    with pytest.raises(ValueError) as excinfo:
        DynkinType.from_name(name)
    assert str(excinfo.value) == f"inadmissible type {name}: family {name[0]} requires {requires}"


@pytest.mark.parametrize("name", ["X4", "8E", "A", "Ax", "", "A\u00b2"])
def test_bad_tokens_rejected(name):
    with pytest.raises(ValueError, match="unknown type token"):
        DynkinType.from_name(name)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family 'X'"):
        DynkinType("X", 3)


def test_parse_and_str_round_trip():
    for t in CATALOG_SAMPLE:
        assert DynkinType.from_name(str(t)) == t


def test_e8_cartan_matches_reference_matrix():
    assert cartan_matrix(DynkinType("E", 8)).entries == E8_CARTAN


def test_e8_inverse_matches_reference_matrix():
    inv = inverse_cartan(DynkinType("E", 8))
    assert inv.entries == tuple(tuple(Fraction(x) for x in row) for row in E8_INVERSE)
    assert inv.entries[7] == (2, 3, 4, 6, 5, 4, 3, 2)


def test_small_cartan_matrices():
    assert cartan_matrix(DynkinType("A", 1)).entries == ((2,),)
    assert cartan_matrix(DynkinType("A", 2)).entries == ((2, -1), (-1, 2))
    assert cartan_matrix(DynkinType("G", 2)).entries == ((2, -1), (-3, 2))
    assert cartan_matrix(DynkinType("B", 2)).entries == ((2, -2), (-1, 2))
    assert cartan_matrix(DynkinType("C", 2)).entries == ((2, -1), (-2, 2))
    f4 = cartan_matrix(DynkinType("F", 4)).entries
    assert f4[1][2] == -2 and f4[2][1] == -1


def test_small_inverses():
    assert inverse_cartan(DynkinType("A", 1)).entries == ((Fraction(1, 2),),)
    third = Fraction(1, 3)
    assert inverse_cartan(DynkinType("A", 2)).entries == (
        (2 * third, third),
        (third, 2 * third),
    )


def test_small_mesh_tables():
    # per vertex: (neighbour j, exponent m = -C[i,j], column offset o = int(j > i))
    assert catalog._mesh_factors(DynkinType("G", 2)) == (((1, 1, 1),), ((0, 3, 0),))
    assert catalog._mesh_factors(DynkinType("B", 2)) == (((1, 2, 1),), ((0, 1, 0),))
    assert catalog._mesh_factors(DynkinType("C", 2)) == (((1, 1, 1),), ((0, 2, 0),))
    assert catalog._mesh_factors(DynkinType("D", 4)) == (
        ((1, 1, 1),),
        ((0, 1, 0), (2, 1, 1), (3, 1, 1)),
        ((1, 1, 0),),
        ((1, 1, 0),),
    )


def _path_cartan(t):
    """Cartan matrix of A_n, B_n, C_n or D_n built by hand: the tridiagonal
    path, with B's and C's doubled last edge and D's last vertex moved
    from ``n-1`` to the branch vertex ``n-2``."""
    n = t.rank
    rows = [[2 if i == j else -int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    if t.family == "B":
        rows[n - 2][n - 1] = -2
    elif t.family == "C":
        rows[n - 1][n - 2] = -2
    elif t.family == "D":
        rows[n - 2][n - 1] = rows[n - 1][n - 2] = 0
        rows[n - 3][n - 1] = rows[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("name", ["A200", "B200", "C200", "D200"])
def test_large_cartan_matrices_match_the_path_builder(name):
    t = DynkinType.from_name(name)
    assert cartan_matrix(t) == catalog.CartanMatrix(200, _path_cartan(t))


def _known_minors(t):
    n = t.rank
    if t.family == "A":
        return tuple(range(2, n + 2))
    if t.family in "BC":
        return tuple(range(2, n + 1)) + (2,)
    if t.family == "D":
        return tuple(range(2, n + 1)) + (4,)
    return {
        "E6": (2, 4, 6, 5, 4, 3),
        "E7": (2, 4, 6, 5, 4, 3, 2),
        "E8": (2, 4, 6, 5, 4, 3, 2, 1),
        "F4": (2, 3, 2, 1),
        "G2": (2, 1),
    }[str(t)]


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_leading_principal_minors_exact(t):
    assert leading_principal_minors(cartan_matrix(t)) == _known_minors(t)


def test_leading_principal_minors_of_non_cartan_matrices():
    # a zero leading entry gives minor 0 and a swapped pivot the sign
    assert leading_principal_minors(catalog.CartanMatrix(2, ((0, 1), (1, 0)))) == (0, -1)
    assert leading_principal_minors(catalog.CartanMatrix(2, ((1, 2), (2, 4)))) == (1, 0)


def test_leading_principal_minors_match_the_permutation_expansion():
    # seeded random integer matrices, zero pivots included, against the
    # Leibniz formula on every leading block
    def det(rows):
        total = 0
        for perm in itertools.permutations(range(len(rows))):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            total += (-1) ** inversions * math.prod(rows[i][j] for i, j in enumerate(perm))
        return total

    rng = random.Random(7)
    zero_pivots = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        entries = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
        expected = tuple(det([row[:m] for row in entries[:m]]) for m in range(1, n + 1))
        assert leading_principal_minors(catalog.CartanMatrix(n, entries)) == expected
        zero_pivots += 0 in expected[:-1]
    assert zero_pivots


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_cartan_invariants_hold_across_catalog(t):
    cm = cartan_matrix(t)
    n = cm.rank
    for i in range(n):
        assert cm.entries[i][i] == 2
        for j in range(n):
            if i != j:
                assert cm.entries[i][j] <= 0
                assert (cm.entries[i][j] == 0) == (cm.entries[j][i] == 0)
    assert all(m > 0 for m in leading_principal_minors(cm))


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_inverse_is_exact_and_positive(t):
    cm = cartan_matrix(t)
    inv = inverse_cartan(t)
    n = t.rank
    for i in range(n):
        for j in range(n):
            prod = sum(cm.entries[i][k] * inv.entries[k][j] for k in range(n))
            assert prod == (1 if i == j else 0)
            assert inv.entries[i][j] > 0


@pytest.mark.parametrize("n", range(8, 49, 4))
def test_a_inverse_matches_closed_form(n):
    # C^-1[i][j] = min(i,j) * (n+1-max(i,j)) / (n+1) and b_i = i(n+1-i)/2
    # (1-based) for the path A_n.
    t = DynkinType("A", n)
    inv = inverse_cartan(t).entries
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert inv[i - 1][j - 1] == Fraction(min(i, j) * (n + 1 - max(i, j)), n + 1)
    assert type_profile(t).b == tuple(Fraction(i * (n + 1 - i), 2) for i in range(1, n + 1))


@pytest.mark.parametrize("n", [4, 5, 9, 16, 30, 48])
def test_d_row_sums_match_closed_form(n):
    # b_i = i(2n-i-1)/2 on the long arm, b_{n-1} = b_n = n(n-1)/4 on the fork.
    want = tuple(Fraction(i * (2 * n - i - 1), 2) for i in range(1, n - 1))
    want += (Fraction(n * (n - 1), 4),) * 2
    assert type_profile(DynkinType("D", n)).b == want


def test_invert_exact_swaps_rows_and_rejects_singular():
    # Cartan matrices never need a row swap; both of these do, and have det -1.
    assert catalog._invert_exact(((0, 1), (1, 0))) == (-1, ((0, -1), (-1, 0)))
    assert catalog._invert_exact(((0, 2, 1), (1, 0, 0), (3, 1, 1))) == (
        -1, ((0, -1, 0), (-1, -3, 1), (1, 6, -2)),
    )
    with pytest.raises(ArithmeticError, match="singular"):
        catalog._invert_exact(((1, 2), (2, 4)))


@pytest.mark.parametrize("name", ["A5", "D6", "E8", "G2"])
def test_inverse_recheck_catches_a_corrupted_kernel(monkeypatch, name):
    kernel = catalog._invert_exact

    def off_by_one(entries):
        det, adj = kernel(entries)
        rows = [list(row) for row in adj]
        rows[-1][0] += 1
        return det, tuple(tuple(row) for row in rows)

    monkeypatch.setattr(catalog, "_invert_exact", off_by_one)
    # __wrapped__ bypasses the cache, so no corrupted inverse is stored.
    with pytest.raises(ArithmeticError, match="inverse check failed"):
        inverse_cartan.__wrapped__(DynkinType.from_name(name))


def test_e8_profile_values():
    prof = type_profile(DynkinType("E", 8))
    assert prof.b == (46, 68, 91, 135, 110, 84, 57, 29)
    assert prof.d == (1, 1, 2, 3, 2, 2, 2, 1)
    assert prof.period_cap == 32


def test_a1_profile_values():
    prof = type_profile(DynkinType("A", 1))
    assert prof.b == (Fraction(1, 2),)
    assert prof.d == (0,)
    assert prof.period_cap == 4


@pytest.mark.parametrize(
    "name,cap",
    [("A1", 4), ("A2", 5), ("A3", 6), ("A4", 7), ("B2", 6), ("B3", 8), ("C2", 6),
     ("D4", 8), ("D5", 10), ("E6", 14), ("E7", 20), ("E8", 32), ("F4", 14), ("G2", 8)],
)
def test_period_caps(name, cap):
    assert type_profile(DynkinType.from_name(name)).period_cap == cap


def _tabulated_twist(t):
    """The Nakayama twist ``F[i,k] = F[sigma(i), k + c_i]`` of the sample
    types, read off their enumerated orbits (0-based vertices)."""
    n, h2 = t.rank, type_profile(t).period_cap
    if t.family == "A":  # i -> n+1-i with c_i = n+2-i, 1-based
        return tuple(n - 1 - i for i in range(n)), tuple(n + 1 - i for i in range(n))
    if str(t) == "D5":  # swaps 4 and 5
        return (0, 1, 2, 4, 3), (5,) * 5
    if str(t) == "E6":  # (1 6)(3 5)
        return (5, 1, 4, 3, 2, 0), (9, 7, 8, 7, 6, 5)
    return tuple(range(n)), (h2 // 2,) * n  # B, C, D_even, E7, E8, F4, G2


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_twist_matches_the_table(t):
    sigma, c = _tabulated_twist(t)
    assert twist(t) == (sigma, c)
    h2 = type_profile(t).period_cap
    assert search_period(t) == (h2 // 2 if sigma == tuple(range(t.rank)) else h2)


@pytest.mark.parametrize("name", ["A3", "E6"])
def test_twist_rechecks_its_result(monkeypatch, name):
    # a wrong Coxeter number breaks c_i + c_sigma(i) = h + 2
    true_h = catalog.coxeter_number
    monkeypatch.setattr(catalog, "coxeter_number", lambda t: true_h(t) + 1)
    # __wrapped__ bypasses the cache, so no corrupted twist is stored.
    with pytest.raises(ArithmeticError, match="twist check failed"):
        twist.__wrapped__(DynkinType.from_name(name))


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_d_equals_weighted_degree(t):
    cm = cartan_matrix(t)
    prof = type_profile(t)
    for i in range(t.rank):
        assert prof.d[i] == sum(-cm.entries[i][j] for j in range(t.rank) if j != i)
    if t.family in ("A", "D", "E"):
        # simply laced: d is the plain graph degree
        for i in range(t.rank):
            degree = sum(1 for j in range(t.rank) if j != i and cm.entries[i][j] != 0)
            assert prof.d[i] == degree


def test_profiles_are_pure():
    t = DynkinType("E", 6)
    assert type_profile(t) == type_profile(DynkinType("E", 6))
    assert cartan_matrix(t).entries == cartan_matrix(DynkinType("E", 6)).entries


def test_repetition_arrows_a2_single_column():
    assert repetition_arrows(DynkinType("A", 2), 0, 0) == [
        ((1, 0), (2, 0)),
        ((2, 0), (1, 1)),
    ]


def test_repetition_arrows_a1_empty():
    assert repetition_arrows(DynkinType("A", 1), 0, 5) == []


def test_repetition_arrows_e8_column_count():
    arrows = repetition_arrows(DynkinType("E", 8), 0, 0)
    assert len(arrows) == 14  # 7 edges, two arrows each
    window = repetition_arrows(DynkinType("E", 8), 0, 3)
    assert len(window) == 4 * 14
    assert window == sorted(window, key=lambda a: (min(a[0][1], a[1][1]),))  # ordered by k


def test_repetition_arrows_rejects_empty_range():
    with pytest.raises(ValueError):
        repetition_arrows(DynkinType("A", 2), 1, 0)
