import itertools
import math
import types
from fractions import Fraction

import pytest

import friezes
from friezes import catalog
from friezes import (
    DynkinType,
    FriezeSlice,
    SearchConfig,
    bounds_report,
    cartan_matrix,
    detect_period,
    entry_caps,
    floor_pow2,
    integer_root,
    interval_certificate,
    inverse_cartan,
    mesh_product,
    pattern_from_columns,
    repetition_arrows,
    type_profile,
    verify_pattern,
)
from conftest import CATALOG_SAMPLE, types_up_to
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
    for module in (
        friezes.catalog,
        friezes.mesh,
        friezes.bounds,
        friezes.search,
        friezes.formats,
        friezes.fixtures,
    ):
        unbound = [name for name in module.__all__ if not hasattr(module, name)]
        assert unbound == [], (module.__name__, unbound)
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


def test_bool_rank_rejected():
    # True would print as "ATrue", which from_name cannot read back
    with pytest.raises(ValueError, match="inadmissible type ATrue"):
        DynkinType("A", True)


_A2 = DynkinType("A", 2)
_A2_SEED = FriezeSlice(_A2, (1, 1))
# the period-1 constant-one pattern (no frieze): every positive int is a
# multiple of its period, so the period check alone cannot refuse True
_PERIOD_ONE = pattern_from_columns(DynkinType("A", 1), [(1,)])


@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda x: SearchConfig(_A2, "column_dfs", entry_cap_override=x), "entry_cap_override must"),
        (lambda x: SearchConfig(_A2, "column_dfs", jobs=x), "jobs must be positive"),
        (lambda x: detect_period(_A2_SEED, x), "cap must be positive"),
        (lambda x: bounds_report(_A2, x), "period must be positive"),
        (lambda x: interval_certificate(_PERIOD_ONE, x), "not a positive multiple"),
        (lambda x: mesh_product(x, _A2_SEED, _A2_SEED), "is not in 1..2"),
        (lambda x: integer_root(x, 1), "integer_root needs ints"),
        (lambda x: integer_root(10, x), "integer_root needs ints"),
        # the equal int is cached first, and must not be served for x
        (lambda x: entry_caps(_A2, int(x)) and entry_caps(_A2, x), "period must be positive"),
        (lambda x: bounds_report(_A2, int(x)) and bounds_report(_A2, x), "period must be positive"),
        (lambda x: floor_pow2(x), "exponent must be positive"),
        (lambda x: repetition_arrows(_A2, x, 3), "column bounds must be ints"),
        (lambda x: repetition_arrows(_A2, 0, x), "column bounds must be ints"),
    ],
    ids=["cap_override", "jobs", "detect_period", "bounds_report", "interval_certificate",
         "mesh_product", "root_x", "root_k", "entry_caps", "bounds_report_cached", "floor_pow2",
         "arrows_lo", "arrows_hi"],
)
def test_counts_and_periods_must_be_ints(call, message, bad):
    # like a rank, a count or period that is a bool or a float is refused
    # with the message an out-of-range int gets
    with pytest.raises(ValueError, match=message):
        call(bad)


def test_bounds_report_is_cached_per_type_and_period():
    assert bounds_report(_A2, 5) is bounds_report(_A2, 5)
    assert bounds_report(_A2, 6) is not bounds_report(_A2, 5)


def test_parse_and_str_round_trip():
    for t in CATALOG_SAMPLE:
        assert DynkinType.from_name(str(t)) == t


def test_e8_cartan_matches_reference_matrix():
    assert cartan_matrix(DynkinType("E", 8)) == E8_CARTAN


def test_e8_inverse_matches_reference_matrix():
    inv = inverse_cartan(DynkinType("E", 8))
    assert inv == tuple(tuple(Fraction(x) for x in row) for row in E8_INVERSE)
    assert inv[7] == (2, 3, 4, 6, 5, 4, 3, 2)


def test_small_cartan_matrices():
    assert cartan_matrix(DynkinType("A", 1)) == ((2,),)
    assert cartan_matrix(DynkinType("A", 2)) == ((2, -1), (-1, 2))
    assert cartan_matrix(DynkinType("G", 2)) == ((2, -1), (-3, 2))
    assert cartan_matrix(DynkinType("B", 2)) == ((2, -2), (-1, 2))
    assert cartan_matrix(DynkinType("C", 2)) == ((2, -1), (-2, 2))
    f4 = cartan_matrix(DynkinType("F", 4))
    assert f4[1][2] == -2 and f4[2][1] == -1


def test_small_inverses():
    assert inverse_cartan(DynkinType("A", 1)) == ((Fraction(1, 2),),)
    third = Fraction(1, 3)
    assert inverse_cartan(DynkinType("A", 2)) == (
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
    assert cartan_matrix(t) == _path_cartan(t)


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


def _minors_by_jacobi(t):
    # the leading principal minors of C, read off the checked adjugate:
    # det C[:k, :k] = det * det C**-1[k:, k:] = det adj[k:, k:] / det**(n-k-1)
    # (Jacobi's complementary minor identity), the empty block's det being 1
    det, adj = catalog._adjugate(t)
    n = t.rank
    blocks = (_bareiss([row[k:] for row in adj[k:]])[0] for k in range(1, n))
    return tuple(Fraction(b, det ** (n - k - 1)) for k, b in enumerate(blocks, 1)) + (det,)


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_leading_principal_minors_exact(t):
    assert _minors_by_jacobi(t) == _known_minors(t)


def test_leading_principal_minors_match_the_permutation_expansion():
    # the Leibniz formula on every leading block of each Cartan matrix
    def det(rows):
        total = 0
        for perm in itertools.permutations(range(len(rows))):
            term = math.prod(rows[i][j] for i, j in enumerate(perm))
            if term:
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                total += (-1) ** inversions * term
        return total

    for t in types_up_to(7):
        cm = cartan_matrix(t)
        expected = tuple(det([row[:m] for row in cm[:m]]) for m in range(1, t.rank + 1))
        assert _minors_by_jacobi(t) == expected, t


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_cartan_invariants_hold_across_catalog(t):
    cm = cartan_matrix(t)
    n = len(cm)
    for i in range(n):
        assert cm[i][i] == 2
        for j in range(n):
            if i != j:
                assert cm[i][j] <= 0
                assert (cm[i][j] == 0) == (cm[j][i] == 0)


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_inverse_is_exact_and_positive(t):
    cm = cartan_matrix(t)
    inv = inverse_cartan(t)
    n = t.rank
    for i in range(n):
        for j in range(n):
            prod = sum(cm[i][k] * inv[k][j] for k in range(n))
            assert prod == (1 if i == j else 0)
            assert inv[i][j] > 0


@pytest.mark.parametrize("n", [*range(8, 49, 4), 300])
def test_a_inverse_matches_closed_form(n):
    # C^-1[i][j] = min(i,j) * (n+1-max(i,j)) / (n+1) and b_i = i(n+1-i)/2
    # (1-based) for the path A_n.
    t = DynkinType("A", n)
    inv = inverse_cartan(t)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert inv[i - 1][j - 1] == Fraction(min(i, j) * (n + 1 - max(i, j)), n + 1)
    assert type_profile(t).b == tuple(Fraction(i * (n + 1 - i), 2) for i in range(1, n + 1))


@pytest.mark.parametrize("n", [4, 5, 9, 16, 30, 48, 300])
def test_d_row_sums_match_closed_form(n):
    # b_i = i(2n-i-1)/2 on the long arm, b_{n-1} = b_n = n(n-1)/4 on the fork.
    want = tuple(Fraction(i * (2 * n - i - 1), 2) for i in range(1, n - 1))
    want += (Fraction(n * (n - 1), 4),) * 2
    assert type_profile(DynkinType("D", n)).b == want


@pytest.mark.parametrize("name", ["A5", "D6", "E8", "G2"])
def test_inverse_recheck_catches_a_corrupted_kernel(monkeypatch, name):
    # each branch determinant in turn, raised by 1 (all stay positive), must
    # fail the re-check of C * adj == det * I against the mesh table
    t = DynkinType.from_name(name)
    true_branches = catalog._branches
    keys = list(true_branches(t, catalog._mesh_factors(t)))
    assert len(keys) == 2 * (t.rank - 1) + 1  # both ways along each edge, and the whole
    for key in keys:

        def corrupted(u, table, key=key):
            dets = dict(true_branches(u, table))
            d, p = dets[key]
            dets[key] = d + 1, p
            return dets

        monkeypatch.setattr(catalog, "_branches", corrupted)
        # __wrapped__ bypasses the cache, so no corrupted inverse is stored
        with pytest.raises(ArithmeticError, match="inverse check failed"):
            catalog._adjugate.__wrapped__(t)


def test_tree_inverse_rejects_a_non_positive_branch_determinant(monkeypatch):
    # A2 with m * m' = 4 on its edge: C = ((2, -2), (-2, 2)), determinant 0
    t = DynkinType("A", 2)
    true_table = catalog._mesh_factors
    table = (((1, 2, 1),), ((0, 2, 0),))
    monkeypatch.setattr(catalog, "_mesh_factors", lambda u: table if u == t else true_table(u))
    with pytest.raises(ArithmeticError, match="^A2: branch determinant 0 at vertex 1, not positive$"):
        catalog._adjugate.__wrapped__(t)


def _bareiss(rows):
    """Reference inverse, independent of the tree formulas: fraction-free
    Gauss-Jordan elimination of ``[C | I]`` over ``int`` (Bareiss, 1968).
    Each division is exact, and pivot ``k`` is the ``k``-th leading
    principal minor; all are positive for a finite type, so no row swap.
    Returns the last pivot, ``det``, and ``adj = det * C**-1``."""
    n = len(rows)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        pivot_row, akk = rows[k], rows[k][k]
        assert akk > 0
        for i in range(n):
            if i != k:
                aik = rows[i][k]
                rows[i] = [(akk * x - aik * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = akk
    return prev, [row[n:] for row in rows]


@pytest.mark.parametrize("family", "ABCDEFG")
def test_tree_inverse_matches_the_dense_elimination(family):
    # every type up to rank 40, family by family (E6-E8, F4 and G2 included)
    for t in (t for t in types_up_to(40) if t.family == family):
        det, adj = _bareiss(cartan_matrix(t))
        assert catalog._adjugate(t) == (det, tuple(map(tuple, adj))), t


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
    """The Nakayama twist ``F[i,k] = F[sigma(i), k + c_i]`` (0-based
    vertices) per family, as read off enumerated orbits of small types:
    the independent oracle of the tropical walk in ``catalog.twist``."""
    n, h2 = t.rank, type_profile(t).period_cap
    if t.family == "A":  # i -> n+1-i with c_i = n+2-i, 1-based
        return tuple(n - 1 - i for i in range(n)), tuple(n + 1 - i for i in range(n))
    if t.family == "D" and n % 2:  # D_odd swaps n-1 and n
        return (*range(n - 2), n - 1, n - 2), (h2 // 2,) * n
    if str(t) == "E6":  # (1 6)(3 5)
        return (5, 1, 4, 3, 2, 0), (9, 7, 8, 7, 6, 5)
    return tuple(range(n)), (h2 // 2,) * n  # B, C, D_even, E7, E8, F4, G2


@pytest.mark.parametrize("t", types_up_to(30), ids=str)
def test_twist_matches_the_table(t):
    sigma, c = _tabulated_twist(t)
    assert twist(t) == (sigma, c)
    h2 = type_profile(t).period_cap
    assert search_period(t) == (h2 // 2 if sigma == tuple(range(t.rank)) else h2)


@pytest.mark.parametrize("t", types_up_to(20), ids=str)
def test_all_ones_column_is_a_frieze_within_the_search_period(t):
    # independent of both searches: trace the all-ones seed to h + 2
    q, columns = detect_period(FriezeSlice(t, (1,) * t.rank), catalog.coxeter_number(t) + 2)
    assert search_period(t) % q == 0
    assert verify_pattern(pattern_from_columns(t, columns)) == []


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
        assert prof.d[i] == sum(-cm[i][j] for j in range(t.rank) if j != i)
    if t.family in ("A", "D", "E"):
        # simply laced: d is the plain graph degree
        for i in range(t.rank):
            degree = sum(1 for j in range(t.rank) if j != i and cm[i][j] != 0)
            assert prof.d[i] == degree


def test_profiles_are_pure():
    t = DynkinType("E", 6)
    assert type_profile(t) == type_profile(DynkinType("E", 6))
    assert cartan_matrix(t) == cartan_matrix(DynkinType("E", 6))


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
