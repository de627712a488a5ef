import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezes import (
    CATALOG_SAMPLE,
    DynkinType,
    a_vector,
    bounds_report,
    check_pattern_against_bounds,
    entry_caps,
    floor_pow2,
    integer_root,
    interval_certificate,
    inverse_cartan,
    pattern_from_columns,
    row_products,
    type_profile,
    verify_pattern,
)
from friezes.formats import bounds_payload

A1 = DynkinType("A", 1)

REFERENCE_A = (1.79248, 2.57480, 3.45644, 5.10777, 4.18304, 3.25390, 2.30720, 1.29248)
REFERENCE_CA = (0.12852, 0.04184, 0.01263, 0.00125, 0.00442, 0.01755, 0.06803, 0.27776)


@given(st.integers(min_value=0, max_value=10**24), st.integers(min_value=1, max_value=7))
@settings(max_examples=300, deadline=None)
def test_integer_root_is_floor_root(x, k):
    r = integer_root(x, k)
    assert r**k <= x < (r + 1) ** k


def test_integer_root_rejects_bad_input():
    with pytest.raises(ValueError):
        integer_root(-1, 2)
    with pytest.raises(ValueError):
        integer_root(4, 0)


@pytest.mark.parametrize(
    "e,expected",
    [
        (Fraction(3), 8),
        (Fraction(1, 2), 1),
        (Fraction(3, 2), 2),
        (Fraction(5, 2), 5),
        (Fraction(464), 2**464),
    ],
)
def test_floor_pow2(e, expected):
    assert floor_pow2(e) == expected


def test_floor_pow2_rejects_nonpositive():
    with pytest.raises(ValueError):
        floor_pow2(Fraction(0))


def test_row_products_unroll_exactly(e8_pattern):
    base = row_products(e8_pattern)
    lifted = row_products(e8_pattern, 16)
    assert lifted == tuple(x**4 for x in base)
    assert base[7] == 2 * 3 * 3 * 2 == 36
    assert lifted[7] == 36**4 == 1679616


def test_a_vector_matches_reference_values(e8_pattern):
    vec = a_vector(e8_pattern, 16)
    for got, want in zip(vec.a, REFERENCE_A):
        assert abs(got - want) < 1e-4
    for got, want in zip(vec.ca, REFERENCE_CA):
        assert abs(got - want) < 1e-4


def test_a_vector_independent_of_unrolling(e8_pattern):
    assert a_vector(e8_pattern).a == a_vector(e8_pattern, 16).a


def test_a_vector_rejects_non_multiple(e8_pattern):
    with pytest.raises(ValueError):
        a_vector(e8_pattern, 6)


def test_a_vector_a1_boundary():
    pattern = pattern_from_columns(A1, [(1,), (2,)])
    vec = a_vector(pattern, 2)
    assert vec.a == (0.5,)
    assert vec.ca == (1.0,)


def test_a_vector_invariant_under_rotation(e8_pattern):
    cols = [c.values for c in e8_pattern.columns]
    rotated = pattern_from_columns(e8_pattern.dynkin, cols[2:] + cols[:2])
    assert a_vector(rotated, 16).a == a_vector(e8_pattern, 16).a


def test_interval_certificate_a2(a2_pattern):
    cert = interval_certificate(a2_pattern, 5)
    assert cert.row_squares == (144, 144)
    assert cert.neighbor_products == (12, 12)
    assert cert.verdicts == (True, True)
    assert 12 < 144 <= 32 * 12


def test_interval_certificate_a1_tight_upper_end():
    pattern = pattern_from_columns(A1, [(1,), (2,)])
    cert = interval_certificate(pattern, 2)
    assert cert.row_squares == (4,)
    assert cert.neighbor_products == (1,)
    assert cert.verdicts == (True,)
    assert cert.row_squares[0] == (1 << 2) * cert.neighbor_products[0]  # boundary case


def test_interval_certificate_e8(e8_pattern):
    assert interval_certificate(e8_pattern, 16).passed


def test_certificate_agrees_with_floating_view(e8_pattern, a2_pattern):
    for pattern in (e8_pattern, a2_pattern):
        cert = interval_certificate(pattern)
        vec = a_vector(pattern)
        for ok, ca in zip(cert.verdicts, vec.ca):
            assert ok
            assert -1e-9 < ca < 1 + 1e-9


def test_bounds_report_e8():
    rep = bounds_report(DynkinType("E", 8), 16)
    assert rep.b == (46, 68, 91, 135, 110, 84, 57, 29)
    assert rep.entry_cap_exponents[7] == 464
    assert rep.count_bound_exponent == 158720
    assert rep.refined_base == Fraction(151875, 16384)
    assert abs(rep.refined_flat_log2 - 51.40) < 0.01
    assert abs(rep.refined_rowwise_log2[7] - 164.24) < 0.01


def test_bounds_report_a1():
    rep = bounds_report(A1, 2)
    assert rep.b == (Fraction(1, 2),)
    assert rep.entry_cap_exponents == (1,)
    assert rep.count_bound_exponent == 2


def test_count_bound_identity():
    for t in CATALOG_SAMPLE:
        for p in (1, 2, 16):
            rep = bounds_report(t, p)
            assert rep.count_bound_exponent == p * sum(rep.entry_cap_exponents)


@pytest.mark.parametrize("name,p", [("A48", 7), ("A48", 50), ("D9", 16)])
def test_bounds_report_matches_direct_formula(name, p):
    # The per-type cache must not change a bit of the report: recompute it
    # here straight from the inverse, in the original order of operations.
    t = DynkinType.from_name(name)
    inv = inverse_cartan(t).entries
    b = type_profile(t).b
    d = type_profile(t).d
    log_terms = [math.log2(2**dj + 1) - dj for dj in d]
    rowwise = tuple(
        p * math.fsum(float(inv[i][j]) * log_terms[j] for j in range(t.rank))
        for i in range(t.rank)
    )
    base = math.prod((Fraction(2**dj + 1, 2**dj) for dj in d), start=Fraction(1))
    rep = bounds_report(t, p)
    assert rep.b == b
    assert rep.entry_cap_exponents == tuple(p * bi for bi in b)
    assert rep.count_bound_exponent == p * p * sum(b, Fraction(0))
    assert rep.refined_rowwise_log2 == rowwise
    assert rep.refined_base == base
    assert rep.refined_flat_log2 == p * (math.log2(base.numerator) - math.log2(base.denominator))


def test_bounds_report_rejects_bad_period():
    with pytest.raises(ValueError):
        bounds_report(A1, 0)


def test_check_pattern_against_bounds(e8_pattern, a2_pattern):
    assert check_pattern_against_bounds(e8_pattern, 16).passed
    chk = check_pattern_against_bounds(a2_pattern, 5)
    assert chk.passed
    assert row_products(a2_pattern, 5) == (12, 12)  # 12 <= 2**5


def test_check_bounds_a1_tight():
    pattern = pattern_from_columns(A1, [(1,), (2,)])
    chk = check_pattern_against_bounds(pattern, 2)
    assert chk.passed
    assert row_products(pattern, 2) == (2,)  # equals the cap 2**(2 * 1/2) exactly


@pytest.mark.parametrize(
    "columns,row_product_ok,entry_ok",
    [
        # row 1 of A3 at period 5 is capped at floor(2**7.5) = 181
        ([(181, 1, 1)] + [(1, 1, 1)] * 4, True, True),
        ([(182, 1, 1)] + [(1, 1, 1)] * 4, False, False),
        # product 14 * 13 = 182 is over the cap, every entry under it
        ([(14, 1, 1), (13, 1, 1)] + [(1, 1, 1)] * 3, False, True),
    ],
    ids=["entry-at-cap", "entry-over-cap", "product-over-cap"],
)
def test_caps_at_a_fractional_exponent(columns, row_product_ok, entry_ok):
    # the pattern is not a frieze: the caps test does not verify meshes
    pattern = pattern_from_columns(DynkinType("A", 3), columns)
    chk = check_pattern_against_bounds(pattern, 5)
    assert chk.row_product_ok == (row_product_ok, True, True)
    assert chk.entry_ok == (entry_ok, True, True)


def test_refined_min2_a1():
    rep = bounds_report(A1, 2)
    assert len(rep.refined_rowwise_log2) == 1
    formula, flat = rep.refined_rowwise_log2[0], rep.refined_flat_log2
    # d = (0): the per-row formula gives p * (1/2) * log2(2) = 1; the flat
    # reading exponentiates the whole base by p and gives p * log2(2) = 2
    assert abs(formula - 1.0) < 1e-9
    assert abs(flat - 2.0) < 1e-9


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_refined_formula_never_exceeds_plain_cap(t):
    p = 16
    rep = bounds_report(t, p)
    for i in range(t.rank):
        assert rep.refined_rowwise_log2[i] <= float(p * rep.b[i]) + 1e-9


def test_refined_flat_is_row_independent():
    payload = bounds_payload(bounds_report(DynkinType("E", 8), 16), True)
    flats = payload["refined_flat_log2"]
    assert len(flats) == 8
    assert len(set(flats)) == 1


def test_log_precision_documented_target(e8_pattern):
    # floats are evaluated from exact integers at the last step; verify a
    # couple against cross-checks well inside the 1e-9 documented target
    prods = row_products(e8_pattern, 16)
    vec = a_vector(e8_pattern, 16)
    for i in (0, 7):
        want = math.log2(prods[i]) / 16
        assert abs(vec.a[i] - want) < 1e-12


def test_entry_caps_match_profile():
    for t in CATALOG_SAMPLE:
        prof = type_profile(t)
        rep = bounds_report(t, 3)
        assert rep.b == prof.b
        assert rep.d == prof.d


def _conway_coxeter_pattern(quiddity):
    """The A_n frieze of a triangulated ``(n+3)``-gon with this quiddity:
    ``F[i,k]`` is the continuant of ``a[1-k], ..., a[i-k]``, indices mod
    ``n+3`` (Conway-Coxeter)."""
    size = len(quiddity)
    n = size - 3

    def continuant(seq):
        prev, cur = 0, 1
        for a in seq:
            prev, cur = cur, a * cur - prev
        return cur

    columns = [
        [continuant(quiddity[(x - k) % size] for x in range(1, i + 1)) for i in range(1, n + 1)]
        for k in range(size)
    ]
    return pattern_from_columns(DynkinType("A", n), columns)


# triangles (0,1,2) (0,2,5) (2,3,5) (3,4,5) (0,5,8) (5,6,8) (6,7,8) of a 9-gon
CONWAY_COXETER_A6 = _conway_coxeter_pattern([3, 1, 3, 2, 1, 5, 2, 1, 3])

READ_PATH = (
    lambda f, p: f.rows(),
    row_products,
    a_vector,
    interval_certificate,
    check_pattern_against_bounds,
)


@pytest.mark.parametrize("order", [1, -1], ids=["rows-first", "caps-first"])
@pytest.mark.parametrize("name", ["E8", "A6"])
def test_cached_pattern_reads_like_a_fresh_one(name, order, e8_pattern):
    pattern = e8_pattern if name == "E8" else CONWAY_COXETER_A6
    assert verify_pattern(pattern) == []

    def fresh():
        return pattern_from_columns(pattern.dynkin, [list(c.values) for c in pattern.columns])

    warm = fresh()
    periods = [m * pattern.period for m in (1, 2, 7)][::order]
    for p in periods:
        for read in READ_PATH[::order]:
            # each fresh pattern starts with empty caches
            assert read(warm, p) == read(fresh(), p), (p, read)
        unrolled = pattern.columns * (p // pattern.period)
        assert row_products(warm, p) == tuple(
            math.prod(c.values[i] for c in unrolled) for i in range(pattern.dynkin.rank)
        )
    assert warm == fresh() and hash(warm) == hash(fresh()) and repr(warm) == repr(fresh())
    for p in periods:
        caps = tuple(floor_pow2(p * b) for b in type_profile(pattern.dynkin).b)
        assert entry_caps(pattern.dynkin, p) == caps
        assert entry_caps(pattern.dynkin, p) == caps  # read again from the cache
