import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezes import (
    CATALOG_SAMPLE,
    DeadEndError,
    DynkinType,
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

A1 = DynkinType("A", 1)
A2 = DynkinType("A", 2)
E8 = DynkinType("E", 8)


def test_slice_validation():
    with pytest.raises(ValueError):
        FriezeSlice(A2, (1,))
    with pytest.raises(ValueError):
        FriezeSlice(A2, (1, 0))
    with pytest.raises(ValueError):
        FriezeSlice(A2, (1, -3))


def test_mesh_product_empty_for_rank_one():
    s = FriezeSlice(A1, (7,))
    assert mesh_product(1, s, s) == 1


def test_mesh_product_a2_uses_lower_neighbor_from_left_column():
    left = FriezeSlice(A2, (1, 1))
    right = FriezeSlice(A2, (9, 9))  # unused by vertex 2
    assert mesh_product(2, left, right) == 1


def test_mesh_product_e8_branch_vertex(e8_pattern):
    got = mesh_product(4, e8_pattern.columns[0], e8_pattern.columns[1])
    assert got == 6 * 11 * 18 == 1188


def test_mesh_product_rejects_mixed_types():
    with pytest.raises(ValueError):
        mesh_product(1, FriezeSlice(A1, (1,)), FriezeSlice(A2, (1, 1)))


def test_propagate_forward_a2():
    assert propagate_forward(FriezeSlice(A2, (1, 1))).values == (3, 2)
    assert propagate_forward(FriezeSlice(A2, (2, 3))).values == (1, 1)


def test_propagate_forward_a1():
    assert propagate_forward(FriezeSlice(A1, (1,))).values == (2,)


def test_propagate_forward_e8_fixture_column(e8_pattern):
    got = propagate_forward(e8_pattern.columns[0])
    assert got.values == e8_pattern.columns[1].values == (4, 7, 15, 41, 18, 13, 8, 3)


def test_propagate_backward_examples(e8_pattern):
    assert propagate_backward(FriezeSlice(A2, (3, 2))).values == (1, 1)
    assert propagate_backward(FriezeSlice(A1, (2,))).values == (1,)
    got = propagate_backward(e8_pattern.columns[1])
    assert got.values == e8_pattern.columns[0].values


def test_indivisible_reports_vertex():
    with pytest.raises(IndivisibleError) as exc:
        propagate_forward(FriezeSlice(A2, (2, 2)))
    assert exc.value.vertex == 2


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["A1", "A2", "A3", "B2", "C2", "G2", "D4"]),
    st.data(),
)
def test_round_trip_where_forward_succeeds(name, data):
    t = DynkinType.from_name(name)
    values = tuple(
        data.draw(st.integers(min_value=1, max_value=30)) for _ in range(t.rank)
    )
    s = FriezeSlice(t, values)
    try:
        forward = propagate_forward(s)
    except IndivisibleError:
        return
    assert propagate_backward(forward) == s
    try:
        backward = propagate_backward(s)
    except IndivisibleError:
        return
    assert propagate_forward(backward) == s


def test_detect_period_a2():
    q, columns = detect_period(FriezeSlice(A2, (1, 1)), 7)
    assert q == 5
    assert [c.values for c in columns] == [(1, 1), (3, 2), (1, 2), (2, 1), (2, 3)]
    assert len(set(c.values for c in columns)) == q


def test_list_valued_slice_is_stored_as_a_tuple_and_recurs():
    s = FriezeSlice(A2, [1, 1])
    assert s.values == (1, 1) and s == FriezeSlice(A2, (1, 1))
    q, _ = detect_period(s, 10)
    assert q == 5


def test_detect_period_a1():
    q, columns = detect_period(FriezeSlice(A1, (1,)), 4)
    assert q == 2
    assert [c.values for c in columns] == [(1,), (2,)]


def test_detect_period_e8_fixture(e8_pattern):
    q, columns = detect_period(e8_pattern.columns[0], 32)
    assert q == 4
    assert 16 % q == 0  # divides the nominal period for this type
    assert tuple(c.values for c in columns) == tuple(c.values for c in e8_pattern.columns)


def test_detect_period_dead_end():
    with pytest.raises(DeadEndError) as exc:
        detect_period(FriezeSlice(A2, (2, 2)), 10)
    assert exc.value.step == 1
    assert exc.value.vertex == 2


def test_detect_period_no_recurrence_on_tight_cap():
    with pytest.raises(NoRecurrenceError):
        detect_period(FriezeSlice(A2, (1, 1)), 3)


def test_detect_period_rejects_bad_cap():
    with pytest.raises(ValueError):
        detect_period(FriezeSlice(A1, (1,)), 0)


def test_verify_fixture_ok(e8_pattern):
    assert verify_pattern(e8_pattern) == []


def test_verify_a2_orbit_ok(a2_pattern):
    assert verify_pattern(a2_pattern) == []


def test_verify_constant_one_single_column_fails():
    pattern = pattern_from_columns(A2, [(1, 1)])
    violations = verify_pattern(pattern)
    assert violations
    v = violations[0]
    assert (v.vertex, v.column, v.lhs, v.rhs) == (1, 0, 1, 2)


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_constant_one_is_never_a_frieze(t):
    pattern = pattern_from_columns(t, [tuple([1] * t.rank)])
    assert verify_pattern(pattern)


def test_verify_rotation_invariance(e8_pattern):
    cols = [c.values for c in e8_pattern.columns]
    for r in range(len(cols)):
        rotated = pattern_from_columns(E8, cols[r:] + cols[:r])
        assert verify_pattern(rotated) == []


def test_perturbing_any_fixture_entry_breaks_verification(e8_pattern):
    cols = [list(c.values) for c in e8_pattern.columns]
    for k in range(len(cols)):
        for i in range(8):
            bumped = [col[:] for col in cols]
            bumped[k][i] += 1
            pattern = pattern_from_columns(E8, [tuple(c) for c in bumped])
            assert verify_pattern(pattern), f"perturbation at ({i + 1}, {k}) went unnoticed"


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_propagation_never_reads_unwritten_entries(t):
    # the in-progress column is seeded with None, so walking the vertices
    # in the wrong order would raise immediately; the all-ones column
    # propagates one step in every type (divisions by 1 are always exact)
    from friezes.mesh import backward_values, forward_values

    ones = tuple([1] * t.rank)
    assert all(v >= 1 for v in forward_values(t, ones))
    assert all(v >= 1 for v in backward_values(t, ones))


def test_pattern_rows_view(a2_pattern):
    assert a2_pattern.rows() == ((1, 3, 1, 2, 2), (1, 2, 2, 1, 3))


def test_pattern_validation():
    with pytest.raises(ValueError):
        pattern_from_columns(A2, [])
    with pytest.raises(ValueError, match="type"):
        from friezes import FriezePattern

        FriezePattern(A2, 1, (FriezeSlice(A1, (1,)),))
