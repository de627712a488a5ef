import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezes import (
    CATALOG_SAMPLE,
    DeadEndError,
    DynkinType,
    FriezePattern,
    FriezeSlice,
    IndivisibleError,
    NoRecurrenceError,
    cartan_matrix,
    detect_period,
    mesh_product,
    pattern_from_columns,
    propagate_backward,
    propagate_forward,
    row_products,
    verify_pattern,
)
from friezes.fixtures import E8_EXAMPLE_ROWS
from friezes.mesh import MeshViolation, backward_values, forward_values

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


@pytest.mark.parametrize("i", [0, -1, 9])
def test_mesh_product_rejects_vertices_outside_the_diagram(e8_pattern, i):
    # 0 and -1 would read vertices 8 and 7 through negative indexing
    with pytest.raises(ValueError, match="vertex"):
        mesh_product(i, e8_pattern.columns[0], e8_pattern.columns[1])


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


@pytest.mark.parametrize("name", ["A2", "E8", "A6"])
def test_detect_period_columns_read_like_validated_slices(name, a2_pattern, e8_pattern, a6_pattern):
    pattern = {"A2": a2_pattern, "E8": e8_pattern, "A6": a6_pattern}[name]
    t = pattern.dynkin
    q, columns = detect_period(pattern.columns[0], 2 * pattern.period)
    assert q == len(columns)
    for c in columns:
        assert type(c.values) is tuple and len(c.values) == t.rank
        assert all(type(v) is int and v >= 1 for v in c.values)
        checked = FriezeSlice(t, list(c.values))
        assert c == checked and hash(c) == hash(checked) and repr(c) == repr(checked)


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


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_propagation_never_reads_unwritten_entries(t):
    # each entry of the in-progress column is a kernel local, so walking
    # the vertices in the wrong order would raise UnboundLocalError; the
    # all-ones column propagates one step in every type (divisions by 1
    # are always exact)
    ones = tuple([1] * t.rank)
    assert all(v >= 1 for v in forward_values(t, ones))
    assert all(v >= 1 for v in backward_values(t, ones))


def test_pattern_rows_view(a2_pattern):
    assert a2_pattern.rows() == ((1, 3, 1, 2, 2), (1, 2, 2, 1, 3))


def test_list_built_pattern_is_stored_as_a_tuple(e8_pattern):
    # the pattern's cached views rest on its columns being its own tuple,
    # whatever sequence the caller passed: mutating that list changes nothing
    columns = list(e8_pattern.columns)
    pattern = FriezePattern(E8, columns)
    assert isinstance(pattern.columns, tuple)
    assert pattern == e8_pattern and hash(pattern) == hash(e8_pattern)
    columns[0] = columns[1]
    columns.append(columns[2])
    assert pattern.rows() == E8_EXAMPLE_ROWS
    assert row_products(pattern) == tuple(math.prod(row) for row in E8_EXAMPLE_ROWS)
    assert verify_pattern(pattern) == []


def test_pattern_validation():
    with pytest.raises(ValueError):
        pattern_from_columns(A2, [])
    with pytest.raises(ValueError, match="type"):
        FriezePattern(A2, (FriezeSlice(A1, (1,)),))


# A plain reading of the mesh relation straight from the Cartan matrix,
# independent of the mesh table and of the generated kernels.
def _reference_rhs(t, i, col_k, col_k1):
    rhs = 1
    for j, c in enumerate(cartan_matrix(t)[i]):
        if j != i and c:
            rhs *= (col_k[j] if j < i else col_k1[j]) ** -c
    return 1 + rhs


def _reference_step(t, values, forward):
    n = t.rank
    out = [None] * n
    for i in range(n - 1, -1, -1) if forward else range(n):
        cols = (values, out) if forward else (out, values)
        q, r = divmod(_reference_rhs(t, i, *cols), values[i])
        if r:
            return i + 1
        out[i] = q
    return tuple(out)


def _reference_violations(pattern):
    cols = [c.values for c in pattern.columns]
    out = []
    for k, (col_k, col_k1) in enumerate(zip(cols, cols[1:] + cols[:1])):
        for i in range(pattern.dynkin.rank):
            lhs = col_k[i] * col_k1[i]
            rhs = _reference_rhs(pattern.dynkin, i, col_k, col_k1)
            if lhs != rhs:
                out.append(MeshViolation(i + 1, k, lhs, rhs))
    return out


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernels_match_the_cartan_reference(t, data):
    # small entries so that many draws propagate several vertices deep;
    # a draw that propagates is stepped again from its result
    values = tuple(data.draw(st.lists(st.integers(1, 6), min_size=t.rank, max_size=t.rank)))
    for step, forward in ((forward_values, True), (backward_values, False)):
        cur = values
        for _ in range(3):
            expected = _reference_step(t, cur, forward)
            if isinstance(expected, int):
                with pytest.raises(IndivisibleError) as exc:
                    step(t, cur)
                assert exc.value.vertex == expected
                break
            cur = step(t, cur)
            assert cur == expected


def test_perturbing_any_fixture_entry_breaks_verification(e8_pattern, a6_pattern):
    # the same violations, in the same order, as the Cartan reference
    for pattern in (e8_pattern, a6_pattern):
        cols = [list(c.values) for c in pattern.columns]
        for k, col in enumerate(cols):
            for i in range(len(col)):
                for delta in (1, -1) if col[i] > 1 else (1,):
                    bumped = [c[:] for c in cols]
                    bumped[k][i] += delta
                    perturbed = pattern_from_columns(pattern.dynkin, bumped)
                    got = verify_pattern(perturbed)
                    assert got, f"perturbation at ({i + 1}, {k}) went unnoticed"
                    assert got == _reference_violations(perturbed), (i + 1, k, delta)
