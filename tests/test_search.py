import hashlib
import math
import multiprocessing
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from friezes import (
    DynkinType,
    SearchConfig,
    a_vector,
    check_pattern_against_bounds,
    default_strategy,
    detect_period,
    enumerate_friezes,
    interval_certificate,
    pattern_from_columns,
    propagate_backward,
    propagate_forward,
    entry_caps,
    type_profile,
    verify_pattern,
)
from conftest import CATALOG_SAMPLE, continuant, conway_coxeter_columns
from friezes.catalog import search_period, twist
from friezes.mesh import _product
from friezes.search import (
    _INVERSE_TABLE_LIMIT,
    _canonical_columns,
    _closing_candidates,
    _column_partition,
    _column_plan,
    _congruence_candidates,
    _divisors,
    _force,
    _next_top_cap,
    _reconstruct,
    _solvable_coordinates,
    _solve_plan,
    _start_values,
    _Tally,
    stderr_progress,
)

DESK_TYPES = ["A1", "A2", "A3", "B2", "C2", "G2"]
KNOWN_COUNTS = {"A1": 2, "A2": 5, "A3": 14, "B2": 6, "C2": 6, "G2": 9}

PLAN_TYPES = [
    DynkinType(family, n)
    for family, low in (("A", 2), ("B", 2), ("C", 2), ("D", 4))
    for n in range(low, 13)
] + [DynkinType("E", n) for n in (6, 7, 8)] + [DynkinType("F", 4), DynkinType("G", 2)]


def outcome(name, strategy, period=None, **kw):
    """Enumerate ``name``.  ``period`` runs the same search code at that
    period in place of ``search_period``: at ``h + 2`` it is the
    half-period oracle.  The partition jobs carry the period, so pool
    workers see it too."""
    cfg = SearchConfig(dynkin=DynkinType.from_name(name), strategy=strategy, **kw)
    if period is None:
        return enumerate_friezes(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("friezes.search.search_period", lambda t: period)
        return enumerate_friezes(cfg)


def orbit_keys(out):
    return [tuple(c.values for c in o.columns) for o in out.orbits]


def clipped_caps(t, p, cap):
    """The search's entry caps: the theorem's caps, clipped by an override."""
    caps = entry_caps(t, p)
    return caps if cap is None else tuple(min(c, cap) for c in caps)


def test_a1_brute_force_oracle():
    # independent check: scan the whole cap box with inline mesh relations
    valid = set()
    for v in range(1, 5):
        cur, ok = v, False
        for _ in range(4):
            if 2 % cur:
                break
            cur = 2 // cur
            if cur == v:
                ok = True
                break
        if ok:
            valid.add(v)
    assert valid == {1, 2}
    out = outcome("A1", "column_dfs")
    assert out.frieze_count == len(valid) == 2
    assert len(out.orbits) == 1 and out.orbits[0].period == 2


def test_a2_brute_force_oracle():
    # scan all seed columns up to the caps, iterating the two A2 mesh
    # relations inline; independent of the library's propagation code
    valid = set()
    for a in range(1, 33):
        for b in range(1, 33):
            cur = (a, b)
            for _ in range(5):
                x, y = cur
                if (1 + x) % y:
                    break
                y2 = (1 + x) // y
                if (1 + y2) % x:
                    break
                cur = ((1 + y2) // x, y2)
                if cur == (a, b):
                    valid.add((a, b))
                    break
    assert len(valid) == 5
    out = outcome("A2", "column_dfs")
    assert out.frieze_count == 5
    engine_columns = {c.values for o in out.orbits for c in o.columns}
    assert engine_columns == valid


@pytest.mark.parametrize(
    "name,period",
    # G2 at period 12: the tripled edge's top-row generator over a long seed row
    [*((name, None) for name in DESK_TYPES), pytest.param("G2", 12, marks=pytest.mark.slow)],
    ids=[*DESK_TYPES, "G2@12"],
)
def test_known_counts_both_strategies(name, period):
    col = outcome(name, "column_dfs", period)
    row = outcome(name, "row_seeded", period)
    assert col.frieze_count == KNOWN_COUNTS[name]
    assert row.frieze_count == KNOWN_COUNTS[name]
    assert col.complete and row.complete
    assert orbit_keys(col) == orbit_keys(row)


def _triangulations(vertices):
    """Every triangulation of the convex polygon on ``vertices``, as a
    list of triangles: the edge from the first to the last vertex lies in
    exactly one triangle, whose apex splits the rest in two."""
    if len(vertices) < 3:
        return [[]]
    out = []
    for k in range(1, len(vertices) - 1):
        for left in _triangulations(vertices[: k + 1]):
            for right in _triangulations(vertices[k:]):
                out.append(left + right + [(vertices[0], vertices[k], vertices[-1])])
    return out


@pytest.mark.parametrize("strategy", ["column_dfs", "row_seeded"])
@pytest.mark.parametrize(
    "n,cap,count",
    [
        (1, None, 2),
        (2, None, 5),
        (3, None, 14),
        (4, 16, 42),
        (5, 16, 132),
        (6, 32, 429),
        (7, 64, 1430),
        (8, 64, 4862),
        pytest.param(9, 128, 16796, marks=pytest.mark.slow),
    ],
    ids=["A1", "A2", "A3", "A4@16", "A5@16", "A6@32", "A7@64", "A8@64", "A9@128"],
)
def test_a_n_matches_conway_coxeter_triangulations(n, cap, count, strategy):
    # Conway-Coxeter: the A_n friezes are the triangulations of an
    # (n+3)-gon.  With quiddity a (triangles per polygon vertex), the
    # frieze has F[i,k] = K(a[1-k], ..., a[i-k]) for the continuant K,
    # indices mod n+3; independent of both search strategies.  Every
    # A4-A9 frieze fits under the entry cap given, so those runs are
    # uncertified but must still find every orbit.
    size = n + 3
    triangulations = _triangulations(list(range(size)))
    assert len(triangulations) == count
    expected = {}
    columns = set()
    for tri in triangulations:
        a = [sum(v in t for t in tri) for v in range(size)]
        cols = conway_coxeter_columns(a)
        columns.add(cols[0])
        q = next(d for d in range(1, size + 1) if cols[d:] + cols[:d] == cols)
        rotations = [tuple(cols[(r + x) % q] for x in range(q)) for r in range(q)]
        expected[min(rotations)] = q
    assert len(columns) == count

    out = outcome(f"A{n}", strategy, entry_cap_override=cap)
    assert out.complete is (cap is None) and out.frieze_count == count
    assert dict(zip(orbit_keys(out), (o.period for o in out.orbits))) == expected
    assert {c.values for o in out.orbits for c in o.columns} == columns


def test_a3_catalan_count():
    assert outcome("A3", "column_dfs").frieze_count == 14


def test_b2_c2_counts_agree():
    # the two rank-2 doubled-edge conventions are transposes of each other
    assert outcome("B2", "column_dfs").frieze_count == outcome("C2", "column_dfs").frieze_count


@pytest.mark.parametrize("name", DESK_TYPES)
def test_enumerated_orbits_satisfy_all_invariants(name):
    out = outcome(name, default_strategy(DynkinType.from_name(name)))
    cap = type_profile(DynkinType.from_name(name)).period_cap
    for orbit in out.orbits:
        # the stored period is minimal and the columns follow propagation
        assert detect_period(orbit.columns[0], cap) == (orbit.period, list(orbit.columns))
        assert verify_pattern(orbit) == []
        assert interval_certificate(orbit).passed
        assert check_pattern_against_bounds(orbit).passed
        assert cap % orbit.period == 0
        vec = a_vector(orbit)
        assert all(-1e-9 < x < 1 + 1e-9 for x in vec.ca)
        for column in orbit.columns:
            assert propagate_backward(propagate_forward(column)) == column


@pytest.mark.parametrize("name", DESK_TYPES)
def test_orbits_pairwise_non_rotation_equivalent(name):
    out = outcome(name, "column_dfs")
    seen = set()
    for orbit in out.orbits:
        cols = [c.values for c in orbit.columns]
        rotations = {
            tuple(cols[(r + m) % len(cols)] for m in range(len(cols)))
            for r in range(len(cols))
        }
        assert not (rotations & seen)
        seen |= rotations


def test_orbit_is_canonical_rotation():
    out = outcome("A2", "column_dfs")
    cols = [c.values for c in out.orbits[0].columns]
    rotations = [
        tuple(cols[(r + m) % len(cols)] for m in range(len(cols))) for r in range(len(cols))
    ]
    assert tuple(cols) == min(rotations)


@pytest.mark.parametrize(
    "name,strategy,kw",
    [
        pytest.param("A3", "column_dfs", {}, id="A3-column_dfs"),
        pytest.param("G2", "row_seeded", {}, id="G2-row_seeded"),
        pytest.param("A3", "row_seeded", {}, id="A3-row_seeded"),
        # doubled edge under override: cut-off and pinned tail at rank 3
        pytest.param("B3", "row_seeded", {"entry_cap_override": 32}, id="B3-row_seeded-32"),
        # divide step: stuck-mesh pruning and leaf branching
        pytest.param("D4", "row_seeded", {"entry_cap_override": 8}, id="D4-row_seeded-8"),
        # partitions 1 and 2 each note a seed that does not recur: the
        # merge keeps every job's notes, in job order
        pytest.param("A2", "column_dfs", {"period": 3}, id="A2-column_dfs-period3"),
        # certified: the pool merges the 8 partitions of the D divide step
        pytest.param("D4", "row_seeded", {}, id="D4-row_seeded", marks=pytest.mark.slow),
    ],
)
def test_outcome_deterministic_and_parallel_invariant(name, strategy, kw):
    first = outcome(name, strategy, **kw)
    second = outcome(name, strategy, **kw)
    parallel = outcome(name, strategy, jobs=3, **kw)
    assert first == second == parallel
    assert first.nodes_explored > 0


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
@pytest.mark.parametrize(
    "name,kw",
    [
        # a period the workers cannot derive: only the job carries it
        pytest.param("G2", {"period": 8}, id="G2-period8"),
        pytest.param("D4", {"entry_cap_override": 8}, id="D4-cap8"),
    ],
)
def test_partition_pool_under_fresh_interpreter_start_methods(monkeypatch, method, name, kw):
    # workers started by spawn or forkserver import the library afresh and
    # inherit nothing of the parent, not even the search_period seam
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    serial = outcome(name, "row_seeded", **kw)
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
    assert outcome(name, "row_seeded", jobs=2, **kw) == serial


def test_override_monotonicity():
    counts = []
    for cap in (1, 2, 3, 4, 16, 32):
        out = outcome("A2", "column_dfs", entry_cap_override=cap)
        counts.append(out.frieze_count)
        full_caps = entry_caps(DynkinType("A", 2), 5)
        assert out.complete == (cap >= max(full_caps))
    assert counts == sorted(counts)
    assert counts[-1] == 5


def test_override_marks_incomplete():
    out = outcome("A2", "column_dfs", entry_cap_override=2)
    assert not out.complete
    full = outcome("A2", "column_dfs", entry_cap_override=32)
    assert full.complete  # override at the exact caps truncates nothing


@pytest.mark.parametrize(
    "name,cap,expected",
    [
        ("D4", 8, 19),
        ("D5", 6, 2),
        ("D5", 8, 27),  # forced rows after the divide step
        ("E6", 6, 0),
        ("C3", 32, 20),  # exercises square-root extraction and quadratic congruences
        ("B3", 32, 21),
        ("F4", 16, 7),  # interior double edge
        ("B4", 12, 15),
        ("C4", 12, 10),
        # every D4 frieze (the Fontaine-Plamondon count 51) happens to fit
        # under an entry cap of 16; row_seeded reaches them through the
        # divide-step leaf
        ("D4", 16, 51),
        # the doubled-edge top row's generator where its cell cap binds
        ("C4", 4096, 70),
        ("C5", 256, 252),
        # the E divide step: 5,739,065 row-seeded nodes
        pytest.param("E6", 12, 7, marks=pytest.mark.slow),
    ],
)
def test_cross_strategy_under_override(name, cap, expected):
    col = outcome(name, "column_dfs", entry_cap_override=cap)
    row = outcome(name, "row_seeded", entry_cap_override=cap)
    assert col.frieze_count == row.frieze_count == expected
    assert orbit_keys(col) == orbit_keys(row)
    assert not col.complete and not row.complete


def fontaine_plamondon_count(n):
    """Number of friezes of type D_n (Fontaine and Plamondon):
    ``sum_{m=1..n} d(m) * C(2n - m - 1, n - m)``, ``d(m)`` the number of
    divisors of ``m``."""
    return sum(
        sum(1 for k in range(1, m + 1) if m % k == 0) * math.comb(2 * n - m - 1, n - m)
        for m in range(1, n + 1)
    )


def test_d4_override_sixteen_finds_all_fifty_one():
    # all 51 D4 friezes, the certified row_seeded orbits, fit under cap 16
    col = outcome("D4", "column_dfs", entry_cap_override=16)
    assert col.frieze_count == fontaine_plamondon_count(4)
    assert orbit_keys(col) == orbit_keys(outcome("D4", "row_seeded"))


@pytest.mark.parametrize("name,cap,count", [("D5", 64, 187), ("D6", 256, 695)])
def test_type_d_counts_match_fontaine_plamondon(name, cap, count):
    # every frieze of D5 and D6 happens to fit under these caps; the caps
    # are below the certified ones, so neither run is complete
    assert fontaine_plamondon_count(int(name[1:])) == count
    out = outcome(name, "column_dfs", entry_cap_override=cap)
    assert out.frieze_count == count
    assert not out.complete


@pytest.mark.parametrize("n,cap", [(2, None), (3, None), (4, 64)], ids=["C2", "C3", "C4@64"])
def test_type_c_counts_match_the_central_binomial(n, cap):
    # type C_n has C(2n, n) friezes; every C4 frieze fits under an entry
    # cap of 64, so that run is uncertified but must still find all 70.
    # Certified C3 runs the row-seeded doubled-edge congruence at every
    # partition, including ones whose limits leave no candidate.
    col = outcome(f"C{n}", "column_dfs", entry_cap_override=cap)
    row = outcome(f"C{n}", "row_seeded", entry_cap_override=cap)
    for out in (col, row):
        assert out.frieze_count == math.comb(2 * n, n)
        assert out.complete is (cap is None) and out.notes == ()
    assert orbit_keys(col) == orbit_keys(row)


@pytest.mark.parametrize("name,cap", [("A3", None), ("C3", None), ("D4", 16), ("E6", 12)])
def test_column_partitions_hold_their_row_minimum(name, cap):
    # partition `start` returns exactly the orbits whose row-n minimum is
    # `start`, so no two partitions share an orbit and together they find
    # every orbit of the whole search
    t = DynkinType.from_name(name)
    p = search_period(t)
    caps = clipped_caps(t, p, cap)
    seen = set()
    for start in _start_values(t, caps):
        tally = _Tally()
        _column_partition(t, caps, p, start, tally)
        for key in tally.orbits:
            assert min(col[-1] for col in key) == start, (start, key)
        assert not seen & tally.orbits
        seen |= tally.orbits
    assert seen == set(orbit_keys(outcome(name, "column_dfs", entry_cap_override=cap)))


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_start_values_fit_the_row_n_caps(t):
    # the row-seeded partition tests no start value against row n's caps:
    # every start is within the entry cap, and start**p within the
    # product cap, at either period and under any override
    for p in (search_period(t), type_profile(t).period_cap):
        for override in (None, 1, 8):
            caps = clipped_caps(t, p, override)
            top = _start_values(t, caps)[-1]  # the range's largest value
            assert top <= caps[-1]
            assert top**p <= entry_caps(t, p)[-1]


# Verified friezes, rows in index order: E6 of period 7, D4 and B3 of
# period 4.  Both D4 friezes share row 4: the divide step branches.
E6_ROWS = (
    (1, 4, 2, 2, 4, 1, 5),
    (2, 6, 1, 11, 1, 6, 2),
    (4, 3, 7, 3, 7, 3, 4),
    (3, 11, 5, 10, 10, 5, 11),
    (4, 4, 3, 7, 3, 7, 3),
    (1, 5, 1, 4, 2, 2, 4),
)
D4_FRIEZES = (
    ((1, 4, 3, 2), (1, 3, 11, 5), (1, 2, 2, 6), (2, 1, 4, 3)),
    ((2, 2, 6, 1), (1, 3, 11, 5), (2, 1, 4, 3), (2, 1, 4, 3)),
)
B3_ROWS = ((1, 6, 2, 2), (1, 5, 11, 3), (1, 2, 3, 4))


def test_e6_reconstruction_from_seed_row():
    # the leaf completes a seed row whose wave rows the wavefront solved but
    # for their wrap-around cells: E6 at its full period 14 and D4 (divide
    # step and tail) at 4, and B3 (pinned plan, no divide step) at 4
    for name, friezes, p in (("E6", [E6_ROWS], 14), ("D4", D4_FRIEZES, 4), ("B3", [B3_ROWS], 4)):
        t = DynkinType.from_name(name)
        expected = []
        for rows in friezes:
            q = len(rows[0])
            columns = [tuple(row[k] for row in rows) for k in range(q)]
            assert verify_pattern(pattern_from_columns(t, columns)) == [], name
            expected.append(columns * (p // q))
        caps = entry_caps(t, p)
        # column-major: cols[c][i] = F[i+1, c+1]
        cols = [[0] * (t.rank - 1) + [col[-1]] for col in expected[0]]
        solve_plan = _solve_plan(t)
        for level, step in enumerate(solve_plan[0], 1):
            assert _force(cols, step, caps, range(p - level)), name
        assert list(_reconstruct(cols, solve_plan, caps, _Tally())) == expected, name


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "E6", "E7", "E8"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stuck_mesh_division_is_exact(name, data):
    # the row-seeded wavefront divides the divide step's stuck mesh
    # F[x,k] * F[x,k+1] - 1 by its known factor without a remainder test.
    # Draw seed rows t_1, t_2, ... from 1..50, each t_j among the values
    # for which every wave step solves its new cell, and check that
    # division at every column where its cells are solved.
    t = DynkinType.from_name(name)
    n = t.rank
    wave, (_, _, x, known, _), _, _ = _solve_plan(t)
    lead = len(wave)
    caps = (10**40,) * n
    cols = [[0] * n for _ in range(lead + 6)]  # column-major, as the search
    cols[0][n - 1] = data.draw(st.integers(1, 50))

    def solve(cols, j):  # the new cells of seed position j, step i at column j - i - 1
        return all(_force(cols, step, caps, [j - i - 1]) for i, step in enumerate(wave) if j > i)

    for j in range(1, len(cols)):
        values = []
        for v in range(1, 51):
            trial = [list(col) for col in cols]
            trial[j][n - 1] = v
            if solve(trial, j):
                values.append(v)
        cols[j][n - 1] = data.draw(st.sampled_from(values))
        assert solve(cols, j)
    for k in range(len(cols) - lead - 1):  # row x is solved at columns 0 .. len - lead - 1
        pair = (cols[k], cols[k + 1])
        assert (cols[k][x] * cols[k + 1][x] - 1) % _product(pair, known) == 0, (k, cols)


def test_e6_column_search_finds_the_period_seven_orbit():
    out = outcome("E6", "column_dfs", entry_cap_override=12)
    assert out.frieze_count == 7
    assert [o.period for o in out.orbits] == [7]
    assert verify_pattern(out.orbits[0]) == []


@pytest.mark.parametrize("t", [DynkinType("A", 1), *PLAN_TYPES], ids=str)
def test_column_plan_free_depths(t):
    # a depth with no generator and no due cell whose coordinate the next
    # generator multiplies in: the branch vertex's free neighbour in type E.
    # Each plan built here also runs _column_plan's generator assertion.
    caps = clipped_caps(t, search_period(t), 64)
    free = [d for d in range(1, t.rank + 1) if _column_plan(t, caps)[d][4] is not None]
    assert free == ([t.rank - 2] if t.family == "E" else [])


@pytest.mark.parametrize(
    "name,caps",
    [
        ("E6", (12,) * 6),
        ("E7", (6,) * 7),
        # the next coordinate's cap below the modulus cap: x1 can exceed it
        ("E6", (12, 5, 12, 12, 12, 12)),
        # hundreds of free-depth calls, each keeping x above the square-root split
        ("E6", (64,) * 6),
        ("E7", (64,) * 7),
        ("E6", (64, 20, 64, 64, 64, 64)),
    ],
    ids=["E6@12", "E7@6", "E6-uneven", "E6@64", "E7@64", "E6-uneven@64"],
)
@pytest.mark.parametrize("table_limit", [_INVERSE_TABLE_LIMIT, 1], ids=["table", "pow"])
def test_lookahead_keeps_exactly_the_solvable_coordinates(name, caps, table_limit, monkeypatch):
    # at every free-depth call of a real search, x is kept exactly when the
    # next depth's congruence generates at least one candidate for it, with
    # inverses from the table or, above its limit, from pow
    monkeypatch.setattr("friezes.search._INVERSE_TABLE_LIMIT", table_limit)
    t = DynkinType.from_name(name)
    plan = _column_plan(t, caps)
    (d,) = [d for d in range(1, t.rank + 1) if plan[d][4] is not None]
    i, coord_cap = plan[d][:2]
    g, m, others, cell_cap, floored = plan[d + 1][2]
    assert m == 1 and not floored  # so the next depth's floor is 1
    calls = []

    def record(look, cols, top):
        kept = _solvable_coordinates(look, cols, top)
        calls.append((look, [list(col) for col in cols], top, list(kept)))
        return kept

    monkeypatch.setattr("friezes.search._solvable_coordinates", record)
    for start in _start_values(t, caps):
        _column_partition(t, caps, search_period(t), start, _Tally())
    assert calls
    for look, cols, top, kept in calls:
        assert look == plan[d][4] and top == coord_cap
        solvable = []
        for x in range(1, top + 1):
            cols[0][i] = x
            y = _product(cols, others)
            if list(_congruence_candidates(1, y, cols[0][g], plan[d + 1][1], cell_cap, 1)):
                solvable.append(x)
        assert kept == solvable


def plain_solvable_scan(r, modulus, next_cap, cell_cap, cap):
    # x in [1, cap] whose least x1 >= 1 with x1 * x * r = -1 (mod modulus)
    # (1 when modulus is 1) is within next_cap and gives a cell within cell_cap
    kept = []
    for x in range(1, cap + 1):
        if math.gcd(x * r, modulus) == 1:
            x1 = -pow(x * r, -1, modulus) % modulus or modulus
            if x1 <= next_cap and (x1 * x * r + 1) // modulus <= cell_cap:
                kept.append(x)
    return kept


_LARGE_MODULI = st.integers(_INVERSE_TABLE_LIMIT + 1, 3 * _INVERSE_TABLE_LIMIT)


@settings(max_examples=200, deadline=None)
@given(
    modulus=st.one_of(st.just(1), st.integers(2, 60), _LARGE_MODULI),
    r=st.integers(1, 40),
    next_cap=st.one_of(st.integers(1, 60), st.integers(1, 4 * _INVERSE_TABLE_LIMIT)),
    cell_cap=st.integers(1, 64),
    cap=st.integers(1, 3000),
    table_limit=st.sampled_from([_INVERSE_TABLE_LIMIT, 1]),
)
@example(modulus=1, r=1, next_cap=1, cell_cap=5, cap=9, table_limit=1)
# a modulus above the table limit: pow inverses, and kept x above the split
@example(modulus=2049, r=3, next_cap=50, cell_cap=64, cap=3000, table_limit=_INVERSE_TABLE_LIMIT)
# top < isqrt(B), through the inverse table
@example(modulus=59, r=1, next_cap=59, cell_cap=64, cap=20, table_limit=_INVERSE_TABLE_LIMIT)
@example(modulus=7, r=4, next_cap=7, cell_cap=6, cap=3000, table_limit=1)  # x = B // x1 + 1 solves
@example(modulus=3, r=1, next_cap=3, cell_cap=1, cap=5, table_limit=1)  # x1 = B // (split + 1)
def test_solvable_coordinates_match_the_plain_scan(
    modulus, r, next_cap, cell_cap, cap, table_limit
):
    # a synthetic free depth: the modulus is seed cell 0 and r = F[0,k+1].
    # Equality with the ascending scan also checks the order and that no x
    # comes twice, over the square-root split, the M == 1 shortcut and the
    # inverse table and pow paths (table_limit 1 sends every modulus to pow)
    assume(math.gcd(r, modulus) == 1)
    look = (((0, 1, 1),), 0, next_cap, cell_cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("friezes.search._INVERSE_TABLE_LIMIT", table_limit)
        kept = _solvable_coordinates(look, ([modulus], [r]), cap)
    assert list(kept) == plain_solvable_scan(r, modulus, next_cap, cell_cap, cap)


@pytest.mark.parametrize(
    "name,count,orbits,digest",
    [
        ("E6", 462, 36, "39f60d128710ea91"),
        ("E7", 440, 44, "baf2b4d10e0a869e"),
        ("E8", 4, 1, "c02e19b958d3cf48"),
    ],
    ids=["E6@64", "E7@64", "E8@64"],
)
def test_e_types_at_cap_sixty_four(name, count, orbits, digest):
    # counts and orbits the column search found before the free-depth
    # lookahead existed; the lookahead may only drop nodes
    out = outcome(name, "column_dfs", entry_cap_override=64)
    text = repr([(o.period, tuple(c.values for c in o.columns)) for o in out.orbits])
    assert out.frieze_count == count and len(out.orbits) == orbits
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert not out.complete and out.notes == ()


@pytest.mark.parametrize(
    "name,cap,count,orbits,digest,nodes",
    [
        ("B4", 256, 75, 15, "06f7021921eea21c", 4219),
        ("C4", 256, 70, 14, "4907534766d2da06", 4135),
        ("F4", 512, 112, 16, "d37c9d70526d8a9c", 11325),
        pytest.param("E6", 512, 868, 70, "f85a562f5c6b2353", 527395, marks=pytest.mark.slow),
        pytest.param("E7", 1024, 3460, 346, "90f798b133a50275", 4543501, marks=pytest.mark.slow),
    ],
    ids=["B4@256", "C4@256", "F4@512", "E6@512", "E7@1024"],
)
def test_doubled_edge_column_search_at_large_caps(name, cap, count, orbits, digest, nodes):
    # doubled edges give power congruences (m > 1) with moduli in the hundreds,
    # E6 and E7 are scaling targets; regression values, not published counts
    out = outcome(name, "column_dfs", entry_cap_override=cap)
    text = repr([(o.period, tuple(c.values for c in o.columns)) for o in out.orbits])
    assert out.frieze_count == count and len(out.orbits) == orbits
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert out.nodes_explored == nodes
    assert not out.complete and out.notes == ()


def test_factorization_budget_note(monkeypatch):
    monkeypatch.setattr("friezes.search._FACTORIZATION_BUDGET", 1)
    out = outcome("D4", "row_seeded", entry_cap_override=8)
    assert not out.complete
    budget_notes = [note for note in out.notes if "budget" in note]
    partitions = 8  # start values 1 .. min(floor(2**b_4), 8)
    assert 1 <= len(budget_notes) <= partitions


def test_undersized_period_cap_reports_cap_exceeded():
    # with the recurrence guard below the true period, candidates that never
    # close are reported and the outcome is uncertified; seed (1, 2) is not
    # tried, as its forward row-2 cell (1 + 1) / 2 = 1 is below its own 2
    out = outcome("A2", "column_dfs", period=3)
    assert not out.complete
    assert out.notes == tuple(
        f"cap exceeded: seed {seed} did not recur within 3 steps"
        for seed in [(1, 1), (2, 1), (3, 2)]
    )
    # the entry cap check runs before the recurrence guard: every orbit of
    # A2 leaves the cap box [1, 2]^2, so no seed reaches the guard
    capped = outcome("A2", "column_dfs", period=3, entry_cap_override=2)
    assert capped.notes == () and capped.frieze_count == 0


@pytest.mark.parametrize("strategy", ["column_dfs", "row_seeded"])
@pytest.mark.parametrize(
    "name,columns",
    [("G2", [(2, 3)]), ("D4", [(2, 3, 2, 2)]), ("A2", []), ("B2", []), ("B3", [(2, 3, 2)])],
)
def test_certified_runs_hold_the_constant_friezes(name, columns, strategy):
    # only constant friezes have period 1; a certified run finds every one
    # as an orbit of size 1 (D4 column_dfs under cap 16, which holds every
    # D4 frieze but is uncertified)
    cap = 16 if (name, strategy) == ("D4", "column_dfs") else None
    out = outcome(name, strategy, entry_cap_override=cap)
    assert [o.columns[0].values for o in out.orbits if o.period == 1] == columns
    assert out.complete is (cap is None) and out.notes == ()


# Outcomes pinned per case: frieze count, a digest of the orbits and
# their sizes, the completeness claim and the nodes explored by
# (column_dfs, row_seeded) at the full period h+2, then at the default
# search period (h+2)/2 where the Nakayama twist is the identity.  Both
# strategies read the same mesh-factor table, so a fault there would keep
# them in agreement with each other; these fixed values catch it.  The
# node totals also pin the budgeted divisor-node counting of the
# row-seeded divide step.
GOLDEN = [
    ("A1", None, 2, "026216da718300d2", True, (1, 1), (1, 1)),
    ("A2", None, 5, "26e2c35bb4a16cab", True, (6, 11), (6, 11)),
    ("A3", None, 14, "6754f3332bf29d25", True, (5619, 102), (5619, 102)),
    ("B2", None, 6, "4dbd41d47196a995", True, (6, 89), (6, 15)),
    ("C2", None, 6, "bc33d99f1a779b11", True, (13, 82), (13, 15)),
    ("G2", None, 9, "762f2b48aa268770", True, (154, 12546), (154, 244)),
    ("B3", 32, 21, "a7b31165b01b9e09", False, (118, 291), (118, 267)),
    ("C3", 32, 20, "9f41c9d0dc4a6237", False, (88, 101), (88, 81)),
    ("D4", 8, 19, "0e75cc0d7a51ba5f", False, (191, 18334), (191, 223)),
    ("F4", 16, 7, "4df6259b33d2e253", False, (141, 247), (141, 233)),
    ("E7", 6, 0, "4f53cda18c2baa0c", False, (203, 6863), (203, 372)),
    ("E8", 4, 0, "4f53cda18c2baa0c", False, (50, 26), (50, 26)),
    ("B4", 12, 15, "7105166c0046b3d0", False, (68, 137), (68, 107)),
    ("C4", 12, 10, "db6af63233c3f324", False, (57, 48), (57, 38)),
]


@pytest.mark.parametrize("strategy", ["column_dfs", "row_seeded"])
@pytest.mark.parametrize(
    "name,cap,count,digest,complete,nodes,default_nodes",
    GOLDEN,
    ids=[f"{g[0]}@{g[1]}" for g in GOLDEN],
)
def test_golden_outcomes(name, cap, count, digest, complete, nodes, default_nodes, strategy):
    full_period = type_profile(DynkinType.from_name(name)).period_cap
    for period, expected_nodes in ((full_period, nodes), (None, default_nodes)):
        out = outcome(name, strategy, period, entry_cap_override=cap)
        text = repr([(o.period, tuple(c.values for c in o.columns)) for o in out.orbits])
        assert out.frieze_count == count
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        assert out.complete is complete
        assert out.notes == ()
        assert out.nodes_explored == expected_nodes[strategy == "row_seeded"]


@pytest.mark.parametrize(
    "name,cap,count,digest",
    [
        ("A4", None, 42, "e9693cd3f02f409e"),
        ("D4", 16, 51, "6933e0b3234e361b"),
        ("C3", None, 20, "9f41c9d0dc4a6237"),
        ("G2", None, 9, "762f2b48aa268770"),
    ],
    ids=["A4", "D4@16", "C3", "G2"],
)
def test_row_seeded_never_walks_an_orbit(name, cap, count, digest, monkeypatch):
    # the row-seeded search cuts each orbit from its reconstructed columns,
    # so a fault in the orbit walk of the column search cannot reach it
    def walk(*args, **kwargs):
        raise AssertionError("row_seeded walked an orbit")

    monkeypatch.setattr("friezes.search._orbit", walk)
    out = outcome(name, "row_seeded", entry_cap_override=cap)
    text = repr([(o.period, tuple(c.values for c in o.columns)) for o in out.orbits])
    assert out.frieze_count == count
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert out.complete is (cap is None) and out.notes == ()


@pytest.mark.parametrize(
    "name,strategy,cap,stride",
    [
        ("A3", "column_dfs", None, 100),
        ("A3", "row_seeded", None, 10),
        # E6 has a free depth: its nodes come from the lookahead's candidates
        ("E6", "column_dfs", 12, 50),
    ],
    ids=["column_dfs", "row_seeded", "E6@12-column_dfs"],
)
def test_progress_line_at_every_stride(name, strategy, cap, stride, monkeypatch, capsys):
    # one `explored=<n> found=<m>` line each time the node count reaches a
    # multiple of the stride, then the final totals
    monkeypatch.setattr("friezes.search.PROGRESS_STRIDE", stride)
    cfg = SearchConfig(
        dynkin=DynkinType.from_name(name), strategy=strategy, entry_cap_override=cap
    )
    out = enumerate_friezes(cfg, progress=stderr_progress)
    lines = capsys.readouterr().err.splitlines()
    counts = []
    for line in lines:
        explored, found = line.split()
        assert explored.startswith("explored=") and found.startswith("found=")
        counts.append((int(explored[9:]), int(found[6:])))
    *strides, final = counts
    assert out.nodes_explored >= 10 * stride
    assert [nodes for nodes, _ in strides] == list(
        range(stride, out.nodes_explored + 1, stride)
    )
    found = [f for _, f in counts]
    assert found == sorted(found)
    assert final == (out.nodes_explored, len(out.orbits))


def test_a1_with_override_stays_within_two_seeds():
    out = outcome("A1", "column_dfs", 4, entry_cap_override=2)
    assert out.frieze_count == 2
    assert len(out.orbits) == 1 and out.orbits[0].period == 2
    assert out.nodes_explored <= 2
    # the exact cap at p = 4 is floor(2^(4 * 1/2)) = 4 > 2: no completeness claim
    assert not out.complete
    # at the default half period the cap is floor(2^(2 * 1/2)) = 2: certified
    half = outcome("A1", "column_dfs", entry_cap_override=2)
    assert half.complete and half.frieze_count == 2 and half.nodes_explored <= 2


@pytest.mark.parametrize(
    "name,cap",
    [(name, None) for name in DESK_TYPES]
    + [("B3", 32), ("C3", 32), ("D4", 16), ("D5", 8), ("F4", 16), ("E6", 12)],
)
def test_orbits_obey_the_twisted_periodicity(name, cap):
    # F[i,k] = F[sigma(i), k + c_i] on every enumerated orbit: the rule
    # that lets the search stop at the half period where sigma = id
    t = DynkinType.from_name(name)
    sigma, c = twist(t)
    out = outcome(name, "column_dfs", entry_cap_override=cap)
    assert out.orbits
    for orbit in out.orbits:
        cols = [col.values for col in orbit.columns]
        q = len(cols)
        assert search_period(t) % q == 0
        for k in range(q):
            for i in range(t.rank):
                assert cols[k][i] == cols[(k + c[i]) % q][sigma[i]]


@pytest.mark.parametrize(
    "name,cap,strategy",
    [(name, cap, strategy) for strategy in ("column_dfs", "row_seeded")
     for name, cap in [("A1", None), ("B2", None), ("C2", None), ("G2", None),
                       ("B3", 32), ("D4", 16), ("D6", 6), ("F4", 16)]]
    # certified C3 at h+2 = 8: 24,444,531 nodes; row_seeded there runs past ten minutes
    + [pytest.param("C3", None, "column_dfs", marks=pytest.mark.slow)],
)
def test_half_and_full_periods_agree(name, cap, strategy):
    # where the twist is the identity the search period is (h+2)/2; the
    # same search at the full period h+2 must find the same friezes
    t = DynkinType.from_name(name)
    full_period = type_profile(t).period_cap
    assert search_period(t) * 2 == full_period
    half = outcome(name, strategy, entry_cap_override=cap)
    full = outcome(name, strategy, full_period, entry_cap_override=cap)
    assert half.frieze_count == full.frieze_count > 0
    assert orbit_keys(half) == orbit_keys(full)
    assert half.complete == full.complete == (cap is None)
    assert half.notes == full.notes == ()
    assert half.nodes_explored <= full.nodes_explored


@pytest.mark.parametrize(
    "name,strategy,count",
    [
        ("D4", "row_seeded", 51),  # the Fontaine-Plamondon count
        ("B3", "row_seeded", 21),
        ("C3", "column_dfs", 20),
        ("C3", "row_seeded", 20),
    ],
)
def test_certified_at_the_half_period(name, strategy, count):
    out = outcome(name, strategy)
    assert out.complete and out.notes == ()
    assert out.frieze_count == count


def _brute_candidates(m, y, modulus, cap, cell_cap, cell_floor=1):
    return [
        x
        for x in range(1, cap + 1)
        if (x**m * y + 1) % modulus == 0 and cell_floor <= (x**m * y + 1) // modulus <= cell_cap
    ]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**5),
)
def test_congruence_candidates_complete_and_ascending(m, y, modulus, cap, cell_cap, cell_floor):
    # the generator must produce exactly the solutions, in ascending order;
    # completeness of the column search rides on this
    got = list(_congruence_candidates(m, y, modulus, cap, cell_cap, cell_floor))
    assert got == _brute_candidates(m, y, modulus, cap, cell_cap, cell_floor)


@pytest.mark.parametrize(
    "m,y,modulus,cap",
    [
        (1, 7, 1, 60),
        (2, 3, 1, 60),
        (3, 2, 1, 60),
        (1, 5, 12, 300),
        (2, 3, 7, 300),
        (3, 5, 13, 300),
        (2, 6, 25, 300),
        # moduli above 2**16: the inverse for m = 1, a scan of one
        # modulus of residues otherwise
        (1, 3, 65_539, 300_000),
        (2, 1, 65_537, 150_000),
        (3, 2, 65_537, 150_000),
        # modulus above the cap: only the cap - first + 1 values are scanned
        (2, 1, 1009, 1000),
    ],
)
def test_congruence_candidates_clip_matches_brute_force(m, y, modulus, cap):
    # the cell cap clips x**m <= (cell_cap * modulus - 1) // y and the cell
    # floor x**m >= (cell_floor * modulus - 1) / y; a cap or floor equal to
    # a solution's cell must keep it, one past it must drop it
    solutions = _brute_candidates(m, y, modulus, cap, float("inf"))
    assert len(solutions) >= 2
    cells = [(x**m * y + 1) // modulus for x in solutions]
    for cell_cap in sorted({1, *cells, *(c - 1 for c in cells if c > 1), cells[-1] + 1}):
        got = list(_congruence_candidates(m, y, modulus, cap, cell_cap, 1))
        assert got == [x for x, c in zip(solutions, cells) if c <= cell_cap], cell_cap
    for cell_floor in sorted({1, *cells, *(c + 1 for c in cells)}):
        got = list(_congruence_candidates(m, y, modulus, cap, cells[-1], cell_floor))
        assert got == [x for x, c in zip(solutions, cells) if c >= cell_floor], cell_floor


def _a_wavefront(prefix):
    """The row-seeded A_n wavefront once the seed row holds ``prefix``
    (``n = len(prefix) + 1``), column-major as the search keeps it:
    ``F[n-k, c+1] = K(t_{c+1}, ..., t_{c+k+1})`` (Conway-Coxeter).  Also
    the ``(c, s, u)`` that the closing solve at position ``n`` reads per
    row below the top forced row: row ``n-k`` at level ``k``."""
    n = len(prefix) + 1
    cols = [[0] * n for _ in range(n)]
    for c in range(n - 1):
        for k in range(n - 1 - c):
            cols[c][n - 1 - k] = continuant(prefix[c : c + k + 1])
    return cols, [(n - k - 1, n - k, n - k + 1) for k in range(2, n)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closing_solve_matches_the_continuant_oracle(n):
    # t passes the pin test of A_n exactly when K(t_1..t_n) > 0 divides
    # 1 + K(t_2..t_n); the solve must yield exactly those t, as ascending
    # x = t_{n-1} * t - 1, in the window the top row's scan covers
    rng = random.Random(n)
    nonpositive_low_end = several = 0
    for _ in range(400):
        prefix = [rng.randint(1, 6) for _ in range(n - 1)]
        if any(continuant(prefix[a:b]) < 1 for a in range(n - 1) for b in range(a + 1, n)):
            continue  # no wavefront holds a cell below 1
        cols, closing = _a_wavefront(prefix)
        prev = prefix[-1]
        lo = rng.randint(1, 4)
        hi = lo + rng.choice([0, 2, 40])
        xcap = prev * hi - 1 - rng.randint(0, 2 * prev)
        passing = [
            prev * t - 1
            for t in range(lo, hi + 1)
            if 1 <= prev * t - 1 <= xcap
            and (p := continuant(prefix + [t])) > 0
            and (1 + continuant(prefix[1:] + [t])) % p == 0
        ]
        assert list(_closing_candidates(prev, cols, closing, lo, hi, xcap)) == passing
        nonpositive_low_end += continuant(prefix + [lo]) < 1
        several += len(passing) > 1
    assert nonpositive_low_end and several


def test_closing_solve_falls_back_to_the_scan():
    # On a frieze wavefront the quotient q = (1 + R) / P moves by about one
    # per step of t, so only cells that no frieze holds make its range
    # outgrow the window.  Here P = (t - 2) / 7 and 1 + R = t: q runs from
    # 21 down to 9 over t = 3 .. 9, so all seven candidates are scanned,
    # although q is an integer only at t = 3, 4 and 9.
    cols = [[0, 1, 1], [0, 0, 7], [0, 0, 0]]
    got = list(_closing_candidates(1, cols, [(0, 1, 2)], 3, 9, 8))
    assert got == list(_congruence_candidates(1, 1, 1, 8, 9, 3)) == list(range(2, 9))


@pytest.mark.parametrize(
    "name,cap",
    [("A2", None), ("A3", None), ("A5", 8), ("B2", None), ("C2", None),
     ("G2", None), ("B3", 32), ("C3", 32), ("F4", 16), ("D4", 8)],
)
def test_closing_solve_runs_on_linear_plans_only(name, cap, monkeypatch):
    # the solve is keyed on the plan (pinned tail, no root, no power), not
    # on the family letter: today only A_n qualifies
    calls = []

    def record(*args):
        calls.append(args)
        return _closing_candidates(*args)

    monkeypatch.setattr("friezes.search._closing_candidates", record)
    outcome(name, "row_seeded", entry_cap_override=cap)
    assert bool(calls) == name.startswith("A")


@pytest.mark.parametrize(
    "name,count,nodes",
    [("A4", 42, 14_744), ("B3", 21, 13_284), ("D4", 51, 93_685)],
    ids=["A4", "B3", "D4"],
)
def test_certified_row_seeded_nodes(name, count, nodes):
    # only top cells that leave the row's next top cell room within its
    # product cap count as nodes (on D4 mostly at the last position, whose
    # next cell wraps around), and at A4's pin-test position only the
    # solved candidates
    out = outcome(name, "row_seeded")
    assert out.frieze_count == count and out.complete
    assert out.nodes_explored == nodes


@pytest.mark.parametrize(
    "name,cap",
    [(name, None) for name in ("A2", "A3", "A4", "B2", "B3", "C2", "C3", "G2", "D4")]
    + [("A5", 16), ("A6", 32), ("B4", 64), ("C4", 64), ("F4", 16)],
)
def test_row_seeded_reaches_each_row_minimum_rotation_once(name, cap, monkeypatch):
    # the leaf reconstructs every frieze whose seed row starts at its row-n
    # minimum exactly once: per orbit, once per column of its minimal
    # period whose row-n entry is the minimum.  Counts and digests cannot
    # see a cap that drops some of these rotations but not all of them.
    hits = {}

    def count(cols):
        key = _canonical_columns(cols)
        hits[key] = hits.get(key, 0) + 1
        return key

    monkeypatch.setattr("friezes.search._canonical_columns", count)
    out = outcome(name, "row_seeded", entry_cap_override=cap)
    expected = {}
    for key in orbit_keys(out):
        low = min(col[-1] for col in key)
        expected[key] = sum(col[-1] == low for col in key)
    assert hits == expected


def test_next_top_cap_matches_the_scan():
    # the closed form equals the largest top that a scan finds, the scan's
    # solutions form a prefix, and on the tops that give an integer t it
    # keeps exactly those that leave the row's next cell x = start*t - 1
    # (every seed entry is at least start) within the product cap
    rng = random.Random(21)
    binding = 0
    for _ in range(300):
        start, prev = rng.randint(1, 6), rng.randint(1, 40)
        top_base, top_prodcap = rng.randint(1, 20), rng.randint(1, 6000)
        room = top_prodcap // top_base
        c = room * prev
        passing = [
            top for top in range(max(prev, c) + 2) if top * (start * (top + 1) - prev) <= c
        ]
        assert passing == list(range(len(passing)))
        cap = _next_top_cap(start, prev, room)
        assert cap == passing[-1]
        for top in range(prev - 1, room + 1, prev):
            x = max(1, start * (top + 1) // prev - 1)
            assert (top_base * top * x <= top_prodcap) == (top <= cap)
        binding += 0 < cap < room
    assert binding


def test_divisors_match_brute_force():
    for x in range(1, 2001):
        assert _divisors(x) == [f for f in range(1, x + 1) if x % f == 0], x


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=6))
def test_canonical_rotation_is_rotation_invariant(cols):
    canon = _canonical_columns(cols)
    q = len(cols)
    for r in range(q):
        rotated = cols[r:] + cols[:r]
        assert _canonical_columns(rotated) == canon
    assert sorted(canon) == sorted(tuple(c) for c in cols)


def test_config_validation():
    t = DynkinType("A", 2)
    with pytest.raises(ValueError):
        SearchConfig(dynkin=t, strategy="bogus")
    with pytest.raises(TypeError):  # the period is the type's, no setting
        SearchConfig(dynkin=t, period_cap=8)
    with pytest.raises(ValueError):
        SearchConfig(dynkin=t, entry_cap_override=0)
    with pytest.raises(ValueError):
        SearchConfig(dynkin=t, jobs=0)


def test_row_seeded_rank_one_degenerates_to_column_walk():
    assert SearchConfig(DynkinType("A", 1), "row_seeded").strategy == "column_dfs"
    assert outcome("A1", "row_seeded") == outcome("A1", "column_dfs")


@pytest.mark.parametrize("t", PLAN_TYPES, ids=str)
def test_solve_plan_shape(t):
    # the row-seeded wavefront and leaf rely on this shape
    wave, divide, tail, (v, _) = _solve_plan(t)
    solved = [r for _, r, _, _ in wave + tail] + ([divide[0]] if divide else [])
    assert sorted(solved) == list(range(t.rank - 1))  # every row but n, once
    assert v == 0  # one check, at vertex 1
    assert (divide is not None) == (t.family in "DE")
    if divide is None:
        assert tail == ()
    # a chain from the seed row: each step forces from the row the last
    # one forced, whose other neighbour, if any, is the row above, read
    # one column later
    sources = [t.rank - 1] + [r for _, r, _, _ in wave]
    assert [s for s, _, _, _ in wave] == sources[:-1]
    assert wave[0][3] == ()
    assert [[(u, o) for u, _, o in others] for _, _, _, others in wave[1:]] == [
        [(u, 1)] for u in sources[:-2]
    ]
    # the check vertex (pinned plans) or the stuck vertex is the last wave row
    assert sources[-1] == (v if divide is None else divide[2])
    # only the top step forces by a power: the wavefront takes no root below it
    assert all(m == 1 for _, _, m, _ in wave[1:] + tail)
    # the seed row outlasts the wave: the pin test and the stuck mesh each
    # have a seed position at the search period
    assert len(wave) + 2 <= search_period(t)


def test_default_strategy_choice():
    assert default_strategy(DynkinType("A", 4)) == "row_seeded"
    assert default_strategy(DynkinType("G", 2)) == "row_seeded"
    assert default_strategy(DynkinType("A", 1)) == "column_dfs"
    assert default_strategy(DynkinType("D", 4)) == "column_dfs"
    assert default_strategy(DynkinType("E", 6)) == "column_dfs"


@pytest.mark.parametrize("t", [DynkinType("A", 1), *PLAN_TYPES], ids=str)
def test_config_strategy_defaults_to_the_type_default(t):
    assert SearchConfig(t).strategy == default_strategy(t)


def test_config_without_strategy_runs_the_default():
    cfg = SearchConfig(DynkinType("A", 4))
    assert cfg.strategy == "row_seeded"  # column_dfs walks 41,967,939 nodes here
    out = enumerate_friezes(cfg)
    assert out.frieze_count == 42 and out.complete and out.nodes_explored == 14_744


@pytest.mark.parametrize("name,top", [("A3", 6), ("B3", 15), ("D4", 10)])
def test_row_seeded_matches_column_dfs_at_every_small_override(name, top):
    # overrides equal to some frieze entry put a cell exactly on the cap,
    # the boundary of the row-seeded cut-off and closed-form bound
    for cap in range(1, top + 1):
        col = outcome(name, "column_dfs", entry_cap_override=cap)
        row = outcome(name, "row_seeded", entry_cap_override=cap)
        assert orbit_keys(col) == orbit_keys(row), cap
