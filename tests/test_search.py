import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezes import (
    CATALOG_SAMPLE,
    DynkinType,
    SearchConfig,
    a_vector,
    check_pattern_against_bounds,
    default_strategy,
    enumerate_friezes,
    interval_certificate,
    propagate_backward,
    propagate_forward,
    entry_caps,
    type_profile,
    verify_pattern,
)
from conftest import conway_coxeter_columns
from friezes.catalog import search_period, twist
from friezes.mesh import _product
from friezes.search import (
    _INVERSE_TABLE_LIMIT,
    _canonical_columns,
    _column_partition,
    _column_plan,
    _congruence_candidates,
    _force,
    _reconstruct,
    _solvable_coordinates,
    _solve_plan,
    _start_values,
    _Tally,
    stderr_progress,
)

DESK_TYPES = ["A1", "A2", "A3", "B2", "C2", "G2"]
KNOWN_COUNTS = {"A1": 2, "A2": 5, "A3": 14, "B2": 6, "C2": 6, "G2": 9}


def outcome(name, strategy, **kw):
    cfg = SearchConfig(dynkin=DynkinType.from_name(name), strategy=strategy, **kw)
    return enumerate_friezes(cfg)


def orbit_keys(out):
    return [tuple(c.values for c in o.pattern.columns) for o in out.orbits]


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
    assert len(out.orbits) == 1 and out.orbits[0].size == 2


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
    engine_columns = {c.values for o in out.orbits for c in o.pattern.columns}
    assert engine_columns == valid


@pytest.mark.parametrize("name", DESK_TYPES)
def test_known_counts_both_strategies(name):
    col = outcome(name, "column_dfs")
    row = outcome(name, "row_seeded")
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
    ],
    ids=["A1", "A2", "A3", "A4@16", "A5@16", "A6@32", "A7@64", "A8@64"],
)
def test_a_n_matches_conway_coxeter_triangulations(n, cap, count, strategy):
    # Conway-Coxeter: the A_n friezes are the triangulations of an
    # (n+3)-gon.  With quiddity a (triangles per polygon vertex), the
    # frieze has F[i,k] = K(a[1-k], ..., a[i-k]) for the continuant K,
    # indices mod n+3; independent of both search strategies.  Every
    # A4-A8 frieze fits under the entry cap given, so those runs are
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
    assert dict(zip(orbit_keys(out), (o.size for o in out.orbits))) == expected
    assert {c.values for o in out.orbits for c in o.pattern.columns} == columns


def test_a3_catalan_count():
    assert outcome("A3", "column_dfs").frieze_count == 14


def test_b2_c2_counts_agree():
    # the two rank-2 doubled-edge conventions are transposes of each other
    assert outcome("B2", "column_dfs").frieze_count == outcome("C2", "column_dfs").frieze_count


@pytest.mark.parametrize("name", DESK_TYPES)
def test_enumerated_orbits_satisfy_all_invariants(name):
    out = outcome(name, default_strategy(DynkinType.from_name(name)))
    cap = type_profile(DynkinType.from_name(name)).period_cap
    assert out.frieze_count == sum(o.size for o in out.orbits)
    for orbit in out.orbits:
        pattern = orbit.pattern
        assert orbit.size == pattern.period
        assert verify_pattern(pattern) == []
        assert interval_certificate(pattern).passed
        assert check_pattern_against_bounds(pattern).passed
        assert cap % pattern.period == 0
        vec = a_vector(pattern)
        assert all(-1e-9 < x < 1 + 1e-9 for x in vec.ca)
        for column in pattern.columns:
            assert propagate_backward(propagate_forward(column)) == column


@pytest.mark.parametrize("name", DESK_TYPES)
def test_orbits_pairwise_non_rotation_equivalent(name):
    out = outcome(name, "column_dfs")
    seen = set()
    for orbit in out.orbits:
        cols = [c.values for c in orbit.pattern.columns]
        rotations = {
            tuple(cols[(r + m) % len(cols)] for m in range(len(cols)))
            for r in range(len(cols))
        }
        assert not (rotations & seen)
        seen |= rotations


def test_orbit_is_canonical_rotation():
    out = outcome("A2", "column_dfs")
    cols = [c.values for c in out.orbits[0].pattern.columns]
    rotations = [
        tuple(cols[(r + m) % len(cols)] for m in range(len(cols))) for r in range(len(cols))
    ]
    assert tuple(cols) == min(rotations)


@pytest.mark.parametrize(
    "name,strategy,cap",
    [
        pytest.param("A3", "column_dfs", None, id="A3-column_dfs"),
        pytest.param("G2", "row_seeded", None, id="G2-row_seeded"),
        pytest.param("A3", "row_seeded", None, id="A3-row_seeded"),
        # doubled edge under override: cut-off and pinned tail at rank 3
        pytest.param("B3", "row_seeded", 32, id="B3-row_seeded-32"),
        # divide step: stuck-mesh pruning and leaf branching
        pytest.param("D4", "row_seeded", 8, id="D4-row_seeded-8"),
    ],
)
def test_outcome_deterministic_and_parallel_invariant(name, strategy, cap):
    first = outcome(name, strategy, entry_cap_override=cap)
    second = outcome(name, strategy, entry_cap_override=cap)
    parallel = outcome(name, strategy, entry_cap_override=cap, jobs=3)
    assert first == second == parallel
    assert first.nodes_explored > 0


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
    # all 51 friezes of type D4 happen to fit under an entry cap of 16
    col = outcome("D4", "column_dfs", entry_cap_override=16)
    assert col.frieze_count == fontaine_plamondon_count(4)


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
    caps = entry_caps(t, p, cap)
    seen = set()
    for start in _start_values(t, caps):
        orbits, _ = _column_partition(t, caps, p, start, _Tally())
        for key in orbits:
            assert min(col[-1] for col in key) == start, (start, key)
        assert not seen & orbits.keys()
        seen |= orbits.keys()
    assert seen == set(orbit_keys(outcome(name, "column_dfs", entry_cap_override=cap)))


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_start_values_fit_the_row_n_caps(t):
    # the row-seeded partition tests no start value against row n's caps:
    # every start is within the entry cap, and start**p within the
    # product cap, at either period and under any override
    for p in (search_period(t), type_profile(t).period_cap):
        for override in (None, 1, 8):
            caps = entry_caps(t, p, override)
            top = _start_values(t, caps)[-1]  # the range's largest value
            assert top <= caps[-1]
            assert top**p <= entry_caps(t, p)[-1]


# A verified period-7 frieze of type E6, rows in index order.
E6_ROWS = (
    (1, 4, 2, 2, 4, 1, 5),
    (2, 6, 1, 11, 1, 6, 2),
    (4, 3, 7, 3, 7, 3, 4),
    (3, 11, 5, 10, 10, 5, 11),
    (4, 4, 3, 7, 3, 7, 3),
    (1, 5, 1, 4, 2, 2, 4),
)


def test_e6_reconstruction_from_seed_row():
    t = DynkinType("E", 6)
    p = type_profile(t).period_cap  # 14
    trow = E6_ROWS[5] * 2
    caps = entry_caps(t, p)
    tally = _Tally()
    cols = [[0] * 5 + [v] for v in trow]  # column-major: cols[c][i] = F[i+1, c+1]
    steps, _ = _solve_plan(t)
    results = list(_reconstruct(t, cols, steps, caps, tally, [10**6]))
    assert len(results) == 1
    cols = results[0]
    assert len(cols) == 14
    expected = [tuple(E6_ROWS[i][k] for i in range(6)) for k in range(7)]
    assert cols[:7] == expected and cols[7:] == expected


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "E6", "E7", "E8"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stuck_mesh_division_is_exact(name, data):
    # the row-seeded wavefront divides the first divide step's stuck mesh
    # F[x,k] * F[x,k+1] - 1 by its known factor without a remainder test.
    # Draw seed rows t_1, t_2, ... from 1..50, each t_j among the values
    # for which every leading force step solves its new cell, and check
    # that division at every column where its cells are solved.
    t = DynkinType.from_name(name)
    n = t.rank
    steps, _ = _solve_plan(t)
    lead = next(i for i, step in enumerate(steps) if step[0] == "divide")
    wave, (_, _, _, x, known, _) = steps[:lead], steps[lead]
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
    assert [o.size for o in out.orbits] == [7]
    assert verify_pattern(out.orbits[0].pattern) == []


@pytest.mark.parametrize("t", CATALOG_SAMPLE, ids=str)
def test_column_plan_free_depths(t):
    # a depth with no generator and no due cell whose coordinate the next
    # generator multiplies in: the branch vertex's free neighbour in type E
    caps = entry_caps(t, search_period(t), 64)
    free = [d for d in range(1, t.rank + 1) if _column_plan(t, caps)[d][4] is not None]
    assert free == ([t.rank - 2] if t.family == "E" else [])


@pytest.mark.parametrize(
    "name,caps",
    [
        ("E6", (12,) * 6),
        ("E7", (6,) * 7),
        # the next coordinate's cap below the modulus cap: x1 can exceed it
        ("E6", (12, 5, 12, 12, 12, 12)),
    ],
    ids=["E6@12", "E7@6", "E6-uneven"],
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
    text = repr([(o.size, tuple(c.values for c in o.pattern.columns)) for o in out.orbits])
    assert out.frieze_count == count and len(out.orbits) == orbits
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert not out.complete and out.notes == ()


@pytest.mark.parametrize(
    "name,cap,count,orbits,digest,nodes",
    [
        ("B4", 256, 75, 15, "06f7021921eea21c", 4219),
        ("C4", 256, 70, 14, "4907534766d2da06", 4135),
        ("F4", 512, 112, 16, "d37c9d70526d8a9c", 11325),
    ],
    ids=["B4@256", "C4@256", "F4@512"],
)
def test_doubled_edge_column_search_at_large_caps(name, cap, count, orbits, digest, nodes):
    # doubled edges give power congruences (m > 1) whose moduli reach the
    # hundreds here; regression values of this code, not published counts
    out = outcome(name, "column_dfs", entry_cap_override=cap)
    text = repr([(o.size, tuple(c.values for c in o.pattern.columns)) for o in out.orbits])
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
    out = outcome("A2", "column_dfs", period_cap=3)
    assert not out.complete
    assert out.notes == tuple(
        f"cap exceeded: seed {seed} did not recur within 3 steps"
        for seed in [(1, 1), (2, 1), (3, 2)]
    )
    # the entry cap check runs before the recurrence guard: every orbit of
    # A2 leaves the cap box [1, 2]^2, so no seed reaches the guard
    capped = outcome("A2", "column_dfs", period_cap=3, entry_cap_override=2)
    assert capped.notes == () and capped.frieze_count == 0


def test_row_seeded_period_cap_off_the_catalog_multiple_is_incomplete():
    # a cyclic seed row of length p holds only friezes whose period divides
    # p, so a cap that is not a multiple of h+2 can miss every orbit
    for name, period_cap, h2 in [("A2", 6, 5), ("A2", 7, 5), ("A3", 7, 6)]:
        out = outcome(name, "row_seeded", period_cap=period_cap)
        assert not out.complete
        assert out.notes == (f"period cap {period_cap} is not a multiple of {h2}",)
        assert outcome(name, "column_dfs", period_cap=period_cap).complete
    doubled = outcome("A2", "row_seeded", period_cap=10)
    assert doubled.complete and doubled.notes == () and doubled.frieze_count == 5


# Outcomes pinned per case: frieze count, a digest of the orbits and
# their sizes, the completeness claim and the nodes explored by
# (column_dfs, row_seeded) at the full period h+2, then at the default
# search period (h+2)/2 where the Nakayama twist is the identity.  Both
# strategies read the same mesh-factor table and orbit walk, so a fault
# there would keep them in agreement with each other; these fixed values
# catch it.  The node totals also pin the budgeted divisor-node counting
# of the row-seeded divide step.
GOLDEN = [
    ("A1", None, 2, "026216da718300d2", True, (1, 1), (1, 1)),
    ("A2", None, 5, "26e2c35bb4a16cab", True, (6, 41), (6, 41)),
    ("A3", None, 14, "6754f3332bf29d25", True, (5619, 1904), (5619, 1904)),
    ("B2", None, 6, "4dbd41d47196a995", True, (6, 537), (6, 30)),
    ("C2", None, 6, "bc33d99f1a779b11", True, (13, 82), (13, 15)),
    ("G2", None, 9, "762f2b48aa268770", True, (154, 12546), (154, 244)),
    ("B3", 32, 21, "a7b31165b01b9e09", False, (118, 292), (118, 268)),
    ("C3", 32, 20, "9f41c9d0dc4a6237", False, (88, 101), (88, 81)),
    ("D4", 8, 19, "0e75cc0d7a51ba5f", False, (191, 18981), (191, 230)),
    ("F4", 16, 7, "4df6259b33d2e253", False, (141, 262), (141, 248)),
    ("E7", 6, 0, "4f53cda18c2baa0c", False, (203, 7744), (203, 417)),
    ("E8", 4, 0, "4f53cda18c2baa0c", False, (50, 29), (50, 29)),
    ("B4", 12, 15, "7105166c0046b3d0", False, (68, 138), (68, 108)),
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
    for period_cap, expected_nodes in ((full_period, nodes), (None, default_nodes)):
        out = outcome(name, strategy, entry_cap_override=cap, period_cap=period_cap)
        text = repr([(o.size, tuple(c.values for c in o.pattern.columns)) for o in out.orbits])
        assert out.frieze_count == count
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        assert out.complete is complete
        assert out.notes == ()
        assert out.nodes_explored == expected_nodes[strategy == "row_seeded"]


@pytest.mark.parametrize(
    "name,strategy,cap,stride",
    [
        ("A3", "column_dfs", None, 100),
        ("A3", "row_seeded", None, 100),
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
    out = outcome("A1", "column_dfs", entry_cap_override=2, period_cap=4)
    assert out.frieze_count == 2
    assert len(out.orbits) == 1 and out.orbits[0].size == 2
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
        cols = [col.values for col in orbit.pattern.columns]
        q = len(cols)
        assert search_period(t) % q == 0
        for k in range(q):
            for i in range(t.rank):
                assert cols[k][i] == cols[(k + c[i]) % q][sigma[i]]


@pytest.mark.parametrize("strategy", ["column_dfs", "row_seeded"])
@pytest.mark.parametrize(
    "name,cap",
    [("A1", None), ("B2", None), ("C2", None), ("G2", None),
     ("B3", 32), ("D4", 16), ("D6", 6), ("F4", 16)],
)
def test_half_and_full_periods_agree(name, cap, strategy):
    # where the twist is the identity the default period is (h+2)/2; the
    # full period h+2 stays reachable and must find the same friezes
    t = DynkinType.from_name(name)
    full_period = type_profile(t).period_cap
    assert search_period(t) * 2 == full_period
    half = outcome(name, strategy, entry_cap_override=cap)
    full = outcome(name, strategy, entry_cap_override=cap, period_cap=full_period)
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
    with pytest.raises(ValueError):
        SearchConfig(dynkin=t, period_cap=0)
    with pytest.raises(ValueError):
        SearchConfig(dynkin=t, entry_cap_override=0)
    with pytest.raises(ValueError):
        SearchConfig(dynkin=t, jobs=0)


def test_row_seeded_rank_one_degenerates_to_column_walk():
    assert outcome("A1", "row_seeded") == outcome("A1", "column_dfs")


@pytest.mark.parametrize("t", [t for t in CATALOG_SAMPLE if t.rank >= 2], ids=str)
def test_solve_plan_shape(t):
    steps, checks = _solve_plan(t)
    solved = [step[2] if step[0] == "force" else step[1] for step in steps]
    assert sorted(solved) == list(range(t.rank - 1))  # every row but n, once
    divides = [step for step in steps if step[0] == "divide"]
    assert len(divides) == (1 if t.family in "DE" else 0)
    assert [v for v, _ in checks] == [0]


def test_default_strategy_choice():
    assert default_strategy(DynkinType("A", 4)) == "row_seeded"
    assert default_strategy(DynkinType("G", 2)) == "row_seeded"
    assert default_strategy(DynkinType("A", 1)) == "column_dfs"
    assert default_strategy(DynkinType("D", 4)) == "column_dfs"
    assert default_strategy(DynkinType("E", 6)) == "column_dfs"


@pytest.mark.parametrize("name,top", [("A3", 6), ("B3", 15), ("D4", 10)])
def test_row_seeded_matches_column_dfs_at_every_small_override(name, top):
    # overrides equal to some frieze entry put a cell exactly on the cap,
    # the boundary of the row-seeded cut-off and closed-form bound
    for cap in range(1, top + 1):
        col = outcome(name, "column_dfs", entry_cap_override=cap)
        row = outcome(name, "row_seeded", entry_cap_override=cap)
        assert orbit_keys(col) == orbit_keys(row), cap
