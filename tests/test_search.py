import hashlib
import math
import multiprocessing
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from friezes import (
    DynkinType,
    FriezeSlice,
    SearchConfig,
    a_vector,
    check_pattern_against_bounds,
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
from conftest import CATALOG_SAMPLE, conway_coxeter_columns, types_up_to
from friezes.catalog import _mesh_factors, inverse_cartan, search_period, twist
from friezes.mesh import _orbit, _product
from friezes.search import (
    _backward_mesh_holds,
    _canonical_columns,
    _capped_candidates,
    _catalan_at_most,
    _column_partition,
    _column_plan,
    _congruence_candidates,
    _divisors,
    _force,
    _next_top_cap,
    _partition_empty,
    _reconstruct,
    _reduced_partition,
    _reduces_to_a,
    _row_floors,
    _row_partition,
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


def searched(name, strategy, cap=None):
    """A tally of ``strategy``'s own partitions, partition 1 included, run
    directly in ascending ``start``: the search that a run whose row-n cap
    fits Catalan(n) replaces at partition 1 by the reduction."""
    t = DynkinType.from_name(name)
    p = search_period(t)
    caps = clipped_caps(t, p, cap)
    prodcaps = entry_caps(t, p) if cap is None else entry_caps(t, p, cap**p)
    tally = _Tally()
    for start in _start_values(t, caps):
        if strategy == "column_dfs":
            _column_partition(t, caps, p, start, tally)
        else:
            _row_partition(t, caps, prodcaps, p, start, tally)
    return tally


def tally_digest(tally):
    """The orbit digest of ``test_golden_outcomes`` on a tally's orbits."""
    text = repr([(len(key), key) for key in sorted(tally.orbits)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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
    [*((name, None) for name in DESK_TYPES), ("G2", 12)],
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


def _conway_coxeter_orbits(n):
    """The A_n orbits from the triangulations of an (n+3)-gon (Conway-
    Coxeter), independent of both search strategies: the number of
    triangulations, each orbit's canonical rotation with its period, and
    every column.  With quiddity a (triangles per polygon vertex), the
    frieze has F[i,k] = K(a[1-k], ..., a[i-k]) for the continuant K,
    indices mod n+3."""
    size = n + 3
    triangulations = _triangulations(list(range(size)))
    expected = {}
    columns = set()
    for tri in triangulations:
        a = [sum(v in t for t in tri) for v in range(size)]
        cols = conway_coxeter_columns(a)
        columns.add(cols[0])
        q = next(d for d in range(1, size + 1) if cols[d:] + cols[:d] == cols)
        rotations = [tuple(cols[(r + x) % q] for x in range(q)) for r in range(q)]
        expected[min(rotations)] = q
    return len(triangulations), expected, columns


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
    # the A_n friezes are the triangulations of an (n+3)-gon.  Every A4-A9
    # frieze fits under the entry cap given, so those runs are uncertified
    # but must still find every orbit.
    triangulations, expected, columns = _conway_coxeter_orbits(n)
    assert triangulations == len(columns) == count
    out = outcome(f"A{n}", strategy, entry_cap_override=cap)
    assert out.complete is (cap is None) and out.frieze_count == count
    assert dict(zip(orbit_keys(out), (o.period for o in out.orbits))) == expected
    assert {c.values for o in out.orbits for c in o.columns} == columns


@pytest.mark.parametrize("strategy", ["column_dfs", "row_seeded"])
def test_certified_a5_matches_conway_coxeter(strategy):
    # certified A5: the 132 triangulations of the octagon in 19 orbits.
    # Its one partition, by reduction, walks one orbit per node: the
    # visited set skips the other 23 of A4's 42 columns
    triangulations, expected, columns = _conway_coxeter_orbits(5)
    assert triangulations == len(columns) == 132 and len(expected) == 19
    out = outcome("A5", strategy)
    assert out.complete and out.notes == () and out.frieze_count == 132
    assert dict(zip(orbit_keys(out), (o.period for o in out.orbits))) == expected
    assert {c.values for o in out.orbits for c in o.columns} == columns
    assert out.nodes_explored == 19


def reduction_row(name, strategy, cap=None, slow=False):
    """A row of the reduction oracle, ``name-strategy`` or, under a cap,
    ``name@cap-strategy``."""
    rid = f"{name}-{strategy}" if cap is None else f"{name}@{cap}-{strategy}"
    return pytest.param(name, strategy, cap, id=rid, marks=[pytest.mark.slow] if slow else [])


@pytest.mark.parametrize(
    "name,strategy,cap",
    # rank 1 has no row-seeded search to compare: every A1 run is reduced
    [reduction_row("A1", "column_dfs")]
    + [reduction_row(name, strategy) for name in ("A2", "A3", "A4", "B2", "B3", "C2", "C3", "G2")
       for strategy in ("column_dfs", "row_seeded")]
    + [
        reduction_row("D4", "row_seeded"),
        reduction_row("A5", "row_seeded", slow=True),
        reduction_row("D4", "column_dfs", slow=True),
        # capped runs where Catalan(n) fits row n's cap
        *(
            reduction_row(name, strategy, cap)
            for name, cap in (("D4", 16), ("B4", 64), ("C4", 64), ("A5", 64), ("G2", 8))
            for strategy in ("column_dfs", "row_seeded")
        ),
        reduction_row("D5", "column_dfs", 64),
        reduction_row("D6", "column_dfs", 256),
        reduction_row("D7", "column_dfs", 1024, slow=True),
    ],
)
def test_partition_one_reduction_matches_both_searches(name, strategy, cap):
    # the oracle of the reduction: on a certified run, and on a capped one
    # that the cost rule reduces, the orbits it walks from the A_{n-1}
    # columns are those each search finds at start = 1
    t = DynkinType.from_name(name)
    p = search_period(t)
    caps = clipped_caps(t, p, cap)
    prodcaps = entry_caps(t, p) if cap is None else entry_caps(t, p, cap**p)
    assert _catalan_at_most(t.rank, caps[-1])
    reduced, found = _Tally(), _Tally()
    _reduced_partition(t, caps, p, reduced)
    if strategy == "column_dfs":
        _column_partition(t, caps, p, 1, found)
    else:
        _row_partition(t, caps, prodcaps, p, 1, found)
    assert reduced.orbits == found.orbits
    assert reduced.notes == found.notes == []


def test_catalan_rule_matches_the_binomial():
    # Catalan(n) <= bound exactly at and above Catalan(n), for bounds one
    # either side of it
    for n in range(41):
        catalan = math.comb(2 * n, n) // (n + 1)
        for bound in (catalan - 1, catalan, catalan + 1):
            assert _catalan_at_most(n, bound) == (catalan <= bound), (n, bound)


def test_catalan_rule_holds_on_every_certified_reducible_type():
    # every certified run passes the cost rule: its partition 1 is reduced
    for t in types_up_to(12):
        if _reduces_to_a(t):
            assert _catalan_at_most(t.rank, entry_caps(t, search_period(t))[-1]), t


@pytest.mark.parametrize(
    "name,cap,strategy,nodes",
    # A300@2's partition 1 is 3 nodes, Catalan(300) walks are not; A8@4
    # searches 13 or 20 nodes where reducing would walk Catalan(8) = 1430
    [
        pytest.param("A300", 2, "row_seeded", 3, marks=pytest.mark.slow),
        ("A8", 4, "column_dfs", 13),
        ("A8", 4, "row_seeded", 20),
    ],
    ids=["A300@2", "A8@4-column_dfs", "A8@4-row_seeded"],
)
def test_capped_runs_below_catalan_search_partition_one(name, cap, strategy, nodes, monkeypatch):
    def reduce(*args):
        raise AssertionError("partition 1 taken by reduction")

    monkeypatch.setattr("friezes.search._reduced_partition", reduce)
    out = outcome(name, strategy, entry_cap_override=cap)
    assert out.nodes_explored == nodes and not out.complete


def test_reduction_applies_where_deleting_vertex_n_leaves_a():
    # decided from the mesh table: t without vertex n is A_{n-1} in types
    # A, B, C, D and G2, and D5, E6, E7 or B3 in E and F
    for t in types_up_to(8):
        assert _reduces_to_a(t) == (t.family in "ABCDG"), t


@pytest.mark.parametrize("m", [*range(8), pytest.param(8, marks=pytest.mark.slow)])
def test_reduction_walks_every_a_m_frieze_column(m, monkeypatch):
    # the reduction's candidates for A_{m+1}, with their row-n 1 dropped,
    # are the A_m frieze columns: one per triangulation of the (m+3)-gon,
    # Catalan(m+1) of them, one node each
    walked = []
    monkeypatch.setattr("friezes.search._walk", lambda t, seed, *args: walked.append(seed))
    tally = _Tally()
    _reduced_partition(DynkinType("A", m + 1), None, None, tally)
    size = m + 3
    expected = {
        conway_coxeter_columns([sum(v in tri for tri in tris) for v in range(size)])[0]
        for tris in _triangulations(list(range(size)))
    }
    assert len(expected) == math.comb(2 * m + 2, m + 1) // (m + 2)
    assert len(walked) == tally.nodes == len(expected)
    assert {seed[:-1] for seed in walked} == expected
    assert {seed[-1] for seed in walked} == {1}


@pytest.mark.parametrize("n", [*range(1, 7), pytest.param(7, marks=pytest.mark.slow)])
def test_a_n_keeps_partition_one_alone(n):
    # row n of an A_n frieze is its quiddity, translated, and a
    # triangulation has an ear: every orbit holds a 1 in row n, so the
    # partitions end after start = 1 at any caps
    size = n + 3
    for tri in _triangulations(list(range(size))):
        cols = conway_coxeter_columns([sum(v in t for t in tri) for v in range(size)])
        assert min(col[-1] for col in cols) == 1, tri
    t = DynkinType("A", n)
    for cap in (None, 1, 256):
        assert _start_values(t, clipped_caps(t, search_period(t), cap)) == range(1, 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_column_search_finds_each_a_n_orbit_under_its_own_row_maxima(n):
    # per-row caps equal to one Conway-Coxeter orbit's row maxima put its
    # leaf entries on their caps: where a column has F[1,k] = cap_1 and
    # F[2,k] = F[3,k] + cap_1, the back depth's clip to P + cap_x sits
    # exactly on a kept modulus (it does on A5)
    dynkin, size = DynkinType("A", n), n + 3
    for tri in _triangulations(list(range(size))):
        cols = conway_coxeter_columns([sum(v in t for t in tri) for v in range(size)])
        q = next(d for d in range(1, size + 1) if cols[d:] + cols[:d] == cols)
        caps = tuple(max(c[i] for c in cols) for i in range(n))
        tally = _Tally()
        for start in _start_values(dynkin, caps):
            _column_partition(dynkin, caps, search_period(dynkin), start, tally)
        assert _canonical_columns(cols[:q]) in tally.orbits, cols


def test_a3_catalan_count():
    assert outcome("A3", "column_dfs").frieze_count == 14


def test_b2_c2_counts_agree():
    # the two rank-2 doubled-edge conventions are transposes of each other
    assert outcome("B2", "column_dfs").frieze_count == outcome("C2", "column_dfs").frieze_count


@pytest.mark.parametrize("name", DESK_TYPES)
def test_enumerated_orbits_satisfy_all_invariants(name):
    out = outcome(name, "column_dfs")
    t = DynkinType.from_name(name)
    cap = type_profile(t).period_cap
    for orbit in out.orbits:
        # the stored period is minimal and the columns follow propagation;
        # a fresh seed walks, where the verified orbit's own would read it back
        seed = FriezeSlice(t, orbit.columns[0].values)
        assert detect_period(seed, cap) == (orbit.period, list(orbit.columns))
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
        # partition 1 notes two seeds that do not recur: the merge keeps
        # every job's notes, in job order
        pytest.param("A2", "column_dfs", {"period": 3}, id="A2-column_dfs-period3"),
        # orbits cross partitions: serially one tally's visited set skips
        # their seeds, in the pool each job walks them on its own
        pytest.param("E6", "column_dfs", {"entry_cap_override": 32}, id="E6-column_dfs-32"),
        # certified: the pool merges partition 1, taken by reduction, with
        # partition 2 of the D divide step
        pytest.param("D4", "row_seeded", {}, id="D4-row_seeded"),
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
    # under cap 1 the product caps, clipped at 1**p, equal the entry caps
    assert not outcome("D4", "row_seeded", entry_cap_override=1).complete


@pytest.mark.slow
def test_large_rank_override_builds_no_unclipped_cap():
    # the exact caps of A300 at its period 303 run to 3.4 million bits,
    # about 88 MB in all; under cap 2 no run needs them
    import tracemalloc

    t = DynkinType("A", 300)
    type_profile(t), twist(t)
    tracemalloc.start()
    try:
        out = enumerate_friezes(SearchConfig(t, entry_cap_override=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert out == outcome("A300", "column_dfs", entry_cap_override=2)
    assert (out.orbits, out.complete, out.nodes_explored, out.notes) == ((), False, 2, ())
    row = outcome("A300", "row_seeded", entry_cap_override=2)
    assert (row.orbits, row.complete, row.notes) == (out.orbits, out.complete, out.notes)


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


@pytest.mark.parametrize(
    "name,cap,count,nodes",
    [("D5", 64, 187, 2_136), ("D6", 256, 695, 73_873)],
    ids=["D5-64-187", "D6-256-695"],
)
def test_type_d_counts_match_fontaine_plamondon(name, cap, count, nodes):
    # every frieze of D5 and D6 happens to fit under these caps; the caps
    # are below the certified ones, so neither run is complete.  The node
    # counts pin D's free leaf, whose depth scans its full cap, and the
    # backward-mesh test at depth n - 1, after partition 1 by reduction
    assert fontaine_plamondon_count(int(name[1:])) == count
    out = outcome(name, "column_dfs", entry_cap_override=cap)
    assert out.frieze_count == count and out.nodes_explored == nodes
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


@pytest.mark.parametrize(
    "name,cap,strategy",
    [(name, None, strategy) for name in ("A2", "A3", "A4", "B3", "C3", "G2")
     for strategy in ("column_dfs", "row_seeded")]
    + [
        # over their dropped partitions, certified A5 column_dfs and D5@64
        # row_seeded each run past 100 s and certified D4 column_dfs 11 s;
        # A5@16 and D4@16 keep the same dropped starts
        pytest.param("A5", None, "row_seeded", marks=pytest.mark.slow),
        ("A5", 16, "column_dfs"),
        ("A5", 256, "row_seeded"),
        ("D4", None, "row_seeded"),
        ("D4", 16, "column_dfs"),
        ("D5", 64, "column_dfs"),
        ("E6", 64, "column_dfs"),
        ("E6", 64, "row_seeded"),
    ],
)
def test_partitions_the_inequality_drops_hold_no_orbit(name, cap, strategy):
    # every start from the first the partition proof (or, on A_n, the ear
    # of a triangulation) drops up to the old top min(floor(2**b_n),
    # cap_n) is searched anyway, and finds nothing.  A5's partition 2 holds
    # 4,381,437 row-seeded nodes (about 7 s, so slow); A5@256 searches the
    # same dropped starts in tier-1
    t = DynkinType.from_name(name)
    p = search_period(t)
    prodcaps = entry_caps(t, p)
    caps = clipped_caps(t, p, cap)
    dropped = range(_start_values(t, caps)[-1] + 1, min(entry_caps(t, 1)[-1], caps[-1]) + 1)
    assert dropped
    for start in dropped:
        tally = _Tally()
        if strategy == "column_dfs":
            _column_partition(t, caps, p, start, tally)
        else:
            _row_partition(t, caps, prodcaps, p, start, tally)
        assert not tally.orbits, start


@pytest.mark.parametrize("t", types_up_to(8), ids=str)
def test_partition_proof_matches_the_float_inequality(t):
    # the integer test never fires at start = 1, is monotone in start (the
    # partitions end by bisection), and away from ties agrees with
    # log2 L_i > (C**-1 u)_i, u_j = log2(1 + 1/P_j), in floats
    inverse = inverse_cartan(t)
    factors = _mesh_factors(t)
    for p in (search_period(t), type_profile(t).period_cap):
        for override in (None, 1, 8):
            caps = clipped_caps(t, p, override)
            verdicts = [_partition_empty(t, caps, s) for s in range(1, min(caps[-1], 64) + 1)]
            assert not verdicts[0]
            assert verdicts == sorted(verdicts)
            for start, verdict in enumerate(verdicts, 1):
                floors = _row_floors(t, caps, start)
                if floors is None:
                    assert verdict
                    continue
                prods = [math.prod(floors[j] ** m for j, m, _ in row) for row in factors]
                u = [math.log2(1 + 1 / q) for q in prods]
                gaps = [
                    math.log2(low) - sum(float(c) * x for c, x in zip(row, u))
                    for low, row in zip(floors, inverse)
                ]
                if all(abs(g) > 1e-9 for g in gaps):
                    assert verdict == any(g > 0 for g in gaps), (p, override, start)


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


def leaf_depths(plan, n):
    # the depths whose pair is their own coordinate's leaf pair, and the
    # free depths whose pair is the next coordinate's (the lookahead)
    pairs = [d for d in range(1, n + 1) if plan[d][4] is not None]
    own = [d for d in pairs if plan[d][4][0] == plan[d][0]]
    return own, [d for d in pairs if d not in own]


@pytest.mark.parametrize("t", [DynkinType("A", 1), *PLAN_TYPES], ids=str)
def test_column_plan_free_depths(t, monkeypatch):
    # a leaf pair (l, v, m), l's one mesh factor being (v, m, 1), sits at
    # l's own depth.  There l is read off its backward cell where its
    # generator is v's cell with m = 1: vertex 1 at the last depth from
    # rank 3 on, and in type E vertex 2, at depth n - 1.  Rank 2 has no
    # generator, and draws its last coordinate from the divisors.  A depth
    # with no generator and no due cell whose coordinate the next generator
    # multiplies in looks ahead to that leaf: the branch vertex's free
    # neighbour in type E.  D's free leaf, at depth 2, scans its full cap.
    # Each plan built here also runs _column_plan's assertions.
    n, factors = t.rank, _mesh_factors(t)
    caps = clipped_caps(t, search_period(t), 64)
    plan = _column_plan(t, caps)
    own, ahead = leaf_depths(plan, n)
    assert ahead == ([n - 2] if t.family == "E" else [])
    for d in ahead:
        i, _, gen, due, pair, _ = plan[d]
        l, _, (g, m, others, *_), _, next_pair, _ = plan[d + 1]
        assert gen is None and due == () and pair == next_pair == (l, g, m) and (i, 1, 0) in others
    capped = [d for d in own if plan[d][2] is not None]
    assert capped == [n - 1] * (t.family == "E") + [n] * (n >= 3)
    for d in capped:
        i, _, (g, m, *_), _, pair, _ = plan[d]
        assert m == 1 and pair == (i, g, 1) and factors[i] == ((g, 1, 1),)
    divisors = [d for d in own if plan[d][2] is None]
    assert divisors == [2] * (n == 2)
    for d in divisors:  # the divisors of 1 + F[v,k]**m, here at F[v,k] = 3
        ((v, m, o),) = factors[0]
        assert o == 1 and plan[d][4] == (0, v, m)
        calls = []
        monkeypatch.setattr("friezes.search._divisors", lambda x: calls.append(x) or [])
        _column_partition(t, caps, search_period(t), 3, _Tally())
        assert calls == [1 + 3**m]
    if t.family == "D":  # neither generated nor a leaf pair's: range(1, cap + 1)
        assert plan[2][2:5] == (None, (), None) and len(factors[n - 2]) == 1
    # the backward mesh at a capped depth's generator vertex g is tested
    # where g is chosen: depth n - 1, or E's free depth n - 2
    back = [d for d in range(1, n + 1) if plan[d][5] is not None]
    assert back == ([n - 2] if t.family == "E" else [n - 1] * (n >= 3))


def test_column_plan_builds_for_every_type_up_to_rank_thirty():
    # _column_plan asserts its leaf rule as it builds: among them, that no
    # leaf's generator is the row-n cell, so a capped depth takes no floor.
    # The plan's shape does not read the caps' values
    for t in types_up_to(30):
        _column_plan(t, (2,) * t.rank)


LEAF_CAP_RUNS = [
    *((name, None) for name in ("A2", "A3", "A4", "B3", "C3", "D4", "G2")),
    ("D4", 16),
    ("F4", 16),
]


@pytest.mark.parametrize("name,cap", LEAF_CAP_RUNS)
def test_row_seeded_friezes_obey_the_leaf_caps(name, cap):
    # the column search caps a leaf vertex i whose mesh reads F[i,k]*F[i,k+1]
    # = 1 + F[g,k+1] by its backward mesh: F[i,k] divides 1 + F[g,k].  The
    # other strategy's friezes check it at every vertex of that shape
    t = DynkinType.from_name(name)
    leaves = [(i, f[0][0]) for i, f in enumerate(_mesh_factors(t)) if f == ((f[0][0], 1, 1),)]
    assert leaves
    out = outcome(name, "row_seeded", entry_cap_override=cap)
    assert out.orbits and out.complete is (cap is None)
    for orbit in out.orbits:
        for column in orbit.columns:
            v = column.values
            for i, g in leaves:
                assert v[i] <= 1 + v[g] and (1 + v[g]) % v[i] == 0, (i, v)


@pytest.mark.parametrize("name,cap", LEAF_CAP_RUNS)
def test_row_seeded_friezes_pass_the_backward_mesh_test(name, cap):
    # a leaf x on g (F[x,k]*F[x,k+1] = 1 + F[g,k+1]) whose own factor in g's
    # mesh is F[x,k], g's other factors forward cells: the column search
    # keeps M = F[g,k] only if _backward_mesh_holds(P, M, cap_x), P those
    # other cells read from column k, and reads x off the backward cell
    # w = F[x,k-1].  On the other strategy's friezes the test must accept
    # every M, and the w of F[x,k] must be F[x,k-1].  The plan holds the
    # test from rank 3 on (rank 2 has no capped depth); G2 has no such pair,
    # its generator reading F[1,k]**3
    t = DynkinType.from_name(name)
    n, factors = t.rank, _mesh_factors(t)
    caps = clipped_caps(t, search_period(t), cap)
    plan = _column_plan(t, caps)
    pairs = []
    for x, g in [(x, f[0][0]) for x, f in enumerate(factors) if f == ((f[0][0], 1, 1),)]:
        own, *rest = factors[g]
        if own == (x, 1, 0) and all(o for *_, o in rest):
            rest = tuple((l, m, 0) for l, m, _ in rest)
            assert plan[n - g][0] == g and plan[n - g][5] == ((rest, caps[x]) if n > 2 else None)
            pairs.append((x, g, rest))
    assert pairs or t.family == "G"
    out = outcome(name, "row_seeded", entry_cap_override=cap)
    assert out.orbits and out.complete is (cap is None)
    for orbit in out.orbits:
        cols = [column.values for column in orbit.columns]
        for k, v in enumerate(cols):
            w = cols[k - 1]  # the orbit closes: column -1 is its last
            for x, g, rest in pairs:
                cofactor = _product((v, None), rest)
                assert _backward_mesh_holds(cofactor, v[g], caps[x]), (k, v)
                assert (v[x] + cofactor) % v[g] == 0 and v[x] * w[x] == 1 + v[g], (k, v)


@pytest.mark.parametrize(
    "name,caps",
    [
        ("E6", (12,) * 6),
        ("E7", (6,) * 7),
        # the next coordinate's cap below the modulus cap: x1 can exceed it
        ("E6", (12, 5, 12, 12, 12, 12)),
        # hundreds of free-depth calls, with moduli up to the caps
        ("E6", (64,) * 6),
        ("E7", (64,) * 7),
        ("E6", (64, 20, 64, 64, 64, 64)),
        ("E8", (12,) * 8),
        ("E8", (64,) * 8),
    ],
    ids=["E6@12", "E7@6", "E6-uneven", "E6@64", "E7@64", "E6-uneven@64", "E8@12", "E8@64"],
)
@pytest.mark.parametrize("oracle", ["table", "pow"])
def test_lookahead_keeps_exactly_the_solvable_coordinates(name, caps, oracle, monkeypatch):
    # at every free-depth call of a real search, x is kept exactly when the
    # next depth's congruence generates a least candidate x1 that divides
    # 1 + M, M the modulus (the next depth's leaf cap), and x passes the
    # plain backward scan with P = M.  The least solution of x1 * y = -1
    # (mod M) comes from a table scanned once per modulus or from pow's
    # inverse, and the generator must start with it.  One tally serves every
    # partition, as in a run, so 1 + M is factored once per modulus
    least = least_solution_by_table if oracle == "table" else least_solution_by_pow
    t = DynkinType.from_name(name)
    plan = _column_plan(t, caps)
    _, (d,) = leaf_depths(plan, t.rank)
    i, coord_cap, *_, (rest, back_cap) = plan[d]
    l, next_cap, (g, m, others, cell_cap, floored), _, pair, _ = plan[d + 1]
    assert m == 1 and not floored and pair == plan[d][4] == (l, g, 1)  # floor 1, a leaf on g
    assert rest == ((g, 1, 0),)  # the back test's P is the modulus
    # x enters the generator once, beside forward cells: its cofactor is x * r
    assert (i, 1, 0) in others and all(o for u, _, o in others if u != i)
    calls, factored = [], []

    def record(r, modulus, *limits):
        kept = _solvable_coordinates(r, modulus, *limits)
        calls.append((r, modulus, limits[:-1], list(kept)))
        return kept

    monkeypatch.setattr("friezes.search._solvable_coordinates", record)
    monkeypatch.setattr("friezes.search._divisors", lambda x: factored.append(x) or _divisors(x))
    tally = _Tally()
    for start in _start_values(t, caps):
        _column_partition(t, caps, search_period(t), start, tally)
    assert calls
    assert sorted(factored) == sorted({1 + modulus for _, modulus, _, _ in calls})
    for r, modulus, limits, kept in calls:
        assert limits == (next_cap, cell_cap, coord_cap, back_cap) and math.gcd(r, modulus) == 1
        solvable = []
        for x in range(1, coord_cap + 1):
            y = x * r
            x1 = least(y, modulus)
            fits = x1 is not None and x1 <= next_cap and x1 * y < cell_cap * modulus
            x1s = list(_congruence_candidates(1, y, modulus, next_cap, cell_cap, 1))
            assert x1s[:1] == ([x1] if fits else []), (x, y, modulus)
            if fits and (modulus + 1) % x1 == 0 and plain_backward_scan(modulus, x, back_cap):
                solvable.append(x)
        assert kept == solvable


_LEAST_SOLUTIONS: dict = {}


def least_solution_by_table(y, modulus):
    # the least x1 in [1, modulus] with x1 * y = -1 (mod modulus), or None,
    # from a table over the residues of y, each filled by a scan of x1
    table = _LEAST_SOLUTIONS.get(modulus)
    if table is None:
        table = _LEAST_SOLUTIONS[modulus] = [
            next((x1 for x1 in range(1, modulus + 1) if (x1 * r + 1) % modulus == 0), None)
            for r in range(modulus)
        ]
    return table[y % modulus]


def least_solution_by_pow(y, modulus):
    # the same least x1 from pow's modular inverse; modulus 1 gives x1 = 1
    if math.gcd(y, modulus) != 1:
        return None
    return -pow(y, -1, modulus) % modulus or modulus


def plain_solvable_scan(r, modulus, next_cap, cell_cap, cap):
    # x in [1, cap] whose least x1 >= 1 with x1 * x * r = -1 (mod modulus)
    # (1 when modulus is 1) is within next_cap, gives a cell within cell_cap
    # and divides modulus + 1
    kept = []
    for x in range(1, cap + 1):
        if math.gcd(x * r, modulus) == 1:
            x1 = -pow(x * r, -1, modulus) % modulus or modulus
            cell = (x1 * x * r + 1) // modulus
            if x1 <= next_cap and cell <= cell_cap and (modulus + 1) % x1 == 0:
                kept.append(x)
    return kept


@settings(max_examples=200, deadline=None)
@given(
    modulus=st.one_of(st.just(1), st.integers(2, 60), st.integers(1025, 3072)),
    r=st.integers(1, 40),
    next_cap=st.one_of(st.integers(1, 60), st.integers(1, 4096)),
    cell_cap=st.integers(1, 64),
    cap=st.integers(1, 3000),
    back_cap=st.one_of(st.integers(1, 60), st.integers(1, 4096)),
)
@example(modulus=1, r=1, next_cap=1, cell_cap=5, cap=9, back_cap=1)  # keeps 1 and 2
@example(modulus=1, r=1, next_cap=1, cell_cap=5, cap=9, back_cap=2)  # and 3 = 2*M + 1
@example(modulus=2049, r=3, next_cap=50, cell_cap=64, cap=3000, back_cap=4096)  # above a thousand
@example(modulus=59, r=1, next_cap=59, cell_cap=64, cap=20, back_cap=59)  # cap far below B
@example(modulus=7, r=4, next_cap=7, cell_cap=6, cap=3000, back_cap=8)  # x = B // x1 + 1 solves
@example(modulus=3, r=1, next_cap=3, cell_cap=1, cap=5, back_cap=4)  # B = 2: x1 = 1 and 2 keep 2 and 1
# 7 prime: only x1 = 1 divides it
@example(modulus=6, r=1, next_cap=6, cell_cap=64, cap=3000, back_cap=7)
# x1 = 2 and 5 divide 10, x1 = 4, 7 and 8 do not
@example(modulus=9, r=4, next_cap=9, cell_cap=64, cap=300, back_cap=10)
@example(modulus=719, r=1, next_cap=719, cell_cap=64, cap=3000, back_cap=720)  # 720 has 30 divisors
@example(modulus=719, r=1, next_cap=719, cell_cap=64, cap=3000, back_cap=719)  # 2*M + 1 over the cap
@example(modulus=2, r=1, next_cap=2, cell_cap=64, cap=300, back_cap=3)  # only x1 = 1 counts, not 3
@example(modulus=100, r=999, next_cap=100, cell_cap=1, cap=300, back_cap=101)  # B = 0: none kept
@example(modulus=1000, r=3, next_cap=2, cell_cap=64, cap=3000, back_cap=1001)  # stops at next_cap
@example(modulus=5039, r=1, next_cap=5039, cell_cap=64, cap=20000, back_cap=5040)
@example(modulus=5, r=1, next_cap=5, cell_cap=64, cap=300, back_cap=1)  # f = 2, 3 divide 6: no f + M
def test_solvable_coordinates_match_the_plain_scan(modulus, r, next_cap, cell_cap, cap, back_cap):
    # a synthetic free depth: the modulus is seed cell 0 and r = F[0,k+1],
    # and the back test's P is the modulus.  Equality with the ascending
    # scan also checks the order and that no x comes twice, over moduli 1,
    # small and above a thousand; a second call reads the pairs of 1 + M
    # from the first's memo
    assume(math.gcd(r, modulus) == 1)
    expected = [
        x
        for x in plain_solvable_scan(r, modulus, next_cap, cell_cap, cap)
        if plain_backward_scan(modulus, x, back_cap)
    ]
    memo = {}
    for _ in range(2):
        kept = _solvable_coordinates(r, modulus, next_cap, cell_cap, cap, back_cap, memo)
        assert list(kept) == expected
    assert list(memo) == [modulus]


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
        ("B4", 256, 75, 15, "06f7021921eea21c", 164),
        ("C4", 256, 70, 14, "4907534766d2da06", 69),
        ("F4", 512, 112, 16, "d37c9d70526d8a9c", 1168),
        # the e6-col benchmark workload: free depth, both leaf caps, back test
        ("E6", 256, 826, 66, "a831447ff03460ff", 3826),
        ("E6", 512, 868, 70, "f85a562f5c6b2353", 7332),
        pytest.param("E7", 1024, 3460, 346, "90f798b133a50275", 76155, marks=pytest.mark.slow),
        # its free depth and both leaf caps prune here; E8@64 holds one orbit
        ("E8", 256, 1736, 118, "a05904aaa4316bff", 49392),
        # moduli above a thousand reach the free-depth lookahead
        ("E6", 2048, 868, 70, "f85a562f5c6b2353", 31895),
    ],
    ids=["B4@256", "C4@256", "F4@512", "E6@256", "E6@512", "E7@1024", "E8@256", "E6@2048"],
)
def test_doubled_edge_column_search_at_large_caps(name, cap, count, orbits, digest, nodes):
    # doubled edges give power congruences (m > 1) with moduli in the hundreds,
    # E6, E7 and E8 are scaling targets; regression values, not published counts
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
    partitions = 2  # start values 1 and 2: the partition proof empties 3 .. 8
    assert 1 <= len(budget_notes) <= partitions


def test_undersized_period_cap_reports_cap_exceeded():
    # with the recurrence guard below the true period, candidates that never
    # close are reported and the outcome is uncertified.  Partition 2, which
    # held seed (3, 2), is not searched: every A_n frieze has a 1 in row n
    # (and the paper's inequality proves it for A2), whatever the period
    out = outcome("A2", "column_dfs", period=3)
    assert not out.complete
    assert out.notes == tuple(
        f"cap exceeded: seed {seed} did not recur within 3 steps"
        for seed in [(1, 1), (2, 1)]
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
    ("A2", None, 5, "26e2c35bb4a16cab", True, (1, 1), (1, 1)),
    ("A3", None, 14, "6754f3332bf29d25", True, (4, 4), (4, 4)),
    ("B2", None, 6, "4dbd41d47196a995", True, (2, 2), (2, 2)),
    ("C2", None, 6, "bc33d99f1a779b11", True, (2, 2), (2, 2)),
    ("G2", None, 9, "762f2b48aa268770", True, (9, 1682), (9, 54)),
    ("B3", 32, 21, "a7b31165b01b9e09", False, (13, 84), (13, 80)),
    ("C3", 32, 20, "9f41c9d0dc4a6237", False, (11, 18), (11, 18)),
    ("D4", 8, 19, "0e75cc0d7a51ba5f", False, (76, 18319), (76, 212)),
    ("F4", 16, 7, "4df6259b33d2e253", False, (75, 235), (75, 221)),
    ("E7", 6, 0, "4f53cda18c2baa0c", False, (170, 6859), (170, 368)),
    ("E8", 4, 0, "4f53cda18c2baa0c", False, (48, 24), (48, 24)),
    ("B4", 12, 15, "7105166c0046b3d0", False, (40, 120), (40, 90)),
    ("C4", 12, 10, "db6af63233c3f324", False, (38, 41), (38, 31)),
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
    # so a fault in the orbit walk of the column search cannot reach it.
    # Its partitions run directly: these runs take partition 1 by
    # reduction, which walks orbits
    def walk(*args, **kwargs):
        raise AssertionError("row_seeded walked an orbit")

    monkeypatch.setattr("friezes.search._orbit", walk)
    tally = searched(name, "row_seeded", cap)
    assert sum(len(key) for key in tally.orbits) == count
    assert tally_digest(tally) == digest
    assert tally.notes == []


def test_column_search_walks_each_orbit_once(monkeypatch):
    # a serial run's partitions share one tally, so a seed of an orbit that
    # a lower partition walked is skipped, not walked again, and so is a
    # column that a walk leaving the caps traced
    walked, traced_before, left = [], set(), 0

    def walk(t, first, *args):
        nonlocal left
        assert first not in traced_before
        traced, closed = _orbit(t, first, *args)
        traced_before.update(traced)
        if closed:
            walked.append(_canonical_columns(traced))
        left += not closed
        return traced, closed

    monkeypatch.setattr("friezes.search._orbit", walk)
    for name, orbits in (("E6", 22), ("E7", 6)):
        traced_before.clear()
        out = outcome(name, "column_dfs", entry_cap_override=32)
        assert len(out.orbits) == orbits
    assert left
    assert len(walked) == len(set(walked))


@pytest.mark.parametrize(
    "name,strategy,cap,stride",
    [
        # each crosses a partition boundary; D4's partition 1 is taken by
        # reduction, and its partition 2 searches over ten strides
        ("C3", "column_dfs", None, 1),
        ("D4", "row_seeded", None, 1000),
        # E6 has a free depth: its nodes come from the lookahead's candidates
        ("E6", "column_dfs", 12, 30),
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
    # certified C3 at h+2 = 8: 11 nodes; row_seeded there takes about 40 s
    + [("C3", None, "column_dfs")],
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


def plain_capped_scan(y, modulus, cap, cell_cap):
    # x in [1, min(cap, M + 1)] dividing M + 1 with x*y = -1 (mod M), its
    # cell (x*y + 1) / M at most cell_cap
    return [
        x
        for x in range(1, min(cap, modulus + 1) + 1)
        if (modulus + 1) % x == 0
        and (x * y + 1) % modulus == 0
        and (x * y + 1) // modulus <= cell_cap
    ]


@settings(max_examples=400, deadline=None)
@given(
    y=st.integers(1, 300),
    modulus=st.one_of(st.just(1), st.integers(2, 400)),
    cap=st.integers(1, 500),
    cell_cap=st.integers(1, 600),
)
@example(y=7, modulus=1, cap=9, cell_cap=20)  # M = 1: x = 1 and 2
@example(y=12, modulus=6, cap=50, cell_cap=600)  # w0 = 0: none
@example(y=5, modulus=6, cap=7, cell_cap=64)  # w0 = 1: x = 1 and x = M + 1
@example(y=5, modulus=6, cap=6, cell_cap=64)  # w0 = 1, x = M + 1 above the cap
@example(y=3, modulus=5, cap=9, cell_cap=2)  # w0 = 2: x = 3, cell on its cap
@example(y=4, modulus=6, cap=9, cell_cap=64)  # w0 = 2 does not divide 7
def test_capped_candidates_match_the_plain_scan(y, modulus, cap, cell_cap):
    # a capped depth reads each candidate off its backward cell w = -y
    # (mod M); equality with the ascending scan also checks the order
    got = _capped_candidates(y, modulus, cap, cell_cap)
    assert got == plain_capped_scan(y, modulus, cap, cell_cap)


@settings(max_examples=400, deadline=None)
@given(
    p=st.integers(1, 10**4),
    modulus=st.one_of(st.just(1), st.integers(2, 400)),
    cap=st.integers(1, 500),
)
@example(p=3, modulus=1, cap=1)  # M = 1
@example(p=4, modulus=6, cap=50)  # gcd(P, M) > 1
@example(p=6, modulus=6, cap=50)  # P = 0 (mod M)
@example(p=5, modulus=6, cap=1)  # w0 = 1: x = 1 fits where x = M + 1 does not
@example(p=5, modulus=6, cap=7)  # w0 = 1: x = 1 and x = M + 1
@example(p=2, modulus=5, cap=2)  # w0 = 2: (M + 1) / w0 = 3 above the cap
@example(p=2, modulus=5, cap=3)  # w0 = 2: (M + 1) / w0 = 3 on the cap
def test_backward_mesh_holds_matches_the_plain_scan(p, modulus, cap):
    assert _backward_mesh_holds(p, modulus, cap) is plain_backward_scan(p, modulus, cap)


def plain_backward_scan(p, modulus, cap):
    # g's backward mesh F[g,k-1]*M = 1 + w*P with w = F[x,k-1], x*w = M + 1,
    # scanned over the backward cells w in [1, M + 1]
    return any(
        (modulus + 1) % w == 0 and (w * p + 1) % modulus == 0 and (modulus + 1) // w <= cap
        for w in range(1, modulus + 2)
    )


@settings(max_examples=400, deadline=None)
@given(p=st.integers(1, 400), e=st.integers(1, 500), cap=st.integers(1, 500))
@example(p=1, e=1, cap=1)  # M = 2: e = 1 needs no cap
@example(p=1, e=2, cap=1)  # M = 2*P + 1 = 3 over the cap
@example(p=1, e=2, cap=2)  # M = 2*P + 1 = 3 on the cap
@example(p=5, e=3, cap=9)  # 3 divides P + 1 = 6
@example(p=5, e=4, cap=9)  # 4 does not divide 6
@example(p=5, e=6, cap=5)  # e = P + 1 over the cap
def test_backward_mesh_keeps_above_p_only_p_plus_a_divisor_of_p_plus_one(p, e, cap):
    # the lemma of the column search's back depths: a modulus M = P + e above
    # P is kept exactly when e divides P + 1 and e <= max(1, cap), so no kept
    # M exceeds P + cap
    held = plain_backward_scan(p, p + e, cap)
    assert _backward_mesh_holds(p, p + e, cap) is held
    assert held is ((p + 1) % e == 0 and e <= max(1, cap))


@pytest.mark.parametrize(
    "name,count,nodes",
    [("C3", 20, 15), ("A4", 42, 16_407)],
    ids=["C3", "A4"],
)
def test_certified_column_dfs_matches_row_seeded(name, count, nodes):
    # the certified cross-check of the two strategies, with the column
    # search's node total.  Both searches run every partition themselves:
    # a certified run takes partition 1, all of A4, by reduction
    col = searched(name, "column_dfs")
    row = searched(name, "row_seeded")
    assert col.notes == row.notes == []
    assert sum(len(key) for key in col.orbits) == count
    assert col.orbits == row.orbits
    assert col.nodes == nodes
    assert set(orbit_keys(outcome(name, "column_dfs"))) == col.orbits


@pytest.mark.parametrize(
    "name,count,nodes,search_nodes",
    [("A4", 42, 6, 57_174), ("B3", 21, 2_959, 11_131), ("D4", 51, 18_304, 88_044)],
    ids=["A4", "B3", "D4"],
)
def test_certified_row_seeded_nodes(name, count, nodes, search_nodes):
    # the run takes partition 1 by reduction, one node per orbit walk.  In
    # the search itself, partition 1 included, only top cells that leave
    # the row's next top cell room within its product cap count as nodes
    # (on D4 mostly at the last position, whose next cell wraps around);
    # A4's pin-test position scans every such top cell
    out = outcome(name, "row_seeded")
    assert out.frieze_count == count and out.complete
    assert out.nodes_explored == nodes
    assert searched(name, "row_seeded").nodes == search_nodes


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
    tally = searched(name, "row_seeded", cap)  # partition 1 too
    expected = {}
    for key in tally.orbits:
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
    with pytest.raises(ValueError):  # no None: the default is column_dfs
        SearchConfig(dynkin=t, strategy=None)
    with pytest.raises(TypeError):  # the period is the type's, no setting
        SearchConfig(dynkin=t, period_cap=8)
    with pytest.raises(ValueError):
        SearchConfig(dynkin=t, entry_cap_override=0)
    with pytest.raises(ValueError):
        SearchConfig(dynkin=t, jobs=0)


def test_rank_one_takes_the_reduction_under_either_strategy(monkeypatch):
    def search(*args):
        raise AssertionError("a rank-1 partition was searched")

    monkeypatch.setattr("friezes.search._column_partition", search)
    monkeypatch.setattr("friezes.search._row_partition", search)
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


@pytest.mark.parametrize("t", [DynkinType("A", 1), *PLAN_TYPES], ids=str)
def test_config_strategy_defaults_to_the_type_default(t):
    # one default for every type, rank 1 included
    assert SearchConfig(t).strategy == "column_dfs"


def test_config_without_strategy_runs_the_default():
    cfg = SearchConfig(DynkinType("A", 4))
    assert cfg.strategy == "column_dfs"
    out = enumerate_friezes(cfg)
    assert out.frieze_count == 42 and out.complete and out.nodes_explored == 6


@pytest.mark.parametrize("name,top", [("A3", 6), ("B3", 15), ("D4", 10)])
def test_row_seeded_matches_column_dfs_at_every_small_override(name, top):
    # overrides equal to some frieze entry put a cell exactly on the cap,
    # the boundary of the row-seeded cut-off and closed-form bound
    for cap in range(1, top + 1):
        col = outcome(name, "column_dfs", entry_cap_override=cap)
        row = outcome(name, "row_seeded", entry_cap_override=cap)
        assert orbit_keys(col) == orbit_keys(row), cap
