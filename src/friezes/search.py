"""Exhaustive enumeration of friezes of a given type.

Two independent strategies are provided so their outcomes can be checked
against each other:

* ``column_dfs`` enumerates candidate seed columns and traces each to a
  closed orbit.  Coordinates are chosen bottom-up (vertex ``n`` first);
  each further coordinate is generated from the exact divisibility
  constraint imposed by the next propagated column, so the search never
  scans a full cap range where a congruence pins the value down.
* ``row_seeded`` enumerates cyclic tuples for row ``n`` and solves the
  remaining rows through the mesh relations, branching over divisor
  factorizations where a branch vertex leaves a product of two unknown
  rows (types D and E).

Soundness of the pruning:

* every entry of a frieze is at most ``2**(p*b_i)``, and every row product
  over ``p`` columns obeys the same bound (kept as exact integer caps);
* every orbit contains a column whose row-``n`` entry is that row's
  minimum, which is at most the geometric mean of the row and hence at
  most ``2**b_n``; only that far does the first coordinate need to range;
* a frieze column extends in both directions, so true columns satisfy
  every forward and backward divisibility constraint used as a generator;
* row seeding, monotone cut-off: setting seed entry ``t_j = v`` gives
  each forced row one new cell ``((a*b - 1)/den)**(1/m)``, where ``a``
  and ``den`` are already fixed and ``b`` is the new cell of the row
  above (``v`` itself for the top forced row).  Read as real numbers, every
  new cell, every running row product and the type-E branch product are
  therefore non-decreasing in ``v``, and an exact cell equals its real
  value.  Candidates for ``t_j`` are generated in ascending order, so the
  first candidate that exceeds an entry, product or branch cap ends the
  candidate loop: every larger candidate that survives the same exact
  divisions exceeds that cap too.  Inexact divisions, non-perfect powers,
  a zero numerator and the vertex-1 mesh are not monotone and only skip
  the candidate.  The top forced row's caps give the closed form
  ``v <= (L**m + 1) // t_{j-1}`` with ``L`` the least of its entry cap
  and its product cap over the running product;
* row seeding, pinned chain tail: mesh relations are invertible
  (Conway-Coxeter: a frieze is fixed by a few consecutive entries).  In a
  chain, once the wavefront holds a row-1 cell, the vertex-1 mesh fixes
  the next row-1 cell, and each forced mesh, read upwards, fixes its
  source row's next cell by one exact division.  So ``t_j`` has at most
  one value from then on, and it still passes every forward check.

Counts treat each of the ``q`` distinct columns of a minimal-period-``q``
orbit as a distinct frieze (a frieze and its translates are different
functions on the quiver).
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from dataclasses import dataclass
from functools import lru_cache

from .bounds import floor_pow2, integer_root
from .catalog import DynkinType, type_profile
from .mesh import (
    FriezePattern,
    IndivisibleError,
    forward_values,
    pattern_from_columns,
    verify_pattern,
)
from .mesh import _neighbor_plan  # shared neighbor tables

__all__ = [
    "SearchConfig",
    "Orbit",
    "SearchOutcome",
    "enumerate_friezes",
    "column_dfs",
    "row_seeded",
    "entry_caps",
    "default_strategy",
    "stderr_progress",
]

PROGRESS_STRIDE = 1_000_000

_CHAIN_FAMILIES = frozenset("ABCFG")
_RESIDUE_SCAN_LIMIT = 1 << 16
_NO_RECURRENCE = "no_recurrence"


@dataclass(frozen=True)
class SearchConfig:
    dynkin: DynkinType
    strategy: str = "column_dfs"
    period_cap: int | None = None  # default: catalog cap
    entry_cap_override: int | None = None
    jobs: int = 1
    node_budget: int = 100_000_000  # divisor-branch guard per partition

    def __post_init__(self) -> None:
        if self.strategy not in ("column_dfs", "row_seeded"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.period_cap is not None and self.period_cap < 1:
            raise ValueError("period_cap must be positive")
        if self.entry_cap_override is not None and self.entry_cap_override < 1:
            raise ValueError("entry_cap_override must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")


@dataclass(frozen=True)
class Orbit:
    """A frieze orbit: the canonical minimal-period pattern plus its size
    (the number of distinct columns, i.e. of distinct frieze functions)."""

    pattern: FriezePattern
    size: int


@dataclass(frozen=True)
class SearchOutcome:
    orbits: tuple[Orbit, ...]
    frieze_count: int
    complete: bool
    nodes_explored: int
    notes: tuple[str, ...] = ()


def default_strategy(t: DynkinType) -> str:
    """Row seeding for chains of rank >= 2, column search otherwise."""
    if t.family in _CHAIN_FAMILIES and t.rank >= 2:
        return "row_seeded"
    return "column_dfs"


def entry_caps(
    t: DynkinType, period_cap: int, override: int | None = None
) -> tuple[int, ...]:
    """Exact per-entry caps ``floor(2**(p*b_i))``, clipped by an override."""
    b = type_profile(t).b
    caps = [floor_pow2(period_cap * bi) for bi in b]
    if override is not None:
        caps = [min(c, override) for c in caps]
    return tuple(caps)


def _effective_period_cap(cfg: SearchConfig) -> int:
    return cfg.period_cap if cfg.period_cap is not None else type_profile(cfg.dynkin).period_cap


def _certified(cfg: SearchConfig) -> bool:
    """True when no configuration choice truncated the certified space."""
    catalog_cap = type_profile(cfg.dynkin).period_cap
    p = _effective_period_cap(cfg)
    if p < catalog_cap:
        return False
    if cfg.entry_cap_override is None:
        return True
    return all(cfg.entry_cap_override >= c for c in entry_caps(cfg.dynkin, p))


def _divisors(x: int) -> list[int]:
    """Sorted divisors by trial division; inputs stay small under pruning."""
    small, large = [], []
    f = 1
    while f * f <= x:
        if x % f == 0:
            small.append(f)
            if f * f != x:
                large.append(x // f)
        f += 1
    large.reverse()
    return small + large


def _canonical_columns(cols) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least rotation of the column sequence."""
    q = len(cols)
    best = tuple(cols)
    for r in range(1, q):
        rot = tuple(cols[(r + m) % q] for m in range(q))
        if rot < best:
            best = rot
    return best


def _minimal_period(cols) -> int:
    p = len(cols)
    for q in _divisors(p):
        if all(cols[k] == cols[(k + q) % p] for k in range(p)):
            return q
    return p


class _Tally:
    """Node counter; emits a progress line every million nodes."""

    def __init__(self, progress=None):
        self.nodes = 0
        self.found = 0
        self._progress = progress
        self._next = PROGRESS_STRIDE

    def add(self) -> None:
        self.nodes += 1
        if self.nodes >= self._next:
            self._next += PROGRESS_STRIDE
            if self._progress is not None:
                self._progress(self.nodes, self.found)


def _trace_orbit(t, seed, caps, period_cap):
    """Forward-propagate a seed until it recurs.

    Returns the orbit's columns, ``None`` for a dead or out-of-cap
    candidate, or ``"no_recurrence"`` when the cap runs out.  Because
    propagation is invertible, the first repeated column is the seed
    itself, so the returned orbit has minimal period.
    """
    cols = [seed]
    cur = seed
    for _ in range(period_cap):
        try:
            cur = forward_values(t, cur)
        except IndivisibleError:
            return None
        if any(v > c for v, c in zip(cur, caps)):
            return None
        if cur == seed:
            return cols
        cols.append(cur)
    return _NO_RECURRENCE


# ---------------------------------------------------------------------------
# column strategy
# ---------------------------------------------------------------------------


def _column_plan(t: DynkinType):
    """Static tables for the bottom-up column DFS.

    Coordinate ``i`` (0-based vertex) is chosen at depth ``n - i``.  The
    forward cell of vertex ``j`` (its value in the next column) becomes
    computable at ``cell_depth[j]``.  The generator at depth ``d``, when
    one exists, is a due cell whose only missing input is the new
    coordinate; it turns into a congruence that generates candidates.
    """
    lower, upper = _neighbor_plan(t)
    n = t.rank
    cell_depth = [0] * n
    for j in range(n - 1, -1, -1):
        d = n - j
        for l, _ in lower[j]:
            d = max(d, n - l)
        for u, _ in upper[j]:
            d = max(d, cell_depth[u])
        cell_depth[j] = d
    cells_due = {d: [] for d in range(1, n + 1)}
    for j in range(n - 1, -1, -1):  # descending: upper cells evaluate first
        cells_due[cell_depth[j]].append(j)
    generator = {}
    for d in range(2, n + 1):
        x = n - d  # coordinate chosen at depth d
        pick = None
        for j in cells_due[d]:
            if j == x or any(cell_depth[u] >= d for u, _ in upper[j]):
                continue  # own denominator, or transitive dependence on x
            mult = next((m for l, m in lower[j] if l == x), None)
            if mult is not None:
                pick = (j, mult)
                break
        generator[d] = pick
    return lower, upper, cells_due, generator


def _congruence_candidates(m, y, modulus, cap):
    """Ascending x in [1, cap] with ``x**m * y = -1 (mod modulus)``."""
    if modulus == 1:
        return range(1, cap + 1)
    if m == 1:
        if math.gcd(y, modulus) != 1:
            return ()
        x0 = (-pow(y, -1, modulus)) % modulus
        if x0 == 0:
            x0 = modulus
        return range(x0, cap + 1, modulus)
    if modulus <= _RESIDUE_SCAN_LIMIT:
        ym = y % modulus
        roots = [r for r in range(modulus) if (pow(r, m, modulus) * ym + 1) % modulus == 0]
        if not roots:
            return ()

        def progressions():
            base = 0
            while base <= cap:
                for r in roots:
                    x = base + r
                    if x >= 1:
                        if x > cap:
                            return
                        yield x
                base += modulus

        return progressions()
    return range(1, cap + 1)  # rare fallback; the cell checks still filter


def _column_partition(t, caps, period_cap, start, tally):
    """Orbits reachable from seed columns whose row-n entry is ``start``."""
    n = t.rank
    lower, upper, cells_due, generator = _column_plan(t)
    vals = [0] * n
    cells1 = [0] * n
    orbits: dict = {}
    visited: set = set()
    notes: list[str] = []

    def eval_cells(d) -> bool:
        for j in cells_due[d]:
            num = 1
            for l, m in lower[j]:
                v = vals[l]
                num *= v if m == 1 else v**m
            for u, m in upper[j]:
                v = cells1[u]
                num *= v if m == 1 else v**m
            q, r = divmod(1 + num, vals[j])
            if r or q > caps[j]:
                return False
            cells1[j] = q
        return True

    def leaf() -> None:
        seed = tuple(vals)
        if seed in visited:
            return
        traced = _trace_orbit(t, seed, caps, period_cap)
        if traced is None:
            return
        if traced == _NO_RECURRENCE:
            notes.append(f"cap exceeded: seed {seed} did not recur within {period_cap} steps")
            return
        visited.update(traced)
        key = _canonical_columns(traced)
        if key not in orbits:
            orbits[key] = len(traced)
            tally.found += 1

    def descend(d) -> None:
        if d > n:
            leaf()
            return
        i = n - d
        gen = generator[d]
        if gen is None:
            candidates = range(1, caps[i] + 1)
        else:
            j, m = gen
            y = 1
            for l, mm in lower[j]:
                if l != i:
                    v = vals[l]
                    y *= v if mm == 1 else v**mm
            for u, mm in upper[j]:
                v = cells1[u]
                y *= v if mm == 1 else v**mm
            candidates = _congruence_candidates(m, y, vals[j], caps[i])
        for x in candidates:
            tally.add()
            vals[i] = x
            if eval_cells(d):
                descend(d + 1)
        vals[i] = 0

    tally.add()
    vals[n - 1] = start
    if not eval_cells(1):
        return orbits, notes
    if n == 1:
        leaf()
    elif n == 2:
        # Last coordinate: the previous column pins v1 to a divisor of
        # 1 + v2**(-C[1,2]); the forward cells then filter candidates.
        k = 1
        for u, m in upper[0]:
            v = vals[u]
            k *= v if m == 1 else v**m
        for x in _divisors(1 + k):
            if x > caps[0]:
                break
            tally.add()
            vals[0] = x
            if eval_cells(2):
                leaf()
        vals[0] = 0
    else:
        descend(2)
    return orbits, notes


# ---------------------------------------------------------------------------
# row-seeded strategy
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _forced_meshes(t: DynkinType):
    """Mesh relations with a single unknown lower row, in solve order.

    Returns ``(sources, levels)``: the mesh at source vertex ``s``
    (0-based) defines its unique lower neighbor row; ``levels[r]`` is the
    number of seed entries beyond column ``k`` needed for row ``r``'s
    entry at column ``k``.
    """
    lower, _ = _neighbor_plan(t)
    n = t.rank
    if t.family in _CHAIN_FAMILIES:
        sources = list(range(n - 1, 0, -1))
    elif t.family == "E":
        sources = list(range(n - 1, 3, -1))  # down to vertex 5
    else:  # D: only the mesh at vertex n is forced before branching
        sources = [n - 1]
    levels = {n - 1: 0}
    for s in sources:
        (r, _), = lower[s]
        levels[r] = levels[s] + 1
    return sources, levels


def _solve_forced_row(t, rows, s, caps, p):
    """Full cyclic solve of the row defined by the mesh at ``s`` (0-based)."""
    lower, upper = _neighbor_plan(t)
    (r, m), = lower[s]
    out = []
    src = rows[s]
    for k in range(p):
        num = src[k] * src[(k + 1) % p] - 1
        if num < 1:
            return None
        den = 1
        for u, mu in upper[s]:
            v = rows[u][(k + 1) % p]
            den *= v if mu == 1 else v**mu
        q, rem = divmod(num, den)
        if rem:
            return None
        if m > 1:
            root = integer_root(q, m)
            if root**m != q:
                return None
            q = root
        if q < 1 or q > caps[r]:
            return None
        out.append(q)
    return out


def _check_vertex_mesh(t, rows, i, p) -> bool:
    """All ``p`` cyclic mesh relations at vertex ``i`` (0-based)."""
    lower, upper = _neighbor_plan(t)
    row = rows[i]
    for k in range(p):
        rhs = 1
        for l, m in lower[i]:
            v = rows[l][k]
            rhs *= v if m == 1 else v**m
        for u, m in upper[i]:
            v = rows[u][(k + 1) % p]
            rhs *= v if m == 1 else v**m
        if row[k] * row[(k + 1) % p] != 1 + rhs:
            return False
    return True


def _divisor_row(products, first_divides, extra_divides, cap_r, p, tally, budget):
    """Solutions of ``w[k] * w[k+1] = products[k]`` cyclically.

    ``w[0]`` ranges over divisors of ``first_divides``; every ``w[k]``
    must divide ``extra_divides[k]`` when given.  One budgeted node per
    candidate.
    """
    for u in _divisors(first_divides):
        if u > cap_r:
            break
        if budget[0] <= 0:
            return
        budget[0] -= 1
        tally.add()
        w = [u]
        ok = True
        for k in range(p - 1):
            q, rem = divmod(products[k], w[k])
            if rem or q > cap_r or (extra_divides is not None and extra_divides[k + 1] % q):
                ok = False
                break
            w.append(q)
        if ok and w[-1] * w[0] == products[p - 1]:
            if extra_divides is None or extra_divides[0] % w[0] == 0:
                yield w


def _reconstruct_from_seed_row(t, trow, caps, tally, budget, notes):
    """Yield the column lists of every frieze whose row ``n`` is ``trow``.

    Chains are fully forced; D and E types branch over divisor
    factorizations at the branch vertex.
    """
    lower, upper = _neighbor_plan(t)
    n = t.rank
    p = len(trow)
    rows: list = [None] * n
    rows[n - 1] = list(trow)
    sources, _ = _forced_meshes(t)
    for s in sources:
        (r, _), = lower[s]
        solved = _solve_forced_row(t, rows, s, caps, p)
        if solved is None:
            return
        rows[r] = solved

    def columns():
        return [tuple(rows[i][k] for i in range(n)) for k in range(p)]

    if t.family in _CHAIN_FAMILIES:
        if _check_vertex_mesh(t, rows, 0, p):
            yield columns()
        return

    if t.family == "D":
        c = n - 3  # 0-based branch vertex (vertex n-2)
        prods = [trow[k] * trow[(k + 1) % p] for k in range(p)]  # = 1 + rows[c][k]
        for w in _divisor_row(prods, prods[0], None, caps[n - 2], p, tally, budget):
            rows[n - 2] = w
            ok = True
            for s in range(c, 0, -1):  # meshes at vertices c..2 give rows c-1..1
                solved = _solve_forced_row(t, rows, s, caps, p)
                if solved is None:
                    ok = False
                    break
                rows[s - 1] = solved
            if ok and _check_vertex_mesh(t, rows, 0, p):
                yield columns()
        if budget[0] <= 0:
            notes.append("factorization budget exhausted")
        return

    # E types: the mesh at the branch vertex 4 pins the product of rows 2, 3
    mvals = []
    r4, r5 = rows[3], rows[4]
    for k in range(p):
        num = r4[k] * r4[(k + 1) % p] - 1
        if num < 1:
            return
        q, rem = divmod(num, r5[(k + 1) % p])
        if rem:
            return
        mvals.append(q)
    qvals = [1 + r4[(k + 1) % p] for k in range(p)]  # row-2 consecutive products
    for w in _divisor_row(qvals, math.gcd(qvals[0], mvals[0]), mvals, caps[1], p, tally, budget):
        rows[1] = w
        row3 = []
        ok = True
        for k in range(p):
            q, rem = divmod(mvals[k], w[k])
            if rem or q < 1 or q > caps[2]:
                ok = False
                break
            row3.append(q)
        if ok:
            rows[2] = row3
            solved = _solve_forced_row(t, rows, 2, caps, p)  # mesh at vertex 3: row 1
            if solved is not None:
                rows[0] = solved
                if _check_vertex_mesh(t, rows, 0, p):
                    yield columns()
    if budget[0] <= 0:
        notes.append("factorization budget exhausted")


def _row_partition(t, caps, prodcaps, period_cap, start, tally, node_budget):
    """Row-seeded search over cyclic tuples with ``t_1 = start`` (the row
    minimum, so every entry is at least ``start``)."""
    lower, upper = _neighbor_plan(t)
    n = t.rank
    p = period_cap
    sources, levels = _forced_meshes(t)
    seed_cap = caps[n - 1]
    seed_prodcap = prodcaps[n - 1]
    orbits: dict = {}
    notes: list[str] = []
    budget = [node_budget]

    # rows[i][c] is F[i+1, c+1] for the seed row (i = n-1) and the forced
    # rows alike; prods[i][c] is the product of rows[i][:c].  Cells beyond
    # the current wavefront are stale and never read.
    rows = [[0] * p for _ in range(n)]
    prods = [[1] * (p + 1) for _ in range(n)]
    trow, seed_prods = rows[n - 1], prods[n - 1]
    # One tuple per forced mesh, top row first: source row, forced row, its
    # prefix products, its level, root degree, denominator row and
    # exponent, entry and product caps.
    ones = [1] * p
    plan = []
    for s in sources:
        (r, m), = lower[s]
        # the seed row's mesh has no upper neighbour: its denominator is 1
        (u, mu), = upper[s] or ((None, 1),)
        den_row = ones if u is None else rows[u]
        plan.append((rows[s], rows[r], prods[r], levels[r], m, den_row, mu, caps[r], prodcaps[r]))
    back_plan = plan[::-1]
    _, _, top_prods, _, m_top, _, _, top_cap, top_prodcap = plan[0]

    chain = t.family in _CHAIN_FAMILIES
    if chain:
        # the vertex-1 mesh pins row 1 once it holds a cell: t_j is pinned
        # from j = pin_from on
        (_, mu1), = upper[0]
        row0, row1 = rows[0], rows[1]
        pin_from = levels[0] + 2
    branch = t.family == "E"
    if branch:
        # the branch-vertex mesh pins the product of rows 2 and 3 one level
        # below row 4; only its divisibility and cap are checked here
        row3, row4 = rows[3], rows[4]
        branch_cap = caps[1] * caps[2]

    def leaf() -> None:
        for cols in _reconstruct_from_seed_row(t, tuple(trow), caps, tally, budget, notes):
            q = _minimal_period(cols)
            key = _canonical_columns(cols[:q])
            if key not in orbits:
                orbits[key] = q
                tally.found += 1

    def descend(j) -> None:  # choose position j (1-based) of the seed row
        pinned = chain and j >= pin_from
        if pinned:
            # back-solve the forced meshes from the pinned row-1 cell up to t_j
            c0 = j - pin_from
            q, rem = divmod(1 + row1[c0 + 1] ** mu1, row0[c0])
            if rem:
                return
            for s_row, _, _, level, m, den_row, mu, _, _ in back_plan:
                c = j - level - 1
                q, rem = divmod(q**m * den_row[c + 1] ** mu + 1, s_row[c])
                if rem:
                    return
        base = seed_prods[j - 1]
        scaled = base * start ** (p - j)
        if scaled > seed_prodcap:
            return
        prev = trow[j - 2]
        # the top forced row's new cell (prev*v - 1)**(1/m_top) is at most xcap
        xcap = min(top_cap, top_prodcap // top_prods[j - 2])
        limit = min(seed_prodcap // scaled, seed_cap, (xcap**m_top + 1) // prev)
        if pinned:
            candidates = (q,) if start <= q <= limit else ()
        elif m_top == 1:
            candidates = range(start, limit + 1)
        else:
            if prev * limit < 2:
                return
            xmax = integer_root(prev * limit - 1, m_top)

            def roots():
                for x in range(1, xmax + 1):
                    pw = x**m_top + 1
                    if pw % prev == 0:
                        v = pw // prev
                        if v >= start:
                            yield v

            candidates = roots()
        # Candidates ascend and every forced cell of this step is
        # non-decreasing in t_j, so a cap failure ends the loop (stop = 2);
        # any other failure skips the candidate (stop = 1).
        for v in candidates:
            tally.add()
            trow[j - 1] = v
            seed_prods[j] = base * v
            stop = 0
            for s_row, r_row, r_prods, level, m, den_row, mu, cap, prodcap in plan:
                c = j - level - 1
                if c < 0:
                    break
                num = s_row[c] * s_row[c + 1] - 1
                if num < 1:
                    stop = 1
                    break
                den = den_row[c + 1]
                q, rem = divmod(num, den if mu == 1 else den**mu)
                if rem:
                    stop = 1
                    break
                if m > 1:
                    root = integer_root(q, m)
                    if root**m != q:
                        stop = 1
                        break
                    q = root
                if q > cap:
                    stop = 2
                    break
                prod = r_prods[c] * q
                if prod > prodcap:
                    stop = 2
                    break
                r_row[c] = q
                r_prods[c + 1] = prod
            if not stop and chain and j >= pin_from:
                c0 = j - pin_from
                if row0[c0] * row0[c0 + 1] != 1 + row1[c0 + 1] ** mu1:
                    stop = 1
            if not stop and branch and j >= n - 2:
                k = j - n + 2
                num = row3[k] * row3[k + 1] - 1
                if num < 1:
                    stop = 1
                else:
                    q, rem = divmod(num, row4[k + 1])
                    if rem:
                        stop = 1
                    elif q > branch_cap:
                        stop = 2
            if stop == 2:
                break
            if stop:
                continue
            if j == p:
                leaf()
            else:
                descend(j + 1)

    tally.add()
    if start > seed_cap or start**p > seed_prodcap:
        return orbits, notes
    trow[0] = start
    seed_prods[1] = start
    if p == 1:
        leaf()
    else:
        descend(2)
    return orbits, notes


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _start_values(t: DynkinType, caps) -> range:
    """First-coordinate partition values: 1 .. min(floor(2**b_n), cap_n)."""
    b = type_profile(t).b
    return range(1, min(floor_pow2(b[t.rank - 1]), caps[t.rank - 1]) + 1)


def _run_partition(t, strategy, period_cap, override, node_budget, start, tally):
    caps = entry_caps(t, period_cap, override)
    if strategy == "column_dfs" or t.rank == 1:
        return _column_partition(t, caps, period_cap, start, tally)
    prodcaps = entry_caps(t, period_cap)  # row products ignore the override
    return _row_partition(t, caps, prodcaps, period_cap, start, tally, node_budget)


def _partition_job(args):
    family, rank, strategy, period_cap, override, node_budget, start = args
    t = DynkinType(family, rank)
    tally = _Tally()
    orbits, notes = _run_partition(t, strategy, period_cap, override, node_budget, start, tally)
    return orbits, tally.nodes, notes


def _run(cfg: SearchConfig, strategy: str, progress=None) -> SearchOutcome:
    t = cfg.dynkin
    period_cap = _effective_period_cap(cfg)
    caps = entry_caps(t, period_cap, cfg.entry_cap_override)
    starts = _start_values(t, caps)
    merged: dict = {}
    notes: list[str] = []
    total_nodes = 0

    if cfg.jobs > 1 and len(starts) > 1:
        jobs = (
            (t.family, t.rank, strategy, period_cap, cfg.entry_cap_override, cfg.node_budget, s)
            for s in starts
        )
        with multiprocessing.Pool(min(cfg.jobs, len(starts))) as pool:
            for orbits, nodes, part_notes in pool.imap(_partition_job, jobs, chunksize=1):
                total_nodes += nodes
                notes.extend(part_notes)
                for key, q in orbits.items():
                    merged.setdefault(key, q)
    else:
        tally = _Tally(progress)
        for s in starts:
            orbits, part_notes = _run_partition(
                t, strategy, period_cap, cfg.entry_cap_override, cfg.node_budget, s, tally
            )
            notes.extend(part_notes)
            for key, q in orbits.items():
                merged.setdefault(key, q)
        total_nodes = tally.nodes

    orbit_list = []
    for key in sorted(merged):
        pattern = pattern_from_columns(t, key)
        violations = verify_pattern(pattern)
        if violations:
            raise AssertionError(f"search produced a non-frieze pattern: {violations[0]}")
        orbit_list.append(Orbit(pattern, merged[key]))
    complete = _certified(cfg) and not notes
    if progress is not None:
        progress(total_nodes, len(orbit_list))
    return SearchOutcome(
        orbits=tuple(orbit_list),
        frieze_count=sum(o.size for o in orbit_list),
        complete=complete,
        nodes_explored=total_nodes,
        notes=tuple(notes),
    )


def column_dfs(cfg: SearchConfig, progress=None) -> SearchOutcome:
    """Seed-column enumeration; complete at the exact entry caps."""
    return _run(cfg, "column_dfs", progress)


def row_seeded(cfg: SearchConfig, progress=None) -> SearchOutcome:
    """Row-``n`` tuple enumeration; rank 1 degenerates to the column walk."""
    return _run(cfg, "row_seeded", progress)


def enumerate_friezes(cfg: SearchConfig, progress=None) -> SearchOutcome:
    """Run the configured strategy."""
    if cfg.strategy == "row_seeded":
        return row_seeded(cfg, progress)
    return column_dfs(cfg, progress)


def stderr_progress(nodes: int, found: int) -> None:
    print(f"explored={nodes} found={found}", file=sys.stderr, flush=True)
