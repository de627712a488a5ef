"""Exhaustive enumeration of friezes of a given type.

Two independent strategies are provided so their outcomes can be checked
against each other:

* ``column_dfs`` enumerates candidate seed columns and traces each to a
  closed orbit.  Coordinates are chosen bottom-up (vertex ``n`` first);
  each further coordinate is generated from the exact divisibility
  constraint imposed by the next propagated column, so the search never
  scans a full cap range where a congruence pins the value down.
* ``row_seeded`` enumerates cyclic tuples for row ``n`` and solves the
  remaining rows in a plan derived from the Cartan matrix: a mesh with
  one unsolved neighbour forces that row; when none does, a vertex whose
  neighbours are all solved branches over the divisor factorizations of
  its own mesh, each entry also dividing the quotient of the stuck mesh
  that has two unsolved neighbours; the unused mesh is checked last.  A
  Dynkin diagram being a tree with at most one branch vertex, every plan
  has one shape: a chain of force steps down from the seed row (the
  wave), at most one divide step (types D and E), more force steps (the
  tail) and one check, the mesh at vertex 1.

Both read every mesh product from the factor table ``catalog._mesh_factors``
through one loop, ``mesh._product`` on a pair of columns: the row-seeded
search stores its frieze column-major (``cols[c][i] = F[i+1, c+1]``), and
only its wavefront reads its single-factor meshes inline.  Only the
column search walks orbits (``mesh._orbit``, through ``_walk``); a frieze
being fixed by one column, the row-seeded search cuts each frieze where
its column 0 recurs.  Where Catalan(n) fits row ``n``'s cap, both take
partition 1 of the types that reduce to A_{n-1} by one reduction, which
walks its orbits through ``_walk`` too (below); ``test_partition_one_*``
checks it against each search.  The strategies also share
``_congruence_candidates`` (uncapped column generator cells, the
row-seeded top row), ``_canonical_columns``, ``_start_values``,
``_divisors``, ``integer_root``, ``entry_caps``, ``_Tally`` and the final
``verify_pattern`` gate.  A fault there hits both alike, so each has its
own tests: ``test_congruence_candidates_*``,
``test_divisors_match_brute_force``,
``test_canonical_rotation_is_rotation_invariant``, ``test_integer_root_*``,
``test_start_values_fit_the_row_n_caps``, the Catalan and D_n counts.

Soundness of the pruning:

* every entry of a frieze is at most ``2**(p*b_i)``, and every row product
  over ``p`` columns obeys the same bound (kept as exact integer caps);
* half period: every frieze satisfies ``F[i,k] = F[sigma(i), k + c_i]``
  with ``c_i + c_sigma(i) = h + 2``, for the Nakayama twist
  ``(sigma, c)`` that ``catalog.twist`` derives from the Cartan matrix and
  re-checks (Keller, 2013).  Where ``sigma`` is the identity, every
  ``c_i`` is ``(h + 2) / 2``, a period of every frieze.  Every search runs
  at ``p = catalog.search_period``: that half period, else ``h + 2``.  So
  the caps above, the orbit walk's recurrence guard and the row-seeded
  cycle length all hold at it, and ``p`` exceeds the row-seeded wave by
  two rows or more (``test_solve_plan_shape`` checks it);
* every orbit contains a column whose row-``n`` entry is that row's
  minimum, which is at most the geometric mean of the row and hence at
  most ``2**b_n``; only that far does the first coordinate need to range;
* partition proof: averaging the logs of the mesh relations over a
  period gives ``C*a <= u`` for the mean logs ``a`` of the rows, ``u_j =
  log2(1 + 1/min P_j)``, ``P_j`` the mesh product at ``j``, and ``C**-1
  >= 0`` gives ``a <= C**-1 * u``.  In partition ``start`` row ``n``'s
  minimum is ``start``, and so is row ``sigma(n)``'s by the twist; a
  single-factor mesh ``F[i,k]*F[i,k+1] = 1 + F[j,k+o]**m`` lifts a floor
  ``L_i`` of row ``i`` to ``F[j]**m >= L_i**2 - 1``, and ``L_sigma(j) =
  L_j``, until nothing changes (``_row_floors``).  Each ``P_j`` is then at
  least the floors' product over ``j``'s mesh factors, and a row minimum
  is at most the row's geometric mean, so ``log2 L_i > (C**-1 * u)_i``,
  or a floor above its cap, proves the partition empty.  With ``adj =
  det * C**-1`` (``catalog._adjugate``) the test is in integers
  (``_partition_empty``); never at ``start = 1``, and monotone in
  ``start``, so the partitions end before the first it proves empty.  With
  ``u = 1`` it is the clip at ``2**b_n`` above;
* A_n has partition 1 alone: by Conway and Coxeter (1973) an A_n frieze
  is that of a triangulated ``(n + 3)``-gon, whose row 1 is the quiddity
  (triangles per vertex), and so is row ``n``, translated, by the
  frieze's glide symmetry.  A triangulation has an ear, a vertex in one
  triangle, so row ``n`` holds a 1.  ``_start_values`` reads A_n off the
  mesh table;
* partition 1 by reduction: where deleting vertex ``n`` from the mesh
  table leaves A_{n-1}'s (types A, B, C, D and G2; ``_reduces_to_a`` reads
  the table), every orbit of partition 1 holds a column ``(c, 1)``, ``c``
  a column of an A_{n-1} frieze.  Lemma: the cluster variables compatible
  with ``F[n,k] = 1`` form the cluster algebra of ``t`` without ``n``, with
  ``F[n,k]`` frozen (Fomin and Zelevinsky), and each of its exchange
  relations is one of ``t``'s with ``F[n,k]`` a factor of one term.  At
  ``F[n,k] = 1`` the frieze's values there are a frieze of A_{n-1} whose
  slice at column ``k``, in the orientation of the equal tables, holds
  column ``k``'s first ``n - 1`` entries.  By Conway and Coxeter (1973),
  the A_{n-1} friezes are the triangulations of the ``(n + 2)``-gon, with
  column 0 the continuants of the quiddity (``_a_columns``), so the
  completeness of certified A, B, C, D and G2 runs rests on that theorem.
  ``_reduced_partition`` walks each candidate's orbit within the caps, as
  the column search's leaf does: one that is no frieze column of ``t``
  dies at an inexact division, one that leaves the caps is dropped.  The
  lemma reads no cap, so this is sound under any caps.  It costs
  Catalan(n) walks, and a search under a small cap few nodes, so it is
  taken where Catalan(n) is at most row ``n``'s cap
  (``_catalan_at_most``), as on every certified run;
* a frieze column extends in both directions, so true columns satisfy
  every forward and backward divisibility constraint used as a generator;
* column search, closed-form generator limit: the generator cell of the
  new coordinate ``x`` is ``(1 + x**m * y) / den``, where ``y`` and ``den``
  were fixed at earlier depths, so it is strictly increasing in ``x``.
  Its entry cap ``L`` holds exactly when
  ``x <= integer_root((L*den - 1) // y, m)``, and no candidate beyond that
  limit is generated;
* column search, leaf congruence: a leaf ``l`` whose one mesh factor is
  ``F[v,k+1]**m`` has the backward mesh ``F[l,k-1]*F[l,k] = 1 +
  F[v,k]**m``, so its coordinate divides ``1 + M**m``, ``M = F[v,k]``.
  Where ``m = 1``, that coordinate and its backward cell ``w = F[l,k-1]``
  are inverses mod ``M``, and a divisor of ``1 + M`` other than ``1 + M``
  is below ``M`` (or 1 where ``M = 1``).  The plan applies this at three
  depths (``_column_plan``):

  - ``l``'s own, whose coordinate ``x`` is drawn from those divisors.
    Where its generator is ``v``'s cell with ``m = 1``, ``x*y = -1 (mod
    M)``, ``y`` the generator's cofactor, holds exactly when ``w = -y (mod
    M)``, and each candidate ``x`` is ``(1 + M) / w`` for a divisor ``w``
    of ``1 + M`` in that class (``_capped_candidates``).  Without a
    generator (rank 2) the divisors within ``x``'s cap are the
    candidates, and the forward cells filter them;
  - ``v``'s, where besides ``v``'s mesh factors are ``F[l,k]`` and forward
    cells ``F[u,k+1]`` only.  Its backward mesh reads ``F[v,k-1]*M = 1 +
    w*P``, ``P`` the product of those ``F[u,k]``, all chosen with ``M`` or
    before (``u > v``).  So ``w*P = -1 (mod M)``, and ``x = w**-1 = -P
    (mod M)``: the depth that chooses ``M`` keeps it only if a divisor of
    ``1 + M`` within ``x``'s cap lies in that class
    (``_backward_mesh_holds``).  Lemma: where ``M > P``, that class's least
    member is ``u = M - P``, since ``0 < P < M``, and ``u`` divides ``M + 1
    = u + (P + 1)`` exactly when it divides ``P + 1``.  So a kept ``M > P``
    is ``P + e`` with ``e`` dividing ``P + 1`` and ``e <= max(1, cap_x)``
    (``u = 1`` needs no cap), and ``M <= P + cap_x``: a depth with a
    generator clips its coordinate cap there, and E's free depth generates
    its moduli (below);
  - a free depth just before ``l``'s, whose coordinate ``x`` enters the
    generator cell ``(1 + x1 * x * r) / M`` of ``l``'s coordinate ``x1``
    and nothing else checks it first; ``r`` and ``M`` are fixed already.
    ``l``'s depth generates a candidate only if ``gcd(x * r, M) = 1`` and
    the least solution ``x1`` of ``x1 * x * r = -1 (mod M)`` (1 when ``M
    = 1``) lies within its own cap, gives a cell within the cell's cap and
    divides ``1 + M``: every other solution is larger, gives a larger
    cell, and divides ``1 + M`` only if it is ``1 + M`` and ``x1`` is 1.
    An ``x`` that fails this has no descendant, so dropping it changes
    only the node count.  The next depth's row-``n`` floor is not
    applied: skipping it keeps more ``x``.  ``r`` is a unit: the plan
    asserts that it multiplies forward cells ``F[u,k+1]`` only, each of an
    upper neighbour ``u`` of ``v``, whose mesh ``F[u,k]*F[u,k+1] = 1 +
    F[v,k]**m*...`` makes it coprime to ``M``.  The cell's cap ``C`` reads
    ``x * x1 <= B = (C*M - 1) // r``.  A divisor of ``1 + M`` is inverted
    mod ``M`` by its cofactor, ``x1 * (1 + M)/x1 = 1 (mod M)``, so a
    divisor ``x1 < 1 + M`` is the least solution for exactly the ``x =
    -r**-1 * (1 + M)/x1 (mod M)``, kept up to ``B // x1``
    (``_solvable_coordinates``).  Each ``x`` has one least ``x1``, so these
    classes are disjoint.  In type E that depth also chooses the modulus of
    the second kind, with ``P = M`` (``_column_plan`` asserts it).  A
    class's least member ``f`` is at most ``M``, and a member ``f + k*M``,
    ``k >= 1``, is ``M + e`` with ``e = f + (k - 1)*M``, which divides ``M +
    1`` only where ``k = 1``, or ``k = 2`` and ``f = 1``.  So by the lemma only
    three members can be kept: ``f`` if it passes the test, ``f + M`` where
    ``f = 1`` or ``f <= cap_x`` divides ``M + 1``, and ``2*M + 1`` where
    ``f = 1`` and ``M + 1 <= cap_x``.  The lookahead generates those, from
    pairs ``(x1, (1 + M)/x1)`` formed once per run and modulus;
* column search, row-minimum floor: partition ``start`` keeps only the
  orbits whose row-``n`` minimum is ``start`` (the partition of a lower
  minimum finds the others), so every forward row-``n`` cell of a seed
  it tries is at least ``start``.  Where that cell is the generator cell,
  the floor holds exactly when ``x**m * y >= start*den - 1``, a closed-form
  lower limit below which no candidate is generated; at ranks 1 and 2
  it is checked with the cell's other constraints.  A serial run's
  partitions share one set of walked columns and run in ascending
  ``start``.  An orbit walked in partition ``s'`` has a row-``n`` minimum
  of at most ``s'``, so a seed that partition ``start`` finds in the set
  belongs to an orbit already recorded or to a lower partition, and is
  not walked again.  A walk that leaves the caps adds the columns it
  traced: the walk from any of them reaches the same column beyond the
  caps, sooner.  A pool job starts with an empty set, and there the
  row-``n`` minimum test alone decides;
* row seeding, generated top cell: ``t_j`` enters only the top forced
  row's new cell ``x = (t_{j-1} * t_j - 1)**(1/m)`` (the seed row's mesh
  has no other factor), so ``x`` is the candidate.  It comes ascending
  from ``_congruence_candidates``: ``x <= X``, ``x**m = -1 (mod
  t_{j-1})`` and ``t_j = (x**m + 1) / t_{j-1}`` in ``[start, L]``, or in
  ``[q, q]`` where the tail pins ``t_j = q``.  ``X`` is the least of the
  top row's entry cap and its product cap over the running product, ``L``
  the same for the seed row with every later entry at ``start``, so no
  candidate tests either cell.  ``start**p`` (``_start_values``) and, by
  ``t_{j-1}``, ``t_1 ... t_{j-1} * start**(p-j+1)`` are within the seed
  row's product cap, so that cap alone never puts ``L`` below ``start``;
* row seeding, next-position product cap: where ``m = 1``, a top cell
  ``top`` at position ``j`` gives ``t_j = (top + 1) / prev`` and leaves
  the top row's product cap ``R = top_prodcap // top_base`` the room
  ``top * x <= R`` for the row's next cell ``x = t_j * t_{j+1} - 1``.
  ``t_{j+1} >= start``, the row minimum, also where the tail pins
  ``t_{j+1} = q`` (a pinned ``q`` below ``start`` is rejected); at ``j =
  p``, ``x`` is the wrap-around cell ``t_p * t_1 - 1``, ``t_1 = start``,
  within the same cap over ``p`` columns.  So ``x >= start*t_j - 1``, and
  a ``top`` that can complete has ``top*(start*(top + 1) - prev) <=
  R*prev``.  The left side is a convex quadratic in ``top``, 0 at ``top =
  0``, so these ``top`` form a prefix.  Every call with ``m = 1`` tests
  ``X``; where it fails, the prefix's end (``_next_top_cap``) replaces it,
  and every candidate cut holds no frieze;
* row seeding, monotone cut-off: ``t_j`` grows with ``x``, and each lower
  forced row gets one new cell ``(a*b - 1)/den`` (no root: see
  ``_solve_plan``), ``a`` and ``den`` fixed already and ``b`` the new cell
  of the row above.  As real numbers, every new cell is thus
  non-decreasing in ``x``, and an exact cell equals its real value.  So
  the first candidate that exceeds an entry cap ends the candidate loop:
  every larger one that survives the same exact divisions exceeds it
  too.  Inexact divisions, a zero numerator and the vertex-1 mesh are not
  monotone and only skip the candidate.  Product caps bind only on the
  seed and top rows (``L`` and ``X``), and only those are tested;
* row seeding, stuck-mesh exactness: the stuck vertex ``x`` was forced by
  its known neighbour ``s``, and ``s`` by ``z`` (factor 1 when ``s`` is
  the seed).  Modulo ``F[s,k+1]``, the meshes of ``s`` give
  ``F[x,k]*F[z,k+1] = F[x,k+1]*F[z,k+2] = -1`` and the mesh of ``z`` gives
  ``F[z,k+1]*F[z,k+2] = 1``, so ``F[x,k]*F[x,k+1] = 1``: the wavefront's
  stuck-mesh division is exact;
* row seeding, divisor-walk exactness: the divided row ``d`` is a leaf on
  the stuck vertex ``x`` (the plan asserts it), so ``w[k]*w[k+1] = 1 +
  F[x,k+1-o]``.  Modulo ``w[k]``, ``w[k-1]*w[k]`` gives ``F[x,k-o] = -1``,
  and ``w[k]`` dividing its stuck quotient gives ``F[x,k-o]*F[x,k+1-o] =
  1``, so ``w[k]`` divides ``1 + F[x,k+1-o]``; ``w[0]`` divides it by its
  choice;
* row seeding, pinned tail: mesh relations are invertible (Conway-Coxeter:
  a frieze is fixed by a few consecutive entries).  When the plan has no
  divide step (types A, B, C, F, G), the wavefront forces every row down
  to row 1.  Once it holds a row-1 cell, the vertex-1 mesh fixes the next
  row-1 cell, and each forced mesh, read upwards, fixes its source row's
  next cell by one division.  So ``t_j`` has at most one value from then
  on, and it still passes every forward check.  That cell's vertex-1
  mesh needs no test: the wave inverts each back-solve step, so it
  recomputes the very cell that mesh fixed.  Each division is exact.  The
  vertex-1 mesh's at column 0 is the pin test's.  Every other one solves
  the mesh at ``s`` for ``F[s,c+1]``, ``c >= 1``; with lower neighbour
  ``r`` and upper ``u`` (either may be absent), modulo ``F[s,c]`` the mesh
  at ``s`` one column earlier gives ``F[r,c-1]**m * F[u,c]**mu = -1`` and
  those at ``r`` and ``u`` give ``F[r,c-1]*F[r,c] = F[u,c]*F[u,c+1] = 1``,
  so the numerator ``F[r,c]**m * F[u,c+1]**mu + 1`` is 0.

Counts treat each of the ``q`` distinct columns of a minimal-period-``q``
orbit as a distinct frieze (a frieze and its translates are different
functions on the quiver).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .bounds import entry_caps, integer_root
from .catalog import DynkinType, _adjugate, _mesh_factors, search_period, twist
from .mesh import (
    DeadEndError,
    FriezePattern,
    NoRecurrenceError,
    pattern_from_columns,
    verify_pattern,
)
from .mesh import _orbit, _product  # shared product loop and orbit walk

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "enumerate_friezes",
    "default_strategy",
    "stderr_progress",
]

PROGRESS_STRIDE = 1_000_000
_FACTORIZATION_BUDGET = 100_000_000  # divisor-branch guard per partition


@dataclass(frozen=True)
class SearchConfig:
    """One run.  Its period is no setting: every run is at the type's
    ``catalog.search_period``, a period of every frieze of the type.
    ``strategy`` names the search that runs: rank 1 degenerates to the
    column walk, whatever was asked."""

    dynkin: DynkinType
    strategy: str | None = None  # default: default_strategy(dynkin)
    entry_cap_override: int | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in (None, "column_dfs", "row_seeded"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy is None or self.dynkin.rank == 1:
            object.__setattr__(self, "strategy", default_strategy(self.dynkin))
        cap = self.entry_cap_override
        if cap is not None and (type(cap) is not int or cap < 1):
            raise ValueError("entry_cap_override must be positive")
        if type(self.jobs) is not int or self.jobs < 1:
            raise ValueError("jobs must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """The orbits found, each as its canonical minimal-period pattern.  An
    orbit's size (its number of distinct columns, i.e. of distinct frieze
    functions) is its ``period``; ``frieze_count`` sums them.
    ``nodes_explored`` counts one node per search candidate (and per
    row-seeded partition, its root) and one per orbit walk of the
    partition-1 reduction, whatever that walk costs."""

    orbits: tuple[FriezePattern, ...]
    complete: bool
    nodes_explored: int
    notes: tuple[str, ...] = ()

    @property
    def frieze_count(self) -> int:
        return sum(o.period for o in self.orbits)


def default_strategy(t: DynkinType) -> str:
    """Row seeding at rank >= 2 when the solve plan forces every row (no
    divisor branching), column search otherwise."""
    if t.rank >= 2 and _solve_plan(t)[1] is None:
        return "row_seeded"
    return "column_dfs"


def _divisors(x: int) -> list[int]:
    """Sorted divisors by trial division: of ``1 + M**m``, ``M`` the entry
    of a leaf's neighbour, where the column search draws the leaf's
    coordinate without a generator or looks ahead to it from a free depth,
    and of a row-seeded divisor walk's gcd.  Inputs stay small under
    pruning."""
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
    return min(tuple(cols[r:]) + tuple(cols[:r]) for r in range(len(cols)))


class _Tally:
    """The record of a run: its nodes, the orbits it found (canonical column
    tuples) and its notes.  Emits a progress line every ``PROGRESS_STRIDE``
    nodes.  Each search counts inline: ``nodes += 1``, then ``stride()``
    once ``nodes`` reaches ``next_stride``.  ``budget`` holds the
    divisor-branch nodes a row-seeded partition has left, ``divisor_pairs``
    the column lookahead's pairs of ``1 + M`` per modulus ``M``, and
    ``visited`` the columns of every orbit walk (``_walk``) that closed or
    left the caps, for every partition the tally serves."""

    def __init__(self, progress=None):
        self.nodes = 0
        self.orbits: set = set()
        self.notes: list[str] = []
        self.budget = _FACTORIZATION_BUDGET
        self.divisor_pairs: dict = {}
        self.visited: set = set()
        self._progress = progress
        self.next_stride = PROGRESS_STRIDE

    def stride(self) -> None:
        self.next_stride += PROGRESS_STRIDE
        if self._progress is not None:
            self._progress(self.nodes, len(self.orbits))


# ---------------------------------------------------------------------------
# column strategy
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)  # keyed on the caps too: bounded
def _column_plan(t: DynkinType, caps):
    """Per-depth steps of the bottom-up column DFS under entry caps ``caps``.

    Coordinate ``i`` (0-based vertex) is chosen at depth ``d = n - i``.  The
    forward cell of vertex ``j`` (its value in the next column) becomes
    computable at ``cell_depth[j]``.  Returns one tuple ``(i, cap, gen,
    due, pair, back)`` per depth ``d`` (index 0 unused), ``cap`` being
    coordinate ``i``'s entry cap.  The generator ``gen``, when one exists,
    is a cell due at ``d`` whose only missing input is the new coordinate;
    it turns into a congruence that generates candidates.  It is ``(j, m,
    others, cap, floored)``: the cell, the new coordinate's exponent in its
    mesh, the mesh's other factors and the cell's entry cap.  ``due`` holds
    the other cells due at ``d``, upper cells first, each ``(j, factors,
    cap, floored)``.  ``floored`` marks the row-``n`` cell, which is at
    least the seed's row-``n`` entry.  Rank 2 takes none: its last
    coordinate is a leaf drawn from a divisor list (below).

    One leaf rule places the rest.  A vertex ``l`` whose one mesh factor is
    ``(v, m, 1)`` has ``F[l,k-1]*F[l,k] = 1 + F[v,k]**m``: ``vals[l]``
    divides ``1 + vals[v]**m`` (module docstring, leaf congruence).  Each
    such leaf pair ``(l, v, m)`` is attached to the depths that use it:

    * ``pair`` at ``l``'s own depth: ``l`` is drawn from those divisors, off
      its backward cell (``_capped_candidates``) where its generator is
      ``v``'s cell with ``m = 1``, from the plain divisor list where it has
      no generator;
    * ``back`` at ``v``'s depth, where ``l`` is read off its backward cell
      and ``v``'s mesh factors are ``(l, 1, 0)`` and forward cells only.  It
      is ``(rest, cap)``: ``v``'s other factors, read from the seed column,
      and ``l``'s cap.  That depth keeps a candidate ``M`` only if
      ``_backward_mesh_holds(P, M, cap)``, ``P`` the product of ``rest``,
      and generates none above ``P + cap``;
    * ``pair`` at the depth before ``l``'s, where that depth is free (no
      generator and no due cell) and its coordinate enters ``l``'s
      generator as a factor ``(i, 1, 0)`` beside forward cells only.  It
      keeps only the coordinates for which ``l`` has a candidate
      (``_solvable_coordinates``, on the next depth's generator and caps).

    A ``back`` depth has a generator and no ``pair``, or is such a free
    depth (type E) whose ``P`` is the modulus it looks ahead with.
    """
    factors = _mesh_factors(t)
    n = t.rank
    cell_depth = [0] * n
    for j in range(n - 1, -1, -1):
        d = n - j
        for l, _, o in factors[j]:
            d = max(d, cell_depth[l] if o else n - l)
        cell_depth[j] = d
    plan = [None]
    for d in range(1, n + 1):
        x = n - d  # coordinate chosen at depth d
        due = [j for j in range(n - 1, -1, -1) if cell_depth[j] == d]
        gen = None
        for j in due if n > 2 else ():
            # x enters the cell as a mesh factor only: not as its denominator or via a due cell
            assert j != x and not any(o and cell_depth[u] >= d for u, _, o in factors[j]), f"{t}"
            mult = next((m for l, m, _ in factors[j] if l == x), None)
            if mult is not None:
                others = tuple(f for f in factors[j] if f[0] != x)
                gen = (j, mult, others, caps[j], j == n - 1)
                due.remove(j)
                break
        plan.append((x, caps[x], gen, tuple((j, factors[j], caps[j], j == n - 1) for j in due)))
    # the leaf pairs: F[l,k-1]*F[l,k] = 1 + F[v,k]**m
    leaves = [(l, *row[0]) for l, row in enumerate(factors) if len(row) == 1 and row[0][2]]
    pair, back = {}, {}
    for l, v, m, _ in leaves:
        d = n - l
        pair[d] = (l, v, m)
        gen = plan[d][2]
        if gen is None:
            continue  # l is read off the plain divisor list
        # l is read off its backward cell, under no row-n floor
        assert gen[:2] == (v, 1) and m == 1 and not gen[4], f"{t}"
        rest = tuple(f for f in factors[v] if f != (l, 1, 0))
        if (l, 1, 0) in factors[v] and all(o for _, _, o in rest):
            # v's backward mesh reads F[l,k-1] and column-k cells of vertices
            # above v, chosen before v (module docstring)
            assert n - v not in back, f"{t}"
            back[n - v] = (tuple((u, e, 0) for u, e, _ in rest), caps[l])
        x, _, free, cells = plan[d - 1]
        if free is None and not cells and (x, 1, 0) in gen[2]:
            # x is the generator's only column-k cofactor: r is a unit mod vals[v]
            assert all(o or u == x for u, _, o in gen[2]), f"{t}"
            pair[d - 1] = (l, v, m)
    for d, (rest, _) in back.items():
        # a back depth's moduli are clipped, or generated by the lookahead
        ahead = pair.get(d)
        if plan[d][2] is None:
            assert ahead and ahead[0] != plan[d][0] and rest == ((ahead[1], 1, 0),), f"{t}"
        else:
            assert ahead is None, f"{t}"
    return (None, *(plan[d] + (pair.get(d), back.get(d)) for d in range(1, n + 1)))


def _congruence_candidates(m, y, modulus, cap, cell_cap, cell_floor):
    """Ascending x in [1, cap] with ``x**m * y = -1 (mod modulus)`` whose
    cell ``(x**m * y + 1) / modulus`` lies in ``[cell_floor, cell_cap]``,
    ``cell_cap >= 1``: the column search's uncapped generator cells, and
    the row-seeded top forced row's cells (``y = 1``, modulus ``t_{j-1}``).

    For ``m > 1`` it scans x from ``first`` over at most ``modulus``
    consecutive values, each residue once, and merges the ascending range
    ``range(x, cap + 1, modulus)`` of every x that solves the congruence:
    ``min(modulus, cap - first + 1)`` ``pow`` calls, one range per root."""
    # the cell grows with x, so its cap is x**m <= (cell_cap*modulus - 1) // y
    # and its floor x**m >= (cell_floor*modulus - 1) / y
    limit = (cell_cap * modulus - 1) // y
    if m > 1:
        limit = integer_root(limit, m)
    if limit < cap:
        cap = limit
    first = 1
    if cell_floor > 1:
        low = -(-(cell_floor * modulus - 1) // y)
        if low > 1:
            first = integer_root(low - 1, m) + 1
    if cap < first:
        return ()
    if m == 1:  # modulus 1 needs no case: pow(y, -1, 1) is 0, and every x solves
        if math.gcd(y, modulus) != 1:
            return ()
        x0 = -pow(y, -1, modulus) % modulus
        return range(first + (x0 - first) % modulus, cap + 1, modulus)
    from heapq import merge  # imported here: only a doubled or tripled edge needs it

    y %= modulus
    return merge(
        *(
            range(x, cap + 1, modulus)
            for x in range(first, min(first + modulus, cap + 1))
            if (pow(x, m, modulus) * y + 1) % modulus == 0
        )
    )


def _backward_mesh_holds(cofactor, modulus, cap):
    """Whether some ``x <= cap`` dividing ``modulus + 1`` has ``x =
    -cofactor (mod modulus)``: the test of ``g``'s backward mesh
    ``F[g,k-1]*modulus = 1 + w*cofactor``, ``x*w = modulus + 1`` (module
    docstring).  A divisor is at most ``modulus + 1``, so the least in that
    class is 1 or ``-cofactor % modulus``."""
    u = -cofactor % modulus or modulus
    return u == 1 or (u <= cap and not (modulus + 1) % u)


def _capped_candidates(y, modulus, cap, cell_cap):
    """A capped depth's candidates: ascending x in [1, cap] dividing
    ``modulus + 1`` with ``x * y = -1 (mod modulus)`` whose cell ``(x * y +
    1) / modulus`` is at most ``cell_cap``.  The cell is at least 1, since
    ``x * y + 1`` is a positive multiple of ``modulus``, and no row-``n``
    floor applies: a leaf's generator is never the row-``n`` cell
    (``_column_plan`` asserts it).  With ``x * w = modulus + 1``, the
    congruence holds exactly when ``w = -y (mod modulus)`` (module
    docstring).  A divisor ``w`` is at most ``modulus + 1``, so that is ``w
    = -y % modulus`` alone, or 1 and ``modulus + 1`` where that is 1 (also
    where ``modulus = 1``)."""
    above = modulus + 1
    w = -y % modulus or modulus
    xs = (1, above) if w == 1 else () if above % w else (above // w,)
    return [x for x in xs if x <= cap and (x * y + 1) // modulus <= cell_cap]


def _next_top_cap(start, prev, room):
    """Largest ``top >= 0`` with ``top*(start*(top + 1) - prev) <=
    room*prev``: the row-seeded top cells ``top = prev*t - 1`` that leave
    the row's next cell ``x >= start*t - 1`` the room ``top*x <= room``.
    The left side, ``start*top**2 - b*top`` with ``b = prev - start``, is a
    convex quadratic that is 0 at ``top = 0``, so the solutions run from 0
    to its larger root ``(b + sqrt(D)) / (2*start)``, ``D = b*b +
    4*start*room*prev``.  ``isqrt`` loses nothing: for integers ``b`` and
    ``k``, ``b + sqrt(D) >= k`` exactly when ``b + isqrt(D) >= k``."""
    b = prev - start
    return (b + math.isqrt(b * b + 4 * start * room * prev)) // (2 * start)


def _solvable_coordinates(r, modulus, next_cap, cell_cap, cap, back_cap, divisor_pairs):
    """E's free depth's candidates: ascending x in [1, cap] that pass
    ``_backward_mesh_holds(modulus, x, back_cap)`` and for which the next
    coordinate's congruence ``x1 * x * r = -1 (mod modulus)`` has a least
    solution ``x1 <= next_cap`` that divides ``modulus + 1`` (the next
    coordinate is a leaf on the modulus's vertex) and gives a cell ``(x1 *
    x * r + 1) / modulus <= cell_cap``.  The next depth's row-``n`` floor
    and due cells are left to that depth: ignoring them only keeps more
    coordinates.

    Each divisor ``x1 < modulus + 1`` of ``modulus + 1``, inverted mod
    the modulus by its cofactor, is the least solution for one residue
    class of x, kept up to ``b // x1``; an x has one least ``x1``, so the
    classes are disjoint.  Of a class, at most its least member ``f``, ``f
    + modulus`` and ``2*modulus + 1`` pass the test, and only ``f`` needs it
    (module docstring).  ``divisor_pairs`` maps each modulus to its pairs
    ``(x1, (modulus + 1) / x1)``, and is filled here."""
    b = (cell_cap * modulus - 1) // r  # the cell (x1 * x * r + 1) / modulus <= cell_cap
    s = -pow(r, -1, modulus)  # x * x1 = s mod modulus
    above = modulus + 1  # x1 divides it
    pairs = divisor_pairs.get(modulus)
    if pairs is None:
        pairs = divisor_pairs[modulus] = [(x1, above // x1) for x1 in _divisors(above)[:-1]]
    kept = []
    for x1, w in pairs:
        if x1 > next_cap:
            break
        f = (s * w - 1) % modulus + 1  # 1 where modulus is 1
        top = b // x1
        if top > cap:
            top = cap
        if f > top:
            continue
        if _backward_mesh_holds(modulus, f, back_cap):
            kept.append(f)
        if f <= back_cap and not above % f:  # modulus + f passes, f = 1 too
            if f + modulus <= top:
                kept.append(f + modulus)
            if f == 1 and above <= back_cap and above + modulus <= top:
                kept.append(above + modulus)
    kept.sort()
    return kept


def _walk(t, seed, p, caps, start, tally) -> None:
    """Walk ``seed``'s orbit into ``tally``: its columns into ``visited``
    where the walk closed or left the caps, the orbit into ``orbits`` where
    it closed with row-``n`` minimum ``start``, a note where it did not
    recur within ``p`` steps."""
    try:
        traced, closed = _orbit(t, seed, p, caps)
    except DeadEndError:
        return
    except NoRecurrenceError:
        tally.notes.append(f"cap exceeded: seed {seed} did not recur within {p} steps")
        return
    tally.visited.update(traced)
    # a lower row-n minimum: found in the partition of that minimum
    if closed and min(col[-1] for col in traced) >= start:
        tally.orbits.add(_canonical_columns(traced))


def _column_partition(t, caps, p, start, tally):
    """Orbits whose row-n minimum is ``start``, traced from seed columns
    whose row-n entry is ``start`` and whose forward row-n cell is at least
    ``start``."""
    n = t.rank
    plan = _column_plan(t, caps)
    vals = [0] * n
    cells1 = [0] * n
    cols = (vals, cells1)  # the seed column and its forward cells
    visited = tally.visited

    def leaf() -> None:
        seed = tuple(vals)
        if seed not in visited:
            _walk(t, seed, p, caps, start, tally)

    def descend(d) -> None:
        i, cap, gen, due, pair, back = plan[d]
        if gen is not None:
            g, m, others, cell_cap, floored = gen
            y = _product(cols, others)
            modulus = vals[g]
            floor = start if floored else 1
            if pair is not None:  # a leaf on g: x divides 1 + modulus
                candidates = _capped_candidates(y, modulus, cap, cell_cap)
            elif back is None:
                candidates = _congruence_candidates(m, y, modulus, cap, cell_cap, floor)
            else:  # a kept x is at most P + cap_x (module docstring, the lemma)
                rest, xcap = back
                cofactor = _product(cols, rest)  # P: its vertices were chosen already
                cap = min(cap, cofactor + xcap)
                clipped = _congruence_candidates(m, y, modulus, cap, cell_cap, floor)
                candidates = [x for x in clipped if _backward_mesh_holds(cofactor, x, xcap)]
        elif pair is None:
            candidates = (start,) if d == 1 else range(1, cap + 1)
        elif pair[0] == i:  # x divides 1 + vals[v]**e; the forward cells filter it
            _, v, e = pair
            candidates = [x for x in _divisors(1 + vals[v] ** e) if x <= cap]
        else:  # x enters the generator of the next coordinate, the leaf, once
            _, next_cap, (_, _, others, cell_cap, _), *_ = plan[d + 1]
            vals[i] = 1  # that generator's cofactor is x * r: r is its value at x = 1
            r = _product(cols, others)
            modulus, memo = vals[pair[1]], tally.divisor_pairs  # the back test's P is modulus
            candidates = _solvable_coordinates(r, modulus, next_cap, cell_cap, cap, back[1], memo)
        for x in candidates:
            tally.nodes += 1
            if tally.nodes >= tally.next_stride:
                tally.stride()
            vals[i] = x
            if gen is not None:  # exact, and within its cap and floor, by construction
                cells1[g] = ((x if m == 1 else x**m) * y + 1) // modulus
            for j, factors, cell_cap, floored in due:
                q, r = divmod(1 + _product(cols, factors), vals[j])
                if r or q > cell_cap or (floored and q < start):
                    break
                cells1[j] = q
            else:
                if d == n:
                    leaf()
                else:
                    descend(d + 1)

    descend(1)
    descend = leaf = None  # drop the closures' self-reference: no cyclic garbage


# ---------------------------------------------------------------------------
# row-seeded strategy
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _solve_plan(t: DynkinType):
    """Row-seeded solve order, derived from the Cartan matrix.

    Starting from the solved seed row ``n``, returns ``(wave, divide, tail,
    check)`` over 0-based vertices.  Mesh terms are factors ``(j, m, o)`` of
    the mesh table, each ``F[j, k + o]**m`` in a mesh product at column ``k``.

    * ``wave`` and ``tail`` hold force steps ``(s, r, m, others)``: the
      mesh at the solved vertex ``s`` has one unsolved neighbour ``r < s``,
      with exponent ``m`` and column offset 0; ``others`` are its remaining
      terms.  ``wave`` runs before the divide step, ``tail`` after it.
    * ``divide`` is ``(d, terms, x, known, o)``, or None when the force
      steps solve every row: no mesh forces a row, so the highest unsolved
      vertex ``d`` whose neighbours are all solved takes a divisor row
      ``w[k] * w[k+1] = 1 + product(terms)``.  The stuck mesh at ``x`` has
      ``d`` and one more unsolved neighbour, so each ``w[k + o]`` divides
      ``(F[x,k] * F[x,k+1] - 1) / product(known)``.  ``d`` is a leaf on
      ``x``: its mesh has the one term ``F[x, k + 1 - o]``.
    * ``check`` pairs the one vertex whose mesh no step used with its terms:
      ``n - 1`` steps use ``n - 1`` meshes.
    """
    factors = _mesh_factors(t)
    n = t.rank

    def terms(i, skip):
        return tuple(f for f in factors[i] if f[0] not in skip)

    solved, used, wave, tail, divide = {n - 1}, set(), [], [], None

    def unsolved(i):
        return [j for j, _, _ in factors[i] if j not in solved]

    while len(solved) < n:  # each step uses the mesh at s to solve row r
        s = next((s for s in sorted(solved - used, reverse=True) if len(unsolved(s)) == 1), None)
        if s is not None:
            ((r, m, _),) = terms(s, solved)
            assert r < s, f"{t} forces a row above its source"  # column offset 0
            (wave if divide is None else tail).append((s, r, m, terms(s, (r,))))
        else:  # a divide step uses the divided vertex's own mesh
            assert divide is None, f"{t} needs a second divide step"
            r = s = max(i for i in range(n) if i not in solved and not unsolved(i))
            x = next(x for x in solved - used if len(unsolved(x)) == 2 and r in unsolved(x))
            divide = (r, factors[r], x, terms(x, unsolved(x)), int(r > x))
            # the divisor walk's divisions are exact on a leaf (module docstring)
            assert factors[r] == ((x, 1, int(x > r)),), f"{t} divides a non-leaf row"
        used.add(s)
        solved.add(r)
    (check,) = ((i, factors[i]) for i in range(n) if i not in used)
    # only the top step may take a root (C_n, G2); every other doubled or
    # tripled edge enters the wave as a denominator exponent
    assert all(m == 1 for _, _, m, _ in wave[1:] + tail), f"{t} forces a lower row by a power"
    return tuple(wave), divide, tuple(tail), check


def _quotient(pair, v, terms) -> int:
    """``(F[v,k] * F[v,k+1] - 1) / product(terms)`` on ``pair = (column k,
    column k+1)``, or 0 when that is not a positive integer."""
    q, rem = divmod(pair[0][v] * pair[1][v] - 1, _product(pair, terms))
    return 0 if rem else q


def _force(cols, step, caps, columns) -> bool:
    """Solve the forced row's cells at ``columns`` in place; False when a
    cell is not a positive integer within its cap."""
    s, r, m, others = step
    p, cap = len(cols), caps[r]
    for k in columns:
        q = _quotient((cols[k], cols[(k + 1) % p]), s, others)
        if m > 1:
            root = integer_root(q, m)
            if root**m != q:
                return False
            q = root
        if not 0 < q <= cap:
            return False
        cols[k][r] = q
    return True


def _divisor_rows(cols, step, caps, tally, stuck=()):
    """Cyclic solutions ``w`` of a divide step; one budgeted node per
    candidate ``w[0]``.  ``stuck`` holds the stuck-mesh quotients of the
    first columns when the caller has them already.  Each ``w`` holds
    ``p + 1`` entries, the last equal to the first."""
    d, terms, x, known, o = step
    p, cap = len(cols), caps[d]
    quotients = list(stuck)
    for k in range(len(stuck), p):
        q = _quotient((cols[k], cols[(k + 1) % p]), x, known)
        if not q:
            return
        quotients.append(q)
    divides = [quotients[(k - o) % p] for k in range(p + 1)]  # w[k] divides divides[k]
    products = [1 + _product((cols[0], cols[1]), terms)]  # w[k] * w[k+1]
    for u in _divisors(math.gcd(products[0], divides[0])):
        if u > cap:
            break
        if tally.budget <= 0:
            return
        tally.budget -= 1
        tally.nodes += 1
        if tally.nodes >= tally.next_stride:
            tally.stride()
        w = [u]
        for k in range(p):
            if k == len(products):  # formed once the walk reaches column k
                products.append(1 + _product((cols[k], cols[(k + 1) % p]), terms))
            q = products[k] // w[k]  # exact (module docstring)
            if q > cap or divides[k + 1] % q:
                break
            w.append(q)
        else:
            if w[p] == w[0]:
                yield w


def _reconstruct(cols, solve_plan, caps, tally, stuck=()):
    """Yield the columns of every frieze that completes ``cols`` under
    ``solve_plan``, the type's ``_solve_plan``.

    ``cols[c][i]`` holds ``F[i+1, c+1]`` for the seed row and, but for
    their wrap-around cells, the wave rows.  The rest is solved in place,
    in plan order: the wrap-around cells, then each divisor row of the
    divide step, if any (``stuck`` goes to ``_divisor_rows``), then the
    tail.  The check gates every frieze: a mesh holds exactly when its
    quotient is 1.
    """
    p = len(cols)
    wave, divide, tail, (v, terms) = solve_plan
    for level, step in enumerate(wave, 1):  # the wavefront left its last level cells
        if not _force(cols, step, caps, range(p - level, p)):
            return
    for w in _divisor_rows(cols, divide, caps, tally, stuck) if divide else [()]:
        for col, c in zip(cols, w):
            col[divide[0]] = c
        if all(_force(cols, step, caps, range(p)) for step in tail) and all(
            _quotient((cols[k], cols[(k + 1) % p]), v, terms) == 1 for k in range(p)
        ):
            yield [tuple(col) for col in cols]


def _row_partition(t, caps, prodcaps, p, start, tally):
    """Row-seeded search over cyclic tuples of length ``p`` with ``t_1 =
    start`` (the row minimum, so every entry is at least ``start``)."""
    n = t.rank
    seed = n - 1
    # the wave's force steps are solved on the wavefront, the rest at leaves
    solve_plan = _solve_plan(t)
    wave, divide, _, (f, f_terms) = solve_plan
    seed_prodcap = prodcaps[seed]
    tally.budget = _FACTORIZATION_BUDGET  # one tally may serve several partitions
    tally.nodes += 1
    if tally.nodes >= tally.next_stride:
        tally.stride()

    # cols[c][i] is F[i+1, c+1] for the seed row and the forced rows alike.
    # Cells beyond the current wavefront are stale and never read.
    cols = [[0] * n for _ in range(p)]
    # One tuple per wave step, top row first: source vertex, forced vertex,
    # its level, root degree (1 below the top row, see _solve_plan),
    # denominator vertex and exponent, and entry cap.  The wave is a chain:
    # each step forces the row below its source, whose other neighbour, if
    # any, is the row above, read one column later.  Wave row i sits at
    # level i + 1, below the seed row's level 0.
    plan = []
    for level, (s, r, m, others) in enumerate(wave, 1):
        # the seed row's mesh has no upper neighbour: mu = 0, denominator 1
        ((u, mu, _),) = others or ((s, 0, 1),)
        plan.append((s, r, level, m, u, mu, caps[r]))
    back_plan = plan[::-1]
    (_, top_row, _, m_top, _, _, top_cap), *lower = plan
    top_prodcap = prodcaps[top_row]

    # from j = pair_from on, position j fixes the last wave row's cell at
    # column c + 1, c = j - pair_from, its cell at column c being known
    pair_from = len(wave) + 2
    pinned_tail = divide is None
    if pinned_tail:
        # the wave solves every row; the check vertex f is the last wave row,
        # and its mesh pins it once it holds a cell: t_j is pinned from
        # j = pair_from on
        ((u1, mu1, _),) = f_terms
        # its first test, at column 0, reads cells the wave has finished by
        # j = pair_from - 1: run it there, per candidate, instead of in a call
        pin_test = pair_from - 1
        stuck = ()
    else:
        # the divide step's stuck mesh pins the product of its two unsolved
        # neighbour rows; its quotients at the non-wrap columns (the
        # division is exact) are kept for the leaf's divide step.  The stuck
        # vertex x is the last wave row, so its cells at columns k and k + 1
        # are solved from j = pair_from on
        _, _, x, ((ku, kmu, ko),), _ = divide
        stuck = [0] * (p - pair_from + 1)
        pin_test = 0

    def leaf() -> None:
        for found in _reconstruct(cols, solve_plan, caps, tally, stuck):
            # a frieze is fixed by one column: its orbit ends where column 0 recurs
            q = next(k for k in range(1, p + 1) if found[k % p] == found[0])
            tally.orbits.add(_canonical_columns(found[:q]))

    def descend(j, base, top_base) -> None:
        # choose position j (1-based) of the seed row; base and top_base are
        # the products of the first j - 1 seed cells and the first j - 2 top
        # forced cells, the rows whose product caps bind
        pinned = pinned_tail and j >= pair_from
        if pinned:
            # back-solve the wave meshes from the pinned cell up to t_j;
            # every division is exact (module docstring)
            c = j - pair_from
            nxt = cols[c + 1]
            q = (1 + nxt[u1] ** mu1) // cols[c][f]
            for s, _, _, m, u, mu, _ in back_plan:
                col = nxt
                c += 1
                nxt = cols[c + 1]
                q = (q**m * nxt[u] ** mu + 1) // col[s]
        scaled = base * start ** (p - j)
        limit = min(seed_prodcap // scaled, caps[seed])
        lo, hi = (q, q) if pinned else (start, limit)  # the window of t_j
        if not start <= lo <= hi <= limit:
            return  # also keeps the generator's cell cap at 1 or more
        # the top forced row's new cell is the candidate: t_j = (top**m + 1) / prev
        top_col = cols[j - 2]
        prev = top_col[seed]
        room = top_prodcap // top_base
        xcap = min(top_cap, room)
        if m_top == 1 and xcap * (start * (xcap + 1) - prev) > room * prev:
            xcap = _next_top_cap(start, prev, room)  # leave the row's next top cell room
        # Candidates ascend, t_j and every lower forced cell of this step
        # are non-decreasing in them, so a cap failure ends the loop
        # (stop = 2); any other failure skips the candidate (stop = 1).
        for top in _congruence_candidates(m_top, 1, prev, xcap, hi, lo):
            tally.nodes += 1
            if tally.nodes >= tally.next_stride:
                tally.stride()
            v = (top + 1 if m_top == 1 else top**m_top + 1) // prev
            cols[j - 1][seed] = v
            top_col[top_row] = top
            nxt = top_col
            stop = 0
            for s, r, level, _, u, mu, cap in lower:
                c = j - level - 1
                if c < 0:
                    break
                col = cols[c]
                num = col[s] * nxt[s] - 1
                if num < 1:
                    stop = 1
                    break
                den = nxt[u]
                q, rem = divmod(num, den if mu == 1 else den**mu)
                if rem:
                    stop = 1
                    break
                if q > cap:
                    stop = 2
                    break
                col[r] = q
                nxt = col
            if not stop and j == pin_test and (1 + cols[1][u1] ** mu1) % cols[0][f]:
                stop = 1
            if not stop and not pinned_tail and j >= pair_from:
                k = j - pair_from
                den = cols[k + ko][ku]  # divides exactly: see the module docstring
                q = (cols[k][x] * cols[k + 1][x] - 1) // (den if kmu == 1 else den**kmu)
                if q < 1:
                    stop = 1
                else:
                    stuck[k] = q
            if stop == 2:
                break
            if stop:
                continue
            if j == p:
                leaf()
            else:
                descend(j + 1, base * v, top_base * top)

    cols[0][seed] = start
    descend(2, start, 1)
    descend = leaf = None  # drop the closures' self-reference: no cyclic garbage
    if divide and tally.budget <= 0:
        tally.notes.append("factorization budget exhausted")


# ---------------------------------------------------------------------------
# partition 1 by reduction to A_{n-1}
# ---------------------------------------------------------------------------


def _a_columns(m: int):
    """Column 0 of every A_m frieze, lazily: one per triangulation of the
    ``(m + 3)``-gon on vertices ``0 .. m + 2`` (Conway and Coxeter, 1973),
    ``F[i,0] = K(a_1, ..., a_i)`` for its quiddity ``a`` (triangles per
    vertex) and the continuant ``K``."""
    a = [0] * (m + 3)

    def split(pending):
        # pending: the polygons lo .. hi left to triangulate, each closed by
        # its edge (lo, hi), which lies in one triangle (lo, k, hi)
        if not pending:
            column, prev, cur = [], 0, 1
            for x in a[1 : m + 1]:
                prev, cur = cur, x * cur - prev
                column.append(cur)
            yield tuple(column)
            return
        *rest, (lo, hi) = pending
        for k in range(hi - 1, lo, -1):
            for v in (lo, k, hi):
                a[v] += 1
            yield from split(rest + [(x, y) for x, y in ((lo, k), (k, hi)) if y - x > 1])
            for v in (lo, k, hi):
                a[v] -= 1

    return split([(0, m + 2)])


def _reduces_to_a(t: DynkinType) -> bool:
    """Whether ``t``'s mesh table without vertex ``n`` is A_{n-1}'s."""
    n = t.rank
    rest = tuple(tuple(f for f in row if f[0] != n - 1) for row in _mesh_factors(t)[:-1])
    return n == 1 or rest == _mesh_factors(DynkinType("A", n - 1))


def _catalan_at_most(n: int, bound: int) -> bool:
    """Whether Catalan(n), the count of A_{n-1} friezes, is at most
    ``bound``: ``C_k = C_{k-1} * 2(2k - 1) / (k + 1)``, exact and
    non-decreasing, stopping at the first ``C_k`` above ``bound``."""
    c = k = 1
    while k <= n and c <= bound:
        c = c * 2 * (2 * k - 1) // (k + 1)
        k += 1
    return c <= bound


def _reduced_partition(t, caps, p, tally) -> None:
    """Partition 1 by reduction (module docstring): walk the orbit of each
    A_{n-1} frieze column with 1 appended as row ``n``, one node each."""
    for column in _a_columns(t.rank - 1):
        seed = (*column, 1)
        if seed not in tally.visited:
            tally.nodes += 1
            if tally.nodes >= tally.next_stride:
                tally.stride()
            _walk(t, seed, p, caps, 1, tally)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _row_floors(t: DynkinType, caps, start):
    """Per-row lower bounds on the entries of every frieze within ``caps``
    whose row-``n`` minimum is ``start``, or None when one passes its cap
    (module docstring, partition proof)."""
    factors, sigma = _mesh_factors(t), twist(t)[0]
    floors = [1] * t.rank
    floors[-1] = floors[sigma[-1]] = start
    changed = True
    while changed:  # F[i,k]*F[i,k+1] = 1 + F[j,k+o]**m: F[j]**m >= L_i**2 - 1
        changed = False
        for i, row in enumerate(factors):
            if len(row) == 1 and floors[i] > 1:
                ((j, m, _),) = row
                low = integer_root(floors[i] ** 2 - 2, m) + 1
                if low > floors[j]:
                    if low > caps[j]:
                        return None
                    floors[j] = floors[sigma[j]] = low
                    changed = True
    return floors


def _partition_empty(t: DynkinType, caps, start) -> bool:
    """Whether the paper's inequality proves that no frieze within ``caps``
    has row-``n`` minimum ``start``: ``log2 L_i > (C**-1 u)_i`` for some
    row ``i``, ``L`` the ``_row_floors``, in integers (module docstring)."""
    floors = _row_floors(t, caps, start)
    if floors is None:
        return True
    det, adj = _adjugate(t)
    prods = [math.prod(floors[j] ** m for j, m, _ in row) for row in _mesh_factors(t)]
    return any(
        low**det * math.prod(q**e for q, e in zip(prods, row))
        > math.prod((q + 1) ** e for q, e in zip(prods, row))
        for low, row in zip(floors, adj)
        if low > 1  # never where L_i = 1: then the left side is the smaller
    )


def _start_values(t: DynkinType, caps) -> range:
    """First-coordinate partition values: 1 up to the first that
    ``_partition_empty`` proves empty, at most min(floor(2**b_n), cap_n).
    The proof is monotone in ``start``: bisect for the first.  A_n keeps
    partition 1 alone: every A_n frieze has a 1 in row ``n`` (module
    docstring)."""
    if _mesh_factors(t) == _mesh_factors(DynkinType("A", t.rank)):
        return range(1, 2)
    top = entry_caps(t, 1, caps[-1])[-1]
    starts = range(2, top + 1)
    return range(1, 2 + bisect_left(starts, True, key=lambda s: _partition_empty(t, caps, s)))


def _partition_job(args, tally=None):
    """Run one partition into ``tally`` (a fresh one by default); return
    what the merge reads of it: ``(nodes, notes, orbits)``.  Partition 1
    is taken by reduction where ``t`` allows it and Catalan(n) fits row
    ``n``'s cap (module docstring)."""
    t, strategy, p, caps, prodcaps, start = args
    if tally is None:
        tally = _Tally()
    if start == 1 and _catalan_at_most(t.rank, caps[-1]) and _reduces_to_a(t):
        _reduced_partition(t, caps, p, tally)
    elif strategy == "column_dfs":
        _column_partition(t, caps, p, start, tally)
    else:
        _row_partition(t, caps, prodcaps, p, start, tally)
    return tally.nodes, tally.notes, tally.orbits


def _partition_results(jobs, workers, progress):
    """The partition jobs' ``(nodes, notes, orbits)``: one per job, in
    ``jobs`` order, from a pool; else every job in one tally, so that
    progress lines count across partitions.  Partitions that share one
    tally must run in ascending ``start``, as ``jobs`` lists them: the
    column search skips a seed in the tally's ``visited`` only because a
    lower partition walked it."""
    if workers > 1 and len(jobs) > 1:
        import multiprocessing  # imported here: only a pool needs it

        with multiprocessing.Pool(min(workers, len(jobs))) as pool:
            yield from pool.imap(_partition_job, jobs, chunksize=1)
    else:
        tally = _Tally(progress)
        for job in jobs:
            _partition_job(job, tally)
        yield tally.nodes, tally.notes, tally.orbits


def enumerate_friezes(cfg: SearchConfig, progress=None) -> SearchOutcome:
    """Run the configured strategy at the type's search period."""
    t = cfg.dynkin
    p = search_period(t)  # the job carries it: pool workers never derive it
    cap = cfg.entry_cap_override
    if cap is None:
        caps = prodcaps = entry_caps(t, p)
        clipped = False
    else:  # a row's product is at most cap**p: its p entries are at most cap
        room = entry_caps(t, p, cap + 1)
        clipped = max(room) > cap  # the override truncates some cap
        caps = tuple(min(c, cap) for c in room)
        prodcaps = entry_caps(t, p, cap**p)
    jobs = [(t, cfg.strategy, p, caps, prodcaps, start) for start in _start_values(t, caps)]
    notes: list[str] = []
    orbits: set = set()
    total_nodes = 0
    for nodes, job_notes, job_orbits in _partition_results(jobs, cfg.jobs, progress):
        total_nodes += nodes
        notes.extend(job_notes)
        orbits |= job_orbits

    patterns = tuple(pattern_from_columns(t, key) for key in sorted(orbits))
    for pattern in patterns:
        violations = verify_pattern(pattern)
        if violations:
            raise AssertionError(f"search produced a non-frieze pattern: {violations[0]}")
    complete = not clipped and not notes
    if progress is not None:
        progress(total_nodes, len(patterns))
    return SearchOutcome(
        orbits=patterns,
        complete=complete,
        nodes_explored=total_nodes,
        notes=tuple(notes),
    )


def stderr_progress(nodes: int, found: int) -> None:
    print(f"explored={nodes} found={found}", file=sys.stderr, flush=True)
