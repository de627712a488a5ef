"""Finite-type Dynkin diagram catalog.

One mesh-factor table per type, built in linear time from the edge list,
owns the diagram: mesh readings, weighted degrees, quiver arrows and the
exact inverse read it.  A Dynkin diagram is a tree, so with no elimination
its branch determinants give the checked adjugate as path products, hence
the bound vectors ``b``.  The dense
Cartan matrix is only a view of the table.

Vertex numbering (1-based, fixed per family):

* ``A_n``  path ``1 - 2 - ... - n``
* ``B_n``  same path, ``C[n-1,n] = -2`` (short root last)
* ``C_n``  transpose convention, ``C[n,n-1] = -2``
* ``D_n``  path ``1 - ... - (n-2)`` with ``n-1`` and ``n`` attached to ``n-2``
* ``E_n``  chain ``1 - 3 - 4 - 5 - ... - n`` with ``2`` attached to ``4``
* ``F_4``  path with ``C[2,3] = -2``
* ``G_2``  ``C[1,2] = -1``, ``C[2,1] = -3``

Everything here is exact (integers and ``fractions.Fraction``), immutable
after construction, and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "DynkinType",
    "TypeProfile",
    "cartan_matrix",
    "inverse_cartan",
    "type_profile",
    "twist",
    "search_period",
    "repetition_arrows",
]

_FAMILIES = {  # family: (the admissible ranks in words, their test, Coxeter number)
    "A": ("rank >= 1", lambda n: n >= 1, lambda n: n + 1),
    "B": ("rank >= 2", lambda n: n >= 2, lambda n: 2 * n),
    "C": ("rank >= 2", lambda n: n >= 2, lambda n: 2 * n),
    "D": ("rank >= 4", lambda n: n >= 4, lambda n: 2 * n - 2),
    "E": ("rank in {6, 7, 8}", lambda n: n in (6, 7, 8), lambda n: {6: 12, 7: 18, 8: 30}[n]),
    "F": ("rank = 4", lambda n: n == 4, lambda n: 12),
    "G": ("rank = 2", lambda n: n == 2, lambda n: 6),
}


@dataclass(frozen=True)
class DynkinType:
    """A family letter plus rank naming one finite-type diagram."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of A-G")
        text, admissible, _ = _FAMILIES[self.family]
        if type(self.rank) is not int or not admissible(self.rank):
            raise ValueError(
                f"inadmissible type {self.family}{self.rank}: family {self.family} requires {text}"
            )

    @classmethod
    def from_name(cls, name: str) -> "DynkinType":
        """Parse a token like ``"E8"`` or ``"A12"``."""
        token = name.strip()
        if len(token) < 2 or token[0] not in _FAMILIES or not token[1:].isdecimal():
            raise ValueError(f"unknown type token {name!r}; expected e.g. A3, D5, E8")
        return cls(token[0], int(token[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class TypeProfile:
    """Per-type derived data: row sums of the inverse, weighted degrees,
    and the period cap used to stop orbit tracing."""

    dynkin: DynkinType
    b: tuple[Fraction, ...]
    d: tuple[int, ...]
    period_cap: int


def _edges(t: DynkinType) -> tuple[tuple[int, int, int, int], ...]:
    """Weighted edges ``(i, j, mij, mji)`` with ``i < j`` (1-based), meaning
    ``C[i,j] = -mij`` and ``C[j,i] = -mji``: the path ``1 - ... - n``,
    edited per family."""
    n = t.rank
    path = [(i, i + 1, 1, 1) for i in range(1, n)]
    fam = t.family
    if fam == "B":
        path[-1] = (n - 1, n, 2, 1)
    elif fam == "C":
        path[-1] = (n - 1, n, 1, 2)
    elif fam == "D":
        path[-1] = (n - 2, n, 1, 1)
    elif fam == "E":
        path[:3] = [(1, 3, 1, 1), (2, 4, 1, 1), (3, 4, 1, 1)]
    elif fam == "F":
        path[1] = (2, 3, 2, 1)
    elif fam == "G":
        path[0] = (1, 2, 1, 3)
    return tuple(path)


def coxeter_number(t: DynkinType) -> int:
    return _FAMILIES[t.family][2](t.rank)


def period_cap(t: DynkinType) -> int:
    """``h + 2``, the Coxeter number plus two: a period of every frieze of
    ``t`` (``twist`` re-checks it), read without the inverse."""
    return coxeter_number(t) + 2


@lru_cache(maxsize=None)
def _mesh_factors(t: DynkinType):
    """Per vertex ``i`` (0-based): the factors ``(j, m, o)`` of its mesh
    product at column ``k``, each standing for ``F[j, k+o]**m`` with
    ``m = -C[i,j]`` and ``o = int(j > i)``, sorted by ``j``."""
    table = [[] for _ in range(t.rank)]
    for i, j, mij, mji in _edges(t):
        table[i - 1].append((j - 1, mij, 1))
        table[j - 1].append((i - 1, mji, 0))
    return tuple(tuple(sorted(factors)) for factors in table)


@lru_cache(maxsize=None)
def cartan_matrix(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of ``t`` under the fixed numbering above, filled in
    from the mesh table: a tuple of integer rows, ``C[i][j]`` 0-indexed."""
    n = t.rank
    rows = []
    for i, factors in enumerate(_mesh_factors(t)):
        row = [0] * n
        row[i] = 2
        for j, m, _ in factors:
            row[j] = -m
        rows.append(tuple(row))
    return tuple(rows)


def _branches(t: DynkinType, table) -> dict:
    """Branch determinants of the tree ``table`` (a mesh table): ``(D, P)``
    per directed edge ``c -> v``, ``D`` the determinant of the branch that
    holds ``c`` once the edge ``c - v`` is cut and ``P`` the product of its
    sub-branches ``D(u -> c)``; ``(0, None)`` is the whole diagram.
    Expanding along ``c``, ``D = 2 P - sum_u m_cu m_uc P(u -> c) P / D(u ->
    c)``: one pass from the leaves in, then one back out, gives all in O(n).
    A ``D`` that is not positive (no finite type has one) raises
    ``ArithmeticError``."""
    weight = {(i, j): m for i, row in enumerate(table) for j, m, _ in row}
    parent, order, stack, dets = {0: None}, [], [0], {}
    while stack:
        c = stack.pop()
        order.append(c)
        for u, _, _ in table[c]:
            if u not in parent:
                parent[u] = c
                stack.append(u)
    inward = [(c, parent[c]) for c in reversed(order)]
    outward = [(c, u) for c in order for u, _, _ in table[c] if u != parent[c]]
    for c, v in inward + outward:
        d, p = 2, 1
        for u, m, _ in table[c]:
            if u != v:
                du, pu = dets[u, c]
                d, p = d * du - m * weight[u, c] * pu * p, p * du
        if d <= 0:
            raise ArithmeticError(f"{t}: branch determinant {d} at vertex {c + 1}, not positive")
        dets[c, v] = d, p
    return dets


@lru_cache(maxsize=None)
def _adjugate(t: DynkinType) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``det C`` and ``adj = det * C**-1``, exactly.  On a tree, only the
    permutation along the path ``i = p_0, ..., p_r = j`` survives in the
    Leibniz expansion of ``adj[i][j]``: the product of ``-C[p_s][p_s+1]``
    times every branch determinant hanging off the path.  So ``adj[i][i]``
    is the product of the ``D(x -> i)``, and each step ``v -> x`` outward
    from ``i`` trades the hanging ``D(x -> v)`` for ``-C[v][x] * P(x ->
    v)``.  Re-checked as ``C * adj == det * I`` against the mesh table."""
    table, n = _mesh_factors(t), t.rank
    dets = _branches(t, table)
    det, adj = dets[0, None][0], []
    for i in range(n):
        row, stack = [0] * n, [(i, None)]
        row[i] = math.prod(dets[x, i][0] for x, _, _ in table[i])
        while stack:
            v, u = stack.pop()
            for x, m, _ in table[v]:
                if x != u:
                    d, p = dets[x, v]
                    row[x] = row[v] * m * p // d  # exact: d divides row[v]
                    stack.append((x, v))
        adj.append(tuple(row))
    for i, factors in enumerate(table):
        acc = [2 * x for x in adj[i]]
        for k, m, _ in factors:
            acc = [a - m * x for a, x in zip(acc, adj[k])]
        if acc != [det * (j == i) for j in range(n)]:
            raise ArithmeticError(f"{t}: inverse check failed in row {i + 1}")
    return det, tuple(adj)


@lru_cache(maxsize=None)
def inverse_cartan(t: DynkinType) -> tuple[tuple[Fraction, ...], ...]:
    """Exact rational inverse ``adj / det`` of the checked path products
    above, as a tuple of ``Fraction`` rows (0-indexed)."""
    det, adj = _adjugate(t)
    return tuple(tuple(Fraction(x, det) for x in row) for row in adj)


@lru_cache(maxsize=None)
def type_profile(t: DynkinType) -> TypeProfile:
    """Row sums ``b = C**-1 * 1`` (``sum(adj[i]) / det``), weighted degrees
    ``d``, and the period cap ``h + 2`` (Coxeter number plus two)."""
    det, adj = _adjugate(t)
    b = tuple(Fraction(sum(row), det) for row in adj)
    d = tuple(sum(m for _, m, _ in factors) for factors in _mesh_factors(t))
    return TypeProfile(t, b, d, period_cap(t))


@lru_cache(maxsize=None)
def twist(t: DynkinType) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The Nakayama twist ``(sigma, c)`` of ``t`` (0-based vertices): every
    frieze satisfies ``F[i,k] = F[sigma[i], k + c[i]]`` (Keller, *The
    periodicity conjecture for pairs of Dynkin diagrams*, 2013).

    Derived from the mesh table by tropical propagation of denominator
    vectors from the slice ``d[i] = -e_i``: the frieze step walked as in
    ``mesh.forward_values`` with ``out[i] = max(0, sum of m * neighbour) -
    cur[i]``.  The rule is componentwise, so each coordinate ``j`` is
    walked alone, from ``-e_j``, in one list updated in place from
    ``i = n - 1`` down: at ``i`` it holds the new column after ``i`` and
    the old one before it, as the step reads them.  In finite type the
    denominator vector of every cluster variable outside the seed is a
    positive root (Fomin and Zelevinsky, *Cluster algebras II*, 2003), so
    coordinate ``j`` first reaches ``-1`` where ``-e_j`` recurs: at
    ``(sigma[j], c[j])``.  The result is re-checked (every ``-e_j`` found
    within ``h + 2`` columns, ``sigma`` an involution, ``c[i] +
    c[sigma[i]] == h + 2``); raises ``ArithmeticError`` otherwise.  Costs
    O(n**3): only the search and the ``enumerate`` command call it.
    """
    n = t.rank
    h2 = period_cap(t)
    factors = _mesh_factors(t)
    sigma, c = [None] * n, [None] * n
    for j in range(n):
        d = [-int(i == j) for i in range(n)]
        for k in range(1, h2 + 1):
            for i in range(n - 1, -1, -1):
                s = 0
                for l, m, _ in factors[i]:
                    s += m * d[l]
                d[i] = (s if s > 0 else 0) - d[i]  # max(s, 0), inline for speed
            if -1 in d:
                sigma[j], c[j] = d.index(-1), k
                break
    if None in sigma:
        raise ArithmeticError(f"twist check failed: not every -e_j recurs within {h2} columns")
    for i in range(n):
        if sigma[sigma[i]] != i or c[i] + c[sigma[i]] != h2:
            raise ArithmeticError(f"twist check failed at vertex {i + 1}")
    return tuple(sigma), tuple(c)


def search_period(t: DynkinType) -> int:
    """A period of every frieze of ``t``: ``(h + 2) / 2`` when the twist's
    permutation is the identity, ``h + 2`` otherwise."""
    h2 = period_cap(t)
    return h2 // 2 if twist(t)[0] == tuple(range(t.rank)) else h2


def repetition_arrows(
    t: DynkinType, k_lo: int, k_hi: int
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Arrows ``(i,k) -> (j,k)`` and ``(j,k) -> (i,k+1)`` for every diagram
    edge ``i < j`` and every ``k`` in ``[k_lo, k_hi]``, ordered by ``k``
    then ``(i, j)``."""
    if type(k_lo) is not int or type(k_hi) is not int:
        raise ValueError(f"column bounds must be ints, not {k_lo!r} and {k_hi!r}")
    if k_lo > k_hi:
        raise ValueError(f"empty column range: {k_lo} > {k_hi}")
    pairs = [(i + 1, j + 1) for i, row in enumerate(_mesh_factors(t)) for j, _, o in row if o]
    arrows = []
    for k in range(k_lo, k_hi + 1):
        for i, j in pairs:
            arrows.append(((i, k), (j, k)))
            arrows.append(((j, k), (i, k + 1)))
    return arrows
