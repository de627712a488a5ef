"""Finite-type Dynkin diagram catalog.

One mesh-factor table per type, built in linear time from the edge list,
owns the diagram: mesh readings, weighted degrees and quiver arrows read
it.  The dense Cartan matrix is only a view of it for the exact rational
inverse (and the public API), which gives the bound vectors ``b``.

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
    "leading_principal_minors",
    "CATALOG_SAMPLE",
]

_RANKS = {  # family: (the admissible ranks in words, their test)
    "A": ("rank >= 1", lambda n: n >= 1),
    "B": ("rank >= 2", lambda n: n >= 2),
    "C": ("rank >= 2", lambda n: n >= 2),
    "D": ("rank >= 4", lambda n: n >= 4),
    "E": ("rank in {6, 7, 8}", lambda n: n in (6, 7, 8)),
    "F": ("rank = 4", lambda n: n == 4),
    "G": ("rank = 2", lambda n: n == 2),
}


@dataclass(frozen=True)
class DynkinType:
    """A family letter plus rank naming one finite-type diagram."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANKS:
            raise ValueError(f"unknown family {self.family!r}; expected one of A-G")
        text, admissible = _RANKS[self.family]
        if not isinstance(self.rank, int) or not admissible(self.rank):
            raise ValueError(
                f"inadmissible type {self.family}{self.rank}: family {self.family} requires {text}"
            )

    @classmethod
    def from_name(cls, name: str) -> "DynkinType":
        """Parse a token like ``"E8"`` or ``"A12"``."""
        token = name.strip()
        if len(token) < 2 or token[0] not in _RANKS or not token[1:].isdecimal():
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


_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 12,
    "G": lambda n: 6,
}


def coxeter_number(t: DynkinType) -> int:
    return _COXETER[t.family](t.rank)


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


def _invert_exact(entries: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Fraction-free Gauss-Jordan elimination over ``int``.

    One pass over ``[C | I]``: for each pivot ``k`` and every row
    ``i != k``, ``row_i = (a_kk * row_i - a_ik * row_k) // prev`` and then
    ``prev = a_kk`` (Bareiss, 1968).  By Sylvester's identity every entry
    stays a minor of ``[C | I]``, so each division is exact.  Returns
    ``(det, adj)`` with ``adj = det * C**-1``; raises if singular.
    """
    n = len(entries)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(entries)]
    prev, sign = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if pivot is None:
            raise ArithmeticError("matrix is singular")
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pivot_row = rows[k]
        akk = pivot_row[k]
        for i in range(n):
            if i != k:
                aik = rows[i][k]
                rows[i] = [(akk * x - aik * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = akk
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in rows)


@lru_cache(maxsize=None)
def inverse_cartan(t: DynkinType) -> tuple[tuple[Fraction, ...], ...]:
    """Exact rational inverse from the integer elimination above, as a
    tuple of ``Fraction`` rows (0-indexed).

    Before returning, the integer identity ``C * adj == det * I`` is
    re-checked entry by entry, summing only over the nonzero ``C[i][k]``
    (at most three per row, read from the mesh table).  With ``det != 0``
    this is exactly ``C * C**-1 == I``.
    """
    det, adj = _invert_exact(cartan_matrix(t))
    if det == 0:
        raise ArithmeticError("inverse check failed: zero determinant")
    n = t.rank
    for i, factors in enumerate(_mesh_factors(t)):
        nonzero = [(i, 2)] + [(k, -m) for k, m, _ in factors]
        for j in range(n):
            acc = sum(c * adj[k][j] for k, c in nonzero)
            if acc != (det if i == j else 0):
                raise ArithmeticError(f"inverse check failed at ({i}, {j})")
    return tuple(tuple(Fraction(x, det) for x in row) for row in adj)


@lru_cache(maxsize=None)
def type_profile(t: DynkinType) -> TypeProfile:
    """Row sums ``b`` of the inverse, weighted degrees ``d``, and the
    period cap ``h + 2`` (Coxeter number plus two)."""
    b = tuple(sum(row, Fraction(0)) for row in inverse_cartan(t))
    d = tuple(sum(m for _, m, _ in factors) for factors in _mesh_factors(t))
    return TypeProfile(t, b, d, coxeter_number(t) + 2)


@lru_cache(maxsize=None)
def twist(t: DynkinType) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The Nakayama twist ``(sigma, c)`` of ``t`` (0-based vertices): every
    frieze satisfies ``F[i,k] = F[sigma[i], k + c[i]]`` (Keller, *The
    periodicity conjecture for pairs of Dynkin diagrams*, 2013).

    Derived from the mesh table by tropical propagation of denominator
    vectors from the slice ``d[i] = -e_i``: the frieze step walked as in
    ``mesh.forward_values`` with ``out[i] = max(0, sum of m * neighbour) -
    cur[i]``, componentwise.  When entry ``i`` of column ``k`` is ``-e_j``,
    then ``sigma[j] = i`` and ``c[j] = k``.  The result is re-checked
    (every ``-e_j`` found within ``h + 2`` columns, ``sigma`` an
    involution, ``c[i] + c[sigma[i]] == h + 2``); raises ``ArithmeticError``
    otherwise.  Costs O(n**3): only the search and the ``enumerate``
    command call it.
    """
    n = t.rank
    h2 = coxeter_number(t) + 2
    factors = _mesh_factors(t)
    unit = [tuple(-int(i == j) for j in range(n)) for i in range(n)]
    found = {vec: i for i, vec in enumerate(unit)}
    sigma, c = [None] * n, [None] * n
    cur = unit
    for k in range(1, h2 + 1):
        out: list = [None] * n
        for i in range(n - 1, -1, -1):
            total = [0] * n
            for j, m, o in factors[i]:
                for x, v in enumerate((cur, out)[o][j]):
                    total[x] += m * v
            out[i] = tuple(max(0, s) - v for s, v in zip(total, cur[i]))
        for i, vec in enumerate(out):
            j = found.get(vec)
            if j is not None and sigma[j] is None:
                sigma[j], c[j] = i, k
        cur = out
    if None in sigma:
        raise ArithmeticError(f"twist check failed: not every -e_j recurs within {h2} columns")
    for i in range(n):
        if sigma[sigma[i]] != i or c[i] + c[sigma[i]] != h2:
            raise ArithmeticError(f"twist check failed at vertex {i + 1}")
    return tuple(sigma), tuple(c)


def search_period(t: DynkinType) -> int:
    """A period of every frieze of ``t``: ``(h + 2) / 2`` when the twist's
    permutation is the identity, ``h + 2`` otherwise."""
    h2 = coxeter_number(t) + 2
    return h2 // 2 if twist(t)[0] == tuple(range(t.rank)) else h2


def repetition_arrows(
    t: DynkinType, k_lo: int, k_hi: int
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Arrows ``(i,k) -> (j,k)`` and ``(j,k) -> (i,k+1)`` for every diagram
    edge ``i < j`` and every ``k`` in ``[k_lo, k_hi]``, ordered by ``k``
    then ``(i, j)``."""
    if k_lo > k_hi:
        raise ValueError(f"empty column range: {k_lo} > {k_hi}")
    pairs = [(i + 1, j + 1) for i, row in enumerate(_mesh_factors(t)) for j, _, o in row if o]
    arrows = []
    for k in range(k_lo, k_hi + 1):
        for i, j in pairs:
            arrows.append(((i, k), (j, k)))
            arrows.append(((j, k), (i, k + 1)))
    return arrows


def leading_principal_minors(cm: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    """Determinants of the leading principal submatrices of the integer
    rows ``cm``, exactly.  The integer elimination above, run on ``cm``
    without row swaps and below the pivot only, has the ``k``-th leading
    minor as its ``k``-th pivot.  From a zero pivot on, each leading block
    is eliminated on its own, 0 where it is singular."""
    n = len(cm)
    rows = [list(row) for row in cm]
    minors = []
    prev = 1
    for k in range(n):
        akk = rows[k][k]
        if not akk:
            break
        minors.append(Fraction(akk))
        for i in range(k + 1, n):
            aik = rows[i][k]
            rows[i] = [(akk * x - aik * y) // prev for x, y in zip(rows[i], rows[k])]
        prev = akk
    for m in range(len(minors) + 1, n + 1):
        try:
            det, _ = _invert_exact(tuple(row[:m] for row in cm[:m]))
        except ArithmeticError:
            det = 0
        minors.append(Fraction(det))
    return tuple(minors)


def _catalog_sample() -> tuple[DynkinType, ...]:
    """A finite slice of the infinite catalog, used by tests to sweep
    "every type" style checks."""
    names = [
        "A1", "A2", "A3", "A4", "A5",
        "B2", "B3", "B4",
        "C2", "C3", "C4",
        "D4", "D5", "D6",
        "E6", "E7", "E8",
        "F4", "G2",
    ]
    return tuple(DynkinType.from_name(s) for s in names)


CATALOG_SAMPLE = _catalog_sample()
