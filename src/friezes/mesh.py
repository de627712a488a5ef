"""Frieze data model and mesh-relation machinery.

A frieze assigns a positive integer to every vertex ``(i, k)`` of the
repetition quiver so that for all ``i, k``

    F[i,k] * F[i,k+1] = 1 + prod_{j<i} F[j,k]^{-C[i,j]}
                          * prod_{j>i} F[j,k+1]^{-C[i,j]}

One column determines the whole frieze: solving the relation for
``F[i,k+1]`` and walking ``i = n..1`` only ever reads entries of the new
column that are already filled (the ``j < i`` factors live in the old
column).  Walking ``i = 1..n`` inverts the step.  All arithmetic is on
arbitrary-precision integers; division must be exact or the seed is not a
frieze column.

A :class:`FriezePattern` computes two views of itself on first use and
keeps them: its row-major transpose (``rows()``) and the product of each
row over the stored period, which ``bounds.row_products`` raises to any
multiple of the period.  Caching is safe because a pattern cannot change:
both dataclasses are frozen, and their ``values`` and ``columns`` are
stored as tuples, whatever sequence the caller passed.  The caches live
outside the dataclass fields, so ``==``, ``hash`` and ``repr`` ignore them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .catalog import DynkinType, _mesh_factors

__all__ = [
    "FriezeSlice",
    "FriezePattern",
    "MeshViolation",
    "IndivisibleError",
    "DeadEndError",
    "NoRecurrenceError",
    "mesh_product",
    "propagate_forward",
    "propagate_backward",
    "detect_period",
    "verify_pattern",
    "pattern_from_columns",
]


class IndivisibleError(ArithmeticError):
    """A propagation step required an inexact division at ``vertex`` (1-based)."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"inexact division at vertex {vertex}")


class DeadEndError(ValueError):
    """Orbit tracing hit an inexact division: the seed is not a frieze column."""

    def __init__(self, step: int, vertex: int):
        self.step = step
        self.vertex = vertex
        super().__init__(f"dead end at step {step}, vertex {vertex}")


class NoRecurrenceError(ValueError):
    """Orbit tracing exceeded the cap without returning to the seed column."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"no recurrence within {cap} steps")


@dataclass(frozen=True)
class FriezeSlice:
    """One column of values ``F[1,k] .. F[n,k]`` (``values`` is 0-indexed)."""

    dynkin: DynkinType
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = self.values
        if not isinstance(values, tuple):
            values = tuple(values)
            object.__setattr__(self, "values", values)
        if len(values) != self.dynkin.rank:
            raise ValueError(
                f"expected {self.dynkin.rank} entries for {self.dynkin}, got {len(values)}"
            )
        # a plain loop: on CPython 3.11 it beats all(map(isinstance, ...)) + min
        for i, v in enumerate(values):
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"entry {v!r} at vertex {i + 1} is not a positive integer")


@dataclass(frozen=True)
class FriezePattern:
    """A frieze on one fundamental domain: ``period`` consecutive columns,
    indices taken mod ``period``.  Construction does not verify the mesh
    relations; use :func:`verify_pattern`."""

    dynkin: DynkinType
    period: int
    columns: tuple[FriezeSlice, ...]

    def __post_init__(self) -> None:
        columns = self.columns
        if not isinstance(columns, tuple):
            columns = tuple(columns)
            object.__setattr__(self, "columns", columns)
        if self.period < 1 or len(columns) != self.period:
            raise ValueError(f"period {self.period} does not match {len(columns)} columns")
        for c in columns:
            if c.dynkin != self.dynkin:
                raise ValueError(f"column of type {c.dynkin} in a {self.dynkin} pattern")

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*(col.values for col in self.columns)))

    @cached_property
    def _row_products(self) -> tuple[int, ...]:
        """``prod_k F[i,k]`` over the stored period, per row."""
        return tuple(map(math.prod, self._rows))

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Row-major view: ``rows()[i][k] = F[i+1, k]``."""
        return self._rows


@dataclass(frozen=True)
class MeshViolation:
    """One failed mesh relation: ``lhs = F[i,k] * F[i,k+1]`` against
    ``rhs = 1 + mesh product`` (vertex 1-based, column 0-based)."""

    vertex: int
    column: int
    lhs: int
    rhs: int


def _product(cols, factors) -> int:
    """Product of ``factors`` read from ``cols = (column k, column k+1)``."""
    prod = 1
    for j, m, o in factors:
        v = cols[o][j]
        prod *= v if m == 1 else v**m
    return prod


def mesh_product(i: int, col_k: FriezeSlice, col_k1: FriezeSlice) -> int:
    """The neighbor product for vertex ``i`` (1-based) between consecutive
    columns; the empty product is 1."""
    if col_k.dynkin != col_k1.dynkin:
        raise ValueError("columns belong to different types")
    return _product((col_k.values, col_k1.values), _mesh_factors(col_k.dynkin)[i - 1])


def forward_values(t: DynkinType, values: tuple[int, ...]) -> tuple[int, ...]:
    """Next column from ``values``, on raw tuples.  Walks ``i = n..1`` so
    that only already-filled entries of the new column are read.  Raises
    :class:`IndivisibleError` when a division is inexact."""
    factors = _mesh_factors(t)
    n = len(values)
    # None sentinels: touching a not-yet-computed entry is a bug and raises
    out: list = [None] * n
    cols = (values, out)
    for i in range(n - 1, -1, -1):
        q, r = divmod(1 + _product(cols, factors[i]), values[i])
        if r:
            raise IndivisibleError(i + 1)
        out[i] = q
    return tuple(out)


def backward_values(t: DynkinType, values: tuple[int, ...]) -> tuple[int, ...]:
    """Previous column from ``values``; walks ``i = 1..n``."""
    factors = _mesh_factors(t)
    n = len(values)
    out: list = [None] * n
    cols = (out, values)
    for i in range(n):
        q, r = divmod(1 + _product(cols, factors[i]), values[i])
        if r:
            raise IndivisibleError(i + 1)
        out[i] = q
    return tuple(out)


def propagate_forward(s: FriezeSlice) -> FriezeSlice:
    """Column ``k+1`` from column ``k``."""
    return FriezeSlice(s.dynkin, forward_values(s.dynkin, s.values))


def propagate_backward(s: FriezeSlice) -> FriezeSlice:
    """Column ``k`` from column ``k+1``; inverse of :func:`propagate_forward`."""
    return FriezeSlice(s.dynkin, backward_values(s.dynkin, s.values))


def _orbit(t: DynkinType, first: tuple[int, ...], cap: int, caps=None):
    """Columns ``0 .. q-1`` of the orbit of ``first``, on raw tuples, where
    ``q <= cap`` is minimal with ``column_q = first``.

    Returns ``None`` as soon as a propagated column has an entry above
    ``caps`` (when given).  Raises :class:`DeadEndError` if propagation
    dies and :class:`NoRecurrenceError` if ``cap`` is exhausted.
    """
    cols = [first]
    cur = first
    for step in range(1, cap + 1):
        try:
            cur = forward_values(t, cur)
        except IndivisibleError as exc:
            raise DeadEndError(step, exc.vertex) from exc
        if caps is not None and any(v > c for v, c in zip(cur, caps)):
            return None
        if cur == first:
            return cols
        cols.append(cur)
    raise NoRecurrenceError(cap)


def detect_period(seed: FriezeSlice, cap: int) -> tuple[int, list[FriezeSlice]]:
    """Propagate forward until the seed column recurs.

    Returns ``(q, columns)`` where ``q <= cap`` is minimal with
    ``column_q = column_0`` and ``columns`` holds columns ``0 .. q-1``.
    Because propagation is invertible, the first repeat of any column is
    necessarily a repeat of the seed, so the returned columns are pairwise
    distinct.  Raises :class:`DeadEndError` if propagation dies (the seed
    is not a frieze column) and :class:`NoRecurrenceError` if ``cap`` is
    exhausted.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    cols = _orbit(seed.dynkin, seed.values, cap)
    return len(cols), [FriezeSlice(seed.dynkin, v) for v in cols]


def verify_pattern(f: FriezePattern) -> list[MeshViolation]:
    """Check every mesh relation cyclically; an empty list means the
    pattern is a frieze."""
    factors = _mesh_factors(f.dynkin)
    p = f.period
    violations = []
    for k in range(p):
        vk = f.columns[k].values
        vk1 = f.columns[(k + 1) % p].values
        cols = (vk, vk1)
        for i in range(f.dynkin.rank):
            lhs = vk[i] * vk1[i]
            rhs = 1 + _product(cols, factors[i])
            if lhs != rhs:
                violations.append(MeshViolation(i + 1, k, lhs, rhs))
    return violations


def pattern_from_columns(t: DynkinType, columns) -> FriezePattern:
    """Build a pattern from raw value tuples (or slices)."""
    slices = tuple(
        c if isinstance(c, FriezeSlice) else FriezeSlice(t, tuple(c)) for c in columns
    )
    return FriezePattern(t, len(slices), slices)
