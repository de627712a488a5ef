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

Propagation and verification run per-type kernels: ``_kernels(t)``
generates, on first use, straight-line functions ``fwd``, ``bwd`` and
``pair`` from the mesh table ``catalog._mesh_factors(t)``, with every
vertex index and exponent written in as a literal, and caches them.  The
generic loop ``_product`` pays a tuple unpack, a branch and an indexed read
per factor, where the kernels pay only the multiplications; on the
large-rank documents of the read path this cuts propagation and
verification to about a third of their time.  The generated source is
built from the integers of the mesh table alone (indices, exponents,
1-based vertex numbers), never from caller data.  ``_product`` stays for
``mesh_product``, the searches and the bounds.

Every column that propagation derives from a column of positive integers
is again a tuple of positive ``int``s: each entry is ``1 + product`` (at
least 2) divided exactly by a positive integer.  So the results of
:func:`propagate_forward` and :func:`propagate_backward` and the orbit
columns of :func:`detect_period`, like the columns ``formats.parse_frieze``
has already checked token by token, are wrapped by ``FriezeSlice._unchecked``
without running the validation of ``FriezeSlice.__post_init__`` again.

A :class:`FriezePattern` computes two views of itself on first use and
keeps them: its row-major transpose (``rows()``) and the product of each
row over the stored period.  ``formats.parse_frieze`` reads a document row
by row, so it seeds the transpose with the rows it parsed.
``bounds.row_products`` raises the products to a multiple of the period
and keeps one slot, the powers for the last multiple asked.  Caching is
safe because a pattern cannot change: both dataclasses are frozen, and
their ``values`` and ``columns`` are stored as tuples, whatever sequence
the caller passed.  The caches live outside the dataclass fields, so
``==``, ``hash`` and ``repr`` ignore them.

A verified pattern is its own orbit.  When :func:`verify_pattern` finds no
violation, every stored pair of consecutive columns satisfies the mesh
relations, and each relation fixes ``F[i,k+1] = (1 + product) / F[i,k]``
from entries that propagation has already filled, so ``forward_values``
maps ``columns[k]`` to ``columns[k+1 mod period]``.  ``verify_pattern``
therefore keeps ``columns[1:]`` on ``columns[0]``, again outside the
dataclass fields, and :func:`detect_period` reads the minimal period off
the seed and the columns after it without arithmetic.  (Keeping the whole
tuple would make every verified pattern a reference cycle, which only the
cyclic collector frees.)  The stash stays sound wherever the same slice object is shared:
propagation is a function, so every verified tuple of columns that starts
at a slice is that slice's orbit, perhaps stored over a multiple of its
period, and a later one replaces it with the same orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

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
    """Tracing an orbit hit an inexact division: the seed is not a frieze column."""

    def __init__(self, step: int, vertex: int):
        self.step = step
        self.vertex = vertex
        super().__init__(f"dead end at step {step}, vertex {vertex}")


class NoRecurrenceError(ValueError):
    """Tracing an orbit exceeded the cap without returning to the seed column."""

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
        # a plain loop (on CPython 3.11 it beats all(map(...)) + min); bools are refused
        for i, v in enumerate(values):
            if type(v) is not int or v < 1:
                raise ValueError(f"entry {v!r} at vertex {i + 1} is not a positive integer")

    @classmethod
    def _unchecked(cls, dynkin: DynkinType, values: tuple[int, ...]) -> FriezeSlice:
        """A slice whose ``values`` are known to be a tuple of ``rank``
        positive ints; skips ``__post_init__``."""
        s = object.__new__(cls)
        s.__dict__.update(dynkin=dynkin, values=values)
        return s


@dataclass(frozen=True)
class FriezePattern:
    """A frieze on one fundamental domain: consecutive ``columns``, indices
    taken mod ``period = len(columns)``.  Construction does not verify the
    mesh relations; use :func:`verify_pattern`.  At least one column."""

    dynkin: DynkinType
    columns: tuple[FriezeSlice, ...]

    def __post_init__(self) -> None:
        columns = self.columns
        if not isinstance(columns, tuple):
            columns = tuple(columns)
            object.__setattr__(self, "columns", columns)
        if not columns:
            raise ValueError("a pattern needs at least one column")
        for c in columns:
            if c.dynkin != self.dynkin:
                raise ValueError(f"column of type {c.dynkin} in a {self.dynkin} pattern")

    @classmethod
    def _unchecked(cls, dynkin: DynkinType, columns: tuple, rows: tuple) -> FriezePattern:
        """A pattern whose ``columns`` are known to be a non-empty tuple of
        slices of type ``dynkin``, with ``rows`` their transpose as
        ``rows()`` returns it; skips ``__post_init__``."""
        f = object.__new__(cls)
        f.__dict__.update(dynkin=dynkin, columns=columns, _rows=rows)
        return f

    @property
    def period(self) -> int:
        return len(self.columns)

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
    """The neighbor product for vertex ``i`` (1-based, ``1 <= i <= rank``)
    between consecutive columns; the empty product is 1."""
    if col_k.dynkin != col_k1.dynkin:
        raise ValueError("columns belong to different types")
    if type(i) is not int or not 1 <= i <= col_k.dynkin.rank:
        raise ValueError(f"vertex {i} is not in 1..{col_k.dynkin.rank}")
    return _product((col_k.values, col_k1.values), _mesh_factors(col_k.dynkin)[i - 1])


def _rhs_source(factors) -> str:
    """``1 + product`` as source, reading ``F[j,k]`` as ``a{j}`` and
    ``F[j,k+1]`` as ``b{j}``."""
    terms = [f"{'ab'[o]}{j}" + (f"**{m}" if m > 1 else "") for j, m, o in factors]
    return "1 + " + (" * ".join(terms) or "1")


def _kernel_source(factors) -> str:
    """Source of ``fwd`` (column ``a`` to ``b``), ``bwd`` (``b`` to ``a``)
    and ``pair`` (the violations between ``a`` and ``b``)."""
    n = len(factors)

    def names(col: str) -> str:
        return ", ".join(f"{col}{i}" for i in range(n))

    lines = []
    for name, known, new, order in (
        ("fwd", "a", "b", range(n - 1, -1, -1)),
        ("bwd", "b", "a", range(n)),
    ):
        lines += [f"def {name}(v):", f"    {names(known)}, = v"]
        for i in order:
            lines += [
                f"    {new}{i}, r = divmod({_rhs_source(factors[i])}, {known}{i})",
                "    if r:",
                f"        raise IndivisibleError({i + 1})",
            ]
        lines += [f"    return ({names(new)},)", ""]
    lines += ["def pair(a, b, k, out):", f"    {names('a')}, = a", f"    {names('b')}, = b"]
    for i in range(n):
        lines += [
            f"    lhs = a{i} * b{i}",
            f"    rhs = {_rhs_source(factors[i])}",
            "    if lhs != rhs:",
            f"        out.append(MeshViolation({i + 1}, k, lhs, rhs))",
        ]
    return "\n".join(lines) + "\n"


class _Kernels(NamedTuple):
    fwd: Callable
    bwd: Callable
    pair: Callable


@lru_cache(maxsize=None)
def _kernels(t: DynkinType) -> _Kernels:
    """The mesh relations of ``t`` as straight-line functions, generated
    from ``_mesh_factors(t)`` on first use; see the module docstring."""
    namespace = {"IndivisibleError": IndivisibleError, "MeshViolation": MeshViolation}
    exec(compile(_kernel_source(_mesh_factors(t)), "<mesh kernels>", "exec"), namespace)
    return _Kernels(namespace["fwd"], namespace["bwd"], namespace["pair"])


def forward_values(t: DynkinType, values: tuple[int, ...]) -> tuple[int, ...]:
    """Next column from ``values``, on raw tuples.  Walks ``i = n..1`` so
    that only already-filled entries of the new column are read.  Raises
    :class:`IndivisibleError` when a division is inexact."""
    return _kernels(t).fwd(values)


def propagate_forward(s: FriezeSlice) -> FriezeSlice:
    """Column ``k+1`` from column ``k``."""
    return FriezeSlice._unchecked(s.dynkin, forward_values(s.dynkin, s.values))


def propagate_backward(s: FriezeSlice) -> FriezeSlice:
    """Column ``k`` from column ``k+1``, walking ``i = 1..n``; inverse of
    :func:`propagate_forward`."""
    return FriezeSlice._unchecked(s.dynkin, _kernels(s.dynkin).bwd(s.values))


def _orbit(t: DynkinType, first: tuple[int, ...], cap: int, caps=None):
    """``(columns, closed)``: with ``closed`` true, columns ``0 .. q-1`` of
    the orbit of ``first``, on raw tuples, where ``q <= cap`` is minimal
    with ``column_q = first``.

    Stops as soon as a propagated column has an entry above ``caps`` (when
    given), with ``closed`` false and the columns traced before it: the
    walk from any of them leaves the caps too.  Raises
    :class:`DeadEndError` if propagation dies and
    :class:`NoRecurrenceError` if ``cap`` is exhausted.
    """
    cols = [first]
    cur = first
    for step in range(1, cap + 1):
        try:
            cur = forward_values(t, cur)
        except IndivisibleError as exc:
            raise DeadEndError(step, exc.vertex) from exc
        if caps is not None and any(v > c for v, c in zip(cur, caps)):
            return cols, False
        if cur == first:
            return cols, True
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

    A seed that is the first column of a pattern :func:`verify_pattern`
    has passed carries that pattern's columns, which are its orbit read
    cyclically (module docstring): ``q`` is then the least rotation that
    brings the seed back, and ``columns`` are the stored slices.  Every
    other seed walks its orbit.
    """
    if type(cap) is not int or cap < 1:
        raise ValueError("cap must be positive")
    tail = seed.__dict__.get("_verified_tail")
    if tail is not None:
        stored = (seed, *tail)
        period = len(stored)
        q = next(k for k in range(1, period + 1) if stored[k % period].values == seed.values)
        if q > cap:
            raise NoRecurrenceError(cap)
        return q, list(stored[:q])
    t = seed.dynkin
    cols, _ = _orbit(t, seed.values, cap)
    return len(cols), [FriezeSlice._unchecked(t, v) for v in cols]


def verify_pattern(f: FriezePattern) -> list[MeshViolation]:
    """Check every mesh relation cyclically; an empty list means the
    pattern is a frieze, and then ``f.columns[0]`` keeps the columns after
    it as the rest of its orbit for :func:`detect_period`."""
    pair = _kernels(f.dynkin).pair
    cols = [c.values for c in f.columns]
    violations: list[MeshViolation] = []
    for k, (a, b) in enumerate(zip(cols, cols[1:] + cols[:1])):
        pair(a, b, k, violations)
    if not violations:
        f.columns[0].__dict__["_verified_tail"] = f.columns[1:]
    return violations


def pattern_from_columns(t: DynkinType, columns) -> FriezePattern:
    """Build a pattern from raw value tuples (or slices)."""
    slices = tuple(
        c if isinstance(c, FriezeSlice) else FriezeSlice(t, tuple(c)) for c in columns
    )
    return FriezePattern(t, slices)
