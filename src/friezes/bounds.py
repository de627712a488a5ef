"""Quantitative bounds for friezes: average-log vectors, the exact
interval certificate, per-type entry/count bounds, and the refined bounds
for friezes with all entries >= 2.

Everything decidable is decided in exact integer or rational arithmetic;
floats appear only as a reporting view, evaluated from exact quantities at
the last step (target precision 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .catalog import DynkinType, _adjugate, _mesh_factors, type_profile
from .mesh import FriezePattern, _product

__all__ = [
    "LogVector",
    "IntervalCertificate",
    "BoundsReport",
    "BoundsCheck",
    "row_products",
    "a_vector",
    "interval_certificate",
    "bounds_report",
    "check_pattern_against_bounds",
    "entry_caps",
    "floor_pow2",
    "integer_root",
]


def integer_root(x: int, k: int) -> int:
    """Largest ``r`` with ``r**k <= x`` (ints ``x >= 0``, ``k >= 1``)."""
    if type(x) is not int or type(k) is not int or x < 0 or k < 1:
        raise ValueError("integer_root needs ints x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return math.isqrt(x)
    # Newton's method from above never undershoots the floor root s: by
    # AM-GM, ((k-1)*r + x/r**(k-1))/k >= x**(1/k), and flooring keeps the
    # step nr >= s.  While r > s, r**k > x forces nr < r, so the loop
    # stops at r = s exactly.
    r = 1 << -((-x.bit_length()) // k)  # >= true root
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def floor_pow2(e: Fraction) -> int:
    """``floor(2**e)`` for a positive exponent, an ``int`` or a
    ``Fraction``, exactly."""
    if type(e) not in (int, Fraction) or e <= 0:
        raise ValueError("exponent must be positive")
    return integer_root(1 << e.numerator, e.denominator)


@lru_cache(maxsize=64, typed=True)
def entry_caps(t: DynkinType, p: int, clip: int | None = None) -> tuple[int, ...]:
    """Exact per-entry caps ``floor(2**(p*b_i))``, each clipped at ``clip``
    when given.  A clipped cap is never built: ``p*b_i >=
    clip.bit_length()`` puts ``2**(p*b_i)`` above ``clip``, and below that
    the cap has at most as many bits as ``clip``.

    Cached per ``(t, p, clip)``: the caps check of every stored frieze of
    one type and period reads the same roots.  The cache is bounded because
    a cap at a large period has thousands of digits, and typed so that a
    ``True`` or ``2.0`` is not served from the ints 1 and 2 but refused."""
    if type(p) is not int or p < 1:
        raise ValueError("period must be positive")
    if clip is None:
        return tuple(floor_pow2(p * bi) for bi in type_profile(t).b)
    if type(clip) is not int or clip < 1:
        raise ValueError("clip must be a positive int")
    bits = clip.bit_length()
    return tuple(
        clip if p * bi >= bits else min(floor_pow2(p * bi), clip) for bi in type_profile(t).b
    )


@dataclass(frozen=True)
class LogVector:
    """Average base-2 logs per row (``a``) and their image under the
    Cartan matrix (``ca``); floats with documented 1e-9 precision."""

    a: tuple[float, ...]
    ca: tuple[float, ...]


@dataclass(frozen=True)
class IntervalCertificate:
    """Exact per-row interval test.

    For row ``i``: ``row_squares[i] = (prod_k F[i,k])**2`` and
    ``neighbor_products[i] = prod_{j != i} (prod_k F[j,k])**(-C[i,j])``,
    both over ``period`` columns.  The verdict is the exact comparison
    ``neighbor_products[i] < row_squares[i] <= 2**period * neighbor_products[i]``,
    equivalent to the ``i``-th entry of ``C a`` lying in ``(0, 1]``.
    """

    dynkin: DynkinType
    period: int
    row_squares: tuple[int, ...]
    neighbor_products: tuple[int, ...]
    verdicts: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return all(self.verdicts)


@dataclass(frozen=True)
class BoundsReport:
    """All per-type bounds for a nominal period ``p``.

    Rational fields are exact.  ``refined_rowwise_log2[i]`` is
    ``p * sum_j Cinv[i,j] * log2(1 + 2**-d[j])`` (the per-row formula);
    ``refined_base`` is the exact rational ``prod_j (1 + 2**-d[j])`` and
    ``refined_flat_log2`` the float ``log2`` of its ``p``-th power.
    """

    dynkin: DynkinType
    period: int
    b: tuple[Fraction, ...]
    entry_cap_exponents: tuple[Fraction, ...]
    count_bound_exponent: Fraction
    d: tuple[int, ...]
    refined_rowwise_log2: tuple[float, ...]
    refined_base: Fraction
    refined_flat_log2: float


@dataclass(frozen=True)
class BoundsCheck:
    """Exact per-row outcome of the row-product and per-entry caps."""

    row_product_ok: tuple[bool, ...]
    entry_ok: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return all(self.row_product_ok) and all(self.entry_ok)


def _resolve_period(f: FriezePattern, p: int | None) -> int:
    if p is None:
        return f.period
    if type(p) is not int or p < 1 or p % f.period != 0:
        raise ValueError(f"period {p} is not a positive multiple of the stored period {f.period}")
    return p


def row_products(f: FriezePattern, p: int | None = None) -> tuple[int, ...]:
    """``prod_k F[i,k]`` over ``p`` columns, computed exactly as the
    stored-period product (formed once per pattern) raised to
    ``p // f.period``."""
    e = _resolve_period(f, p) // f.period
    prods = f._row_products
    return prods if e == 1 else tuple(x**e for x in prods)


def a_vector(f: FriezePattern, p: int | None = None) -> LogVector:
    """Average base-2 log of each row and its Cartan image.

    Averaging over any multiple of the stored period gives the same value,
    so ``p`` only has to be a multiple of ``f.period``.
    """
    p = _resolve_period(f, p)
    prods = row_products(f, p)
    a = tuple(math.log2(x) / p for x in prods)
    # the diagonal entry of C is 2 and each factor (j, m, o) is -C[i,j]
    ca = tuple(
        math.fsum([2 * a[i]] + [-m * a[j] for j, m, _ in factors])
        for i, factors in enumerate(_mesh_factors(f.dynkin))
    )
    return LogVector(a, ca)


def interval_certificate(f: FriezePattern, p: int | None = None) -> IntervalCertificate:
    """Exact big-integer form of the interval test; passes on every frieze."""
    p = _resolve_period(f, p)
    prods = row_products(f, p)
    squares = tuple(x * x for x in prods)
    # a mesh product over row products: both "columns" are the products
    neighbor = tuple(_product((prods, prods), factors) for factors in _mesh_factors(f.dynkin))
    shift = 1 << p
    verdicts = tuple(neighbor[i] < sq <= shift * neighbor[i] for i, sq in enumerate(squares))
    return IntervalCertificate(f.dynkin, p, squares, neighbor, verdicts)


@lru_cache(maxsize=None)
def _refined_terms(t: DynkinType) -> tuple[tuple[float, ...], Fraction, float, Fraction]:
    """The period-free parts of a bounds report, computed once per type:
    the per-row sums ``sum_j Cinv[i,j] * log2(1 + 2**-d[j])``, the exact
    ``refined_base`` and its ``log2``, and ``sum b``."""
    profile = type_profile(t)
    det, adj = _adjugate(t)
    d = profile.d
    log_terms = [math.log2(2**dj + 1) - dj for dj in d]  # log2(1 + 2**-dj), exactly evaluated
    # adj[i][j] / det rounds the exact C^-1[i][j] once, as float(Fraction) does
    row_sums = tuple(math.fsum(x / det * lt for x, lt in zip(row, log_terms)) for row in adj)
    base = math.prod((Fraction(2**dj + 1, 2**dj) for dj in d), start=Fraction(1))
    base_log2 = math.log2(base.numerator) - math.log2(base.denominator)
    return row_sums, base, base_log2, sum(profile.b, Fraction(0))


def bounds_report(t: DynkinType, p: int) -> BoundsReport:
    """Entry caps ``2**(p*b_i)``, the count bound exponent ``p**2 * sum b``,
    and both readings of the refined (all entries >= 2) bound."""
    if type(p) is not int or p < 1:
        raise ValueError("period must be positive")
    profile = type_profile(t)
    row_sums, base, base_log2, sum_b = _refined_terms(t)
    return BoundsReport(
        dynkin=t,
        period=p,
        b=profile.b,
        entry_cap_exponents=tuple(p * bi for bi in profile.b),
        count_bound_exponent=p * p * sum_b,
        d=profile.d,
        refined_rowwise_log2=tuple(p * s for s in row_sums),
        refined_base=base,
        refined_flat_log2=p * base_log2,
    )


def check_pattern_against_bounds(f: FriezePattern, p: int | None = None) -> BoundsCheck:
    """Exact caps test over the ``p``-column unrolling: per row,
    ``prod_k F[i,k]`` and every entry are at most ``floor(2**(p*b_i))``."""
    p = _resolve_period(f, p)
    caps = entry_caps(f.dynkin, p)
    prods = row_products(f, p)
    return BoundsCheck(
        tuple(x <= cap for x, cap in zip(prods, caps)),
        tuple(max(row) <= cap for row, cap in zip(f.rows(), caps)),
    )
