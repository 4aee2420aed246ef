"""Graded series of Schur functions and the classical Littlewood series.

A SchurSeries is a formal sum T = T(0) + T(1) + ... with homogeneous degree-d
terms, evaluated lazily and memoized up to an explicit cutoff.  The four named
series are the Schur expansions of

    A = prod_{i<j} (1 - x_i x_j)          B = 1/A
    C = prod_{i<=j} (1 - x_i x_j)         D = 1/C

D is supported on partitions with every part even (coefficient +1), B on
their conjugates; C carries sign (-1)^(d/2) on the hooks with Frobenius
coordinates (a+1 | a), and A on their conjugates (a | a+1).  All four vanish
in odd degrees.  The closed forms for A and C are cross-checked in the test
suite against a truncated expansion of the defining products.

A series' checked terms and Delta'' tables are `partition.memo` tables keyed
by the series, so they live until the registry evicts or clears them.  The
degree-g piece of Delta''(T) does not depend on the cutoff, so it is a memo
of its own, keyed by (T, g), and the table at a cutoff joins the pieces up
to it; every piece reads T^-1 from one inverse per series, itself a memo.
Every graded product here (a series product, the inverse's recurrence, both
factors of Delta'') is one `_convolve`.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul
from typing import Callable

from .errors import DegreeOverflowError, InvalidArgumentError, NotInvertibleError, _expect
from .partition import (
    Partition,
    distinct_partitions_of,
    get_weight_limit,
    memo,
    partitions_of,
)
from .schur_ring import PairTable, SchurElement, TensorElement

DEFAULT_CUTOFF = 8

_NAMED = ("A", "B", "C", "D")


class SchurSeries:
    """A lazily evaluated graded series with homogeneous integer terms."""

    def __init__(
        self,
        term_fn: Callable[[int], SchurElement],
        cutoff: int = DEFAULT_CUTOFF,
        name: str | None = None,
    ):
        if not callable(term_fn):
            raise InvalidArgumentError("a series needs a term function")
        _expect(cutoff, int)
        if cutoff < 0:
            raise InvalidArgumentError("cutoff must be nonnegative")
        self._fn = term_fn
        self.cutoff = cutoff
        self.name = name

    def term(self, d: int) -> SchurElement:
        """The degree-d term; raises DegreeOverflowError past the cutoff.
        set_weight_limit empties the memo of terms, so past a lowered limit a
        term is recomputed and raises as in a fresh series."""
        _expect(d, int)
        if d < 0:
            raise InvalidArgumentError("degree must be nonnegative")
        if d > self.cutoff:
            raise DegreeOverflowError(
                f"degree {d} exceeds the cutoff {self.cutoff} of series "
                f"{self.name or '<anonymous>'}"
            )
        return _term(self, d)

    def __repr__(self) -> str:
        return f"SchurSeries(name={self.name!r}, cutoff={self.cutoff})"


@memo
def _term(s: SchurSeries, d: int) -> SchurElement:
    """The degree-d term of s, checked: a SchurElement homogeneous of degree d."""
    got = s._fn(d)
    if not isinstance(got, SchurElement):
        raise InvalidArgumentError("series term must be a SchurElement")
    if any(p.weight != d for p, _ in got.items()):
        raise InvalidArgumentError(f"series term of degree {d} is not homogeneous: {got}")
    return got


def _convolve(d: int, left, right, times=mul, first: int = 0):
    """sum of times(left(e), right(d - e)) over e = first..d, for first <= d:
    the degree-d term of a graded product.  right is read in rising degree,
    so a recurrence through it (series_inverse) nests only one call deep; the
    pieces are still added with e rising, which fixes the result's key order."""
    pieces = [times(left(e), right(d - e)) for e in range(d, first - 1, -1)]
    return reduce(add, reversed(pieces))


def _series_key(name) -> str:
    key = name.strip().upper() if isinstance(name, str) else None
    if key not in _NAMED:
        raise InvalidArgumentError(f"unknown series {name!r}; expected one of {_NAMED}")
    return key


@memo
def series_term(name: str, d: int) -> SchurElement:
    """Degree-d term of a named Littlewood series (A, B, C or D)."""
    key = _series_key(name)
    if d == 0:
        return SchurElement.one()
    if d % 2:
        return SchurElement.zero()
    if key == "D":
        return SchurElement(
            {Partition(tuple(2 * x for x in mu)): 1 for mu in partitions_of(d // 2)}
        )
    if key == "B":
        return SchurElement(
            {
                Partition(tuple(2 * x for x in mu)).conjugate(): 1
                for mu in partitions_of(d // 2)
            }
        )
    sign = -1 if (d // 2) % 2 else 1
    table = {}
    for bs in distinct_partitions_of(d // 2):
        arms = tuple(b - 1 for b in bs)
        legs = bs
        if key == "C":
            arms, legs = legs, arms
        table[Partition.from_frobenius(arms, legs)] = sign
    return SchurElement(table)


def littlewood_series(name: str, cutoff: int = DEFAULT_CUTOFF) -> SchurSeries:
    key = _series_key(name)
    _expect(cutoff, int)
    if cutoff > get_weight_limit():
        raise DegreeOverflowError(
            f"cutoff {cutoff} exceeds the partition weight limit {get_weight_limit()}"
        )
    return SchurSeries(lambda d: series_term(key, d), cutoff, key)


def unit_series(cutoff: int = DEFAULT_CUTOFF) -> SchurSeries:
    return SchurSeries(
        lambda d: SchurElement.one() if d == 0 else SchurElement.zero(),
        cutoff,
        "unit",
    )


def series_product(
    s: SchurSeries, t: SchurSeries, cutoff: int | None = None, name: str | None = None
) -> SchurSeries:
    """Graded convolution (S*T)(d) = sum_e S(e) T(d-e)."""
    _expect(s, SchurSeries)
    _expect(t, SchurSeries)
    cut = min(s.cutoff, t.cutoff) if cutoff is None else cutoff
    _expect(cut, int)
    if cut > min(s.cutoff, t.cutoff):
        raise DegreeOverflowError("product cutoff exceeds a factor's cutoff")
    if name is None and s.name and t.name:
        name = s.name + t.name

    return SchurSeries(lambda d: _convolve(d, s.term, t.term), cut, name)


def series_inverse(
    s: SchurSeries, cutoff: int | None = None, name: str | None = None
) -> SchurSeries:
    """Inverse under the graded product; needs S(0) = s_0."""
    _expect(s, SchurSeries)
    if s.term(0) != SchurElement.one():
        raise NotInvertibleError("series has no inverse: degree-0 term is not 1")
    cut = s.cutoff if cutoff is None else cutoff
    _expect(cut, int)
    if cut > s.cutoff:
        raise DegreeOverflowError("inverse cutoff exceeds the series cutoff")

    def fn(d: int) -> SchurElement:
        if d == 0:
            return SchurElement.one()
        # triangular recurrence: T(d) = -sum_{e>=1} S(e) T(d-e)
        return -_convolve(d, s.term, inv.term, first=1)

    inv = SchurSeries(fn, cut, name or (f"{s.name}^-1" if s.name else None))
    return inv


def skew_by_series(x: SchurElement, s: SchurSeries) -> SchurElement:
    """x / S = sum_d x / S(d); finite because skewing lowers degree."""
    _expect(x, SchurElement)
    _expect(s, SchurSeries)
    need = x.max_degree()
    if need > s.cutoff:
        raise DegreeOverflowError(
            f"element of degree {need} skewed by a series with cutoff {s.cutoff}"
        )
    return _skew_by_terms(x, s.term)


def _skew_by_terms(x: SchurElement, term: Callable[[int], SchurElement]) -> SchurElement:
    """x skewed once by term(0) + ... + term(deg x); the terms have distinct
    degrees, so their tables join without clashing keys."""
    series: dict[Partition, int] = {}
    for d in range(x.max_degree() + 1):
        series.update(term(d)._terms)
    return x.skew(SchurElement._trusted(series))


class TensorSeriesCoefficients(PairTable):
    """Coefficient table b_{sigma,tau} of a twisted coproduct, graded by
    total degree and truncated at a cutoff (the table's tag)."""

    __slots__ = ()

    def __init__(self, entries: dict, cutoff: int):
        super().__init__(entries)
        self._tag = cutoff

    @property
    def cutoff(self) -> int:
        return self._tag

    def diagonal_defects(self, through: int | None = None) -> list:
        """Entries violating b_{sigma,tau} = delta_{sigma,tau}, as witnesses,
        through total degree `through` (the cutoff by default)."""
        limit = self.cutoff if through is None else through
        _expect(limit, int)
        if limit > self.cutoff:
            raise DegreeOverflowError(
                f"defects through degree {limit} asked of a table with cutoff {self.cutoff}"
            )
        bad = []
        for (s, t), c in self._terms.items():
            if s.weight + t.weight > limit:
                continue
            if (s == t and c != 1) or (s != t and c != 0):
                bad.append(((s, t), c))
        for w in range(limit // 2 + 1):
            for p in partitions_of(w):
                if (p, p) not in self._terms:
                    bad.append(((p, p), 0))
        return bad

    def __repr__(self) -> str:
        return (
            f"TensorSeriesCoefficients({len(self._terms)} terms, "
            f"cutoff={self.cutoff})"
        )

    __str__ = __repr__


def delta_double_prime(t: SchurSeries, cutoff: int | None = None) -> TensorSeriesCoefficients:
    """Coefficients of Delta''(T) = (T^-1 (x) T^-1) * Delta(T).

    Delta here is the Hopf coproduct applied termwise; the product is the
    componentwise (slotwise) one.  For T = D or B the table is the identity
    delta_{sigma,tau}, which is what makes the generic tensor-product engine
    collapse to the orthogonal and symplectic rules.

    The table is a memo per series and cutoff, joined from the memo of
    each degree's piece; set_weight_limit empties both.
    """
    _expect(t, SchurSeries)
    cut = t.cutoff if cutoff is None else cutoff
    _expect(cut, int)
    if cut < 0:
        raise InvalidArgumentError("cutoff must be nonnegative")
    if cut > t.cutoff:
        raise DegreeOverflowError("cutoff exceeds the series cutoff")
    return _delta_double_prime(t, cut)


@memo
def _delta_double_prime(t: SchurSeries, cut: int) -> TensorSeriesCoefficients:
    entries: dict = {}
    for g in range(cut + 1):
        # the keys of degree g have |sigma| + |tau| = g, so degrees never clash
        entries.update(_delta_piece(t, g))
    return TensorSeriesCoefficients._trusted(entries, cut)


@memo
def _delta_piece(t: SchurSeries, g: int) -> dict:
    """The degree-g piece of Delta''(T), the same table at every cutoff that
    reaches g."""
    inv = _inverse(t)

    def inv_square(e: int) -> TensorElement:
        # the degree-e piece of T^-1 (x) T^-1
        return _convolve(e, inv.term, inv.term, TensorElement.pure)

    return _convolve(g, inv_square, lambda e: t.term(e).coproduct())._terms


@memo
def _inverse(t: SchurSeries) -> SchurSeries:
    """T^-1 at T's cutoff, so that every piece of Delta''(T) reads its terms
    from one series."""
    return series_inverse(t)
