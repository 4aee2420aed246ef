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
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Iterable

from .errors import DegreeOverflowError, NotInvertibleError
from .partition import (
    Partition,
    distinct_partitions_of,
    get_weight_limit,
    partitions_of,
)
from .schur_ring import PairTable, SchurElement, TensorElement, _merge

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
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        self._fn = term_fn
        self.cutoff = cutoff
        self.name = name
        self._memo: dict[int, SchurElement] = {}
        self._lock = threading.Lock()

    def term(self, d: int) -> SchurElement:
        """The degree-d term; raises DegreeOverflowError past the cutoff."""
        if d < 0:
            raise ValueError("degree must be nonnegative")
        if d > self.cutoff:
            raise DegreeOverflowError(
                f"degree {d} exceeds the cutoff {self.cutoff} of series "
                f"{self.name or '<anonymous>'}"
            )
        with self._lock:
            got = self._memo.get(d)
            if got is None:
                got = self._fn(d)
                if not isinstance(got, SchurElement):
                    raise TypeError("series term function must return SchurElement")
                if any(p.weight != d for p, _ in got.items()):
                    raise ValueError(
                        f"series term of degree {d} is not homogeneous: {got}"
                    )
                self._memo[d] = got
            return got

    def terms_through(self, d: int) -> list[SchurElement]:
        return [self.term(e) for e in range(d + 1)]

    def __repr__(self) -> str:
        return f"SchurSeries(name={self.name!r}, cutoff={self.cutoff})"


@lru_cache(maxsize=None)
def series_term(name: str, d: int) -> SchurElement:
    """Degree-d term of a named Littlewood series (A, B, C or D)."""
    key = name.strip().upper()
    if key not in _NAMED:
        raise ValueError(f"unknown series {name!r}; expected one of {_NAMED}")
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
    key = name.strip().upper()
    if key not in _NAMED:
        raise ValueError(f"unknown series {name!r}; expected one of {_NAMED}")
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


def series_from_element_list(
    elements: Iterable[SchurElement], name: str | None = None
) -> SchurSeries:
    """Build a series from explicit terms; element k must be homogeneous of
    degree k.  The cutoff is the index of the last element given."""
    terms = list(elements)
    if not terms:
        raise ValueError("need at least the degree-0 element")
    for d, e in enumerate(terms):
        if any(p.weight != d for p, _ in e.items()):
            raise ValueError(f"element {d} is not homogeneous of degree {d}")
    return SchurSeries(lambda d: terms[d], len(terms) - 1, name)


def series_product(
    s: SchurSeries, t: SchurSeries, cutoff: int | None = None, name: str | None = None
) -> SchurSeries:
    """Graded convolution (S*T)(d) = sum_e S(e) T(d-e)."""
    cut = min(s.cutoff, t.cutoff) if cutoff is None else cutoff
    if cut > min(s.cutoff, t.cutoff):
        raise DegreeOverflowError("product cutoff exceeds a factor's cutoff")
    if name is None and s.name and t.name:
        name = s.name + t.name

    def fn(d: int) -> SchurElement:
        total = SchurElement.zero()
        for e in range(d + 1):
            total = total + s.term(e) * t.term(d - e)
        return total

    return SchurSeries(fn, cut, name)


def series_inverse(
    s: SchurSeries, cutoff: int | None = None, name: str | None = None
) -> SchurSeries:
    """Inverse under the graded product; needs S(0) = s_0."""
    if s.term(0) != SchurElement.one():
        raise NotInvertibleError("series has no inverse: degree-0 term is not 1")
    cut = s.cutoff if cutoff is None else cutoff
    if cut > s.cutoff:
        raise DegreeOverflowError("inverse cutoff exceeds the series cutoff")
    memo: dict[int, SchurElement] = {0: SchurElement.one()}
    lock = threading.RLock()

    def fn(d: int) -> SchurElement:
        with lock:
            if d not in memo:
                # triangular recurrence: T(d) = -sum_{e>=1} S(e) T(d-e)
                total = SchurElement.zero()
                for e in range(1, d + 1):
                    total = total + s.term(e) * fn(d - e)
                memo[d] = -total
            return memo[d]

    return SchurSeries(fn, cut, name or (f"{s.name}^-1" if s.name else None))


def skew_by_series(x: SchurElement, s: SchurSeries) -> SchurElement:
    """x / S = sum_d x / S(d); finite because skewing lowers degree."""
    need = x.max_degree()
    if need > s.cutoff:
        raise DegreeOverflowError(
            f"element of degree {need} skewed by a series with cutoff {s.cutoff}"
        )
    total = SchurElement.zero()
    for d in range(need + 1):
        term = s.term(d)
        if term.is_zero:
            continue
        total = total + x.skew(term)
    return total


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
        """Entries violating b_{sigma,tau} = delta_{sigma,tau}, as witnesses."""
        limit = self.cutoff if through is None else through
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
    """
    cut = t.cutoff if cutoff is None else cutoff
    if cut > t.cutoff:
        raise DegreeOverflowError("cutoff exceeds the series cutoff")
    inv = series_inverse(t, cut)
    # graded pieces of Delta(T) and of T^-1 (x) T^-1
    delta_piece = {g: t.term(g).coproduct() for g in range(cut + 1)}
    inv_piece: dict[int, TensorElement] = {}
    for g in range(cut + 1):
        piece = TensorElement()
        for a in range(g + 1):
            piece = piece + TensorElement.pure(inv.term(a), inv.term(g - a))
        inv_piece[g] = piece
    entries: dict = {}
    for g in range(cut + 1):
        total = TensorElement()
        for g1 in range(g + 1):
            left = inv_piece[g1]
            right = delta_piece[g - g1]
            if left.is_zero or right.is_zero:
                continue
            total = total + left * right
        for key, c in total.items():
            _merge(entries, key, c)
    return TensorSeriesCoefficients._trusted(entries, cut)
