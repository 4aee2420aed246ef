"""Universal character rings of GL, O and Sp in their stable bases.

Elements are written in one of three bases indexed by partitions: {lambda}
(GL, plain Schur functions), [lambda] (orthogonal) and <lambda> (symplectic).
All three live inside the same ring of symmetric functions; the bases are
related by skewing with the Littlewood series

    {lambda} = [lambda/D] = <lambda/B>
    [lambda] = {lambda/C} = <lambda/BC>
    <lambda> = {lambda/A} = [lambda/AD]

so conversion, branching and the Newell-Littlewood tensor products

    [lambda].[mu] = sum_sigma [(lambda/sigma).(mu/sigma)]

all reduce to Littlewood-Richardson arithmetic.  Mixed-basis arithmetic is
rejected; convert explicitly.  Conversions and antipodes can produce negative
coefficients, branchings and tensor products cannot.

`CharElement` and `CharTensorElement` are the term tables of `schur_ring`
(`TermTable`, `PairTable`) tagged with their basis by `BasisTagged`; the tag
adds the basis check, the brackets and the JSON "basis" field.  The ring maps
below build their results with the trusted `_trusted(table, basis)`, under
the contract stated in `schur_ring`: canonical keys, no zero coefficients, and
a dict that no one else holds.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Iterable, Mapping

from . import lr
from .errors import BasisMismatchError, InvalidArgumentError
from .partition import Partition, subpartitions
from .schur_ring import PairTable, SchurElement, TermTable, _merge
from .series import (
    SchurSeries,
    littlewood_series,
    series_term,
    skew_by_series,
    delta_double_prime,
)


class Basis(enum.Enum):
    GL = "GL"
    O = "O"
    SP = "Sp"

    @property
    def brackets(self) -> tuple[str, str]:
        return _BRACKETS[self]

    @classmethod
    def parse(cls, text: str) -> "Basis":
        key = str(text).strip().upper()
        for b in cls:
            if b.value.upper() == key:
                return b
        raise InvalidArgumentError(f"unknown basis {text!r}; expected GL, O or Sp")


_BRACKETS = {
    Basis.GL: ("{", "}"),
    Basis.O: ("[", "]"),
    Basis.SP: ("⟨", "⟩"),
}


class BasisTagged:
    """Tags a term table with a character basis.

    The tag brings the basis check on sums and products, the brackets of the
    rendering and the "basis" field of the JSON form; the table itself is the
    `schur_ring` core.
    """

    __slots__ = ()

    def __init__(self, basis: Basis | str, terms: Mapping | Iterable = ()):
        tag = basis if isinstance(basis, Basis) else Basis.parse(basis)
        super().__init__(terms)
        self._tag = tag

    @property
    def basis(self) -> Basis:
        return self._tag

    @property
    def _brackets(self) -> tuple[str, str]:
        return self._tag.brackets

    def _check(self, other) -> None:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        if other._tag is not self._tag:
            raise BasisMismatchError(
                f"cannot combine {self._tag.value} and {other._tag.value} "
                "elements; convert() one of them first"
            )

    def to_json(self) -> dict:
        return {"basis": self._tag.value, **super().to_json()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._tag.value}, {dict(self.sorted_terms())!r})"


class CharElement(BasisTagged, TermTable):
    """An integer combination of universal characters in a single basis."""

    __slots__ = ()

    @classmethod
    def basis_element(cls, basis: Basis | str, p) -> "CharElement":
        return cls(basis, [(p, 1)])

    def max_degree(self) -> int:
        return max((p.weight for p in self._terms), default=0)

    def as_schur_element(self) -> SchurElement:
        """Forget the basis label and read the table as Schur coefficients.

        Only honest for GL elements; internal conversions use it after
        skewing by the appropriate series.
        """
        return SchurElement._trusted(dict(self._terms))

    def __mul__(self, other):
        if isinstance(other, CharElement):
            return char_multiply(self, other)
        return self._scaled(other)

    @classmethod
    def from_json(cls, obj: dict) -> "CharElement":
        return cls(
            Basis.parse(obj["basis"]),
            ((t["partition"], t["coeff"]) for t in obj["terms"]),
        )


class CharTensorElement(BasisTagged, PairTable):
    """A two-slot tensor with both slots in the same character basis."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _composite_term(names: tuple[str, str], d: int) -> SchurElement:
    """Degree-d term of a product of two named series (AD, BC, ...)."""
    first, second = names
    total = SchurElement.zero()
    for e in range(d + 1):
        total = total + series_term(first, e) * series_term(second, d - e)
    return total


def _series_for(names: str, cutoff: int) -> SchurSeries:
    if len(names) == 1:
        return littlewood_series(names, cutoff)
    pair = (names[0], names[1])
    return SchurSeries(lambda d: _composite_term(pair, d), cutoff, names)


# Conversion recipes: to re-express basis X in basis Y, skew by this series.
_CONVERSION = {
    (Basis.GL, Basis.O): "D",
    (Basis.GL, Basis.SP): "B",
    (Basis.O, Basis.GL): "C",
    (Basis.SP, Basis.GL): "A",
    (Basis.O, Basis.SP): "BC",
    (Basis.SP, Basis.O): "AD",
}


def _skewed(x: SchurElement, series: SchurSeries, basis: Basis) -> CharElement:
    """x / series, read in `basis`; skew_by_series returns a fresh table."""
    return CharElement._trusted(skew_by_series(x, series)._terms, basis)


def convert(x: CharElement, to: Basis | str) -> CharElement:
    """Rewrite x in another basis of the same underlying ring."""
    to = to if isinstance(to, Basis) else Basis.parse(to)
    if to is x.basis:
        return CharElement._trusted(dict(x._terms), to)
    series = _series_for(_CONVERSION[(x.basis, to)], max(x.max_degree(), 0))
    return _skewed(x.as_schur_element(), series, to)


def branch_gl_to_o(lam) -> CharElement:
    """Restriction of the GL character {lam} to the orthogonal subgroup."""
    lam = Partition(lam)
    return _skewed(SchurElement.basis(lam), littlewood_series("D", lam.weight), Basis.O)


def branch_gl_to_sp(lam) -> CharElement:
    """Restriction of the GL character {lam} to the symplectic subgroup."""
    lam = Partition(lam)
    return _skewed(SchurElement.basis(lam), littlewood_series("B", lam.weight), Basis.SP)


def tensor_product(lam, mu, basis: Basis | str) -> CharElement:
    """Decompose the product of two basis characters in the same basis.

    GL is the plain Littlewood-Richardson expansion.  For O and Sp the
    Newell-Littlewood rule contracts along a shared sigma, which is forced
    to fit inside both factors, so its weight never exceeds min(|lam|,|mu|).
    """
    basis = basis if isinstance(basis, Basis) else Basis.parse(basis)
    lam = Partition(lam)
    mu = Partition(mu)
    if basis is Basis.GL:
        return CharElement._trusted(lr.product_expansion(lam, mu), Basis.GL)
    small, big = (lam, mu) if lam.weight <= mu.weight else (mu, lam)
    table: dict[Partition, int] = {}
    for sigma in subpartitions(small):
        if not big.contains(sigma):
            continue
        left = lr.skew_expansion(lam, sigma)
        right = lr.skew_expansion(mu, sigma)
        for p, a in left.items():
            for q, b in right.items():
                for r, c in lr.product_expansion(p, q).items():
                    _merge(table, r, a * b * c)
    return CharElement._trusted(table, basis)


def tensor_product_generic(lam, mu, t: SchurSeries) -> CharElement:
    """Tensor product via the twisted-coproduct coefficients of a series T:

        [[lam]].[[mu]] = sum_{sigma,tau} b^T_{sigma,tau} [[(lam/sigma).(mu/tau)]]

    With T = D this reproduces the orthogonal rule, with T = B the symplectic
    one, and with the unit series the GL product.  The result is labelled
    accordingly (O for D, Sp for B, GL otherwise); for any other T the table
    is in the basis {lam / T^-1} determined by T.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    need = lam.weight + mu.weight
    coeffs = delta_double_prime(t, min(need, t.cutoff))
    table: dict[Partition, int] = {}
    for (sigma, tau), b in coeffs.items():
        if sigma.weight > lam.weight or tau.weight > mu.weight:
            continue
        left = lr.skew_expansion(lam, sigma)
        if not left:
            continue
        right = lr.skew_expansion(mu, tau)
        for p, x in left.items():
            for q, y in right.items():
                for r, c in lr.product_expansion(p, q).items():
                    _merge(table, r, b * x * y * c)
    label = {"D": Basis.O, "B": Basis.SP}.get(t.name or "", Basis.GL)
    return CharElement._trusted(table, label)


def char_multiply(x: CharElement, y: CharElement) -> CharElement:
    """Bilinear extension of tensor_product to whole elements."""
    x._check(y)
    table: dict[Partition, int] = {}
    for p, a in x.items():
        for q, b in y.items():
            for r, c in tensor_product(p, q, x.basis).items():
                _merge(table, r, a * b * c)
    return CharElement._trusted(table, x.basis)


# Coproduct recipes per basis: Delta sends a basis character to
# sum_zeta (lam/zeta) (x) (zeta/S) with this series S on the right slot.
_COPRODUCT_SERIES = {Basis.GL: None, Basis.O: "D", Basis.SP: "B"}


def char_coproduct(x: CharElement) -> CharTensorElement:
    """The comultiplication of the character ring, slotwise in x's basis."""
    series_name = _COPRODUCT_SERIES[x.basis]
    table: dict[tuple[Partition, Partition], int] = {}
    for lam, a in x.items():
        series = (
            None
            if series_name is None
            else littlewood_series(series_name, lam.weight)
        )
        for zeta in subpartitions(lam):
            left = lr.skew_expansion(lam, zeta)
            if series is None:
                right = {zeta: 1}
            else:
                right = skew_by_series(SchurElement.basis(zeta), series)
            for p, u in left.items():
                for q, v in right.items():
                    _merge(table, (p, q), a * u * v)
    return CharTensorElement._trusted(table, x.basis)


def _counit_weights(x: CharElement, series_name: str) -> int:
    total = 0
    for p, c in x.items():
        total += c * series_term(series_name, p.weight).coefficient(p)
    return total


def char_counit(x: CharElement) -> int:
    """GL: the coefficient of {0}.  O and Sp: the signed indicator supported
    on the C (resp. A) series partitions."""
    if x.basis is Basis.GL:
        return x.coefficient(())
    return _counit_weights(x, "C" if x.basis is Basis.O else "A")


# Antipode recipes: S sends lam to (-1)^|lam| (lam' / this series).
_ANTIPODE_SERIES = {Basis.GL: None, Basis.O: "AD", Basis.SP: "CB"}


def char_antipode(x: CharElement) -> CharElement:
    """The antipode; conjugates shapes, signs by weight, and (for O and Sp)
    corrects by the composite series AD and CB."""
    series_name = _ANTIPODE_SERIES[x.basis]
    table: dict[Partition, int] = {}
    for p, c in x.items():
        sign = -1 if p.weight % 2 else 1
        conj = p.conjugate()
        if series_name is None:
            _merge(table, conj, sign * c)
            continue
        series = _series_for(series_name, conj.weight)
        for q, u in skew_by_series(SchurElement.basis(conj), series).items():
            _merge(table, q, sign * c * u)
    return CharElement._trusted(table, x.basis)
