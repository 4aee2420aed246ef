"""Universal character rings of GL, O and Sp in their stable bases.

Elements are written in one of three bases indexed by partitions: {lambda}
(GL, plain Schur functions), [lambda] (orthogonal) and <lambda> (symplectic).
All three live inside the same ring of symmetric functions, and each of O
and Sp is one named Littlewood series away from GL, in either direction:

    {lambda} = [lambda/D] = <lambda/B>
    [lambda] = {lambda/C}
    <lambda> = {lambda/A}

`_FROM_GL` and `_TO_GL` are the only places these series are named.  O and
Sp convert into each other through GL, [lambda] = {lambda/C} = <lambda/CB>,
and no composite series is ever built.  The antipode is (-1)^degree times
the involution omega, which conjugates shapes and swaps the orthogonal and
symplectic universal characters (Koike and Terada, J. Algebra 107, 1987):
S[lambda] = (-1)^|lambda| <lambda'>, rewritten in O as
(-1)^|lambda| [lambda'/AD], likewise with O and Sp exchanged, and
S{lambda} = (-1)^|lambda| {lambda'}.  So conversion, branching, the
antipode and the Newell-Littlewood tensor products

    [lambda].[mu] = sum_sigma [(lambda/sigma).(mu/sigma)]

all reduce to Littlewood-Richardson arithmetic.  Mixed-basis arithmetic is
rejected; convert explicitly.  Conversions and antipodes can produce negative
coefficients, branchings and tensor products cannot.

`CharElement` and `CharTensorElement` are the term tables of `schur_ring`
(`TermTable`, `PairTable`) tagged with their basis by `BasisTagged`; the tag
adds the basis check, the brackets and the JSON "basis" field.  The ring maps
below build their results with `_trusted(table, basis)` from cached per-term
tables, under the sharing and extension rules in `schur_ring`'s docstring.
Both tensor products are one Newell-Littlewood contraction, `_contract`.

The structure constants of CharO and CharSp and the change-of-basis tables
do not depend on n, just as the LR coefficients do not, so they are memoized
the way `lr`'s tables are: `_newell_littlewood(lam, mu)` holds [lam].[mu]
per ordered pair, one table that O and Sp share, and
`_conversion(source, lam, to)` holds the basis character lam of `source`
rewritten in `to`.  `convert` extends that table linearly, for the antipode
and the branchings too; the coproduct reads it for its right slot.
`tensor_product_generic` is not cached, so the verify suite's generic-engine
check compares two independent computations.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Iterable, Mapping

from . import lr
from .errors import BasisMismatchError, DegreeOverflowError, InvalidArgumentError, _expect
from .partition import (
    Partition,
    _unchecked,
    get_weight_limit,
    memo,
    subpartitions,
)
from .schur_ring import PairTable, SchurElement, TermTable, _bilinear, _from_json, _linear
from .series import SchurSeries, _skew_by_terms, delta_double_prime, series_term


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
        tag = basis if isinstance(basis, Basis) else Basis.parse(basis)
        return cls._trusted({Partition(p): 1}, tag)

    def max_degree(self) -> int:
        return max((p.weight for p in self._terms), default=0)

    def as_schur_element(self) -> SchurElement:
        """Forget the basis label and read the table as Schur coefficients.

        Only honest for GL elements; the antipode reads it before it
        conjugates.
        """
        return SchurElement._trusted(self._terms)

    def __mul__(self, other):
        if isinstance(other, CharElement):
            return char_multiply(self, other)
        return self._scaled(other)

    @classmethod
    def from_json(cls, obj: dict) -> "CharElement":
        return _from_json(
            lambda terms: cls(obj["basis"], terms), obj, lambda t: t["partition"]
        )


class CharTensorElement(BasisTagged, PairTable):
    """A two-slot tensor with both slots in the same character basis."""

    __slots__ = ()


# The one series that leads from GL into each other basis, and back.
_FROM_GL = {Basis.O: "D", Basis.SP: "B"}
_TO_GL = {Basis.O: "C", Basis.SP: "A"}


def convert(x: CharElement, to: Basis | str) -> CharElement:
    """Rewrite x in another basis of the same underlying ring, through GL;
    x itself if it is already written in that basis."""
    _expect(x, CharElement)
    to = to if isinstance(to, Basis) else Basis.parse(to)
    if to is x.basis:
        return x
    table = _linear(x._terms, lambda p: _conversion(x.basis, p, to))
    return CharElement._trusted(table, to)


@memo
def _conversion(source: Basis, lam: Partition, to: Basis) -> dict[Partition, int]:
    """The basis character lam of `source`, rewritten in `to`: {lam} skewed
    by the series out of source, then by the one into to."""
    y = SchurElement._trusted({lam: 1})
    for name in (_TO_GL.get(source), _FROM_GL.get(to)):
        if name is not None:
            y = _skew_by_terms(y, partial(series_term, name))
    return y._terms


def branch_gl_to_o(lam) -> CharElement:
    """Restriction of the GL character {lam} to the orthogonal subgroup."""
    return convert(CharElement.basis_element(Basis.GL, lam), Basis.O)


def branch_gl_to_sp(lam) -> CharElement:
    """Restriction of the GL character {lam} to the symplectic subgroup."""
    return convert(CharElement.basis_element(Basis.GL, lam), Basis.SP)


def tensor_product(lam, mu, basis: Basis | str) -> CharElement:
    """Decompose the product of two basis characters in the same basis.

    GL is the plain Littlewood-Richardson expansion.  For O and Sp the
    Newell-Littlewood rule contracts along a shared sigma, which is forced
    to fit inside both factors, so its weight never exceeds min(|lam|,|mu|).
    """
    basis = basis if isinstance(basis, Basis) else Basis.parse(basis)
    lam = Partition(lam)
    mu = Partition(mu)
    product = lr._product_terms if basis is Basis.GL else _newell_littlewood
    return CharElement._trusted(product(lam, mu), basis)


@memo
def _newell_littlewood(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """[lam].[mu] in O, which is also <lam>.<mu> in Sp: the contraction over
    every sigma inside both factors, i.e. inside their row-wise meet."""
    meet = _unchecked(tuple(map(min, lam, mu)))
    return _contract(lam, mu, [(sigma, sigma, 1) for sigma in subpartitions(meet)])


def _contract(lam: Partition, mu: Partition, terms: list) -> dict[Partition, int]:
    """sum b * (lam/sigma).(mu/tau) over the (sigma, tau, b) of terms, in the
    Schur basis; every sigma fits inside lam and every tau inside mu.

    Every pair (p, q) from one triple weighs |lam| + |mu| - |sigma| - |tau|,
    so the first triple whose pairs pass the weight limit raises lr's
    product-weight error before any skew runs."""
    total = lam.weight + mu.weight
    if total > get_weight_limit():
        for sigma, tau, _ in terms:
            lr._check_result_weight(total - sigma.weight - tau.weight)
    skew = lr._skew_terms
    # Not _linear: pairs are gathered unordered first, so each product expands once.
    pairs: dict[tuple[Partition, Partition], int] = {}
    for sigma, tau, b in terms:
        left = skew(lam, sigma).items()
        right = skew(mu, tau).items()
        for p, x in left:
            bx = b * x
            for q, y in right:
                key = (p, q) if p <= q else (q, p)
                pairs[key] = pairs.get(key, 0) + bx * y
    product = lr._product_terms
    return _linear({pq: n for pq, n in pairs.items() if n}, lambda pq: product(*pq))


def tensor_product_generic(lam, mu, t: SchurSeries) -> CharElement:
    """Tensor product via the twisted-coproduct coefficients of a series T:

        [[lam]].[[mu]] = sum_{sigma,tau} b^T_{sigma,tau} [[(lam/sigma).(mu/tau)]]

    With T = D this reproduces the orthogonal rule, with T = B the symplectic
    one, and with the unit series the GL product.  The result is labelled
    accordingly (O for D, Sp for B, GL otherwise); for any other T the table
    is in the basis {lam / T^-1} determined by T.  T's cutoff must reach
    |lam| + |mu|, the degree of the largest sigma, tau pair the sum needs.
    """
    _expect(t, SchurSeries)
    lam = Partition(lam)
    mu = Partition(mu)
    need = lam.weight + mu.weight
    if need > t.cutoff:
        raise DegreeOverflowError(
            f"tensor product of weight {need} with a series of cutoff {t.cutoff}"
        )
    lr._check_result_weight(need)
    coeffs = delta_double_prime(t, need)
    triples = [
        (sigma, tau, b)
        for (sigma, tau), b in coeffs.items()
        if lam.contains(sigma) and mu.contains(tau)
    ]
    label = next((b for b, name in _FROM_GL.items() if name == t.name), Basis.GL)
    return CharElement._trusted(_contract(lam, mu, triples), label)


def char_multiply(x: CharElement, y: CharElement) -> CharElement:
    """Bilinear extension of tensor_product to whole elements."""
    _expect(x, CharElement)
    _expect(y, CharElement)
    x._check(y)
    product = lr._product_terms if x.basis is Basis.GL else _newell_littlewood
    return CharElement._trusted(_bilinear(x._terms, y._terms, product), x.basis)


def char_coproduct(x: CharElement) -> CharTensorElement:
    """The comultiplication of the character ring, slotwise in x's basis:
    x's Schur coproduct, sum (lam/zeta) (x) {zeta}, with the right slot
    {zeta} rewritten in x's basis."""
    _expect(x, CharElement)

    def image(key):
        p, zeta = key
        return {(p, q): v for q, v in _conversion(Basis.GL, zeta, x.basis).items()}

    table = _linear(x.as_schur_element().coproduct()._terms, image)
    return CharTensorElement._trusted(table, x.basis)


def char_counit(x: CharElement) -> int:
    """The coefficient of {0} in x rewritten in GL: for O and Sp the signed
    indicator of the series that leads to GL (C, resp. A)."""
    _expect(x, CharElement)
    name = _TO_GL.get(x.basis)
    if name is None:
        return x.coefficient(())
    return sum(c * series_term(name, p.weight).coefficient(p) for p, c in x.items())


_PARTNER = {Basis.GL: Basis.GL, Basis.O: Basis.SP, Basis.SP: Basis.O}


def char_antipode(x: CharElement) -> CharElement:
    """The antipode: conjugate, sign by weight, read the result in the
    partner basis (O and Sp swap, GL stays) and rewrite it in x's basis."""
    _expect(x, CharElement)
    conj = x.as_schur_element().antipode()
    return convert(CharElement._trusted(conj._terms, _PARTNER[x.basis]), x.basis)
