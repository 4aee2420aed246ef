"""The ring of symmetric functions in the Schur basis, with its Hopf structure.

Elements are finite integer combinations of Schur functions indexed by
partitions.  Multiplication and skewing reduce to Littlewood-Richardson
expansions; the coproduct, counit and antipode make the ring a graded
self-dual Hopf algebra, which the test suite exercises as stated identities
rather than abstract structure.

Every coefficient table in the package is built on one core, `TermTable`: a
free Z-module on partitions (on pairs of them for `PairTable`), stored as
`{key: nonzero int}`, plus an optional tag that must match across a sum (the
basis of a character, the cutoff of a twisted-coproduct table).  The core owns
what does not depend on the algebra: validation, the linear operations,
ordering, JSON and rendering.  The rings supply their products and Hopf maps.

The one sharing rule of the package: no coefficient table is mutated once
built, so any table may be shared.  An element may wrap a table cached in
`lr` or `char_rings`, and `x * 1` and a sum with an empty table may hand back
an operand itself.  The public constructors validate keys and coefficients;
ring code builds its results with the trusted `_trusted(table, tag)` instead,
whose caller guarantees that every key is already canonical (a `Partition`,
or a pair of them) and that no coefficient is zero.

The one extension rule of the package: every ring map is `_linear` or
`_bilinear` over its value on basis elements, a cached per-term table (an LR
or Newell-Littlewood product, a basis conversion) or a table whose keys
never collide (one shape's coproduct, a slotwise product).  Two loops
stay written out: `skew` drops a pair whose inner shape outweighs the outer
before `lr` is asked for its table, since a conversion skews each term by
every series term up to its degree; and `char_rings._contract` gathers
unordered pairs first, so that each product expands once.

Products, skews and coproducts read the Littlewood-Richardson tables cached
in `lr` (`lr._product_terms`, `lr._skew_terms`), not through the validating
`lr.product_expansion`/`skew_expansion`.  `lr` checks the weight limit where
it computes a table, so a term pair past the limit raises the API boundary's
error from there.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import lr
from .errors import InvalidArgumentError, _expect
from .partition import (
    Partition,
    format_partition,
    subpartitions,
    term_sort_key,
)


def _is_int(c) -> bool:
    # bool is a subclass of int, but True is neither a coefficient nor a scalar
    return isinstance(c, int) and not isinstance(c, bool)


def _check_coefficient(c) -> None:
    if not _is_int(c):
        raise TypeError(f"coefficients must be int, got {c!r}")


def _merge(table: dict, key, coeff: int) -> None:
    new = table.get(key, 0) + coeff
    if new:
        table[key] = new
    else:
        table.pop(key, None)


def _add_scaled(table: dict, terms: dict, k: int) -> None:
    """table += k * terms, dropping the keys that cancel; k != 0."""
    get = table.get
    for r, c in terms.items():
        new = get(r, 0) + k * c
        if new:
            table[r] = new
        else:
            del table[r]


def _linear(terms: Mapping, image) -> dict:
    """sum c * image(k) over the terms k: c, every c nonzero, as a new table."""
    table: dict = {}
    for k, c in terms.items():
        _add_scaled(table, image(k), c)
    return table


def _bilinear(xs: Mapping, ys: Mapping, image) -> dict:
    """sum a * b * image(p, q) over the terms p: a of xs and q: b of ys."""
    table: dict = {}
    for p, a in xs.items():
        for q, b in ys.items():
            _add_scaled(table, image(p, q), a * b)
    return table


def _from_json(make, obj, key):
    """make([(key(t), t["coeff"]) for each term t]) of a JSON form; a form
    without those fields raises InvalidArgumentError."""
    try:
        return make([(key(t), t["coeff"]) for t in obj["terms"]])
    except (KeyError, TypeError) as err:
        raise InvalidArgumentError(f"malformed JSON term table: {err!r}") from None


class TermTable:
    """A finite integer combination of partitions, with an optional tag."""

    __slots__ = ("_terms", "_tag")

    _brackets = ("{", "}")

    def __init__(self, terms: Mapping | Iterable = ()):
        table: dict = {}
        key = self._key
        items = terms.items() if isinstance(terms, Mapping) else terms
        for k, c in items:
            _check_coefficient(c)
            if c:
                _merge(table, key(k), c)
        self._terms = table
        self._tag = None

    @classmethod
    def _trusted(cls, table: dict, tag=None):
        """Wrap `table` unchecked, under the rule in the module docstring."""
        e = cls.__new__(cls)
        e._terms = table
        e._tag = tag
        return e

    # The shape of a key: one partition here, a pair in PairTable.
    _key = staticmethod(Partition)

    @staticmethod
    def _order(item):
        return term_sort_key(item[0])

    @staticmethod
    def _json_term(key, c: int) -> dict:
        return {"partition": list(key), "coeff": c}

    def _body(self, key) -> str:
        ob, cb = self._brackets
        return f"{ob}{format_partition(key)}{cb}"

    def _check(self, other: "TermTable") -> None:
        """Raise unless `other` carries the same tag as self."""
        if other._tag != self._tag:
            raise InvalidArgumentError(
                f"cannot combine {type(self).__name__} tables tagged "
                f"{self._tag!r} and {other._tag!r}"
            )

    def coefficient(self, p) -> int:
        return self._terms.get(Partition(p), 0)

    def items(self):
        return self._terms.items()

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=self._order)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self._tag == other._tag and self._terms == other._terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        # Tables are never mutated, so an empty operand can hand back the
        # other one, as long as the result keeps self's type.
        if not other._terms:
            return self
        if not self._terms and sign == 1 and type(other) is type(self):
            return other
        table = dict(self._terms)
        _add_scaled(table, other._terms, sign)
        return self._trusted(table, self._tag)

    def __neg__(self):
        return self._trusted({k: -c for k, c in self._terms.items()}, self._tag)

    def _scaled(self, k):
        if not _is_int(k):
            return NotImplemented
        if k == 1:
            return self
        table = {} if k == 0 else {key: k * c for key, c in self._terms.items()}
        return self._trusted(table, self._tag)

    __mul__ = __rmul__ = _scaled

    def to_json(self) -> dict:
        return {"terms": [self._json_term(k, c) for k, c in self.sorted_terms()]}

    def __str__(self) -> str:
        chunks = []
        for key, c in self.sorted_terms():
            body = self._body(key)
            if chunks and c > 0:
                chunks.append("+")
            chunks.append(body if c == 1 else "-" + body if c == -1 else f"{c}{body}")
        return "".join(chunks) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.sorted_terms())!r})"


class PairTable(TermTable):
    """A TermTable keyed by pairs of partitions: a two-slot tensor."""

    __slots__ = ()

    @staticmethod
    def _key(k) -> tuple[Partition, Partition]:
        a, b = k
        return (Partition(a), Partition(b))

    @staticmethod
    def _order(item):
        a, b = item[0]
        return (term_sort_key(a), term_sort_key(b))

    @staticmethod
    def _json_term(key, c: int) -> dict:
        a, b = key
        return {"left": list(a), "right": list(b), "coeff": c}

    def _body(self, key) -> str:
        ob, cb = self._brackets
        return "⊗".join(f"{ob}{format_partition(p)}{cb}" for p in key)

    def coefficient(self, left, right) -> int:
        return self._terms.get((Partition(left), Partition(right)), 0)


class SchurElement(TermTable):
    """An integer linear combination of Schur functions."""

    __slots__ = ()

    @classmethod
    def basis(cls, p) -> "SchurElement":
        """The single Schur function s_p."""
        return cls._trusted({Partition(p): 1})

    @classmethod
    def zero(cls) -> "SchurElement":
        return cls._trusted({})

    @classmethod
    def one(cls) -> "SchurElement":
        return cls.basis(())

    def support(self) -> set[Partition]:
        return set(self._terms)

    def degrees(self) -> set[int]:
        return {p.weight for p in self._terms}

    def max_degree(self) -> int:
        return max((p.weight for p in self._terms), default=0)

    def homogeneous_component(self, d: int) -> "SchurElement":
        _expect(d, int)
        return SchurElement._trusted(
            {p: c for p, c in self._terms.items() if p.weight == d}
        )

    def __mul__(self, other):
        if isinstance(other, SchurElement):
            table = _bilinear(self._terms, other._terms, lr._product_terms)
            return SchurElement._trusted(table)
        return self._scaled(other)

    def skew(self, inner) -> "SchurElement":
        """Skew by an element (the adjoint of multiplication): self / inner."""
        if not isinstance(inner, SchurElement):
            inner = SchurElement.basis(inner)
        skew = lr._skew_terms
        # Not _bilinear: the weight filter prunes a pair before lr is asked.
        right = [(q, b, sum(q)) for q, b in inner._terms.items()]
        table: dict[Partition, int] = {}
        for p, a in self._terms.items():
            wp = sum(p)
            for q, b, wq in right:
                if wq <= wp:
                    _add_scaled(table, skew(p, q), a * b)
        return SchurElement._trusted(table)

    def scalar_product(self, other: "SchurElement") -> int:
        """The Hall pairing; Schur functions are orthonormal."""
        _expect(other, SchurElement)
        if len(other._terms) < len(self._terms):
            self, other = other, self
        return sum(c * other._terms.get(p, 0) for p, c in self._terms.items())

    def coproduct(self) -> "TensorElement":
        # subpartitions(nu) raises WeightLimitError past the limit, as
        # lr.skew_expansion(nu, lam) would.
        skew = lr._skew_terms

        def image(nu):
            # c^nu_{lam,mu} = c^nu_{mu,lam}: skew by the inner shapes of at
            # least half the weight, and mirror the pairs whose other slot
            # is lighter; at exactly half, both orders are skewed.
            weight = sum(nu)
            table = {}
            for lam in subpartitions(nu):
                twice = 2 * sum(lam)
                if twice >= weight:
                    for mu, c in skew(nu, lam).items():
                        table[lam, mu] = c
                        if twice > weight:
                            table[mu, lam] = c
            return table

        return TensorElement._trusted(_linear(self._terms, image))

    def counit(self) -> int:
        return self._terms.get(Partition(), 0)

    def antipode(self) -> "SchurElement":
        """S(s_p) = (-1)^|p| s_{p'}, extended linearly."""
        return SchurElement._trusted(
            {
                p.conjugate(): (c if p.weight % 2 == 0 else -c)
                for p, c in self._terms.items()
            }
        )

    @classmethod
    def from_json(cls, obj: dict) -> "SchurElement":
        return _from_json(cls, obj, lambda t: t["partition"])


class TensorElement(PairTable):
    """An integer combination of s_a (x) s_b pairs (Symm tensor Symm)."""

    __slots__ = ()

    @classmethod
    def pure(cls, left: SchurElement, right: SchurElement) -> "TensorElement":
        _expect(left, SchurElement)
        _expect(right, SchurElement)
        return cls._trusted(
            {(a, b): x * y for a, x in left.items() for b, y in right.items()}
        )

    def __mul__(self, other):
        """Slotwise product: (a (x) b)(c (x) d) = ac (x) bd."""
        if isinstance(other, TensorElement):
            product = lr._product_terms

            def image(ab, cd):
                (a, b), (c, d) = ab, cd
                right = product(b, d).items()
                return {(p, q): u * v for p, u in product(a, c).items() for q, v in right}

            return TensorElement._trusted(_bilinear(self._terms, other._terms, image))
        return self._scaled(other)

    def swap(self) -> "TensorElement":
        return TensorElement._trusted({(b, a): c for (a, b), c in self._terms.items()})

    def left_component(self, right) -> SchurElement:
        """Collect the left slots paired with a fixed right partition."""
        right = Partition(right)
        return SchurElement._trusted(
            {a: c for (a, b), c in self._terms.items() if b == right}
        )

    @classmethod
    def from_json(cls, obj: dict) -> "TensorElement":
        return _from_json(cls, obj, lambda t: (t["left"], t["right"]))
