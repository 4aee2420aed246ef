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

The public constructors validate keys and coefficients.  Ring code builds its
results with the trusted `_trusted(table, tag)` instead, and its caller
guarantees three things: every key is already canonical (a `Partition`, or a
pair of them), no coefficient is zero, and no one else holds the dict.  No
table is mutated once it is wrapped.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import lr
from .partition import Partition, format_partition, subpartitions, term_sort_key


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
        """Wrap `table` unchecked, under the contract in the module docstring."""
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
            raise ValueError(
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
        table = dict(self._terms)
        for k, c in other._terms.items():
            _merge(table, k, sign * c)
        return self._trusted(table, self._tag)

    def __neg__(self):
        return self._trusted({k: -c for k, c in self._terms.items()}, self._tag)

    def _scaled(self, k):
        if not _is_int(k):
            return NotImplemented
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
        return SchurElement._trusted(
            {p: c for p, c in self._terms.items() if p.weight == d}
        )

    def __mul__(self, other):
        if isinstance(other, SchurElement):
            table: dict[Partition, int] = {}
            for p, a in self._terms.items():
                for q, b in other._terms.items():
                    for r, c in lr.product_expansion(p, q).items():
                        _merge(table, r, a * b * c)
            return SchurElement._trusted(table)
        return self._scaled(other)

    def skew(self, inner) -> "SchurElement":
        """Skew by an element (the adjoint of multiplication): self / inner."""
        if not isinstance(inner, SchurElement):
            inner = SchurElement.basis(inner)
        table: dict[Partition, int] = {}
        for p, a in self._terms.items():
            for q, b in inner._terms.items():
                if q.weight > p.weight:
                    continue
                for r, c in lr.skew_expansion(p, q).items():
                    _merge(table, r, a * b * c)
        return SchurElement._trusted(table)

    def scalar_product(self, other: "SchurElement") -> int:
        """The Hall pairing; Schur functions are orthonormal."""
        if len(other._terms) < len(self._terms):
            self, other = other, self
        return sum(c * other._terms.get(p, 0) for p, c in self._terms.items())

    def coproduct(self) -> "TensorElement":
        table: dict[tuple[Partition, Partition], int] = {}
        for nu, a in self._terms.items():
            for lam in subpartitions(nu):
                for mu, c in lr.skew_expansion(nu, lam).items():
                    _merge(table, (lam, mu), a * c)
        return TensorElement._trusted(table)

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
        return cls((t["partition"], t["coeff"]) for t in obj["terms"])


class TensorElement(PairTable):
    """An integer combination of s_a (x) s_b pairs (Symm tensor Symm)."""

    __slots__ = ()

    @classmethod
    def pure(cls, left: SchurElement, right: SchurElement) -> "TensorElement":
        table: dict[tuple[Partition, Partition], int] = {}
        for a, x in left.items():
            for b, y in right.items():
                _merge(table, (a, b), x * y)
        return cls._trusted(table)

    def __mul__(self, other):
        """Slotwise product: (a (x) b)(c (x) d) = ac (x) bd."""
        if isinstance(other, TensorElement):
            table: dict[tuple[Partition, Partition], int] = {}
            for (a, b), x in self._terms.items():
                for (c, d), y in other._terms.items():
                    left = lr.product_expansion(a, c)
                    right = lr.product_expansion(b, d)
                    for p, u in left.items():
                        for q, v in right.items():
                            _merge(table, (p, q), x * y * u * v)
            return TensorElement._trusted(table)
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
        return cls(((t["left"], t["right"]), t["coeff"]) for t in obj["terms"])
