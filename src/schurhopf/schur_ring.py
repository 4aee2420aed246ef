"""The ring of symmetric functions in the Schur basis, with its Hopf structure.

Elements are finite integer combinations of Schur functions indexed by
partitions.  Multiplication and skewing reduce to Littlewood-Richardson
expansions; the coproduct, counit and antipode make the ring a graded
self-dual Hopf algebra, which the test suite exercises as stated identities
rather than abstract structure.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import lr
from .partition import Partition, format_partition, subpartitions, term_sort_key


def _is_pair_key(key) -> bool:
    return bool(key) and not isinstance(key, Partition) and isinstance(key[0], Partition)


def _format_combination(items, open_b: str, close_b: str) -> str:
    items = sorted(
        items,
        key=lambda kv: tuple(term_sort_key(p) for p in kv[0])
        if _is_pair_key(kv[0])
        else (term_sort_key(kv[0]),),
    )
    if not items:
        return "0"
    chunks = []
    for key, coeff in items:
        if _is_pair_key(key):
            body = "⊗".join(
                f"{open_b}{format_partition(p)}{close_b}" for p in key
            )
        else:
            body = f"{open_b}{format_partition(key)}{close_b}"
        if coeff == 1:
            term = body
        elif coeff == -1:
            term = "-" + body
        else:
            term = f"{coeff}{body}"
        if chunks and not term.startswith("-"):
            chunks.append("+")
        chunks.append(term)
    return "".join(chunks)


def _check_coefficient(c) -> None:
    # bool is a subclass of int, but True is not a coefficient
    if not isinstance(c, int) or isinstance(c, bool):
        raise TypeError(f"coefficients must be int, got {c!r}")


def _merge(table: dict, key, coeff: int) -> None:
    new = table.get(key, 0) + coeff
    if new:
        table[key] = new
    else:
        table.pop(key, None)


class SchurElement:
    """An integer linear combination of Schur functions."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        table: dict[Partition, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for p, c in items:
            _check_coefficient(c)
            if c:
                _merge(table, Partition(p), c)
        self._terms = table

    @classmethod
    def basis(cls, p) -> "SchurElement":
        """The single Schur function s_p."""
        e = cls.__new__(cls)
        e._terms = {Partition(p): 1}
        return e

    @classmethod
    def zero(cls) -> "SchurElement":
        return cls()

    @classmethod
    def one(cls) -> "SchurElement":
        return cls.basis(())

    def coefficient(self, p) -> int:
        return self._terms.get(Partition(p), 0)

    def items(self):
        return self._terms.items()

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        return sorted(self._terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def support(self) -> set[Partition]:
        return set(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def degrees(self) -> set[int]:
        return {p.weight for p in self._terms}

    def max_degree(self) -> int:
        return max((p.weight for p in self._terms), default=0)

    def homogeneous_component(self, d: int) -> "SchurElement":
        e = SchurElement.__new__(SchurElement)
        e._terms = {p: c for p, c in self._terms.items() if p.weight == d}
        return e

    def __eq__(self, other) -> bool:
        if isinstance(other, SchurElement):
            return self._terms == other._terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other) -> "SchurElement":
        if not isinstance(other, SchurElement):
            return NotImplemented
        table = dict(self._terms)
        for p, c in other._terms.items():
            _merge(table, p, c)
        e = SchurElement.__new__(SchurElement)
        e._terms = table
        return e

    def __sub__(self, other) -> "SchurElement":
        if not isinstance(other, SchurElement):
            return NotImplemented
        table = dict(self._terms)
        for p, c in other._terms.items():
            _merge(table, p, -c)
        e = SchurElement.__new__(SchurElement)
        e._terms = table
        return e

    def __neg__(self) -> "SchurElement":
        e = SchurElement.__new__(SchurElement)
        e._terms = {p: -c for p, c in self._terms.items()}
        return e

    def __mul__(self, other):
        if isinstance(other, SchurElement):
            table: dict[Partition, int] = {}
            for p, a in self._terms.items():
                for q, b in other._terms.items():
                    for r, c in lr.product_expansion(p, q).items():
                        _merge(table, r, a * b * c)
            e = SchurElement.__new__(SchurElement)
            e._terms = table
            return e
        if isinstance(other, int):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        return NotImplemented

    def _scaled(self, k: int) -> "SchurElement":
        e = SchurElement.__new__(SchurElement)
        e._terms = {} if k == 0 else {p: k * c for p, c in self._terms.items()}
        return e

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
        e = SchurElement.__new__(SchurElement)
        e._terms = table
        return e

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
        t = TensorElement.__new__(TensorElement)
        t._terms = table
        return t

    def counit(self) -> int:
        return self._terms.get(Partition(), 0)

    def antipode(self) -> "SchurElement":
        """S(s_p) = (-1)^|p| s_{p'}, extended linearly."""
        e = SchurElement.__new__(SchurElement)
        e._terms = {
            p.conjugate(): (c if p.weight % 2 == 0 else -c)
            for p, c in self._terms.items()
        }
        return e

    def to_json(self) -> dict:
        return {
            "terms": [
                {"partition": list(p), "coeff": c} for p, c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SchurElement":
        return cls((t["partition"], t["coeff"]) for t in obj["terms"])

    def __str__(self) -> str:
        return _format_combination(self._terms.items(), "{", "}")

    def __repr__(self) -> str:
        return f"SchurElement({dict(self.sorted_terms())!r})"

    def __bool__(self) -> bool:
        return bool(self._terms)


class TensorElement:
    """An integer combination of s_a (x) s_b pairs (Symm tensor Symm)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        table: dict[tuple[Partition, Partition], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (a, b), c in items:
            _check_coefficient(c)
            if c:
                _merge(table, (Partition(a), Partition(b)), c)
        self._terms = table

    @classmethod
    def pure(cls, left: SchurElement, right: SchurElement) -> "TensorElement":
        t = cls.__new__(cls)
        t._terms = {}
        for a, x in left.items():
            for b, y in right.items():
                _merge(t._terms, (a, b), x * y)
        return t

    def coefficient(self, left, right) -> int:
        return self._terms.get((Partition(left), Partition(right)), 0)

    def items(self):
        return self._terms.items()

    def sorted_terms(self):
        return sorted(
            self._terms.items(),
            key=lambda kv: (term_sort_key(kv[0][0]), term_sort_key(kv[0][1])),
        )

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, TensorElement):
            return self._terms == other._terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other) -> "TensorElement":
        if not isinstance(other, TensorElement):
            return NotImplemented
        table = dict(self._terms)
        for k, c in other._terms.items():
            _merge(table, k, c)
        t = TensorElement.__new__(TensorElement)
        t._terms = table
        return t

    def __sub__(self, other) -> "TensorElement":
        if not isinstance(other, TensorElement):
            return NotImplemented
        table = dict(self._terms)
        for k, c in other._terms.items():
            _merge(table, k, -c)
        t = TensorElement.__new__(TensorElement)
        t._terms = table
        return t

    def __neg__(self) -> "TensorElement":
        t = TensorElement.__new__(TensorElement)
        t._terms = {k: -c for k, c in self._terms.items()}
        return t

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
            t = TensorElement.__new__(TensorElement)
            t._terms = table
            return t
        if isinstance(other, int):
            t = TensorElement.__new__(TensorElement)
            t._terms = (
                {} if other == 0 else {k: other * c for k, c in self._terms.items()}
            )
            return t
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def swap(self) -> "TensorElement":
        t = TensorElement.__new__(TensorElement)
        t._terms = {(b, a): c for (a, b), c in self._terms.items()}
        return t

    def left_component(self, right) -> SchurElement:
        """Collect the left slots paired with a fixed right partition."""
        right = Partition(right)
        e = SchurElement.__new__(SchurElement)
        e._terms = {a: c for (a, b), c in self._terms.items() if b == right}
        return e

    def to_json(self) -> dict:
        return {
            "terms": [
                {"left": list(a), "right": list(b), "coeff": c}
                for (a, b), c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TensorElement":
        return cls(((t["left"], t["right"]), t["coeff"]) for t in obj["terms"])

    def __str__(self) -> str:
        return _format_combination(self._terms.items(), "{", "}")

    def __repr__(self) -> str:
        return f"TensorElement({dict(self.sorted_terms())!r})"

    def __bool__(self) -> bool:
        return bool(self._terms)
