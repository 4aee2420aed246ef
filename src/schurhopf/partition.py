"""Integer partitions: the indexing combinatorics for everything else.

A partition is stored canonically as a tuple of weakly decreasing positive
integers; the empty tuple is the zero partition.  Partition weight is capped
by a configurable limit (default 64) so malformed input fails fast instead of
exhausting memory.

Shapes are validated once, where they enter the package: parse_partition,
the Partition constructor on anything that is not yet a Partition, and the
element constructors and from_json readers built on it.  Past that point a
Partition is trusted: Partition(p) returns p itself when p is already a
Partition within the current weight limit, and code that derives new shapes
from trusted ones (conjugation, enumeration, the LR kernel) wraps them with
_unchecked, which skips every check.  Its contract is that the caller
guarantees a weakly decreasing tuple of positive ints whose weight is within
the limit.

Every module-level memo in the package is made by `memo`, here next to the
limit it depends on: a functools.lru_cache of one bounded size, entered in
one registry.  `clear_caches` empties every registered memo, and
set_weight_limit calls it, so no table computed under another limit is
served.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .errors import InvalidArgumentError, PartitionError, WeightLimitError, _expect

DEFAULT_WEIGHT_LIMIT = 64

_weight_limit = DEFAULT_WEIGHT_LIMIT
_memos: tuple = ()


def memo(fn):
    """fn memoized in a bounded LRU cache that clear_caches empties."""
    global _memos
    cached = lru_cache(maxsize=1 << 17)(fn)
    _memos += (cached,)
    return cached


def clear_caches() -> None:
    """Empty every memo in the package, as in a fresh process."""
    for cached in _memos:
        cached.cache_clear()


def get_weight_limit() -> int:
    return _weight_limit


def set_weight_limit(limit: int) -> None:
    """Raise or lower the guard on partition weight (None of the math needs
    more than the default; this exists for callers who know what they want)."""
    global _weight_limit
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
        raise InvalidArgumentError(
            f"weight limit must be a nonnegative int, got {limit!r}"
        )
    _weight_limit = limit
    clear_caches()


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Subclassing tuple keeps hashing and comparison cheap, which matters
    because partitions key every coefficient table in the package.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        # a trusted shape passes through; only the weight limit may have moved
        if type(parts) is cls and sum(parts) <= _weight_limit:
            return parts
        t = _int_parts(parts)
        # strip trailing zeros so (2, 1, 0, 0) and (2, 1) coincide
        while t and t[-1] == 0:
            t = t[:-1]
        for i, p in enumerate(t):
            if p <= 0:
                raise PartitionError(f"parts must be positive, got {p}")
            if i and t[i - 1] < p:
                raise PartitionError(f"parts must be weakly decreasing, got {t}")
        if sum(t) > _weight_limit:
            raise WeightLimitError(
                f"partition weight {sum(t)} exceeds the limit {_weight_limit}"
            )
        return tuple.__new__(cls, t)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (column lengths)."""
        if not self:
            return self
        cols = [0] * self[0]
        for part in self:
            for j in range(part):
                cols[j] += 1
        return _unchecked(cols)

    def contains(self, other: Iterable[int]) -> bool:
        """Diagram containment: other fits inside self row by row."""
        if not isinstance(other, Partition):
            other = Partition(other)
        if len(other) > len(self):
            return False
        return all(o <= s for o, s in zip(other, self))

    def frobenius(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Frobenius coordinates (arms, legs) of the diagonal cells."""
        conj = self.conjugate()
        arms = []
        legs = []
        for i, part in enumerate(self):
            if part <= i:
                break
            arms.append(part - i - 1)
            legs.append(conj[i] - i - 1)
        return tuple(arms), tuple(legs)

    @classmethod
    def from_frobenius(cls, arms: Iterable[int], legs: Iterable[int]) -> "Partition":
        arms = _int_parts(arms)
        legs = _int_parts(legs)
        if len(arms) != len(legs):
            raise PartitionError("arm and leg lists must have equal length")
        rank = len(arms)
        if any(arms[i] <= arms[i + 1] for i in range(rank - 1)):
            raise PartitionError("arms must be strictly decreasing")
        if any(legs[i] <= legs[i + 1] for i in range(rank - 1)):
            raise PartitionError("legs must be strictly decreasing")
        if any(a < 0 for a in arms) or any(l < 0 for l in legs):
            raise PartitionError("Frobenius coordinates must be nonnegative")
        rows = [arms[i] + i + 1 for i in range(rank)]
        heights = [legs[j] + j + 1 for j in range(rank)]
        depth = heights[0] if rank else 0
        for i in range(rank, depth):
            rows.append(sum(1 for h in heights if h > i))
        return cls(rows)

    def __repr__(self) -> str:
        return f"Partition{tuple(self)!r}"

    def __str__(self) -> str:
        return format_partition(self)


def _int_parts(parts) -> tuple:
    """parts as a tuple of ints; PartitionError for anything else."""
    try:
        t = tuple(parts)
    except TypeError:
        raise PartitionError(
            f"expected a sequence of parts, got {type(parts).__name__}"
        ) from None
    for p in t:
        if not isinstance(p, int) or isinstance(p, bool):
            raise PartitionError(f"parts must be integers, got {p!r}")
    return t


def _unchecked(parts: Iterable[int]) -> Partition:
    """Wrap parts as a Partition without validating them.

    The caller guarantees a weakly decreasing sequence of positive ints whose
    weight is within the current limit.
    """
    return tuple.__new__(Partition, parts)


ZERO = Partition()


def parse_partition(text: str) -> Partition:
    """Parse the shared partition grammar.

    Two forms: a comma list ("4,2,1") and the compact exponent form used in
    classical notation ("2^2 1^2", "21", "1^4").  In the compact form each
    part is a single digit, optionally followed by ^multiplicity; multi-digit
    parts need the comma form.  "0" and "" denote the zero partition.  Parts
    and exponents are ASCII digits.
    """
    if not isinstance(text, str):
        raise PartitionError(f"expected partition text, got {type(text).__name__}")
    t = text.strip()
    if t in ("", "0"):
        return ZERO
    if "," in t:
        tokens = t.split(",")
        if tokens[-1].strip() == "":
            tokens.pop()  # single trailing comma marks multi-digit parts
        parts = []
        for tok in tokens:
            tok = tok.strip()
            if not _is_ascii_number(tok):
                raise PartitionError(f"bad part {tok!r} in {text!r}")
            parts.append(_read_part(tok))
        if parts and parts[-1] == 0:
            raise PartitionError(f"zero part in {text!r}")
        return Partition(parts)
    try:
        return _parse_compact(t, text)
    except PartitionError:
        if _is_ascii_number(t):
            return Partition((_read_part(t),))
        raise


def _is_ascii_number(tok: str) -> bool:
    # str.isdigit() alone also accepts "²", which int() rejects
    return tok.isascii() and tok.isdigit()


def _read_part(tok: str) -> int:
    digits = tok.lstrip("0") or "0"
    try:
        return int(digits)
    except ValueError:  # more digits than int() will convert
        raise WeightLimitError(
            f"partition weight with {len(digits)} digits exceeds the limit "
            f"{_weight_limit}"
        ) from None


def _parse_compact(t: str, text: str) -> Partition:
    # the weight is checked as runs are read, so "1^5000000" is rejected
    # before any list of that length exists
    parts = []
    weight = 0
    i = 0
    n = len(t)
    while i < n:
        ch = t[i]
        if ch == " ":
            i += 1
            continue
        if not "1" <= ch <= "9":
            raise PartitionError(f"unexpected {ch!r} in partition {text!r}")
        part = int(ch)
        i += 1
        mult = 1
        if i < n and t[i] == "^":
            i += 1
            j = i
            while j < n and "0" <= t[j] <= "9":
                j += 1
            if j == i:
                raise PartitionError(f"missing exponent after ^ in {text!r}")
            digits = t[i:j].lstrip("0")
            if not digits:
                raise PartitionError(f"exponent must be positive in {text!r}")
            # more digits than the limit has means over it; int() never sees
            # a huge digit string
            too_long = len(digits) > len(str(_weight_limit))
            mult = _weight_limit + 1 if too_long else int(digits)
            i = j
        weight += part * mult
        if weight > _weight_limit:
            raise WeightLimitError(
                f"partition weight exceeds the limit {_weight_limit} in {text!r}"
            )
        parts.extend([part] * mult)
    return Partition(parts)


def format_partition(p: Iterable[int]) -> str:
    """Render a partition in the compact exponent form, e.g. (2,2,1) -> "2^21".

    The inverse of parse_partition on its output.  A space separates two runs
    only when the first ends in an exponent, so "2^2 1^2" stays unambiguous
    while (2,1,1) prints as "21^2".  Parts above 9 fall back to the comma form.
    Parts that are not positive and weakly decreasing raise PartitionError.
    """
    p = _int_parts(p)
    if not p:
        return "0"
    if p[-1] <= 0 or any(a < b for a, b in zip(p, p[1:])):
        raise PartitionError(f"not a partition: {p}")
    if p[0] > 9:
        if len(p) == 1:
            return f"{p[0]},"  # trailing comma keeps "11" from reading as 1^2
        return ",".join(str(x) for x in p)
    runs = []
    i = 0
    while i < len(p):
        j = i
        while j < len(p) and p[j] == p[i]:
            j += 1
        runs.append((p[i], j - i))
        i = j
    out = []
    for k, (part, mult) in enumerate(runs):
        if k and "^" in out[-1]:
            out.append(" ")
        out.append(str(part) if mult == 1 else f"{part}^{mult}")
    return "".join(out)


def term_sort_key(p: Iterable[int]):
    """Canonical display order: weight descending, then reverse-lexicographic."""
    t = tuple(p)
    return (-sum(t), tuple(-x for x in t))


def partitions_of(d: int, max_part: int | None = None) -> list[Partition]:
    """All partitions of d in reverse-lexicographic order, largest part first.

    partitions_of(4) gives (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    """
    _expect(d, int)
    if max_part is not None:
        _expect(max_part, int)
    if d < 0:
        return []
    if d > _weight_limit:
        raise WeightLimitError(
            f"partition weight {d} exceeds the limit {_weight_limit}"
        )
    if max_part is None:
        max_part = d
    return [_unchecked(raw) for raw in _descending_parts(d, max_part, 0)]


def _descending_parts(d, max_part, gap):
    """Partitions of d with parts at most max_part, each part at least gap
    above the next: gap 0 gives all of them, gap 1 distinct parts."""
    if d == 0:
        yield ()
        return
    for first in range(min(d, max_part), 0, -1):
        for rest in _descending_parts(d - first, first - gap, gap):
            yield (first,) + rest


def partitions_up_to(d: int) -> list[Partition]:
    """All partitions of weight 0, 1, ..., d, weight-major order."""
    _expect(d, int)
    out: list[Partition] = []
    for w in range(d + 1):
        out.extend(partitions_of(w))
    return out


def subpartitions(p: Iterable[int]) -> Iterator[Partition]:
    """All partitions whose diagram fits inside p (any weight, p included).

    They come in reverse-lexicographic order of their zero-padded rows: p
    first, the empty partition last.
    """
    p = Partition(p)
    rows = list(p)
    while True:
        yield _unchecked(rows)
        if not rows:
            return
        # the next shape down: lower the last row by one, then refill the
        # rows below it as high as p and the lowered row allow
        v = rows.pop() - 1
        if v:
            rows.append(v)
            rows.extend(min(x, v) for x in p[len(rows):])


def distinct_partitions_of(d: int) -> Iterator[tuple[int, ...]]:
    """Partitions of d into strictly decreasing parts (plain tuples)."""
    return _descending_parts(d, d, 1)
