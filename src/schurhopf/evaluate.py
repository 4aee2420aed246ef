"""Exact evaluation of Schur polynomials and universal characters.

Values are big rationals (fractions.Fraction) or Gaussian rationals; floats
are rejected everywhere, since every identity this package checks is exact.
The tableau-sum and bialternant evaluators and the character determinants
are written against different definitions on purpose: agreement between
them is evidence, not tautology.  A character is one determinant in the h_k
(Jacobi-Trudi for GL, Koike-Terada for O and Sp), whose cost does not grow
with the number of tableaux and which allows repeated eigenvalues.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ._oracle import _pair_step, horizontal_extensions, poly_one, schur_polynomial
from .char_rings import Basis
from .errors import (
    InvalidArgumentError,
    SingularDenominatorError,
    StableRangeError,
    UnsupportedGroupError,
    ValueParseError,
    _expect,
)
from .partition import Partition, partitions_up_to
from .schur_ring import _merge


class GaussianRational:
    """Exact complex number re + im*i with Fraction components.

    Supports mixed arithmetic with int and Fraction.  Needed when the -1
    eigenvalues of the odd orthogonal components meet complex test points;
    purely real results compare (and hash) equal to plain Fractions.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _to_fraction(re)
        self.im = _to_fraction(im)

    @staticmethod
    def _lift(v):
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            return GaussianRational(v)
        return None

    def _lifted(op):
        """op(self, o) with the other operand lifted; NotImplemented if _lift refuses it."""

        def method(self, other):
            o = self._lift(other)
            return NotImplemented if o is None else op(self, o)

        return method

    @_lifted
    def __add__(self, o):
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    @_lifted
    def __sub__(self, o):
        return GaussianRational(self.re - o.re, self.im - o.im)

    __rsub__ = _lifted(lambda self, o: o - self)

    @_lifted
    def __mul__(self, o):
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, o):
        norm = o.re * o.re + o.im * o.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    __rtruediv__ = _lifted(lambda self, o: o / self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    __eq__ = _lifted(lambda self, o: self.re == o.re and self.im == o.im)

    def __hash__(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = f"{self.im}i"
        if not self.re:
            return im
        return f"{self.re}+{im}" if self.im > 0 else f"{self.re}-{-self.im}i"


# Fraction() reads any Unicode decimal digit and expands an exponent in full
# ("1e50000000" is a 50-million-digit integer), so value text must be ASCII
# and is refused past these caps before Fraction() sees it.
_MAX_VALUE_DIGITS = 4000
_MAX_VALUE_EXPONENT = 10_000
_EXPONENT_RE = re.compile(r"[eE]([-+]?[0-9]+(?:_[0-9]+)*)")


def _to_fraction(v) -> Fraction:
    if isinstance(v, (bool, float, complex)):
        raise TypeError(f"exact value required, got {type(v).__name__}")
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, str):
        if not v.isascii():
            raise ValueParseError(f"cannot read {v!r} as an exact rational")
        digits = sum(map(str.isdigit, v))
        if digits > _MAX_VALUE_DIGITS:
            raise ValueParseError(
                f"value with {digits} digits exceeds the limit {_MAX_VALUE_DIGITS}"
            )
        exp = _EXPONENT_RE.search(v)
        if exp and abs(int(exp.group(1))) > _MAX_VALUE_EXPONENT:
            raise ValueParseError(
                f"value exponent exceeds the limit {_MAX_VALUE_EXPONENT} in magnitude"
            )
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueParseError(f"zero denominator in value {v!r}") from None
        except ValueError:
            raise ValueParseError(f"cannot read {v!r} as an exact rational") from None
    raise TypeError(f"cannot interpret {v!r} as an exact rational")


def coerce_value(v):
    """Normalize a user-supplied value to Fraction or GaussianRational."""
    if isinstance(v, GaussianRational):
        return v
    return _to_fraction(v)


def _exact_values(values) -> list:
    """coerce_value of each value, where a value that is not exact, or values
    that are not a sequence, raise ValueParseError.  A str or bytes is one
    value, not a sequence of characters, so it is refused too."""
    if isinstance(values, (str, bytes)):
        raise ValueParseError(
            f"expected a sequence of values, got {type(values).__name__}"
        )
    try:
        return [coerce_value(v) for v in values]
    except TypeError as err:
        raise ValueParseError(str(err)) from None


# family: (character basis, fixed eigenvalues at even size, at odd size);
# EigenvalueSpec states how the free values fill in the rest.
_FAMILIES = {
    "GL": (Basis.GL, (), ()),
    "SL": (Basis.GL, (), ()),
    "SO": (Basis.O, (), (Fraction(1),)),
    "Sp": (Basis.SP, (), ()),
    "O-": (Basis.O, (Fraction(1), Fraction(-1)), (Fraction(-1),)),
}

_GROUP_RE = re.compile(r"^\s*(GL|SL|SO|Sp|O-)\s*\(\s*([0-9]+)\s*\)\s*$", re.IGNORECASE)

_CANONICAL = {family.lower(): family for family in _FAMILIES}


def _layout(family: str, size: int) -> tuple[int, tuple]:
    """The number of pairs x, 1/x among the eigenvalues of family(size), and
    the fixed eigenvalues."""
    if family not in _FAMILIES:
        raise UnsupportedGroupError(f"unknown group family {family!r}")
    basis, even, odd = _FAMILIES[family]
    fixed = odd if size % 2 else even
    rest = size - len(fixed)
    if rest < 0:
        raise UnsupportedGroupError(f"{family}({size}) is empty")
    return (0 if basis is Basis.GL else rest // 2), fixed


class EigenvalueSpec:
    """A classical group element given by its free eigenvalue parameters.

    GL(n) and SL(n) take the n eigenvalues themselves (SL requires product
    1).  The other families fix +1 in SO(2k+1), +1 and -1 in O-(2k) and -1
    in O-(2k+1); the free values x_i fill as many pairs x_i, 1/x_i as fit
    beside those, and one more value if one eigenvalue is left, which
    happens in Sp(2k+1) alone.  eigenvalues() lists the x_i of the pairs,
    their inverses, the value left over, then the fixed eigenvalues.

    "O-" denotes the component of O(N) away from the identity.  Sp(2k+1)
    specs can be represented but not evaluated; see eval_character.
    """

    __slots__ = ("family", "size", "free_values")

    def __init__(self, group: str, free_values):
        m = _GROUP_RE.match(group) if isinstance(group, str) else None
        if not m:
            raise UnsupportedGroupError(
                f"cannot parse group {group!r}; expected GL(n), SL(n), "
                "SO(n), O-(n) or Sp(n)"
            )
        self.family = _CANONICAL[m.group(1).lower()]
        try:
            self.size = int(m.group(2))
        except ValueError:  # more digits than int() will convert
            raise UnsupportedGroupError(
                f"group size with {len(m.group(2))} digits is too large"
            ) from None
        if self.size < 1:
            raise UnsupportedGroupError("group size must be positive")
        values = tuple(_exact_values(free_values))
        if any(not v for v in values):
            raise InvalidArgumentError("eigenvalue parameters must be nonzero")
        expected = self.free_count_for(self.family, self.size)
        if len(values) != expected:
            raise InvalidArgumentError(
                f"{self.group_name} takes {expected} free value(s), "
                f"got {len(values)}"
            )
        if self.family == "SL":
            prod = Fraction(1)
            for v in values:
                prod = prod * v
            if prod != 1:
                raise InvalidArgumentError("SL(n) eigenvalues must have product 1")
        self.free_values = values

    @staticmethod
    def free_count_for(family: str, size: int) -> int:
        pairs, fixed = _layout(family, size)
        return size - len(fixed) - pairs

    @property
    def group_name(self) -> str:
        return f"{self.family}({self.size})"

    @property
    def rank(self) -> int:
        """Stable-range bound: characters need length(lambda) <= rank."""
        return self.size if self.character_basis is Basis.GL else self.size // 2

    @property
    def character_basis(self) -> Basis:
        return _FAMILIES[self.family][0]

    def eigenvalues(self) -> tuple:
        pairs, fixed = _layout(self.family, self.size)
        xs = self.free_values
        return xs[:pairs] + tuple(1 / v for v in xs[:pairs]) + xs[pairs:] + fixed

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.free_values)
        return f"EigenvalueSpec({self.group_name}; {vals})"


def eval_schur_tableaux(lam, values):
    """s_lam(values) as the monomial sum over column-strict tableaux.

    Tableaux with entries at most n are chains of horizontal strips, so the
    sum folds one variable at a time.  Returns 0 when lam has more rows
    than there are values.
    """
    lam = Partition(lam)
    vals = _exact_values(values)
    if lam.length > len(vals):
        return Fraction(0)
    if not lam:
        return Fraction(1)
    table = {(): Fraction(1)}
    for x in vals:
        new_table = {}
        for mu, acc in table.items():
            for nu, added in horizontal_extensions(mu, lam):
                term = acc * x**added if added else acc
                if nu in new_table:
                    new_table[nu] = new_table[nu] + term
                else:
                    new_table[nu] = term
        table = new_table
    return table.get(tuple(lam), Fraction(0))


def _det_bareiss(m):
    """Exact determinant by fraction-free (Bareiss) elimination with row
    pivoting.  Entries may be Fractions or GaussianRationals."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    m = [row[:] for row in m]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return m[n - 1][n - 1] * sign


def eval_schur_bialternant(lam, values):
    """s_lam(values) as the ratio |x_i^(lam_j+n-j)| / |x_i^(n-j)|.

    The denominator is the Vandermonde product, so the values must be
    pairwise distinct; repeated values raise SingularDenominatorError and
    the caller should fall back to eval_schur_tableaux.
    """
    lam = Partition(lam)
    vals = _exact_values(values)
    n = len(vals)
    for i in range(n):
        for j in range(i + 1, n):
            if vals[i] == vals[j]:
                raise SingularDenominatorError(
                    f"repeated eigenvalue {vals[i]}; bialternant denominator "
                    "vanishes (use eval_schur_tableaux)"
                )
    if lam.length > n:
        return Fraction(0)
    if not lam:
        return Fraction(1)
    padded = tuple(lam) + (0,) * (n - lam.length)
    numer = [[vals[i] ** (padded[j] + n - 1 - j) for j in range(n)] for i in range(n)]
    denom = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            denom = denom * (vals[i] - vals[j])
    return _det_bareiss(numer) / denom


def _complete_homogeneous(vals, top):
    """h_0..h_top of the values, adding one variable at a time:
    h_k(x_1..x_m) = h_k(x_1..x_{m-1}) + x_m h_{k-1}(x_1..x_m)."""
    h = [Fraction(1)] + [Fraction(0)] * top
    for x in vals:
        for k in range(1, top + 1):
            h[k] = h[k] + x * h[k - 1]
    return h


def eval_character(lam, spec: EigenvalueSpec):
    """Evaluate the universal character labeled by lam at a group element.

    The group family fixes the basis: {lam} for GL/SL, [lam] for the
    orthogonal families, <lam> for Sp(2k).  Each is one determinant in the
    h_k of the full eigenvalue list (Koike & Terada, J. Algebra 107, 1987):
    entry (i, j), counted from 0, is h[lam_i-i+j], less h[lam_i-i-j-2] for
    [lam].  <lam> is half the determinant with h[lam_i-i-j] added; column 0
    is then 2 h[lam_i-i], so the half is taken by keeping h[lam_i-i] there.

    Sp(2k+1) is rejected: its universal characters are indecomposable but
    not irreducible, so no specialization rule is available here.  O/Sp
    labels need length(lam) <= k; outside that stable range universal and
    irreducible characters differ by modification rules, which are out of
    scope, so the guard is a hard error rather than a silent wrong answer.
    """
    lam = Partition(lam)
    _expect(spec, EigenvalueSpec)
    if spec.family == "Sp" and spec.size % 2:
        raise UnsupportedGroupError(
            f"cannot evaluate characters of {spec.group_name}: the universal "
            "character specializes to an indecomposable but reducible "
            "module, and no specialization rule applies"
        )
    basis = spec.character_basis
    if basis is not Basis.GL and lam.length > spec.rank:
        raise StableRangeError(
            f"{basis.value} character of shape with {lam.length} rows is "
            f"outside the stable range of {spec.group_name} "
            f"(needs length <= {spec.rank})"
        )
    xs = spec.eigenvalues()
    n = lam.length
    if n > len(xs):
        return Fraction(0)
    h = _complete_homogeneous(xs, lam[0] + n - 1 if n else 0)
    h_at = lambda k: h[k] if k >= 0 else Fraction(0)

    def entry(a, j):
        if basis is Basis.O:
            return h_at(a + j) - h_at(a - j - 2)
        if basis is Basis.SP and j:
            return h_at(a + j) + h_at(a - j)
        return h_at(a + j)

    return _det_bareiss([[entry(lam[i] - i, j) for j in range(n)] for i in range(n)])


def verify_cauchy(nx: int, ny: int, max_degree: int) -> bool:
    """Check both Cauchy kernels against their Schur-sum expansions.

    Works in nx+ny variables with every polynomial truncated at total
    degree 2*max_degree, which keeps exactly the terms whose x-degree and
    y-degree are both at most max_degree.  Each kernel is expanded one
    factor 1 - x_i y_j (or its geometric inverse) at a time, in place, by
    the oracle's `_pair_step`, which truncates as it goes.  The x and y
    variables are disjoint, so s_lam(x) s_mu(y) joins exponents: its terms
    are ex + ey.
    """
    for n in (nx, ny, max_degree):
        _expect(n, int)
        if n < 0:
            raise InvalidArgumentError(f"verify_cauchy needs counts >= 0, got {n}")
    nvars = nx + ny
    bound = 2 * max_degree
    direct = poly_one(nvars)
    inverse = poly_one(nvars)
    for i in range(nx):
        for j in range(nx, nvars):
            _pair_step(direct, i, j, False, bound)
            _pair_step(inverse, i, j, True, bound)

    sum_inverse: dict = {}
    sum_direct: dict = {}
    for lam in partitions_up_to(max_degree):
        sx = schur_polynomial(tuple(lam), nx).items()
        if not sx:
            continue
        sign = -1 if lam.weight % 2 else 1
        for total, mu, k in ((sum_inverse, lam, 1), (sum_direct, lam.conjugate(), sign)):
            for ey, cy in schur_polynomial(tuple(mu), ny).items():
                for ex, cx in sx:
                    _merge(total, ex + ey, k * cx * cy)

    return inverse == sum_inverse and direct == sum_direct
