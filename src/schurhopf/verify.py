"""Self-checking suites behind the `verify` CLI subcommand.

Each suite runs a batch of exact identities at desk scale and reports one
CheckResult per property.  A check is written as a generator that yields a
failure witness (a string) wherever its identity fails; the `_check`
decorator names it, stops it at its first witness and builds its one
CheckResult, and records the largest weight the identity is claimed at.
Each suite runs its checks at those weights; a smaller max_degree scales
them down uniformly (useful for quick smoke runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, wraps
from typing import Iterator

from . import char_rings
from ._oracle import series_term_by_expansion
from .char_rings import (
    Basis,
    CharElement,
    char_antipode,
    char_coproduct,
    char_counit,
    char_multiply,
    convert,
    tensor_product,
    tensor_product_generic,
)
from .errors import InvalidArgumentError
from .evaluate import verify_cauchy
from .lr import lr_coefficient
from .partition import (
    Partition,
    parse_partition,
    partitions_of,
    partitions_up_to,
    subpartitions,
)
from .schur_ring import SchurElement, _linear
from .series import (
    delta_double_prime,
    littlewood_series,
    series_inverse,
    series_product,
    unit_series,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        out = f"{mark} {self.name}"
        if self.detail and not self.passed:
            out += f": {self.detail}"
        return out


def _cap(default: int, max_degree: int | None) -> int:
    return default if max_degree is None else min(default, max_degree)


def _check(title: str, claimed: int | None = None):
    """A check named title % args out of a generator of failure witnesses;
    `claimed` is the weight its identity is claimed at (None: unbounded)."""
    def decorate(witnesses):
        @wraps(witnesses)
        def check(*args) -> CheckResult:
            witness = next(witnesses(*args), None)
            # Looked up at call time, so a caller can substitute it to time checks.
            return CheckResult(title % args, witness is None, witness or "")
        check.claimed = claimed
        return check
    return decorate


def _suite(max_degree: int | None, *checks) -> list[CheckResult]:
    return [
        check() if check.claimed is None else check(_cap(check.claimed, max_degree))
        for check in checks
    ]


def _fold(cls, terms, image, tag=None):
    """The cls element sum c * image(k) over the terms k: c, where each
    image(k) is a cls element tagged `tag`: one `_linear` of their tables."""
    return cls._trusted(_linear(terms, lambda k: image(k)._terms), tag)


# -- golden tables ----------------------------------------------------------

_BRANCHING_GOLDENS = [
    ("4", "O", "[4]+[2]+[0]"),
    ("1^4", "O", "[1^4]"),
    ("2^2 1^2", "O", "[2^2 1^2]+[21^2]+[1^2]"),
    ("4", "Sp", "<4>"),
    ("1^4", "Sp", "<1^4>+<1^2>+<0>"),
    ("2^2 1^2", "Sp", "<2^2 1^2>+<2^2>+<21^2>+<1^4>+2<1^2>+<0>"),
]

_TENSOR_GOLDENS = [
    ("GL", "{43}+{421}+{3^2 1}+{32^2}+{321^2}+{2^3 1}"),
    (
        "O",
        "[43]+[421]+[3^2 1]+[32^2]+[321^2]+[2^3 1]"
        "+[41]+2[32]+2[31^2]+2[2^2 1]+[21^3]"
        "+[3]+2[21]+[1^3]+[1]",
    ),
    (
        "Sp",
        "<43>+<421>+<3^2 1>+<32^2>+<321^2>+<2^3 1>"
        "+<41>+2<32>+2<31^2>+2<2^2 1>+<21^3>"
        "+<3>+2<21>+<1^3>+<1>",
    ),
]


def _render_plain(x: CharElement) -> str:
    """Ascii-bracket rendering (Sp angles as <>), for golden comparisons."""
    return str(x).replace("⟨", "<").replace("⟩", ">")


@_check("branching goldens ({4},{1^4},{2^2 1^2} to O and Sp)")
def check_branching_goldens() -> Iterator[str]:
    for text, basis, expected in _BRANCHING_GOLDENS:
        lam = parse_partition(text)
        if basis == "O":
            got = char_rings.branch_gl_to_o(lam)
        else:
            got = char_rings.branch_gl_to_sp(lam)
        if _render_plain(got) != expected:
            yield f"branch {text} -> {basis}: got {_render_plain(got)}"


@_check("tensor goldens {2^2}*{21} in GL, O, Sp")
def check_tensor_goldens() -> Iterator[str]:
    lam = Partition((2, 2))
    mu = Partition((2, 1))
    for basis, expected in _TENSOR_GOLDENS:
        got = tensor_product(lam, mu, Basis.parse(basis))
        if _render_plain(got) != expected:
            yield f"{basis}: got {_render_plain(got)}"


@_check("O/Sp tensor coefficient coincidence (weights <= %d)", 5)
def check_osp_coincidence(bound: int) -> Iterator[str]:
    for lam in partitions_up_to(bound):
        for mu in partitions_up_to(bound):
            o = tensor_product(lam, mu, Basis.O)
            sp = tensor_product(lam, mu, Basis.SP)
            if dict(o.items()) != dict(sp.items()):
                yield f"lambda={lam}, mu={mu}"


@_check("conversion round-trips, all basis pairs (weight <= %d)", 6)
def check_conversion_round_trips(bound: int) -> Iterator[str]:
    pairs = [(a, b) for a in Basis for b in Basis if a is not b]
    for p in partitions_up_to(bound):
        for a, b in pairs:
            x = CharElement.basis_element(a, p)
            back = convert(convert(x, b), a)
            if back != x:
                yield f"{x} via {b.value}: got {back}"


@_check("branch agrees with convert (weight <= %d)", 6)
def check_branch_convert_consistency(bound: int) -> Iterator[str]:
    for p in partitions_up_to(bound):
        gl = CharElement.basis_element(Basis.GL, p)
        if char_rings.branch_gl_to_o(p) != convert(gl, Basis.O):
            yield f"O branch of {p}"
        if char_rings.branch_gl_to_sp(p) != convert(gl, Basis.SP):
            yield f"Sp branch of {p}"


@_check("sigma sums bounded by min weight (weights <= %d)", 5)
def check_sigma_bound(bound: int) -> Iterator[str]:
    """The tensor-product sum truncates sigma at the smaller weight; check
    directly that every heavier sigma kills one of the two skews."""
    skew = cache(lambda p, sigma: SchurElement.basis(p).skew(sigma))
    for lam in partitions_up_to(bound):
        for mu in partitions_up_to(bound):
            small = min(lam.weight, mu.weight)
            big = max(lam.weight, mu.weight)
            for w in range(small + 1, big + 1):
                for sigma in partitions_of(w):
                    left = skew(lam, sigma)
                    right = skew(mu, sigma)
                    if not (left.is_zero or right.is_zero):
                        yield f"sigma={sigma} survives lambda={lam}, mu={mu}"


@_check("tensor products commute in every basis (weights <= %d)", 5)
def check_tensor_commutativity(bound: int) -> Iterator[str]:
    for basis in Basis:
        for lam in partitions_up_to(bound):
            for mu in partitions_up_to(bound):
                if tensor_product(lam, mu, basis) != tensor_product(mu, lam, basis):
                    yield f"{basis.value}: lambda={lam}, mu={mu}"


@_check("generic series engine matches direct rules (weights <= %d)", 4)
def check_generic_engine(bound: int) -> Iterator[str]:
    d = littlewood_series("D", 2 * bound)
    b = littlewood_series("B", 2 * bound)
    u = unit_series(2 * bound)
    for lam in partitions_up_to(bound):
        for mu in partitions_up_to(bound):
            if tensor_product_generic(lam, mu, d) != tensor_product(lam, mu, Basis.O):
                yield f"T=D: lambda={lam}, mu={mu}"
            if tensor_product_generic(lam, mu, b) != tensor_product(lam, mu, Basis.SP):
                yield f"T=B: lambda={lam}, mu={mu}"
            if tensor_product_generic(lam, mu, u) != tensor_product(lam, mu, Basis.GL):
                yield f"T=unit: lambda={lam}, mu={mu}"


def suite_tables(max_degree: int | None = None) -> list[CheckResult]:
    return _suite(
        max_degree,
        check_branching_goldens,
        check_tensor_goldens,
        check_osp_coincidence,
        check_conversion_round_trips,
        check_branch_convert_consistency,
        check_sigma_bound,
        check_tensor_commutativity,
        check_generic_engine,
    )


# -- series -----------------------------------------------------------------

@_check("B and D have unit coefficients on the stated supports (degree <= %d)", 8)
def check_bd_supports(bound: int) -> Iterator[str]:
    dser = littlewood_series("D", bound)
    bser = littlewood_series("B", bound)
    for deg in range(bound + 1):
        dterm = dser.term(deg)
        bterm = bser.term(deg)
        if deg % 2:
            if not dterm.is_zero or not bterm.is_zero:
                yield f"odd degree {deg} not zero"
            continue
        expect_d = {p for p in partitions_of(deg) if all(x % 2 == 0 for x in p)}
        if dict(dterm.items()) != {p: 1 for p in expect_d}:
            yield f"D degree {deg}"
        if dict(bterm.items()) != {p.conjugate(): 1 for p in expect_d}:
            yield f"B degree {deg}"


@_check("A and C match the defining-product oracle (degree <= %d)", 8)
def check_ca_oracle(bound: int) -> Iterator[str]:
    for series in ("A", "C"):
        ser = littlewood_series(series, bound)
        for deg in range(bound + 1):
            got = dict(ser.term(deg).items())
            if deg % 2 and got:
                yield f"{series} odd degree {deg} not zero"
            sign = -1 if (deg // 2) % 2 else 1
            if deg % 2 == 0 and any(c != sign for c in got.values()):
                yield f"{series} degree {deg}: coefficient not {sign}"
            if got != series_term_by_expansion(series, deg):
                yield f"{series} degree {deg} disagrees with product expansion"


@_check("conjugation maps C to A and D to B (degree <= %d)", 8)
def check_conjugation_duality(bound: int) -> Iterator[str]:
    for src, dst in (("C", "A"), ("D", "B")):
        s = littlewood_series(src, bound)
        t = littlewood_series(dst, bound)
        for deg in range(bound + 1):
            flipped = {p.conjugate(): c for p, c in s.term(deg).items()}
            if flipped != dict(t.term(deg).items()):
                yield f"{src} vs {dst} at degree {deg}"


@_check("A*B = C*D = unit and inverse(C) = D (degree <= %d)", 8)
def check_series_inverses(bound: int) -> Iterator[str]:
    a = littlewood_series("A", bound)
    b = littlewood_series("B", bound)
    c = littlewood_series("C", bound)
    d = littlewood_series("D", bound)
    for s, t, label in ((a, b, "A*B"), (c, d, "C*D")):
        prod = series_product(s, t, bound)
        for deg in range(bound + 1):
            expect = SchurElement.one() if deg == 0 else SchurElement.zero()
            if prod.term(deg) != expect:
                yield f"{label} degree {deg}"
    inv = series_inverse(c, bound)
    for deg in range(bound + 1):
        if inv.term(deg) != d.term(deg):
            yield f"inverse(C) vs D at degree {deg}"


@_check("split coproduct of D and B is diagonal (degree <= %d)", 6)
def check_delta_double_prime(bound: int) -> Iterator[str]:
    for series in ("D", "B"):
        t = littlewood_series(series, bound)
        defects = delta_double_prime(t, bound).diagonal_defects(bound)
        if defects:
            (sigma, tau), c = defects[0]
            yield f"{series}: first defect sigma={sigma}, tau={tau}, coefficient {c}"


def suite_series(max_degree: int | None = None) -> list[CheckResult]:
    return _suite(
        max_degree,
        check_bd_supports,
        check_ca_oracle,
        check_conjugation_duality,
        check_series_inverses,
        check_delta_double_prime,
    )


# -- Hopf axioms in Symm ------------------------------------------------------

@_check("product/skew/coproduct duality (weight <= %d)", 7)
def check_symm_duality(bound: int) -> Iterator[str]:
    for nu in partitions_up_to(bound):
        cop = SchurElement.basis(nu).coproduct()
        table = dict(cop.items())
        seen = {}
        for lam in subpartitions(nu):
            skewed = SchurElement.basis(nu).skew(lam)
            for mu, c in skewed.items():
                seen[(lam, mu)] = c
                prod = SchurElement.basis(lam) * SchurElement.basis(mu)
                if prod.coefficient(nu) != c:
                    yield f"scalar vs skew at nu={nu}, lambda={lam}, mu={mu}"
        if {k: v for k, v in table.items() if v} != seen:
            yield f"coproduct table of nu={nu}"


@_check("alternating skew identity collapses (weight <= %d)", 8)
def check_schur_identity(bound: int) -> Iterator[str]:
    for nu in partitions_up_to(bound):
        base = SchurElement.basis(nu)
        signs = {mu: -1 if mu.weight % 2 else 1 for mu in subpartitions(nu)}
        total = _fold(
            SchurElement, signs, lambda mu: base.skew(mu) * SchurElement.basis(mu.conjugate())
        )
        expect = SchurElement.one() if nu.weight == 0 else SchurElement.zero()
        if total != expect:
            yield f"nu={nu}: got {total}"


@_check("antipode identity, both sides (weight <= %d)", 7)
def check_symm_antipode(bound: int) -> Iterator[str]:
    s = SchurElement.basis
    for p in partitions_up_to(bound):
        x = s(p)
        expect = SchurElement.one() if p.weight == 0 else SchurElement.zero()
        cop = x.coproduct()
        left = _fold(SchurElement, cop, lambda ab: s(ab[0]).antipode() * s(ab[1]))
        right = _fold(SchurElement, cop, lambda ab: s(ab[0]) * s(ab[1]).antipode())
        if left != expect or right != expect:
            yield f"basis element {p}"


@_check("counit is a two-sided counit (weight <= %d)", 8)
def check_symm_counitarity(bound: int) -> Iterator[str]:
    s = SchurElement.basis
    for p in partitions_up_to(bound):
        x = s(p)
        cop = x.coproduct()
        left = _fold(SchurElement, cop, lambda ab: s(ab[1]) * s(ab[0]).counit())
        right = _fold(SchurElement, cop, lambda ab: s(ab[0]) * s(ab[1]).counit())
        if left != x or right != x:
            yield f"basis element {p}"


def _triple_table(x: SchurElement, first: bool) -> dict:
    """Coefficients of (Delta x I) Delta or (I x Delta) Delta applied to x."""

    def image(key):
        a, b = key
        inner = SchurElement.basis(a if first else b).coproduct()
        return {((u, v, b) if first else (a, u, v)): d for (u, v), d in inner.items()}

    return _linear(x.coproduct(), image)


@_check("coproduct is coassociative and cocommutative (weight <= %d)", 6)
def check_coassociativity(bound: int) -> Iterator[str]:
    for p in partitions_up_to(bound):
        x = SchurElement.basis(p)
        if _triple_table(x, True) != _triple_table(x, False):
            yield f"basis element {p}"
        cop = x.coproduct()
        if cop != cop.swap():
            yield f"cocommutativity fails at {p}"


@_check("coproduct is an algebra map (total weight <= %d)", 6)
def check_compatibility(bound: int) -> Iterator[str]:
    for total in range(bound + 1):
        for wa in range(total + 1):
            for lam in partitions_of(wa):
                for mu in partitions_of(total - wa):
                    x = SchurElement.basis(lam)
                    y = SchurElement.basis(mu)
                    lhs = (x * y).coproduct()
                    rhs = x.coproduct() * y.coproduct()
                    if lhs != rhs:
                        yield f"lambda={lam}, mu={mu}"


@_check("iterated skew matches skew by the product (weight <= %d)", 7)
def check_skew_of_skew(bound: int) -> Iterator[str]:
    shapes = [partitions_of(w) for w in range(bound + 1)]
    product = cache(lambda mu, nu: SchurElement.basis(mu) * SchurElement.basis(nu))
    for wl in range(bound + 1):
        for lam in shapes[wl]:
            x = SchurElement.basis(lam)
            for wm in range(wl + 1):
                for mu in shapes[wm]:
                    x_mu = x.skew(mu)
                    for wn in range(wl - wm + 1):
                        for nu in shapes[wn]:
                            lhs = x_mu.skew(nu)
                            rhs = x.skew(product(mu, nu))
                            if lhs != rhs:
                                yield f"lambda={lam}, mu={mu}, nu={nu}"


@_check("skew of a product expands by paired skews (total weight <= %d)", 6)
def check_skew_of_product(bound: int) -> Iterator[str]:
    shapes = [partitions_of(w) for w in range(bound + 1)]
    up_to = [partitions_up_to(w) for w in range(bound + 1)]
    # rho -> {(sigma, tau): c^rho_{sigma,tau}} over the nonzero coefficients
    splits = {
        rho: {
            (sigma, tau): c
            for sigma in up_to[wr]
            for tau in shapes[wr - sigma.weight]
            if (c := lr_coefficient(sigma, tau, rho))
        }
        for wr in range(bound + 1)
        for rho in shapes[wr]
    }
    skew = cache(lambda p, q: SchurElement.basis(p).skew(q))

    for total in range(bound + 1):
        for wm in range(total + 1):
            for mu in shapes[wm]:
                x = SchurElement.basis(mu)
                for nu in shapes[total - wm]:
                    prod = x * SchurElement.basis(nu)
                    # (mu/sigma).(nu/tau) per split, shared across every rho
                    paired = cache(lambda st: skew(mu, st[0]) * skew(nu, st[1]))
                    for wr in range(total + 1):
                        for rho in shapes[wr]:
                            lhs = prod.skew(rho)
                            rhs = _fold(SchurElement, splits[rho], paired)
                            if lhs != rhs:
                                yield f"mu={mu}, nu={nu}, rho={rho}"


# -- Hopf axioms in the O/Sp character rings ---------------------------------

@_check("character counit is two-sided (weight <= %d)", 5)
def check_char_counitarity(bound: int) -> Iterator[str]:
    for basis in (Basis.O, Basis.SP):
        e = partial(CharElement.basis_element, basis)
        for p in partitions_up_to(bound):
            x = e(p)
            cop = char_coproduct(x)
            left = _fold(CharElement, cop, lambda ab: e(ab[1]) * char_counit(e(ab[0])), basis)
            right = _fold(CharElement, cop, lambda ab: e(ab[0]) * char_counit(e(ab[1])), basis)
            if left != x or right != x:
                yield f"{x}"


@_check("character antipode identity, both sides (weight <= %d)", 5)
def check_char_antipode(bound: int) -> Iterator[str]:
    for basis in (Basis.O, Basis.SP):
        e = partial(CharElement.basis_element, basis)
        s = cache(lambda a: char_antipode(e(a)))
        unit = e(Partition(()))
        for p in partitions_up_to(bound):
            x = e(p)
            expect = unit * char_counit(x)
            cop = char_coproduct(x)
            left = _fold(CharElement, cop, lambda ab: char_multiply(s(ab[0]), e(ab[1])), basis)
            right = _fold(CharElement, cop, lambda ab: char_multiply(e(ab[0]), s(ab[1])), basis)
            if left != expect or right != expect:
                yield f"{x}: folded to {left} and {right}, expected {expect}"


def suite_hopf(max_degree: int | None = None) -> list[CheckResult]:
    return _suite(
        max_degree,
        check_symm_duality,
        check_schur_identity,
        check_symm_antipode,
        check_symm_counitarity,
        check_coassociativity,
        check_compatibility,
        check_skew_of_skew,
        check_skew_of_product,
        check_char_counitarity,
        check_char_antipode,
    )


# -- Cauchy kernels -----------------------------------------------------------

@_check("Cauchy kernels in %d+%d variables (degree <= %d)")
def check_cauchy(nx: int, ny: int, deg: int) -> Iterator[str]:
    if not verify_cauchy(nx, ny, deg):
        yield "truncated expansions differ"


def suite_cauchy(max_degree: int | None = None) -> list[CheckResult]:
    cases = [(1, 1, 4), (2, 2, 4), (3, 2, 4), (3, 3, 3), (0, 2, 3)]
    return [check_cauchy(nx, ny, _cap(deg, max_degree)) for nx, ny, deg in cases]


SUITES = {
    "tables": suite_tables,
    "series": suite_series,
    "hopf": suite_hopf,
    "cauchy": suite_cauchy,
}


def run_suite(name: str, max_degree: int | None = None) -> list[CheckResult]:
    if name == "all":
        return [r for suite in SUITES.values() for r in suite(max_degree)]
    if name not in SUITES:
        raise InvalidArgumentError(f"unknown suite {name!r}; choose from "
                                   f"{sorted(SUITES)} or 'all'")
    return SUITES[name](max_degree)
