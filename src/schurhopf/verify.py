"""Self-checking suites behind the `verify` CLI subcommand.

Each suite runs a batch of exact identities at desk scale and reports one
CheckResult per property.  Bounds default to the largest weights the
identities are claimed at; passing a smaller max_degree scales them down
uniformly (useful for quick smoke runs).
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .evaluate import verify_cauchy
from .lr import lr_coefficient
from .partition import (
    Partition,
    parse_partition,
    partitions_of,
    partitions_up_to,
    subpartitions,
)
from .schur_ring import SchurElement
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


def _result(name: str, witness: str | None) -> CheckResult:
    return CheckResult(name, witness is None, witness or "")


def _basis_elements(bound: int):
    for d in range(bound + 1):
        for p in partitions_of(d):
            yield p


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


def check_branching_goldens() -> CheckResult:
    witness = None
    for text, basis, expected in _BRANCHING_GOLDENS:
        lam = parse_partition(text)
        if basis == "O":
            got = char_rings.branch_gl_to_o(lam)
        else:
            got = char_rings.branch_gl_to_sp(lam)
        if _render_plain(got) != expected:
            witness = f"branch {text} -> {basis}: got {_render_plain(got)}"
            break
    return _result("branching goldens ({4},{1^4},{2^2 1^2} to O and Sp)", witness)


def check_tensor_goldens() -> CheckResult:
    lam = Partition((2, 2))
    mu = Partition((2, 1))
    witness = None
    for basis, expected in _TENSOR_GOLDENS:
        got = tensor_product(lam, mu, Basis.parse(basis))
        if _render_plain(got) != expected:
            witness = f"{basis}: got {_render_plain(got)}"
            break
    return _result("tensor goldens {2^2}*{21} in GL, O, Sp", witness)


def check_osp_coincidence(bound: int = 5) -> CheckResult:
    witness = None
    for lam in _basis_elements(bound):
        for mu in _basis_elements(bound):
            o = tensor_product(lam, mu, Basis.O)
            sp = tensor_product(lam, mu, Basis.SP)
            if dict(o.items()) != dict(sp.items()):
                witness = f"lambda={lam}, mu={mu}"
                break
        if witness:
            break
    return _result(f"O/Sp tensor coefficient coincidence (weights <= {bound})", witness)


def check_conversion_round_trips(bound: int = 6) -> CheckResult:
    pairs = [(a, b) for a in Basis for b in Basis if a is not b]
    witness = None
    for p in _basis_elements(bound):
        for a, b in pairs:
            x = CharElement.basis_element(a, p)
            back = convert(convert(x, b), a)
            if back != x:
                witness = f"{x} via {b.value}: got {back}"
                break
        if witness:
            break
    return _result(f"conversion round-trips, all basis pairs (weight <= {bound})", witness)


def check_branch_convert_consistency(bound: int = 6) -> CheckResult:
    witness = None
    for p in _basis_elements(bound):
        gl = CharElement.basis_element(Basis.GL, p)
        if char_rings.branch_gl_to_o(p) != convert(gl, Basis.O):
            witness = f"O branch of {p}"
            break
        if char_rings.branch_gl_to_sp(p) != convert(gl, Basis.SP):
            witness = f"Sp branch of {p}"
            break
    return _result(f"branch agrees with convert (weight <= {bound})", witness)


def check_sigma_bound(bound: int = 5) -> CheckResult:
    """The tensor-product sum truncates sigma at the smaller weight; check
    directly that every heavier sigma kills one of the two skews."""
    witness = None
    for lam in _basis_elements(bound):
        for mu in _basis_elements(bound):
            small = min(lam.weight, mu.weight)
            big = max(lam.weight, mu.weight)
            for w in range(small + 1, big + 1):
                for sigma in partitions_of(w):
                    left = SchurElement.basis(lam).skew(sigma)
                    right = SchurElement.basis(mu).skew(sigma)
                    if not (left.is_zero or right.is_zero):
                        witness = f"sigma={sigma} survives lambda={lam}, mu={mu}"
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    return _result(f"sigma sums bounded by min weight (weights <= {bound})", witness)


def check_tensor_commutativity(bound: int = 5) -> CheckResult:
    witness = None
    for basis in Basis:
        for lam in _basis_elements(bound):
            for mu in _basis_elements(bound):
                if tensor_product(lam, mu, basis) != tensor_product(mu, lam, basis):
                    witness = f"{basis.value}: lambda={lam}, mu={mu}"
                    break
            if witness:
                break
        if witness:
            break
    return _result(f"tensor products commute in every basis (weights <= {bound})", witness)


def check_generic_engine(bound: int = 4) -> CheckResult:
    d = littlewood_series("D", 2 * bound)
    b = littlewood_series("B", 2 * bound)
    u = unit_series(2 * bound)
    witness = None
    for lam in _basis_elements(bound):
        for mu in _basis_elements(bound):
            if tensor_product_generic(lam, mu, d) != tensor_product(lam, mu, Basis.O):
                witness = f"T=D: lambda={lam}, mu={mu}"
                break
            if tensor_product_generic(lam, mu, b) != tensor_product(lam, mu, Basis.SP):
                witness = f"T=B: lambda={lam}, mu={mu}"
                break
            if tensor_product_generic(lam, mu, u) != tensor_product(lam, mu, Basis.GL):
                witness = f"T=unit: lambda={lam}, mu={mu}"
                break
        if witness:
            break
    return _result(f"generic series engine matches direct rules (weights <= {bound})", witness)


def suite_tables(max_degree: int | None = None) -> list[CheckResult]:
    return [
        check_branching_goldens(),
        check_tensor_goldens(),
        check_osp_coincidence(_cap(5, max_degree)),
        check_conversion_round_trips(_cap(6, max_degree)),
        check_branch_convert_consistency(_cap(6, max_degree)),
        check_sigma_bound(_cap(5, max_degree)),
        check_tensor_commutativity(_cap(5, max_degree)),
        check_generic_engine(_cap(4, max_degree)),
    ]


# -- series -----------------------------------------------------------------

def check_bd_supports(bound: int = 8) -> CheckResult:
    dser = littlewood_series("D", bound)
    bser = littlewood_series("B", bound)
    witness = None
    for deg in range(bound + 1):
        dterm = dser.term(deg)
        bterm = bser.term(deg)
        if deg % 2:
            if not dterm.is_zero or not bterm.is_zero:
                witness = f"odd degree {deg} not zero"
                break
            continue
        expect_d = {p for p in partitions_of(deg) if all(x % 2 == 0 for x in p)}
        if dict(dterm.items()) != {p: 1 for p in expect_d}:
            witness = f"D degree {deg}"
            break
        if dict(bterm.items()) != {p.conjugate(): 1 for p in expect_d}:
            witness = f"B degree {deg}"
            break
    return _result(f"B and D have unit coefficients on the stated supports (degree <= {bound})", witness)


def check_ca_oracle(bound: int = 8) -> CheckResult:
    witness = None
    for name in ("A", "C"):
        ser = littlewood_series(name, bound)
        for deg in range(bound + 1):
            got = dict(ser.term(deg).items())
            if deg % 2 and got:
                witness = f"{name} odd degree {deg} not zero"
                break
            sign = -1 if (deg // 2) % 2 else 1
            if deg % 2 == 0 and any(c != sign for c in got.values()):
                witness = f"{name} degree {deg}: coefficient not {sign}"
                break
            if got != series_term_by_expansion(name, deg):
                witness = f"{name} degree {deg} disagrees with product expansion"
                break
        if witness:
            break
    return _result(f"A and C match the defining-product oracle (degree <= {bound})", witness)


def check_conjugation_duality(bound: int = 8) -> CheckResult:
    witness = None
    for src, dst in (("C", "A"), ("D", "B")):
        s = littlewood_series(src, bound)
        t = littlewood_series(dst, bound)
        for deg in range(bound + 1):
            flipped = {p.conjugate(): c for p, c in s.term(deg).items()}
            if flipped != dict(t.term(deg).items()):
                witness = f"{src} vs {dst} at degree {deg}"
                break
        if witness:
            break
    return _result(f"conjugation maps C to A and D to B (degree <= {bound})", witness)


def check_series_inverses(bound: int = 8) -> CheckResult:
    a = littlewood_series("A", bound)
    b = littlewood_series("B", bound)
    c = littlewood_series("C", bound)
    d = littlewood_series("D", bound)
    witness = None
    for s, t, label in ((a, b, "A*B"), (c, d, "C*D")):
        prod = series_product(s, t, bound)
        for deg in range(bound + 1):
            expect = SchurElement.one() if deg == 0 else SchurElement.zero()
            if prod.term(deg) != expect:
                witness = f"{label} degree {deg}"
                break
        if witness:
            break
    if witness is None:
        inv = series_inverse(c, bound)
        for deg in range(bound + 1):
            if inv.term(deg) != d.term(deg):
                witness = f"inverse(C) vs D at degree {deg}"
                break
    return _result(f"A*B = C*D = unit and inverse(C) = D (degree <= {bound})", witness)


def check_delta_double_prime(bound: int = 6) -> CheckResult:
    witness = None
    for name in ("D", "B"):
        t = littlewood_series(name, bound)
        defects = delta_double_prime(t, bound).diagonal_defects(bound)
        if defects:
            witness = f"{name}: first defect {defects[0]}"
            break
    return _result(f"split coproduct of D and B is diagonal (degree <= {bound})", witness)


def suite_series(max_degree: int | None = None) -> list[CheckResult]:
    return [
        check_bd_supports(_cap(8, max_degree)),
        check_ca_oracle(_cap(8, max_degree)),
        check_conjugation_duality(_cap(8, max_degree)),
        check_series_inverses(_cap(8, max_degree)),
        check_delta_double_prime(_cap(6, max_degree)),
    ]


# -- Hopf axioms in Symm ------------------------------------------------------

def check_symm_duality(bound: int = 7) -> CheckResult:
    witness = None
    for nu in _basis_elements(bound):
        cop = SchurElement.basis(nu).coproduct()
        table = dict(cop.items())
        seen = {}
        for lam in subpartitions(nu):
            skewed = SchurElement.basis(nu).skew(lam)
            for mu, c in skewed.items():
                seen[(lam, mu)] = c
                prod = SchurElement.basis(lam) * SchurElement.basis(mu)
                if prod.coefficient(nu) != c:
                    witness = f"scalar vs skew at nu={nu}, lambda={lam}, mu={mu}"
                    break
            if witness:
                break
        if witness:
            break
        if {k: v for k, v in table.items() if v} != seen:
            witness = f"coproduct table of nu={nu}"
            break
    return _result(f"product/skew/coproduct duality (weight <= {bound})", witness)


def check_schur_identity(bound: int = 8) -> CheckResult:
    witness = None
    for nu in _basis_elements(bound):
        total = SchurElement.zero()
        base = SchurElement.basis(nu)
        for mu in subpartitions(nu):
            term = base.skew(mu) * SchurElement.basis(mu.conjugate())
            total = total + term * (-1 if mu.weight % 2 else 1)
        expect = SchurElement.one() if nu.weight == 0 else SchurElement.zero()
        if total != expect:
            witness = f"nu={nu}: got {total}"
            break
    return _result(f"alternating skew identity collapses (weight <= {bound})", witness)


def check_symm_antipode(bound: int = 7) -> CheckResult:
    witness = None
    for p in _basis_elements(bound):
        x = SchurElement.basis(p)
        expect = SchurElement.one() if p.weight == 0 else SchurElement.zero()
        left = SchurElement.zero()
        right = SchurElement.zero()
        for (a, b), c in x.coproduct().items():
            left = left + SchurElement.basis(a).antipode() * SchurElement.basis(b) * c
            right = right + SchurElement.basis(a) * SchurElement.basis(b).antipode() * c
        if left != expect or right != expect:
            witness = f"basis element {p}"
            break
    return _result(f"antipode identity, both sides (weight <= {bound})", witness)


def check_symm_counitarity(bound: int = 8) -> CheckResult:
    witness = None
    for p in _basis_elements(bound):
        x = SchurElement.basis(p)
        left = SchurElement.zero()
        right = SchurElement.zero()
        for (a, b), c in x.coproduct().items():
            left = left + SchurElement.basis(b) * (c * SchurElement.basis(a).counit())
            right = right + SchurElement.basis(a) * (c * SchurElement.basis(b).counit())
        if left != x or right != x:
            witness = f"basis element {p}"
            break
    return _result(f"counit is a two-sided counit (weight <= {bound})", witness)


def _triple_table(x: SchurElement, first: bool) -> dict:
    """Coefficients of (Delta x I) Delta or (I x Delta) Delta applied to x."""
    out: dict = {}
    for (a, b), c in x.coproduct().items():
        inner = SchurElement.basis(a if first else b).coproduct()
        for (u, v), d in inner.items():
            key = (u, v, b) if first else (a, u, v)
            val = out.get(key, 0) + c * d
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def check_coassociativity(bound: int = 6) -> CheckResult:
    witness = None
    for p in _basis_elements(bound):
        x = SchurElement.basis(p)
        if _triple_table(x, True) != _triple_table(x, False):
            witness = f"basis element {p}"
            break
        cop = x.coproduct()
        if cop != cop.swap():
            witness = f"cocommutativity fails at {p}"
            break
    return _result(f"coproduct is coassociative and cocommutative (weight <= {bound})", witness)


def check_compatibility(bound: int = 6) -> CheckResult:
    witness = None
    for total in range(bound + 1):
        for wa in range(total + 1):
            for lam in partitions_of(wa):
                for mu in partitions_of(total - wa):
                    x = SchurElement.basis(lam)
                    y = SchurElement.basis(mu)
                    lhs = (x * y).coproduct()
                    rhs = x.coproduct() * y.coproduct()
                    if lhs != rhs:
                        witness = f"lambda={lam}, mu={mu}"
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    return _result(f"coproduct is an algebra map (total weight <= {bound})", witness)


def check_skew_of_skew(bound: int = 7) -> CheckResult:
    witness = None
    shapes = [partitions_of(w) for w in range(bound + 1)]
    for wl in range(bound + 1):
        for lam in shapes[wl]:
            x = SchurElement.basis(lam)
            for wm in range(wl + 1):
                for mu in shapes[wm]:
                    for wn in range(wl - wm + 1):
                        for nu in shapes[wn]:
                            lhs = x.skew(mu).skew(nu)
                            rhs = x.skew(SchurElement.basis(mu) * SchurElement.basis(nu))
                            if lhs != rhs:
                                witness = f"lambda={lam}, mu={mu}, nu={nu}"
                                break
                        if witness:
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    return _result(f"iterated skew matches skew by the product (weight <= {bound})", witness)


def check_skew_of_product(bound: int = 6) -> CheckResult:
    witness = None
    shapes = [partitions_of(w) for w in range(bound + 1)]
    up_to = [partitions_up_to(w) for w in range(bound + 1)]
    for total in range(bound + 1):
        for wm in range(total + 1):
            for mu in shapes[wm]:
                x = SchurElement.basis(mu)
                for nu in shapes[total - wm]:
                    y = SchurElement.basis(nu)
                    prod = x * y
                    for wr in range(total + 1):
                        for rho in shapes[wr]:
                            lhs = prod.skew(rho)
                            rhs = SchurElement.zero()
                            for sigma in up_to[wr]:
                                for tau in shapes[wr - sigma.weight]:
                                    c = lr_coefficient(sigma, tau, rho)
                                    if c:
                                        rhs = rhs + (x.skew(sigma) * y.skew(tau)) * c
                            if lhs != rhs:
                                witness = f"mu={mu}, nu={nu}, rho={rho}"
                                break
                        if witness:
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    return _result(f"skew of a product expands by paired skews (total weight <= {bound})", witness)


# -- Hopf axioms in the O/Sp character rings ---------------------------------

def check_char_counitarity(bound: int = 5) -> CheckResult:
    witness = None
    for basis in (Basis.O, Basis.SP):
        for p in _basis_elements(bound):
            x = CharElement.basis_element(basis, p)
            left = CharElement(basis, {})
            right = CharElement(basis, {})
            for (a, b), c in char_coproduct(x).items():
                ea = char_counit(CharElement.basis_element(basis, a))
                eb = char_counit(CharElement.basis_element(basis, b))
                left = left + CharElement.basis_element(basis, b) * (c * ea)
                right = right + CharElement.basis_element(basis, a) * (c * eb)
            if left != x or right != x:
                witness = f"{x}"
                break
        if witness:
            break
    return _result(f"character counit is two-sided (weight <= {bound})", witness)


def check_char_antipode(bound: int = 5) -> CheckResult:
    witness = None
    for basis in (Basis.O, Basis.SP):
        unit = CharElement.basis_element(basis, Partition(()))
        for p in _basis_elements(bound):
            x = CharElement.basis_element(basis, p)
            expect = unit * char_counit(x)
            left = CharElement(basis, {})
            right = CharElement(basis, {})
            for (a, b), c in char_coproduct(x).items():
                sa = char_antipode(CharElement.basis_element(basis, a))
                sb = char_antipode(CharElement.basis_element(basis, b))
                left = left + char_multiply(sa, CharElement.basis_element(basis, b)) * c
                right = right + char_multiply(CharElement.basis_element(basis, a), sb) * c
            if left != expect or right != expect:
                witness = f"{x}: folded to {left} and {right}, expected {expect}"
                break
        if witness:
            break
    return _result(f"character antipode identity, both sides (weight <= {bound})", witness)


def suite_hopf(max_degree: int | None = None) -> list[CheckResult]:
    return [
        check_symm_duality(_cap(7, max_degree)),
        check_schur_identity(_cap(8, max_degree)),
        check_symm_antipode(_cap(7, max_degree)),
        check_symm_counitarity(_cap(8, max_degree)),
        check_coassociativity(_cap(6, max_degree)),
        check_compatibility(_cap(6, max_degree)),
        check_skew_of_skew(_cap(7, max_degree)),
        check_skew_of_product(_cap(6, max_degree)),
        check_char_counitarity(_cap(5, max_degree)),
        check_char_antipode(_cap(5, max_degree)),
    ]


# -- Cauchy kernels -----------------------------------------------------------

def suite_cauchy(max_degree: int | None = None) -> list[CheckResult]:
    cases = [(1, 1, 4), (2, 2, 4), (3, 2, 4), (3, 3, 3), (0, 2, 3)]
    out = []
    for nx, ny, deg in cases:
        if max_degree is not None:
            deg = min(deg, max_degree)
        ok = verify_cauchy(nx, ny, deg)
        out.append(
            CheckResult(
                f"Cauchy kernels in {nx}+{ny} variables (degree <= {deg})",
                ok,
                "" if ok else "truncated expansions differ",
            )
        )
    return out


SUITES = {
    "tables": suite_tables,
    "series": suite_series,
    "hopf": suite_hopf,
    "cauchy": suite_cauchy,
}


def run_suite(name: str, max_degree: int | None = None) -> list[CheckResult]:
    if name == "all":
        out = []
        for key in ("tables", "series", "hopf", "cauchy"):
            out.extend(SUITES[key](max_degree))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)} or 'all'")
    return SUITES[name](max_degree)
