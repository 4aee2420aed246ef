"""Failure paths of the verify checks, and the one rule that builds results.

Each case breaks one name in verify's namespace (a function, or a method of
a class verify uses) so that a check finds a counterexample, then pins the
whole CheckResult: the check name, the FAIL flag and the witness text (the
Cauchy case pins the suite's five results).  The expected values were
captured from the passing implementation, so a change to how a check stops
at its first witness shows up here.
"""

import ast
from pathlib import Path

import pytest

from schurhopf import _oracle, verify
from schurhopf.char_rings import (
    Basis,
    CharElement,
    char_counit,
    convert,
    tensor_product,
    tensor_product_generic,
)
from schurhopf.lr import lr_coefficient
from schurhopf.partition import Partition, parse_partition, subpartitions
from schurhopf.schur_ring import SchurElement, TensorElement, TermTable
from schurhopf.series import SchurSeries, delta_double_prime, littlewood_series
from schurhopf.verify import CheckResult


def _wrong_tensor(lam, mu, basis):
    if basis is Basis.GL:
        return tensor_product(lam, mu, basis)
    return CharElement.basis_element(basis, lam)


def _doubled(real, when=lambda *args: True):
    def fake(*args):
        got = real(*args)
        return got * 2 if when(*args) else got
    return fake


def _generic_breaking(series_name):
    return _doubled(
        tensor_product_generic,
        lambda lam, mu, t: t.name == series_name and lam.weight == 1 and mu.weight == 2,
    )


def _series_changed(name, deg, change):
    """littlewood_series with the degree-deg term of series `name` changed."""
    def fake(n, cutoff):
        real = littlewood_series(n, cutoff)
        if n != name:
            return real
        return SchurSeries(
            lambda d: change(real.term(d)) if d == deg else real.term(d), cutoff
        )
    return fake


_REAL_COPRODUCT = SchurElement.coproduct
_REAL_SKEW = SchurElement.skew


def _odd_series(name, cutoff):
    real = littlewood_series(name, cutoff)
    return SchurSeries(
        lambda d: real.term(d) if d < 3 else SchurElement.basis((d,)), cutoff
    )


def _dropping_subpartitions(nu):
    subs = list(subpartitions(nu))
    return subs[:-1] if nu.weight >= 2 else subs


def _doubling_lr(sigma, tau, rho):
    c = lr_coefficient(sigma, tau, rho)
    return 2 * c if rho.weight >= 2 else c


def _oracle_missing_a_term(name, d):
    term = _oracle.series_term_by_expansion(name, d)
    if name == "A" and d == 8:
        del term[min(term)]
    return term


FORCED_FAILURES = [
    pytest.param(
        "check_tensor_goldens", (), "tensor_product", _wrong_tensor,
        CheckResult("tensor goldens {2^2}*{21} in GL, O, Sp", False, "O: got [2^2]"),
        id="tensor_goldens",
    ),
    pytest.param(
        "check_generic_engine", (2,), "tensor_product_generic", _generic_breaking("D"),
        CheckResult("generic series engine matches direct rules (weights <= 2)",
                    False, "T=D: lambda=1, mu=2"),
        id="generic_engine_D",
    ),
    pytest.param(
        "check_generic_engine", (2,), "tensor_product_generic", _generic_breaking("B"),
        CheckResult("generic series engine matches direct rules (weights <= 2)",
                    False, "T=B: lambda=1, mu=2"),
        id="generic_engine_B",
    ),
    pytest.param(
        "check_generic_engine", (2,), "tensor_product_generic", _generic_breaking("unit"),
        CheckResult("generic series engine matches direct rules (weights <= 2)",
                    False, "T=unit: lambda=1, mu=2"),
        id="generic_engine_unit",
    ),
    pytest.param(
        "check_bd_supports", (6,), "littlewood_series", _odd_series,
        CheckResult("B and D have unit coefficients on the stated supports "
                    "(degree <= 6)", False, "odd degree 3 not zero"),
        id="bd_supports_odd",
    ),
    pytest.param(
        "check_series_inverses", (6,), "series_inverse",
        lambda s, bound: littlewood_series("B", bound),
        CheckResult("A*B = C*D = unit and inverse(C) = D (degree <= 6)",
                    False, "inverse(C) vs D at degree 2"),
        id="series_inverses_inverse",
    ),
    pytest.param(
        "check_symm_duality", (4,), "subpartitions", _dropping_subpartitions,
        CheckResult("product/skew/coproduct duality (weight <= 4)",
                    False, "coproduct table of nu=2"),
        id="symm_duality_table",
    ),
    pytest.param(
        "check_skew_of_product", (3,), "lr_coefficient", _doubling_lr,
        CheckResult("skew of a product expands by paired skews (total weight <= 3)",
                    False, "mu=0, nu=2, rho=2"),
        id="skew_of_product",
    ),
    pytest.param(
        "check_ca_oracle", (8,), "series_term_by_expansion", _oracle_missing_a_term,
        CheckResult("A and C match the defining-product oracle (degree <= 8)",
                    False, "A degree 8 disagrees with product expansion"),
        id="ca_oracle_missing_term",
    ),
    pytest.param(
        "check_branching_goldens", (), "parse_partition",
        lambda text: Partition((2,)) if text == "4" else parse_partition(text),
        CheckResult("branching goldens ({4},{1^4},{2^2 1^2} to O and Sp)",
                    False, "branch 4 -> O: got [2]+[0]"),
        id="branching_goldens",
    ),
    pytest.param(
        "check_osp_coincidence", (2,), "tensor_product",
        _doubled(tensor_product, lambda lam, mu, basis: basis is Basis.SP),
        CheckResult("O/Sp tensor coefficient coincidence (weights <= 2)",
                    False, "lambda=0, mu=0"),
        id="osp_coincidence",
    ),
    pytest.param(
        "check_conversion_round_trips", (2,), "convert",
        _doubled(convert, lambda x, to: to is Basis.O),
        CheckResult("conversion round-trips, all basis pairs (weight <= 2)",
                    False, "{0} via O: got 2{0}"),
        id="conversion_round_trips",
    ),
    pytest.param(
        "check_branch_convert_consistency", (2,), "convert",
        _doubled(convert, lambda x, to: to is Basis.O),
        CheckResult("branch agrees with convert (weight <= 2)",
                    False, "O branch of 0"),
        id="branch_convert_O",
    ),
    pytest.param(
        "check_branch_convert_consistency", (2,), "convert",
        _doubled(convert, lambda x, to: to is Basis.SP),
        CheckResult("branch agrees with convert (weight <= 2)",
                    False, "Sp branch of 0"),
        id="branch_convert_Sp",
    ),
    pytest.param(
        "check_sigma_bound", (2,), "partitions_of", lambda w: [Partition(())],
        CheckResult("sigma sums bounded by min weight (weights <= 2)",
                    False, "sigma=0 survives lambda=0, mu=1"),
        id="sigma_bound",
    ),
    pytest.param(
        "check_tensor_commutativity", (2,), "tensor_product",
        _doubled(tensor_product, lambda lam, mu, basis: lam.weight > mu.weight),
        CheckResult("tensor products commute in every basis (weights <= 2)",
                    False, "GL: lambda=0, mu=1"),
        id="tensor_commutativity",
    ),
    pytest.param(
        "check_bd_supports", (4,), "littlewood_series",
        _series_changed("D", 2, lambda t: t * 2),
        CheckResult("B and D have unit coefficients on the stated supports "
                    "(degree <= 4)", False, "D degree 2"),
        id="bd_supports_D",
    ),
    pytest.param(
        "check_bd_supports", (4,), "littlewood_series",
        _series_changed("B", 2, lambda t: t * 2),
        CheckResult("B and D have unit coefficients on the stated supports "
                    "(degree <= 4)", False, "B degree 2"),
        id="bd_supports_B",
    ),
    pytest.param(
        "check_ca_oracle", (4,), "littlewood_series",
        _series_changed("A", 1, lambda t: SchurElement.basis((1,))),
        CheckResult("A and C match the defining-product oracle (degree <= 4)",
                    False, "A odd degree 1 not zero"),
        id="ca_oracle_odd",
    ),
    pytest.param(
        "check_ca_oracle", (4,), "littlewood_series",
        _series_changed("A", 2, lambda t: -t),
        CheckResult("A and C match the defining-product oracle (degree <= 4)",
                    False, "A degree 2: coefficient not -1"),
        id="ca_oracle_sign",
    ),
    pytest.param(
        "check_conjugation_duality", (4,), "littlewood_series",
        _series_changed("C", 2, lambda t: t * 2),
        CheckResult("conjugation maps C to A and D to B (degree <= 4)",
                    False, "C vs A at degree 2"),
        id="conjugation_duality",
    ),
    pytest.param(
        "check_series_inverses", (4,), "series_product", lambda s, t, bound: s,
        CheckResult("A*B = C*D = unit and inverse(C) = D (degree <= 4)",
                    False, "A*B degree 2"),
        id="series_inverses_product",
    ),
    pytest.param(
        "check_delta_double_prime", (4,), "delta_double_prime",
        lambda t, bound: delta_double_prime(littlewood_series("A", bound), bound),
        CheckResult("split coproduct of D and B is diagonal (degree <= 4)", False,
                    "D: first defect sigma=1, tau=1, coefficient -1"),
        id="delta_double_prime",
    ),
    pytest.param(
        "check_symm_duality", (2,), "SchurElement.coefficient",
        lambda self, p: 2 * TermTable.coefficient(self, p),
        CheckResult("product/skew/coproduct duality (weight <= 2)",
                    False, "scalar vs skew at nu=0, lambda=0, mu=0"),
        id="symm_duality_scalar",
    ),
    pytest.param(
        "check_schur_identity", (3,), "subpartitions", _dropping_subpartitions,
        CheckResult("alternating skew identity collapses (weight <= 3)",
                    False, "nu=2: got -{2}"),
        id="schur_identity",
    ),
    pytest.param(
        "check_symm_antipode", (2,), "SchurElement.antipode", lambda self: self,
        CheckResult("antipode identity, both sides (weight <= 2)",
                    False, "basis element 1"),
        id="symm_antipode",
    ),
    pytest.param(
        "check_symm_counitarity", (2,), "SchurElement.counit", lambda self: 1,
        CheckResult("counit is a two-sided counit (weight <= 2)",
                    False, "basis element 1"),
        id="symm_counitarity",
    ),
    pytest.param(
        "check_coassociativity", (2,), "SchurElement.coproduct",
        lambda self: _REAL_COPRODUCT(self) + TensorElement.pure(self, self),
        CheckResult("coproduct is coassociative and cocommutative (weight <= 2)",
                    False, "basis element 1"),
        id="coassociativity",
    ),
    pytest.param(
        "check_coassociativity", (2,), "SchurElement.coproduct",
        lambda self: TensorElement.pure(self, SchurElement.one()),
        CheckResult("coproduct is coassociative and cocommutative (weight <= 2)",
                    False, "cocommutativity fails at 1"),
        id="cocommutativity",
    ),
    pytest.param(
        "check_compatibility", (2,), "SchurElement.coproduct",
        lambda self: _REAL_COPRODUCT(self) * 2,
        CheckResult("coproduct is an algebra map (total weight <= 2)",
                    False, "lambda=0, mu=0"),
        id="compatibility",
    ),
    pytest.param(
        "check_skew_of_skew", (2,), "SchurElement.skew",
        lambda self, inner: _REAL_SKEW(self, inner) * (
            2 if isinstance(inner, SchurElement) else 1),
        CheckResult("iterated skew matches skew by the product (weight <= 2)",
                    False, "lambda=0, mu=0, nu=0"),
        id="skew_of_skew",
    ),
    pytest.param(
        "check_char_counitarity", (2,), "char_counit", _doubled(char_counit),
        CheckResult("character counit is two-sided (weight <= 2)", False, "[0]"),
        id="char_counitarity",
    ),
    pytest.param(
        "check_char_antipode", (2,), "char_antipode", lambda x: x,
        CheckResult("character antipode identity, both sides (weight <= 2)",
                    False, "[1]: folded to 2[1] and 2[1], expected 0"),
        id="char_antipode",
    ),
    pytest.param(
        "suite_cauchy", (), "verify_cauchy", lambda nx, ny, deg: nx != 3,
        [
            CheckResult("Cauchy kernels in 1+1 variables (degree <= 4)", True),
            CheckResult("Cauchy kernels in 2+2 variables (degree <= 4)", True),
            CheckResult("Cauchy kernels in 3+2 variables (degree <= 4)",
                        False, "truncated expansions differ"),
            CheckResult("Cauchy kernels in 3+3 variables (degree <= 3)",
                        False, "truncated expansions differ"),
            CheckResult("Cauchy kernels in 0+2 variables (degree <= 3)", True),
        ],
        id="cauchy",
    ),
]


@pytest.mark.parametrize("check, args, name, fake, expected", FORCED_FAILURES)
def test_forced_failure_reports_first_witness(monkeypatch, check, args, name, fake, expected):
    monkeypatch.setattr(f"schurhopf.verify.{name}", fake)
    assert getattr(verify, check)(*args) == expected


def test_only_the_check_decorator_builds_results():
    # The verify_all benchmark times each check by the one CheckResult it
    # builds; with every result built in _check, each check builds one.
    tree = ast.parse(Path(verify.__file__).read_text())
    builders = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "CheckResult":
                builders.add(getattr(stmt, "name", "<module>"))
    assert builders == {"_check"}
    checks = [
        stmt.name for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("check_")
    ]
    assert len(checks) == 24
    assert [name for name in checks if not hasattr(vars(verify)[name], "claimed")] == []
