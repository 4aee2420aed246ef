"""Failure paths of the verify checks.

Each case breaks one name in verify's namespace so that a check finds a
counterexample, then pins the whole CheckResult: the check name, the FAIL
flag and the witness text.  The expected values were captured from the
passing implementation, so a change to how a check stops at its first
witness shows up here.
"""

import pytest

from schurhopf import _oracle, verify
from schurhopf.char_rings import Basis, CharElement, tensor_product, tensor_product_generic
from schurhopf.lr import lr_coefficient
from schurhopf.partition import subpartitions
from schurhopf.schur_ring import SchurElement
from schurhopf.series import SchurSeries, littlewood_series
from schurhopf.verify import CheckResult


def _wrong_tensor(lam, mu, basis):
    if basis is Basis.GL:
        return tensor_product(lam, mu, basis)
    return CharElement.basis_element(basis, lam)


def _generic_breaking(series_name):
    def generic(lam, mu, t):
        got = tensor_product_generic(lam, mu, t)
        if t.name == series_name and lam.weight == 1 and mu.weight == 2:
            return got * 2
        return got
    return generic


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
]


@pytest.mark.parametrize("check, args, name, fake, expected", FORCED_FAILURES)
def test_forced_failure_reports_first_witness(monkeypatch, check, args, name, fake, expected):
    monkeypatch.setattr(verify, name, fake)
    assert getattr(verify, check)(*args) == expected
