"""The brute-force oracle: its polynomial arithmetic, its dominant-monomial
expansion against the earlier full-polynomial route, and its independence
from the code it referees."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle_reference
import schurhopf
from schurhopf import _oracle
from schurhopf.partition import partitions_up_to


def _polys(nvars):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exps, st.integers(-3, 3).filter(bool), max_size=6)


@st.composite
def _poly_pairs(draw):
    nvars = draw(st.integers(1, 3))
    return draw(_polys(nvars)), draw(_polys(nvars))


def _naive_mul(a, b, max_deg):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {
        e: c for e, c in out.items() if c and (max_deg is None or sum(e) <= max_deg)
    }


@settings(max_examples=200, deadline=None)
@given(_poly_pairs(), st.one_of(st.none(), st.integers(0, 12)))
def test_poly_mul_matches_naive_truncated_product(pair, max_deg):
    a, b = pair
    assert _oracle.poly_mul(a, b, max_deg) == _naive_mul(a, b, max_deg)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([tuple(p) for p in partitions_up_to(7)]))
def test_kostka_row_is_the_dominant_part_of_the_schur_polynomial(lam):
    nvars = max(sum(lam), 1)
    dominant = {
        tuple(x for x in e if x): c
        for e, c in _oracle.schur_polynomial(lam, nvars).items()
        if list(e) == sorted(e, reverse=True)
    }
    assert _oracle.kostka_row(lam) == dominant


def test_series_terms_match_the_full_polynomial_route():
    for name in "ABCD":
        for d in range(7):
            assert _oracle.series_term_by_expansion(name, d) == (
                oracle_reference.series_term_by_expansion(name, d)
            ), (name, d)
    for name in "AC":
        assert _oracle.series_term_by_expansion(name, 8) == (
            oracle_reference.series_term_by_expansion(name, 8)
        ), name


def test_products_match_the_full_polynomial_route():
    shapes = [tuple(p) for p in partitions_up_to(7)]
    for lam in shapes:
        for mu in shapes:
            if sum(lam) + sum(mu) <= 7:
                assert _oracle.product_in_schur_basis(lam, mu) == (
                    oracle_reference.product_in_schur_basis(lam, mu)
                ), (lam, mu)


def test_expansion_needs_enough_variables():
    with pytest.raises(ValueError, match="as many variables as the degree"):
        oracle_reference.schur_expand_homogeneous({(2, 1): 1, (1, 2): 1}, 2)
    # the library's own expansion keeps the guard: degree 3 in 2 variables
    with pytest.raises(ValueError, match="as many variables as the degree"):
        _oracle.schur_expand_dominant({(2, 1): 1}, 2)


def test_expansion_refuses_a_non_symmetric_polynomial():
    twin_differs = {(2, 1, 0): 1, (1, 2, 0): 2, (1, 0, 2): 1, (0, 1, 2): 1}
    with pytest.raises(ValueError, match="not symmetric"):
        oracle_reference.schur_expand_homogeneous(twin_differs, 3)
    # every present monomial agrees with its twin, but the orbit of x^(2,1,0)
    # is missing members
    for partial in ({(2, 1, 0): 1}, {(2, 1, 0): 1, (1, 2, 0): 1}):
        with pytest.raises(ValueError, match="not symmetric"):
            oracle_reference.schur_expand_homogeneous(partial, 3)
    # the dominant expansion reads {(2,1,0): 1} as m_21 = s_21 - 2 s_111
    assert _oracle.schur_expand_dominant({(2, 1, 0): 1}, 3) == {(2, 1): 1, (1, 1, 1): -2}
    # s_2 s_1 in full reads back as s_3 + s_21
    prod = _oracle.poly_mul(_oracle.schur_polynomial((2,), 3), _oracle.schur_polynomial((1,), 3))
    assert oracle_reference.schur_expand_homogeneous(prod, 3) == {(3,): 1, (2, 1): 1}


def test_horizontal_extensions_of_a_tall_shape():
    # one range per row of the cap, with no recursion per row
    mu = (1,) * 1499
    got = _oracle.horizontal_extensions(mu, (2,) * 1500)
    assert got == [
        (mu, 0),
        (mu + (1,), 1),
        ((2,) + mu[1:], 1),
        ((2,) + mu, 2),
    ]


def _package_imports(module: str) -> set[str]:
    """Package modules that `module` imports, directly or through others.
    The package imports its own modules only in relative form."""
    root = Path(schurhopf.__file__).parent
    seen: set[str] = set()
    todo = [module]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        source = root / f"{name}.py"
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo.extend([node.module] if node.module else [a.name for a in node.names])
    return seen - {module}


def test_oracle_is_independent_of_the_lr_code():
    refereed = {"lr", "_lrkernel_py", "schur_ring", "series"}
    assert not _package_imports("_oracle") & refereed
