import json

import pytest
from hypothesis import given, settings, strategies as st

from schurhopf.char_rings import (
    Basis,
    CharElement,
    CharTensorElement,
    branch_gl_to_o,
    branch_gl_to_sp,
    char_antipode,
    char_coproduct,
    char_counit,
    char_multiply,
    convert,
    tensor_product,
    tensor_product_generic,
)
from schurhopf import char_rings
from schurhopf.errors import BasisMismatchError, InvalidArgumentError, WeightLimitError
from schurhopf.partition import Partition, get_weight_limit, partitions_up_to, set_weight_limit
from schurhopf.schur_ring import SchurElement
from schurhopf.series import littlewood_series, unit_series


P = Partition


def X(basis, p):
    return CharElement.basis_element(basis, P(p))


def test_basis_parse():
    assert Basis.parse("gl") is Basis.GL
    assert Basis.parse("O") is Basis.O
    assert Basis.parse("sp") is Basis.SP
    assert Basis.parse("Sp") is Basis.SP
    with pytest.raises(ValueError):
        Basis.parse("SU")


def test_branching_goldens_to_o():
    assert dict(branch_gl_to_o(P((4,))).items()) == {
        P((4,)): 1, P((2,)): 1, P(()): 1,
    }
    assert dict(branch_gl_to_o(P((1, 1, 1, 1))).items()) == {
        P((1, 1, 1, 1)): 1,
    }
    assert dict(branch_gl_to_o(P((2, 2, 1, 1))).items()) == {
        P((2, 2, 1, 1)): 1, P((2, 1, 1)): 1, P((1, 1)): 1,
    }


def test_branching_goldens_to_sp():
    assert dict(branch_gl_to_sp(P((4,))).items()) == {P((4,)): 1}
    assert dict(branch_gl_to_sp(P((1, 1, 1, 1))).items()) == {
        P((1, 1, 1, 1)): 1, P((1, 1)): 1, P(()): 1,
    }
    assert dict(branch_gl_to_sp(P((2, 2, 1, 1))).items()) == {
        P((2, 2, 1, 1)): 1,
        P((2, 2)): 1,
        P((2, 1, 1)): 1,
        P((1, 1, 1, 1)): 1,
        P((1, 1)): 2,
        P(()): 1,
    }


def test_tensor_golden_gl():
    got = tensor_product(P((2, 2)), P((2, 1)), Basis.GL)
    assert dict(got.items()) == {
        P((4, 3)): 1,
        P((4, 2, 1)): 1,
        P((3, 3, 1)): 1,
        P((3, 2, 2)): 1,
        P((3, 2, 1, 1)): 1,
        P((2, 2, 2, 1)): 1,
    }


def test_tensor_golden_o_and_sp():
    expect = {
        P((4, 3)): 1, P((4, 2, 1)): 1, P((3, 3, 1)): 1, P((3, 2, 2)): 1,
        P((3, 2, 1, 1)): 1, P((2, 2, 2, 1)): 1,
        P((4, 1)): 1, P((3, 2)): 2, P((3, 1, 1)): 2, P((2, 2, 1)): 2,
        P((2, 1, 1, 1)): 1,
        P((3,)): 1, P((2, 1)): 2, P((1, 1, 1)): 1, P((1,)): 1,
    }
    o = tensor_product(P((2, 2)), P((2, 1)), Basis.O)
    sp = tensor_product(P((2, 2)), P((2, 1)), Basis.SP)
    assert dict(o.items()) == expect
    assert dict(sp.items()) == expect
    assert o.basis is Basis.O
    assert sp.basis is Basis.SP


def test_tensor_small_example():
    got = tensor_product(P((1,)), P((1,)), Basis.O)
    assert dict(got.items()) == {P((2,)): 1, P((1, 1)): 1, P(()): 1}


def test_osp_tensor_tables_coincide():
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4):
            o = tensor_product(lam, mu, Basis.O)
            sp = tensor_product(lam, mu, Basis.SP)
            assert dict(o.items()) == dict(sp.items())


def test_tensor_commutes():
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4):
            for basis in Basis:
                assert tensor_product(lam, mu, basis) == tensor_product(mu, lam, basis)


def test_generic_engine_matches_direct_rules():
    d = littlewood_series("D", 8)
    b = littlewood_series("B", 8)
    u = unit_series(8)
    for lam in partitions_up_to(3):
        for mu in partitions_up_to(3):
            assert tensor_product_generic(lam, mu, d) == tensor_product(lam, mu, Basis.O)
            assert tensor_product_generic(lam, mu, b) == tensor_product(lam, mu, Basis.SP)
            assert tensor_product_generic(lam, mu, u) == tensor_product(lam, mu, Basis.GL)


def test_convert_examples():
    assert dict(convert(X(Basis.GL, (2,)), Basis.O).items()) == {
        P((2,)): 1, P(()): 1,
    }
    assert dict(convert(X(Basis.O, (2,)), Basis.GL).items()) == {
        P((2,)): 1, P(()): -1,
    }
    assert dict(convert(X(Basis.SP, (1, 1)), Basis.GL).items()) == {
        P((1, 1)): 1, P(()): -1,
    }
    same = convert(X(Basis.O, (2, 1)), Basis.O)
    assert same == X(Basis.O, (2, 1))


def test_convert_round_trips():
    pairs = [(a, b) for a in Basis for b in Basis if a is not b]
    for p in partitions_up_to(5):
        for a, b in pairs:
            x = CharElement.basis_element(a, p)
            assert convert(convert(x, b), a) == x, (p, a, b)


def test_branch_agrees_with_convert():
    for p in partitions_up_to(5):
        gl = CharElement.basis_element(Basis.GL, p)
        assert branch_gl_to_o(p) == convert(gl, Basis.O)
        assert branch_gl_to_sp(p) == convert(gl, Basis.SP)


def test_branching_coefficients_nonnegative():
    for p in partitions_up_to(6):
        assert all(c > 0 for _, c in branch_gl_to_o(p).items())
        assert all(c > 0 for _, c in branch_gl_to_sp(p).items())


def test_mixed_basis_arithmetic_rejected():
    o = X(Basis.O, (1,))
    sp = X(Basis.SP, (1,))
    with pytest.raises(BasisMismatchError) as exc:
        o + sp
    assert "convert" in str(exc.value)
    with pytest.raises(BasisMismatchError):
        char_multiply(o, sp)
    with pytest.raises(BasisMismatchError):
        o - sp


def test_char_multiply_bilinear():
    a = X(Basis.O, (2,))
    b = X(Basis.O, (1, 1))
    c = X(Basis.O, (1,))
    lhs = char_multiply(a + 2 * b, c)
    rhs = char_multiply(a, c) + 2 * char_multiply(b, c)
    assert lhs == rhs


def test_char_coproduct_o_example():
    cop = char_coproduct(X(Basis.O, (2,)))
    table = {k: v for k, v in cop.items()}
    assert table == {
        (P((2,)), P(())): 1,
        (P((1,)), P((1,))): 1,
        (P(()), P((2,))): 1,
        (P(()), P(())): 1,
    }


def test_char_coproduct_gl_matches_symm():
    for p in partitions_up_to(4):
        cop = char_coproduct(X(Basis.GL, p))
        symm = SchurElement.basis(p).coproduct()
        assert {k: v for k, v in cop.items()} == {k: v for k, v in symm.items()}


def test_char_counit_values():
    assert char_counit(X(Basis.GL, ())) == 1
    assert char_counit(X(Basis.GL, (2,))) == 0
    assert char_counit(X(Basis.O, ())) == 1
    assert char_counit(X(Basis.O, (1,))) == 0
    assert char_counit(X(Basis.O, (2,))) == -1
    assert char_counit(X(Basis.O, (1, 1))) == 0
    assert char_counit(X(Basis.SP, (2,))) == 0
    assert char_counit(X(Basis.SP, (1, 1))) == -1
    assert char_counit(X(Basis.O, (3, 1))) == 1
    assert char_counit(X(Basis.SP, (2, 1, 1))) == 1


def test_char_antipode_examples():
    assert char_antipode(X(Basis.GL, (2,))) == X(Basis.GL, (1, 1))
    assert char_antipode(X(Basis.O, (1,))) == -X(Basis.O, (1,))
    assert char_antipode(X(Basis.O, ())) == X(Basis.O, ())
    assert char_antipode(X(Basis.SP, (1,))) == -X(Basis.SP, (1,))
    assert dict(char_antipode(X(Basis.O, (2,))).items()) == {
        P((1, 1)): 1, P(()): -1,
    }


def test_char_antipode_axiom_small():
    for basis in (Basis.O, Basis.SP):
        for p in partitions_up_to(3):
            x = CharElement.basis_element(basis, p)
            unit = CharElement.basis_element(basis, P(()))
            expect = unit * char_counit(x)
            folded = CharElement(basis, {})
            for (a, b), c in char_coproduct(x).items():
                sa = char_antipode(CharElement.basis_element(basis, a))
                folded = folded + char_multiply(sa, CharElement.basis_element(basis, b)) * c
            assert folded == expect, (basis, p)


# The Hopf axioms of CharGL, CharO and CharSp, on small weights.
_BASES = [Basis.GL, Basis.O, Basis.SP]
_SMALL = list(partitions_up_to(4))
_PAIRS = [(lam, mu) for lam in _SMALL for mu in _SMALL if lam.weight + mu.weight <= 4]


def _nonzero(table):
    return {k: c for k, c in table.items() if c}


def _slotwise(x, y):
    """(a (x) b)(c (x) d) = ac (x) bd in the character ring of x's basis."""
    table = {}
    for (a, b), u in x.items():
        for (c, d), v in y.items():
            left = tensor_product(a, c, x.basis)
            right = tensor_product(b, d, x.basis)
            for p, s in left.items():
                for q, t in right.items():
                    table[p, q] = table.get((p, q), 0) + u * v * s * t
    return _nonzero(table)


@pytest.mark.parametrize("basis", _BASES)
def test_char_coproduct_is_coassociative(basis):
    for lam in _SMALL:
        left, right = {}, {}
        for (a, b), c in char_coproduct(X(basis, lam)).items():
            for (a1, a2), d in char_coproduct(X(basis, a)).items():
                left[a1, a2, b] = left.get((a1, a2, b), 0) + c * d
            for (b1, b2), d in char_coproduct(X(basis, b)).items():
                right[a, b1, b2] = right.get((a, b1, b2), 0) + c * d
        assert _nonzero(left) == _nonzero(right), (basis, lam)


@pytest.mark.parametrize("basis", _BASES)
def test_char_coproduct_is_an_algebra_map(basis):
    for lam, mu in _PAIRS:
        x, y = X(basis, lam), X(basis, mu)
        got = _nonzero(char_coproduct(char_multiply(x, y)))
        assert got == _slotwise(char_coproduct(x), char_coproduct(y)), (lam, mu)


@pytest.mark.parametrize("basis", _BASES)
def test_char_counit_is_multiplicative(basis):
    for lam, mu in _PAIRS:
        x, y = X(basis, lam), X(basis, mu)
        assert char_counit(char_multiply(x, y)) == char_counit(x) * char_counit(y)


@pytest.mark.parametrize("basis", _BASES)
def test_char_multiply_is_associative(basis):
    shapes = list(partitions_up_to(2))
    for lam in shapes:
        for mu in shapes:
            for nu in shapes:
                x, y, z = X(basis, lam), X(basis, mu), X(basis, nu)
                lhs = char_multiply(char_multiply(x, y), z)
                assert lhs == char_multiply(x, char_multiply(y, z)), (lam, mu, nu)


NOT_A_CHARACTER = {
    "convert": lambda: convert(SchurElement.basis((1,)), "O"),
    "char_counit": lambda: char_counit(SchurElement.basis((2, 1))),
    "char_antipode": lambda: char_antipode(SchurElement.basis((2, 1))),
    "char_coproduct": lambda: char_coproduct(SchurElement.basis((2, 1))),
    "char_multiply, left": lambda: char_multiply(SchurElement.basis((2, 1)), X(Basis.O, (1,))),
    "char_multiply, right": lambda: char_multiply(X(Basis.O, (1,)), SchurElement.basis((2, 1))),
    "tensor_product_generic": lambda: tensor_product_generic((1,), (1,), "D"),
}


@pytest.mark.parametrize("name", list(NOT_A_CHARACTER))
def test_ring_maps_reject_arguments_of_another_type(name):
    before = char_rings._conversion.cache_info().currsize
    with pytest.raises(InvalidArgumentError):
        NOT_A_CHARACTER[name]()
    # nothing is cached under a key built from the wrong argument
    assert char_rings._conversion.cache_info().currsize == before


def test_as_schur_element():
    x = X(Basis.O, (2, 1))
    assert x.as_schur_element() == SchurElement.basis(P((2, 1)))


def test_json_round_trip_with_basis():
    x = convert(X(Basis.O, (2,)), Basis.GL)
    obj = x.to_json()
    assert obj["basis"] == "GL"
    assert CharElement.from_json(json.loads(json.dumps(obj))) == x
    y = X(Basis.SP, (2, 1))
    assert CharElement.from_json(y.to_json()) == y
    assert CharElement.from_json(y.to_json()).basis is Basis.SP


def test_char_tensor_json():
    cop = char_coproduct(X(Basis.O, (2,)))
    obj = cop.to_json()
    assert obj["basis"] == "O"
    for term in obj["terms"]:
        assert set(term) == {"left", "right", "coeff"}


def test_str_renderings():
    assert str(X(Basis.GL, (2, 1))) == "{21}"
    assert str(X(Basis.O, (2, 2, 1, 1))) == "[2^2 1^2]"
    assert str(X(Basis.SP, (1, 1))) == "⟨1^2⟩"
    assert str(branch_gl_to_o(P((2, 2, 1, 1)))) == "[2^2 1^2]+[21^2]+[1^2]"
    assert str(convert(X(Basis.SP, (1, 1)), Basis.GL)) == "{1^2}-{0}"


def test_construction_rejects_bool_coefficients():
    with pytest.raises(TypeError):
        CharElement(Basis.O, {(1,): True})
    with pytest.raises(TypeError):
        CharTensorElement(Basis.SP, {((1,), ()): True})
    with pytest.raises(TypeError):
        CharTensorElement(Basis.SP, {((1,), ()): 0.5})
    with pytest.raises(TypeError):
        X(Basis.O, (1,)) * True


def test_elements_over_a_lowered_weight_limit_raise_weight_limit_error():
    # built at the default limit, then read at a lower one: every map that
    # has to skew or split the element stops at the limit, the same way on
    # every path; a same-basis convert and the GL antipode only relabel
    old = get_weight_limit()
    xs = [X(b, (6, 6)) for b in Basis]
    set_weight_limit(10)
    try:
        for x in xs:
            for to in Basis:
                if to is x.basis:
                    assert convert(x, to) == x
                    continue
                with pytest.raises(WeightLimitError):
                    convert(x, to)
            with pytest.raises(WeightLimitError):
                char_coproduct(x)
            with pytest.raises(WeightLimitError):
                char_multiply(x, X(x.basis, (1,)))
            if x.basis is Basis.GL:
                assert dict(char_antipode(x).items()) == {(2,) * 6: 1}
                continue
            with pytest.raises(WeightLimitError):
                char_antipode(x)
    finally:
        set_weight_limit(old)


mixed_elements = st.builds(
    CharElement,
    st.sampled_from(list(Basis)),
    st.dictionaries(
        st.sampled_from([tuple(p) for p in partitions_up_to(6)]),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=4,
    ),
)


@given(mixed_elements)
@settings(max_examples=60, deadline=None)
def test_antipode_and_conversions_invert_on_mixed_elements(x):
    assert char_antipode(char_antipode(x)) == x
    for b in Basis:
        if b is not x.basis:
            assert convert(convert(x, b), x.basis) == x
