import json

import pytest
from hypothesis import given, settings, strategies as st

from schurhopf import lr
from schurhopf.partition import Partition, partitions_up_to, subpartitions
from schurhopf.schur_ring import SchurElement, TensorElement


P = Partition
s = SchurElement.basis


def element_strategy(max_weight=5, max_terms=4):
    parts = st.sampled_from(partitions_up_to(max_weight))
    coeffs = st.integers(min_value=-3, max_value=3)
    return st.dictionaries(parts, coeffs, max_size=max_terms).map(SchurElement)


def test_construction_and_equality():
    x = SchurElement({P((2,)): 1, P((1, 1)): 2})
    y = SchurElement([(P((1, 1)), 2), (P((2,)), 1)])
    assert x == y
    assert SchurElement({P((1,)): 0}) == SchurElement.zero()
    assert SchurElement([((1,), 1), ((1,), -1)]) == SchurElement.zero()


def test_construction_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        SchurElement({P((1,)): 0.5})
    with pytest.raises(TypeError):
        SchurElement({P((1,)): "2"})
    with pytest.raises(TypeError):
        SchurElement({P((1,)): True})
    with pytest.raises(TypeError):
        TensorElement({(P((1,)), P((1,))): True})
    # scaling by a bool is rejected like a bool coefficient
    with pytest.raises(TypeError):
        s(P((1,))) * True
    with pytest.raises(TypeError):
        True * s(P((1,)))
    with pytest.raises(TypeError):
        TensorElement({(P((1,)), P(())): 1}) * True


def test_additive_group():
    x = s(P((2,))) + s(P((1, 1)))
    y = x - s(P((2,)))
    assert y == s(P((1, 1)))
    assert x + (-x) == SchurElement.zero()
    assert 3 * s(P((1,))) - s(P((1,))) * 3 == SchurElement.zero()


def test_multiplication_matches_lr():
    got = s(P((2, 2))) * s(P((2, 1)))
    assert got.coefficient(P((4, 3))) == 1
    assert got.coefficient(P((2, 2, 2, 1))) == 1
    assert len(got) == 6
    assert s(P(())) * got == got
    assert SchurElement.zero() * got == SchurElement.zero()


def test_multiplication_is_bilinear():
    a, b, c = s(P((2,))), s(P((1, 1))), s(P((1,)))
    assert (a + 2 * b) * c == a * c + 2 * (b * c)


def test_skew_accepts_partition_or_element():
    x = s(P((2, 1)))
    assert x.skew(P((1,))) == s(P((2,))) + s(P((1, 1)))
    assert x.skew(s(P((1,)))) == s(P((2,))) + s(P((1, 1)))
    assert x.skew(P(())) == x
    assert x.skew(P((3,))) == SchurElement.zero()


def test_scalar_product_orthonormal():
    assert s(P((2, 1))).scalar_product(s(P((2, 1)))) == 1
    assert s(P((2, 1))).scalar_product(s(P((3,)))) == 0
    x = 2 * s(P((2,))) + 3 * s(P((1, 1)))
    y = s(P((2,))) - s(P((1, 1)))
    assert x.scalar_product(y) == -1


def test_coproduct_of_row():
    cop = s(P((2,))).coproduct()
    assert cop == (
        TensorElement.pure(s(P((2,))), s(P(())))
        + TensorElement.pure(s(P((1,))), s(P((1,))))
        + TensorElement.pure(s(P(())), s(P((2,))))
    )


def test_coproduct_degrees_split():
    cop = s(P((3, 1))).coproduct()
    for (a, b), c in cop.items():
        assert a.weight + b.weight == 4
        assert c > 0


def test_coproduct_is_every_skew_of_the_shape():
    # coproduct skews only by the heavier half of the inner shapes and
    # mirrors the rest; the table must still be sum_lam lam (x) nu/lam
    for nu in partitions_up_to(8):
        expected = {
            (lam, mu): c
            for lam in subpartitions(nu)
            for mu, c in lr.skew_expansion(nu, lam).items()
        }
        assert dict(s(nu).coproduct().items()) == expected, nu


def test_counit():
    assert s(P(())).counit() == 1
    assert s(P((2, 1))).counit() == 0
    assert (5 * s(P(())) + s(P((3,)))).counit() == 5


def test_antipode_examples():
    assert s(P((2,))).antipode() == s(P((1, 1)))
    assert s(P((2, 1))).antipode() == -s(P((2, 1)))
    assert s(P(())).antipode() == s(P(()))


@given(element_strategy(), element_strategy())
@settings(max_examples=40, deadline=None)
def test_antipode_is_multiplicative(x, y):
    assert (x * y).antipode() == x.antipode() * y.antipode()


@given(element_strategy(max_weight=4))
@settings(max_examples=40, deadline=None)
def test_coproduct_cocommutative(x):
    cop = x.coproduct()
    assert cop == cop.swap()


@given(element_strategy(max_weight=4), element_strategy(max_weight=4))
@settings(max_examples=30, deadline=None)
def test_skew_is_adjoint_to_multiplication(x, y):
    for nu in partitions_up_to(8):
        z = s(nu)
        lhs = z.scalar_product(x * y)
        rhs = z.skew(x).scalar_product(y)
        assert lhs == rhs


def test_tensor_multiply_slotwise():
    t = TensorElement.pure(s(P((1,))), s(P((1,))))
    sq = t * t
    expect = TensorElement.pure(
        s(P((2,))) + s(P((1, 1))), s(P((2,))) + s(P((1, 1)))
    )
    assert sq == expect
    unit = TensorElement.pure(s(P(())), s(P(())))
    assert unit * t == t
    # the two (1)(x)(1) terms cancel as the product is accumulated
    s1, one = s(P((1,))), s(P(()))
    x = TensorElement.pure(s1, one) - TensorElement.pure(one, s1)
    y = TensorElement.pure(one, s1) + TensorElement.pure(s1, one)
    assert str(x * y) == "{2}⊗{0}+{1^2}⊗{0}-{0}⊗{2}-{0}⊗{1^2}"
    assert (P((1,)), P((1,))) not in dict((x * y).items())


def test_tensor_left_component():
    t = s(P((2, 1))).coproduct()
    assert t.left_component(P((1,))) == s(P((2,))) + s(P((1, 1)))


def test_homogeneous_component_and_degrees():
    x = s(P((2,))) + s(P((1,))) + s(P(()))
    assert x.degrees() == {0, 1, 2}
    assert x.max_degree() == 2
    assert x.homogeneous_component(1) == s(P((1,)))
    assert x.homogeneous_component(5) == SchurElement.zero()


def test_json_round_trip():
    x = 2 * s(P((3, 1))) - s(P((2, 2))) + s(P(()))
    obj = x.to_json()
    assert obj == {
        "terms": [
            {"partition": [3, 1], "coeff": 2},
            {"partition": [2, 2], "coeff": -1},
            {"partition": [], "coeff": 1},
        ]
    }
    assert SchurElement.from_json(json.loads(json.dumps(obj))) == x


def test_tensor_json_round_trip():
    t = s(P((2,))).coproduct()
    obj = t.to_json()
    for term in obj["terms"]:
        assert set(term) == {"left", "right", "coeff"}
    assert TensorElement.from_json(json.loads(json.dumps(obj))) == t


def test_str_rendering():
    assert str(s(P((2, 2))) * s(P((2, 1)))) == (
        "{43}+{421}+{3^2 1}+{32^2}+{321^2}+{2^3 1}"
    )
    assert str(-s(P((1, 1)))) == "-{1^2}"
    assert str(SchurElement.zero()) == "0"
    assert str(s(P((2,))).coproduct()) == "{2}⊗{0}+{1}⊗{1}+{0}⊗{2}"


@given(element_strategy(), element_strategy(), element_strategy())
@settings(max_examples=30, deadline=None)
def test_ring_axioms(x, y, z):
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert x * SchurElement.one() == x

