import json

import pytest
from hypothesis import given, settings, strategies as st

from schurhopf import lr, schur_ring, verify
from schurhopf.partition import Partition, clear_caches, partitions_up_to, subpartitions
from schurhopf.schur_ring import SchurElement, TensorElement, _coproduct, _linear


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


def test_skew_drops_inner_shapes_that_cannot_fit_before_lr():
    # (3) is wider and (1,1,1) taller than (2,2), though neither is heavier,
    # and (3,2) is heavier than (3,1): every pair is dropped without a call
    # to lr's skew table, one by one or in a sum
    cases = [
        (s(P((2, 2))), s(P((3,))) + s(P((1, 1, 1)))),
        (-2 * s(P((2, 2))), P((3,))),
        (-2 * s(P((2, 2))), P((1, 1, 1))),
        (-2 * s(P((3, 1))), P((3, 2))),
    ]
    for outer, inner in cases:
        before = lr.cache_info()["skew"]
        got = outer.skew(inner)
        after = lr.cache_info()["skew"]
        assert got == SchurElement.zero()
        assert (after.hits, after.misses) == (before.hits, before.misses)
    # in a mixed sum only (1,1) fits inside (2,2): one skew table is asked for
    clear_caches()
    got = s(P((2, 2))).skew(s(P((3,))) + s(P((1, 1))))
    info = lr.cache_info()["skew"]
    assert (info.hits, info.misses) == (0, 1)
    assert got == s(P((2, 2))).skew(P((1, 1)))


def test_one_by_one_products_and_skews_share_the_lr_table():
    a, b = P((2, 1)), P((1, 1))
    assert (s(a) * s(b))._terms is lr._product_terms(a, b)
    assert s(a).skew(b)._terms is lr._skew_terms(a, b)
    assert s(a).skew(s(b))._terms is lr._skew_terms(a, b)
    assert _linear({a: 1}, lambda k: lr._skew_terms(k, b)) is lr._skew_terms(a, b)


def _scaled(table, k):
    return {r: k * c for r, c in table.items()}


def test_scaled_single_terms_leave_the_cached_tables_alone():
    a, b = P((2, 1)), P((2,))
    product = lr.product_expansion(a, b)
    skew = lr.skew_expansion(a, b)
    assert dict(((3 * s(a)) * s(b)).items()) == _scaled(product, 3)
    assert dict((-s(a)).skew(b).items()) == _scaled(skew, -1)
    assert _linear({a: -2}, lambda k: lr._product_terms(k, b)) == _scaled(product, -2)
    # the shared tables are still the ones lr built
    assert lr._product_terms(a, b) == product == lr.product_expansion(a, b)
    assert lr._skew_terms(a, b) == skew == lr.skew_expansion(a, b)


def test_single_terms_scale_the_lr_table():
    shapes = partitions_up_to(5)
    for p in shapes:
        for q in shapes:
            product = lr.product_expansion(p, q)
            skew = lr.skew_expansion(p, q)
            for u in (1, -1, 2):
                for v in (1, -1, 2):
                    x, y = u * s(p), v * s(q)
                    assert dict((x * y).items()) == _scaled(product, u * v)
                    assert dict(x.skew(y).items()) == _scaled(skew, u * v)


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


def test_a_shape_coproduct_wraps_the_memo_table():
    nu = P((3, 2, 1))
    table = _coproduct(nu)
    before = dict(table)
    assert s(nu).coproduct()._terms is table
    assert dict((-2 * s(nu)).coproduct().items()) == _scaled(before, -2)
    # the shared table is still the one the memo built
    assert _coproduct(nu) is table
    assert table == before


def test_verify_builds_each_shape_coproduct_once(monkeypatch):
    asked = []

    def counting(nu):
        asked.append(nu)
        return _coproduct(nu)

    monkeypatch.setattr(schur_ring, "_coproduct", counting)
    clear_caches()
    assert all(r.passed for r in verify.run_suite("all"))
    assert _coproduct.cache_info().misses == len(set(asked)) < len(asked)


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

