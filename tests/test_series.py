import pytest

from schurhopf.errors import (
    DegreeOverflowError,
    InvalidArgumentError,
    NotInvertibleError,
    WeightLimitError,
)
from schurhopf.partition import (
    Partition,
    clear_caches,
    get_weight_limit,
    partitions_of,
    set_weight_limit,
)
from schurhopf.schur_ring import SchurElement
from schurhopf.series import (
    SchurSeries,
    delta_double_prime,
    littlewood_series,
    series_inverse,
    series_product,
    series_term,
    skew_by_series,
    unit_series,
)
from schurhopf import _oracle
from schurhopf import series as series_module
from schurhopf.char_rings import tensor_product_generic


P = Partition
s = SchurElement.basis


def terms_table(series, through):
    return [dict(series.term(d).items()) for d in range(through + 1)]


def test_d_series_displayed_terms():
    d = littlewood_series("D", 6)
    assert terms_table(d, 6) == [
        {P(()): 1},
        {},
        {P((2,)): 1},
        {},
        {P((4,)): 1, P((2, 2)): 1},
        {},
        {P((6,)): 1, P((4, 2)): 1, P((2, 2, 2)): 1},
    ]


def test_b_series_displayed_terms():
    b = littlewood_series("B", 6)
    assert terms_table(b, 6) == [
        {P(()): 1},
        {},
        {P((1, 1)): 1},
        {},
        {P((2, 2)): 1, P((1, 1, 1, 1)): 1},
        {},
        {P((3, 3)): 1, P((2, 2, 1, 1)): 1, P((1,) * 6): 1},
    ]


def test_c_and_a_series_signed_terms():
    c = littlewood_series("C", 6)
    assert terms_table(c, 6) == [
        {P(()): 1},
        {},
        {P((2,)): -1},
        {},
        {P((3, 1)): 1},
        {},
        {P((4, 1, 1)): -1, P((3, 3)): -1},
    ]
    a = littlewood_series("A", 6)
    assert terms_table(a, 6) == [
        {P(()): 1},
        {},
        {P((1, 1)): -1},
        {},
        {P((2, 1, 1)): 1},
        {},
        {P((3, 1, 1, 1)): -1, P((2, 2, 2)): -1},
    ]


def test_series_match_product_expansion_oracle():
    for name in "ABCD":
        ser = littlewood_series(name, 10)
        for d in range(11):
            assert dict(ser.term(d).items()) == _oracle.series_term_by_expansion(name, d)


def test_no_odd_degree_terms_through_8():
    for name in "ABCD":
        ser = littlewood_series(name, 8)
        for d in (1, 3, 5, 7):
            assert ser.term(d).is_zero


def test_bd_supports():
    d = littlewood_series("D", 8)
    even = {p for p in partitions_of(8) if all(x % 2 == 0 for x in p)}
    assert set(d.term(8).support()) == even
    b = littlewood_series("B", 8)
    assert set(b.term(8).support()) == {p.conjugate() for p in even}


def test_term_beyond_cutoff_overflows():
    d = littlewood_series("D", 4)
    d.term(4)
    with pytest.raises(DegreeOverflowError):
        d.term(5)


def test_series_rejects_inhomogeneous_terms():
    bad = SchurSeries(lambda d: s(P((1,))), cutoff=4, name="bad")
    with pytest.raises(ValueError):
        bad.term(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: littlewood_series("Z"),
        lambda: series_term("Z", 2),
        lambda: littlewood_series("D").term(-1),
        lambda: SchurSeries(lambda d: SchurElement.one(), cutoff=2).term(-1),
    ],
    ids=["littlewood_series name", "series_term name", "named term -1", "term -1"],
)
def test_bad_series_names_and_degrees_are_invalid_arguments(call):
    # InvalidArgumentError is a ValueError, so `except ValueError` still works
    with pytest.raises(InvalidArgumentError) as err:
        call()
    assert isinstance(err.value, ValueError)


def test_set_weight_limit_empties_the_named_series_terms():
    old = get_weight_limit()
    series_term("D", 12)
    set_weight_limit(10)
    try:
        # a fresh process refuses this term; a term cached under the old
        # limit must not be served instead
        with pytest.raises(WeightLimitError):
            series_term("D", 12)
        assert series_term.cache_info().currsize == 0
        assert len(series_term("D", 10).items()) == 7
    finally:
        set_weight_limit(old)


def test_series_memos_are_not_served_past_a_lowered_limit():
    old = get_weight_limit()
    d = littlewood_series("D", 12)
    twelve = d.term(12)
    both = series_product(littlewood_series("D", 12), littlewood_series("C", 12))
    assert both.term(12) == SchurElement.zero()
    set_weight_limit(10)
    try:
        # a fresh series raises here, so the memoized ones must too
        with pytest.raises(DegreeOverflowError):
            littlewood_series("D", 12)
        with pytest.raises(WeightLimitError):
            d.term(12)
        with pytest.raises(WeightLimitError):
            both.term(12)
        assert len(d.term(10).items()) == 7
    finally:
        set_weight_limit(old)
    assert d.term(12) == twelve
    assert len(twelve.items()) == 11
    # a term past the limit with no shape of that weight still computes
    assert unit_series(100).term(70).is_zero


def test_twisted_memos_are_not_served_past_a_lowered_limit():
    old = get_weight_limit()
    d = littlewood_series("D", 6)
    table = delta_double_prime(d, 6)
    set_weight_limit(4)
    try:
        with pytest.raises(WeightLimitError):
            delta_double_prime(d, 6)
        assert delta_double_prime(d, 4).cutoff == 4
    finally:
        set_weight_limit(old)
    assert delta_double_prime(d, 6) == table


def test_term_fn_memoized():
    calls = []

    def fn(d):
        calls.append(d)
        return s(P(())) if d == 0 else SchurElement.zero()

    ser = SchurSeries(fn, cutoff=6, name="memo")
    ser.term(3)
    ser.term(3)
    ser.term(3)
    assert calls.count(3) == 1


def test_term_fn_runs_again_after_the_registry_is_cleared():
    calls = []

    def fn(d):
        calls.append(d)
        return s(P(())) if d == 0 else SchurElement.zero()

    ser = SchurSeries(fn, cutoff=4, name="counted")
    ser.term(2)
    ser.term(2)
    assert calls == [2]
    clear_caches()
    ser.term(2)
    assert calls == [2, 2]


def test_a_series_holds_no_cache():
    assert set(vars(littlewood_series("D", 4))) == {"_fn", "cutoff", "name"}


def test_unit_series():
    u = unit_series(4)
    assert u.term(0) == SchurElement.one()
    assert all(u.term(d).is_zero for d in range(1, 5))


def test_series_from_explicit_terms():
    terms = [s(P(())), s(P((1,))), SchurElement.zero()]
    ser = SchurSeries(lambda d: terms[d], 2, "x")
    assert ser.term(1) == s(P((1,)))
    assert ser.term(2).is_zero
    with pytest.raises(DegreeOverflowError):
        ser.term(3)


def test_product_and_inverse_identities():
    for pair in ("AB", "CD"):
        x = littlewood_series(pair[0], 8)
        y = littlewood_series(pair[1], 8)
        prod = series_product(x, y, 8)
        assert prod.term(0) == SchurElement.one()
        assert all(prod.term(d).is_zero for d in range(1, 9))
    c = littlewood_series("C", 8)
    d = littlewood_series("D", 8)
    inv = series_inverse(c, 8)
    for deg in range(9):
        assert inv.term(deg) == d.term(deg)


def test_inverse_requires_unit_constant_term():
    terms = [SchurElement.zero(), s(P((1,)))]
    shifted = SchurSeries(lambda d: terms[d], 1, "t")
    with pytest.raises(NotInvertibleError):
        series_inverse(shifted, 4).term(0)


def test_skew_by_series_branching():
    d = littlewood_series("D", 8)
    got = skew_by_series(s(P((4,))), d)
    assert got == s(P((4,))) + s(P((2,))) + s(P(()))
    b = littlewood_series("B", 8)
    got = skew_by_series(s(P((1, 1, 1, 1))), b)
    assert got == s(P((1, 1, 1, 1))) + s(P((1, 1))) + s(P(()))


def test_skew_by_series_needs_enough_cutoff():
    d = littlewood_series("D", 2)
    with pytest.raises(DegreeOverflowError):
        skew_by_series(s(P((4,))), d)


def test_generic_tensor_product_needs_enough_cutoff():
    # at cutoff 2 the sum would miss b_{sigma,tau} past degree 2, so
    # [2].[2] would lose its [0] term rather than fail
    d = littlewood_series("D", 2)
    with pytest.raises(DegreeOverflowError, match="cutoff 2"):
        tensor_product_generic((2,), (2,), d)
    full = tensor_product_generic((2,), (2,), littlewood_series("D", 4))
    assert str(full) == "[4]+[31]+[2^2]+[2]+[1^2]+[0]"


def test_diagonal_defects_stop_at_the_cutoff():
    coeffs = delta_double_prime(littlewood_series("D", 4))
    assert coeffs.diagonal_defects(4) == coeffs.diagonal_defects() == []
    with pytest.raises(DegreeOverflowError, match="cutoff 4"):
        coeffs.diagonal_defects(8)


def test_delta_double_prime_diagonal_for_d_and_b():
    for name in ("D", "B"):
        t = littlewood_series(name, 6)
        coeffs = delta_double_prime(t, 6)
        assert coeffs.diagonal_defects(6) == []
        assert coeffs.coefficient(P((2,)), P((2,))) == 1
        assert coeffs.coefficient(P((2,)), P((1, 1))) == 0


def test_delta_double_prime_of_unit_is_unit():
    coeffs = delta_double_prime(unit_series(4), 4)
    table = {k: v for k, v in coeffs.items() if v}
    assert table == {(P(()), P(())): 1}


def test_delta_double_prime_is_memoized_per_cutoff():
    t = littlewood_series("D", 6)
    first = delta_double_prime(t, 4)
    assert delta_double_prime(t, 4) is first
    assert delta_double_prime(t) is delta_double_prime(t, 6)
    assert delta_double_prime(t, 3) is not first


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "unit"])
def test_memoized_delta_double_prime_matches_a_fresh_build(name):
    def make(cutoff):
        return unit_series(cutoff) if name == "unit" else littlewood_series(name, cutoff)

    t = make(8)
    for cut in range(9):
        delta_double_prime(t, cut)
    for cut in range(9):
        got = delta_double_prime(t, cut)
        assert got.cutoff == cut
        assert got == delta_double_prime(make(cut), cut)


def test_generic_tensor_product_builds_each_cutoff_once(monkeypatch):
    builds = []

    def counting(s, cutoff=None, name=None):
        builds.append(cutoff)
        return series_inverse(s, cutoff, name)

    monkeypatch.setattr(series_module, "series_inverse", counting)
    shapes = [p for w in range(3) for p in partitions_of(w)]
    for name in ("D", "B"):
        t = littlewood_series(name, 8)
        for lam in shapes:
            for mu in shapes:
                tensor_product_generic(lam, mu, t)
    # every cutoff 0..4 of a series shares one inverse
    assert builds == [None, None]


@pytest.mark.parametrize("name", ["A", "D"])
def test_delta_double_prime_cutoffs_share_their_pieces(name):
    t = littlewood_series(name, 8)
    low = delta_double_prime(t, 4)
    full = delta_double_prime(t, 8)
    restricted = [
        (key, c) for key, c in full.items() if key[0].weight + key[1].weight <= 4
    ]
    assert list(low.items()) == restricted
    assert (low.cutoff, full.cutoff) == (4, 8)


@pytest.mark.parametrize("name", ["A", "C"])
def test_generic_tensor_product_with_an_off_diagonal_table(name):
    # [[lam]] = {lam / T^-1}, so [[lam]].[[mu]] read back in [[.]] is the
    # product of the two skews, skewed by T
    t = littlewood_series(name, 6)
    defects = delta_double_prime(t, 6).diagonal_defects(6)
    assert sum(left != right for (left, right), _ in defects) == 4
    inv = series_inverse(t, 6)
    shapes = [p for w in range(4) for p in partitions_of(w)]
    for lam in shapes:
        for mu in shapes:
            product = skew_by_series(s(lam), inv) * skew_by_series(s(mu), inv)
            got = tensor_product_generic(lam, mu, t).as_schur_element()
            assert got == skew_by_series(product, t), (lam, mu)


# H = sum s_(d) and E = sum s_(1^d) have terms in every degree, odd ones
# included, which the named series and the unit do not.
def _h_series(cutoff=6):
    return SchurSeries(lambda d: s(P((d,) if d else ())), cutoff, "H")


def _e_series(cutoff=6):
    return SchurSeries(lambda d: s(P((1,) * d)), cutoff, "E")


def test_the_inverse_of_h_is_the_signed_e():
    inv = series_inverse(_h_series())
    for d in range(7):
        assert inv.term(d) == (-1) ** d * s(P((1,) * d)), d


def test_h_times_its_inverse_is_the_unit():
    h = _h_series()
    prod = series_product(h, series_inverse(h))
    unit = unit_series(6)
    assert [prod.term(d) for d in range(7)] == [unit.term(d) for d in range(7)]


@pytest.mark.parametrize("make", [_h_series, _e_series], ids=["H", "E"])
def test_delta_double_prime_of_a_grouplike_series_is_the_unit(make):
    # Delta(H) = H (x) H, so (H^-1 (x) H^-1) * Delta(H) is 1 (x) 1
    assert dict(delta_double_prime(make()).items()) == {(P(()), P(())): 1}


def test_delta_double_prime_of_one_plus_s1():
    terms = [s(P(())), s(P((1,)))]
    t = SchurSeries(lambda d: terms[d] if d < 2 else SchurElement.zero(), 4, "1+s1")
    got = {(tuple(a), tuple(b)): c for (a, b), c in delta_double_prime(t).items()}
    assert got == {
        ((3,), (1,)): -1,
        ((2, 1), (1,)): -2,
        ((1, 1, 1), (1,)): -1,
        ((2,), (2,)): -1,
        ((2,), (1, 1)): -1,
        ((2,), (1,)): 1,
        ((1, 1), (2,)): -1,
        ((1, 1), (1, 1)): -1,
        ((1, 1), (1,)): 1,
        ((1,), (3,)): -1,
        ((1,), (2, 1)): -2,
        ((1,), (1, 1, 1)): -1,
        ((1,), (2,)): 1,
        ((1,), (1, 1)): 1,
        ((1,), (1,)): -1,
        ((), ()): 1,
    }


def test_an_inverse_at_a_high_cutoff_does_not_recurse_per_degree():
    # each inverse term reads the lower ones in rising degree, so degree 600
    # needs no 600-deep recursion
    old = get_weight_limit()
    set_weight_limit(1000)
    try:
        inv = series_inverse(unit_series(600))
        assert inv.term(600).is_zero
    finally:
        set_weight_limit(old)
