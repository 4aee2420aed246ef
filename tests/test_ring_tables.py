"""Ring arithmetic on the cached Littlewood-Richardson tables.

`schur_ring` and `char_rings` read `lr`'s cached product and skew tables in
place instead of going through the validating, copying
`lr.product_expansion`/`skew_expansion`, and the Newell-Littlewood products
group each unordered pair of factors before they multiply.  These tests pin
what that must not change: the tensor products against an ungrouped sum
written here, the weight-limit errors, the shared tables themselves, and the
shortcuts the immutable tables allow.  `char_rings` also caches its own
tables, the O/Sp tensor products and the basis conversions; those are
refereed against a fresh contraction and the plain series skews, and must
not be served under a lower weight limit.
"""

import pytest

from schurhopf import _lrkernel_py, char_rings, lr, verify
from schurhopf.char_rings import (
    _FROM_GL,
    _TO_GL,
    Basis,
    CharElement,
    _contract,
    char_antipode,
    char_coproduct,
    char_multiply,
    convert,
    tensor_product,
    tensor_product_generic,
)
from schurhopf.errors import BasisMismatchError, WeightLimitError
from schurhopf.partition import (
    Partition,
    clear_caches,
    get_weight_limit,
    partitions_up_to,
    set_weight_limit,
    subpartitions,
)
from schurhopf.schur_ring import SchurElement, TensorElement, TermTable
from schurhopf.series import (
    delta_double_prime,
    littlewood_series,
    skew_by_series,
    unit_series,
)

P = Partition
s = SchurElement.basis


def _add(table, r, c):
    table[r] = table.get(r, 0) + c


def _nonzero(table):
    return {k: c for k, c in table.items() if c}


def _products(left, right, weight):
    """sum over ordered pairs of weight * a * b * s_p * s_q, one product each."""
    out = {}
    for p, a in left.items():
        for q, b in right.items():
            for r, c in lr.product_expansion(p, q).items():
                _add(out, r, weight * a * b * c)
    return out


def newell_littlewood_reference(lam, mu):
    """[lam].[mu] = sum_sigma [(lam/sigma).(mu/sigma)], pair by ordered pair."""
    out = {}
    for sigma in subpartitions(lam):
        for r, c in _products(
            lr.skew_expansion(lam, sigma), lr.skew_expansion(mu, sigma), 1
        ).items():
            _add(out, r, c)
    return _nonzero(out)


def generic_reference(lam, mu, t):
    out = {}
    coeffs = delta_double_prime(t, min(sum(lam) + sum(mu), t.cutoff))
    for (sigma, tau), b in coeffs.items():
        left = lr.skew_expansion(lam, sigma)
        right = lr.skew_expansion(mu, tau)
        for r, c in _products(left, right, b).items():
            _add(out, r, c)
    return _nonzero(out)


@pytest.mark.parametrize("basis", [Basis.O, Basis.SP])
def test_grouped_newell_littlewood_matches_the_ordered_sum(basis):
    shapes = partitions_up_to(5)
    for lam in shapes:
        for mu in shapes:
            got = tensor_product(lam, mu, basis)
            assert got.basis is basis
            assert dict(got.items()) == newell_littlewood_reference(lam, mu), (lam, mu)


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "unit"])
def test_grouped_generic_engine_matches_the_ordered_sum(name):
    t = unit_series() if name == "unit" else littlewood_series(name)
    shapes = partitions_up_to(3)
    for lam in shapes:
        for mu in shapes:
            got = tensor_product_generic(lam, mu, t)
            assert dict(got.items()) == generic_reference(lam, mu, t), (name, lam, mu)


# What each operation gives at weight limit 10 on elements built at the
# default limit: None for a result, else the WeightLimitError's message.
# Recorded from the package before ring code read the tables in place.
PRODUCT_12 = (
    "product weight 12 exceeds the configured limit 10; "
    "raise it with partition.set_weight_limit if this is intentional"
)
PARTITION_12 = "partition weight 12 exceeds the limit 10"
PARTITION_11 = "partition weight 11 exceeds the limit 10"
LOWERED_LIMIT_OUTCOMES = {
    "schur * unit, weight 12": PARTITION_12,
    "schur * schur, weight 6 + 6": PRODUCT_12,
    "schur * schur, weight 6 + 4": None,
    "zero * schur, weight 12": None,
    "schur / empty, weight 12": PARTITION_12,
    "schur / heavier, weight 12": None,
    "two-term / empty, weights 12 and 2": PARTITION_12,
    "schur coproduct, weight 12": PARTITION_12,
    "tensor * tensor, left 6 + 6": PRODUCT_12,
    "tensor * tensor, right 6 + 6": PRODUCT_12,
    "tensor * tensor, 5 + 5 a slot": None,
    "GL tensor, 33 x 33": PRODUCT_12,
    "O tensor, 33 x 33": PRODUCT_12,
    "Sp tensor, 33 x 33": PRODUCT_12,
    "O tensor, 43 x 43": PRODUCT_12,
    "Sp tensor, 43 x 43": PRODUCT_12,
    "O tensor, 66 x 1": PARTITION_12,
    "O tensor, 32 x 32": None,
    "generic D, 33 x 33": PRODUCT_12,
    "generic A, 33 x 33": PRODUCT_12,
    "generic unit, 33 x 33": PRODUCT_12,
    "generic A, 32 x 32": None,
    # Both factors over the limit: the first operand is named, in either
    # order, though both orders share one cached product.
    "schur * schur, weights 12 and 11": PARTITION_12,
    "schur * schur, weights 11 and 12": PARTITION_11,
}


def _lowered_limit_cases():
    big, six, four = s((6, 6)), s((3, 3)), s((2, 2))
    twelve, eleven = s((12,)), s((11,))
    two_terms = s((6, 6)) + s((1, 1))
    heavier = s((7, 6))
    left_six = TensorElement.pure(six, s((1,)))
    right_six = TensorElement.pure(s((1,)), six)
    five = TensorElement.pure(s((3, 2)), s((3, 2)))
    series = {name: littlewood_series(name, 12) for name in "AD"}
    series["unit"] = unit_series(12)
    cases = {
        "schur * unit, weight 12": lambda: big * SchurElement.one(),
        "schur * schur, weight 6 + 6": lambda: six * six,
        "schur * schur, weight 6 + 4": lambda: six * four,
        "schur * schur, weights 12 and 11": lambda: twelve * eleven,
        "schur * schur, weights 11 and 12": lambda: eleven * twelve,
        "zero * schur, weight 12": lambda: SchurElement.zero() * big,
        "schur / empty, weight 12": lambda: big.skew(SchurElement.one()),
        "schur / heavier, weight 12": lambda: big.skew(heavier),
        "two-term / empty, weights 12 and 2": lambda: two_terms.skew(SchurElement.one()),
        "schur coproduct, weight 12": lambda: big.coproduct(),
        "tensor * tensor, left 6 + 6": lambda: left_six * left_six,
        "tensor * tensor, right 6 + 6": lambda: right_six * right_six,
        "tensor * tensor, 5 + 5 a slot": lambda: five * five,
        "O tensor, 66 x 1": lambda: tensor_product(P((6, 6)), P((1,)), Basis.O),
        "O tensor, 32 x 32": lambda: tensor_product(P((3, 2)), P((3, 2)), Basis.O),
        "generic A, 32 x 32": lambda: tensor_product_generic(
            P((3, 2)), P((3, 2)), series["A"]
        ),
    }
    for basis, label in ((Basis.GL, "GL"), (Basis.O, "O"), (Basis.SP, "Sp")):
        cases[f"{label} tensor, 33 x 33"] = (
            lambda b=basis: tensor_product(P((3, 3)), P((3, 3)), b)
        )
    for basis, label in ((Basis.O, "O"), (Basis.SP, "Sp")):
        cases[f"{label} tensor, 43 x 43"] = (
            lambda b=basis: tensor_product(P((4, 3)), P((4, 3)), b)
        )
    for name, t in series.items():
        cases[f"generic {name}, 33 x 33"] = (
            lambda t=t: tensor_product_generic(P((3, 3)), P((3, 3)), t)
        )
    return cases


def test_weight_limit_errors_survive_the_in_place_path():
    cases = _lowered_limit_cases()
    assert set(cases) == set(LOWERED_LIMIT_OUTCOMES)
    # Every table the cases read is cached at the default limit first, so a
    # table computed under the old limit would be served if set_weight_limit
    # left the caches full.
    for run in cases.values():
        run()
    old = get_weight_limit()
    set_weight_limit(10)
    try:
        info = lr.cache_info()
        assert all(v.currsize == v.hits == v.misses == 0 for v in info.values())
        for label, run in cases.items():
            expected = LOWERED_LIMIT_OUTCOMES[label]
            if expected is None:
                run()
                continue
            with pytest.raises(WeightLimitError) as err:
                run()
            assert str(err.value) == expected, label
    finally:
        set_weight_limit(old)


# The character-ring tables cached in char_rings, each computed at the
# default limit and then asked for again at limit 10.
WARM_CASES = {
    "O tensor, 33 x 33": lambda: tensor_product(P((3, 3)), P((3, 3)), Basis.O),
    "Sp tensor, 43 x 43": lambda: tensor_product(P((4, 3)), P((4, 3)), Basis.SP),
    "O tensor, 32 x 32": lambda: tensor_product(P((3, 2)), P((3, 2)), Basis.O),
    "convert {66} to O": lambda: convert(CharElement(Basis.GL, {(6, 6): 1}), Basis.O),
    "convert [66] to Sp": lambda: convert(CharElement(Basis.O, {(6, 6): 1}), Basis.SP),
    "convert <5 4 2> to GL": lambda: convert(CharElement(Basis.SP, {(5, 4, 2): 1}), Basis.GL),
    "convert [3 2] to Sp": lambda: convert(CharElement(Basis.O, {(3, 2): 1}), Basis.SP),
}
WARM_OUTCOMES = {
    "O tensor, 33 x 33": PRODUCT_12,
    "Sp tensor, 43 x 43": PRODUCT_12,
    "O tensor, 32 x 32": None,
    "convert {66} to O": PARTITION_12,
    "convert [66] to Sp": PARTITION_12,
    "convert <5 4 2> to GL": "partition weight 11 exceeds the limit 10",
    "convert [3 2] to Sp": None,
}


def _outcomes_at_limit_10(warm):
    old = get_weight_limit()
    out = {}
    for label, run in WARM_CASES.items():
        if warm:
            run()
        else:
            clear_caches()
        set_weight_limit(10)
        try:
            run()
            out[label] = None
        except WeightLimitError as err:
            out[label] = str(err)
        finally:
            set_weight_limit(old)
    return out


def test_char_ring_tables_are_not_served_under_a_lower_limit():
    cold = _outcomes_at_limit_10(warm=False)
    assert cold == WARM_OUTCOMES
    assert _outcomes_at_limit_10(warm=True) == cold


def test_set_weight_limit_empties_the_char_ring_caches():
    for run in WARM_CASES.values():
        run()
    memos = (char_rings._newell_littlewood, char_rings._conversion)
    assert all(memo.cache_info().currsize for memo in memos)
    old = get_weight_limit()
    set_weight_limit(old)
    infos = [memo.cache_info() for memo in memos]
    assert all(v.currsize == v.hits == v.misses == 0 for v in infos)


def _sigmas_inside_both(lam, mu):
    """The contraction's sigma list as it was built before the meet: every
    shape inside the lighter factor that also fits in the other."""
    small, big = (lam, mu) if sum(lam) <= sum(mu) else (mu, lam)
    return [(sigma, sigma, 1) for sigma in subpartitions(small) if big.contains(sigma)]


def test_cached_tensor_tables_match_a_fresh_contraction():
    shapes = partitions_up_to(5)
    cached = {}
    for lam in shapes:
        for mu in shapes:
            for basis in (Basis.O, Basis.SP):
                cached[lam, mu, basis] = tensor_product(lam, mu, basis)
    clear_caches()
    for (lam, mu, basis), got in cached.items():
        assert got.basis is basis
        fresh = _contract(lam, mu, _sigmas_inside_both(lam, mu))
        assert dict(got.items()) == fresh, (lam, mu, basis)


def _two_skews(lam, source, to):
    """{lam} skewed by the series out of source, then the one into to."""
    x = s(lam)
    for name in (_TO_GL.get(source), _FROM_GL.get(to)):
        if name is not None:
            x = skew_by_series(x, littlewood_series(name, sum(lam)))
    return dict(x.items())


def test_cached_conversions_match_the_series_skews():
    pairs = [(a, b) for a in Basis for b in Basis if a is not b]
    assert len(pairs) == 6
    for lam in partitions_up_to(6):
        for source, to in pairs:
            got = convert(CharElement.basis_element(source, lam), to)
            assert got.basis is to
            assert dict(got.items()) == _two_skews(lam, source, to), (lam, source, to)


def test_a_repeated_call_is_a_cache_hit():
    clear_caches()
    calls = {
        "tensor": lambda: tensor_product((3, 1), (2, 2), Basis.SP),
        "convert": lambda: convert(CharElement(Basis.O, {(3, 1): 2, (1,): -1}), Basis.SP),
    }
    memos = {"tensor": char_rings._newell_littlewood, "convert": char_rings._conversion}
    for table, run in calls.items():
        first = run()
        before = memos[table].cache_info()
        second = run()
        after = memos[table].cache_info()
        assert second == first, table
        assert after.hits > before.hits, table
        assert after.misses == before.misses, table
    # O and Sp read one tensor table
    before = memos["tensor"].cache_info()
    o = tensor_product((3, 1), (2, 2), Basis.O)
    assert memos["tensor"].cache_info().hits == before.hits + 1
    assert dict(o.items()) == dict(calls["tensor"]().items())


@pytest.mark.parametrize("basis", [Basis.O, Basis.SP])
def test_over_limit_tensor_products_raise_before_any_skew(basis, monkeypatch):
    calls = []
    expand_skew = _lrkernel_py.expand_skew

    def counted(outer, inner):
        calls.append((outer, inner))
        return expand_skew(outer, inner)

    monkeypatch.setattr(_lrkernel_py, "expand_skew", counted)
    old = get_weight_limit()
    set_weight_limit(10)
    try:
        with pytest.raises(WeightLimitError) as err:
            tensor_product(P((4, 3)), P((4, 3)), basis)
    finally:
        set_weight_limit(old)
    assert str(err.value) == PRODUCT_12
    assert calls == []
    # the same count sees the skews of a product within the limit
    tensor_product(P((2, 1)), P((2, 1)), basis)
    assert calls


def _recorded(monkeypatch, name):
    """Record every key char_rings asks its cached table `name` for."""
    cached = getattr(char_rings, name)
    keys = set()

    def record(*key):
        keys.add(key)
        return cached(*key)

    monkeypatch.setattr(char_rings, name, record)
    return cached, keys


def test_shared_tables_stay_intact(monkeypatch):
    # Fill the caches through ring code, including maps with negative
    # coefficients and results that wrap cached tables, then read every
    # table back: lr's through the copying API, char_rings' against a fresh
    # contraction and the plain series skews.
    clear_caches()
    tensor, tensor_keys = _recorded(monkeypatch, "_newell_littlewood")
    conversion, conversion_keys = _recorded(monkeypatch, "_conversion")
    verify.run_suite("all", 4)
    for basis in Basis:
        for lam in partitions_up_to(4):
            x = CharElement(basis, {lam: 2, (1,): -3})
            char_antipode(x)
            for to in Basis:
                convert(x, to)
            wrapped = tensor_product(lam, (2, 1), basis)
            y = char_multiply(x, wrapped) - 2 * wrapped
            char_antipode(y + wrapped)
            char_coproduct(-y)
            product = lr.lr_expand_product(lam, (1, 1))
            (product + lr.lr_expand_skew(lam, (1,)) * 3).coproduct()
            product.skew(lam) - SchurElement.basis(lam)
    assert tensor_keys and conversion_keys
    hits = tensor.cache_info().hits
    for lam, mu in tensor_keys:
        fresh = _contract(lam, mu, _sigmas_inside_both(lam, mu))
        assert tensor(lam, mu) == fresh, (lam, mu)
    assert tensor.cache_info().hits == hits + len(tensor_keys)
    hits = conversion.cache_info().hits
    for source, lam, to in conversion_keys:
        assert conversion(source, lam, to) == _two_skews(lam, source, to), (lam, source, to)
    assert conversion.cache_info().hits == hits + len(conversion_keys)
    shapes = partitions_up_to(4)
    for p in shapes:
        for q in shapes:
            assert lr.product_expansion(p, q) == _lrkernel_py.expand_product(p, q), (p, q)
    for outer in partitions_up_to(6):
        for inner in partitions_up_to(sum(outer)):
            fresh = _lrkernel_py.expand_skew(outer, inner)
            assert lr.skew_expansion(outer, inner) == fresh, (outer, inner)


def test_ring_code_skips_the_copying_boundary(monkeypatch):
    x = s((2, 1)) - 2 * s((1,))
    y = s((2,)) + s((1, 1))
    t = x.coproduct()
    ring_maps = {
        "product": lambda: x * y,
        "skew": lambda: (x * y).skew(y),
        "coproduct": lambda: x.coproduct(),
        "tensor product": lambda: t * t,
        "GL tensor": lambda: tensor_product((3, 1), (2, 1), Basis.GL),
        "O tensor": lambda: tensor_product((3, 1), (2, 1), Basis.O),
        "Sp tensor": lambda: tensor_product((3, 1), (2, 1), Basis.SP),
        "convert": lambda: convert(CharElement(Basis.O, {(3, 1): 1}), Basis.SP),
        "char coproduct": lambda: char_coproduct(CharElement(Basis.SP, {(2, 2): 1})),
        "lr_expand_product": lambda: lr.lr_expand_product((3, 1), (2, 1)),
        "lr_expand_skew": lambda: lr.lr_expand_skew((3, 2, 1), (2, 1)),
    }
    for basis in Basis:
        a = CharElement(basis, {(2, 1): 1, (1,): -2})
        b = CharElement(basis, {(2,): 3, (1, 1): 1})
        ring_maps[f"{basis.value} char_multiply"] = lambda a=a, b=b: char_multiply(a, b)
    before = {name: run() for name, run in ring_maps.items()}

    def boundary(*args):
        raise AssertionError("ring code called the copying LR front end")

    monkeypatch.setattr(lr, "product_expansion", boundary)
    monkeypatch.setattr(lr, "skew_expansion", boundary)
    for name, run in ring_maps.items():
        assert run() == before[name], name


def test_char_multiply_reads_the_tables_not_tensor_product(monkeypatch):
    pairs = {
        basis: (CharElement(basis, {(2, 1): 1, (1,): -2}), CharElement(basis, {(2,): 3}))
        for basis in Basis
    }
    before = {basis: char_multiply(x, y) for basis, (x, y) in pairs.items()}

    def public(*args):
        raise AssertionError("char_multiply called the public tensor_product")

    monkeypatch.setattr(char_rings, "tensor_product", public)
    for basis, (x, y) in pairs.items():
        assert char_multiply(x, y) == before[basis], basis


def test_immutable_tables_share_operands():
    x = s((2, 1)) + 3 * s((1,))
    zero = SchurElement.zero()
    assert x + zero is x
    assert x - zero is x
    assert zero + x is x
    assert x * 1 is x
    assert 1 * x is x
    assert zero - x == -x
    # an empty table of the base class keeps its own type
    base = TermTable()
    assert type(base + x) is TermTable
    assert dict((base + x).items()) == dict(x.items())
    # tags still have to match before an operand is handed back
    o, sp = CharElement(Basis.O, {}), CharElement(Basis.SP, {(1,): 1})
    with pytest.raises(BasisMismatchError):
        o + sp
