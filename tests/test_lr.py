import pytest
from hypothesis import given, settings, strategies as st

import lr_enumerator
from schurhopf import _lrkernel_py, _oracle
from schurhopf import lr
from schurhopf.errors import WeightLimitError
from schurhopf.partition import (
    Partition,
    clear_caches,
    partitions_of,
    partitions_up_to,
    set_weight_limit,
)
from schurhopf.schur_ring import SchurElement


P = Partition


def small_partition(max_weight=8):
    return st.sampled_from(partitions_up_to(max_weight))


def test_coefficient_known_values():
    # enumerated by the polynomial oracle, frozen here
    assert lr.lr_coefficient(P((1,)), P((1, 1)), P((2, 1))) == 1
    assert lr.lr_coefficient(P((2, 1)), P((2, 1)), P((3, 2, 1))) == 2
    assert lr.lr_coefficient(P((2, 1)), P((2, 1)), P((4, 2))) == 1
    assert lr.lr_coefficient(P((2, 1)), P((2, 1)), P((2, 2, 1, 1))) == 1


def test_coefficient_unit_law():
    for lam in partitions_up_to(5):
        assert lr.lr_coefficient(lam, P(()), lam) == 1


def test_coefficient_zero_on_weight_mismatch():
    assert lr.lr_coefficient(P((2,)), P((1,)), P((2,))) == 0
    assert lr.lr_coefficient(P((2,)), P((1,)), P((4,))) == 0


def test_coefficient_zero_on_containment_failure():
    assert lr.lr_coefficient(P((3,)), P((1,)), P((2, 2))) == 0


def test_product_expansion_table_row():
    got = lr.product_expansion(P((2, 2)), P((2, 1)))
    assert got == {
        P((4, 3)): 1,
        P((4, 2, 1)): 1,
        P((3, 3, 1)): 1,
        P((3, 2, 2)): 1,
        P((3, 2, 1, 1)): 1,
        P((2, 2, 2, 1)): 1,
    }


def test_product_expansion_basics():
    assert lr.product_expansion(P((1,)), P((1,))) == {P((2,)): 1, P((1, 1)): 1}
    assert lr.product_expansion(P(()), P((3, 1))) == {P((3, 1)): 1}


def test_skew_expansion_examples():
    assert lr.skew_expansion(P((2, 1)), P((1,))) == {P((2,)): 1, P((1, 1)): 1}
    assert lr.skew_expansion(P((3, 1)), P(())) == {P((3, 1)): 1}
    assert lr.skew_expansion(P((1,)), P((2,))) == {}


def test_oracle_equivalence_exhaustive():
    # brute-force polynomial multiplication, weights up to 6 total
    for total in range(7):
        for wa in range(total + 1):
            for lam in partitions_of(wa):
                for mu in partitions_of(total - wa):
                    expect = _oracle.product_in_schur_basis(lam, mu)
                    assert lr.product_expansion(lam, mu) == expect, (lam, mu)
                    for nu in partitions_of(total):
                        got = lr.lr_coefficient(lam, mu, nu)
                        assert got == expect.get(nu, 0), (lam, mu, nu)


def test_skews_match_the_oracle_by_adjointness():
    # <s_{lam/mu}, s_nu> = c^lam_{mu,nu}, each product read once from the oracle
    products = {}
    for lam in partitions_up_to(7):
        for mu in partitions_up_to(lam.weight):
            table = lr.skew_expansion(lam, mu)
            for nu in partitions_of(lam.weight - mu.weight):
                if (mu, nu) not in products:
                    products[mu, nu] = _oracle.product_in_schur_basis(mu, nu)
                assert table.get(nu, 0) == products[mu, nu].get(lam, 0), (lam, mu, nu)


def test_skew_against_coproduct_duality():
    for nu in partitions_up_to(6):
        for lam in partitions_up_to(nu.weight):
            table = lr.skew_expansion(nu, lam)
            for mu, c in table.items():
                assert lr.lr_coefficient(lam, mu, nu) == c


def test_deep_shapes_use_python_fallback():
    # 79 rows; the skew is one cell beside a vertical domino, so s_1 * s_11
    set_weight_limit(100)
    try:
        tall = P((2, 2) + (1,) * 77)
        inner = P((2,) + (1,) * 76)
        assert lr.skew_expansion(tall, inner) == {P((2, 1)): 1, P((1, 1, 1)): 1}
    finally:
        set_weight_limit(64)


@given(small_partition(5), small_partition(5))
@settings(max_examples=60, deadline=None)
def test_product_symmetry_and_grading(lam, mu):
    ab = lr.product_expansion(lam, mu)
    ba = lr.product_expansion(mu, lam)
    assert ab == ba
    total = lam.weight + mu.weight
    assert all(nu.weight == total for nu in ab)
    assert all(c > 0 for c in ab.values())


def test_conjugation_symmetry():
    for total in range(9):
        for wa in range(total + 1):
            for lam in partitions_of(wa):
                for mu in partitions_of(total - wa):
                    direct = lr.product_expansion(lam, mu)
                    flipped = lr.product_expansion(lam.conjugate(), mu.conjugate())
                    assert {nu.conjugate(): c for nu, c in direct.items()} == flipped


def test_associativity():
    for total in range(10):
        for wa in range(total + 1):
            for wb in range(total - wa + 1):
                for lam in partitions_of(wa):
                    for mu in partitions_of(wb):
                        for nu in partitions_of(total - wa - wb):
                            left = {}
                            for p, c in lr.product_expansion(lam, mu).items():
                                for q, d in lr.product_expansion(p, nu).items():
                                    left[q] = left.get(q, 0) + c * d
                            right = {}
                            for p, c in lr.product_expansion(mu, nu).items():
                                for q, d in lr.product_expansion(lam, p).items():
                                    right[q] = right.get(q, 0) + c * d
                            assert left == right, (lam, mu, nu)


def _pieri(nu, size, vertical):
    """{mu: 1} for each mu with nu/mu a horizontal (or vertical) strip of size cells."""
    out = {}
    for mu in partitions_of(nu.weight - size):
        if not nu.contains(mu):
            continue
        rows = tuple(mu) + (0,) * (len(nu) - len(mu))
        if vertical:
            strip = all(n - m <= 1 for m, n in zip(rows, nu))
        else:
            strip = all(m >= n for m, n in zip(rows, nu[1:]))
        if strip:
            out[mu] = 1
    return out


def test_row_skews_follow_the_pieri_rule():
    for nu in partitions_up_to(7):
        for r in range(1, nu.weight + 1):
            assert lr.skew_expansion(nu, P((r,))) == _pieri(nu, r, False), (nu, r)


def test_column_skews_follow_the_pieri_rule():
    for nu in partitions_up_to(7):
        for r in range(1, nu.weight + 1):
            assert lr.skew_expansion(nu, P((1,) * r)) == _pieri(nu, r, True), (nu, r)


def test_product_weight_limit_is_graceful():
    set_weight_limit(12)
    try:
        with pytest.raises(WeightLimitError):
            lr.product_expansion(P((7,)), P((6,)))
    finally:
        set_weight_limit(64)


def test_cache_utilities():
    clear_caches()
    lr.product_expansion(P((2, 1)), P((1,)))
    info = lr.cache_info()
    assert set(info) == {"product", "skew", "coefficient"}
    assert any(v.misses > 0 for v in info.values())
    clear_caches()
    info = lr.cache_info()
    assert all(v.hits == 0 and v.misses == 0 for v in info.values())


def test_lone_coefficient_does_not_expand_the_product():
    # the full product of two weight-15 staircases costs the pure kernel
    # 50-130 times as much as counting the tableaux of one shape nu/lam
    clear_caches()
    stair = P((5, 4, 3, 2, 1))
    assert lr.lr_coefficient(stair, stair, P((6, 6, 5, 5, 4, 2, 2))) == 36
    assert lr.cache_info()["product"].misses == 0
    assert lr.cache_info()["coefficient"].misses == 1


def test_tables_share_one_key_per_shape():
    clear_caches()
    a = lr.product_expansion(P((2, 1)), P((1,)))
    b = lr.product_expansion(P((3,)), P((1,)))
    c = lr.skew_expansion(P((4, 2)), P((1, 1)))
    shared = [next(k for k in t if k == (3, 1)) for t in (a, b, c)]
    assert shared[0] is shared[1] is shared[2]
    assert type(shared[0]) is Partition


def test_kernel_name_reports_backend():
    assert lr.kernel_name() == "python"


def test_returned_tables_are_fresh_copies():
    clear_caches()
    prod = lr.product_expansion(P((2, 1)), P((1,)))
    expect = dict(prod)
    prod[P((9,))] = 7
    prod.pop(P((3, 1)))
    assert lr.product_expansion(P((2, 1)), P((1,))) == expect
    skew = lr.skew_expansion(P((3, 2, 1)), P((2, 1)))
    expect = dict(skew)
    skew.clear()
    assert lr.skew_expansion(P((3, 2, 1)), P((2, 1))) == expect


@given(small_partition(6), small_partition(6))
@settings(max_examples=60, deadline=None)
def test_tuple_and_partition_inputs_agree(lam, mu):
    prod = lr.product_expansion(lam, mu)
    assert lr.product_expansion(tuple(lam), list(mu)) == prod
    assert all(type(k) is Partition for k in prod)
    skew = lr.skew_expansion(lam, mu)
    assert lr.skew_expansion(tuple(lam), tuple(mu)) == skew
    assert all(type(k) is Partition for k in skew)
    for nu, c in prod.items():
        assert lr.lr_coefficient(tuple(lam), tuple(mu), tuple(nu)) == c
        assert lr.lr_coefficient(lam, mu, nu) == c


def test_coefficient_cache_is_shared_by_both_orders():
    clear_caches()
    lam, mu, nu = P((3, 1)), P((2, 2)), P((4, 3, 1))
    assert lr.lr_coefficient(lam, mu, nu) == lr.lr_coefficient(mu, lam, nu) == 1
    info = lr.cache_info()["coefficient"]
    assert (info.misses, info.hits) == (1, 1)


def test_product_cache_is_shared_by_both_orders():
    a, b = P((3, 1)), P((2, 2))
    clear_caches()
    ab = lr.product_expansion(a, b)
    ba = lr.product_expansion(b, a)
    info = lr.cache_info()["product"]
    assert (info.misses, info.hits) == (1, 1)
    # each call still hands back its own copy of the shared table
    expect = dict(ab)
    assert ba == expect and ba is not ab
    ab[P((9,))] = 7
    ba.clear()
    assert lr.product_expansion(a, b) == lr.product_expansion(b, a) == expect
    clear_caches()
    x, y = SchurElement.basis(a), SchurElement.basis(b)
    assert dict((x * y).items()) == dict((y * x).items()) == expect
    info = lr.cache_info()["product"]
    assert (info.misses, info.hits) == (1, 1)


def test_both_product_orders_match_the_enumerator():
    # Each order is read from the entry the opposite order filled, so this
    # referees the shared table in the direction it is asked for.
    shapes = partitions_up_to(5)
    clear_caches()
    for lam in shapes:
        for mu in shapes:
            lr.product_expansion(mu, lam)
            assert lr.product_expansion(lam, mu) == lr_enumerator.expand_product(lam, mu), (
                lam, mu)
    info = lr.cache_info()["product"]
    assert info.misses == len(shapes) * (len(shapes) + 1) // 2
    assert info.hits == 2 * len(shapes) ** 2 - info.misses


def test_each_cache_miss_makes_one_kernel_call(monkeypatch):
    # The benchmark's traced accounting reads kernel calls off the cache
    # misses; a table that filled itself through another lr entry (a
    # symmetric cache calling itself, say) would break that silently.
    calls = {"product": 0, "skew": 0, "coefficient": 0}
    for table, name in (
        ("product", "expand_product"),
        ("skew", "expand_skew"),
        ("coefficient", "product_coefficient"),
    ):
        def counted(*args, table=table, kernel=getattr(_lrkernel_py, name)):
            calls[table] += 1
            return kernel(*args)

        monkeypatch.setattr(_lrkernel_py, name, counted)
    clear_caches()
    shapes = partitions_up_to(4)
    for lam in shapes:
        for mu in shapes:
            lr.product_expansion(lam, mu)
            lr.skew_expansion(lam, mu)
            for nu in partitions_of(lam.weight + mu.weight):
                lr.lr_coefficient(lam, mu, nu)
    x = SchurElement.basis((3, 2)) + SchurElement.basis((2, 2, 1))
    (x * x).skew(x).coproduct()
    info = lr.cache_info()
    assert all(calls[t] > 0 for t in calls)
    assert calls == {t: info[t].misses for t in calls}
