import tracemalloc

from hypothesis import given, strategies as st
import pytest

from schurhopf.errors import InvalidArgumentError, PartitionError, WeightLimitError
from schurhopf.partition import (
    Partition,
    distinct_partitions_of,
    format_partition,
    get_weight_limit,
    parse_partition,
    partitions_of,
    partitions_up_to,
    set_weight_limit,
    subpartitions,
    term_sort_key,
)


@st.composite
def partition_strategy(draw, max_weight=12):
    weight = draw(st.integers(min_value=0, max_value=max_weight))
    parts = []
    remaining = weight
    cap = weight
    while remaining:
        p = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return Partition(parts)


def test_construction_canonicalizes():
    assert Partition((3, 2, 0, 0)) == Partition((3, 2))
    assert Partition([]) == Partition(())
    assert tuple(Partition((4, 4, 1))) == (4, 4, 1)
    p = Partition((3, 1))
    assert Partition(p) is p


def test_construction_rejects_bad_shapes():
    with pytest.raises(PartitionError):
        Partition((1, 2))
    with pytest.raises(PartitionError):
        Partition((2, -1))
    with pytest.raises(PartitionError):
        Partition((2, 0, 1))
    for parts in ((True,), (True, True), (2, False)):
        with pytest.raises(PartitionError):
            Partition(parts)


def test_weight_and_length():
    p = Partition((4, 2, 1))
    assert p.weight == 7
    assert p.length == 3
    zero = Partition(())
    assert zero.weight == 0
    assert zero.length == 0


def test_parse_comma_form():
    assert parse_partition("4,2,1") == Partition((4, 2, 1))
    assert parse_partition("0") == Partition(())
    assert parse_partition("") == Partition(())
    assert parse_partition("10,2") == Partition((10, 2))
    assert parse_partition("11,") == Partition((11,))


def test_parse_multi_digit_fallback():
    # juxtaposition wins when it forms a valid partition, so "21" is (2,1);
    # digit strings with no valid compact reading are a single part
    assert parse_partition("21") == Partition((2, 1))
    assert parse_partition("12") == Partition((12,))
    assert parse_partition("10") == Partition((10,))


def test_parse_exponent_form():
    assert parse_partition("2^2 1^2") == Partition((2, 2, 1, 1))
    assert parse_partition("21") == Partition((2, 1))
    assert parse_partition("2^3") == Partition((2, 2, 2))
    assert parse_partition("43") == Partition((4, 3))
    assert parse_partition("3^2 1") == Partition((3, 3, 1))


def test_parse_rejects_garbage():
    # "²" passes str.isdigit() but int() rejects it; "٣" and "１" are
    # decimal digits int() would read, but the grammar is ASCII
    for text in ("1,2", "2,,1", "a", "2^", "^2", "-1", "1^0",
                 "²", "1²", "2^²", "²,1", "1,²,", "٣", "2^٣", "٣,1", "１"):
        with pytest.raises(PartitionError):
            parse_partition(text)


def test_parse_overlong_number_is_over_the_weight_limit():
    big = "9" * 5000  # more digits than int() converts by default
    for text in (big, big + ",", "1," + big):
        with pytest.raises(WeightLimitError, match="with 5000 digits"):
            parse_partition(text)
    assert parse_partition("0" * 5000 + "1") == Partition((1,))
    assert parse_partition("0" * 5000 + "12,") == Partition((12,))


def test_format_compact():
    assert format_partition(Partition(())) == "0"
    assert format_partition(Partition((2, 2, 1, 1))) == "2^2 1^2"
    assert format_partition(Partition((4, 3))) == "43"
    assert format_partition(Partition((3, 3, 1))) == "3^2 1"
    assert format_partition(Partition((2, 2, 2, 1))) == "2^3 1"
    assert format_partition(Partition((12, 2))) == "12,2"
    assert format_partition(Partition((11,))) == "11,"


@given(partition_strategy())
def test_parse_format_round_trip(p):
    assert parse_partition(format_partition(p)) == p


def test_format_refuses_parts_that_are_not_a_partition():
    # "12" and "03" would read back as other shapes, or not at all
    for parts in ((1, 2), (0, 3), (2, 0), (3, -1), (2, 1, 2), (12, 13)):
        with pytest.raises(PartitionError, match="not a partition"):
            format_partition(parts)
    assert format_partition(()) == "0"
    assert format_partition((3, 3, 1)) == "3^2 1"
    for p in partitions_up_to(10):
        assert parse_partition(format_partition(p)) == p


def test_conjugate_examples():
    assert Partition((2, 2, 1)).conjugate() == Partition((3, 2))
    assert Partition(()).conjugate() == Partition(())
    assert Partition((2, 2, 1, 1)).conjugate() == Partition((4, 2))


@given(partition_strategy())
def test_conjugate_involution(p):
    assert p.conjugate().conjugate() == p
    assert p.conjugate().weight == p.weight


def test_contains():
    assert Partition((3, 1)).contains(Partition((2,)))
    assert not Partition((3, 1)).contains(Partition((1, 1, 1)))
    assert Partition((3, 1)).contains(Partition(()))
    # a plain sequence is read as a partition: trailing zeros are dropped
    assert Partition((3, 1)).contains((1, 0, 0, 0))
    assert Partition((3, 1)).contains([2, 1])


@given(partition_strategy(), partition_strategy())
def test_contains_conjugate_compatible(lam, mu):
    assert lam.contains(mu) == lam.conjugate().contains(mu.conjugate())


def test_partitions_of_small():
    assert partitions_of(0) == [Partition(())]
    assert partitions_of(4) == [
        Partition((4,)),
        Partition((3, 1)),
        Partition((2, 2)),
        Partition((2, 1, 1)),
        Partition((1, 1, 1, 1)),
    ]
    assert len(partitions_of(6)) == 11


def test_partition_counts_match_recurrence():
    # p(n) via Euler's pentagonal-number recurrence
    counts = [1]
    for n in range(1, 21):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * counts[n - g1]
            if g2 <= n:
                total += sign * counts[n - g2]
            k += 1
        counts.append(total)
    for n in range(21):
        got = partitions_of(n)
        assert len(got) == counts[n]
        assert len(set(got)) == len(got)
        assert all(p.weight == n for p in got)


def test_partitions_up_to():
    ps = partitions_up_to(3)
    assert ps == partitions_of(0) + partitions_of(1) + partitions_of(2) + partitions_of(3)


def test_subpartitions():
    subs = set(subpartitions(Partition((2, 1))))
    assert subs == {
        Partition(()),
        Partition((1,)),
        Partition((2,)),
        Partition((1, 1)),
        Partition((2, 1)),
    }


def test_subpartitions_order():
    # reverse-lexicographic on the zero-padded rows; verify's witnesses
    # depend on it
    for p in partitions_up_to(8):
        got = [tuple(q) for q in subpartitions(p)]
        inside = [tuple(q) for q in partitions_up_to(p.weight) if p.contains(q)]
        expect = sorted(inside, key=lambda q: q + (0,) * (len(p) - len(q)), reverse=True)
        assert got == expect, p
    old = get_weight_limit()
    set_weight_limit(5000)
    try:
        column = list(subpartitions((1,) * 1500))
    finally:
        set_weight_limit(old)
    assert column == [(1,) * k for k in range(1500, -1, -1)]


@given(partition_strategy(max_weight=8))
def test_subpartitions_are_contained(p):
    subs = list(subpartitions(p))
    assert len(set(subs)) == len(subs)
    for q in subs:
        assert p.contains(q)


def test_frobenius_examples():
    assert Partition((3, 3)).frobenius() == ((2, 1), (1, 0))
    assert Partition((2,)).frobenius() == ((1,), (0,))
    assert Partition((2, 1, 1)).frobenius() == ((1,), (2,))
    assert Partition(()).frobenius() == ((), ())


@given(partition_strategy())
def test_frobenius_round_trip(p):
    arms, legs = p.frobenius()
    assert list(arms) == sorted(arms, reverse=True)
    assert list(legs) == sorted(legs, reverse=True)
    assert Partition.from_frobenius(arms, legs) == p


def test_term_sort_key_orders_by_weight_then_revlex():
    ps = [Partition((1, 1)), Partition((2,)), Partition((3,)), Partition(())]
    ps.sort(key=term_sort_key)
    assert ps == [Partition((3,)), Partition((2,)), Partition((1, 1)), Partition(())]


def test_weight_limit_guard():
    with pytest.raises(WeightLimitError):
        Partition((65,))
    with pytest.raises(WeightLimitError):
        partitions_of(65)
    built_earlier = Partition((5, 5, 5, 5))
    set_weight_limit(10)
    try:
        with pytest.raises(WeightLimitError):
            Partition((11,))
        with pytest.raises(WeightLimitError):
            Partition(built_earlier)
        assert Partition((10,)).weight == 10
    finally:
        set_weight_limit(64)


def test_a_refused_weight_limit_leaves_the_old_one():
    for bad in ("3", 2.5, True, -1):
        with pytest.raises(InvalidArgumentError):
            set_weight_limit(bad)
        assert get_weight_limit() == 64


def _nested_distinct_partitions(d):
    # the earlier enumerator of distinct_partitions_of, kept for parity
    def rec(rem, max_part):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, max_part), 0, -1):
            for rest in rec(rem - first, first - 1):
                yield (first,) + rest

    yield from rec(d, d)


def test_distinct_partitions_match_the_nested_enumerator():
    for d in range(21):
        got = list(distinct_partitions_of(d))
        assert got == list(_nested_distinct_partitions(d)), d
        assert all(len(set(p)) == len(p) and sum(p) == d for p in got)


def test_compact_parse_checks_weight_while_reading():
    tracemalloc.start()
    try:
        with pytest.raises(WeightLimitError):
            parse_partition("1^200000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # expanding the run first would build a 200000-entry list (1.6 MB)
    assert peak < 100_000
    with pytest.raises(WeightLimitError):
        parse_partition("1^" + "9" * 5000)
    assert parse_partition("1^0064") == Partition((1,) * 64)


def _revalidated(p):
    q = Partition(tuple(p))
    return type(p) is Partition and q == p


@given(partition_strategy())
def test_derived_shapes_are_valid_partitions(p):
    assert _revalidated(p.conjugate())
    assert all(_revalidated(q) for q in subpartitions(p))
    assert all(_revalidated(q) for q in partitions_of(p.weight))
