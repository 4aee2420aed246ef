"""The pure LR kernel against the reference enumerator and the oracle.

`lr_enumerator` is a frozen copy of the kernel's earlier one-tableau-at-a-time
walk; `_oracle` reads products from their dominant monomials through Kostka
numbers, at every total weight drawn here (up to 12).  The deep-shape tests
pin that the kernel's stack depth does not grow with the label count.
"""

import json
import sys

from hypothesis import given, settings, strategies as st

import lr_enumerator
from schurhopf import _lrkernel_py, _oracle, cli, lr
from schurhopf.partition import (
    clear_caches,
    get_weight_limit,
    partitions_of,
    partitions_up_to,
    set_weight_limit,
)
from schurhopf.schur_ring import SchurElement


def small_shape(max_weight):
    return st.sampled_from([tuple(p) for p in partitions_up_to(max_weight)])


def test_skews_match_the_enumerator_exhaustively():
    # every pair with |outer| <= 10, inner shapes that do not fit included,
    # through lr's front end: the kernel's normal form against a plain walk
    clear_caches()
    shapes = partitions_up_to(10)
    for outer in shapes:
        for inner in shapes:
            if inner.weight <= outer.weight:
                got = lr.skew_expansion(outer, inner)
                assert got == lr_enumerator.expand_skew(outer, inner), (outer, inner)


@given(small_shape(6), small_shape(6))
@settings(max_examples=80, deadline=None)
def test_all_three_functions_match_the_enumerator_and_oracle(lam, mu):
    table = _lrkernel_py.expand_product(lam, mu)
    assert table == lr_enumerator.expand_product(lam, mu)
    total = sum(lam) + sum(mu)
    assert table == _oracle.product_in_schur_basis(lam, mu)
    for nu in partitions_of(total):
        nu = tuple(nu)
        c = table.get(nu, 0)
        assert _lrkernel_py.product_coefficient(lam, mu, nu) == c
        assert lr_enumerator.product_coefficient(lam, mu, nu) == c
        skew = _lrkernel_py.expand_skew(nu, lam)
        assert skew == lr_enumerator.expand_skew(nu, lam)
        assert skew.get(mu, 0) == c  # adjointness
    assert _lrkernel_py.expand_skew(lam, mu) == lr_enumerator.expand_skew(lam, mu)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_recursion_depth_is_bounded_by_the_row_count():
    # 30 to 64 labels on 40 to 64 rows: the reference enumerator needs a
    # frame per label and per row here.  The one-row and one-column skews of
    # 300 to 1500 rows go through lr, whose every skew reaches the kernel.
    # The 64-row skew splits into two columns of 32, s_{1^32} . s_{1^32}.
    col = (1,) * 32
    tall = (2,) * 20 + (1,) * 20
    rows = 64
    old_limit = sys.getrecursionlimit()
    old_weight_limit = get_weight_limit()
    sys.setrecursionlimit(_stack_depth() + 3 * rows)
    set_weight_limit(5000)
    try:
        product = _lrkernel_py.expand_product(col, col)
        skew = _lrkernel_py.expand_skew(tall, (2, 1))
        blocks = _lrkernel_py.expand_skew((3,) * 32 + col, (2,) * 32)
        coefficient = _lrkernel_py.product_coefficient(col[:30], col[:30], (2,) * 15 + (1,) * 30)
        pieri = [
            lr.skew_expansion((1,) * 1500, (1,)),
            lr.skew_expansion((1,) * 1500, (1,) * 3),
            lr.skew_expansion((3,) * 600, (1,) * 3),
            lr.skew_expansion((5,) * 300, (4,)),
        ]
    finally:
        sys.setrecursionlimit(old_limit)
        set_weight_limit(old_weight_limit)
    assert product == {(2,) * k + (1,) * (64 - 2 * k): 1 for k in range(33)}
    assert skew == {(2,) * 19 + (1,) * 19: 1, (2,) * 18 + (1,) * 21: 1}
    assert blocks == product
    assert coefficient == 1
    assert pieri == [
        {(1,) * 1499: 1},
        {(1,) * 1497: 1},
        {(3,) * 597 + (2,) * 3: 1},
        {(5,) * 299 + (1,): 1},
    ]


def test_coproduct_of_a_tall_column():
    # Delta s_{1^n} = sum_k s_{1^k} (x) s_{1^(n-k)}; the one-column skews
    # of the tall shape each step over the run of full rows at once
    old_weight_limit = get_weight_limit()
    set_weight_limit(5000)
    try:
        for n in (1, 7, 60, 150):
            got = dict(SchurElement.basis((1,) * n).coproduct().items())
            assert got == {((1,) * k, (1,) * (n - k)): 1 for k in range(n + 1)}, n
    finally:
        set_weight_limit(old_weight_limit)


def _cli_table(capsys, *argv):
    assert cli.main(["--format", "json", *argv]) == 0
    return dict(SchurElement.from_json(json.loads(capsys.readouterr().out)).items())


def _remove_cells(shape, cells):
    """Every partition left after removing `cells` cells from `shape`."""
    found = {tuple(shape)}
    for _ in range(cells):
        found = {
            p[:i] + (p[i] - 1,) + p[i + 1:] if p[i] > 1 else p[:i]
            for p in found
            for i in range(len(p))
            if i + 1 == len(p) or p[i + 1] < p[i]
        }
    return found


def test_cli_skew_of_a_tall_shape(capsys):
    outer = (2,) * 20 + (1,) * 20
    table = _cli_table(capsys, "schur", "skew", "2^20 1^20", "21")
    assert table
    for mu in _remove_cells(outer, 3):
        assert table.get(mu, 0) == lr.lr_coefficient((2, 1), mu, outer), mu


def test_cli_product_of_two_tall_columns(capsys):
    col = (1,) * 25
    table = _cli_table(capsys, "schur", "mul", "1^25", "1^25")
    assert table == {(2,) * k + (1,) * (50 - 2 * k): 1 for k in range(26)}
    for nu, c in table.items():
        assert lr.lr_coefficient(col, col, nu) == c


def test_both_growth_directions_match_the_enumerator():
    # expand_product and product_coefficient always grow the factor with
    # more rows, so every public call sees one direction only: check both.
    shapes = [tuple(p) for p in partitions_up_to(5)]
    grow = _lrkernel_py._grow
    for lam in shapes:
        for mu in shapes:
            table = lr_enumerator.expand_product(lam, mu)
            assert grow(lam, mu, None) == table, (lam, mu)
            assert grow(mu, lam, None) == table, (mu, lam)
            for nu in partitions_of(sum(lam) + sum(mu)):
                nu = tuple(nu)
                c = table.get(nu, 0)
                for base, content in ((lam, mu), (mu, lam)):
                    if _lrkernel_py._contains(nu, base):
                        assert grow(base, content, nu).get(nu, 0) == c, (base, content, nu)
                    else:
                        assert c == 0, (base, content, nu)
                assert _lrkernel_py.product_coefficient(lam, mu, nu) == c, (lam, mu, nu)
                assert _lrkernel_py.product_coefficient(mu, lam, nu) == c, (mu, lam, nu)


def test_single_coefficients_match_the_enumerator_on_every_triple():
    # lr.lr_coefficient refuses mismatched weights and a nu that does not
    # contain both factors before it calls the kernel; the kernel itself
    # must still read 0 for them.
    shapes = [tuple(p) for p in partitions_up_to(5)]
    for lam in shapes:
        for mu in shapes:
            for nu in shapes:
                expected = lr_enumerator.product_coefficient(lam, mu, nu)
                assert _lrkernel_py.product_coefficient(lam, mu, nu) == expected, (
                    lam, mu, nu)


def test_the_content_is_the_factor_with_fewer_rows(monkeypatch):
    # one label step per row of the content: (1^8).(8) grows 1^8 by the one
    # row (8) in either order, and a tie on rows goes to the lighter factor
    calls = []
    strips = _lrkernel_py._strips

    def counted(shape, *args):
        calls.append(shape)
        return strips(shape, *args)

    monkeypatch.setattr(_lrkernel_py, "_strips", counted)
    column, row = (1,) * 8, (8,)
    hooks = {(9,) + (1,) * 7: 1, (8,) + (1,) * 8: 1}
    for lam, mu in ((column, row), (row, column)):
        calls.clear()
        assert _lrkernel_py.expand_product(lam, mu) == hooks
        assert calls == [column]
        calls.clear()
        assert _lrkernel_py.product_coefficient(lam, mu, (9,) + (1,) * 7) == 1
        assert calls == [column]
    for lam, mu in (((3, 3), (2, 1)), ((2, 1), (3, 3))):
        calls.clear()
        _lrkernel_py.expand_product(lam, mu)
        assert calls[0] == (3, 3)
