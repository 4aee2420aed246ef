import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from schurhopf.errors import (
    SingularDenominatorError,
    StableRangeError,
    UnsupportedGroupError,
    ValueParseError,
)
from schurhopf.evaluate import (
    EigenvalueSpec,
    GaussianRational,
    coerce_value,
    eval_character,
    eval_schur_bialternant,
    eval_schur_tableaux,
    verify_cauchy,
)
from schurhopf import char_rings, evaluate, lr
from schurhopf._oracle import pair_factor
from schurhopf.char_rings import (
    Basis,
    CharElement,
    branch_gl_to_o,
    branch_gl_to_sp,
    char_coproduct,
    char_multiply,
    convert,
    tensor_product,
)
from schurhopf.partition import Partition, partitions_up_to

P = Partition
F = Fraction
i = GaussianRational(0, 1)


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(F(1, 2), F(3))
        b = GaussianRational(F(2), F(-1))
        assert a + b == GaussianRational(F(5, 2), F(2))
        assert a - b == GaussianRational(F(-3, 2), F(4))
        assert a * b == GaussianRational(F(4), F(11, 2))
        assert (a / b) * b == a

    def test_division_uses_conjugate(self):
        one_plus = GaussianRational(1, 1)
        one_minus = GaussianRational(1, -1)
        assert one_plus / one_minus == i

    def test_pow(self):
        assert i ** 2 == GaussianRational(-1, 0)
        assert i ** 3 == GaussianRational(0, -1)
        assert i ** 0 == GaussianRational(1, 0)
        z = GaussianRational(F(1, 2), F(1, 3))
        assert z ** 5 == z * z * z * z * z

    def test_mixed_with_fraction(self):
        z = GaussianRational(1, 2)
        assert z + F(1, 2) == GaussianRational(F(3, 2), 2)
        assert F(2) * z == GaussianRational(2, 4)
        assert 1 - z == GaussianRational(0, -2)

    def test_hash_matches_fraction_when_real(self):
        assert hash(GaussianRational(F(3, 4), 0)) == hash(F(3, 4))
        assert GaussianRational(F(3, 4), 0) == F(3, 4)
        assert {GaussianRational(2, 0), F(2)} == {F(2)}

    def test_bool_and_conjugate(self):
        assert not GaussianRational(0, 0)
        assert GaussianRational(0, 1)
        assert i.conjugate() == -i

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5, 0)


def test_coerce_value():
    assert coerce_value(3) == F(3)
    assert coerce_value(F(1, 3)) == F(1, 3)
    assert coerce_value(i) is i
    with pytest.raises(TypeError):
        coerce_value(0.5)
    with pytest.raises(TypeError):
        coerce_value(True)
    with pytest.raises(TypeError):
        coerce_value(1 + 2j)


def test_coerce_value_text_is_ascii_and_bounded():
    assert coerce_value("1e10000") == 10 ** 10000
    assert coerce_value("-1_0e-1_0") == F(-1, 10 ** 9)
    assert coerce_value(" 12/7 ") == F(12, 7)
    assert coerce_value("9" * 4000) == 10 ** 4000 - 1
    for text in ("1e10001", "1e-10001", "1e5000_0000", "1E50000000", "9" * 4001, "٣", "1/٣"):
        with pytest.raises(ValueParseError):
            coerce_value(text)


class TestEigenvalueSpec:
    def test_parse_and_counts(self):
        spec = EigenvalueSpec("GL(3)", [1, 2, 3])
        assert spec.group_name == "GL(3)"
        assert spec.rank == 3
        assert spec.character_basis.value == "GL"
        assert spec.eigenvalues() == (F(1), F(2), F(3))

    def test_case_insensitive(self):
        assert EigenvalueSpec("gl(2)", [1, 2]).group_name == "GL(2)"
        assert EigenvalueSpec("sp(4)", [1, 2]).group_name == "Sp(4)"

    def test_sl_constraint(self):
        spec = EigenvalueSpec("SL(2)", [2, F(1, 2)])
        assert spec.eigenvalues() == (F(2), F(1, 2))
        with pytest.raises(ValueError):
            EigenvalueSpec("SL(2)", [2, 3])

    def test_sp_even(self):
        spec = EigenvalueSpec("Sp(4)", [2, 3])
        assert spec.rank == 2
        assert spec.character_basis.value == "Sp"
        assert spec.eigenvalues() == (F(2), F(3), F(1, 2), F(1, 3))

    def test_so_odd(self):
        spec = EigenvalueSpec("SO(5)", [2, 3])
        assert spec.eigenvalues() == (F(2), F(3), F(1, 2), F(1, 3), F(1))
        assert spec.rank == 2
        assert spec.character_basis.value == "O"

    def test_so_even(self):
        spec = EigenvalueSpec("SO(4)", [2, 3])
        assert spec.eigenvalues() == (F(2), F(3), F(1, 2), F(1, 3))

    def test_o_minus_odd(self):
        spec = EigenvalueSpec("O-(5)", [2, 3])
        assert spec.eigenvalues() == (F(2), F(3), F(1, 2), F(1, 3), F(-1))

    def test_o_minus_even(self):
        spec = EigenvalueSpec("O-(4)", [2])
        assert spec.eigenvalues() == (F(2), F(1, 2), F(1), F(-1))

    def test_sp_odd_values(self):
        spec = EigenvalueSpec("Sp(5)", [2, 3, 4])
        assert spec.eigenvalues() == (F(2), F(3), F(1, 2), F(1, 3), F(4))
        assert spec.rank == 2

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            EigenvalueSpec("GL(3)", [1, 2])
        with pytest.raises(ValueError):
            EigenvalueSpec("SO(5)", [1, 2, 3])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            EigenvalueSpec("GL(2)", [0, 1])

    def test_unknown_group(self):
        with pytest.raises(UnsupportedGroupError):
            EigenvalueSpec("SU(2)", [1])
        with pytest.raises(UnsupportedGroupError):
            EigenvalueSpec("GL", [1])


class TestSchurEvaluation:
    def test_known_values(self):
        assert eval_schur_tableaux(P((2, 1)), [1, 1, 1]) == 8
        assert eval_schur_tableaux(P((2,)), [F(1, 2), 2]) == F(21, 4)
        assert eval_schur_tableaux(P((1, 1)), [3, 4]) == 12
        assert eval_schur_tableaux(P(()), [5]) == 1

    def test_too_few_variables(self):
        assert eval_schur_tableaux(P((1, 1, 1)), [1, 2]) == 0
        assert eval_schur_bialternant(P((1, 1, 1)), [1, 2]) == 0

    def test_bialternant_known(self):
        # e1*e2 - e3 at (1, 2, 3): 6*11 - 6
        assert eval_schur_bialternant(P((2, 1)), [1, 2, 3]) == 60
        assert eval_schur_bialternant(P((2, 1)), [2, 3, 5]) == eval_schur_tableaux(
            P((2, 1)), [2, 3, 5]
        )

    def test_bialternant_repeated_point_rejected(self):
        with pytest.raises(SingularDenominatorError):
            eval_schur_bialternant(P((2,)), [2, 2])

    def test_methods_agree_random_points(self):
        rng = random.Random(20260814)
        shapes = [p for p in partitions_up_to(6)]
        for _ in range(100):
            lam = rng.choice(shapes)
            n = rng.randint(1, 4)
            xs = rng.sample(range(-30, 31), n)
            while 0 in xs:
                xs = rng.sample(range(-30, 31), n)
            assert eval_schur_tableaux(lam, xs) == eval_schur_bialternant(lam, xs)

    def test_rational_and_gaussian_points(self):
        xs = [F(1, 2), F(-2, 3), 3]
        assert eval_schur_tableaux(P((2, 1)), xs) == eval_schur_bialternant(P((2, 1)), xs)
        zs = [i, GaussianRational(1, 1)]
        assert eval_schur_tableaux(P((2,)), zs) == eval_schur_bialternant(P((2,)), zs)

    @given(
        st.lists(
            st.fractions(min_value=-4, max_value=4).filter(bool),
            min_size=1,
            max_size=4,
        ),
        st.permutations(range(4)),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetry_under_permutation(self, xs, perm):
        lam = P((2, 1))
        shuffled = [xs[j] for j in perm if j < len(xs)]
        assert eval_schur_tableaux(lam, shuffled) == eval_schur_tableaux(lam, xs)

    @given(
        st.sampled_from(list(partitions_up_to(7))),
        st.lists(
            st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-2, 3), i, GaussianRational(1, 1)]),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_three_methods_agree_with_repeated_values(self, lam, xs):
        # a GL character is its Schur polynomial; eval_character takes it
        # by Jacobi-Trudi
        value = eval_character(lam, EigenvalueSpec(f"GL({len(xs)})", xs))
        assert value == eval_schur_tableaux(lam, xs)
        if len(set(xs)) == len(xs):
            assert value == eval_schur_bialternant(lam, xs)
        else:
            with pytest.raises(SingularDenominatorError):
                eval_schur_bialternant(lam, xs)

    def test_stability_append_zero_keeps_value(self):
        # appending a zero variable changes nothing since columns cap at n
        lam = P((3, 1))
        xs = [2, F(1, 3)]
        with_zero = eval_schur_tableaux(lam, xs + [0])
        assert with_zero == eval_schur_tableaux(lam, xs)

    def test_multiplicativity_against_expansion(self):
        from schurhopf.lr import lr_expand_product

        xs = [2, 3, F(1, 2)]
        a, b = P((2, 1)), P((2,))
        prod = lr_expand_product(a, b)
        direct = eval_schur_tableaux(a, xs) * eval_schur_tableaux(b, xs)
        expanded = sum(c * eval_schur_tableaux(p, xs) for p, c in prod.items())
        assert direct == expanded


class TestEvalCharacter:
    def test_gl_example(self):
        spec = EigenvalueSpec("GL(2)", [F(1, 2), 2])
        assert eval_character(P((2,)), spec) == F(21, 4)

    def test_sp2_su2_dimension(self):
        spec = EigenvalueSpec("Sp(2)", [1])
        assert eval_character(P((3,)), spec) == 4

    def test_sp2_values(self):
        spec = EigenvalueSpec("Sp(2)", [F(3, 2)])
        assert eval_character(P((1,)), spec) == F(13, 6)
        # <2> converts to {2} alone since (2)/(1,1) vanishes
        assert eval_character(P((2,)), spec) == F(133, 36)

    def test_so5_values(self):
        spec = EigenvalueSpec("SO(5)", [2, 3])
        assert eval_character(P((1,)), spec) == F(41, 6)
        assert eval_character(P((1, 1)), spec) == F(97, 6)

    def test_o_minus_values(self):
        spec = EigenvalueSpec("O-(5)", [2, 3])
        assert eval_character(P((1,)), spec) == F(29, 6)
        assert eval_character(P((1, 1)), spec) == F(9, 2)

    def test_o_minus_even_vanishing(self):
        spec = EigenvalueSpec("O-(4)", [2])
        assert eval_character(P((1, 1)), spec) == 0

    def test_so3_at_i(self):
        spec = EigenvalueSpec("SO(3)", [i])
        assert eval_character(P((1,)), spec) == 1

    def test_so_odd_dimensions(self):
        spec = EigenvalueSpec("SO(7)", [1, 1, 1])
        assert eval_character(P((1,)), spec) == 7
        assert eval_character(P((1, 1)), spec) == 21
        assert eval_character(P((2,)), spec) == 27

    def test_sp_dimensions(self):
        spec = EigenvalueSpec("Sp(6)", [1, 1, 1])
        assert eval_character(P((1,)), spec) == 6
        assert eval_character(P((1, 1)), spec) == 14
        assert eval_character(P((2,)), spec) == 21

    def test_odd_symplectic_rejected(self):
        spec = EigenvalueSpec("Sp(5)", [2, 3, 4])
        with pytest.raises(UnsupportedGroupError):
            eval_character(P((1,)), spec)

    def test_stable_range_guard(self):
        spec = EigenvalueSpec("SO(5)", [2, 3])
        with pytest.raises(StableRangeError):
            eval_character(P((1, 1, 1)), spec)
        spec = EigenvalueSpec("Sp(4)", [2, 3])
        with pytest.raises(StableRangeError):
            eval_character(P((1, 1, 1)), spec)

    def test_gl_terms_are_jacobi_trudi_determinants(self, monkeypatch):
        def no_tableaux(lam, values):
            raise AssertionError("eval_character summed tableaux")

        monkeypatch.setattr(evaluate, "eval_schur_tableaux", no_tableaux)
        spec = EigenvalueSpec("GL(8)", range(1, 9))
        assert eval_character(P((8,) * 8), spec) == 6984964247141514123629140377600000000

    def test_gl_has_no_stable_range_guard(self):
        spec = EigenvalueSpec("GL(2)", [2, 3])
        assert eval_character(P((1, 1, 1)), spec) == 0

    def test_so17_at_8_8_is_pinned(self):
        spec = EigenvalueSpec("SO(17)", range(1, 9))
        assert eval_character(P((8,) * 8), spec) == F(
            1742432954475890611392705103012267303642103335738084395643731364619401335163,
            93132856628553521648388538368000000,
        )

    def test_o_and_sp_need_no_conversion_or_lr_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eval_character left the determinant path")

        monkeypatch.setattr(char_rings, "convert", refuse)
        monkeypatch.setattr(lr, "skew_expansion", refuse)
        assert eval_character(P((2,)), EigenvalueSpec("SO(5)", [1, 1])) == 14
        assert eval_character(P((1, 1)), EigenvalueSpec("Sp(6)", [1, 1, 1])) == 14
        assert eval_character(P((1, 1)), EigenvalueSpec("O-(5)", [2, 3])) == F(9, 2)


# Every family with its sizes; SL and Gaussian points included.
_FAMILIES = [
    ("GL", (1, 2, 3, 4)),
    ("SL", (1, 2, 3, 4)),
    ("SO", (2, 3, 4, 5, 6, 7)),
    ("O-", (2, 3, 4, 5, 6, 7)),
    ("Sp", (2, 4, 6)),
]
_POINTS = [F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(3), i, GaussianRational(1, 1)]
_SHAPES = list(partitions_up_to(6))


@st.composite
def _characters(draw):
    family, sizes = draw(st.sampled_from(_FAMILIES))
    size = draw(st.sampled_from(sizes))
    count = EigenvalueSpec.free_count_for(family, size)
    free = draw(st.lists(st.sampled_from(_POINTS), min_size=count, max_size=count))
    if family == "SL":
        free[-1] = 1 / math.prod(free[:-1], start=F(1))
    spec = EigenvalueSpec(f"{family}({size})", free)
    shapes = [p for p in _SHAPES if family in ("GL", "SL") or p.length <= spec.rank]
    return draw(st.sampled_from(shapes)), spec


@given(_characters())
@settings(max_examples=300, deadline=None)
def test_character_determinant_matches_conversion_to_schur_terms(case):
    # referee: rewrite the character in GL and sum its Schur polynomials
    lam, spec = case
    gl = convert(CharElement.basis_element(spec.character_basis, lam), Basis.GL)
    xs = spec.eigenvalues()
    expected = F(0)
    for p, c in gl.items():
        expected = expected + c * eval_schur_tableaux(p, xs)
    assert eval_character(lam, spec) == expected


# The ring maps' referee: each map is an identity of characters, checked by
# value at random rational points through eval_character's determinants.
# Per basis, the group of x and of y, and the group of x + y acting on the
# sum of their spaces with its fixed free values: SO(9) + SO(9) inside SO(18)
# takes the free values u, v and 1, so its eigenvalues are x's and y's.
_GROUPS = {
    Basis.GL: ("GL(4)", "GL(8)", []),
    Basis.O: ("SO(9)", "SO(18)", [F(1)]),
    Basis.SP: ("Sp(8)", "Sp(16)", []),
}
_FREE = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    min_size=4,
    max_size=4,
)
_REFEREE_PAIRS = [
    (lam, mu)
    for lam in partitions_up_to(8)
    for mu in partitions_up_to(8 - lam.weight)
    if lam.length <= 4 and mu.length <= 4
]


def _at(x: CharElement, spec: EigenvalueSpec):
    """The value of x at the group element spec: by spec's determinants in
    its own basis, by Schur polynomials of its eigenvalues in GL, and
    through GL in the third basis."""
    if x.basis is Basis.GL:
        spec = EigenvalueSpec(f"GL({spec.size})", spec.eigenvalues())
    elif x.basis is not spec.character_basis:
        return _at(convert(x, Basis.GL), spec)
    return sum((c * eval_character(p, spec) for p, c in x.items()), F(0))


@given(
    st.sampled_from(list(Basis)),
    st.sampled_from(_REFEREE_PAIRS),
    _FREE,
    _FREE,
    st.integers(-3, 3).filter(bool),
)
# No shrink phase: each failing example converts and evaluates up to weight 8
# at 18 eigenvalues, so shrinking a fault in a ring map took minutes before
# it reported; the first failing example is reported as drawn.
@settings(max_examples=40, deadline=5000, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_ring_maps_agree_with_evaluation(basis, pair, u, v, k):
    lam, mu = pair
    whole = {b: EigenvalueSpec(g, u + v + fixed) for b, (_, g, fixed) in _GROUPS.items()}
    xy = whole[basis]
    x = EigenvalueSpec(_GROUPS[basis][0], u)
    y = EigenvalueSpec(_GROUPS[basis][0], v)
    chi = lambda p, b=basis: CharElement.basis_element(b, p)

    # the product: chi_lam . chi_mu = sum N chi_nu
    value = _at(chi(lam), xy) * _at(chi(mu), xy)
    assert _at(tensor_product(lam, mu, basis), xy) == value
    assert _at(char_multiply(k * chi(lam), chi(mu) - 2 * chi(())), xy) == k * (
        value - 2 * _at(chi(lam), xy)
    )
    # the coproduct: chi_lam(x + y) = sum a chi_p(x) chi_q(y)
    split = sum(
        (a * _at(chi(p), x) * _at(chi(q), y) for (p, q), a in char_coproduct(chi(lam)).items()),
        F(0),
    )
    assert split == _at(chi(lam), xy)
    # conversions out of this basis, at a point of either basis's group
    for to in Basis:
        for point in (xy, whole[to]):
            assert _at(convert(chi(lam), to), point) == _at(chi(lam), point)
    # the branchings, at a point of the subgroup
    for branch, to in ((branch_gl_to_o, Basis.O), (branch_gl_to_sp, Basis.SP)):
        assert _at(branch(lam), whole[to]) == _at(chi(lam, Basis.GL), whole[to])


def test_verify_cauchy():
    assert verify_cauchy(1, 1, 4)
    assert verify_cauchy(2, 2, 4)
    assert verify_cauchy(3, 2, 4)
    assert verify_cauchy(0, 2, 3)


def test_verify_cauchy_fails_without_the_geometric_tail(monkeypatch):
    # keep only 1 + x_i y_j of each 1/(1 - x_i y_j): the inverse kernel is
    # then wrong from degree 2 on
    def short_factor(nvars, i, j, inverse, max_deg):
        full = pair_factor(nvars, i, j, inverse, max_deg)
        return dict(list(full.items())[:2]) if inverse else full

    monkeypatch.setattr(evaluate, "pair_factor", short_factor)
    assert not verify_cauchy(1, 1, 2)
    assert not verify_cauchy(2, 2, 4)


@pytest.mark.parametrize("values", ["12", b"12", "1"])
def test_eigenvalues_given_as_one_string_are_refused(values):
    # a str is not read one character at a time: "12" is not (1, 2)
    with pytest.raises(ValueParseError, match="sequence of values"):
        EigenvalueSpec("GL(2)", values)
    with pytest.raises(ValueParseError, match="sequence of values"):
        eval_schur_tableaux((1,), values)
    with pytest.raises(ValueParseError, match="sequence of values"):
        eval_schur_bialternant((1,), values)
    assert eval_schur_tableaux((1,), ["12"]) == 12
    assert EigenvalueSpec("GL(2)", ["1", "2"]).free_values == (1, 2)



# free_count_for at n = 0..9, then eigenvalues() at n = 1..9 with the free
# values 2, 3, 5, ... (for SL the last one makes the product 1)
_FREE_COUNTS = {
    "GL": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    "SL": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    "SO": [0, 0, 1, 1, 2, 2, 3, 3, 4, 4],
    "Sp": [0, 1, 1, 2, 2, 3, 3, 4, 4, 5],
    "O-": [None, 0, 0, 1, 1, 2, 2, 3, 3, 4],
}
_EIGENVALUES = {
    "GL": [
        "2", "2 3", "2 3 5", "2 3 5 7", "2 3 5 7 11", "2 3 5 7 11 13",
        "2 3 5 7 11 13 17", "2 3 5 7 11 13 17 19", "2 3 5 7 11 13 17 19 23",
    ],
    "SL": [
        "1", "2 1/2", "2 3 1/6", "2 3 5 1/30", "2 3 5 7 1/210",
        "2 3 5 7 11 1/2310", "2 3 5 7 11 13 1/30030",
        "2 3 5 7 11 13 17 1/510510", "2 3 5 7 11 13 17 19 1/9699690",
    ],
    "SO": [
        "1", "2 1/2", "2 1/2 1", "2 3 1/2 1/3", "2 3 1/2 1/3 1",
        "2 3 5 1/2 1/3 1/5", "2 3 5 1/2 1/3 1/5 1",
        "2 3 5 7 1/2 1/3 1/5 1/7", "2 3 5 7 1/2 1/3 1/5 1/7 1",
    ],
    "Sp": [
        "2", "2 1/2", "2 1/2 3", "2 3 1/2 1/3", "2 3 1/2 1/3 5",
        "2 3 5 1/2 1/3 1/5", "2 3 5 1/2 1/3 1/5 7",
        "2 3 5 7 1/2 1/3 1/5 1/7", "2 3 5 7 1/2 1/3 1/5 1/7 11",
    ],
    "O-": [
        "-1", "1 -1", "2 1/2 -1", "2 1/2 1 -1", "2 3 1/2 1/3 -1",
        "2 3 1/2 1/3 1 -1", "2 3 5 1/2 1/3 1/5 -1",
        "2 3 5 1/2 1/3 1/5 1 -1", "2 3 5 7 1/2 1/3 1/5 1/7 -1",
    ],
}


@pytest.mark.parametrize("family", sorted(_FREE_COUNTS))
def test_every_family_layout_is_pinned(family):
    for n, count in enumerate(_FREE_COUNTS[family]):
        if count is None:
            with pytest.raises(UnsupportedGroupError, match=r"O-\(0\) is empty"):
                EigenvalueSpec.free_count_for(family, n)
        else:
            assert EigenvalueSpec.free_count_for(family, n) == count, n
    primes = [F(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
    for n, expected in enumerate(_EIGENVALUES[family], start=1):
        free = primes[:_FREE_COUNTS[family][n]]
        if family == "SL":
            free[-1] = 1 / math.prod(free[:-1], start=F(1))
        values = EigenvalueSpec(f"{family}({n})", free).eigenvalues()
        assert all(isinstance(v, Fraction) for v in values), n
        assert " ".join(map(str, values)) == expected, n


def test_unknown_family_is_refused():
    with pytest.raises(UnsupportedGroupError, match="unknown group family"):
        EigenvalueSpec.free_count_for("U", 3)
