"""The library contract under bad arguments: every public call returns its
answer or raises a `SchurHopfError`, never a plain Python error.

The named cases pin the exception type of each value that used to escape
the hierarchy.  The fuzzer then draws calls over `schurhopf.__all__`, each
argument either a good value of its kind or a bad one: None, a string, a
negative int, a float, an element of the wrong ring or type, and (since
two characters are drawn independently) characters in mismatched bases.
The inputs stay small (shapes of weight up to 4, elements of weight up to
4, so products up to weight 8; series cutoffs up to 6; at most 4
eigenvalues), so every example finishes well inside the deadline.

Left out on purpose:
- eigenvalues with huge exponents such as 1e10000, for which the
  evaluators have no digit guard before they compute, and run for half a
  minute before they fail;
- the element constructors (`SchurElement`, `CharElement`, ...) and
  `GaussianRational`, which raise TypeError for a coefficient that is not
  an int, and the operators, which may raise TypeError through
  NotImplemented.
"""

import inspect
import types
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import schurhopf
from schurhopf import (
    Basis,
    CharElement,
    EigenvalueSpec,
    Partition,
    PartitionError,
    SchurElement,
    SchurHopfError,
    SchurSeries,
    TensorElement,
    littlewood_series,
    unit_series,
)
from schurhopf.errors import InvalidArgumentError, UnsupportedGroupError, ValueParseError
from schurhopf.partition import partitions_up_to, set_weight_limit
from schurhopf.series import TensorSeriesCoefficients, series_term
from schurhopf.verify import run_suite

s = SchurElement.basis

TYPED_ERRORS = {
    "Partition(None)": (lambda: Partition(None), PartitionError),
    "lr_coefficient(None, ...)": (
        lambda: schurhopf.lr_coefficient(None, (1,), (1,)), PartitionError
    ),
    "parse_partition(None)": (lambda: schurhopf.parse_partition(None), PartitionError),
    "partitions_of('3')": (lambda: schurhopf.partitions_of("3"), InvalidArgumentError),
    "partitions_up_to('3')": (lambda: schurhopf.partitions_up_to("3"), InvalidArgumentError),
    "format_partition('ab')": (lambda: schurhopf.format_partition("ab"), PartitionError),
    "SchurElement.from_json({})": (lambda: SchurElement.from_json({}), InvalidArgumentError),
    "CharElement.from_json({})": (lambda: CharElement.from_json({}), InvalidArgumentError),
    "TensorElement.from_json({})": (
        lambda: TensorElement.from_json({}), InvalidArgumentError
    ),
    "term function returns an int": (
        lambda: SchurSeries(lambda d: 5, 3).term(1), InvalidArgumentError
    ),
    "term function is not homogeneous": (
        lambda: SchurSeries(lambda d: s((1,)), 3).term(2), InvalidArgumentError
    ),
    "TensorSeriesCoefficients cutoffs differ": (
        lambda: TensorSeriesCoefficients({}, 2) + TensorSeriesCoefficients({}, 3),
        InvalidArgumentError,
    ),
    "littlewood_series(None)": (lambda: littlewood_series(None), InvalidArgumentError),
    "float eigenvalue": (
        lambda: schurhopf.eval_schur_tableaux((1,), [0.5]), ValueParseError
    ),
    "eigenvalues that are not a sequence": (
        lambda: schurhopf.eval_schur_bialternant((1,), None), ValueParseError
    ),
    "group that is not text": (lambda: EigenvalueSpec(None, []), UnsupportedGroupError),
    "eval_character of a group name": (
        lambda: schurhopf.eval_character((1,), "GL(1)"), InvalidArgumentError
    ),
    "verify_cauchy with a negative count": (
        lambda: schurhopf.verify_cauchy(-1, 1, 1), InvalidArgumentError
    ),
    "set_weight_limit('3')": (lambda: set_weight_limit("3"), InvalidArgumentError),
    "set_weight_limit(2.5)": (lambda: set_weight_limit(2.5), InvalidArgumentError),
    "set_weight_limit(True)": (lambda: set_weight_limit(True), InvalidArgumentError),
    "set_weight_limit(-1)": (lambda: set_weight_limit(-1), InvalidArgumentError),
    "run_suite('bogus')": (lambda: run_suite("bogus"), InvalidArgumentError),
    "Partition.from_frobenius with a text leg": (
        lambda: Partition.from_frobenius((1,), ("a",)), PartitionError
    ),
    "TensorElement.pure of ints": (lambda: TensorElement.pure(1, 2), InvalidArgumentError),
    "scalar_product with an int": (
        lambda: SchurElement.one().scalar_product(3), InvalidArgumentError
    ),
    "diagonal_defects through text": (
        lambda: schurhopf.delta_double_prime(littlewood_series("D", 4)).diagonal_defects("x"),
        InvalidArgumentError,
    ),
    "homogeneous_component of text": (
        lambda: SchurElement.one().homogeneous_component("x"), InvalidArgumentError
    ),
    "Partition.contains(None)": (lambda: Partition((2, 1)).contains(None), PartitionError),
    "Partition.contains of text": (lambda: Partition((2, 1)).contains("ab"), PartitionError),
    "Partition.contains of a float part": (
        lambda: Partition((2, 1)).contains([1.5]), PartitionError
    ),
    "Partition.contains of a bool part": (
        lambda: Partition((2, 1)).contains((True,)), PartitionError
    ),
    "Partition.contains of a negative part": (
        lambda: Partition((2, 1)).contains((-1,)), PartitionError
    ),
}


@pytest.mark.parametrize("case", list(TYPED_ERRORS))
def test_bad_values_raise_typed_errors(case):
    call, error = TYPED_ERRORS[case]
    with pytest.raises(error):
        call()


SHAPES = [tuple(p) for p in partitions_up_to(4)]
ELEMENTS = [
    s((2, 1)),
    s((1,)) - 2 * s(()),
    s((3, 1)) + s((2, 2)),
]
CHARACTERS = [
    CharElement(basis, {(2, 1): 1, (1,): -2})
    for basis in Basis
] + [CharElement.basis_element(basis, (2, 2)) for basis in Basis]
SERIES = [littlewood_series(name, 6) for name in "ABCD"] + [unit_series(6)]
SPECS = [
    EigenvalueSpec("GL(2)", [2, 3]),
    EigenvalueSpec("SO(5)", [2, Fraction(1, 3)]),
    EigenvalueSpec("Sp(4)", [2, 5]),
    EigenvalueSpec("Sp(3)", [2, 5]),
]

# Bad values every slot may draw: nothing, text, a negative int, a float, and
# an element of the wrong kind.
BAD = st.sampled_from([None, "ab", -1, 2.5, s((1,)), CharElement.basis_element(Basis.O, (1,))])

GOOD = {
    "shape": st.sampled_from(SHAPES),
    "text": st.sampled_from(["21", "2^2 1", "3,1", "0", "", "x", "1^", "2,,1"]),
    "count": st.integers(0, 3),
    "basis": st.sampled_from(["GL", "O", "Sp", "sp", Basis.O, "SU"]),
    "schur": st.sampled_from(ELEMENTS),
    "char": st.sampled_from(CHARACTERS),
    "series": st.sampled_from(SERIES),
    "cutoff": st.one_of(st.none(), st.integers(0, 6)),
    "name": st.sampled_from(["A", "b", "C", "d", "Z", ""]),
    "values": st.lists(
        st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "2", "1/0", "x"])),
        max_size=4,
    ),
    "spec": st.sampled_from(SPECS),
    "group": st.sampled_from(["GL(2)", "SL(2)", "SO(5)", "Sp(4)", "O-(4)", "U(2)"]),
    "json": st.sampled_from(
        [x.to_json() for x in ELEMENTS + CHARACTERS]
        + [ELEMENTS[0].coproduct().to_json(), {}, {"terms": 5}, {"terms": [{}]}]
        + [{"basis": "O", "terms": [{"partition": [1], "coeff": 1.5}]}]
    ),
    "term function": st.sampled_from([
        lambda d: series_term("D", d),
        lambda d: SchurElement.zero(),
        lambda d: 5,
        lambda d: s((1,)),
    ]),
}
ARGUMENTS = {kind: st.one_of(good, BAD) for kind, good in GOOD.items()}

CALLS = {
    "Partition": (Partition, ["shape"]),
    "SchurElement.from_json": (SchurElement.from_json, ["json"]),
    "TensorElement.from_json": (TensorElement.from_json, ["json"]),
    "CharElement.from_json": (CharElement.from_json, ["json"]),
    "SchurSeries.term": (
        lambda fn, cutoff, d: SchurSeries(fn, cutoff).term(d),
        ["term function", "count", "count"],
    ),
    "EigenvalueSpec": (EigenvalueSpec, ["group", "values"]),
    "branch_gl_to_o": (schurhopf.branch_gl_to_o, ["shape"]),
    "branch_gl_to_sp": (schurhopf.branch_gl_to_sp, ["shape"]),
    "char_antipode": (schurhopf.char_antipode, ["char"]),
    "char_coproduct": (schurhopf.char_coproduct, ["char"]),
    "char_counit": (schurhopf.char_counit, ["char"]),
    "char_multiply": (schurhopf.char_multiply, ["char", "char"]),
    "convert": (schurhopf.convert, ["char", "basis"]),
    "delta_double_prime": (schurhopf.delta_double_prime, ["series", "cutoff"]),
    "eval_character": (schurhopf.eval_character, ["shape", "spec"]),
    "eval_schur_bialternant": (schurhopf.eval_schur_bialternant, ["shape", "values"]),
    "eval_schur_tableaux": (schurhopf.eval_schur_tableaux, ["shape", "values"]),
    "format_partition": (schurhopf.format_partition, ["shape"]),
    "kernel_name": (schurhopf.kernel_name, []),
    "littlewood_series": (schurhopf.littlewood_series, ["name", "cutoff"]),
    "lr_coefficient": (schurhopf.lr_coefficient, ["shape", "shape", "shape"]),
    "lr_expand_product": (schurhopf.lr_expand_product, ["shape", "shape"]),
    "lr_expand_skew": (schurhopf.lr_expand_skew, ["shape", "shape"]),
    "parse_partition": (schurhopf.parse_partition, ["text"]),
    "partitions_of": (schurhopf.partitions_of, ["count", "cutoff"]),
    "partitions_up_to": (schurhopf.partitions_up_to, ["count"]),
    "product_expansion": (schurhopf.product_expansion, ["shape", "shape"]),
    "series_inverse": (schurhopf.series_inverse, ["series", "cutoff"]),
    "series_product": (schurhopf.series_product, ["series", "series", "cutoff"]),
    "skew_by_series": (schurhopf.skew_by_series, ["schur", "series"]),
    "skew_expansion": (schurhopf.skew_expansion, ["shape", "shape"]),
    "subpartitions": (schurhopf.subpartitions, ["shape"]),
    "tensor_product": (schurhopf.tensor_product, ["shape", "shape", "basis"]),
    "tensor_product_generic": (
        schurhopf.tensor_product_generic, ["shape", "shape", "series"]
    ),
    "unit_series": (schurhopf.unit_series, ["cutoff"]),
    "verify_cauchy": (schurhopf.verify_cauchy, ["count", "count", "count"]),
}


def test_the_fuzzer_covers_every_public_function():
    functions = {
        name for name in schurhopf.__all__
        if inspect.isfunction(getattr(schurhopf, name))
    }
    assert functions <= set(CALLS)


@given(st.data())
@settings(
    max_examples=400,
    deadline=2000,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_public_call_returns_or_raises_a_library_error(data):
    name = data.draw(st.sampled_from(sorted(CALLS)), label="call")
    call, kinds = CALLS[name]
    args = [data.draw(ARGUMENTS[kind], label=kind) for kind in kinds]
    try:
        result = call(*args)
        if isinstance(result, types.GeneratorType):
            list(result)
    except SchurHopfError:
        pass
