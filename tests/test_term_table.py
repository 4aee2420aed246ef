"""The term-table core shared by the five coefficient-table types.

Ring code builds its results unchecked, so these tests hold every public
operation to the trusted-table contract: keys are exactly `Partition`s (or
pairs of them) and no coefficient is zero.  The rendering goldens were
captured before the five types shared the core.
"""

from hypothesis import given, settings, strategies as st

from schurhopf.char_rings import (
    Basis,
    CharElement,
    CharTensorElement,
    branch_gl_to_o,
    branch_gl_to_sp,
    char_antipode,
    char_coproduct,
    char_multiply,
    convert,
    tensor_product,
)
from schurhopf.partition import Partition, partitions_up_to
from schurhopf.schur_ring import PairTable, SchurElement, TensorElement
from schurhopf.series import delta_double_prime, littlewood_series

SHAPES = partitions_up_to(4)
shapes = st.sampled_from(SHAPES)
tables = st.dictionaries(shapes, st.integers(-3, 3), max_size=3)
pair_tables = st.dictionaries(st.tuples(shapes, shapes), st.integers(-3, 3), max_size=3)
bases = st.sampled_from(list(Basis))
scalars = st.integers(-2, 2)


def assert_trusted(x):
    """Every key canonical, every coefficient a nonzero int."""
    for key, c in x.items():
        if isinstance(x, PairTable):
            assert type(key) is tuple and len(key) == 2, key
            assert all(type(p) is Partition for p in key), key
        else:
            assert type(key) is Partition, key
        assert type(c) is int and c != 0, (key, c)


@settings(max_examples=40, deadline=None)
@given(tables, tables, shapes, scalars)
def test_schur_operations_keep_the_contract(a, b, p, k):
    x, y = SchurElement(a), SchurElement(b)
    for out in (x + y, x - y, x - x, -x, x * k, k * x, x * y, x.skew(y), x.skew(p),
                x.antipode(), x.homogeneous_component(2), x.coproduct()):
        assert_trusted(out)


@settings(max_examples=40, deadline=None)
@given(pair_tables, pair_tables, tables, shapes, scalars)
def test_tensor_operations_keep_the_contract(a, b, c, p, k):
    x, y = TensorElement(a), TensorElement(b)
    z = SchurElement(c)
    for out in (x + y, x - y, x - x, -x, x * k, k * x, x * y, x.swap(),
                x.left_component(p), TensorElement.pure(z, z)):
        assert_trusted(out)


@settings(max_examples=40, deadline=None)
@given(bases, bases, tables, tables, shapes, shapes, scalars)
def test_char_operations_keep_the_contract(basis, other, a, b, lam, mu, k):
    x, y = CharElement(basis, a), CharElement(basis, b)
    for out in (x + y, x - y, x - x, -x, x * k, k * x, x * y, char_multiply(x, y),
                convert(x, other), convert(x, basis), x.as_schur_element(),
                tensor_product(lam, mu, basis), char_coproduct(x), char_antipode(x),
                branch_gl_to_o(lam), branch_gl_to_sp(lam)):
        assert_trusted(out)


@settings(max_examples=40, deadline=None)
@given(bases, pair_tables, pair_tables, scalars)
def test_char_tensor_operations_keep_the_contract(basis, a, b, k):
    x, y = CharTensorElement(basis, a), CharTensorElement(basis, b)
    for out in (x + y, x - y, x - x, -x, x * k, k * x):
        assert_trusted(out)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from("ABCD"), st.integers(0, 4))
def test_delta_double_prime_keeps_the_contract(name, cutoff):
    table = delta_double_prime(littlewood_series(name, cutoff))
    assert_trusted(table)
    assert_trusted(table + table)


def test_repr_goldens():
    assert repr(SchurElement({(2, 1): 3, (1,): -1, (): 2})) == (
        "SchurElement({Partition(2, 1): 3, Partition(1,): -1, Partition(): 2})"
    )
    assert repr(SchurElement.basis((1,)).coproduct()) == (
        "TensorElement({(Partition(1,), Partition()): 1, (Partition(), Partition(1,)): 1})"
    )
    assert repr(convert(CharElement.basis_element("Sp", (1, 1)), "GL")) == (
        "CharElement(GL, {Partition(1, 1): 1, Partition(): -1})"
    )
    assert repr(char_coproduct(CharElement.basis_element("O", (1,)))) == (
        "CharTensorElement(O, {(Partition(1,), Partition()): 1, "
        "(Partition(), Partition(1,)): 1})"
    )
    assert repr(delta_double_prime(littlewood_series("D", 4))) == (
        "TensorSeriesCoefficients(4 terms, cutoff=4)"
    )
    assert repr(TensorElement()) == "TensorElement({})"
    assert repr(CharElement("O")) == "CharElement(O, {})"
    assert repr(CharTensorElement("Sp")) == "CharTensorElement(Sp, {})"


def test_str_goldens():
    assert str(char_coproduct(CharElement.basis_element("Sp", (2,)))) == (
        "⟨2⟩⊗⟨0⟩+⟨1⟩⊗⟨1⟩+⟨0⟩⊗⟨2⟩"
    )
    assert str(char_coproduct(CharElement.basis_element("O", (1,)))) == "[1]⊗[0]+[0]⊗[1]"
    assert str(CharTensorElement("Sp")) == "0"
    table = delta_double_prime(littlewood_series("A", 2))
    assert str(table) == "TensorSeriesCoefficients(2 terms, cutoff=2)"
    assert table.sorted_terms() == [((Partition((1,)), Partition((1,))), -1),
                                    ((Partition(()), Partition(())), 1)]
