"""The CLI contract under random argv: every run ends in a documented exit
code (0 success, 2 parse error, 3 degree overflow, 4 basis misuse,
5 verification failure) and never in a traceback.

`cli.main` runs in process, so an exception it fails to turn into an exit
code propagates and fails the example.  The inputs stay small (weights
up to 6, short random tokens, small eigenvalues, cutoffs up to 8), so every
example finishes in well under a second.  Left out on purpose: eigenvalues
with huge exponents such as 1e10000, for which `eval` has no digit guard
before it computes and runs for half a minute before it exits 2.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from schurhopf import cli
from schurhopf.partition import partitions_up_to

EXIT_CODES = {0, 2, 3, 4, 5}

SHAPES = [tuple(p) for p in partitions_up_to(6)]


def _compact(shape):
    return " ".join(f"{p}^{m}" if m > 1 else str(p)
                    for p, m in sorted({p: shape.count(p) for p in shape}.items(),
                                       reverse=True)) or "0"


def _comma(shape):
    return ",".join(map(str, shape))


# Two characters of this alphabet read at most the shape 33, of weight 6.
JUNK = st.text(alphabet="0123,^ x-²", max_size=2)
PARTITION = st.one_of(
    st.sampled_from(SHAPES).map(_compact),
    st.sampled_from(SHAPES).map(_comma),
    st.sampled_from(["-1", "1,2", "2^", "^2", "a", "1e3", "3^0", "1,,1", "٣", "12^99"]),
    JUNK,
)
BASIS = st.sampled_from(["GL", "O", "Sp", "gl", "o", "sp", "SO", "", "x"])
FORMAT = st.one_of(st.just([]), st.sampled_from(["text", "json", "xml"]).map(
    lambda f: ["--format", f]))
CUTOFF = st.one_of(st.integers(0, 8).map(str),
                   st.sampled_from(["-1", "x", "1.5", "٣", "", "08"]))
GROUP = st.sampled_from([
    "GL(3)", "SL(2)", "SO(5)", "SO(4)", "O-(4)", "O-(5)", "Sp(4)", "Sp(3)",
    "GL(0)", "GL(", "SO(x)", "U(3)", "", "gl(2)",
])
GOOD_VALUE = st.sampled_from(["1", "-2", "1/2", "-3/4", "3", " 5/3 "])
VALUE = st.one_of(GOOD_VALUE, st.sampled_from(["0", "1/0", "x", "", "2+i", "1/"]))


def _schur():
    two = st.tuples(st.sampled_from(["mul", "skew", "scalar"]),
                    st.lists(PARTITION, min_size=1, max_size=3))
    one = st.tuples(st.sampled_from(["coproduct", "antipode", "counit", "bad"]),
                    st.lists(PARTITION, min_size=1, max_size=2))
    return st.tuples(st.one_of(two, one), FORMAT).map(
        lambda t: ["schur", t[0][0], *t[0][1], *t[1]])


def _series():
    name = st.sampled_from(["A", "B", "C", "D", "E", "a"])
    cutoff = st.one_of(st.just([]), CUTOFF.map(lambda c: ["--max-degree", c]))
    return st.tuples(name, cutoff, FORMAT).map(lambda t: ["series", t[0], *t[1], *t[2]])


def _char():
    branch = st.tuples(BASIS, PARTITION).map(lambda t: ["branch", "--to", t[0], t[1]])
    tensor = st.tuples(BASIS, PARTITION, PARTITION).map(
        lambda t: ["tensor", "--basis", t[0], t[1], t[2]])
    convert = st.tuples(BASIS, BASIS, PARTITION).map(
        lambda t: ["convert", "--from", t[0], "--to", t[1], t[2]])
    single = st.tuples(st.sampled_from(["coproduct", "antipode", "counit"]), BASIS,
                       PARTITION).map(lambda t: [t[0], "--basis", t[1], t[2]])
    missing = st.sampled_from([["tensor", "1"], ["convert", "1"], ["nope"], []])
    op = st.one_of(branch, tensor, convert, single, missing)
    return st.tuples(op, FORMAT).map(lambda t: ["char", *t[0], *t[1]])


def _eval():
    values = st.one_of(st.lists(GOOD_VALUE, min_size=1, max_size=3),
                       st.lists(VALUE, max_size=3)).map(",".join)
    shape = st.one_of(st.sampled_from(SHAPES).map(_compact), PARTITION)
    return st.tuples(GROUP, values, shape, FORMAT).map(
        lambda t: ["eval", "--group", t[0], "--values", t[1], t[2], *t[3]])


ARGV = st.one_of(_schur(), _series(), _char(), _eval())


@given(ARGV)
@settings(max_examples=300, deadline=None)
def test_random_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        assert out.getvalue(), argv
    else:
        assert err.getvalue(), argv
