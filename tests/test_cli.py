import json
import os
import subprocess
import sys

import pytest

import schurhopf
from schurhopf import cli
from schurhopf.char_rings import CharElement
from schurhopf.errors import BasisMismatchError
from schurhopf.schur_ring import SchurElement


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_schur_mul_text(capsys):
    code, out, err = run(capsys, "schur", "mul", "2^2", "21")
    assert code == 0
    assert out == "{43}+{421}+{3^2 1}+{32^2}+{321^2}+{2^3 1}\n"
    assert err == ""


def test_removed_environment_knobs_are_ignored():
    # stale settings of the removed cache-size and kernel knobs must not
    # break the import or the CLI
    env = dict(os.environ, SCHURHOPF_CACHE_SIZE="abc", SCHURHOPF_KERNEL="cython")
    src = os.path.dirname(os.path.dirname(schurhopf.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import schurhopf; from schurhopf import cli, lr; print(lr.kernel_name()); "
        "raise SystemExit(cli.main(['schur', 'mul', '1', '1']))"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "python\n{2}+{1^2}\n", "")


def test_schur_skew_text(capsys):
    code, out, _ = run(capsys, "schur", "skew", "4,2,1", "2,1")
    assert code == 0
    assert out == "{4}+2{31}+{2^2}+{21^2}\n"


def test_schur_coproduct_text(capsys):
    code, out, _ = run(capsys, "schur", "coproduct", "2")
    assert code == 0
    assert out == "{2}⊗{0}+{1}⊗{1}+{0}⊗{2}\n"


def test_schur_antipode_and_counit(capsys):
    code, out, _ = run(capsys, "schur", "antipode", "21")
    assert (code, out) == (0, "-{21}\n")
    code, out, _ = run(capsys, "schur", "counit", "0")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "schur", "scalar", "21", "21")
    assert (code, out) == (0, "1\n")


def test_schur_mul_json_round_trip(capsys):
    code, out, _ = run(capsys, "schur", "mul", "--format", "json", "2", "1")
    assert code == 0
    elt = SchurElement.from_json(json.loads(out))
    assert str(elt) == "{3}+{21}"


def test_root_format_flag_position(capsys):
    _, before, _ = run(capsys, "--format", "json", "schur", "mul", "2", "1")
    _, after, _ = run(capsys, "schur", "mul", "--format", "json", "2", "1")
    assert before == after
    assert json.loads(before)["terms"][0] == {"partition": [3], "coeff": 1}


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "D", "--max-degree", "6")
    assert code == 0
    assert out == "{0}\n{2}\n{4}+{2^2}\n{6}+{42}+{2^3}\n"


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "B", "--max-degree", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["name"] == "B"
    assert obj["max_degree"] == 4
    assert [d["degree"] for d in obj["degrees"]] == [0, 2, 4]
    assert obj["degrees"][2]["terms"] == [
        {"partition": [2, 2], "coeff": 1},
        {"partition": [1, 1, 1, 1], "coeff": 1},
    ]


def test_char_branch_text(capsys):
    code, out, _ = run(capsys, "char", "branch", "2^2 1^2", "--to", "O")
    assert (code, out) == (0, "[2^2 1^2]+[21^2]+[1^2]\n")
    code, out, _ = run(capsys, "char", "branch", "2^2 1^2", "--to", "Sp")
    assert (code, out) == (0, "⟨2^2 1^2⟩+⟨2^2⟩+⟨21^2⟩+⟨1^4⟩+2⟨1^2⟩+⟨0⟩\n")


def test_char_tensor_text(capsys):
    code, out, _ = run(capsys, "char", "tensor", "--basis", "O", "1", "1")
    assert (code, out) == (0, "[2]+[1^2]+[0]\n")


def test_char_tensor_json(capsys):
    code, out, _ = run(
        capsys, "char", "tensor", "--basis", "O", "1", "1", "--format", "json"
    )
    assert code == 0
    elt = CharElement.from_json(json.loads(out))
    assert str(elt) == "[2]+[1^2]+[0]"


def test_char_convert_text(capsys):
    code, out, _ = run(capsys, "char", "convert", "--from", "Sp", "--to", "GL", "1^2")
    assert (code, out) == (0, "{1^2}-{0}\n")


def test_char_coproduct_counit_antipode(capsys):
    code, out, _ = run(capsys, "char", "coproduct", "--basis", "O", "2")
    assert (code, out) == (0, "[2]⊗[0]+[1]⊗[1]+[0]⊗[2]+[0]⊗[0]\n")
    code, out, _ = run(capsys, "char", "counit", "--basis", "O", "2")
    assert (code, out) == (0, "-1\n")
    code, out, _ = run(capsys, "char", "antipode", "--basis", "O", "2")
    assert (code, out) == (0, "[1^2]-[0]\n")


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "--group", "Sp(2)", "--values", "3/2", "1")
    assert (code, out) == (0, "13/6\n")
    code, out, _ = run(capsys, "eval", "--group", "GL(2)", "--values", "1/2,2", "2")
    assert (code, out) == (0, "21/4\n")


def test_eval_json(capsys):
    code, out, _ = run(
        capsys, "eval", "--group", "GL(2)", "--values", "1/2,2", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"value": "21/4"}


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == f"ok: {len(lines) - 1} checks passed"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "tables", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "tables"
    assert obj["passed"] is True
    assert all(c["passed"] for c in obj["checks"])


def test_verify_failure_exit_code(capsys, monkeypatch):
    from schurhopf.verify import CheckResult

    monkeypatch.setattr(
        cli, "run_suite", lambda name, max_degree=None: [
            CheckResult("stub", False, "forced failure"),
        ],
    )
    code, out, _ = run(capsys, "verify", "tables")
    assert code == cli.EXIT_VERIFY == 5
    assert "FAIL stub: forced failure" in out
    assert "FAILED: 1 of 1 checks" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "schur", "mul", "x", "1")
    assert code == cli.EXIT_PARSE == 2
    assert err.startswith("error:")


def test_weight_limit_exit_code(capsys):
    code, _, err = run(capsys, "schur", "mul", "30", "40")
    assert code == cli.EXIT_DEGREE == 3
    assert "limit" in err


def test_series_overflow_exit_code(capsys):
    code, _, err = run(capsys, "series", "D", "--max-degree", "99")
    assert code == 3
    assert "limit" in err


def test_basis_mismatch_exit_code(capsys, monkeypatch):
    def boom(args, fmt):
        raise BasisMismatchError("mixed bases")

    monkeypatch.setattr(cli, "_run_char", boom)
    code, _, err = run(capsys, "char", "counit", "--basis", "O", "2")
    assert code == cli.EXIT_BASIS == 4
    assert "mixed bases" in err


def test_eval_error_exit_codes(capsys):
    code, _, err = run(capsys, "eval", "--group", "Sp(5)", "--values", "2,3,4", "1")
    assert code == 2
    assert "Sp(5)" in err
    code, _, err = run(capsys, "eval", "--group", "SO(5)", "--values", "2,3", "1,1,1")
    assert code == 2
    assert "stable range" in err
    code, _, err = run(capsys, "eval", "--group", "GL(2)", "--values", "0,1", "1")
    assert code == 2
    assert "nonzero" in err
    code, out, err = run(capsys, "eval", "--group", "GL(2)", "--values", "1/0,1", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "denominator" in err


@pytest.mark.parametrize("argv, message", [
    (("char", "tensor", "--basis", "Q", "1", "1"), "unknown basis 'Q'; expected GL, O or Sp"),
    (("eval", "--group", "GL(2)", "--values", "0,1", "1"),
     "eigenvalue parameters must be nonzero"),
    (("eval", "--group", "GL(2)", "--values", "1", "1"), "GL(2) takes 2 free value(s), got 1"),
    (("eval", "--group", "SL(2)", "--values", "2,3", "1"),
     "SL(n) eigenvalues must have product 1"),
    (("series", "D", "--max-degree", "-1"), "cutoff must be nonnegative"),
    (("verify", "all", "--max-degree", "-1"), "cutoff must be nonnegative"),
    (("eval", "--group", "GL(%s)" % ("9" * 5000), "--values", "1", "1"),
     "group size with 5000 digits is too large"),
    (("schur", "counit", "²"), "unexpected '²' in partition '²'"),
    (("schur", "mul", "²,", "1"), "bad part '²' in '²,'"),
    (("char", "counit", "--basis", "O", "2^²"), "missing exponent after ^ in '2^²'"),
    (("eval", "--group", "GL(1)", "--values", "1e5000", "1"),
     "the value has too many digits to print"),
    (("--format", "json", "eval", "--group", "GL(1)", "--values", "1e-5000", "1"),
     "the value has too many digits to print"),
    (("verify", "hopf", "--max-degree", "-1"), "cutoff must be nonnegative"),
    (("verify", "cauchy", "--max-degree", "-1"), "cutoff must be nonnegative"),
    (("verify", "hopf", "--max-degree", "٣"), "cutoff '٣' is not an integer in ASCII digits"),
    (("eval", "--group", "GL(٣)", "--values", "1,1,1", "1"),
     "cannot parse group 'GL(٣)'; expected GL(n), SL(n), SO(n), O-(n) or Sp(n)"),
    (("eval", "--group", "GL(3)", "--values", "٣,1,1", "1"),
     "cannot read '٣' as an exact rational"),
    (("eval", "--group", "GL(1)", "--values", "1e50000000", "1"),
     "value exponent exceeds the limit 10000 in magnitude"),
])
def test_bad_arguments_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (cli.EXIT_PARSE, "", f"error: {message}\n")


@pytest.mark.parametrize("text", ["9" * 5000, "1," + "9" * 5000], ids=["single", "comma"])
def test_overlong_part_exits_3(capsys, text):
    code, out, err = run(capsys, "schur", "counit", text)
    assert (code, out) == (cli.EXIT_DEGREE, "")
    assert err == "error: partition weight with 5000 digits exceeds the limit 64\n"


def test_internal_value_error_is_not_an_exit_code(monkeypatch):
    def broken(lam, mu, basis):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli.char_rings, "tensor_product", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["char", "tensor", "--basis", "O", "1", "1"])


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "schur", "frobnicate", "1", "2")
    assert code == 2
    code, _, err = run(capsys, "nonsense")
    assert code == 2


def test_schur_arity_errors(capsys):
    code, _, err = run(capsys, "schur", "mul", "2")
    assert code == 2
    code, _, err = run(capsys, "schur", "counit", "1", "2")
    assert code == 2


def test_main_returns_int_not_raises():
    assert isinstance(cli.main(["schur", "counit", "0"]), int)
    with pytest.raises(TypeError):
        cli.main(0)


# Complete stdout of result tables, fixed before the LR caches began handing
# out tables in kernel order instead of sorted order.
GOLDEN_STDOUT = [
    (("schur", "mul", "21", "21"),
     "{42}+{41^2}+{3^2}+2{321}+{31^3}+{2^3}+{2^2 1^2}\n",
     '{"terms": [{"partition": [4, 2], "coeff": 1}, {"partition": [4, 1, 1], '
     '"coeff": 1}, {"partition": [3, 3], "coeff": 1}, {"partition": [3, 2, 1], '
     '"coeff": 2}, {"partition": [3, 1, 1, 1], "coeff": 1}, {"partition": '
     '[2, 2, 2], "coeff": 1}, {"partition": [2, 2, 1, 1], "coeff": 1}]}\n'),
    (("schur", "mul", "3,1", "2,1,1"),
     "{521}+{51^3}+{431}+{42^2}+2{421^2}+{41^4}+{3^2 1^2}+{32^2 1}+{321^3}\n",
     '{"terms": [{"partition": [5, 2, 1], "coeff": 1}, {"partition": '
     '[5, 1, 1, 1], "coeff": 1}, {"partition": [4, 3, 1], "coeff": 1}, '
     '{"partition": [4, 2, 2], "coeff": 1}, {"partition": [4, 2, 1, 1], '
     '"coeff": 2}, {"partition": [4, 1, 1, 1, 1], "coeff": 1}, {"partition": '
     '[3, 3, 1, 1], "coeff": 1}, {"partition": [3, 2, 2, 1], "coeff": 1}, '
     '{"partition": [3, 2, 1, 1, 1], "coeff": 1}]}\n'),
    (("schur", "skew", "4,3,1", "2,1"),
     "{41}+2{32}+{31^2}+{2^2 1}\n",
     '{"terms": [{"partition": [4, 1], "coeff": 1}, {"partition": [3, 2], '
     '"coeff": 2}, {"partition": [3, 1, 1], "coeff": 1}, {"partition": '
     '[2, 2, 1], "coeff": 1}]}\n'),
    (("schur", "skew", "3^2", "1"),
     "{32}\n",
     '{"terms": [{"partition": [3, 2], "coeff": 1}]}\n'),
    (("schur", "coproduct", "21"),
     "{21}⊗{0}+{2}⊗{1}+{1^2}⊗{1}+{1}⊗{2}+{1}⊗{1^2}+{0}⊗{21}\n",
     '{"terms": [{"left": [2, 1], "right": [], "coeff": 1}, {"left": [2], '
     '"right": [1], "coeff": 1}, {"left": [1, 1], "right": [1], "coeff": 1}, '
     '{"left": [1], "right": [2], "coeff": 1}, {"left": [1], "right": [1, 1], '
     '"coeff": 1}, {"left": [], "right": [2, 1], "coeff": 1}]}\n'),
    (("schur", "coproduct", "3,1"),
     "{31}⊗{0}+{3}⊗{1}+{21}⊗{1}+{2}⊗{2}+{2}⊗{1^2}+{1^2}⊗{2}+{1}⊗{3}"
     "+{1}⊗{21}+{0}⊗{31}\n",
     '{"terms": [{"left": [3, 1], "right": [], "coeff": 1}, {"left": [3], '
     '"right": [1], "coeff": 1}, {"left": [2, 1], "right": [1], "coeff": 1}, '
     '{"left": [2], "right": [2], "coeff": 1}, {"left": [2], "right": [1, 1], '
     '"coeff": 1}, {"left": [1, 1], "right": [2], "coeff": 1}, {"left": [1], '
     '"right": [3], "coeff": 1}, {"left": [1], "right": [2, 1], "coeff": 1}, '
     '{"left": [], "right": [3, 1], "coeff": 1}]}\n'),
    (("char", "tensor", "--basis", "O", "21", "1"),
     "[31]+[2^2]+[21^2]+[2]+[1^2]\n",
     '{"basis": "O", "terms": [{"partition": [3, 1], "coeff": 1}, '
     '{"partition": [2, 2], "coeff": 1}, {"partition": [2, 1, 1], "coeff": 1}, '
     '{"partition": [2], "coeff": 1}, {"partition": [1, 1], "coeff": 1}]}\n'),
    (("char", "tensor", "--basis", "O", "2", "2"),
     "[4]+[31]+[2^2]+[2]+[1^2]+[0]\n",
     '{"basis": "O", "terms": [{"partition": [4], "coeff": 1}, {"partition": '
     '[3, 1], "coeff": 1}, {"partition": [2, 2], "coeff": 1}, {"partition": '
     '[2], "coeff": 1}, {"partition": [1, 1], "coeff": 1}, {"partition": [], '
     '"coeff": 1}]}\n'),
    # the maps that read the Littlewood series: each basis to the others,
    # the O and Sp antipodes, branching to Sp and the Sp coproduct
    (("char", "convert", "--from", "O", "--to", "Sp", "21"),
     "⟨21⟩\n",
     '{"basis": "Sp", "terms": [{"partition": [2, 1], "coeff": 1}]}\n'),
    (("char", "convert", "--from", "O", "--to", "Sp", "31^2"),
     "⟨31^2⟩+⟨3⟩-⟨1^3⟩-⟨1⟩\n",
     '{"basis": "Sp", "terms": [{"partition": [3, 1, 1], "coeff": 1}, '
     '{"partition": [3], "coeff": 1}, {"partition": [1, 1, 1], "coeff": -1}, '
     '{"partition": [1], "coeff": -1}]}\n'),
    (("char", "convert", "--from", "Sp", "--to", "O", "2^2"),
     "[2^2]+[2]-[1^2]+[0]\n",
     '{"basis": "O", "terms": [{"partition": [2, 2], "coeff": 1}, '
     '{"partition": [2], "coeff": 1}, {"partition": [1, 1], "coeff": -1}, '
     '{"partition": [], "coeff": 1}]}\n'),
    (("char", "convert", "--from", "GL", "--to", "O", "31^2"),
     "[31^2]+[21]+[1^3]\n",
     '{"basis": "O", "terms": [{"partition": [3, 1, 1], "coeff": 1}, '
     '{"partition": [2, 1], "coeff": 1}, {"partition": [1, 1, 1], '
     '"coeff": 1}]}\n'),
    (("char", "convert", "--from", "Sp", "--to", "GL", "2^2"),
     "{2^2}-{1^2}\n",
     '{"basis": "GL", "terms": [{"partition": [2, 2], "coeff": 1}, '
     '{"partition": [1, 1], "coeff": -1}]}\n'),
    (("char", "antipode", "--basis", "O", "21"),
     "-[21]\n",
     '{"basis": "O", "terms": [{"partition": [2, 1], "coeff": -1}]}\n'),
    (("char", "antipode", "--basis", "O", "31^2"),
     "-[31^2]+[3]-[1^3]+[1]\n",
     '{"basis": "O", "terms": [{"partition": [3, 1, 1], "coeff": -1}, '
     '{"partition": [3], "coeff": 1}, {"partition": [1, 1, 1], "coeff": -1}, '
     '{"partition": [1], "coeff": 1}]}\n'),
    (("char", "antipode", "--basis", "Sp", "2^2"),
     "⟨2^2⟩-⟨2⟩+⟨1^2⟩+⟨0⟩\n",
     '{"basis": "Sp", "terms": [{"partition": [2, 2], "coeff": 1}, '
     '{"partition": [2], "coeff": -1}, {"partition": [1, 1], "coeff": 1}, '
     '{"partition": [], "coeff": 1}]}\n'),
    (("char", "branch", "--to", "Sp", "31^2"),
     "⟨31^2⟩+⟨3⟩+⟨21⟩\n",
     '{"basis": "Sp", "terms": [{"partition": [3, 1, 1], "coeff": 1}, '
     '{"partition": [3], "coeff": 1}, {"partition": [2, 1], "coeff": 1}]}\n'),
    (("char", "coproduct", "--basis", "Sp", "21"),
     "⟨21⟩⊗⟨0⟩+⟨2⟩⊗⟨1⟩+⟨1^2⟩⊗⟨1⟩+⟨1⟩⊗⟨2⟩+⟨1⟩⊗⟨1^2⟩+⟨1⟩⊗⟨0⟩"
     "+⟨0⟩⊗⟨21⟩+⟨0⟩⊗⟨1⟩\n",
     '{"basis": "Sp", "terms": [{"left": [2, 1], "right": [], "coeff": 1}, '
     '{"left": [2], "right": [1], "coeff": 1}, {"left": [1, 1], "right": [1], '
     '"coeff": 1}, {"left": [1], "right": [2], "coeff": 1}, {"left": [1], '
     '"right": [1, 1], "coeff": 1}, {"left": [1], "right": [], "coeff": 1}, '
     '{"left": [], "right": [2, 1], "coeff": 1}, {"left": [], "right": [1], '
     '"coeff": 1}]}\n'),
    # branching to GL is the identity
    (("char", "branch", "--to", "GL", "2^2 1^2"),
     "{2^2 1^2}\n",
     '{"basis": "GL", "terms": [{"partition": [2, 2, 1, 1], "coeff": 1}]}\n'),
]


@pytest.mark.parametrize("argv,text,json_text", GOLDEN_STDOUT)
def test_result_table_stdout_goldens(capsys, argv, text, json_text):
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--format", "json") == (0, json_text, "")


# Complete stdout of `verify all`, captured before the four heaviest checks
# stopped re-deriving their tables.
VERIFY_ALL_TEXT = (
    'PASS branching goldens ({4},{1^4},{2^2 1^2} to O and Sp)\n'
    'PASS tensor goldens {2^2}*{21} in GL, O, Sp\n'
    'PASS O/Sp tensor coefficient coincidence (weights <= 5)\n'
    'PASS conversion round-trips, all basis pairs (weight <= 6)\n'
    'PASS branch agrees with convert (weight <= 6)\n'
    'PASS sigma sums bounded by min weight (weights <= 5)\n'
    'PASS tensor products commute in every basis (weights <= 5)\n'
    'PASS generic series engine matches direct rules (weights <= 4)\n'
    'PASS B and D have unit coefficients on the stated supports (degree <= 8)\n'
    'PASS A and C match the defining-product oracle (degree <= 8)\n'
    'PASS conjugation maps C to A and D to B (degree <= 8)\n'
    'PASS A*B = C*D = unit and inverse(C) = D (degree <= 8)\n'
    'PASS split coproduct of D and B is diagonal (degree <= 6)\n'
    'PASS product/skew/coproduct duality (weight <= 7)\n'
    'PASS alternating skew identity collapses (weight <= 8)\n'
    'PASS antipode identity, both sides (weight <= 7)\n'
    'PASS counit is a two-sided counit (weight <= 8)\n'
    'PASS coproduct is coassociative and cocommutative (weight <= 6)\n'
    'PASS coproduct is an algebra map (total weight <= 6)\n'
    'PASS iterated skew matches skew by the product (weight <= 7)\n'
    'PASS skew of a product expands by paired skews (total weight <= 6)\n'
    'PASS character counit is two-sided (weight <= 5)\n'
    'PASS character antipode identity, both sides (weight <= 5)\n'
    'PASS Cauchy kernels in 1+1 variables (degree <= 4)\n'
    'PASS Cauchy kernels in 2+2 variables (degree <= 4)\n'
    'PASS Cauchy kernels in 3+2 variables (degree <= 4)\n'
    'PASS Cauchy kernels in 3+3 variables (degree <= 3)\n'
    'PASS Cauchy kernels in 0+2 variables (degree <= 3)\n'
    'ok: 28 checks passed\n'
)
VERIFY_ALL_JSON = (
    '{"suite": "all", "max_degree": null, "passed": true, "checks": ['
    '{"name": "branching goldens ({4},{1^4},{2^2 1^2} to O and Sp)", "passed": true, "detail": ""}, '
    '{"name": "tensor goldens {2^2}*{21} in GL, O, Sp", "passed": true, "detail": ""}, '
    '{"name": "O/Sp tensor coefficient coincidence (weights <= 5)", "passed": true, "detail": ""}, '
    '{"name": "conversion round-trips, all basis pairs (weight <= 6)", "passed": true, "detail": ""}, '
    '{"name": "branch agrees with convert (weight <= 6)", "passed": true, "detail": ""}, '
    '{"name": "sigma sums bounded by min weight (weights <= 5)", "passed": true, "detail": ""}, '
    '{"name": "tensor products commute in every basis (weights <= 5)", "passed": true, "detail": ""}, '
    '{"name": "generic series engine matches direct rules (weights <= 4)", "passed": true, "detail": ""}, '
    '{"name": "B and D have unit coefficients on the stated supports (degree <= 8)", "passed": true, "detail": ""}, '
    '{"name": "A and C match the defining-product oracle (degree <= 8)", "passed": true, "detail": ""}, '
    '{"name": "conjugation maps C to A and D to B (degree <= 8)", "passed": true, "detail": ""}, '
    '{"name": "A*B = C*D = unit and inverse(C) = D (degree <= 8)", "passed": true, "detail": ""}, '
    '{"name": "split coproduct of D and B is diagonal (degree <= 6)", "passed": true, "detail": ""}, '
    '{"name": "product/skew/coproduct duality (weight <= 7)", "passed": true, "detail": ""}, '
    '{"name": "alternating skew identity collapses (weight <= 8)", "passed": true, "detail": ""}, '
    '{"name": "antipode identity, both sides (weight <= 7)", "passed": true, "detail": ""}, '
    '{"name": "counit is a two-sided counit (weight <= 8)", "passed": true, "detail": ""}, '
    '{"name": "coproduct is coassociative and cocommutative (weight <= 6)", "passed": true, "detail": ""}, '
    '{"name": "coproduct is an algebra map (total weight <= 6)", "passed": true, "detail": ""}, '
    '{"name": "iterated skew matches skew by the product (weight <= 7)", "passed": true, "detail": ""}, '
    '{"name": "skew of a product expands by paired skews (total weight <= 6)", "passed": true, "detail": ""}, '
    '{"name": "character counit is two-sided (weight <= 5)", "passed": true, "detail": ""}, '
    '{"name": "character antipode identity, both sides (weight <= 5)", "passed": true, "detail": ""}, '
    '{"name": "Cauchy kernels in 1+1 variables (degree <= 4)", "passed": true, "detail": ""}, '
    '{"name": "Cauchy kernels in 2+2 variables (degree <= 4)", "passed": true, "detail": ""}, '
    '{"name": "Cauchy kernels in 3+2 variables (degree <= 4)", "passed": true, "detail": ""}, '
    '{"name": "Cauchy kernels in 3+3 variables (degree <= 3)", "passed": true, "detail": ""}, '
    '{"name": "Cauchy kernels in 0+2 variables (degree <= 3)", "passed": true, "detail": ""}]}\n'
)


@pytest.mark.parametrize("fmt, expected", [("text", VERIFY_ALL_TEXT), ("json", VERIFY_ALL_JSON)])
def test_verify_all_stdout_golden(capsys, fmt, expected):
    assert run(capsys, "verify", "all", "--format", fmt) == (0, expected, "")
