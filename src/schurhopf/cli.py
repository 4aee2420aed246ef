"""Command-line front end.

Subcommands expose the Schur ring (schur), the four Littlewood series
(series), the character rings (char), exact character evaluation (eval) and
the built-in verification suites (verify).  Output is deterministic text by
default; --format json emits the documented coefficient-table schemas.

Exit codes: 0 success, 2 parse error, 3 degree overflow, 4 basis misuse,
5 verification failure.  Code 4 is reserved for the library's
BasisMismatchError: no command combines two elements, so none reaches it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import char_rings
from .char_rings import Basis, CharElement
from .errors import (
    BasisMismatchError,
    DegreeOverflowError,
    InvalidArgumentError,
    PartitionError,
    SchurHopfError,
    WeightLimitError,
)
from .evaluate import EigenvalueSpec, eval_character
from .partition import parse_partition
from .schur_ring import SchurElement
from .series import littlewood_series
from .verify import run_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGREE = 3
EXIT_BASIS = 4
EXIT_VERIFY = 5


class _Cutoff(argparse.Action):
    """--max-degree: a nonnegative cutoff in ASCII digits.  Bad text raises
    InvalidArgumentError, which argparse would turn into a usage error if a
    type= function raised it, so the check lives in an action."""

    def __call__(self, parser, namespace, text, option_string=None):
        if not re.fullmatch(r"-?[0-9]+", text):
            raise InvalidArgumentError(f"cutoff {text!r} is not an integer in ASCII digits")
        if text.startswith("-"):
            raise InvalidArgumentError("cutoff must be nonnegative")
        try:
            value = int(text)
        except ValueError:  # more digits than int() will convert
            raise InvalidArgumentError(f"cutoff with {len(text)} digits is too large") from None
        setattr(namespace, self.dest, value)


def _common() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default=None,
        help="output format (default text)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurhopf",
        description="Exact Schur-basis symmetric functions and GL/O/Sp "
        "universal character rings.",
    )
    parser.add_argument("--format", choices=("text", "json"), default=None,
                        dest="root_format", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common()

    schur = sub.add_parser("schur", parents=[common],
                           help="operations in the Schur basis")
    schur.add_argument("op", choices=("mul", "skew", "coproduct", "antipode",
                                      "counit", "scalar"))
    schur.add_argument("partitions", nargs="+", metavar="PARTITION",
                       help='partition text, e.g. "4,2,1" or "2^2 1"')

    series = sub.add_parser("series", parents=[common],
                            help="graded terms of a Littlewood series")
    series.add_argument("name", choices=("A", "B", "C", "D"))
    series.add_argument("--max-degree", action=_Cutoff, default=8)

    char = sub.add_parser("char", parents=[common],
                          help="universal character ring operations")
    charsub = char.add_subparsers(dest="charop", required=True)

    branch = charsub.add_parser("branch", parents=[common])
    branch.add_argument("--to", required=True, metavar="BASIS",
                        help="target basis: O or Sp")
    branch.add_argument("partition")

    tensor = charsub.add_parser("tensor", parents=[common])
    tensor.add_argument("--basis", required=True)
    tensor.add_argument("partition")
    tensor.add_argument("partition2", metavar="PARTITION2")

    conv = charsub.add_parser("convert", parents=[common])
    conv.add_argument("--from", dest="from_basis", required=True,
                      metavar="BASIS")
    conv.add_argument("--to", required=True, metavar="BASIS")
    conv.add_argument("partition")

    for name in ("coproduct", "antipode", "counit"):
        p = charsub.add_parser(name, parents=[common])
        p.add_argument("--basis", required=True)
        p.add_argument("partition")

    ev = sub.add_parser("eval", parents=[common],
                        help="evaluate a character at exact eigenvalues")
    ev.add_argument("--group", required=True,
                    help='e.g. "GL(3)", "Sp(4)", "SO(5)", "O-(4)"')
    ev.add_argument("--values", default="",
                    help='comma-separated rationals, e.g. "1/2,-2,3"')
    ev.add_argument("partition")

    ver = sub.add_parser("verify", parents=[common],
                         help="run a built-in verification suite")
    ver.add_argument("suite", choices=("hopf", "series", "cauchy", "tables",
                                       "all"))
    ver.add_argument("--max-degree", action=_Cutoff, default=None,
                     help="cap the per-property weight bounds")

    return parser


def _emit_element(x, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(x.to_json()))
    else:
        print(str(x))


def _emit_value(v, fmt: str) -> None:
    try:
        text = str(v)
    except ValueError:  # more digits than int-to-str conversion allows
        raise InvalidArgumentError("the value has too many digits to print") from None
    if fmt == "json":
        print(json.dumps({"value": v if isinstance(v, int) else text}))
    else:
        print(text)


def _run_schur(args, fmt: str) -> int:
    parts = [parse_partition(t) for t in args.partitions]
    op = args.op
    needs_two = op in ("mul", "skew", "scalar")
    if needs_two and len(parts) != 2:
        raise PartitionError(f"schur {op} takes exactly 2 partitions")
    if not needs_two and len(parts) != 1:
        raise PartitionError(f"schur {op} takes exactly 1 partition")
    x = SchurElement.basis(parts[0])
    if op == "mul":
        _emit_element(x * SchurElement.basis(parts[1]), fmt)
    elif op == "skew":
        _emit_element(x.skew(parts[1]), fmt)
    elif op == "scalar":
        _emit_value(x.scalar_product(SchurElement.basis(parts[1])), fmt)
    elif op == "coproduct":
        _emit_element(x.coproduct(), fmt)
    elif op == "antipode":
        _emit_element(x.antipode(), fmt)
    else:
        _emit_value(x.counit(), fmt)
    return EXIT_OK


def _run_series(args, fmt: str) -> int:
    ser = littlewood_series(args.name, args.max_degree)
    degrees = []
    for d in range(args.max_degree + 1):
        term = ser.term(d)
        if not term.is_zero:
            degrees.append((d, term))
    if fmt == "json":
        print(json.dumps({
            "name": args.name,
            "max_degree": args.max_degree,
            "degrees": [
                {"degree": d, **term.to_json()} for d, term in degrees
            ],
        }))
    else:
        for _, term in degrees:
            print(str(term))
    return EXIT_OK


def _run_char(args, fmt: str) -> int:
    op = args.charop
    lam = parse_partition(args.partition)
    if op == "branch":
        x = CharElement.basis_element(Basis.GL, lam)
        _emit_element(char_rings.convert(x, Basis.parse(args.to)), fmt)
        return EXIT_OK
    if op == "tensor":
        basis = Basis.parse(args.basis)
        mu = parse_partition(args.partition2)
        _emit_element(char_rings.tensor_product(lam, mu, basis), fmt)
        return EXIT_OK
    if op == "convert":
        src = Basis.parse(args.from_basis)
        dst = Basis.parse(args.to)
        x = CharElement.basis_element(src, lam)
        _emit_element(char_rings.convert(x, dst), fmt)
        return EXIT_OK
    basis = Basis.parse(args.basis)
    x = CharElement.basis_element(basis, lam)
    if op == "coproduct":
        _emit_element(char_rings.char_coproduct(x), fmt)
    elif op == "antipode":
        _emit_element(char_rings.char_antipode(x), fmt)
    else:
        _emit_value(char_rings.char_counit(x), fmt)
    return EXIT_OK


def _run_eval(args, fmt: str) -> int:
    lam = parse_partition(args.partition)
    raw = [v.strip() for v in args.values.split(",") if v.strip()]
    spec = EigenvalueSpec(args.group, raw)
    _emit_value(eval_character(lam, spec), fmt)
    return EXIT_OK


def _run_verify(args, fmt: str) -> int:
    results = run_suite(args.suite, args.max_degree)
    failed = [r for r in results if not r.passed]
    if fmt == "json":
        print(json.dumps({
            "suite": args.suite,
            "max_degree": args.max_degree,
            "passed": not failed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }))
    else:
        for r in results:
            print(r.line())
        if failed:
            print(f"FAILED: {len(failed)} of {len(results)} checks")
        else:
            print(f"ok: {len(results)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        fmt = getattr(args, "format", None) or args.root_format or "text"
        if args.command == "schur":
            return _run_schur(args, fmt)
        if args.command == "series":
            return _run_series(args, fmt)
        if args.command == "char":
            return _run_char(args, fmt)
        if args.command == "eval":
            return _run_eval(args, fmt)
        return _run_verify(args, fmt)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except (DegreeOverflowError, WeightLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGREE
    except BasisMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BASIS
    except SchurHopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
