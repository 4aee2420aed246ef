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
    schur.set_defaults(run=_run_schur)
    schur.add_argument("op", choices=tuple(_SCHUR_OPS))
    schur.add_argument("partitions", nargs="+", metavar="PARTITION",
                       help='partition text, e.g. "4,2,1" or "2^2 1"')

    series = sub.add_parser("series", parents=[common],
                            help="graded terms of a Littlewood series")
    series.set_defaults(run=_run_series)
    series.add_argument("name", choices=("A", "B", "C", "D"))
    series.add_argument("--max-degree", action=_Cutoff, default=8)

    char = sub.add_parser("char", parents=[common],
                          help="universal character ring operations")
    char.set_defaults(run=_run_char)
    charsub = char.add_subparsers(dest="charop", required=True)

    branch = charsub.add_parser("branch", parents=[common])
    branch.set_defaults(from_basis="GL")  # a branching converts out of GL
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

    for name in _CHAR_MAPS:
        p = charsub.add_parser(name, parents=[common])
        p.add_argument("--basis", required=True)
        p.add_argument("partition")

    ev = sub.add_parser("eval", parents=[common],
                        help="evaluate a character at exact eigenvalues")
    ev.set_defaults(run=_run_eval)
    ev.add_argument("--group", required=True,
                    help='e.g. "GL(3)", "Sp(4)", "SO(5)", "O-(4)"')
    ev.add_argument("--values", default="",
                    help='comma-separated rationals, e.g. "1/2,-2,3"')
    ev.add_argument("partition")

    ver = sub.add_parser("verify", parents=[common],
                         help="run a built-in verification suite")
    ver.set_defaults(run=_run_verify)
    ver.add_argument("suite", choices=("hopf", "series", "cauchy", "tables",
                                       "all"))
    ver.add_argument("--max-degree", action=_Cutoff, default=None,
                     help="cap the per-property weight bounds")

    return parser


def _emit(x, fmt: str) -> None:
    """Print an element, or a scalar value, as text or as JSON."""
    if hasattr(x, "to_json"):
        print(json.dumps(x.to_json()) if fmt == "json" else str(x))
        return
    try:
        text = str(x)
    except ValueError:  # more digits than int-to-str conversion allows
        raise InvalidArgumentError("the value has too many digits to print") from None
    value = {"value": x if isinstance(x, int) else text}
    print(json.dumps(value) if fmt == "json" else text)


# op: (number of partitions, the map from s_lam and the other partitions)
_SCHUR_OPS = {
    "mul": (2, lambda x, mu: x * SchurElement.basis(mu)),
    "skew": (2, SchurElement.skew),
    "coproduct": (1, SchurElement.coproduct),
    "antipode": (1, SchurElement.antipode),
    "counit": (1, SchurElement.counit),
    "scalar": (2, lambda x, mu: x.scalar_product(SchurElement.basis(mu))),
}


def _run_schur(args, fmt: str) -> int:
    parts = [parse_partition(t) for t in args.partitions]
    arity, fn = _SCHUR_OPS[args.op]
    if len(parts) != arity:
        noun = "partitions" if arity > 1 else "partition"
        raise PartitionError(f"schur {args.op} takes exactly {arity} {noun}")
    _emit(fn(SchurElement.basis(parts[0]), *parts[1:]), fmt)
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


_CHAR_MAPS = {
    "coproduct": char_rings.char_coproduct,
    "antipode": char_rings.char_antipode,
    "counit": char_rings.char_counit,
}


def _run_char(args, fmt: str) -> int:
    lam = parse_partition(args.partition)
    if args.charop == "tensor":
        basis = Basis.parse(args.basis)
        mu = parse_partition(args.partition2)
        _emit(char_rings.tensor_product(lam, mu, basis), fmt)
    elif args.charop in _CHAR_MAPS:
        x = CharElement.basis_element(Basis.parse(args.basis), lam)
        _emit(_CHAR_MAPS[args.charop](x), fmt)
    else:  # convert, and branch, whose --from is GL
        x = CharElement.basis_element(Basis.parse(args.from_basis), lam)
        _emit(char_rings.convert(x, Basis.parse(args.to)), fmt)
    return EXIT_OK


def _run_eval(args, fmt: str) -> int:
    lam = parse_partition(args.partition)
    raw = [v.strip() for v in args.values.split(",") if v.strip()]
    spec = EigenvalueSpec(args.group, raw)
    _emit(eval_character(lam, spec), fmt)
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
        return args.run(args, fmt)
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
