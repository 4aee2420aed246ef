"""The brute-force oracle: its polynomial arithmetic and its independence
from the code it referees."""

import ast
from pathlib import Path

from hypothesis import given, settings, strategies as st

import schurhopf
from schurhopf import _oracle


def _polys(nvars):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exps, st.integers(-3, 3).filter(bool), max_size=6)


@st.composite
def _poly_pairs(draw):
    nvars = draw(st.integers(1, 3))
    return draw(_polys(nvars)), draw(_polys(nvars))


def _naive_mul(a, b, max_deg):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {
        e: c for e, c in out.items() if c and (max_deg is None or sum(e) <= max_deg)
    }


@settings(max_examples=200, deadline=None)
@given(_poly_pairs(), st.one_of(st.none(), st.integers(0, 12)))
def test_poly_mul_matches_naive_truncated_product(pair, max_deg):
    a, b = pair
    assert _oracle.poly_mul(a, b, max_deg) == _naive_mul(a, b, max_deg)


def _package_imports(module: str) -> set[str]:
    """Package modules that `module` imports, directly or through others.
    The package imports its own modules only in relative form."""
    root = Path(schurhopf.__file__).parent
    seen: set[str] = set()
    todo = [module]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        source = root / f"{name}.py"
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo.extend([node.module] if node.module else [a.name for a in node.names])
    return seen - {module}


def test_oracle_is_independent_of_the_lr_code():
    refereed = {"lr", "_lrkernel_py", "schur_ring", "series"}
    assert not _package_imports("_oracle") & refereed
