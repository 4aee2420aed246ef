"""Every ring map is extended linearly by `schur_ring`'s core.

`schur_ring._linear` and `_bilinear` are the one place that adds scaled
per-term tables into a result, through `_add_scaled`.  So only
`schur_ring.py` calls `_add_scaled`, and the modules that build ring maps on
the core (`char_rings`, `series`, `verify`) import neither `_add_scaled` nor
`_merge`, the primitives a hand-rolled merge loop would start from.

Nor do `series`, `char_rings` and `verify` sum elements in a loop that
rebinds a running total (`total = total + x`, `total -= x`): each such sum
copies the table so far once per term.  Every graded product in `series` is
one `_convolve`, and each side of a `verify` identity is one `_linear` over
its coproduct or split table.
"""

import ast
from pathlib import Path

import schurhopf

PACKAGE = Path(schurhopf.__file__).parent

_MAP_MODULES = {"char_rings.py", "series.py", "verify.py"}
_PRIMITIVES = {"_add_scaled", "_merge"}
_NO_RUNNING_TOTALS = {"series.py", "char_rings.py", "verify.py"}


def _breaches(source: str, module: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and module in _MAP_MODULES:
            for name in sorted({a.name for a in node.names} & _PRIMITIVES):
                found.append(f"import {name} (line {node.lineno})")
        elif isinstance(node, ast.Call) and module != "schur_ring.py":
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "_add_scaled":
                found.append(f"_add_scaled (line {node.lineno})")
    return found


def test_only_the_core_sums_term_tables():
    modules = sorted(PACKAGE.glob("*.py"))
    assert _MAP_MODULES | {"schur_ring.py"} <= {p.name for p in modules}
    found = {p.name: f for p in modules if (f := _breaches(p.read_text(), p.name))}
    assert found == {}


def test_the_lint_sees_a_hand_rolled_merge_loop():
    source = (
        "from . import schur_ring\n"
        "from .schur_ring import SchurElement, _add_scaled, _merge\n"
        "def convert(x, to):\n"
        "    table = {}\n"
        "    for p, c in x._terms.items():\n"
        "        _add_scaled(table, _conversion(x.basis, p, to), c)\n"
        "    return table\n"
        "def char_multiply(x, y):\n"
        "    table = {}\n"
        "    for p, a in x._terms.items():\n"
        "        for q, b in y._terms.items():\n"
        "            schur_ring._add_scaled(table, product(p, q), a * b)\n"
        "    return table\n"
    )
    assert sorted(_breaches(source, "char_rings.py")) == [
        "_add_scaled (line 12)",
        "_add_scaled (line 6)",
        "import _add_scaled (line 2)",
        "import _merge (line 2)",
    ]
    assert sorted(_breaches(source, "evaluate.py")) == [
        "_add_scaled (line 12)",
        "_add_scaled (line 6)",
    ]
    assert _breaches(source, "schur_ring.py") == []


def _running_totals(source: str) -> list[str]:
    """Names that a loop rebinds to themselves plus or minus a term."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            continue
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, (ast.Add, ast.Sub))
                and isinstance(node.target, ast.Name)
            ):
                found.add(f"{node.target.id} (line {node.lineno})")
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, (ast.Add, ast.Sub))
            ):
                name = node.targets[0].id
                operands = (node.value.left, node.value.right)
                if any(isinstance(o, ast.Name) and o.id == name for o in operands):
                    found.add(f"{name} (line {node.lineno})")
    return sorted(found)


def test_no_loop_keeps_a_running_total():
    modules = {p.name: p for p in PACKAGE.glob("*.py")}
    assert _NO_RUNNING_TOTALS <= set(modules)
    found = {
        name: f for name in sorted(_NO_RUNNING_TOTALS)
        if (f := _running_totals(modules[name].read_text()))
    }
    assert found == {}


def test_the_lint_sees_a_running_total():
    source = (
        "def product(s, t, d):\n"
        "    total = SchurElement.zero()\n"
        "    for e in range(d + 1):\n"
        "        total = total + s.term(e) * t.term(d - e)\n"
        "    return total\n"
        "def inverse(s, d):\n"
        "    piece = TensorElement()\n"
        "    while d:\n"
        "        d -= 1\n"
        "        piece = s.term(d) - piece\n"
        "    return piece\n"
        "def fine(xs, d):\n"
        "    total = xs[0]\n"
        "    total = total + xs[1]\n"
        "    for x in xs:\n"
        "        other = total + x\n"
        "        total = total * x\n"
        "    return [t + t for t in xs]\n"
    )
    assert _running_totals(source) == ["d (line 9)", "piece (line 10)", "total (line 4)"]
