"""Every module-level import in the package is used by its module.

`__init__.py` is left out: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import schurhopf

PACKAGE = Path(schurhopf.__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: found for p in modules if (found := _unused_imports(p.read_text()))
    }
    assert unused == {}


def test_the_check_sees_an_unused_name():
    source = "from functools import lru_cache, reduce\nimport os.path\nreduce(max, [1])\n"
    assert _unused_imports(source) == ["lru_cache (line 1)", "os (line 2)"]
