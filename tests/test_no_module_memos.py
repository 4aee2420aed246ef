"""No function in the package mutates a module-level dict, list or set.

Every memo in the package is a `functools` cache, so it has `cache_clear`
and the benchmark's `clear_caches` can find it and empty it before each
timed pass.  A plain module-level table filled inside a function would
stay warm from one pass to the next, and nothing would clear it.
"""

import ast
from pathlib import Path

import schurhopf

PACKAGE = Path(schurhopf.__file__).parent

_CONTAINER_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
_MUTATORS = {"setdefault", "update", "append", "extend", "insert", "add"}


def _is_container(value) -> bool:
    if isinstance(value, _CONTAINER_LITERALS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _CONTAINER_CALLS
    return False


def _module_containers(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_container(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif (
            isinstance(node, ast.AnnAssign)
            and node.value is not None
            and _is_container(node.value)
            and isinstance(node.target, ast.Name)
        ):
            names.add(node.target.id)
    return names


def _locals(func) -> set[str]:
    """Names the function binds itself, unless it declares them global."""
    args = func.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    bound.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    declared_global = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
    return bound - declared_global


def _module_mutations(source: str) -> list[str]:
    tree = ast.parse(source)
    containers = _module_containers(tree)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        watched = containers - _locals(func)
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
                and node.value.id in watched
            ):
                found.append(f"{node.value.id}[...] (line {node.lineno})")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in watched
            ):
                found.append(f"{node.func.value.id}.{node.func.attr} (line {node.lineno})")
    return sorted(set(found))


def test_no_function_mutates_a_module_level_container():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    mutated = {
        p.name: found for p in modules if (found := _module_mutations(p.read_text()))
    }
    assert mutated == {}


def test_the_check_sees_a_hidden_memo():
    source = (
        "from functools import lru_cache\n"
        "_MEMO = {}\n"
        "_SEEN: set = set()\n"
        "_TABLE = {'a': 1}\n"
        "def f(x):\n"
        "    _MEMO[x] = x\n"
        "    _SEEN.add(x)\n"
        "    return _TABLE['a']\n"
        "def g(_TABLE):\n"
        "    _TABLE['b'] = 2\n"
        "    _TABLE.update(c=3)\n"
        "def h(x):\n"
        "    _MEMO.setdefault(x, []).append(x)\n"
        "@lru_cache(maxsize=None)\n"
        "def k(x):\n"
        "    out = {}\n"
        "    out[x] = 1\n"
        "    return out\n"
    )
    assert _module_mutations(source) == [
        "_MEMO.setdefault (line 13)",
        "_MEMO[...] (line 6)",
        "_SEEN.add (line 7)",
    ]
