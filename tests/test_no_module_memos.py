"""Every memo in the package is made by `partition.memo`.

`memo` enters each cache in one registry, which `partition.clear_caches`
and set_weight_limit empty.  Each memo is a module-level lru_cache wrapper,
so the benchmark's `clear_caches`, which scans the modules for `cache_clear`,
finds the same set.  Three rules keep it that way: no function mutates a
module-level dict, list or set (a plain table filled inside a function
would stay warm and nothing would clear it); no functools cache is made
outside a function body, and lru_cache only inside `memo`; and the module
attributes with `cache_clear` are exactly the registry.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import schurhopf
from schurhopf import _oracle, lr, partition
from schurhopf.char_rings import Basis, CharElement, convert, tensor_product
from schurhopf.partition import get_weight_limit, set_weight_limit
from schurhopf.series import delta_double_prime, littlewood_series

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


def _memo_makers(source: str, module: str) -> list[str]:
    """Uses of functools' cache or lru_cache outside a function body
    (decorators of a module-level def included), and of lru_cache anywhere
    but in partition.memo."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = {a.name for a in node.names}
            if "lru_cache" in names and module != "partition.py":
                found.append(f"import lru_cache (line {node.lineno})")
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            name = node.attr
        else:
            name = None
        if name == "cache" and func is None:
            found.append(f"cache (line {node.lineno})")
        elif name == "lru_cache" and (module, func) != ("partition.py", "memo"):
            found.append(f"lru_cache (line {node.lineno})")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in node.decorator_list + [node.args]:
                visit(child, func)
            for child in node.body:
                visit(child, node.name)
        elif isinstance(node, ast.Lambda):
            visit(node.args, func)
            visit(node.body, "<lambda>")
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_only_partition_memo_makes_a_module_level_cache():
    modules = sorted(PACKAGE.glob("*.py"))
    found = {p.name: f for p in modules if (f := _memo_makers(p.read_text(), p.name))}
    assert found == {}


def test_the_lint_sees_a_module_level_cache():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache\n"
        "def f(x):\n"
        "    return x\n"
        "g = functools.cache(len)\n"
        "class K:\n"
        "    @cache\n"
        "    def h(self):\n"
        "        return 1\n"
        "def local(xs):\n"
        "    seen = cache(lambda p: p)\n"
        "    return [seen(x) for x in xs]\n"
        "def memo(fn):\n"
        "    return lru_cache(maxsize=8)(fn)\n"
    )
    assert _memo_makers(source, "lr.py") == [
        "import lru_cache (line 2)",
        "lru_cache (line 3)",
        "cache (line 6)",
        "cache (line 8)",
        "lru_cache (line 15)",
    ]
    assert _memo_makers(source, "partition.py") == [
        "lru_cache (line 3)",
        "cache (line 6)",
        "cache (line 8)",
    ]


def _name(memo) -> str:
    return f"{memo.__module__}.{memo.__qualname__}"


def test_the_registry_is_every_cache_the_benchmark_sees():
    for info in pkgutil.iter_modules(schurhopf.__path__):
        importlib.import_module(f"schurhopf.{info.name}")
    seen = {
        id(obj): obj
        for name, mod in list(sys.modules.items())
        if name == "schurhopf" or name.startswith("schurhopf.")
        for obj in vars(mod).values()
        if hasattr(obj, "cache_clear")
    }
    assert sorted(map(_name, seen.values())) == sorted(map(_name, partition._memos))
    assert set(seen) == {id(m) for m in partition._memos}
    assert {_name(m) for m in partition._memos} == {
        "schurhopf.lr._shape",
        "schurhopf.lr._product",
        "schurhopf.lr._coefficient",
        "schurhopf.lr._skew_terms",
        "schurhopf.char_rings._newell_littlewood",
        "schurhopf.char_rings._conversion",
        "schurhopf.series.series_term",
        "schurhopf.series._term",
        "schurhopf.series._delta_double_prime",
        "schurhopf._oracle.kostka_row",
        "schurhopf._oracle.schur_polynomial",
        "schurhopf._lrkernel_py._walk_skew",
        "schurhopf._lrkernel_py._block_product",
    }


def test_set_weight_limit_empties_every_memo():
    lam, mu = (2, 1), (1,)
    lr.product_expansion(lam, mu)
    lr.skew_expansion(lam, mu)  # multiplies two blocks
    lr.skew_expansion((4, 3, 2), (2, 1))  # walks one
    lr.lr_coefficient(lam, mu, (3, 1))
    tensor_product(lam, lam, Basis.O)
    convert(CharElement.basis_element(Basis.GL, lam), Basis.O)
    _oracle.product_in_schur_basis(lam, mu)
    _oracle.schur_polynomial(lam, 3)
    delta_double_prime(littlewood_series("D", 2))
    assert {_name(m) for m in partition._memos if m.cache_info().currsize == 0} == set()
    set_weight_limit(get_weight_limit())
    infos = [m.cache_info() for m in partition._memos]
    assert all(v.currsize == v.hits == v.misses == 0 for v in infos)
