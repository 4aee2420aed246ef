"""The four workloads of the schurhopf benchmark.

Each workload turns a seed into a fixed batch of calls into the public API
(plain tuples, strings and rationals; the library only sees these inputs),
runs one pass over the batch, and checks a pass's outputs against a
reference other than the call under test.  Library functions are looked up
on their modules at call time, so the tracer's wrappers see every call.

Why these four (the per-layer metric each one moves is in run.py):

- verify_all: `verify all` is the package's own end-to-end job.  It is
  bound by cache hits, Partition construction and ring arithmetic, and
  spends about 1% of its time in the LR kernel.
- lr_cold: distinct product and skew expansions with the LR caches cleared,
  so every call misses and the kernel does almost all of the work.
- classical_cold: branching, conversion, tensor products and coproducts
  with every cache cleared before each call; the only workload where the
  character rings and series do real work.
- evaluate: exact evaluation at rational and Gaussian-rational eigenvalues,
  a layer the other three barely touch.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from fractions import Fraction
from itertools import zip_longest
from time import perf_counter

from schurhopf import _lrkernel_py, _oracle, char_rings, evaluate, lr, verify
from schurhopf import schur_ring

# The hook-content identity is checked with this many variables: at least
# the row count of every product in lr_cold, so every term has a nonzero
# dimension and a wrong coefficient changes the sum.
HOOK_CONTENT_N = 17
ORACLE_MAX_WEIGHT = 4  # the polynomial oracle is slow past weight 4


def partitions(n: int, max_part: int | None = None) -> list[tuple]:
    """Partitions of n as plain tuples, largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, max_part), 0, -1)
        for rest in partitions(n - first, first)
    ]


def hooks(p: tuple) -> list[tuple[int, int, int]]:
    """(row, column, hook length) of every cell of the diagram of p."""
    cols = [sum(1 for part in p if part > j) for j in range(p[0] if p else 0)]
    return [(i, j, row - j + cols[j] - i - 1) for i, row in enumerate(p) for j in range(row)]


def hook_product(p: tuple) -> int:
    return math.prod(h for _, _, h in hooks(p))


def hook_content_dim(p: tuple, n: int) -> Fraction:
    """s_p(1^n): the dimension of the GL(n) module with highest weight p."""
    return math.prod((Fraction(n + j - i, h) for i, j, h in hooks(p)), start=Fraction(1))


def stratified_sample(rng: random.Random, items: list, count: int) -> list:
    """`count` shapes (or pairs of shapes), one drawn from each of `count`
    equal strata of the items ordered by their hook products (a proxy for
    the work they cause: fewer hooks, more tableaux), so that every draw
    mixes cheap and costly inputs alike."""
    if count >= len(items):
        return rng.sample(items, len(items))

    def key(item):
        shapes = item if isinstance(item[0], tuple) else (item,)
        cost = 1
        for p in shapes:
            cost *= hook_product(p)
        return cost, item

    ordered = sorted(items, key=key)
    bounds = [len(ordered) * k // count for k in range(count + 1)]
    out = [rng.choice(ordered[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(out)
    return out


def _package_caches() -> list:
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "schurhopf" or name.startswith("schurhopf."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    found[id(obj)] = obj
    return list(found.values())


# Collected once, before any tracer wraps the cached functions.
_CACHES = _package_caches()


def clear_caches() -> None:
    """Empty every memo table in the package, as in a fresh process."""
    for cache in _CACHES:
        cache.cache_clear()


def _api(module, name):
    """A call into the library, resolved when it runs (so wrappers apply)."""
    def call(*args):
        return getattr(module, name)(*args)
    return call


class Workload:
    """A seeded batch of calls; one op is one call."""

    name = ""
    clear_each_op = False

    def __init__(self, seed: int, smoke: bool = False):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs: list[tuple] = []  # (label, args) per op, for the digest
        self.calls: list = []

    def add(self, label: str, fn, *args) -> None:
        self.inputs.append((label,) + args)
        self.calls.append((fn, args))

    def digest(self) -> str:
        return hashlib.sha256(repr(self.inputs).encode()).hexdigest()[:16]

    def run_pass(self, clear) -> tuple[list, list]:
        """One pass: (outputs, per-op seconds).  clear(), called before each
        op when the workload asks for cold caches, is outside op timing."""
        outputs, latencies = [], []
        for fn, args in self.calls:
            if self.clear_each_op:
                clear()
            t0 = perf_counter()
            out = fn(*args)
            latencies.append(perf_counter() - t0)
            outputs.append(out)
        return outputs, latencies

    def check(self, outputs: list) -> list[bool]:
        raise NotImplementedError


class VerifyAll(Workload):
    """`verify.run_suite("all")` from cold caches; one op is one check."""

    name = "verify_all"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        # verify has no inputs to draw; the seed goes unused.
        self.max_degree = 3 if smoke else None
        self.inputs = [("run_suite", "all", self.max_degree)]

    def run_pass(self, clear):
        # Every check ends by building its CheckResult, so the time between
        # consecutive results is the time of one check.
        stamps = []
        check_result = verify.CheckResult

        def stamped(*args, **kwargs):
            stamps.append(perf_counter())
            return check_result(*args, **kwargs)

        verify.CheckResult = stamped
        try:
            t0 = perf_counter()
            results = verify.run_suite("all", self.max_degree)
        finally:
            verify.CheckResult = check_result
        if len(stamps) != len(results):
            raise RuntimeError(f"{len(stamps)} check results stamped, {len(results)} returned")
        latencies = [b - a for a, b in zip([t0] + stamps, stamps)]
        return list(results), latencies

    def check(self, outputs):
        return [r.passed for r in outputs]


class LrCold(Workload):
    """At each weight w = 1..8: the product s_a s_b of every pair of shapes
    of weight w, and for each pair the skew s_{(a+b)/a}, a+b the row-wise
    sum, in an order the seed shuffles.  The set of calls is the same for
    every seed, so the cost of a pass is too.  The caches are cleared before
    each pass and no call repeats, so every call misses."""

    name = "lr_cold"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        product = _api(lr, "product_expansion")
        skew = _api(lr, "skew_expansion")
        self.products = {}  # (lam, mu) -> op index
        for w in range(1, 4 if smoke else 9):
            shapes = partitions(w)
            pairs = [(a, b) for a in shapes for b in shapes]
            self.rng.shuffle(pairs)
            for a, b in pairs:
                self.products[(a, b)] = len(self.calls)
                self.add("product", product, a, b)
            self.rng.shuffle(pairs)
            for a, b in pairs:
                row_sum = tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))
                self.add("skew", skew, row_sum, a)

    def check(self, outputs):
        # Compiled-vs-pure kernel parity, when lr picked the compiled kernel
        # (the benchmark never loads it itself).
        compiled = sys.modules.get("schurhopf._lrkernel") if lr.kernel_name() == "cython" else None
        ok = []
        for (label, a, b), out in zip(self.inputs, outputs):
            if label == "skew":
                ok.append(self._check_skew(a, b, out, outputs))
            else:
                ok.append(self._check_product(a, b, out) and (
                    compiled is None
                    or compiled.expand_product(a, b) == _lrkernel_py.expand_product(a, b)))
        return ok

    @staticmethod
    def _check_product(lam, mu, table) -> bool:
        weight = sum(lam) + sum(mu)
        if any(sum(nu) != weight or c <= 0 for nu, c in table.items()):
            return False
        dims = hook_content_dim(lam, HOOK_CONTENT_N) * hook_content_dim(mu, HOOK_CONTENT_N)
        if dims != sum(c * hook_content_dim(tuple(nu), HOOK_CONTENT_N) for nu, c in table.items()):
            return False
        return weight > ORACLE_MAX_WEIGHT or dict(table) == _oracle.product_in_schur_basis(lam, mu)

    def _check_skew(self, outer, inner, table, outputs) -> bool:
        # adjointness: <s_{outer/inner}, s_mu> = c^outer_{inner, mu}
        w = sum(outer) - sum(inner)
        if any(sum(mu) != w for mu in table):
            return False
        for mu in partitions(w):
            product = outputs[self.products[(inner, mu)]]
            if table.get(mu, 0) != product.get(outer, 0):
                return False
        return True


class ClassicalCold(Workload):
    """Character-ring calls at rising weight, every cache cleared before
    each call, so each call pays for its own series terms and LR tables."""

    name = "classical_cold"
    clear_each_op = True

    # op kind -> weights.  At each weight the seed draws SHAPES shapes by
    # stratified_sample (all of them where there are fewer), so the cost of
    # a pass moves little from seed to seed.
    PLAN = {
        "tensor": range(2, 9),
        "branch": range(2, 15),
        "convert": range(2, 13),
        "char_coproduct": range(2, 11),
        "char_antipode": range(2, 13),
        "schur_coproduct": range(2, 13),
    }
    SHAPES = 20
    BASES = ("GL", "O", "Sp")

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        rng = self.rng
        for kind, weights in self.PLAN.items():
            for w in (weights[:2] if smoke else weights):
                shapes = partitions(w)
                count = 1 if smoke else self.SHAPES
                if kind == "tensor":
                    pairs = [(a, b) for a in shapes for b in shapes]
                    for lam, mu in stratified_sample(rng, pairs, count):
                        self.add(kind, _api(char_rings, "tensor_product"),
                                 lam, mu, rng.choice(self.BASES))
                    continue
                for lam in stratified_sample(rng, shapes, count):
                    if kind == "branch":
                        target = rng.choice(("o", "sp"))
                        self.add(kind, _api(char_rings, f"branch_gl_to_{target}"), lam)
                    elif kind == "convert":
                        src, dst = rng.sample(self.BASES, 2)
                        self.add(kind, self._convert, src, lam, dst)
                    elif kind == "char_coproduct":
                        self.add(kind, self._char_coproduct, rng.choice(self.BASES), lam)
                    elif kind == "char_antipode":
                        self.add(kind, self._char_antipode, rng.choice(self.BASES), lam)
                    else:
                        self.add(kind, self._schur_coproduct, lam)

    @staticmethod
    def _element(basis, lam):
        return char_rings.CharElement.basis_element(char_rings.Basis.parse(basis), lam)

    def _convert(self, src, lam, dst):
        return char_rings.convert(self._element(src, lam), dst)

    def _char_coproduct(self, basis, lam):
        return char_rings.char_coproduct(self._element(basis, lam))

    def _char_antipode(self, basis, lam):
        return char_rings.char_antipode(self._element(basis, lam))

    @staticmethod
    def _schur_coproduct(lam):
        return schur_ring.SchurElement.basis(lam).coproduct()

    def check(self, outputs):
        return [self._check_one(inp, out) for inp, out in zip(self.inputs, outputs)]

    def _check_one(self, inp, out) -> bool:
        kind, *args = inp
        rings = char_rings
        if kind == "tensor":
            lam, mu, basis = args
            if out != rings.tensor_product(mu, lam, basis):  # commutativity
                return False
            if basis == "GL" and sum(lam) + sum(mu) <= ORACLE_MAX_WEIGHT:
                return dict(out.items()) == _oracle.product_in_schur_basis(lam, mu)
            return True
        if kind == "branch":
            return rings.convert(out, "GL") == self._element("GL", args[0])
        if kind == "convert":
            src, lam, _ = args
            return rings.convert(out, src) == self._element(src, lam)
        if kind == "char_coproduct":
            basis, lam = args
            folded = {}  # (id (x) counit) applied to the coproduct
            for (left, right), c in out.items():
                e = rings.char_counit(self._element(basis, right))
                if e:
                    folded[left] = folded.get(left, 0) + c * e
            folded = {p: c for p, c in folded.items() if c}
            return folded == {lam: 1}
        if kind == "char_antipode":
            basis, lam = args
            return rings.char_antipode(out) == self._element(basis, lam)  # S^2 = id
        lam = args[0]
        return out.swap() == out and out.left_component(()) == schur_ring.SchurElement.basis(lam)


class Evaluate(Workload):
    """Schur polynomials by tableaux and by bialternant at rational and
    Gaussian-rational points, and GL/SO/Sp characters at rational points."""

    name = "evaluate"

    SCHUR_VARIABLES = 4
    GROUPS = {"GL(4)": 4, "SO(5)": 2, "SO(4)": 2, "Sp(4)": 2}  # group -> free values = rank
    POINTS = 3

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        top = 3 if smoke else 7
        points = 1 if smoke else self.POINTS
        n = self.SCHUR_VARIABLES
        shapes = [p for w in range(1, top + 1) for p in partitions(w) if len(p) <= n]
        for _ in range(points):
            real = self._values(n)
            gauss = tuple(("gauss", re, im) for re, im in zip(self._values(n), self._values(n)))
            for values in (real, gauss):
                for lam in shapes:
                    self.add("tableaux", self._eval, "eval_schur_tableaux", lam, values)
                    self.add("bialternant", self._eval, "eval_schur_bialternant", lam, values)
            for group, rank in self.GROUPS.items():
                spec_values = self._values(rank)
                for lam in shapes:
                    if len(lam) <= rank:
                        self.add("character", self._character, group, lam, spec_values)

    def _values(self, n: int) -> tuple:
        """n distinct nonzero rationals, none of them +-1 and no two of them
        mutually inverse, so every eigenvalue list here is repeat-free."""
        out = []
        while len(out) < n:
            v = Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 9), self.rng.randint(1, 9))
            if abs(v) != 1 and all(v != u and v * u != 1 for u in out):
                out.append(v)
        return tuple(out)

    @staticmethod
    def _point(values):
        return [evaluate.GaussianRational(v[1], v[2]) if isinstance(v, tuple) else v
                for v in values]

    def _eval(self, fn, lam, values):
        return getattr(evaluate, fn)(lam, self._point(values))

    @staticmethod
    def _character(group, lam, values):
        return evaluate.eval_character(lam, evaluate.EigenvalueSpec(group, values))

    def check(self, outputs):
        ok = []
        for inp, out in zip(self.inputs, outputs):
            kind, *args = inp
            if kind == "character":
                ok.append(out == self._character_by_bialternant(*args))
            else:
                _, lam, values = args
                other = "eval_schur_bialternant" if kind == "tableaux" else "eval_schur_tableaux"
                ok.append(out == self._eval(other, lam, values))
        return ok

    @staticmethod
    def _character_by_bialternant(group, lam, values):
        spec = evaluate.EigenvalueSpec(group, values)
        gl = char_rings.convert(
            char_rings.CharElement.basis_element(spec.character_basis, lam), "GL")
        xs = spec.eigenvalues()
        return sum((c * evaluate.eval_schur_bialternant(p, xs) for p, c in gl.items()),
                   Fraction(0))


WORKLOADS = {w.name: w for w in (VerifyAll, LrCold, ClassicalCold, Evaluate)}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)

