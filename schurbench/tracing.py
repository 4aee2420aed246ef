"""Per-layer accounting for the traced run of the schurhopf benchmark.

The tracer wraps the public functions and methods of each library module
from the outside, so the library itself carries no instrumentation.  A call
that enters a layer from another layer (or from the benchmark) opens a span;
calls that stay inside the layer run through unwrapped, so nested work is
charged once.  A layer's self time is its span time minus the time of the
spans it caused.  Spans are folded into per-layer totals as they close
instead of being kept one by one: a traced `verify all` pass makes millions
of calls.

`Partition` constructions and the Pieri shortcuts in `lr` are counted, not
timed, because they are the hottest calls in the package and a span around
each would swamp the numbers they are meant to explain.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
from time import perf_counter

# (layer, module whose public functions and classes make up the layer).  The
# compiled kernel is only ever imported by lr, when lr selects it.
SPAN_MODULES = (
    ("lrkernel", "schurhopf._lrkernel_py"),
    ("lrkernel", "schurhopf._lrkernel"),
    ("lr", "schurhopf.lr"),
    ("schur_ring", "schurhopf.schur_ring"),
    ("series", "schurhopf.series"),
    ("char_rings", "schurhopf.char_rings"),
    ("evaluate", "schurhopf.evaluate"),
    ("verify", "schurhopf.verify"),
)
SPAN_LAYERS = tuple(dict.fromkeys(layer for layer, _ in SPAN_MODULES))
SUITES = ("tables", "series", "hopf", "cauchy")
PIERI = ("_row_strip_removals", "_column_strip_removals")
LR_TABLES = ("product", "skew", "coefficient")


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


class Tracer:
    """Installs span wrappers into the schurhopf modules and collects totals.

    Use install() before a traced pass, harvest() before every cache clear
    and once at the end of the pass, then uninstall() and snapshot().
    """

    def __init__(self):
        self._lr = sys.modules["schurhopf.lr"]
        self._series = sys.modules["schurhopf.series"]
        self._verify = sys.modules["schurhopf.verify"]
        self._partition_cls = sys.modules["schurhopf.partition"].Partition
        # Captured before any wrapping: these keep their cache_info methods.
        self._lr_cache_info = self._lr.cache_info
        self._series_term = self._series.series_term
        self._undo = []
        self.reset()

    def reset(self) -> None:
        self._stack = []
        self.spans = {layer: [0, 0.0, 0.0] for layer in SPAN_LAYERS}  # calls, busy, self
        self.suite_s = dict.fromkeys(SUITES, 0.0)
        self.partitions = 0
        self.pieri = 0
        self.terms_out = 0
        self.cache = {t: [0, 0] for t in LR_TABLES + ("series_term",)}  # hits, misses

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, fn):
        stack = self._stack
        totals = self.spans[layer]
        count_terms = layer == "lrkernel"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                totals[0] += 1
                totals[1] += dt
                totals[2] += dt - frame[1]
            if count_terms and isinstance(out, dict):
                self.terms_out += len(out)
            return out

        return traced

    def _suite_timer(self, key: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.suite_s[key] += perf_counter() - t0

        return timed

    def _pieri_counter(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.pieri += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, name, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        replaced = {}  # id(original function) -> span wrapper
        for layer, modname in SPAN_MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if not _is_public(name) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, enum.Enum):
                        self._wrap_class(layer, obj)
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = (obj, self._span(layer, obj))
        # Rebind every name that refers to a wrapped function, including the
        # ones other modules imported with `from .x import f`.
        for modname, mod in list(sys.modules.items()):
            if modname != "schurhopf" and not modname.startswith("schurhopf."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        for key in SUITES:
            self._set(self._verify.SUITES, key,
                      self._suite_timer(key, self._verify.SUITES[key]))
        for name in PIERI:
            if hasattr(self._lr, name):
                self._set(self._lr, name, self._pieri_counter(getattr(self._lr, name)))
        plain_new = self._partition_cls.__dict__["__new__"].__func__

        def counted_new(cls, *args, **kwargs):
            self.partitions += 1
            return plain_new(cls, *args, **kwargs)

        self._set(self._partition_cls, "__new__", staticmethod(counted_new))

    def _wrap_class(self, layer: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if not _is_public(name):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._span(layer, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._span(layer, raw)
            else:
                continue
            self._set(cls, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- cache statistics ---------------------------------------------------

    def harvest(self) -> None:
        """Add the cache statistics gathered since the last clear."""
        infos = dict(self._lr_cache_info())
        infos["series_term"] = self._series_term.cache_info()
        for table, info in infos.items():
            if table in self.cache:
                self.cache[table][0] += info.hits
                self.cache[table][1] += info.misses

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer values of the pass traced since the last reset()."""
        def ratio(table):
            hits, misses = self.cache[table]
            return hits / (hits + misses) if hits + misses else 0.0

        out = {"partition.constructions": self.partitions}
        for layer, (calls, busy, self_s) in self.spans.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.busy_s"] = busy
            out[f"{layer}.self_s"] = self_s
        out["lrkernel.terms_out"] = self.terms_out
        for table in LR_TABLES:
            out[f"lr.{table}.hit_ratio"] = ratio(table)
            out[f"lr.{table}.misses"] = self.cache[table][1]
        out["lr.skew.pieri"] = self.pieri
        out["series.term.hit_ratio"] = ratio("series_term")
        for key in SUITES:
            out[f"verify.{key}_s"] = self.suite_s[key]
        return out


def accounting_errors(snap: dict, wall_s: float) -> list[str]:
    """Invariants a traced pass must satisfy; returns what went wrong."""
    errors = []
    misses = sum(snap[f"lr.{t}.misses"] for t in LR_TABLES)
    if snap["lrkernel.calls"] != misses - snap["lr.skew.pieri"]:
        errors.append(
            f"kernel calls {snap['lrkernel.calls']} != lr cache misses {misses}"
            f" - Pieri skews {snap['lr.skew.pieri']}"
        )
    self_total = sum(snap[f"{layer}.self_s"] for layer in SPAN_LAYERS)
    if self_total > wall_s:
        errors.append(f"layer self times add up to {self_total} s > pass wall {wall_s} s")
    return errors
