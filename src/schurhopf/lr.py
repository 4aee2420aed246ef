"""Littlewood-Richardson coefficients, products and skews.

Front end over two interchangeable kernels: a compiled Cython enumeration
(built from _lrkernel.pyx) and a pure-Python fallback with identical
semantics.  The compiled kernel is picked automatically when present; set
SCHURHOPF_KERNEL=python or SCHURHOPF_KERNEL=cython to force a choice.

Every expansion is memoized in a bounded LRU cache (size configurable through
SCHURHOPF_CACHE_SIZE) because series and character-ring work re-query the
same small products constantly.  The caches hold finished {Partition: int}
tables, built once per miss from kernel output that is trusted as it stands,
with one shared Partition per distinct shape as keys; product_expansion and
skew_expansion hand each caller a fresh dict copy, so callers may mutate
what they get.  Coefficients are exact Python integers.
"""

from __future__ import annotations

import os
from functools import lru_cache

from . import _lrkernel_py as _pykernel
from .errors import WeightLimitError
from .partition import Partition, _unchecked, get_weight_limit


def _pick_kernel():
    choice = os.environ.get("SCHURHOPF_KERNEL", "auto").strip().lower() or "auto"
    if choice in ("auto", "cython", "compiled", "c"):
        try:
            from . import _lrkernel

            return _lrkernel
        except ImportError:
            if choice != "auto":
                raise ImportError(
                    "SCHURHOPF_KERNEL requested the compiled kernel, "
                    "but the extension is not built"
                ) from None
            return _pykernel
    if choice in ("python", "pure"):
        return _pykernel
    raise ValueError(f"unrecognized SCHURHOPF_KERNEL value {choice!r}")


_kernel = _pick_kernel()

# The compiled kernel enumerates into fixed-size row buffers; anything that
# could outgrow them (only possible after raising the weight limit) silently
# takes the pure path instead.
_KERNEL_ROW_LIMIT = 78


def kernel_name() -> str:
    """Which enumeration kernel this process is using ("cython" or "python")."""
    return _kernel.IMPLEMENTATION


def _cache_size() -> int:
    raw = os.environ.get("SCHURHOPF_CACHE_SIZE", "").strip()
    if not raw:
        return 1 << 17
    size = int(raw)
    return None if size < 0 else size


_CACHE_SIZE = _cache_size()


def _kernel_for(rows: int):
    return _kernel if rows < _KERNEL_ROW_LIMIT else _pykernel


@lru_cache(maxsize=_CACHE_SIZE)
def _shape(parts: tuple) -> Partition:
    # The tables repeat a few shapes over and over: one pass of the
    # benchmark's lr_cold workload builds 26,094 keys of 551 distinct shapes.
    return _unchecked(parts)


def _finished(table: dict) -> dict[Partition, int]:
    return {_shape(k): v for k, v in table.items()}


@lru_cache(maxsize=_CACHE_SIZE)
def _product_terms(lam: Partition, mu: Partition) -> dict[Partition, int]:
    return _finished(_kernel_for(len(lam) + len(mu)).expand_product(lam, mu))


@lru_cache(maxsize=_CACHE_SIZE)
def _coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    return _kernel_for(len(nu) + 1).product_coefficient(lam, mu, nu)


@lru_cache(maxsize=_CACHE_SIZE)
def _skew_terms(outer: Partition, inner: Partition) -> dict[Partition, int]:
    # Pieri fast paths: skewing by one row (or one column) is strip removal.
    # They still beat the pure kernel's merged-state walk: on the 1,106 row
    # skews of every shape of weight <= 10 by every row length, 0.0078 s
    # against 0.0103 s (1.3x); on the same column skews, 0.0082 s against
    # 0.0122 s (1.5x); best of 40 interleaved runs, Python 3.11, 2-vCPU x86-64.
    if len(inner) == 1:
        return _finished(_row_strip_removals(outer, inner[0]))
    if inner and inner[0] == 1:
        return _finished(_column_strip_removals(outer, len(inner)))
    return _finished(_kernel_for(len(outer) + 1).expand_skew(outer, inner))


def _row_strip_removals(outer, size):
    """Shapes left after removing a horizontal strip of `size` cells."""
    out = {}
    n = len(outer)
    mu = [0] * n

    def rec(i, left):
        if left < 0:
            return
        if i == n:
            if left == 0:
                key = tuple(mu[: next((q for q in range(n) if mu[q] == 0), n)])
                out[key] = 1
            return
        lo = outer[i + 1] if i + 1 < n else 0
        for v in range(outer[i], lo - 1, -1):
            mu[i] = v
            rec(i + 1, left - (outer[i] - v))

    rec(0, size)
    return out


def _column_strip_removals(outer, size):
    """Shapes left after removing a vertical strip of `size` cells."""
    out = {}
    n = len(outer)
    mu = [0] * n

    def rec(i, left):
        if i == n:
            if left == 0:
                key = tuple(mu[: next((q for q in range(n) if mu[q] == 0), n)])
                out[key] = 1
            return
        for e in (0, 1):
            v = outer[i] - e
            if v < 0 or e > left:
                continue
            if i and v > mu[i - 1]:
                continue
            mu[i] = v
            rec(i + 1, left - e)

    rec(0, size)
    return out


def _check_result_weight(total: int) -> None:
    limit = get_weight_limit()
    if total > limit:
        raise WeightLimitError(
            f"product weight {total} exceeds the configured limit {limit}; "
            "raise it with partition.set_weight_limit if this is intentional"
        )


def product_expansion(lam, mu) -> dict[Partition, int]:
    """Coefficient table of s_lam * s_mu as {Partition: int}."""
    lam = Partition(lam)
    mu = Partition(mu)
    _check_result_weight(lam.weight + mu.weight)
    return dict(_product_terms(lam, mu))


def skew_expansion(outer, inner) -> dict[Partition, int]:
    """Coefficient table of s_{outer/inner} as {Partition: int}."""
    outer = Partition(outer)
    inner = Partition(inner)
    return dict(_skew_terms(outer, inner))


def lr_coefficient(lam, mu, nu) -> int:
    """The Littlewood-Richardson coefficient c^nu_{lam, mu}.

    The kernel counts only the tableaux of shape nu/lam with content mu,
    instead of expanding all of s_lam * s_mu: for two staircases of weight
    15 the full product costs the pure kernel 50 to 130 times as much.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    nu = Partition(nu)
    if lam.weight + mu.weight != nu.weight:
        return 0
    if not (nu.contains(lam) and nu.contains(mu)):
        return 0
    return _coefficient(lam, mu, nu)


def lr_expand_product(lam, mu):
    """s_lam * s_mu as a SchurElement."""
    from .schur_ring import SchurElement

    return SchurElement(product_expansion(lam, mu))


def lr_expand_skew(outer, inner):
    """s_{outer/inner} as a SchurElement (zero when inner is not contained)."""
    from .schur_ring import SchurElement

    return SchurElement(skew_expansion(outer, inner))


def cache_info():
    return {
        "product": _product_terms.cache_info(),
        "skew": _skew_terms.cache_info(),
        "coefficient": _coefficient.cache_info(),
    }


def clear_caches() -> None:
    _product_terms.cache_clear()
    _skew_terms.cache_clear()
    _coefficient.cache_clear()
    _shape.cache_clear()
