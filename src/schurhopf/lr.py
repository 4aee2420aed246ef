"""Littlewood-Richardson coefficients, products and skews.

Front end over the kernel in _lrkernel_py, which computes every product,
skew and single coefficient.

Every expansion is memoized (`partition.memo`) because series and
character-ring work re-query the same small products constantly.  The memos
hold finished {Partition: int} tables, built once per miss from kernel
output that is trusted as it stands, with one shared Partition per distinct
shape as keys and no zero coefficients.  Coefficients are exact Python
integers.  The ring is commutative, so products and single coefficients are
cached per unordered pair of factors: both keys put the smaller factor first,
as `cached(mu, lam) if mu < lam else cached(lam, mu)` (inline, since a helper
would add a Python call to every cache hit), and both argument orders share
one entry and one kernel call.

The weight limit is checked where a table is computed: on a miss, before
the kernel runs, a factor or outer shape over the limit raises the API
boundary's "partition weight" error and a product over it "product weight",
naming the factors in argument order.  A miss that raises still counts as a
miss in cache_info.

The cached tables are shared under the rule stated in schur_ring's
docstring.  product_expansion and skew_expansion are the API boundary: they
validate both shapes and hand each caller a fresh dict copy, since a caller
may mutate a plain dict.  lr_expand_product and lr_expand_skew validate both
shapes and wrap the cached table itself.  The ring code in schur_ring and
char_rings calls _product_terms and _skew_terms directly; it passes only
Partitions, and never a skew's inner shape heavier than its outer one, so
the outer one's check covers both.
"""

from __future__ import annotations

from . import _lrkernel_py as _kernel
from .errors import WeightLimitError
from .partition import Partition, _unchecked, get_weight_limit, memo


def kernel_name() -> str:
    """Which LR kernel this process uses; always "python"."""
    return "python"


@memo
def _shape(parts: tuple) -> Partition:
    # The tables repeat a few shapes over and over: one pass of the
    # benchmark's lr_cold workload builds 15,944 keys of 551 distinct shapes.
    return _unchecked(parts)


def _finished(table: dict) -> dict[Partition, int]:
    return {_shape(k): v for k, v in table.items()}


def _product_terms(lam: Partition, mu: Partition) -> dict[Partition, int]:
    try:
        return _product(mu, lam) if mu < lam else _product(lam, mu)
    except WeightLimitError as err:
        error = err
    # Partition() re-validates a shape over the limit and raises, so a factor
    # over it is named in argument order, before the total.
    Partition(lam)
    Partition(mu)
    raise error


@memo
def _product(lam: Partition, mu: Partition) -> dict[Partition, int]:
    _check_result_weight(sum(lam) + sum(mu))
    return _finished(_kernel.expand_product(lam, mu))


@memo
def _coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    return _kernel.product_coefficient(lam, mu, nu)


@memo
def _skew_terms(outer: Partition, inner: Partition) -> dict[Partition, int]:
    if sum(outer) > get_weight_limit():
        Partition(outer)
    return _finished(_kernel.expand_skew(outer, inner))


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
    c^nu_{lam,mu} = c^nu_{mu,lam}, so both orders share one cache entry.
    """
    lam = Partition(lam)
    mu = Partition(mu)
    nu = Partition(nu)
    if lam.weight + mu.weight != nu.weight:
        return 0
    if not (nu.contains(lam) and nu.contains(mu)):
        return 0
    return _coefficient(mu, lam, nu) if mu < lam else _coefficient(lam, mu, nu)


def lr_expand_product(lam, mu):
    """s_lam * s_mu as a SchurElement."""
    from .schur_ring import SchurElement

    return SchurElement._trusted(_product_terms(Partition(lam), Partition(mu)))


def lr_expand_skew(outer, inner):
    """s_{outer/inner} as a SchurElement (zero when inner is not contained)."""
    from .schur_ring import SchurElement

    return SchurElement._trusted(_skew_terms(Partition(outer), Partition(inner)))


def cache_info():
    return {
        "product": _product.cache_info(),
        "skew": _skew_terms.cache_info(),
        "coefficient": _coefficient.cache_info(),
    }
