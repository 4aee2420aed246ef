"""Brute-force cross-checks, kept independent of the LR kernel.

Polynomials here are plain dicts mapping fixed-length exponent tuples to
integer (or exact rational) coefficients, truncated by total degree.  Schur
polynomials are built from the horizontal-strip chain description of
column-strict tableaux.

A symmetric polynomial is fixed by its dominant monomials, those whose
exponents are weakly decreasing: its lex-leading monomial is dominant, and
the coefficient of a dominant x^mu in s_lam is the Kostka number K_{lam,mu}
(Macdonald, Symmetric Functions and Hall Polynomials, I.6).  So a symmetric
polynomial is expanded back into the Schur basis from its dominant monomials
alone, by repeatedly taking the lex-leading one and subtracting that multiple
of its Kostka row, which is valid whenever the variable count is at least
the degree.  The defining products of the Littlewood series are expanded
keeping only monomials that can still become dominant; the pruning is exact
because exponents only grow as factors go in.

Nothing in this module touches the Littlewood-Richardson code; that is the
point, since these routines referee it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial
from operator import add

from .partition import Partition


def horizontal_extensions(mu, cap):
    """All shapes nu with mu <= nu <= cap and nu/mu a horizontal strip,
    listed as (nu, cells added).  Interlacing form: nu_1 >= mu_1 >= nu_2...

    Row i ranges over mu_i..min(cap_i, mu_{i-1}) independently of the other
    rows, so the strips are the product of those ranges, first row slowest.
    The rows more than one below mu stay empty and are left out."""
    mu = tuple(mu)
    rows = min(len(cap), len(mu) + 1)
    padded = mu[:rows] + (0,) * (rows - len(mu))
    ranges = [
        range(padded[i], min(cap[i], mu[i - 1] if i else cap[i]) + 1)
        for i in range(rows)
    ]
    size = sum(mu)
    out = []
    for nu in product(*ranges):
        k = len(nu)
        while k and nu[k - 1] == 0:
            k -= 1
        out.append((nu[:k], sum(nu) - size))
    return out


def poly_mul(a: dict, b: dict, max_deg: int | None = None) -> dict:
    out: dict = {}
    right = [(eb, cb, sum(eb)) for eb, cb in b.items()]
    for ea, ca in a.items():
        room = None if max_deg is None else max_deg - sum(ea)
        for eb, cb, db in right:
            if room is not None and db > room:
                continue
            e = tuple(map(add, ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def poly_one(nvars: int) -> dict:
    return {(0,) * nvars: 1}


@lru_cache(maxsize=None)
def schur_polynomial(lam: tuple, nvars: int) -> dict:
    """The Schur polynomial s_lam(x_1..x_nvars) as an exponent-tuple dict.

    Column-strict tableaux with entries at most n are chains of horizontal
    strips, one strip per variable, so the polynomial is a strip-by-strip
    convolution.  Returns {} when lam has more rows than variables.
    """
    lam = tuple(lam)
    if len(lam) > nvars:
        return {}
    table: dict[tuple, dict] = {(): poly_one(nvars)}
    for k in range(nvars):
        new_table: dict[tuple, dict] = {}
        for mu, poly in table.items():
            for nu, added in horizontal_extensions(mu, lam):
                bump = {
                    exp[:k] + (exp[k] + added,) + exp[k + 1:]: c
                    for exp, c in poly.items()
                }
                cur = new_table.setdefault(nu, {})
                for e, c in bump.items():
                    v = cur.get(e, 0) + c
                    if v:
                        cur[e] = v
                    else:
                        del cur[e]
        table = new_table
    return table.get(lam, {})


@lru_cache(maxsize=None)
def kostka_row(lam: tuple) -> dict[tuple, int]:
    """The Kostka numbers K_{lam,mu}, keyed by every partition mu of |lam|
    for which they are nonzero.

    A column-strict tableau of shape lam and content mu is a chain of
    horizontal strips of sizes mu_1, mu_2, ...; when mu is a partition those
    sizes do not increase, so the chains are grown one strip at a time under
    that bound and counted by the content they spell."""
    lam = tuple(lam)
    if not lam:
        return {(): 1}
    row: dict[tuple, int] = {}
    layer = {((), ()): 1}
    while layer:
        deeper: dict[tuple, int] = {}
        for (shape, content), count in layer.items():
            last = content[-1] if content else sum(lam)
            for nu, added in horizontal_extensions(shape, lam):
                if not 0 < added <= last:
                    continue
                key = content + (added,)
                if nu == lam:
                    row[key] = row.get(key, 0) + count
                else:
                    deeper[nu, key] = deeper.get((nu, key), 0) + count
        layer = deeper
    return row


def schur_expand_homogeneous(poly: dict, nvars: int) -> dict[Partition, int]:
    """Write a homogeneous symmetric polynomial, given with every monomial,
    in the Schur basis.

    The input is symmetric when each monomial carries its sorted twin's
    coefficient and each twin's orbit under permuting the variables is
    present in full; anything else raises ValueError.  The expansion itself
    reads only the dominant monomials (`schur_expand_dominant`)."""
    seen: dict[tuple, int] = {}
    for e, c in poly.items():
        twin = tuple(sorted(e, reverse=True))
        if poly.get(twin) != c:
            raise ValueError(f"not symmetric: exponents {e} and {twin} differ")
        seen[twin] = seen.get(twin, 0) + 1
    for twin, count in seen.items():
        orbit = factorial(len(twin))
        for m in Counter(twin).values():
            orbit //= factorial(m)
        if count != orbit:
            raise ValueError(
                f"not symmetric: {count} of the {orbit} permutations of {twin}"
            )
    return schur_expand_dominant({e: poly[e] for e in seen}, nvars)


def schur_expand_dominant(dominant: dict, nvars: int) -> dict[Partition, int]:
    """Write the homogeneous symmetric polynomial whose dominant monomials
    are `dominant` in the Schur basis.

    Needs nvars at least the degree so no partition is invisible.  The
    lex-leading monomial gives the next Schur coefficient, and that multiple
    of its Kostka row comes off until nothing is left."""
    if not dominant:
        return {}
    degree = sum(next(iter(dominant)))
    if nvars < degree:
        raise ValueError("need at least as many variables as the degree")
    work = dict(dominant)
    out: dict[Partition, int] = {}
    while work:
        lead = max(work)
        coeff = work[lead]
        shape = tuple(x for x in lead if x)
        out[Partition(shape)] = coeff
        for mu, k in kostka_row(shape).items():
            e = mu + (0,) * (nvars - len(mu))
            v = work.get(e, 0) - coeff * k
            if v:
                work[e] = v
            else:
                del work[e]
    return out


def _dominant_product(kind: str, nvars: int, max_deg: int) -> dict:
    """The dominant monomials of the product prod (1 - x_i x_j) over i<j
    (kind "A") or i<=j ("C"), or of the inverse products ("B", "D") via
    geometric factors, truncated at total degree max_deg.

    Factors go in with i as the outer loop, so once row i is in, x_i's
    exponent is final.  Then a monomial whose exponents e_0..e_i are not
    weakly decreasing, or with a later e_k already above e_i, is dropped:
    exponents only grow, so it can never become dominant."""
    out = poly_one(nvars)
    inverse = kind in ("B", "D")
    strict = kind in ("A", "B")
    for i in range(nvars):
        for j in range(i + (1 if strict else 0), nvars):
            if inverse:
                factor = {}
                m = 0
                while 2 * m <= max_deg:
                    e = [0] * nvars
                    e[i] += m
                    e[j] += m
                    factor[tuple(e)] = 1
                    m += 1
            else:
                e = [0] * nvars
                e[i] += 1
                e[j] += 1
                factor = {(0,) * nvars: 1, tuple(e): -1}
            out = poly_mul(out, factor, max_deg)
        out = {
            e: c for e, c in out.items()
            if (i == 0 or e[i - 1] >= e[i]) and max(e[i:]) == e[i]
        }
    return out


def series_term_by_expansion(name: str, d: int) -> dict[Partition, int]:
    """Degree-d Schur coefficients of a named series, straight from the
    defining product expanded in max(d, 1) variables."""
    nvars = max(d, 1)
    poly = _dominant_product(name.strip().upper(), nvars, d)
    return schur_expand_dominant(
        {e: c for e, c in poly.items() if sum(e) == d}, nvars
    )


def product_in_schur_basis(lam, mu) -> dict[Partition, int]:
    """s_lam * s_mu by raw polynomial multiplication plus re-expansion."""
    lam = tuple(lam)
    mu = tuple(mu)
    nvars = max(sum(lam) + sum(mu), 1)
    prod = poly_mul(schur_polynomial(lam, nvars), schur_polynomial(mu, nvars))
    return schur_expand_homogeneous(prod, nvars)
