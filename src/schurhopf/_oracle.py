"""Brute-force cross-checks, kept independent of the LR kernel.

Polynomials here are plain dicts mapping fixed-length exponent tuples to
integer (or exact rational) coefficients, truncated by total degree.  Schur
polynomials are built from the horizontal-strip chain description of
column-strict tableaux, and symmetric polynomials are expanded back into the
Schur basis by repeatedly subtracting the leading term, which is valid
whenever the variable count is at least the degree.

Nothing in this module touches the Littlewood-Richardson code; that is the
point, since these routines referee it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .partition import Partition


def horizontal_extensions(mu, cap):
    """All shapes nu with mu <= nu <= cap and nu/mu a horizontal strip,
    yielded as (nu, cells added).  Interlacing form: nu_1 >= mu_1 >= nu_2..."""
    mu = tuple(mu)
    cap = tuple(cap)
    n = len(cap)
    out = []
    nu = [0] * n

    def rec(i):
        if i == n:
            k = n
            while k and nu[k - 1] == 0:
                k -= 1
            out.append((tuple(nu[:k]), sum(nu) - sum(mu)))
            return
        lo = mu[i] if i < len(mu) else 0
        hi = cap[i]
        if i:
            hi = min(hi, mu[i - 1] if i - 1 < len(mu) else 0)
        for v in range(lo, hi + 1):
            nu[i] = v
            rec(i + 1)
        nu[i] = 0

    rec(0)
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


def poly_add(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_one(nvars: int) -> dict:
    return {(0,) * nvars: 1}


def homogeneous_part(poly: dict, d: int) -> dict:
    return {e: c for e, c in poly.items() if sum(e) == d}


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


def schur_expand_homogeneous(poly: dict, nvars: int) -> dict[Partition, int]:
    """Write a homogeneous symmetric polynomial in the Schur basis.

    Needs nvars at least the degree so no partition is invisible.  Works by
    subtracting the Schur polynomial of the lex-leading exponent until
    nothing is left; a non-partition leading exponent means the input was
    not symmetric."""
    if not poly:
        return {}
    degree = sum(next(iter(poly)))
    if nvars < degree:
        raise ValueError("need at least as many variables as the degree")
    work = dict(poly)
    out: dict[Partition, int] = {}
    while work:
        lead = max(work)
        if any(lead[i] < lead[i + 1] for i in range(len(lead) - 1)):
            raise ValueError(f"not symmetric: leading exponent {lead}")
        coeff = work[lead]
        shape = tuple(x for x in lead if x)
        out[Partition(shape)] = coeff
        work = poly_add(work, schur_polynomial(shape, nvars), -coeff)
    return out


@lru_cache(maxsize=None)
def littlewood_product_poly(kind: str, nvars: int, max_deg: int) -> dict:
    """Truncation of prod (1 - x_i x_j) over i<j (kind "A") or i<=j ("C"),
    or of the inverse products ("B", "D") via geometric factors."""
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
    return out


def series_term_by_expansion(name: str, d: int) -> dict[Partition, int]:
    """Degree-d Schur coefficients of a named series, straight from the
    defining product expanded in max(d, 1) variables."""
    nvars = max(d, 1)
    poly = littlewood_product_poly(name.strip().upper(), nvars, d)
    return schur_expand_homogeneous(homogeneous_part(poly, d), nvars)


def product_in_schur_basis(lam, mu, nvars: int | None = None) -> dict[Partition, int]:
    """s_lam * s_mu by raw polynomial multiplication plus re-expansion."""
    lam = tuple(lam)
    mu = tuple(mu)
    degree = sum(lam) + sum(mu)
    if nvars is None:
        nvars = max(degree, 1)
    prod = poly_mul(schur_polynomial(lam, nvars), schur_polynomial(mu, nvars))
    return schur_expand_homogeneous(prod, nvars)
