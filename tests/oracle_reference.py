"""Frozen copy of the oracle's earlier full-polynomial routes, for parity.

It expands the defining product of a named series, or the product of two
Schur polynomials, in every monomial and writes the result in the Schur basis
by subtracting whole Schur polynomials, after checking that the polynomial is
symmetric.  `_oracle` now keeps only the dominant monomials and subtracts
Kostka rows; the tests hold the two routes equal.

`poly_mul` multiplies two polynomials in full, and `pair_factor` writes out
one factor 1 - x_i x_j or its truncated geometric inverse.  Their product is
the reference for `_oracle._pair_step`, which puts a factor into a
polynomial in place, for the Littlewood series and the Cauchy kernels alike.
"""

from collections import Counter
from math import factorial
from operator import add

from schurhopf._oracle import poly_one, schur_polynomial
from schurhopf.partition import Partition


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


def pair_factor(nvars: int, i: int, j: int, inverse: bool, max_deg: int) -> dict:
    """The factor 1 - x_i x_j in nvars variables, or with inverse its
    geometric inverse sum_m (x_i x_j)^m truncated at total degree max_deg;
    i == j gives 1 - x_i^2 and its inverse.  max_deg bounds only the
    inverse: the direct factor is always returned whole."""
    def power(m):
        e = [0] * nvars
        e[i] += m
        e[j] += m
        return tuple(e)
    if inverse:
        return {power(m): 1 for m in range(max_deg // 2 + 1)}
    return {power(0): 1, power(1): -1}


def poly_add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def littlewood_product_poly(kind, nvars, max_deg):
    """Truncation of prod (1 - x_i x_j) over i<j (kind "A") or i<=j ("C"),
    or of the inverse products ("B", "D") via geometric factors."""
    out = poly_one(nvars)
    inverse = kind in ("B", "D")
    strict = kind in ("A", "B")
    for i in range(nvars):
        for j in range(i + (1 if strict else 0), nvars):
            out = poly_mul(out, pair_factor(nvars, i, j, inverse, max_deg), max_deg)
    return out


def schur_expand_homogeneous(poly, nvars):
    """Subtract the Schur polynomial of the lex-leading exponent until
    nothing is left; needs nvars at least the degree, and a polynomial that
    is symmetric, monomial by monomial."""
    seen = {}
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
    if not poly:
        return {}
    degree = sum(next(iter(poly)))
    if nvars < degree:
        raise ValueError("need at least as many variables as the degree")
    work = dict(poly)
    out = {}
    while work:
        lead = max(work)
        if any(lead[i] < lead[i + 1] for i in range(len(lead) - 1)):
            raise ValueError(f"not symmetric: leading exponent {lead}")
        coeff = work[lead]
        shape = tuple(x for x in lead if x)
        out[Partition(shape)] = coeff
        work = poly_add(work, schur_polynomial(shape, nvars), -coeff)
    return out


def series_term_by_expansion(name, d):
    nvars = max(d, 1)
    poly = littlewood_product_poly(name, nvars, d)
    return schur_expand_homogeneous(
        {e: c for e, c in poly.items() if sum(e) == d}, nvars
    )


def product_in_schur_basis(lam, mu):
    """s_lam * s_mu by raw polynomial multiplication plus re-expansion."""
    lam = tuple(lam)
    mu = tuple(mu)
    nvars = max(sum(lam) + sum(mu), 1)
    prod = poly_mul(schur_polynomial(lam, nvars), schur_polynomial(mu, nvars))
    return schur_expand_homogeneous(prod, nvars)
