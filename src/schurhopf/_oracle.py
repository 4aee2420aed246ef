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
the degree.  The defining products of the Littlewood series, and the
Cauchy kernels that `evaluate` checks, are expanded one factor 1 - x_i x_j
(or its geometric inverse) at a time, in place: a factor shifts the
polynomial by x_i x_j and subtracts, or adds down the chain of shifts in
rising degree, with no factor polynomial written out.  For the series, only
monomials that can still become dominant are kept; the pruning is exact
because exponents only grow as factors go in.  A product s_lam s_mu is read
the same way: each dominant coefficient is a sum of products of two Kostka
numbers, so neither factor is ever written out in full.  The routes that
multiply whole polynomials (the full product `poly_mul`, the written-out
factor `pair_factor`, and the Schur expansion with its guard that every
orbit of monomials is present) are kept in the tests, as the references in
`tests/oracle_reference.py`.

Nothing in this module touches the Littlewood-Richardson code; that is the
point, since these routines referee it.
"""

from __future__ import annotations

from itertools import product

from .partition import Partition, memo, partitions_of


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


def poly_one(nvars: int) -> dict:
    return {(0,) * nvars: 1}


@memo
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
                cur = new_table.setdefault(nu, {})
                for exp, c in poly.items():
                    e = exp[:k] + (exp[k] + added,) + exp[k + 1:]
                    cur[e] = cur.get(e, 0) + c
        table = new_table
    return table.get(lam, {})


@memo
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


def _pair_step(poly: dict, i: int, j: int, inverse: bool, max_deg: int) -> None:
    """Multiply poly in place by the factor 1 - x_i x_j, or with inverse by
    its geometric inverse 1 + x_i x_j + (x_i x_j)^2 + ..., and drop every
    monomial of total degree above max_deg; poly must have total degree at
    most max_deg.  i == j gives 1 - x_i^2 and its inverse.  The tests hold
    this equal to the full product with the written-out factor
    (`poly_mul` and `pair_factor` in `tests/oracle_reference.py`).

    x_i x_j shifts a monomial two degrees up.  The direct factor subtracts
    each old coefficient at its shift, read from a snapshot of the items.
    The inverse satisfies new(e) = old(e) + new(e - shift), so it walks the
    monomials in rising degree and adds each one's new coefficient at its
    shift, down the chain of shifts until the next monomial of the old poly,
    which carries it on in its own turn."""
    def shift(e):
        e = list(e)
        e[i] += 1
        e[j] += 1
        return tuple(e)

    if not inverse:
        for e, c in list(poly.items()):
            if sum(e) + 2 <= max_deg:
                k = shift(e)
                v = poly.get(k, 0) - c
                if v:
                    poly[k] = v
                else:
                    del poly[k]
        return
    for e in sorted(poly, key=sum):
        c = poly.get(e)
        if c is None:
            continue
        k = e
        for _ in range((max_deg - sum(e)) // 2):
            k = shift(k)
            if k in poly:
                v = poly[k] + c
                if v:
                    poly[k] = v
                else:
                    del poly[k]
                break
            poly[k] = c


def _dominant_product(kind: str, nvars: int, max_deg: int) -> dict:
    """The dominant monomials of the product prod (1 - x_i x_j) over i<j
    (kind "A") or i<=j ("C"), or of the inverse products ("B", "D") via
    geometric factors, truncated at total degree max_deg.

    Each factor goes into the table in place (`_pair_step`), with i as the
    outer loop, so once row i is in, x_i's exponent is final.  Exponents
    only grow, so a monomial is dropped as soon as it can never become
    dominant: after each factor of row i > 0, when e_i has passed the final
    e_{i-1}, and once row i is in, when a later e_k is above e_i.  So
    e_0..e_i stay weakly decreasing."""
    out = poly_one(nvars)
    inverse = kind in ("B", "D")
    strict = kind in ("A", "B")
    for i in range(nvars):
        for j in range(i + (1 if strict else 0), nvars):
            _pair_step(out, i, j, inverse, max_deg)
            if i:
                out = {e: c for e, c in out.items() if e[i] <= e[i - 1]}
        out = {e: c for e, c in out.items() if max(e[i:]) == e[i]}
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
    """s_lam * s_mu, read from its dominant monomials in |lam|+|mu| variables.

    The coefficient of x^nu in the product sums, over the splits nu = a + b
    with |a| = |lam|, the coefficient of x^a in s_lam times that of x^b in
    s_mu.  Both factors are symmetric, so those are the Kostka numbers
    K_{lam, sort a} and K_{mu, sort b}."""
    lam = tuple(lam)
    mu = tuple(mu)
    size = sum(lam)
    total = size + sum(mu)
    nvars = max(total, 1)
    left = kostka_row(lam)
    right = kostka_row(mu)
    content = lambda e: tuple(sorted(filter(None, e), reverse=True))
    dominant = {}
    for nu in partitions_of(total):
        c = 0
        for a in product(*(range(x + 1) for x in nu)):
            if sum(a) == size:
                k = left.get(content(a))
                if k:
                    c += k * right.get(content(map(int.__sub__, nu, a)), 0)
        if c:
            dominant[tuple(nu) + (0,) * (nvars - len(nu))] = c
    return schur_expand_dominant(dominant, nvars)
