"""Reference Littlewood-Richardson enumerator for the kernel parity tests.

A frozen copy of the pure kernel's earlier algorithm: it walks the chains of
horizontal strips one LR tableau at a time (recursing once per label and per
row), with no merging of states and no row completion.  It is slow and
recursion-bound, but it shares no code with `schurhopf._lrkernel_py`, so the
parity tests compare two independent enumerations.
"""


def _contains(outer, inner):
    if len(inner) > len(outer):
        return False
    for a, b in zip(outer, inner):
        if b > a:
            return False
    return True


def _add_strips(shape, size, prev_cum, outer, emit):
    """Enumerate horizontal strips of `size` cells on top of `shape`.

    prev_cum[r] counts the previous label's cells in rows 0..r (None for the
    first label, which has no ballot constraint).  outer, when given, caps the
    shape row by row.  Calls emit(new_shape, cum) per placement, where cum is
    the cumulative row profile of the new label.
    """
    n = len(shape)
    nrows = n + 1
    new = list(shape) + [0]
    cum = [0] * nrows

    def rec(r, left, placed):
        if left == 0:
            for q in range(r, nrows):
                cum[q] = placed
            ns = tuple(new[:n]) if new[n] == 0 else tuple(new)
            emit(ns, tuple(cum))
            return
        if r == nrows:
            return
        base = shape[r] if r < n else 0
        lo = left - base  # rows below r can absorb at most `base` cells
        if lo < 0:
            lo = 0
        hi = left
        if r > 0:
            cap = (shape[r - 1] if r - 1 < n else 0) - base
            if cap < hi:
                hi = cap
            if prev_cum is not None:
                bal = prev_cum[r - 1] - placed
                if bal < hi:
                    hi = bal
        elif prev_cum is not None:
            hi = 0  # labels past the first never land in the top row
        if outer is not None:
            ocap = (outer[r] if r < len(outer) else 0) - base
            if ocap < hi:
                hi = ocap
        for a in range(lo, hi + 1):
            new[r] = base + a
            cum[r] = placed + a
            rec(r + 1, left - a, placed + a)
        new[r] = base

    rec(0, size, 0)


def expand_product(lam, mu):
    """Coefficient table of s_lam * s_mu: dict mapping shape tuple -> count."""
    if sum(mu) > sum(lam):
        lam, mu = mu, lam  # grow the smaller content: fewer labels
    out = {}
    nlab = len(mu)

    def label(i, shape, prev):
        if i == nlab:
            out[shape] = out.get(shape, 0) + 1
            return
        _add_strips(
            shape,
            mu[i],
            prev,
            None,
            lambda ns, cum: label(i + 1, ns, cum),
        )

    label(0, tuple(lam), None)
    return out


def product_coefficient(lam, mu, nu):
    """Multiplicity of s_nu in s_lam * s_mu (0 on any degree mismatch)."""
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if sum(mu) > sum(lam):
        lam, mu = mu, lam
    if not _contains(nu, lam):
        return 0
    nu = tuple(nu)
    nlab = len(mu)
    count = 0

    def label(i, shape, prev):
        nonlocal count
        if i == nlab:
            count += 1  # shape fills nu: contained and of equal weight
            return
        _add_strips(
            shape,
            mu[i],
            prev,
            nu,
            lambda ns, cum: label(i + 1, ns, cum),
        )

    label(0, tuple(lam), None)
    return count


def expand_skew(outer, inner):
    """Coefficient table of s_{outer/inner}: dict content tuple -> count."""
    outer = tuple(outer)
    inner = tuple(inner)
    if not _contains(outer, inner):
        return {}
    if not inner:
        return {outer: 1}
    total = sum(outer) - sum(inner)
    if total == 0:
        return {(): 1}
    out = {}
    content = []

    def label(shape, prev, placed):
        if placed == total:
            key = tuple(content)
            out[key] = out.get(key, 0) + 1
            return
        rem = total - placed
        mx = rem if prev is None else min(rem, content[-1])
        for size in range(mx, 0, -1):
            content.append(size)
            _add_strips(
                shape,
                size,
                prev,
                outer,
                lambda ns, cum: label(ns, cum, placed + size),
            )
            content.pop()

    label(inner, None, 0)
    return out
