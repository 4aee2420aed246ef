"""The Littlewood-Richardson kernel, in pure Python.

A product coefficient c^nu_{lam,mu} counts column-strict skew tableaux of
shape nu/lam and content mu whose reverse reading word is a ballot word.
Equivalently, tableaux are chains of horizontal strips: grow lam by mu[0]
cells labelled 1, then mu[1] cells labelled 2, and so on, where row-prefix
counts of label i never exceed those of label i-1 shifted down one row.

Whether label i+1 may follow depends only on the shape so far and on the row
profile of label i, so chains are not walked one tableau at a time: each
label maps a dict {(shape, row profile): number of chains} to the next,
merging the chains that reach the same state.  A skew does not know its
content in advance, so its states also carry the content so far, and one
walk per state places a strip of any size up to the previous label's.

Label i (counting from 0) never lands above row i, so its walk starts
there.  When the outer shape is known (skews and single coefficients), row
i holds only labels up to i, so label i must fill row i to the outer shape:
that row's share of the strip is forced, and a chain that cannot fill it
dies at that label instead of at the end.  The walks go row by row and the
labels one after another, so nothing recurses, however tall the shapes.

Since c^nu_{lam,mu} = c^nu_{mu,lam}, a product or single coefficient may
grow either factor by the other.  Each row of the content is one label
step over every state, so the content is the factor with fewer rows, and
on a tie the lighter one.  Measured on 972 random pairs of weight 1 to 9
(the sum over pairs of each product's fastest of 5 runs), this costs
0.141 s; taking the lighter factor as the content cost 0.183 s, and the
faster direction of every pair 0.136 s.  (2^8).(10,9,8,7,6,5,4) went from
0.08 s to 0.013 s.

A skew is first put in normal form, since s_{outer/inner} depends only on
its cells up to translation, is unchanged by a 180-degree rotation, and is
the product of the parts of a disconnected shape (Macdonald I.5; Stanley,
EC2 ch. 7).  The shape is cut into row blocks wherever outer[r+1] <=
inner[r], which also leaves every empty row a block of its own, and those
are dropped.  Each block is shifted left by its bottom row's inner part.  A
block with no inner shape left is straight, {outer: 1}; a block whose outer
shape is a rectangle is straight once rotated; only the others are walked.
The block tables are multiplied one after another by the product walk.  On
the benchmark's lr_cold workload 753 of a pass's 918 skews need no walk.

The normal form lives here, not in lr, so that one skew that misses lr's
cache stays one kernel call with no lr product behind it: the benchmark's
traced accounting reads kernel calls off lr's cache misses.
"""


def _contains(outer, inner):
    if len(inner) > len(outer):
        return False
    for a, b in zip(outer, inner):
        if b > a:
            return False
    return True


def _strips(shape, prev_cum, start, smin, smax, outer):
    """Horizontal strips of smin..smax cells on `shape` in rows start, start+1, ...

    prev_cum[r] counts the previous label's cells in rows 0..r (None for the
    first label, which has no ballot constraint).  outer, when given, caps
    the shape row by row, and row `start` must then be filled to
    outer[start].  Returns (new_shape, cum, size) per strip, where cum is the
    new label's row profile, as long as new_shape.
    """
    n = len(shape)
    nrows = n + 1 if outer is None else min(n + 1, len(outer))
    head = shape[:start]
    found = []
    partial = [(0, (), ())]  # (cells placed, rows start..r-1, their profile)
    r = start
    while r < nrows:
        base = shape[r] if r < n else 0
        cap = shape[r - 1] - base if r else smax  # stay under the row above
        need = smin - base  # rows below r can absorb at most `base` cells
        if outer is not None:
            if outer[r] - base < cap:
                cap = outer[r] - base
            if r == start:
                need = outer[r] - base  # row completion
        lim = smax  # ballot: no more than the previous label in rows 0..r-1
        if prev_cum is not None and prev_cum[r - 1] < lim:
            lim = prev_cum[r - 1]
        # the rest of row r's run of equal parts sits under an equal row, so
        # it takes no cell and the walk steps over it
        stop = shape.index(base) + shape.count(base) if r < n else r + 1
        last = stop == nrows
        extended = []
        for placed, rows, cum in partial:
            hi = lim - placed
            if cap < hi:
                hi = cap
            lo = need - placed
            if lo < 0:
                lo = 0
            for a in range(lo, hi + 1):
                p = placed + a
                if p == smax or last:
                    if p >= smin:
                        new = head + rows + (base + a,) + shape[r + 1:]
                        if not new[-1]:
                            new = new[:-1]
                        cum_all = (0,) * start + cum + (p,) * (len(new) - r)
                        found.append((new, cum_all, p))
                else:
                    extended.append(
                        (p, rows + (base + a,) + shape[r + 1:stop], cum + (p,) * (stop - r))
                    )
        if not extended:
            break
        partial = extended
        r = stop
    return found


def _grow(lam, mu, outer):
    """{shape: number of LR chains} after growing lam by the labels of mu."""
    states = {(tuple(lam), None): 1}
    last = len(mu) - 1
    for i, size in enumerate(mu):
        nxt = {}
        for (shape, prev), count in states.items():
            for ns, cum, _ in _strips(shape, prev, i, size, size, outer):
                key = (ns, None) if i == last else (ns, cum)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return {shape: count for (shape, _), count in states.items()}


def _base_and_content(lam, mu):
    """The factors of a product as (shape to grow, content to grow it by):
    the content has fewer rows, or as many and less weight; on a full tie
    the given order stands."""
    if (len(mu), sum(mu)) > (len(lam), sum(lam)):
        return mu, lam
    return lam, mu


def expand_product(lam, mu):
    """Coefficient table of s_lam * s_mu: dict mapping shape tuple -> count."""
    lam, mu = _base_and_content(lam, mu)
    return _grow(lam, mu, None)


def product_coefficient(lam, mu, nu):
    """Multiplicity of s_nu in s_lam * s_mu: 0 on a degree mismatch or a nu
    not containing lam or mu, since the walk then never reaches nu."""
    lam, mu = _base_and_content(lam, mu)
    nu = tuple(nu)
    return _grow(lam, mu, nu).get(nu, 0)


def _block_skew(outer, inner):
    """s_{outer/inner} for one connected block with no empty row, whose
    bottom row has no inner part: straight, rotated straight, or walked."""
    if not inner:
        return {outer: 1}
    a = outer[0]
    if outer[-1] == a:
        # a rectangle a^k: the 180-degree rotation of the skew is straight,
        # (a - inner[k-1], ..., a - inner[0]), with no zero part since no
        # row is empty
        return {(a,) * (len(outer) - len(inner)) + tuple(a - x for x in reversed(inner)): 1}
    return _walk_skew(outer, inner)


def expand_skew(outer, inner):
    """Coefficient table of s_{outer/inner}: dict content tuple -> count."""
    outer = tuple(outer)
    inner = tuple(inner)
    if not _contains(outer, inner):
        return {}
    if not inner:
        return {outer: 1}
    n = len(outer)
    inner += (0,) * (n - len(inner))
    table = None
    top = 0
    for r in range(n):
        if r + 1 < n and outer[r + 1] > inner[r]:
            continue  # rows r and r+1 share a column
        # rows top..r are one block; only a block of one row can be empty
        shift = inner[r]
        if outer[r] > shift:
            part = _block_skew(
                tuple(x - shift for x in outer[top:r + 1]),
                tuple(x - shift for x in inner[top:r] if x > shift),
            )
            table = part if table is None else _times(table, part)
        top = r + 1
    return {(): 1} if table is None else table


def _times(left, right):
    """The product of two coefficient tables, by expand_product's walk.

    The walk is called directly, not through the module's expand_product,
    so that a skew stays one call into the kernel's public functions.
    """
    out = {}
    for lam, x in left.items():
        for mu, y in right.items():
            for nu, c in _grow(*_base_and_content(lam, mu), None).items():
                out[nu] = out.get(nu, 0) + x * y * c
    return out


def _walk_skew(outer, inner):
    """s_{outer/inner} by one LR walk, for a nonempty inner shape inside
    outer."""
    total = sum(outer) - sum(inner)
    out = {}
    # label i -> {(shape, profile of label i-1, content so far): chains}
    states = {(inner, None, ()): 1}
    i = 0
    while states:
        nxt = {}
        for (shape, prev, content), count in states.items():
            left = total - sum(content)
            smax = min(left, content[-1]) if content else left
            for ns, cum, size in _strips(shape, prev, i, 1, smax, outer):
                key = content + (size,)
                if size == left:
                    out[key] = out.get(key, 0) + count
                else:
                    key = (ns, cum, key)
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
        i += 1
    return out
