"""The intersection lattice as it was built before flats were keyed by
their closure, kept as the oracle for `mulab.arrangements._lattice` and
`count_pieces`.

Each flat is the integer reduced echelon form of its planes' rows, and that
tuple of rows is its key.  The lattice is built breadth-first by rank: from
every flat, each plane outside the closure made so far is met with it
(`_meet`, one echelon step and a back-substitution), so a flat is computed
again from each of its parents.  The count runs the Moebius recursion on
every flat.  The code below is that code as it stood, apart from the
wrappers at the end.
"""

from mulab.arrangements import _checked_dim, _distinct_planes, _primitive


def _meet(pivots, rows, plane, dim):
    """(pivots, rows) of flat cap plane for a plane not containing the flat,
    or None when the plane is parallel to it."""
    r = plane
    for p, row in zip(pivots, rows):  # clear r in the flat's pivot columns
        f = r[p]
        if f:
            e = row[p]
            r = tuple(e * x - f * y for x, y in zip(r, row))
    q = next((i for i in range(dim) if r[i]), None)
    if q is None:
        return None
    r = _primitive(r if r[q] > 0 else tuple(-x for x in r))
    e = r[q]
    out = []
    for p, row in zip(pivots, rows):
        f = row[q]
        if f:
            row = _primitive(tuple(e * x - f * y for x, y in zip(row, r)))
        out.append((p, row))
    out.append((q, r))
    out.sort()
    return tuple(p for p, _ in out), tuple(row for _, row in out)


def _lattice(planes, dim):
    """(flats, closure, below, index) of the nonempty intersections of the
    planes, built breadth-first by rank: each is the meet of a flat one rank
    lower with a plane, and the planes that give the same meet are exactly
    the ones added to that flat's closure.  index maps rows to flats."""
    flats = [((), ())]          # (pivots, rows); indices grow with rank
    closure = [0]               # bitmask of the planes containing the flat
    below = [{0}]               # flats containing this one, itself included
    index = {(): 0}
    level = [0]
    while level:
        nxt = []
        for x in level:
            pivots, rows = flats[x]
            if len(rows) == dim:  # a point: every other plane misses it
                continue
            done = closure[x]
            for j, plane in enumerate(planes):
                if done >> j & 1:
                    continue
                meet = _meet(pivots, rows, plane, dim)
                if meet is None:
                    continue
                y = index.get(meet[1])
                if y is None:
                    y = index[meet[1]] = len(flats)
                    flats.append(meet)
                    closure.append(closure[x])
                    below.append({y})
                    nxt.append(y)
                closure[y] |= 1 << j
                below[y] |= below[x]
                done |= closure[y]
        level = nxt
    return flats, closure, below, index


def count_pieces(arr):
    """The sum over flats X <= Y (Y contained in X) of |mu(X, Y)|, with mu
    from the recursion mu(Z, Y) = -sum_{Z < W <= Y} mu(W, Y); no budget."""
    dim = _checked_dim(arr)
    _, _, below, _ = _lattice(_distinct_planes(arr), dim)
    total = 0
    for y, lower in enumerate(below):
        acc = dict.fromkeys(lower, 0)
        acc[y] = 1
        for w in sorted(lower, reverse=True):  # every W > Z comes before Z
            mu = acc[w]
            total += abs(mu)
            for z in below[w]:
                if z != w:
                    acc[z] -= mu
    return total


def flats_by_closure(arr):
    """{closure bitmask: (pivots, rows)} over the flats, the bits indexing
    the distinct planes in the order `_distinct_planes` gives them."""
    flats, closure, _, _ = _lattice(_distinct_planes(arr), _checked_dim(arr))
    return dict(zip(closure, flats))
