"""The exact Fourier-Motzkin enumeration of an arrangement's pieces, kept as
the small-case oracle for `mulab.arrangements.enumerate_pieces`.

Each mixed strict/equality sign system is decided by exact integer
Fourier-Motzkin elimination (equalities are pivoted away first), so there
are no epsilon questions; the cost is exponential in the number of planes,
so the tests run it on small arrangements only.
"""

import math
from fractions import Fraction
from typing import Sequence

from mulab.arrangements import (
    _DIGITS,
    Hyperplane,
    PieceEnumeration,
    SignVector,
    _checked_dim,
    _int_rows,
)


def _normalize(a: tuple[int, ...], c: int) -> tuple[tuple[int, ...], int]:
    g = math.gcd(*(abs(x) for x in a), abs(c))
    if g > 1:
        return tuple(x // g for x in a), c // g
    return a, c


def _solve_sign_system(
    planes: Sequence[tuple[tuple[int, ...], int]],
    signs: Sequence[int],
    dim: int,
) -> tuple[Fraction, ...] | None:
    """Witness point for {sign_j(a_j.x - c_j) as prescribed}, or None.

    Inequalities are kept in the strict form a.x > c; equalities are
    substituted away by integer pivoting, then Fourier-Motzkin elimination
    runs on the remainder.  A witness is rebuilt by back-substitution.
    """
    eqs: list[tuple[tuple[int, ...], int]] = []
    ins: list[tuple[tuple[int, ...], int]] = []
    for (a, c), s in zip(planes, signs):
        if s == 0:
            eqs.append((a, c))
        elif s > 0:
            ins.append((a, c))
        else:
            ins.append((tuple(-x for x in a), -c))

    pivots: list[tuple[int, tuple[int, ...], int]] = []  # (var, eq row)

    def eliminate_eq(rows, a, c, var):
        av = a[var]
        sa = 1 if av > 0 else -1
        out = []
        for b, d in rows:
            bv = b[var]
            if bv == 0:
                out.append((b, d))
                continue
            nb = tuple(abs(av) * x - sa * bv * y for x, y in zip(b, a))
            nd = abs(av) * d - sa * bv * c
            out.append(_normalize(nb, nd))
        return out

    work = list(eqs)
    while work:
        a, c = work.pop()
        if all(x == 0 for x in a):
            if c != 0:
                return None
            continue
        var = next(i for i, x in enumerate(a) if x != 0)
        pivots.append((var, a, c))
        work = eliminate_eq(work, a, c, var)
        ins = eliminate_eq(ins, a, c, var)

    # Fourier-Motzkin on the strict system a.x > c
    stages: list[tuple[int, list, list]] = []
    rows = []
    for a, c in ins:
        if all(x == 0 for x in a):
            if c >= 0:
                return None
        else:
            rows.append(_normalize(a, c))
    rows = list(dict.fromkeys(rows))
    active = [
        v for v in range(dim)
        if not any(v == pv for pv, _, _ in pivots)
    ]
    remaining = list(active)
    while remaining:
        # cheapest variable first: fewest pos*neg combinations
        def cost(v: int) -> int:
            pos = sum(1 for a, _ in rows if a[v] > 0)
            neg = sum(1 for a, _ in rows if a[v] < 0)
            return pos * neg
        var = min(remaining, key=cost)
        remaining.remove(var)
        pos = [(a, c) for a, c in rows if a[var] > 0]
        neg = [(a, c) for a, c in rows if a[var] < 0]
        rest = [(a, c) for a, c in rows if a[var] == 0]
        stages.append((var, pos, neg))
        new = rest
        for ap, cp in pos:
            for an, cn in neg:
                alpha, beta = ap[var], -an[var]
                a = tuple(beta * x + alpha * y for x, y in zip(ap, an))
                c = beta * cp + alpha * cn
                if all(x == 0 for x in a):
                    if c >= 0:
                        return None
                    continue
                new.append(_normalize(a, c))
        rows = list(dict.fromkeys(new))

    if any(c >= 0 for a, c in rows if all(x == 0 for x in a)):
        return None

    # back-substitute a witness
    x: list[Fraction | None] = [None] * dim
    for v in range(dim):
        x[v] = Fraction(0)
    for var, pos, neg in reversed(stages):
        lo: Fraction | None = None
        hi: Fraction | None = None
        for a, c in pos:  # a.x > c with a[var] > 0: lower bound
            bound = (Fraction(c) - sum(a[i] * x[i] for i in range(dim) if i != var)) / a[var]
            if lo is None or bound > lo:
                lo = bound
        for a, c in neg:  # upper bound
            bound = (Fraction(c) - sum(a[i] * x[i] for i in range(dim) if i != var)) / a[var]
            if hi is None or bound < hi:
                hi = bound
        if lo is None and hi is None:
            x[var] = Fraction(0)
        elif lo is None:
            x[var] = hi - 1
        elif hi is None:
            x[var] = lo + 1
        else:
            x[var] = (lo + hi) / 2
    for var, a, c in reversed(pivots):
        x[var] = (Fraction(c) - sum(a[i] * x[i] for i in range(dim) if i != var)) / a[var]
    return tuple(x)


def fm_oracle(arr: Sequence[Hyperplane]) -> PieceEnumeration:
    """All feasible sign vectors with exact witness points.

    Extends one hyperplane at a time: an existing witness certifies its own
    side for free, the other two signs get a fresh feasibility solve.
    """
    dim = _checked_dim(arr)
    planes = _int_rows(arr)
    states: list[tuple[SignVector, tuple[Fraction, ...]]] = [
        ((), tuple(Fraction(0) for _ in range(dim)))
    ]
    for j, (a, c) in enumerate(planes):
        nxt = []
        for signs, w in states:
            v = sum(ai * wi for ai, wi in zip(a, w)) - c
            s_w = (v > 0) - (v < 0)
            for s in (1, -1, 0):
                if s == s_w:
                    nxt.append((signs + (s,), w))
                else:
                    w2 = _solve_sign_system(planes[: j + 1], signs + (s,), dim)
                    if w2 is not None:
                        nxt.append((signs + (s,), w2))
        states = nxt
    states.sort(key=lambda sw: tuple(_DIGITS[s] for s in sw[0]))
    return PieceEnumeration([s for s, _ in states], [w for _, w in states])
