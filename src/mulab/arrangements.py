"""Pieces of R^k cut by rational hyperplanes.

A piece is a nonempty intersection P_1 cap ... cap P_m with each P_j one of
{F_j > c_j}, {F_j < c_j}, {F_j = c_j}; equivalently a feasible sign vector
over {+1, -1, 0}, or a face of the arrangement.

`count_pieces` is witness-free: it builds the intersection lattice (the
nonempty intersections of the planes, each kept as an integer echelon form)
and sums |mu(X, Y)| over pairs of flats X <= Y, which is Zaslavsky's face
count ("Facing up to arrangements", 1975).  It needs exact ranks only, no
feasibility solves.

`enumerate_pieces` is the only path that yields sign vectors and witness
points.  It decides each mixed strict/equality system by exact integer
Fourier-Motzkin elimination (equalities are pivoted away first), so there
are no epsilon questions at desk scale, and it serves as the differential
oracle for the count.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParseError, ResourceBudgetError

SignVector = tuple[int, ...]

# digit order of sign vectors in enumeration output (ternary-counter order)
_DIGITS = {1: 0, -1: 1, 0: 2}

# enumerate_pieces budget, from the cost of Fourier-Motzkin elimination
MAX_HYPERPLANES = 12
MAX_DIM = 4
# count_pieces budget: the largest piece_bound(m, k) it takes on.  Its cost
# tracks that bound, 6-17 us per unit on a 2-core Xeon VM (general position
# m=24, k=4: 1.7 s; m=16, k=5: 1.2 s; 1e5 points on a line: 3.5 s).
MAX_COUNT_BOUND = 200_000


@dataclass(frozen=True)
class Hyperplane:
    """The set F(x) = offset for a nonzero rational linear form F."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self) -> None:
        if not self.normal or all(c == 0 for c in self.normal):
            raise ValueError("hyperplane needs a nonzero linear form")

    @property
    def dim(self) -> int:
        return len(self.normal)

    def side(self, point: Sequence[Fraction]) -> int:
        """Sign of F(point) - offset: +1 above, -1 below, 0 on the plane."""
        if len(point) != self.dim:
            raise ValueError(
                f"point has dimension {len(point)}, hyperplane {self.dim}"
            )
        v = sum(a * Fraction(x) for a, x in zip(self.normal, point)) - self.offset
        return (v > 0) - (v < 0)


def hyperplane(normal: Iterable, offset) -> Hyperplane:
    return Hyperplane(tuple(Fraction(c) for c in normal), Fraction(offset))


def classify_point(point: Sequence, arr: Sequence[Hyperplane]) -> SignVector:
    """Sign of F_j(point) - c_j per hyperplane, exact."""
    pt = tuple(Fraction(x) for x in point)
    return tuple(h.side(pt) for h in arr)


# ---------------------------------------------------------------------------
# exact feasibility of one sign system


def _int_rows(arr: Sequence[Hyperplane]) -> list[tuple[tuple[int, ...], int]]:
    """Clear denominators per hyperplane: (a, c) ints with a.x = c the plane."""
    rows = []
    for h in arr:
        scale = math.lcm(*(f.denominator for f in (*h.normal, h.offset)))
        rows.append(
            (tuple(int(f * scale) for f in h.normal), int(h.offset * scale))
        )
    return rows


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


# ---------------------------------------------------------------------------
# enumeration


def _checked_dim(arr: Sequence[Hyperplane]) -> int:
    """Dimension of a valid arrangement."""
    if len(arr) < 1:
        raise ValueError("need at least one hyperplane")
    dim = arr[0].dim
    if any(h.dim != dim for h in arr):
        raise ValueError("mixed dimensions in arrangement")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return dim


@dataclass
class PieceEnumeration:
    sign_vectors: list[SignVector]  # ternary-counter order: +, -, 0 per digit
    witnesses: list[tuple[Fraction, ...]]

    @property
    def count(self) -> int:
        return len(self.sign_vectors)


def enumerate_pieces(arr: Sequence[Hyperplane]) -> PieceEnumeration:
    """All feasible sign vectors with exact witness points.

    Extends one hyperplane at a time: an existing witness certifies its own
    side for free, the other two signs get a fresh feasibility solve.
    """
    dim = _checked_dim(arr)
    m = len(arr)
    if m > MAX_HYPERPLANES or dim > MAX_DIM:
        raise ResourceBudgetError(
            f"arrangement m={m}, k={dim} beyond enumeration budget "
            f"(m <= {MAX_HYPERPLANES}, k <= {MAX_DIM}): it may have "
            f"piece_bound({m}, {dim}) = {piece_bound(m, dim)} pieces, each "
            f"with an exact witness to solve for"
        )
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


# ---------------------------------------------------------------------------
# witness-free count over the intersection lattice
#
# A row (a_1, ..., a_k, c) stands for the plane a.x = c.  A flat is kept as
# the integer reduced echelon form of its planes' rows: primitive rows with
# positive pivots, ordered by pivot, zero in every other row's pivot column.
# That form is unique, so its tuple of rows is the flat's key.


def _primitive(row: tuple[int, ...]) -> tuple[int, ...]:
    g = math.gcd(*row)
    return tuple(x // g for x in row) if g > 1 else row


def _distinct_planes(arr: Sequence[Hyperplane]) -> list[tuple[int, ...]]:
    """Primitive rows with the first nonzero normal entry positive, so a
    plane rescaled by any nonzero factor appears once."""
    out = {}
    for a, c in _int_rows(arr):
        row = _primitive((*a, c))
        if next(x for x in a if x) < 0:
            row = tuple(-x for x in row)
        out[row] = None
    return list(out)


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


def count_pieces(arr: Sequence[Hyperplane]) -> int:
    """Number of nonempty pieces cut by the arrangement.

    Flats are built breadth-first by rank: each is the meet of a flat one
    rank lower with a plane, and the planes that give the same meet are
    exactly the ones added to that flat's closure.  The count is the sum
    over flats X <= Y (Y contained in X) of |mu(X, Y)|, with mu from the
    recursion mu(Z, Y) = -sum_{Z < W <= Y} mu(W, Y).  Arrangements with
    piece_bound(m, k) > MAX_COUNT_BOUND raise ResourceBudgetError.
    """
    dim = _checked_dim(arr)
    m = len(arr)
    bound = piece_bound(m, min(dim, m))  # terms past j = m vanish
    if bound > MAX_COUNT_BOUND:
        raise ResourceBudgetError(
            f"arrangement m={m}, k={dim} may have {bound} pieces, beyond the "
            f"count budget of {MAX_COUNT_BOUND}"
        )
    planes = _distinct_planes(arr)
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


def piece_bound(m: int, k: int) -> int:
    """sum_{j=0..k} 2^j C(m, j): upper bound for the piece count."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1, k >= 1")
    return sum((1 << j) * math.comb(m, j) for j in range(k + 1))


def coarse_piece_bound(m: int, k: int) -> int:
    """(k+1) 2^k m^k, the coarse form of the bound."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1, k >= 1")
    return (k + 1) * (1 << k) * m ** k


def locate_block_pieces(
    points: Sequence[Sequence], arr: Sequence[Hyperplane]
) -> dict[SignVector, list[int]]:
    """Group point indices by the piece containing them."""
    groups: dict[SignVector, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault(classify_point(p, arr), []).append(i)
    return groups


# ---------------------------------------------------------------------------
# serialization


def load_arrangement_csv(path: str | Path) -> list[Hyperplane]:
    """One hyperplane per row: k (numerator, denominator) pairs, then the
    offset pair."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            nums = [int(v) for v in row]
            if len(nums) < 4 or len(nums) % 2:
                raise ValueError(
                    f"row needs k>=1 numerator/denominator pairs plus an "
                    f"offset pair, got {len(nums)} fields"
                )
            if 0 in nums[1::2]:
                raise ParseError(f"{path}: zero denominator in row {row}")
            pairs = [
                Fraction(nums[i], nums[i + 1]) for i in range(0, len(nums), 2)
            ]
            out.append(Hyperplane(tuple(pairs[:-1]), pairs[-1]))
    return out


def load_arrangement_json(path: str | Path) -> list[Hyperplane]:
    spec = json.loads(Path(path).read_text(encoding="utf-8"))
    out = []
    try:
        for entry in spec["hyperplanes"]:
            normal = tuple(Fraction(str(v)) for v in entry["normal"])
            out.append(Hyperplane(normal, Fraction(str(entry["offset"]))))
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: malformed arrangement ({exc!r})") from None
    return out


def count_report(arr: Sequence[Hyperplane]) -> dict:
    """{m, k, count, bound, attained} for an arrangement."""
    count = count_pieces(arr)  # rejects an empty arrangement
    m, k = len(arr), arr[0].dim
    bound = piece_bound(m, k)
    return {"m": m, "k": k, "count": count, "bound": bound,
            "attained": count == bound}
