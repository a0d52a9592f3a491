"""Pieces of R^k cut by rational hyperplanes.

A piece is a nonempty intersection P_1 cap ... cap P_m with each P_j one of
{F_j > c_j}, {F_j < c_j}, {F_j = c_j}; equivalently a feasible sign vector
over {+1, -1, 0}, or a face of the arrangement.

`count_pieces` and `enumerate_pieces` both start from the intersection
lattice, the nonempty intersections (flats) of the distinct planes, and
solve no feasibility problem.  A flat is keyed by its closure, the set of
planes that contain it, and is made once.  A plane that meets a flat in
none of the children already made (from its other parents) is reduced once
against the flat's integer echelon rows, and each class of equal primitive
residuals is one new child, one rank up.  `count_pieces` sums |mu(X, Y)| over
pairs of flats X <= Y (Zaslavsky, "Facing up to arrangements", 1975), in
closed form, 2^rank(Y), when Y's closure holds rank(Y) planes and the
interval below it is Boolean; `enumerate_pieces` takes every split of a
region and every witness from it (the incremental construction of
Edelsbrunner, O'Rourke & Seidel, SIAM J. Comput. 1986), reading each
flat's meet with a plane from the lattice.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from ._util import DEFAULT_BUDGET_BYTES, over_lcm, read_json
from .errors import ParseError, ResourceBudgetError

SignVector = tuple[int, ...]

# digit order of sign vectors in enumeration output (ternary-counter order)
_DIGITS = {1: 0, -1: 1, 0: 2}

# enumerate_pieces budget: the largest m * piece_bound(m, k), the signs its
# output may hold, that it takes on.  On a 2-core Xeon VM, general position
# near the limit took 2-10 us and at most 280 B of tracemalloc peak per sign
# (m=315, k=1: 0.43-0.63 s, 19 B; m=13, k=4: 0.73-1.4 s, 114 B; m=9, k=9:
# 1.1-1.8 s, 272 B): 50-100 us per piece at k = 4.
MAX_ENUM_SIGNS = 200_000
# count_pieces budget: the largest piece_bound(m, k) it takes on.  On a
# 2-core Xeon VM general position takes under 1 us per unit of that bound
# (m=24, k=4: 0.14 s; m=16, k=5: 0.08 s).  Points on a line take 10 us per
# unit, and memory that grows as m^2 in their closure bitmasks (10,000,
# 20,000 and 40,000 points: 43, 70 and 163 MiB peak RSS), which the byte
# budget below bounds: 99,999 points, inside this bound, are refused there.
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
        return classify_point(point, [self])[0]


def hyperplane(normal: Iterable, offset) -> Hyperplane:
    return Hyperplane(tuple(Fraction(c) for c in normal), Fraction(offset))


def classify_point(point: Sequence, arr: Sequence[Hyperplane]) -> SignVector:
    """Sign of F_j(point) - c_j per hyperplane, exact."""
    return _classify(point, [(*a, c) for a, c in _int_rows(arr)])


def _classify(point: Sequence, rows) -> SignVector:
    """The signs of the integer rows (a, c) at the point, over one common
    denominator of its coordinates."""
    u, den = over_lcm(point)
    for row in rows:
        if len(row) != len(u) + 1:
            raise ValueError(f"point has dimension {len(u)}, hyperplane {len(row) - 1}")
    return _signs(rows, u, den)


def _value(row, u, den) -> int:
    """den (a.x - c) at x = u / den for the row (a, c); a.u when den = 0."""
    return sum(a * x for a, x in zip(row, u)) - row[-1] * den


def _signs(rows, u, den) -> SignVector:
    """Sign of a.x - c per row (a, c) at x = u / den, for den > 0."""
    return tuple((v > 0) - (v < 0) for v in (_value(row, u, den) for row in rows))


def _int_rows(arr: Sequence[Hyperplane]) -> list[tuple[tuple[int, ...], int]]:
    """Clear denominators per hyperplane: (a, c) ints with a.x = c the plane."""
    rows = [over_lcm((*h.normal, h.offset))[0] for h in arr]
    return [(tuple(row[:-1]), row[-1]) for row in rows]


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


# ---------------------------------------------------------------------------
# the intersection lattice
#
# A row (a_1, ..., a_k, c) stands for the plane a.x = c.  A flat is kept as
# an integer echelon form, a tuple of (pivot, row) pairs: its parent's pairs
# plus one residual row, each row primitive with a positive pivot (its first
# nonzero normal entry) and zero in the pivot columns of the rows before it.
# A flat's key is its closure, the bitmask of the distinct planes that
# contain it: a flat is the intersection of its closure, so no two share one.


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


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask >= 0, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _residual(plane, flat):
    """The plane's row less a combination of the flat's rows that clears
    every pivot column of the flat.  The rows are taken in order: each is
    zero in the pivot columns before its own, so a cleared column stays
    clear."""
    r = plane
    for p, row in flat:
        f = r[p]
        if f:
            e = row[p]
            r = tuple(e * x - f * y for x, y in zip(r, row))
    return r


def _lattice(planes, dim):
    """(flats, closure, meets) of the nonempty intersections of the planes,
    built breadth-first by rank, each flat made once; indices grow with rank.
    meets[x] maps each plane j that cuts flat x (neither contains it nor
    misses it) to the flat x cap plane j, one rank up.

    The children of a flat x of rank r come in three steps.
    * Known children first: the flats y of rank r + 1 made so far with
      closure[y] a superset of closure[x], which are the ones inside x since
      a flat is the intersection of its closure.  A plane in closure[y] but
      not closure[x] contains y and not x, so it meets x in a flat of rank
      r + 1 through y, which is y: its meet is y and it needs no reduction.
    * Every other plane outside closure[x] is reduced once against x's rows.
      A residual with a zero normal part is (0, ..., 0, c) with c nonzero,
      as the plane does not contain x, so the plane misses x: it is
      parallel to x.  Otherwise the residual is, up to scale, the one
      vector in the span of x's rows and the plane that is zero in x's
      pivot columns, so two planes meet x in the same flat exactly when
      their residuals have the same primitive, sign-normalised form.  Each
      such class G is one new child y: x's rows plus the residual.
    * closure[y] = closure[x] | G exactly.  A plane through y outside
      closure[x] meets x in y; were it in a known child's closure, y would
      be that child and not new, so it was reduced, and its residual is in
      y's class.
    """
    full = (1 << len(planes)) - 1
    flats = [()]
    closure = [0]
    meets = [{}]
    level = range(1)
    for rank in range(dim):  # a point, of rank dim, has no children
        start = len(flats)
        # per plane, bit y - start for each flat y of rank + 1 through it;
        # the root, alone at rank 0, has no known children
        holders = [0] * len(planes) if rank else None
        for x in level:
            flat, mine, children = flats[x], closure[x], meets[x]
            seen, through = mine, _bits(mine)
            if holders is not None:
                known = (1 << (len(flats) - start)) - 1
                for j in through:
                    known &= holders[j]
                for i in _bits(known):
                    y = start + i
                    for j in _bits(closure[y] & ~mine):
                        children[j] = y
                    seen |= closure[y]
            classes: dict[tuple, list[int]] = {}
            for j in _bits(full & ~seen):
                r = _residual(planes[j], flat)
                for q in range(dim):  # all zero: plane j is parallel to x
                    if r[q]:
                        key = (q, _primitive(r if r[q] > 0 else tuple(-c for c in r)))
                        classes.setdefault(key, []).append(j)
                        break
            for key, group in classes.items():
                y = len(flats)
                flats.append((*flat, key))
                meets.append({})
                bits = mine
                for j in group:
                    children[j] = y
                    bits |= 1 << j
                closure.append(bits)
                if holders is not None:
                    for j in through + group:
                        holders[j] |= 1 << (y - start)
        level = range(start, len(flats))
    return flats, closure, meets


def count_pieces(arr: Sequence[Hyperplane]) -> int:
    """Number of nonempty pieces cut by the arrangement: the sum over flats
    X <= Y (Y contained in X) of |mu(X, Y)|.  A flat Y whose closure holds
    exactly rank(Y) planes has independent normals, so the flats X <= Y are
    the intersections of the subsets of its closure, a Boolean lattice, and
    its term is 2^rank(Y).  Any other Y takes mu from the recursion
    mu(Z, Y) = -sum_{Z < W <= Y} mu(W, Y).  Arrangements with
    piece_bound(m, k) > MAX_COUNT_BOUND raise ResourceBudgetError, and so
    do those whose closure bitmasks could exceed DEFAULT_BUDGET_BYTES: at
    most sum_{r <= k} C(m, r) flats, one per set of r independent planes,
    at ceil(m/8) bytes each.
    """
    dim = _checked_dim(arr)
    m = len(arr)
    bound = piece_bound(m, min(dim, m))  # terms past j = m vanish
    if bound > MAX_COUNT_BOUND:
        raise ResourceBudgetError(
            f"arrangement m={m}, k={dim} may have {bound} pieces, beyond the "
            f"count budget of {MAX_COUNT_BOUND}"
        )
    flats = sum(math.comb(m, r) for r in range(min(dim, m) + 1))
    need = flats * -(-m // 8)
    if need > DEFAULT_BUDGET_BYTES:
        raise ResourceBudgetError(
            f"arrangement m={m}, k={dim} may have {flats} flats, whose closure "
            f"bitmasks need about {need} bytes ({-(-m // 8)} per flat), over "
            f"the {DEFAULT_BUDGET_BYTES}-byte budget"
        )
    flats, closure, meets = _lattice(_distinct_planes(arr), dim)
    total = 0
    below = None  # below[y]: the flats containing y, y itself included
    for y, flat in enumerate(flats):
        if closure[y].bit_count() == len(flat):
            total += 1 << len(flat)
            continue
        if below is None:
            below = [{x} for x in range(len(flats))]
            for x, children in enumerate(meets):  # parents before children
                for z in set(children.values()):
                    below[z] |= below[x]
        acc = dict.fromkeys(below[y], 0)
        acc[y] = 1
        for w in sorted(below[y], reverse=True):  # every W > Z comes before Z
            mu = acc[w]
            total += abs(mu)
            for z in below[w]:
                if z != w:
                    acc[z] -= mu
    return total


# ---------------------------------------------------------------------------
# enumeration over the lattice


@dataclass
class PieceEnumeration:
    sign_vectors: list[SignVector]  # ternary-counter order: +, -, 0 per digit
    witnesses: list[tuple[Fraction, ...]]

    @property
    def count(self) -> int:
        return len(self.sign_vectors)


def _reduced(flat):
    """(pivots, rows) of a flat's integer reduced echelon form: its echelon
    rows with each pivot column cleared in every other row, each row
    primitive with a positive pivot, ordered by pivot.  That form is unique,
    so a frame does not depend on the order the rows were found in."""
    out = []
    for q, r in flat:
        e = r[q]
        out = [(p, _primitive(tuple(e * x - row[q] * y for x, y in zip(row, r)))
                if row[q] else row) for p, row in out]
        out.append((q, r))
    out.sort()
    return tuple(p for p, _ in out), tuple(row for _, row in out)


def _frame(flat, dim):
    """((u, den), directions) of a flat, from the null space of the rows
    (a, c) of its reduced echelon form: one integer vector v per free column
    f, v_f = den the lcm of the pivots.  f < dim gives a direction, f = dim
    the point -v / den."""
    pivots, rows = _reduced(flat)
    den = math.lcm(*(row[p] for p, row in zip(pivots, rows)))
    null = []
    for f in range(dim + 1):
        if f not in pivots:
            v = [0] * (dim + 1)
            v[f] = den
            for p, row in zip(pivots, rows):
                v[p] = -row[f] * den // row[p]
            null.append(tuple(v[:dim]))
    return (tuple(-c for c in null.pop()), den), null


def enumerate_pieces(arr: Sequence[Hyperplane]) -> PieceEnumeration:
    """All nonempty pieces as sign vectors with exact witness points.

    A piece is an open region of the flat it spans.  For each plane H in
    turn and each flat X, a plane containing X gives X's regions the sign
    0, and a plane parallel to X the side of their witness.  Otherwise a
    region R of X meets H exactly when Y = X cap H has a region with R's
    sign vector; that witness y lies in R, and y +/- t d, for a direction d
    of X across H and t = min(1, half of |v_i(y)| / |v_i(d)| over the
    planes i cutting X), are the witnesses of R's two sides.  Y comes after
    X in the lattice, so it still holds the regions of the planes before H.
    Arrangements with m piece_bound(m, k) > MAX_ENUM_SIGNS raise
    ResourceBudgetError.
    """
    dim = _checked_dim(arr)
    m = len(arr)
    bound = piece_bound(m, min(dim, m))
    if m * bound > MAX_ENUM_SIGNS:
        raise ResourceBudgetError(
            f"arrangement m={m}, k={dim} may have piece_bound({m}, {dim}) = "
            f"{bound} pieces of {m} signs, {m * bound} signs in all, beyond "
            f"the enumeration budget of {MAX_ENUM_SIGNS}"
        )
    planes = _distinct_planes(arr)
    flats, closure, meets = _lattice(planes, dim)
    frames = [_frame(flat, dim) for flat in flats]
    # flat -> {(bitmask of + planes, bitmask of - planes): witness (u, den)};
    # before any plane, a flat is its one region
    regions = [{(0, 0): point} for point, _ in frames]
    for j, plane in enumerate(planes):
        bit = 1 << j
        for x, children in enumerate(meets):
            if closure[x] & bit:
                continue  # sign 0 sets no bit
            y = children.get(j)
            split = {}
            if y is not None:  # the plane cuts X in the flat Y
                split = regions[y]
                d = next(d for d in frames[x][1] if _value(plane, d, 0))
                if _value(plane, d, 0) < 0:
                    d = tuple(-c for c in d)
                # the earlier planes that cut X, whose signs y +/- t d keeps
                active = [(row, 2 * abs(g)) for row in planes[:j]
                          if (g := _value(row, d, 0))]
            out = {}
            for (pos, neg), w in regions[x].items():
                y = split.get((pos, neg))
                if y is None:
                    side = _value(plane, *w) > 0
                    out[(pos | bit, neg) if side else (pos, neg | bit)] = w
                    continue
                u, den = y
                p, q = den, 1  # t den = p / q
                for row, g in active:
                    v = abs(_value(row, u, den))
                    if v * q < g * p:
                        p, q = v, g
                for key, sign in (((pos | bit, neg), 1), ((pos, neg | bit), -1)):
                    num = [q * a + sign * p * b for a, b in zip(u, d)]
                    common = math.gcd(*num, q * den)
                    out[key] = (tuple(c // common for c in num), q * den // common)
            regions[x] = out
    given = [(*a, c) for a, c in _int_rows(arr)]  # duplicates included
    pieces = []
    for flat in regions:
        for u, den in flat.values():
            pieces.append((_signs(given, u, den), tuple(Fraction(c, den) for c in u)))
    pieces.sort(key=lambda sw: tuple(_DIGITS[s] for s in sw[0]))
    return PieceEnumeration([s for s, _ in pieces], [w for _, w in pieces])


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
    rows = [(*a, c) for a, c in _int_rows(arr)]
    groups: dict[SignVector, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault(_classify(p, rows), []).append(i)
    return groups


# ---------------------------------------------------------------------------
# serialization


def load_arrangement_csv(path: str | Path) -> list[Hyperplane]:
    """One hyperplane per row: k (numerator, denominator) pairs, then the
    offset pair."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row or row[0].lstrip().startswith("#"):
                continue
            where = f"{path}: row {rows.line_num}"
            try:
                nums = [int(v) for v in row]
            except ValueError:
                raise ParseError(f"{where} holds a field that is not an integer: "
                                 f"{row}") from None
            if len(nums) < 4 or len(nums) % 2:
                raise ParseError(
                    f"{where} needs k>=1 numerator/denominator pairs plus an "
                    f"offset pair, got {len(nums)} fields"
                )
            if 0 in nums[1::2]:
                raise ParseError(f"{where} has a zero denominator: {row}")
            pairs = [
                Fraction(nums[i], nums[i + 1]) for i in range(0, len(nums), 2)
            ]
            out.append(Hyperplane(tuple(pairs[:-1]), pairs[-1]))
    return out


def load_arrangement_json(path: str | Path) -> list[Hyperplane]:
    spec = read_json(path)
    out, field = [], "'hyperplanes'"
    try:
        for i, entry in enumerate(spec["hyperplanes"]):
            field = f"hyperplanes[{i}].offset"
            offset = Fraction(str(entry["offset"]))
            field = f"hyperplanes[{i}].normal"  # a zero normal fails here too
            if not isinstance(entry["normal"], list):
                raise TypeError("normal must be a JSON list")
            normal = tuple(Fraction(str(v)) for v in entry["normal"])
            out.append(Hyperplane(normal, offset))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: malformed arrangement at {field} ({exc!r})") from None
    return out


def count_report(arr: Sequence[Hyperplane]) -> dict:
    """{m, k, count, bound, attained} for an arrangement."""
    count = count_pieces(arr)  # rejects an empty arrangement
    m, k = len(arr), arr[0].dim
    bound = piece_bound(m, k)
    return {"m": m, "k": k, "count": count, "bound": bound,
            "attained": count == bound}
