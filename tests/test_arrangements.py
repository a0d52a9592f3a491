"""Piece enumeration: fixed examples with known counts, witness-certified
random arrangements, the counting bound and its recursion, exact
classification, the lattice count and enumeration against the
Fourier-Motzkin oracle, and the lattice against the one it replaced."""

import hashlib
import inspect
import json
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lattice_oracle
import mulab.arrangements
from fm_oracle import fm_oracle
from mulab.errors import ResourceBudgetError
from mulab.arrangements import (
    MAX_COUNT_BOUND,
    MAX_ENUM_SIGNS,
    Hyperplane,
    classify_point,
    coarse_piece_bound,
    count_pieces,
    count_report,
    enumerate_pieces,
    hyperplane,
    load_arrangement_csv,
    load_arrangement_json,
    locate_block_pieces,
    piece_bound,
)


def rand_arrangement(rng, m, k, span=9):
    planes = []
    for _ in range(m):
        while True:
            normal = tuple(
                F(rng.randrange(-span, span + 1), rng.randrange(1, 5))
                for _ in range(k)
            )
            if any(normal):
                break
        planes.append(
            Hyperplane(normal, F(rng.randrange(-span, span + 1), rng.randrange(1, 5)))
        )
    return planes


class TestClassify:
    def test_on_plane_and_above(self):
        arr = [hyperplane((1, 0), 0), hyperplane((0, 1), -1)]
        assert classify_point((0, 5), arr) == (0, 1)

    def test_origin_below_shifted_plane(self):
        assert classify_point((0,), [hyperplane((1,), 1)]) == (-1,)

    def test_matches_direct_form_evaluation(self):
        rng = random.Random(67)
        for _ in range(50):
            k = rng.randrange(1, 4)
            arr = rand_arrangement(rng, rng.randrange(1, 5), k)
            pt = tuple(F(rng.randrange(-20, 21), rng.randrange(1, 7))
                       for _ in range(k))
            got = classify_point(pt, arr)
            for h, s in zip(arr, got):
                v = sum(a * x for a, x in zip(h.normal, pt)) - h.offset
                assert s == (v > 0) - (v < 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classify_point((1, 2, 3), [hyperplane((1, 0), 0)])


class TestFixedCounts:
    def test_single_hyperplane_any_dim(self):
        for k in (1, 2, 3, 4):
            normal = tuple([1] + [0] * (k - 1))
            assert count_pieces([hyperplane(normal, 5)]) == 3

    def test_two_points_on_line(self):
        arr = [hyperplane((1,), 0), hyperplane((1,), 1)]
        assert count_pieces(arr) == 5  # 3 open intervals + 2 points

    def test_two_crossing_lines(self):
        arr = [hyperplane((1, 0), 0), hyperplane((0, 1), 0)]
        rep = count_report(arr)
        assert rep == {"m": 2, "k": 2, "count": 9, "bound": 9,
                       "attained": True}

    def test_parallel_lines_below_bound(self):
        arr = [hyperplane((1, 0), 0), hyperplane((1, 0), 1)]
        assert count_pieces(arr) == 5 < piece_bound(2, 2)

    def test_duplicate_hyperplanes_accepted(self):
        arr = [hyperplane((1, 1), 1), hyperplane((1, 1), 1)]
        assert count_pieces(arr) == 3  # signs forced to correlate


class TestEnumeration:
    def test_witnesses_classify_to_their_sign_vectors(self):
        rng = random.Random(71)
        for _ in range(10):
            arr = rand_arrangement(rng, rng.randrange(2, 7), rng.randrange(1, 4))
            en = enumerate_pieces(arr)
            assert len(set(en.sign_vectors)) == en.count
            for sv, w in zip(en.sign_vectors, en.witnesses):
                assert classify_point(w, arr) == sv

    def test_output_is_ternary_sorted(self):
        arr = [hyperplane((1, 0), 0), hyperplane((0, 1), 0)]
        en = enumerate_pieces(arr)
        digit = {1: 0, -1: 1, 0: 2}
        keys = [tuple(digit[s] for s in sv) for sv in en.sign_vectors]
        assert keys == sorted(keys)

    def test_random_below_bound(self):
        rng = random.Random(73)
        for _ in range(40):
            k = rng.randrange(1, 4)
            m = rng.randrange(1, 9)
            arr = rand_arrangement(rng, m, k)
            assert count_pieces(arr) <= piece_bound(m, k)

    def test_generic_attains_bound(self):
        # wide random coefficients land in general position; verified seeds
        rng = random.Random(79)
        for m, k in ((2, 2), (4, 2), (6, 3), (5, 3)):
            arr = rand_arrangement(rng, m, k, span=999)
            assert count_pieces(arr) == piece_bound(m, k)

    def test_budget_error(self):
        # piece_bound(25, 4) = 222051 is just past MAX_COUNT_BOUND (m = 24
        # gives 187361); normals on the moment curve, in general position
        assert piece_bound(24, 4) <= MAX_COUNT_BOUND < piece_bound(25, 4)
        arr = [hyperplane((1, i, i * i, i ** 3), i ** 4) for i in range(25)]
        with pytest.raises(ResourceBudgetError):
            count_pieces(arr)

    def test_enumeration_budget_is_fixed(self):
        assert list(inspect.signature(enumerate_pieces).parameters) == ["arr"]
        # m = 13 and k = 5 both lie past the cap of the Fourier-Motzkin era
        for arr in ([hyperplane((1,), i) for i in range(13)],
                    [hyperplane((1,) * 5, 0)]):
            en = enumerate_pieces(arr)
            assert en.count == count_pieces(arr) == piece_bound(len(arr), 1)
            for sv, w in zip(en.sign_vectors, en.witnesses):
                assert classify_point(w, arr) == sv

    @pytest.mark.parametrize("m,k,bound", [(13, 1, 27), (1, 5, 3), (13, 5, 55_251),
                                           (316, 1, 633)])
    def test_enumeration_budget_error_states_the_need(self, monkeypatch, m, k, bound):
        # the budget counts the m * piece_bound(m, k) signs of the output;
        # 316 points on a line, 200,028 signs, are the first past the limit
        assert piece_bound(m, k) == bound
        assert 315 * piece_bound(315, 1) <= MAX_ENUM_SIGNS < 316 * 633
        limit = min(MAX_ENUM_SIGNS, m * bound - 1)
        monkeypatch.setattr(mulab.arrangements, "MAX_ENUM_SIGNS", limit)
        arr = [hyperplane((1,) * (k - 1) + (i + 1,), i) for i in range(m)]
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError,
                           match=rf"m={m}, k={k} may have piece_bound\({m}, {k}\) = "
                                 rf"{bound} pieces of {m} signs, {m * bound} signs in "
                                 rf"all, beyond the enumeration budget of {limit}$"):
            enumerate_pieces(arr)
        assert time.perf_counter() - start < 1.0


class TestBound:
    def test_examples(self):
        assert piece_bound(2, 1) == 5
        assert piece_bound(2, 2) == 9
        for k in (1, 2, 3, 5):
            assert piece_bound(1, k) == 3

    def test_recursion(self):
        for m in range(2, 31):
            for k in range(2, m):
                assert piece_bound(m, k) == piece_bound(m - 1, k) \
                    + 2 * piece_bound(m - 1, k - 1)

    def test_coarse_dominates(self):
        for m in range(1, 20):
            for k in range(1, 5):
                assert coarse_piece_bound(m, k) >= piece_bound(m, k)


class TestConvexity:
    def test_midpoint_stays_in_open_piece(self):
        rng = random.Random(83)
        arr = rand_arrangement(rng, 5, 2)
        buckets = {}
        for _ in range(300):
            pt = tuple(F(rng.randrange(-40, 41), rng.randrange(1, 9))
                       for _ in range(2))
            sv = classify_point(pt, arr)
            if 0 in sv:
                continue
            buckets.setdefault(sv, []).append(pt)
        checked = 0
        for sv, pts in buckets.items():
            for a, b in zip(pts, pts[1:]):
                mid = tuple((x + y) / 2 for x, y in zip(a, b))
                assert classify_point(mid, arr) == sv
                checked += 1
        assert checked > 10


class TestLocate:
    def test_straddling_points_split(self):
        arr = [hyperplane((1,), 0)]
        groups = locate_block_pieces([(-1,), (1,)], arr)
        assert groups == {(-1,): [0], (1,): [1]}

    def test_identical_points_group(self):
        arr = [hyperplane((1, 1), 0)]
        groups = locate_block_pieces([(1, 1), (1, 1), (1, 1)], arr)
        assert list(groups.values()) == [[0, 1, 2]]

    def test_matches_pairwise_classification(self):
        rng = random.Random(89)
        arr = rand_arrangement(rng, 4, 3)
        pts = [tuple(F(rng.randrange(-9, 10), rng.randrange(1, 4))
                     for _ in range(3)) for _ in range(40)]
        groups = locate_block_pieces(pts, arr)
        for sv, idxs in groups.items():
            for i in idxs:
                assert classify_point(pts[i], arr) == sv


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "two_lines.csv"
        path.write_text("1,1,0,1,0,1\n0,1,1,1,0,1\n")
        arr = load_arrangement_csv(path)
        assert count_pieces(arr) == 9

    def test_csv_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            load_arrangement_csv(path)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({
            "hyperplanes": [
                {"normal": ["1", "0"], "offset": "0"},
                {"normal": ["0", "1/2"], "offset": "1/3"},
            ]
        }))
        arr = load_arrangement_json(path)
        assert count_pieces(arr) == 9


# ---------------------------------------------------------------------------
# the lattice count and enumeration against the Fourier-Motzkin oracle


def degenerate_arrangement(rng, m, k, kind):
    """m planes in R^k with small coefficients, shaped by `kind`:
    'duplicate' repeats planes exactly, 'negated' repeats them scaled by a
    negative factor, 'parallel' adds rescaled copies with shifted offsets,
    'central' puts every plane through the origin, 'cylinder' leaves one
    coordinate out."""
    skip = rng.randrange(k) if kind == "cylinder" and k > 1 else None
    normals, offsets = [], []
    while len(normals) < m:
        if normals and kind in ("duplicate", "negated", "parallel") \
                and rng.random() < 0.5:
            i = rng.randrange(len(normals))
            scale = F(rng.choice((-3, -1, F(-1, 2)))) if kind == "negated" \
                else F(rng.choice((1, 2, F(1, 3))))
            normals.append(tuple(scale * a for a in normals[i]))
            offsets.append(scale * offsets[i] + (rng.randrange(1, 4)
                                                 if kind == "parallel" else 0))
            continue
        normal = tuple(0 if j == skip else rng.randrange(-2, 3)
                       for j in range(k))
        if any(normal):
            normals.append(normal)
            offsets.append(0 if kind == "central"
                           else F(rng.randrange(-3, 4), rng.randrange(1, 3)))
    return [hyperplane(n, c) for n, c in zip(normals, offsets)]


KINDS = ("duplicate", "negated", "parallel", "central", "cylinder")


def assert_matches_oracle(arr):
    """The enumeration gives the oracle's sign vectors in its order, every
    witness classifies to its sign vector, and the count agrees."""
    en = enumerate_pieces(arr)
    assert en.sign_vectors == fm_oracle(arr).sign_vectors, arr
    assert [classify_point(w, arr) for w in en.witnesses] == en.sign_vectors
    assert count_pieces(arr) == en.count


def fraction_signs(point, arr):
    """The sign of F(point) - c per plane, evaluated in Fraction arithmetic."""
    out = []
    for h in arr:
        v = sum(a * F(x) for a, x in zip(h.normal, point)) - h.offset
        out.append((v > 0) - (v < 0))
    return tuple(out)


class TestIntegerSigns:
    """classify_point, Hyperplane.side and locate_block_pieces take their
    signs from the integer rows; they match the Fraction evaluation."""

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_degenerate_families(self, k):
        rng = random.Random(31 + k)
        for m in range(1, 7):
            for kind in KINDS:
                arr = degenerate_arrangement(rng, m, k, kind)
                points = enumerate_pieces(arr).witnesses  # on planes too
                points += [tuple(F(rng.randrange(-9, 10), rng.randrange(1, 9))
                                 for _ in range(k)) for _ in range(10)]
                for pt in points:
                    want = fraction_signs(pt, arr)
                    assert classify_point(pt, arr) == want
                    assert tuple(h.side(pt) for h in arr) == want
                groups = locate_block_pieces(points, arr)
                assert groups == locate_block_pieces_by_fractions(points, arr)

    @given(st.integers(1, 4), st.integers(1, 7), st.integers(0, 2 ** 32 - 1),
           st.lists(st.builds(F, st.integers(-99, 99), st.integers(1, 50)),
                    min_size=4, max_size=4))
    def test_hypothesis_draws(self, k, m, seed, coords):
        arr = rand_arrangement(random.Random(seed), m, k, span=4)
        pt = tuple(coords[:k])
        assert classify_point(pt, arr) == fraction_signs(pt, arr)
        # and a point on the first plane, where a sign is 0
        h = arr[0]
        j = next(i for i, a in enumerate(h.normal) if a)
        on = list(pt)
        on[j] = (h.offset - sum(a * x for i, (a, x) in enumerate(zip(h.normal, pt)) if i != j)) / h.normal[j]
        assert classify_point(on, arr)[0] == 0
        assert classify_point(on, arr) == fraction_signs(on, arr)

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.lists(st.builds(F, st.integers(-10 ** 6, 10 ** 6).filter(bool),
                              st.integers(1, 10 ** 6)), min_size=6, max_size=6),
           st.lists(st.builds(F, st.integers(-99, 99), st.integers(1, 10 ** 12)),
                    min_size=4, max_size=4))
    def test_rows_and_signs_unchanged_on_rescaled_planes(self, k, m, seed, factors, coords):
        arr = rand_arrangement(random.Random(seed), m, k, span=4)
        scaled = [Hyperplane(tuple(r * a for a in h.normal), r * h.offset)
                  for h, r in zip(arr, factors)]
        assert mulab.arrangements._int_rows(scaled) == per_plane_lcm_rows(scaled)
        pt = tuple(coords[:k])
        flips = [1 if r > 0 else -1 for r in factors]
        assert classify_point(pt, scaled) == fraction_signs(pt, scaled) == tuple(
            s * f for s, f in zip(fraction_signs(pt, arr), flips))

    def test_mixed_dimensions_and_ints(self):
        with pytest.raises(ValueError, match="dimension"):
            classify_point((1, 2), [hyperplane((1, 0), 0), hyperplane((1, 0, 0), 0)])
        assert classify_point((), []) == ()
        assert classify_point((3, F(1, 2)), [Hyperplane((1, 2), 4)]) == (0,)


def per_plane_lcm_rows(arr):
    """(a, c) per plane: its Fractions times the lcm of their denominators."""
    rows = []
    for h in arr:
        scale = math.lcm(*(f.denominator for f in (*h.normal, h.offset)))
        rows.append((tuple(f.numerator * (scale // f.denominator) for f in h.normal),
                     h.offset.numerator * (scale // h.offset.denominator)))
    return rows


def locate_block_pieces_by_fractions(points, arr):
    groups = {}
    for i, p in enumerate(points):
        groups.setdefault(fraction_signs(p, arr), []).append(i)
    return groups


class TestLatticeCount:
    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_matches_enumeration_on_degenerate_families(self, k):
        rng = random.Random(97 + k)
        for m in range(1, 9):
            for kind in KINDS:
                assert_matches_oracle(degenerate_arrangement(rng, m, k, kind))

    def test_plane_repeated_with_negative_scale_counts_once(self):
        arr = [hyperplane((1, -2), F(1, 3)), hyperplane((-3, 6), -1)]
        assert count_pieces(arr) == count_pieces(arr[:1]) == 3

    def test_general_position_at_the_budget(self):
        # the lattice count takes a fraction of a second; the bound leaves
        # room for slow hosts
        rng = random.Random(5)
        arr = [hyperplane([rng.randrange(-999, 1000) for _ in range(4)],
                          rng.randrange(-999, 1000)) for _ in range(12)]
        start = time.perf_counter()
        assert count_pieces(arr) == piece_bound(12, 4) == 9969
        assert time.perf_counter() - start < 10.0

    def test_general_position_at_the_count_budget(self):
        # m = 24, k = 4 is the largest general position within
        # MAX_COUNT_BOUND at k = 4; it counts in about 0.14 s on a 2-core
        # Xeon VM, and the bound leaves room for slow hosts
        rng = random.Random(5)
        arr = [hyperplane([rng.randrange(-999, 1000) for _ in range(4)],
                          rng.randrange(-999, 1000)) for _ in range(24)]
        start = time.perf_counter()
        assert count_pieces(arr) == piece_bound(24, 4) == 187_361 <= MAX_COUNT_BOUND
        assert time.perf_counter() - start < 5.0

    def test_closure_bitmasks_over_the_byte_budget_are_refused_at_once(self):
        # 99,999 points on a line are inside MAX_COUNT_BOUND, but their
        # 100,000 flats at 12,500 bytes of closure each are not inside the
        # byte budget (they took 750 MiB of RSS before it)
        m = 99_999
        assert piece_bound(m, 1) <= MAX_COUNT_BOUND
        arr = [hyperplane((1,), i) for i in range(m)]
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError,
                           match=rf"m={m}, k=1 may have {m + 1} flats, whose closure "
                                 rf"bitmasks need about {(m + 1) * 12_500} bytes "
                                 rf"\(12500 per flat\), over the {1 << 29}-byte budget$"):
            count_pieces(arr)
        assert time.perf_counter() - start < 1.0

    def test_points_within_the_byte_budget_still_count(self):
        arr = [hyperplane((1,), i) for i in range(40_000)]
        assert count_pieces(arr) == 80_001

    def test_input_errors_kept(self, monkeypatch):
        for pieces in (count_pieces, enumerate_pieces):
            with pytest.raises(ValueError):
                pieces([])
            with pytest.raises(ValueError):
                pieces([hyperplane((1,), 0), hyperplane((1, 0), 0)])
        # k = 5 is within both budgets
        assert count_pieces([hyperplane((1,) * 5, 0)]) == 3
        assert enumerate_pieces([hyperplane((1,) * 5, 0)]).count == 3

        monkeypatch.setattr(mulab.arrangements, "MAX_COUNT_BOUND", 18)
        with pytest.raises(ResourceBudgetError):  # piece_bound(3, 2) = 19
            count_pieces([hyperplane((1, 0), 0)] * 3)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_enumeration_on_random_arrangements(self, data):
        k = data.draw(st.integers(1, 4), label="k")
        m = data.draw(st.integers(1, 6 if k == 4 else 8), label="m")
        kind = data.draw(st.sampled_from(KINDS + ("random",)), label="kind")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = random.Random(seed)
        assert_matches_oracle(rand_arrangement(rng, m, k, span=3) if kind == "random"
                              else degenerate_arrangement(rng, m, k, kind))

    def test_general_position_enumeration(self):
        # wide random coefficients land in general position; the
        # Fourier-Motzkin oracle is too slow at this size
        rng = random.Random(5)
        arr = [hyperplane([rng.randrange(-999, 1000) for _ in range(4)],
                          rng.randrange(-999, 1000)) for _ in range(8)]
        en = enumerate_pieces(arr)
        assert en.count == count_pieces(arr) == piece_bound(8, 4) == 1697
        for sv, w in zip(en.sign_vectors, en.witnesses):
            assert classify_point(w, arr) == sv


# ---------------------------------------------------------------------------
# the lattice against the one it replaced, and the enumeration against its
# frozen output


def pencil(rng, m, k):
    """1 <= m <= 12 distinct planes in R^k, k >= 2, through one flat of
    codimension 2: the combinations s A + t B of two rows with independent
    normals, for pairwise independent (s, t).  With m >= 3, that flat is
    the only one of rank >= 2, and its closure holds all m planes."""
    while True:
        a, b = ([rng.randrange(-3, 4) for _ in range(k)] for _ in range(2))
        if any(x * y2 != y * x2 for x, y in zip(a, b) for x2, y2 in zip(a, b)):
            break
    ca, cb = rng.randrange(-3, 4), rng.randrange(-3, 4)
    weights = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2),
               (3, 1), (1, 3), (3, -1), (1, -3)]
    rng.shuffle(weights)
    return [hyperplane([s * x + t * y for x, y in zip(a, b)], s * ca + t * cb)
            for s, t in weights[:m]]


def assert_matches_old_lattice(arr):
    """The same count, the same flats (closure and reduced echelon form)
    and, for every flat and every plane outside its closure, the same meet
    as the lattice that `lattice_oracle` keeps."""
    A = mulab.arrangements
    assert count_pieces(arr) == lattice_oracle.count_pieces(arr), arr
    planes, dim = A._distinct_planes(arr), A._checked_dim(arr)
    flats, closure, meets = A._lattice(planes, dim)
    assert len(set(closure)) == len(flats)
    old = lattice_oracle.flats_by_closure(arr)
    assert {c: A._reduced(f) for c, f in zip(closure, flats)} == old
    for x, (flat, mine) in enumerate(zip(flats, closure)):
        pivots, rows = old[mine]
        for j, plane in enumerate(planes):
            if mine >> j & 1:
                assert j not in meets[x]
                continue
            meet = None if len(rows) == dim else lattice_oracle._meet(pivots, rows, plane, dim)
            y = meets[x].get(j)
            assert (meet is None) == (y is None)
            if y is not None:
                assert A._reduced(flats[y]) == meet
                assert closure[y] & mine == mine and closure[y] >> j & 1


class TestLatticeOracle:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_the_old_lattice(self, data):
        kind = data.draw(st.sampled_from(KINDS + ("general", "pencil")), label="kind")
        k = data.draw(st.integers(2 if kind == "pencil" else 1, 4), label="k")
        m = data.draw(st.integers(1, 12 if kind == "pencil" else 10), label="m")
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        if kind == "general":  # wide coefficients land in general position
            arr = rand_arrangement(rng, m, k, span=999)
        elif kind == "pencil":
            arr = pencil(rng, m, k)
        else:
            arr = degenerate_arrangement(rng, m, k, kind)
        assert_matches_old_lattice(arr)

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_every_kind_up_to_ten_planes(self, k):
        rng = random.Random(113 + k)
        for m in range(1, 11):
            assert_matches_old_lattice(rand_arrangement(rng, m, k, span=999))
            for kind in KINDS:
                assert_matches_old_lattice(degenerate_arrangement(rng, m, k, kind))
            if k > 1:
                assert_matches_old_lattice(pencil(rng, m, k))

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_pencils_are_not_simple(self, k):
        # m planes through one flat of codimension 2: 2m open pieces, 2m
        # pieces on one plane only and the flat itself; the one flat of rank
        # 2 holds m planes, so the count runs the Moebius recursion
        rng = random.Random(41 + k)
        A = mulab.arrangements
        for m in range(3, 13):
            arr = pencil(rng, m, k)
            flats, closure, _ = A._lattice(A._distinct_planes(arr), k)
            assert [len(f) for f in flats] == [0] + [1] * m + [2]
            assert closure[-1].bit_count() == m > 2
            assert count_pieces(arr) == 4 * m + 1
            assert_matches_old_lattice(arr)


FROZEN_ENUMERATION = Path(__file__).with_name("enumerate_pieces_frozen.json")


def frozen_cases():
    """(name, arrangement) for each kind of `degenerate_arrangement`, m <= 6
    and k <= 4, from one seeded stream."""
    rng = random.Random(2029)
    for k in (1, 2, 3, 4):
        for m in range(1, 7):
            for kind in KINDS:
                yield f"{kind} m={m} k={k}", degenerate_arrangement(rng, m, k, kind)


def enumeration_digest(en):
    text = repr((en.sign_vectors, en.witnesses))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_enumeration_output_is_frozen():
    """Sign vectors and witnesses, down to each Fraction, as digests of the
    output of the enumeration before the lattice was keyed by closure."""
    want = json.loads(FROZEN_ENUMERATION.read_text())
    assert {name: enumeration_digest(enumerate_pieces(arr))
            for name, arr in frozen_cases()} == want
