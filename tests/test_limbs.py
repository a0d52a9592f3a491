"""The word and limb kernels against the object-array oracle
(`numerator_oracle`): numerators, floats, the indicator and the example-33
labels, bit for bit."""

import random
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import numerator_oracle as oracle
from mulab import _limbs, symbolic_blocks
from mulab.fixedpoint import SCALE, FixedReal
from mulab.phases import CHUNK, BracketPhase, PolyPhase, _ints
from mulab.symbolic_blocks import bracket_second_difference_labels, indicator_set

# mantissas: zero, all ones below 2^96 (and a 2^96 multiple of it), small,
# and anything up to the 192-bit width, of either sign
mantissas = st.one_of(
    st.sampled_from((0, SCALE - 1, -(SCALE - 1), SCALE, (SCALE - 1) << 96, 1, -1)),
    st.integers(-(1 << 100), 1 << 100),
    st.integers(-(1 << 190), 1 << 190),
)
fixed = st.builds(FixedReal, mantissas)
# starts at 0 and below it, and across 2^32, 2^64 and a CHUNK edge
starts = st.one_of(
    st.integers(-80, 80),
    st.integers((1 << 32) - 80, (1 << 32) + 80),
    st.integers((1 << 64) - 80, (1 << 64) + 80),
    st.integers(3 * CHUNK - 80, 3 * CHUNK + 80),
    st.integers(-(1 << 70), 1 << 70),
)
counts = st.integers(0, 120)


def limb_rows(values, k=3):
    """The (k, len(values)) uint64 limb array of the values mod 2^(32k)."""
    return np.array([_limbs.split(v, k) for v in values], dtype=np.uint64).T.copy()


def word_rows(values):
    """The (2, len(values)) uint64 word array of the values mod 2^96."""
    return np.array([((v >> 32) & ((1 << 64) - 1), v & 0xFFFFFFFF) for v in values],
                    dtype=np.uint64).T.copy()


def ints_of(limbs, count):
    """The ints that a list of limbs (arrays, or Python ints shared by every
    element) stands for, element by element."""
    rows = [np.broadcast_to(np.asarray(l, dtype=np.uint64), (count,)).tolist() for l in limbs]
    return [sum(r[i] << (32 * j) for j, r in enumerate(rows)) for i in range(count)]


def fixed_poly(coeffs):
    """A fixed-point PolyPhase even when every mantissa is a multiple of
    2^96 (FixedReal coefficients keep the unit 2^96)."""
    p = PolyPhase(coeffs)
    assert not p.rational
    return p


class TestNumerators:
    @given(st.lists(fixed, min_size=1, max_size=5), starts, counts)
    def test_poly_matches_object_horner(self, coeffs, start, count):
        p = fixed_poly(coeffs)
        want = oracle.poly_numerators(p, start, count)
        words = p._numerators(start, count)
        assert words.shape == (2, count) and words.dtype == np.uint64
        assert _ints(words).tolist() == want.tolist()
        unit, nums = p.frac_units(start, count)
        assert unit == SCALE and list(nums) == want.tolist()
        assert p.frac_chunk(start, count).tobytes() == oracle.frac_floats(want).tobytes()

    @given(st.lists(fixed, min_size=1, max_size=5), st.sampled_from((32, 64, 96)),
           st.booleans(), st.integers(1, 90), st.integers(1, 90),
           st.sampled_from((0, _limbs.BLOCK - 1)))
    def test_words_carry_across_2_32_2_64_and_2_96(self, coeffs, bits, negative,
                                                  before, after, pad):
        # n runs from `before` + `pad` below the edge (or below its negative)
        # to `after` past it, so n's high word takes a carry inside the
        # range, in the first block or, with pad, in the second
        edge = -(1 << bits) if negative else 1 << bits
        start, count = edge - before - pad, before + pad + after
        p = fixed_poly(coeffs)
        want = oracle.poly_numerators(p, start, count)
        assert _ints(p._numerators(start, count)).tolist() == want.tolist()
        assert p.frac_chunk(start, count).tobytes() == oracle.frac_floats(want).tobytes()

    @given(fixed, fixed, starts, counts)
    def test_bracket_matches_object_product(self, beta, alpha, start, count):
        b = BracketPhase(beta, alpha)
        want = oracle.bracket_numerators(b, start, count)
        assert _ints(b._numerators(start, count)).tolist() == want.tolist()
        assert list(b.frac_units(start, count)[1]) == want.tolist()
        assert b.frac_chunk(start, count).tobytes() == oracle.frac_floats(want).tobytes()

    def test_negative_starts_give_the_oracles_numerators(self):
        # n enters as n mod 2^96 (mod 2^192 for beta n), so n < 0 needs no
        # special case: the limbs agree with the Python ints there too
        p = PolyPhase([FixedReal(5), FixedReal(-(7 << 90)), FixedReal(SCALE - 1)])
        b = BracketPhase(FixedReal(-(3 << 95)), FixedReal(SCALE - 3))
        for phase, kernel in ((p, oracle.poly_numerators), (b, oracle.bracket_numerators)):
            want = kernel(phase, -CHUNK - 10, CHUNK + 20).tolist()
            assert _ints(phase._numerators(-CHUNK - 10, CHUNK + 20)).tolist() == want
            assert F(want[CHUNK + 9], SCALE) == oracle.frac(phase, -1)


class TestLimbArithmetic:
    @given(st.lists(st.integers(-(1 << 200), 1 << 200), min_size=1, max_size=30),
           st.integers(-(1 << 200), 1 << 200), st.integers(1, 6),
           st.integers(-(1 << 200), 1 << 200))
    def test_mul_add_sub_match_python_ints(self, xs, y, k, c):
        mod = 1 << (32 * k)
        a = list(limb_rows(xs, k))
        got = _limbs.mul(a, _limbs.split(y, k), k, _limbs.split(c, k))
        assert ints_of(got, len(xs)) == [(x * y + c) % mod for x in xs]
        assert ints_of(_limbs.mul(a, a, k), len(xs)) == [x * x % mod for x in xs]
        assert ints_of(_limbs.sub(a, _limbs.split(y, k)), len(xs)) == [(x - y) % mod for x in xs]

    @given(st.integers(-(1 << 100), 1 << 100), st.integers(0, 1 << 40), st.integers(1, 4))
    def test_arange_matches_python_ints(self, start, count_hi, k):
        count = count_hi % 300
        want = [(start + i) % (1 << (32 * k)) for i in range(count)]
        assert ints_of(_limbs.arange(start, count, k), count) == want

    def test_float_rounds_ties_and_near_ties_correctly(self):
        # at every leading-bit position from 2^53 up: exact halfway cases
        # (which round to even), one below and one above them
        rng = random.Random(96)
        values = [0, 1, SCALE - 1, (1 << 64) - 1, (1 << 64) - 1 << 32, ((1 << 64) - 1 << 32) | 0xFFFFFFFF]
        for top in range(53, 96):
            for _ in range(8):
                mant = (1 << 52) | rng.getrandbits(52)
                shift = top - 52
                half = 1 << (shift - 1)
                for extra in (half - 1, half, half + 1, 0, (1 << shift) - 1):
                    values.append((mant << shift) + extra)
        nums = np.array(values, dtype=object)
        got = _limbs.to_float(word_rows(values))
        assert got.tolist() == [v / SCALE for v in values]
        assert got.tobytes() == oracle.frac_floats(nums).tobytes()


# ---------------------------------------------------------------------------
# the consumers

def _same_indicator(p1, p2, P, tie_bits):
    seq, rep = indicator_set(p1, p2, P, tie_bits)
    want_seq, want_rep = oracle.indicator_set(p1, p2, P, tie_bits)
    assert seq.symbols.tobytes() == want_seq.symbols.tobytes()
    assert (rep.tie_count, rep.tie_positions) == (want_rep.tie_count, want_rep.tie_positions)
    return seq, rep


class TestIndicator:
    @pytest.mark.parametrize("tie_bits", [32, 64, 95])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_constant_phases_at_the_edge_of_the_tie_window(self, tie_bits, offset, sign):
        # mantissas gap - 1, gap and gap + 1 apart, either way round: a tie
        # exactly when they are less than gap = 2^(96 - tie_bits) apart
        gap = 1 << (96 - tie_bits)
        base = (SCALE >> 1) + 12345
        other = base + sign * (gap + offset)
        p1, p2 = PolyPhase([FixedReal(base)]), PolyPhase([FixedReal(other)])
        seq, rep = _same_indicator(p1, p2, 50, tie_bits)
        assert seq.symbols.tolist() == [int(base < other)] * 50
        assert rep.tie_count == (50 if gap + offset < gap else 0)

    @given(st.lists(fixed, min_size=1, max_size=3), st.lists(fixed, min_size=1, max_size=3),
           st.integers(1, 200), st.sampled_from((8, 32, 64, 95)), st.integers(1, 70))
    def test_matches_the_oracle(self, c1, c2, P, tie_bits, chunk):
        with mock.patch.object(symbolic_blocks, "CHUNK", chunk):
            _same_indicator(fixed_poly(c1), fixed_poly(c2), P, tie_bits)

    @given(st.builds(F, st.integers(-50, 50), st.integers(1, 30)), fixed,
           st.integers(1, 100), st.sampled_from((32, 64, 95)), st.booleans())
    def test_mixed_units_match_the_oracle(self, rational, fx, P, tie_bits, swap):
        pair = (PolyPhase([rational, F(1, 7)]), fixed_poly([fx, FixedReal(SCALE // 3)]))
        _same_indicator(*(pair[::-1] if swap else pair), P, tie_bits)

    def test_the_limb_rows_compare_like_their_ints(self):
        rng = random.Random(3)
        vals = [rng.getrandbits(rng.choice((8, 33, 65, 96))) for _ in range(60)]
        vals += [0, SCALE - 1, 1 << 64, (1 << 64) - 1, 1 << 32, 0, SCALE - 1]
        vals += vals[::-1][:5]
        a = word_rows(vals)
        b = a[:, ::-1].copy()
        less, equal = symbolic_blocks._order(a, b)
        assert less.tolist() == [x < y for x, y in zip(vals, vals[::-1])]
        assert equal.tolist() == [x == y for x, y in zip(vals, vals[::-1])]


class TestExample33:
    def test_labels_and_report_match_the_oracle(self):
        labels, rep = bracket_second_difference_labels(10 ** 5)
        want_labels, want_rep = oracle.bracket_second_difference_labels(10 ** 5)
        assert labels.symbols.tobytes() == want_labels.symbols.tobytes()
        assert rep == want_rep
