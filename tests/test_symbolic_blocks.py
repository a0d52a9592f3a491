"""Block families (against a second, independent scan), the quantizer cell
property, the comparison-set indicator (against a high-precision oracle),
and the bracket-phase second-difference labels."""

import math
import random
import re
import time
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import block_count_oracle
import mpmath
import numerator_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mulab import _limbs, symbolic_blocks
from mulab.errors import PrecisionError, ResourceBudgetError, WindowTooShortError
from mulab.fixedpoint import SCALE, FixedReal, sqrt_const
from mulab.phases import (
    BracketPhase, ConcatPhase, PolyPhase, PowerPhase, TablePhase, frac_rep, parse_phase,
)
from mulab.symbolic_blocks import (
    SymbolSeq,
    block_count_inequality_check,
    bracket_second_difference_labels,
    entropy_curve,
    index_blocks,
    indicator_block_bound,
    indicator_set,
    load_symbols,
    quantize_gn,
    save_symbols,
)

mpmath.mp.prec = 384


def brute_blocks(symbols, J, starts):
    # independent scan with plain python tuples
    out = {}
    for s in starts:
        w = tuple(int(x) for x in symbols[s : s + J])
        out[w] = out.get(w, 0) + 1
    return out


def random_binary(rng, P):
    raw = rng.getrandbits(P).to_bytes((P + 7) // 8, "little")
    return SymbolSeq(
        np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")[:P], 2
    )


class TestSymbolSeqDtype:
    @pytest.mark.parametrize("symbols", [
        np.array([0.5, 1.0, -0.5, 1.9]), np.array([0.0, 1.0]),
        np.array([0, 1], dtype=object), np.array(["0", "1"]), np.array([1 + 0j]),
    ])
    def test_non_integer_dtypes_are_refused(self, symbols):
        with pytest.raises(ValueError, match=re.escape(f"dtype {symbols.dtype}")):
            SymbolSeq(symbols, 2)

    def test_bool_symbols_count_as_integers(self):
        bits = np.array([True, False, True, True, False, True])
        rows = entropy_curve(SymbolSeq(bits, 2), 3)
        assert rows == entropy_curve(SymbolSeq(bits.astype(np.uint8), 2), 3)
        assert [r.count_all for r in rows] == [2, 3, 3]

    def test_uint64_symbols_past_2_53_stay_distinct(self):
        # a float64 sum would round 2^60 + 1 to 2^60
        big = np.array([2 ** 60 + 1, 2 ** 60, 2 ** 60 + 1, 2 ** 60], dtype=np.uint64)
        seq = SymbolSeq(big, 2 ** 61)
        assert [r.count_all for r in entropy_curve(seq, 2)] == [2, 2]
        assert index_blocks(seq, 1).all_blocks == {(2 ** 60,): 2, (2 ** 60 + 1,): 2}


class TestIndexBlocks:
    def test_constant_sequence(self):
        seq = SymbolSeq(np.zeros(50, np.uint8), 1)
        for J in (1, 3, 7):
            idx = index_blocks(seq, J)
            assert idx.counts() == (1, 1, 1, 1)

    def test_period_two(self):
        seq = SymbolSeq(np.tile([0, 1], 50), 2)
        idx = index_blocks(seq, 2)
        assert set(idx.all_blocks) == {(0, 1), (1, 0)}
        assert set(idx.regular_blocks) == {(0, 1)}

    def test_matches_independent_scan(self):
        rng = random.Random(97)
        for _ in range(20):
            P = rng.randrange(30, 200)
            seq = SymbolSeq(
                np.array([rng.randrange(3) for _ in range(P)], np.uint8), 3
            )
            J = rng.randrange(1, 6)
            idx = index_blocks(seq, J)
            assert idx.all_blocks == brute_blocks(
                seq.symbols, J, range(P - J + 1)
            )
            assert idx.regular_blocks == brute_blocks(
                seq.symbols, J, range(0, P - J + 1, J)
            )

    def test_containment_chains(self):
        rng = random.Random(101)
        for _ in range(30):
            seq = random_binary(rng, rng.randrange(50, 400))
            J = rng.randrange(1, 7)
            idx = index_blocks(seq, J, effective_threshold=rng.randrange(2, 5))
            a = set(idx.all_blocks)
            r = set(idx.regular_blocks)
            e = set(idx.effective_blocks)
            er = set(idx.regularly_effective_blocks)
            assert er <= r <= a
            assert er <= e <= a

    def test_count_upper_bounds(self):
        rng = random.Random(103)
        seq = random_binary(rng, 300)
        for J in range(1, 9):
            n_all = len(index_blocks(seq, J).all_blocks)
            assert n_all <= min(2 ** J, 300 - J + 1)

    def test_monotone_in_prefix_length(self):
        rng = random.Random(107)
        full = random_binary(rng, 400)
        J = 4
        prev = 0
        for P in (50, 100, 200, 400):
            seq = SymbolSeq(full.symbols[:P], 2)
            n_all = len(index_blocks(seq, J).all_blocks)
            assert n_all >= prev
            prev = n_all

    def test_j_out_of_range(self):
        seq = SymbolSeq(np.zeros(5, np.uint8), 1)
        with pytest.raises(WindowTooShortError):
            index_blocks(seq, 6)


class TestEntropyCurve:
    def test_periodic_counts_capped_by_period(self):
        seq = SymbolSeq(np.tile([0, 1, 2], 200), 3)
        for row in entropy_curve(seq, 10):
            assert row.count_all <= 3
            assert row.entropy_estimate <= math.log(3) / row.J + 1e-12

    def test_iid_binary_estimate_near_log2(self):
        rng = np.random.default_rng(109)
        seq = SymbolSeq(rng.integers(0, 2, 10 ** 6, dtype=np.uint8), 2)
        rows = entropy_curve(seq, 12)
        est = rows[-1].entropy_estimate
        assert abs(est - math.log(2)) / math.log(2) < 0.10

    def test_row_shape(self):
        seq = SymbolSeq(np.tile([0, 1], 50), 2)
        rows = entropy_curve(seq, 6)
        assert [r.J for r in rows] == list(range(1, 7))


class TestCountingInequality:
    def test_constant(self):
        seq = SymbolSeq(np.zeros(100, np.uint8), 1)
        assert block_count_inequality_check(seq, 3, 2)

    def test_period_two(self):
        seq = SymbolSeq(np.tile([0, 1], 100), 2)
        assert block_count_inequality_check(seq, 2, 3)

    def test_random_always_true(self):
        rng = random.Random(113)
        for _ in range(100):
            seq = random_binary(rng, 10 ** 4)
            J = rng.randrange(1, 7)
            l = rng.randrange(1, 5)
            assert block_count_inequality_check(seq, J, l)


class TestQuantize:
    def test_float_example(self):
        assert quantize_gn([0.37], 10).symbols[0] == 3

    def test_integer_part_dropped(self):
        assert quantize_gn([1.0], 10).symbols[0] == 0

    def test_exact_boundary_goes_up(self):
        # {3/10} lies on the cell boundary: must map to 3, not 2
        assert quantize_gn([F(3, 10)], 10).symbols[0] == 3

    def test_fixed_real_input(self):
        v = FixedReal.from_fraction(F(7, 16))
        assert quantize_gn([v], 8).symbols[0] == 3  # 8 * 7/16 = 3.5

    def test_cell_property(self):
        # the rescaled symbol t/N is within 1/N of {y} in the circle metric
        rng = random.Random(127)
        for _ in range(300):
            N = rng.randrange(1, 30)
            y = F(rng.randrange(-500, 500), rng.randrange(1, 97))
            t = int(quantize_gn([y], N).symbols[0])
            frac = y - (y.numerator // y.denominator)
            d = abs(frac - F(t, N))
            assert min(d, 1 - d) < F(1, N)

    def test_alphabet(self):
        seq = quantize_gn([0.0, 0.5, 0.999], 4)
        assert seq.alphabet_size == 4
        assert list(seq.symbols) == [0, 2, 3]


class TestIndicator:
    def test_constant_phases_all_ones(self):
        seq, rep = indicator_set(PolyPhase([0]), PolyPhase([F(1, 2)]), 50)
        assert seq.symbols.sum() == 50 and rep.tie_count == 0

    def test_constant_phases_all_zeros(self):
        seq, _ = indicator_set(PolyPhase([F(1, 2)]), PolyPhase([0]), 50)
        assert seq.symbols.sum() == 0

    def test_sqrt_pair_matches_high_precision_oracle(self):
        p1 = PolyPhase([0, sqrt_const(2)])
        p2 = PolyPhase([0, sqrt_const(3)])
        seq, rep = indicator_set(p1, p2, 1000)
        s2, s3 = mpmath.sqrt(2), mpmath.sqrt(3)
        for n in range(1000):
            expect = 1 if mpmath.frac(s2 * n) < mpmath.frac(s3 * n) else 0
            assert int(seq.symbols[n]) == expect
        assert rep.tie_count == 1  # n = 0: both fractional parts are 0

    def test_precision_error_names_bits(self):
        coarse = TablePhase(oracle=lambda n: FixedReal(0, 1 << 40),
                            err_ulp=1 << 40, label="coarse")
        with pytest.raises(PrecisionError, match="bits"):
            indicator_set(coarse, PolyPhase([F(1, 2)]), 10)

    def test_identical_phases_tie_everywhere_whatever_the_unit(self):
        # a rational unit below 2^64 used to floor the tie window to 0
        third = PolyPhase([F(1, 3)])
        _, rep = indicator_set(third, PolyPhase([F(1, 3)]), 10)
        assert rep.tie_count == 10 and rep.tie_positions == list(range(10))
        s2 = PolyPhase([0, sqrt_const(2)])
        assert indicator_set(s2, PolyPhase([0, sqrt_const(2)]), 10)[1].tie_count == 10
        # 1/3 against its 96-bit rounding: 1/(3 * 2^96) apart, a tie
        _, rep = indicator_set(third, PolyPhase([FixedReal.from_fraction(F(1, 3))]), 10)
        assert rep.tie_count == 10

    def test_block_growth_stays_polynomial(self):
        p1 = PolyPhase([0, sqrt_const(2)])
        p2 = PolyPhase([0, sqrt_const(3)])
        seq, _ = indicator_set(p1, p2, 20000)
        for row in entropy_curve(seq, 10):
            assert row.count_all <= indicator_block_bound(row.J, 2)


class TestBracketLabels:
    def test_label_at_one(self):
        labels, _ = bracket_second_difference_labels(10)
        assert labels.symbols[1] == 4

    def test_second_difference_value_at_one(self):
        # frozen from a 384-bit evaluation of f(3) - 2 f(2) + f(1)
        s2, s3 = mpmath.sqrt(2), mpmath.sqrt(3)
        f = lambda n: s3 * n * mpmath.frac(s2 * n)
        d2 = float(f(3) - 2 * f(2) + f(1))
        assert abs(d2 - (-3.7612745522780303)) < 1e-12
        formula = float(2 * s3 * (s2 - 2) - s3)
        assert abs(d2 - formula) < 1e-9

    def test_partition_and_residual(self):
        labels, rep = bracket_second_difference_labels(10 ** 4)
        assert rep.partition_ok and rep.tie_count == 0
        assert rep.max_residual <= 1e-9
        counts = rep.case_counts
        # two consecutive drops of {sqrt2 n} are impossible: the step is
        # below 1/2, so the second case is empty by rights
        assert counts[1] == 0
        assert counts[0] > 0 and counts[2] > 0 and counts[3] > 0
        assert sum(counts) == 10 ** 4

    def test_case_frequencies_match_equidistribution(self):
        _, rep = bracket_second_difference_labels(10 ** 5)
        s = math.sqrt(2) - 1
        freq = [c / 10 ** 5 for c in rep.case_counts]
        assert abs(freq[0] - (1 - 2 * s)) < 1e-3
        assert abs(freq[2] - s) < 1e-3
        assert abs(freq[3] - s) < 1e-3


class TestSymbolsIO:
    def test_round_trip(self, tmp_path):
        seq = SymbolSeq(np.array([0, 1, 2, 3, 2, 1], np.uint8), 4)
        hdr = save_symbols(seq, tmp_path / "seq.bin")
        loaded = load_symbols(hdr)
        assert loaded.alphabet_size == 4
        assert np.array_equal(loaded.symbols, seq.symbols)

    def test_length_mismatch_detected(self, tmp_path):
        seq = SymbolSeq(np.zeros(10, np.uint8), 2)
        hdr = save_symbols(seq, tmp_path / "seq.bin")
        (tmp_path / "seq.bin").write_bytes(bytes(5))
        with pytest.raises(ValueError):
            load_symbols(hdr)


# ---------------------------------------------------------------------------
# the batch paths against per-n references, across chunk boundaries

small_rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 30))
sqrt_multiples = st.builds(lambda m, q: sqrt_const(m).mul_int(q),
                           st.sampled_from((2, 3, 5)), st.integers(-3, 3))


@st.composite
def phase_pairs(draw):
    """Two polynomial phases with equal or mixed units; the second is often
    the first again, or the first with its coefficients rounded to 2^-96,
    so that exact and near ties occur."""
    cs = draw(st.lists(st.one_of(small_rationals, sqrt_multiples), min_size=1, max_size=3))
    kind = draw(st.sampled_from(("same", "rounded", "other")))
    if kind == "same":
        other = cs
    elif kind == "rounded":
        other = [c if isinstance(c, FixedReal) else FixedReal.from_fraction(c) for c in cs]
    else:
        other = draw(st.lists(st.one_of(small_rationals, sqrt_multiples),
                              min_size=1, max_size=3))
    return PolyPhase(cs), PolyPhase(other)


class TestBatchDifferential:
    @given(phase_pairs(), st.integers(1, 60), st.sampled_from((8, 32, 64)),
           st.integers(1, 9))
    def test_indicator_matches_fraction_reference(self, pair, P, tie_bits, chunk):
        p1, p2 = pair
        with mock.patch.object(symbolic_blocks, "CHUNK", chunk):
            seq, rep = indicator_set(p1, p2, P, tie_bits)
        want, ties = [], []
        for n in range(P):
            a, b = F(*frac_rep(p1.frac(n))), F(*frac_rep(p2.frac(n)))
            want.append(int(a < b))
            if abs(a - b) < F(1, 1 << tie_bits):
                ties.append(n)
        assert seq.symbols.tolist() == want
        assert rep.tie_count == len(ties) and rep.tie_positions == ties[:64]

    def test_indicator_keeps_the_first_64_ties(self):
        p = PolyPhase([F(1, 7)])
        with mock.patch.object(symbolic_blocks, "CHUNK", 5):
            _, rep = indicator_set(p, p, 100)
        assert rep.tie_count == 100 and rep.tie_positions == list(range(64))

    @given(st.integers(3, 80), st.integers(1, 9))
    def test_bracket_labels_match_per_n_reference(self, P, chunk):
        with mock.patch.object(_limbs, "BLOCK", chunk):
            labels, rep = bracket_second_difference_labels(P)
        want_labels, want_rep = _bracket_labels_reference(P)
        assert labels.symbols.tolist() == want_labels
        assert rep == want_rep


def _bracket_labels_reference(P):
    """Labels and report by FixedReal arithmetic, one n at a time."""
    s2, s3 = sqrt_const(2), sqrt_const(3)
    a1 = s3.mul_int(2) * (s2 - FixedReal.from_fraction(1))
    a2 = s3.mul_int(2) * (s2 - FixedReal.from_fraction(2))
    fm = [(s2.mantissa * n) % SCALE for n in range(P + 2)]
    fv = [s3.mul_int(n) * FixedReal(fm[n], s2.err_ulp * n) for n in range(P + 2)]
    labels, counts, ties = [], [0, 0, 0, 0], 0
    worst, worst_n = -1, 0
    for n in range(P):
        c0, c1, c2 = fm[n : n + 3]
        if c0 == c1 or c1 == c2:
            labels.append(0)
            ties += 1
            continue
        if c2 > c1:
            label, formula = (1, a1) if c1 > c0 else (3, a1 + s3.mul_int(n))
        else:
            label, formula = (4, a2 - s3.mul_int(n)) if c1 > c0 else (2, a2)
        labels.append(label)
        counts[label - 1] += 1
        d2 = fv[n + 2] - fv[n + 1] - fv[n + 1] + fv[n]
        resid = abs(d2.mantissa - formula.mantissa)
        if resid > worst:
            worst, worst_n = resid, n
    rep = symbolic_blocks.Example33Report(
        P, tuple(counts), worst / SCALE, worst_n, ties, ties == 0)
    return labels, rep


# ---------------------------------------------------------------------------
# the indicator's float screen against the exact int compare of the oracle

fixed_reals = st.one_of(
    st.builds(FixedReal, st.integers(-(1 << 100), 1 << 100)),
    st.builds(lambda m, q: sqrt_const(m).mul_int(q), st.sampled_from((2, 3, 5)),
              st.integers(-3, 3)),
)
# units below and above 2^53, where int64 numerators stop converting exactly
rational_polys = st.one_of(
    st.builds(PolyPhase, st.lists(small_rationals, min_size=1, max_size=3)),
    st.builds(lambda u, a, b: PolyPhase([F(a, u), F(b, u)]),
              st.integers(3 ** 34, 3 ** 34 + 400), st.integers(-60, 60), st.integers(1, 60)),
)
base_shapes = st.one_of(
    st.builds(PolyPhase, st.lists(fixed_reals, min_size=1, max_size=3)),
    rational_polys,
    st.builds(BracketPhase, fixed_reals, fixed_reals),
    st.builds(PowerPhase, st.integers(1, 6), st.integers(1, 4)),
    st.builds(lambda a, q: TablePhase(lambda n: F(a * n * n, q), label=f"table:{a}/{q}"),
              st.integers(-20, 20), st.integers(1, 40)),
)
shapes = st.one_of(
    base_shapes,
    st.builds(lambda b, x, y: ConcatPhase([0, b], [x, y]), st.integers(1, 60),
              base_shapes, base_shapes),
)


def _same_as_oracle(p1, p2, P, tie_bits):
    seq, rep = indicator_set(p1, p2, P, tie_bits)
    want_seq, want_rep = numerator_oracle.indicator_set(p1, p2, P, tie_bits)
    assert seq.symbols.tobytes() == want_seq.symbols.tobytes()
    assert (rep.tie_count, rep.tie_positions) == (want_rep.tie_count, want_rep.tie_positions)


class TestFloatScreen:
    @settings(max_examples=300)
    @given(shapes, st.one_of(shapes, st.none()), st.integers(1, 150),
           st.integers(1, 95), st.integers(1, 12))
    def test_matches_the_oracle_for_every_shape(self, p1, p2, P, tie_bits, chunk):
        p2 = p1 if p2 is None else p2  # identical phases tie everywhere
        with mock.patch.object(symbolic_blocks, "CHUNK", chunk):
            if max(p.err_bound(P - 1) for p in (p1, p2)) > 2.0 ** -tie_bits:
                with pytest.raises(PrecisionError):
                    indicator_set(p1, p2, P, tie_bits)
                return
            _same_as_oracle(p1, p2, P, tie_bits)

    @pytest.mark.parametrize("bits", [96, 110])
    @pytest.mark.parametrize("target", ["screen", "window"])
    def test_constants_one_ulp_from_the_screen_and_the_window(self, bits, target):
        # pairs of constants 2^-50 or `window` apart, give or take one ulp of
        # the representation (2^-96 or 2^-110) or, where the representation
        # holds it, of the float, either way round
        unit = 1 << bits
        base = F(1, 2) + F(12345, unit)
        with mock.patch.object(symbolic_blocks, "CHUNK", 7):
            for tie_bits in range(1, 96):
                at = F(1, 1 << 50) if target == "screen" else F(-(-unit >> tie_bits), unit)
                for ulp in {F(1, unit), F(math.ulp(float(at)))}:
                    for offset in (-1, 0, 1):
                        other = base + at + offset * ulp
                        if (other * unit).denominator != 1:
                            continue  # a float ulp finer than the representation
                        p1, p2 = (PolyPhase([c if bits == 110 else FixedReal(int(c * unit))])
                                  for c in (base, other))
                        _same_as_oracle(p1, p2, 30, tie_bits)
                        _same_as_oracle(p2, p1, 30, tie_bits)

    def test_a_decided_chunk_never_reads_frac_units(self):
        p1, p2 = PolyPhase([0, sqrt_const(2)]), PolyPhase([0, sqrt_const(3)])
        calls = []
        for p in (p1, p2):
            def spy(start, count, _inner=p.frac_units):
                calls.append(start)
                return _inner(start, count)
            p.frac_units = spy
        with mock.patch.object(symbolic_blocks, "CHUNK", 8):
            _same_as_oracle(p1, p2, 80, 64)
        # n = 0, where both fractional parts are 0, holds the one undecided chunk
        assert calls == [0, 0]

    @staticmethod
    def _spans_read(*phases):
        """The (start, count) of every frac_units call on the phases."""
        calls = []
        for p in phases:
            def spy(start, count, _inner=p.frac_units):
                calls.append((start, count))
                return _inner(start, count)
            p.frac_units = spy
        return calls

    def test_the_exact_compare_reads_only_the_undecided_span(self):
        p1, p2 = parse_phase("poly:0,sqrt2"), parse_phase("poly:0,sqrt3")
        calls = self._spans_read(p1, p2)
        with mock.patch.object(symbolic_blocks, "CHUNK", 8):
            _same_as_oracle(p1, p2, 80, 64)
        assert calls == [(0, 1), (0, 1)]

    def test_identical_phases_read_every_chunk_whole(self):
        p1, p2 = parse_phase("poly:0,sqrt2"), parse_phase("poly:0,sqrt2")
        calls = self._spans_read(p1, p2)
        with mock.patch.object(symbolic_blocks, "CHUNK", 8):
            _same_as_oracle(p1, p2, 20, 64)
        assert calls == [(0, 8), (0, 8), (8, 8), (8, 8), (16, 4), (16, 4)]

    def test_ties_at_every_33rd_n_take_one_span_per_chunk(self):
        # {n/33} = {2n/33} at n = 0 mod 33, and |{n/33} - {2n/33}| = 1/33, the
        # tie window, at n = 1 and 32 mod 33: a span per chunk, within it
        p1, p2 = parse_phase("poly:0,1/33"), parse_phase("poly:0,2/33")
        calls = self._spans_read(p1, p2)
        with mock.patch.object(symbolic_blocks, "CHUNK", 64):
            seq, rep = indicator_set(p1, p2, 330, 64)
        spans = calls[:]
        want_seq, want_rep = numerator_oracle.indicator_set(p1, p2, 330, 64)
        assert seq.symbols.tobytes() == want_seq.symbols.tobytes()
        assert (rep.tie_count, rep.tie_positions) == (want_rep.tie_count, want_rep.tie_positions)
        assert rep.tie_positions == list(range(0, 330, 33))
        chunks = [(s, min(64, 330 - s)) for s in range(0, 330, 64)]
        assert spans[::2] == spans[1::2] and len(spans) == 2 * len(chunks)
        for (start, count), (lo, cnt) in zip(spans[::2], chunks):
            assert lo <= start and start + count <= lo + cnt


class TestQuantizeExactInputs:
    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 1 << 20), st.integers(1, 300))
    def test_fixed_real_fraction_and_int_agree(self, num, den, N):
        y = F(num, den)
        fixed = FixedReal(num << 48)  # num / 2^48, dyadic
        got = quantize_gn([y, fixed, num], N).symbols.tolist()
        want = [min(math.floor(N * (v - math.floor(v))), N - 1)
                for v in (y, fixed.to_fraction())]
        assert got == want + [0]


# ---------------------------------------------------------------------------
# rolled window codes: entropy_curve and index_blocks against plain tuple
# scans, across the bincount/unique switch and the 2^62 structured-row path


def repetitive(rng, base, P):
    """Mostly a few symbols, with runs and a period, so that counts reach the
    thresholds 3 and 50 at small J and windows still vary."""
    common = [0, base - 1, base // 2, 1 % base]
    out = []
    while len(out) < P:
        r = rng.random()
        if r < 0.3:
            out.extend(common[: rng.randrange(1, 5)])
        elif r < 0.5:
            out.extend([rng.choice(common)] * rng.randrange(1, 6))
        else:
            out.append(rng.randrange(base) if r > 0.9 else rng.choice(common))
    return SymbolSeq.from_list(out[:P], base)


# (alphabet, P, J_max): 2^62 is crossed at J = 62, 27 and 8
ROLLING_CASES = [(2, 400, 66), (5, 300, 30), (300, 500, 10)]


class TestRollingCodes:
    @pytest.mark.parametrize("base,P,J_max", ROLLING_CASES)
    def test_rows_match_per_j_tuple_scans(self, base, P, J_max):
        seq = repetitive(random.Random(base), base, P)
        s = seq.symbols
        for tail in (0, 7, P - J_max):
            scans = []
            for J in range(1, J_max + 1):
                first_reg = -(-tail // J) * J
                scans.append((brute_blocks(s, J, range(tail, P - J + 1)),
                              brute_blocks(s, J, range(first_reg, P - J + 1, J))))
            for thr in (2, 3, 50):
                rows = entropy_curve(seq, J_max, thr, tail)
                want = [
                    (J, len(every), len(reg),
                     sum(c >= thr for c in every.values()),
                     sum(c >= thr for c in reg.values()),
                     math.log(len(every)) / J)
                    for J, (every, reg) in enumerate(scans, 1)
                ]
                assert [(r.J, r.count_all, r.count_regular, r.count_effective,
                         r.count_reg_effective, r.entropy_estimate)
                        for r in rows] == want
                assert tail > 0 or rows[0].count_effective > 0

    @pytest.mark.parametrize("base,P,J_max", ROLLING_CASES)
    def test_index_blocks_dicts_match_tuple_scans(self, base, P, J_max):
        seq = repetitive(random.Random(base + 1), base, P)
        s = seq.symbols
        for J in sorted({1, 2, 5, J_max // 2, J_max - 1, J_max}):
            for tail in (0, 7):
                idx = index_blocks(seq, J, 3, tail)
                every = brute_blocks(s, J, range(tail, P - J + 1))
                reg = brute_blocks(s, J, range(-(-tail // J) * J, P - J + 1, J))
                assert idx.all_blocks == every and idx.regular_blocks == reg
                assert idx.effective_blocks == {b: c for b, c in every.items() if c >= 3}
                assert idx.regularly_effective_blocks == {
                    b: c for b, c in reg.items() if c >= 3}
                assert all(type(v) is int for b in idx.all_blocks for v in b)

    def test_argument_errors_are_unchanged(self):
        seq = SymbolSeq.from_list([0, 1, 1, 0, 1], 2)
        assert entropy_curve(seq, 0, effective_threshold=1, tail_start=99) == []
        with pytest.raises(WindowTooShortError):
            entropy_curve(seq, 6, effective_threshold=1)
        with pytest.raises(ValueError, match="threshold"):
            entropy_curve(seq, 2, effective_threshold=1, tail_start=99)
        for tail in (-1, 4):
            with pytest.raises(ValueError, match="tail_start"):
                entropy_curve(seq, 2, tail_start=tail)
        assert [r.J for r in entropy_curve(seq, 2, tail_start=3)] == [1, 2]

    def test_peak_memory_per_symbol(self):
        P = 10 ** 6
        seq = random_binary(random.Random(18), P)
        tracemalloc.start()
        try:
            entropy_curve(seq, 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * P

    def test_indicator_peak_stays_flat_in_the_prefix_length(self):
        # few distinct windows (820 at J = 18): the J_max histogram and one
        # block's codes, whatever P is
        p1, p2 = PolyPhase([0, sqrt_const(2)]), PolyPhase([0, sqrt_const(3)])
        peaks = []
        for P in (10 ** 6, 4 * 10 ** 6):
            seq, _ = indicator_set(p1, p2, P)
            tracemalloc.start()
            try:
                entropy_curve(seq, 18)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 8 * 2 ** 20
        assert peaks[1] < 1.25 * peaks[0]

    @pytest.mark.parametrize("call", [
        lambda seq: index_blocks(seq, 18),
        lambda seq: block_count_inequality_check(seq, 6, 3),
    ], ids=["index_blocks", "inequality"])
    def test_indicator_peak_of_the_other_families(self, call):
        # both take their windows from the streamed histograms, so their peak
        # stays about one block and the histograms, whatever P is
        p1, p2 = PolyPhase([0, sqrt_const(2)]), PolyPhase([0, sqrt_const(3)])
        peaks = []
        for P in (10 ** 6, 4 * 10 ** 6):
            seq, _ = indicator_set(p1, p2, P)
            tracemalloc.start()
            try:
                call(seq)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 6 * 2 ** 20
        assert peaks[1] < 1.25 * peaks[0]

    # i.i.d. bits, so that nearly every window that fits is distinct, on each
    # path: the J_max histogram dense (2^17 <= P - 16), sparse (2^40 > P - 39),
    # and ranked past J = 61
    @pytest.mark.parametrize("J_max", [17, 40, 64])
    def test_budget_covers_the_measured_peak(self, J_max):
        P = 200_000
        rng = np.random.default_rng(J_max)
        seq = SymbolSeq(rng.integers(0, 2, P, dtype=np.uint8), 2)
        tracemalloc.start()
        try:
            rows = entropy_curve(seq, J_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[-1].count_all > 0.75 * min(2 ** J_max, P - J_max + 1)
        with mock.patch.object(symbolic_blocks, "DEFAULT_BUDGET_BYTES", peak - 1):
            with pytest.raises(ResourceBudgetError):
                entropy_curve(seq, J_max)

    @pytest.mark.parametrize("P,J_max", [(10 ** 7, 4), (10 ** 5, 5000)])
    def test_over_budget_fails_fast(self, P, J_max):
        seq = SymbolSeq(np.zeros(P, dtype=np.uint8), 2)
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match=r"needs about \d+ bytes.*budget"):
            entropy_curve(seq, J_max)
        assert time.perf_counter() - t0 < 1.0


def _code_length(base):
    return 40 if base == 1 else max(J for J in range(1, 63) if base ** J < 2 ** 62)


@st.composite
def counting_cases(draw):
    """(seq, J_max, threshold, tail_start, chunk): J_max next to the dense /
    sparse switch of the J_max histogram, anywhere, or past the code length
    (ranked); the symbols i.i.d., periodic with noise, or repetitive; the
    pass in blocks of 17 or 256 starts, or of phases.CHUNK."""
    base = draw(st.sampled_from([1, 2, 3, 4, 5, 300]))
    P = draw(st.integers(1, 3000))
    where = draw(st.sampled_from(["switch", "any", "ranked"]))
    if where == "switch":
        switch = max(J for J in range(64) if base ** J <= P - J + 1)
        J_max = switch + draw(st.integers(-1, 1))
    elif where == "ranked":
        J_max = _code_length(base) + draw(st.integers(1, 3))
    else:
        J_max = draw(st.integers(1, _code_length(base) + 3))
    J_max = min(max(J_max, 1), P)
    tail = draw(st.one_of(st.just(P - J_max), st.just(0), st.integers(0, P - J_max)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["iid", "periodic", "repetitive"]))
    if kind == "iid":
        symbols = rng.integers(0, base, P)
    elif kind == "periodic":
        pattern = rng.integers(0, base, draw(st.integers(1, 30)))
        symbols = np.resize(pattern, P)
        noise = rng.random(P) < 0.05
        symbols[noise] = rng.integers(0, base, int(noise.sum()))
    else:
        symbols = repetitive(random.Random(int(rng.integers(2 ** 32))), base, P).symbols
    dtype = draw(st.sampled_from([bool, np.uint8])) if base <= 2 else (
        np.uint8 if base <= 256 else np.int64)
    seq = SymbolSeq(np.asarray(symbols).astype(dtype), base)
    return (seq, J_max, draw(st.sampled_from([2, 3, 50])), tail,
            draw(st.sampled_from([17, 256, symbolic_blocks.CHUNK])))


class TestStreamedCounts:
    """entropy_curve against the per-J loop it replaced, row for row."""

    @settings(max_examples=200, deadline=None)
    @given(counting_cases())
    def test_rows_match_the_per_j_loop(self, case):
        seq, J_max, thr, tail, chunk = case
        want = block_count_oracle.entropy_curve_rows(seq, J_max, thr, tail)
        with mock.patch.object(symbolic_blocks, "CHUNK", chunk):
            assert entropy_curve(seq, J_max, thr, tail) == want

    @settings(max_examples=150, deadline=None)
    @given(counting_cases())
    def test_index_blocks_match_the_per_j_loop(self, case):
        seq, J, thr, tail, chunk = case
        want = block_count_oracle.index_blocks_dicts(seq, J, thr, tail)
        with mock.patch.object(symbolic_blocks, "CHUNK", chunk):
            idx = index_blocks(seq, J, thr, tail)
        got = (idx.all_blocks, idx.regular_blocks, idx.effective_blocks,
               idx.regularly_effective_blocks)
        assert [list(d.items()) for d in got] == [list(d.items()) for d in want]

    @settings(max_examples=150, deadline=None)
    @given(counting_cases(), st.integers(1, 4))
    def test_inequality_counts_match_the_per_j_loop(self, case, l):
        # the case's J_max is the left windows' length l J, so that they sit
        # at the switch or past the code length as the case draws them
        seq, J_max, _, _, chunk = case
        J = min(max(J_max // l, 1), len(seq) // (l + 1))
        assume(J >= 1)
        want = block_count_oracle.inequality_counts(seq, J, l)
        with mock.patch.object(symbolic_blocks, "CHUNK", chunk):
            assert symbolic_blocks._inequality_counts(seq, J, l) == want
            assert block_count_inequality_check(seq, J, l)


class TestIndexBlocksBudget:
    @pytest.mark.parametrize("P,J,base", [(10 ** 6, 40, 2), (10 ** 5, 5000, 2), (2 * 10 ** 6, 20, 300)])
    def test_over_budget_fails_fast(self, P, J, base):
        seq = SymbolSeq(np.zeros(P, dtype=np.uint8 if base <= 256 else np.int64), base)
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match=r"index_blocks .* needs about \d+ bytes.*budget"):
            index_blocks(seq, J)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("base,J", [(2, 30), (300, 7), (2, 62)])
    def test_budget_covers_the_measured_peak(self, base, J):
        # every window distinct: the budget's worst case, on the code path
        # and (base 2, J = 62) the structured-row path
        P = 20_000
        rng = np.random.default_rng(base + J)
        dtype = np.uint8 if base <= 256 else np.int64
        seq = SymbolSeq(rng.integers(0, base, P).astype(dtype), base)
        tracemalloc.start()
        try:
            idx = index_blocks(seq, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(idx.all_blocks) > 0.99 * P
        with mock.patch.object(symbolic_blocks, "DEFAULT_BUDGET_BYTES", peak - 1):
            with pytest.raises(ResourceBudgetError):
                index_blocks(seq, J)


class TestScanBudgets:
    """indicator_set, the example-33 labels and the block-count inequality
    check their working bytes up front."""

    def test_over_budget_fails_fast(self):
        p1, p2 = PolyPhase([0, sqrt_const(2)]), PolyPhase([0, sqrt_const(3)])
        seq = SymbolSeq(np.zeros(10 ** 5, dtype=np.uint8), 2)
        calls = [
            (lambda: indicator_set(p1, p2, 10 ** 9), "indicator_set"),
            (lambda: bracket_second_difference_labels(10 ** 9), "bracket_second_difference_labels"),
            (lambda: block_count_inequality_check(seq, 2500, 2), "block_count_inequality_check"),
        ]
        for call, name in calls:
            t0 = time.perf_counter()
            with pytest.raises(ResourceBudgetError, match=rf"{name} for P=\d+.* needs about \d+ bytes.*budget"):
                call()
            assert time.perf_counter() - t0 < 1.0

    # i.i.d. bits: the l J histogram dense (2^20 <= P), sparse (2^40 > P),
    # and ranked (l J = 80 past 61)
    @pytest.mark.parametrize("J,l", [(10, 2), (20, 2), (40, 2)])
    def test_inequality_budget_covers_the_measured_peak(self, J, l):
        P = 200_000
        seq = SymbolSeq(np.random.default_rng(J).integers(0, 2, P, dtype=np.uint8), 2)
        tracemalloc.start()
        try:
            block_count_inequality_check(seq, J, l)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with mock.patch.object(symbolic_blocks, "DEFAULT_BUDGET_BYTES", peak - 1):
            with pytest.raises(ResourceBudgetError):
                block_count_inequality_check(seq, J, l)

    @pytest.mark.parametrize("which", ["indicator", "labels"])
    def test_budget_covers_the_measured_peak(self, which):
        p1, p2 = PolyPhase([0, sqrt_const(2)]), PolyPhase([0, sqrt_const(3)])
        call = {"indicator": lambda: indicator_set(p1, p2, 10 ** 5),
                "labels": lambda: bracket_second_difference_labels(2 * 10 ** 5)}[which]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with mock.patch.object(symbolic_blocks, "DEFAULT_BUDGET_BYTES", peak - 1):
            with pytest.raises(ResourceBudgetError):
                call()


# ---------------------------------------------------------------------------
# dense ranks once base^J >= 2^62, well past twice the code length
# (61, 26 and 7 symbols for alphabets 2, 5 and 300)

RANK_CASES = [(2, 260, 130), (5, 200, 60), (300, 150, 17)]


class TestRankedWindows:
    @pytest.mark.parametrize("base,P,J_max", RANK_CASES)
    def test_rows_and_dicts_match_tuple_scans(self, base, P, J_max):
        seq = repetitive(random.Random(base + 2), base, P)
        s = seq.symbols
        L = max(J for J in range(1, 63) if base ** J < 2 ** 62)
        index_js = {L, L + 1, 2 * L, 2 * L + 1, J_max - 1, J_max}
        for tail in (0, 7, P - J_max):
            rows = {thr: entropy_curve(seq, J_max, thr, tail) for thr in (2, 3, 50)}
            for J in range(1, J_max + 1):
                every = brute_blocks(s, J, range(tail, P - J + 1))
                reg = brute_blocks(s, J, range(-(-tail // J) * J, P - J + 1, J))
                for thr, curve in rows.items():
                    r = curve[J - 1]
                    assert (r.J, r.count_all, r.count_regular, r.count_effective,
                            r.count_reg_effective, r.entropy_estimate) == (
                        J, len(every), len(reg),
                        sum(c >= thr for c in every.values()),
                        sum(c >= thr for c in reg.values()),
                        math.log(len(every)) / J)
                    if J in index_js:
                        idx = index_blocks(seq, J, thr, tail)
                        assert idx.all_blocks == every and idx.regular_blocks == reg
                        assert idx.effective_blocks == {
                            b: c for b, c in every.items() if c >= thr}
                        assert idx.regularly_effective_blocks == {
                            b: c for b, c in reg.items() if c >= thr}
                        assert list(idx.all_blocks) == sorted(every)
                        assert all(type(v) is int for b in idx.all_blocks for v in b)

    def test_huge_alphabet_keys_do_not_overflow(self):
        # base^2 >= 2^62 from J = 2 on; rank * base would overflow int64
        base = 2 ** 62 - 1
        rng = random.Random(5)
        pool = [rng.randrange(base) for _ in range(6)]
        seq = SymbolSeq(np.array([rng.choice(pool) for _ in range(300)]), base)
        s = seq.symbols
        rows = entropy_curve(seq, 6, 3, 7)
        for r in rows:
            every = brute_blocks(s, r.J, range(7, 300 - r.J + 1))
            assert (r.count_all, r.count_effective) == (
                len(every), sum(c >= 3 for c in every.values()))
        assert index_blocks(seq, 4).all_blocks == brute_blocks(s, 4, range(297))

    def test_block_count_inequality_on_ranks(self):
        seq = repetitive(random.Random(9), 2, 400)
        assert block_count_inequality_check(seq, 40, 2)  # l J = 80 > 61
        assert block_count_inequality_check(seq, 70, 1)

    @pytest.mark.parametrize("J,l", [(70, 1), (40, 2), (31, 2), (21, 3)])
    def test_inequality_ranks_within_its_charge(self, J, l):
        # each np.unique with first starts ranks one J's pair keys; the
        # budget charges P keys per window length past the code length (61)
        seq = repetitive(random.Random(9), 2, 400)
        ranked, unique = [], np.unique

        def spy(ar, *args, **kwargs):
            if kwargs.get("return_index"):
                ranked.append(np.size(ar))
            return unique(ar, *args, **kwargs)

        with mock.patch.object(np, "unique", spy):
            assert block_count_inequality_check(seq, J, l)
        assert 0 < sum(ranked) <= 400 * (l * J - 61)

    def test_budget_covers_the_measured_peak(self):
        P = 200_000
        rng = np.random.default_rng(300)
        seq = SymbolSeq(rng.integers(0, 300, P), 300)
        tracemalloc.start()
        try:
            rows = entropy_curve(seq, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[-1].count_all == P - 9
        with mock.patch.object(symbolic_blocks, "DEFAULT_BUDGET_BYTES", peak - 1):
            with pytest.raises(ResourceBudgetError):
                entropy_curve(seq, 10)

    def test_window_key_limit(self):
        # base 5: codes up to J = 26, ranks from J = 27 on, P = 100 per J
        seq = repetitive(random.Random(3), 5, 100)
        with mock.patch.object(symbolic_blocks, "_MAX_WINDOW_KEYS", 3000):
            assert len(entropy_curve(seq, 56)) == 56
            index_blocks(seq, 56)
            for call in (lambda: entropy_curve(seq, 57), lambda: index_blocks(seq, 57)):
                with pytest.raises(ResourceBudgetError,
                                   match=r"and 3100 ranked window keys, .*3000-key limit"):
                    call()
        with mock.patch.object(symbolic_blocks, "_MAX_WINDOW_KEYS", 0):
            assert len(entropy_curve(seq, 26)) == 26
            assert index_blocks(seq, 26).J == 26
            with pytest.raises(ResourceBudgetError, match=r"and 100 ranked window keys"):
                entropy_curve(seq, 27)
