"""Fixed-point arithmetic and phase evaluation against a 384-bit mpmath
reference; parsing, schedules, and concatenation builders."""

import inspect
import math
import random
import time
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from mulab.errors import ParseError, PrecisionError, ResourceBudgetError
from mulab.exact_calculus import lagrange_coeff
from mulab.fixedpoint import FRAC_BITS, SCALE, FixedReal, iroot, sqrt_const
from mulab.phases import (
    CHUNK,
    BracketPhase,
    ConcatPhase,
    GeometricSchedule,
    Phase,
    PolyPhase,
    PowerPhase,
    LogPowerSchedule,
    ResidualReport,
    ScheduledLagrangeConcat,
    StageSchedule,
    TablePhase,
    build_concatenation,
    concat_residual,
    eval_phase,
    frac_rep,
    parse_phase,
    power_phase,
)
from mulab.phase_sums import unit_weights, weighted_average

mpmath.mp.prec = 384


class TestFixedReal:
    def test_dyadic_is_exact(self):
        v = FixedReal.from_fraction(F(3, 8))
        assert v.exact and v.mantissa == 3 * SCALE // 8

    def test_non_dyadic_rounds_with_unit_error(self):
        v = FixedReal.from_fraction(F(1, 3))
        assert v.err_ulp == 1
        assert abs(v.to_fraction() - F(1, 3)) <= F(1, SCALE)

    signed = st.integers(-(1 << 191) + 1, (1 << 191) - 1)
    # 54 significant bits ending in 1: exactly halfway between two doubles
    halfway = st.builds(lambda hi, shift, sign: sign * ((2 * hi + 1) << shift),
                        st.integers(1 << 52, (1 << 53) - 1), st.integers(0, 137),
                        st.sampled_from((1, -1)))

    @given(signed | halfway)
    def test_to_float_is_correctly_rounded(self, m):
        assert FixedReal(m).to_float() == float(F(m, SCALE))

    def test_sqrt2_squares_back(self):
        s2 = sqrt_const(2)
        sq = s2 * s2
        assert abs(sq.to_float() - 2.0) <= sq.err_abs() + 2.0 ** -90

    def test_error_bounds_honest_vs_reference(self):
        rng = random.Random(41)
        for _ in range(300):
            a = F(rng.randrange(-999, 1000), rng.randrange(1, 997))
            b = F(rng.randrange(-999, 1000), rng.randrange(1, 997))
            m = rng.choice((2, 3, 5, 7))
            n = rng.randrange(1, 10 ** 6)
            x = FixedReal.from_fraction(a) * sqrt_const(m) + \
                FixedReal.from_fraction(b).mul_int(n)
            true = mpmath.mpf(a.numerator) / a.denominator * mpmath.sqrt(m) \
                + mpmath.mpf(b.numerator) / b.denominator * n
            err = abs(mpmath.mpf(x.mantissa) / SCALE - true)
            assert err <= x.err_ulp * mpmath.mpf(2) ** -FRAC_BITS

    def test_frac_and_floor(self):
        v = FixedReal.from_fraction(F(-7, 4))
        assert v.floor() == -2
        assert v.frac().to_fraction() == F(1, 4)

    def test_overflow_guard(self):
        with pytest.raises(PrecisionError):
            FixedReal.from_fraction(1 << 100)


class TestIroot:
    def test_exact_cubes(self):
        for n in (0, 1, 7, 100, 12345):
            assert iroot(n ** 3, 3) == n

    def test_floor_property(self):
        rng = random.Random(43)
        for _ in range(200):
            x = rng.randrange(0, 1 << 80)
            r = rng.randrange(2, 6)
            v = iroot(x, r)
            assert v ** r <= x < (v + 1) ** r


class TestPolyPhase:
    def test_rational_exact(self):
        p = PolyPhase([F(1, 2), F(1, 3)])
        assert p.frac(3) == F(1, 2)
        value, err = eval_phase(p, 3)
        assert value == 0.5 and err == 0.0

    def test_zero_poly(self):
        p = PolyPhase([0])
        assert eval_phase(p, 12345) == (0.0, 0.0)

    def test_fixed_path_matches_reference(self):
        p = PolyPhase([0, sqrt_const(2)])
        for n in (1, 17, 99991):
            got, err = eval_phase(p, n)
            true = float(mpmath.frac(mpmath.sqrt(2) * n))
            assert abs(got - true) <= err + 1e-15

    def test_frac_units_rational_exact(self):
        p = PolyPhase([F(2, 7), F(1, 3), F(5, 21)])
        unit, it = p.frac_units(4, 30)
        for n, num in zip(range(4, 34), it):
            assert F(num, unit) == p.frac(n)

    def test_frac_units_fixed_matches_scalar(self):
        p = PolyPhase([F(1, 2), sqrt_const(3), F(1, 7)])
        unit, it = p.frac_units(0, 50)
        assert unit == SCALE
        for n, num in zip(range(50), it):
            assert num == p.frac(n).frac_mantissa()

    def test_frac_chunk_paths_agree(self):
        p = PolyPhase([F(1, 3), F(2, 5)])
        fast = p.frac_chunk(10, 40)
        slow = [float(p.frac(n)) for n in range(10, 50)]
        assert max(abs(a - b) for a, b in zip(fast, slow)) < 1e-15

    def test_trailing_zero_trim(self):
        assert PolyPhase([F(1, 2), 0, 0]).degree == 0

    @given(st.lists(st.one_of(st.integers(-10 ** 20, 10 ** 20),
                              st.fractions(max_denominator=10 ** 12)),
                    min_size=1, max_size=6))
    def test_rational_unit_and_scaled_coefficients(self, coeffs):
        """unit is the lcm of the denominators, _scaled the coefficients
        times unit, mod unit."""
        p = PolyPhase(coeffs)
        unit = math.lcm(*(F(c).denominator for c in p.coeffs))
        assert p.unit == p.period == unit
        assert p._scaled == [int(c * unit) % unit for c in p.coeffs]
        assert all(type(c) is int for c in p._scaled)


class TestBracketPhase:
    def test_value_at_one(self):
        b = BracketPhase(sqrt_const(3), sqrt_const(2))
        got, err = eval_phase(b, 1)
        assert abs(got - 0.7174389352143008) < 1e-12
        assert err <= 2.0 ** -30

    def test_reference_sample(self):
        # 10^4 points against the 384-bit reference, n up to 1e9
        b = BracketPhase(sqrt_const(3), sqrt_const(2))
        rng = random.Random(47)
        s2, s3 = mpmath.sqrt(2), mpmath.sqrt(3)
        for _ in range(10 ** 4):
            n = rng.randrange(1, 10 ** 9)
            got = b.frac(n)
            true = mpmath.frac(s3 * n * mpmath.frac(s2 * n))
            err = abs(mpmath.mpf(got.mantissa) / SCALE - true)
            assert err <= got.err_ulp * mpmath.mpf(2) ** -FRAC_BITS
            assert b.err_bound(n) <= 2.0 ** -30

    def test_frac_units_within_one_ulp(self):
        b = BracketPhase(sqrt_const(3), sqrt_const(2))
        unit, it = b.frac_units(1, 100)
        for n, num in zip(range(1, 101), it):
            assert num == b.frac(n).frac_mantissa()

    def test_range_check(self):
        b = BracketPhase(sqrt_const(3), sqrt_const(2))
        with pytest.raises(PrecisionError):
            b.check_range(1 << 45)


class TestPowerPhase:
    def test_perfect_square_roots(self):
        p = power_phase(3, 2)
        assert eval_phase(p, 4)[0] == 0.0  # 4^(3/2) = 8

    def test_reference(self):
        p = power_phase(3, 2)
        for n in (2, 3, 10, 99999, 10 ** 6):
            got, err = eval_phase(p, n)
            true = float(mpmath.frac(mpmath.power(n, mpmath.mpf(3) / 2)))
            assert abs(got - true) <= err + 1e-15

    def test_integer_exponent_exact(self):
        p = power_phase(2, 1)
        assert p.frac(123).frac_mantissa() == 0

    def test_time_budget_refuses_before_any_root(self, monkeypatch):
        p = PowerPhase(64, 63)
        monkeypatch.setattr(PowerPhase, "_numerators", None)  # no root may run
        with pytest.raises(ResourceBudgetError, match=r"needs about \d+ s .* 60 s budget"):
            p.check_range(10 ** 6)
        p.check_range(1000)  # 7.5e-1 s by the estimate
        PowerPhase(64, 1).check_range(10 ** 12)  # den = 1 takes no roots

    def test_a_concat_checks_each_piece_up_to_its_last_n(self, monkeypatch):
        monkeypatch.setattr(PowerPhase, "_numerators", None)  # no root may run
        c = ConcatPhase([0, 10], [PolyPhase([0]), PowerPhase(64, 63)])
        with pytest.raises(ResourceBudgetError, match="pow:64/63 up to n=1000000 needs"):
            c.check_range(10 ** 6)
        c.check_range(1000)
        # a power piece that ends at n = 999 is checked there, not at n
        ConcatPhase([0, 1000], [PowerPhase(64, 63), PolyPhase([0])]).check_range(10 ** 9)
        with pytest.raises(PrecisionError):  # each piece's precision, as before
            ConcatPhase([0, 10], [PolyPhase([0]), PolyPhase([0, sqrt_const(2)])]
                        ).check_range(1 << 70)

    def test_an_interpolating_concat_checks_its_source(self, monkeypatch):
        monkeypatch.setattr(PowerPhase, "_numerators", None)  # no root may run
        c = build_concatenation(PowerPhase(64, 63), 2, 10)
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="pow:64/63 up to n=1000001 needs"):
            weighted_average(unit_weights(10 ** 6), c, 10 ** 6)
        assert time.perf_counter() - t0 < 1.0
        c.check_range(1000)  # the source's nodes up to n + k - 1 = 1001

    def test_one_n_is_not_a_range(self):
        got, err = eval_phase(PowerPhase(64, 63), 10 ** 6)
        true = mpmath.frac(mpmath.power(10 ** 6, mpmath.mpf(64) / 63))
        assert abs(got - float(true)) <= err + 1e-15

    def test_an_integer_exponent_over_a_denominator_takes_no_root(self, monkeypatch):
        monkeypatch.setattr(PowerPhase, "_roots", None)  # no root may run
        p = parse_phase("pow:4/2")
        assert (p.num, p.den) == (2, 1)
        assert not p.frac_chunk(5, 100).any()
        assert p.err_ulp_at(10 ** 6) == 0
        p.check_range(10 ** 12)  # no roots, no time budget

    def test_an_exponent_is_taken_in_lowest_terms(self):
        p, q = PowerPhase(6, 4), PowerPhase(3, 2)
        for start in (0, 12_345, 10 ** 7):
            assert (p._numerators(start, 300) == q._numerators(start, 300)).all()
            assert p.frac_chunk(start, 300).tobytes() == q.frac_chunk(start, 300).tobytes()
        assert p._root_seconds(10 ** 6) == q._root_seconds(10 ** 6)

    def test_an_exponent_reads_as_written(self, monkeypatch):
        monkeypatch.setattr(PowerPhase, "_numerators", None)  # no root may run
        p = parse_phase("pow:6/4")
        assert p.describe() == "pow:6/4"
        with pytest.raises(ResourceBudgetError, match="^pow:6/4 up to n=1000000000 needs"):
            p.check_range(10 ** 9)
        with pytest.raises(ValueError, match="power exponent 128/64 needs num and den <= 64"):
            PowerPhase(128, 64)  # the written terms are checked

    def test_the_presets_sizes_are_within_the_budget(self):
        """pnt-trend averages pow:3/2 over its n; concat-approx samples it
        near its stage starts (about 1e5)."""
        from mulab.experiments import PRESETS, run_preset
        power_phase(3, 2).check_range(PRESETS["pnt-trend"][1]["n"])
        power_phase(3, 2).check_range(2 * 10 ** 7)  # the limit the README states
        assert run_preset("concat-approx")["results"]["passed"]


class TestParsing:
    def test_round_trip_tokens(self):
        p = parse_phase("poly:1/2,1/3")
        assert isinstance(p, PolyPhase) and p.frac(3) == F(1, 2)
        b = parse_phase("bracket:sqrt3,sqrt2")
        assert isinstance(b, BracketPhase)
        assert parse_phase("pow:3/2").describe() == "pow:3/2"

    def test_negative_and_decimal_tokens(self):
        p = parse_phase("poly:-1/2,0.25,-sqrt2")
        assert p.coeffs[0] == F(-1, 2) and p.coeffs[1] == F(1, 4)
        assert p.coeffs[2].mantissa < 0

    def test_bad_token_names_position(self):
        with pytest.raises(ParseError, match=r"'sqq2' at position 1"):
            parse_phase("poly:0,sqq2")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown phase kind"):
            parse_phase("wavelet:1,2")

    def test_concat_from_json(self, tmp_path):
        spec = tmp_path / "c.json"
        spec.write_text(
            '{"breakpoints": [0, 4], "pieces": ["poly:0", "poly:1/2"]}'
        )
        c = parse_phase(f"concat:@{spec}")
        assert c.frac(2) == 0 and c.frac(7) == F(1, 2)


class TestConcat:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConcatPhase([1, 2], [PolyPhase([0]), PolyPhase([0])])
        with pytest.raises(ValueError):
            ConcatPhase([0, 0], [PolyPhase([0]), PolyPhase([0])])
        with pytest.raises(ValueError):
            ConcatPhase([0, 4], [PolyPhase([0])])

    def test_every_n_in_exactly_one_piece(self):
        c = ConcatPhase([0, 3, 9], [PolyPhase([F(i, 7)]) for i in range(3)])
        expected = [0] * 3 + [1] * 6 + [2] * 5
        for n, e in enumerate(expected):
            assert c.frac(n) == F(e, 7)


class TestSchedules:
    def test_log_power_schedule_divisibility_and_growth(self):
        s = LogPowerSchedule(tau=0.7, c_const=1.0, m_target=10, k=2)
        prev = 0
        for m in range(1, 6):
            lm = s.stage_start(m)
            if lm is None:
                break
            assert lm % (1 << m) == 0
            assert lm > prev
            prev = lm

    def test_piece_start_alignment(self):
        s = GeometricSchedule(8)
        for n in range(0, 700):
            start = s.piece_start(n)
            m = s.stage_of(n)
            assert start <= n < start + (1 << m)
            assert (start - s.stage_start(m)) % (1 << m) == 0

    def test_breakpoints_cover_range(self):
        s = GeometricSchedule(4)
        bps = list(s.breakpoints(0, 300))
        assert bps[0] == 0
        assert all(b < a for b, a in zip(bps, bps[1:]))
        # consecutive gaps realize the stage gap of the left endpoint
        for b, a in zip(bps, bps[1:]):
            assert a - b == 1 << s.stage_of(b)


class CollidingSchedule(StageSchedule):
    """Raw starts that collide: 64 for stages 1..6, then saturated."""

    def _raw_stage_start(self, m):
        return 64 if m <= 6 else None

    def describe(self):
        return "colliding"


class ZeroSchedule(StageSchedule):
    """A raw start of 0 at every stage, which never saturates by itself."""

    def _raw_stage_start(self, m):
        return 0

    def describe(self):
        return "zero"


def stage_starts(sched, limit=64):
    """stage_start(0), stage_start(1), ... up to the first None, at most limit."""
    out = []
    for m in range(limit):
        start = sched.stage_start(m)
        if start is None:
            break
        out.append(start)
    return out


schedules = st.one_of(
    st.builds(GeometricSchedule, st.one_of(st.integers(1, 64), st.integers(1, 1 << 62))),
    st.builds(LogPowerSchedule, st.floats(0.55, 0.99), st.floats(1e-3, 1e3),
              st.integers(1, 1000), st.integers(1, 6)),
    st.builds(CollidingSchedule),
)


class TestScheduleEdges:
    def test_geometric_base_near_the_ceiling(self):
        s = GeometricSchedule(1 << 60)  # L_1 = 2^62 exactly, L_2 past it
        assert stage_starts(s) == [0, 1 << 62]
        assert s.stage_of((1 << 62) - 1) == 0 and s.stage_of(1 << 62) == 1
        t = GeometricSchedule((1 << 60) + 1)  # L_1 already past 2^62
        assert stage_starts(t) == [0]
        assert t.stage_of(1 << 70) == 0 and t.piece_start(1 << 70) == 1 << 70

    def test_log_power_saturates_at_stage_one(self):
        s = LogPowerSchedule(tau=0.7, c_const=1e30, m_target=1, k=1)
        assert s._raw_stage_start(1) is None  # the inner > 300 cut
        assert stage_starts(s) == [0]
        assert s.stage_of(10 ** 30) == 0 and s.piece_start(12345) == 12345

    def test_stage_start_is_none_past_the_last_stage(self):
        s = GeometricSchedule(8)
        assert stage_starts(s)[-1] == 8 * 4 ** 29 == 1 << 61
        assert s.stage_start(29) == 1 << 61
        assert s.stage_start(30) is None and s.stage_start(1000) is None

    def test_the_last_stage_is_open_past_2_62(self):
        s = GeometricSchedule(8)
        last, gap = 1 << 61, 1 << 29
        for n in (1 << 62, (1 << 62) + 12345, (1 << 80) + 7):
            assert s.stage_of(n) == 29
            start = s.piece_start(n)
            assert start <= n < start + gap and (start - last) % gap == 0
        assert list(s.breakpoints(1 << 62, (1 << 62) + 3 * gap)) == [
            (1 << 62) + i * gap for i in range(3)]

    def test_colliding_raw_starts_are_fixed_up(self):
        s = CollidingSchedule()
        assert stage_starts(s) == [0, 64, 68, 72, 80, 96, 128]
        assert s.stage_start(7) is None
        assert [s.stage_of(n) for n in (63, 64, 67, 68, 127, 128, 10 ** 9)] == [
            0, 1, 1, 2, 5, 6, 6]
        assert s.piece_start(10 ** 9) == 128 + (10 ** 9 - 128) // 64 * 64

    def test_fix_up_of_a_raw_start_that_never_saturates(self):
        s = ZeroSchedule()
        assert [s.stage_start(m) for m in range(63)] == [0] + [1 << m for m in range(1, 63)]
        assert s.stage_of((1 << 62) - 1) == 61 and s.stage_of(1 << 62) == 62

    def test_the_table_ends_at_the_ceiling_whatever_the_raw_starts(self):
        s = ZeroSchedule()
        assert s.stage_start(63) is None
        assert s.stage_of(1 << 70) == 62

    def test_negative_n_is_refused(self):
        for s in (GeometricSchedule(8), CollidingSchedule()):
            with pytest.raises(ValueError, match="natural numbers"):
                s.stage_of(-1)
            with pytest.raises(ValueError, match="natural numbers"):
                s.piece_start(-1)

    @given(schedules, st.one_of(st.integers(0, 10 ** 6), st.integers(0, 1 << 70)))
    def test_starts_increase_divide_and_locate(self, s, n):
        starts = stage_starts(s)
        assert starts[0] == 0 and all(a < b for a, b in zip(starts, starts[1:]))
        assert all(start % (1 << m) == 0 for m, start in enumerate(starts))
        assert starts[-1] <= 1 << 62
        m = s.stage_of(n)
        assert m == max(i for i, start in enumerate(starts) if start <= n)
        a = s.piece_start(n)
        assert a <= n < a + (1 << m) and (a - starts[m]) % (1 << m) == 0


class TestBuildConcatenation:
    def test_reproduces_polynomial_exactly(self):
        poly = PolyPhase([F(1, 3), F(-2, 7), F(5, 11)])
        concat = build_concatenation(poly, 3, 10, schedule=GeometricSchedule(8))
        rep = concat_residual(poly, concat, range(0, 2500, 3))
        assert rep.max_dist == 0.0

    def test_piecewise_affine_source(self):
        # second difference vanishing piecewise: each affine run is
        # reproduced away from the breakpoints that cross runs
        src = ConcatPhase([0, 64, 256], [
            PolyPhase([0, F(1, 5)]),
            PolyPhase([F(1, 2), F(1, 9)]),
            PolyPhase([F(1, 7), F(2, 11)]),
        ])
        concat = build_concatenation(src, 2, 10, schedule=GeometricSchedule(4))
        inner = [n for n in range(70, 120)]  # inside the second run
        rep = concat_residual(src, concat, inner)
        assert rep.max_dist == 0.0

    def test_power_source_residual_below_target(self):
        src = power_phase(3, 2)
        concat = build_concatenation(src, 2, m_target=10, tau=0.7)
        sched = concat.schedule
        samples = []
        for m in (1, 2):
            lo = sched.stage_start(m)
            if lo is None:
                break
            samples.extend(range(lo, lo + 600))
        rep = concat_residual(src, concat, samples)
        assert rep.max_dist <= 0.1


# ---------------------------------------------------------------------------
# the batch numerator kernels against the per-n scalar path

rationals = st.builds(F, st.integers(-1000, 1000), st.integers(1, 60))
irrationals = st.builds(
    lambda m, q, neg: (-sqrt_const(m) if neg else sqrt_const(m)).mul_int(q),
    st.sampled_from((2, 3, 5, 7)), st.integers(1, 9), st.booleans(),
)
coefficient_lists = st.lists(st.one_of(rationals, irrationals), min_size=1, max_size=4)
# one unit above 2^53, where int64 numerators do not convert to float64 exactly
big_unit_lists = st.builds(
    lambda u, a: [F(1, u), F(a, u)], st.integers(3 ** 34, 3 ** 34 + 400), st.integers(1, 60),
)


@st.composite
def poly_windows(draw):
    """A polynomial phase and an n-window: small n, n near 2^32, or n at,
    below or far above the kernel's int64/Python-int switch 2^62 // unit
    (up to 16 times it, where int64 products would overflow)."""
    p = PolyPhase(draw(st.one_of(coefficient_lists, big_unit_lists)))
    count = draw(st.integers(1, 40))
    unit, _ = p.frac_units(0, 1)
    switch = (1 << 62) // unit
    start = draw(st.one_of(
        st.integers(0, 1000),
        st.integers((1 << 32) - 50, (1 << 32) + 50),
        st.integers(max(switch - 60, 0), switch + 60),
        st.integers(2 * switch, 16 * switch + (1 << 41)),
    ))
    return p, start, count


class TestNumeratorKernels:
    @given(poly_windows())
    def test_poly_numerators_match_scalar_frac(self, case):
        p, start, count = case
        unit, nums = p.frac_units(start, count)
        assert iter(nums) is nums  # an iterator: callers may resume it
        nums = list(nums)
        assert len(nums) == count
        assert p.rational or unit == SCALE
        for n, num in zip(range(start, start + count), nums):
            assert type(num) is int and 0 <= num < unit
            assert F(num, unit) == F(*frac_rep(p.frac(n)))

    @given(poly_windows())
    def test_poly_frac_chunk_is_num_over_unit(self, case):
        p, start, count = case
        unit, nums = p.frac_units(start, count)
        chunk = p.frac_chunk(start, count)
        assert chunk.dtype == np.float64
        assert chunk.tolist() == [v / unit for v in nums]

    @given(irrationals, irrationals, st.integers(0, 1 << 33), st.integers(1, 40))
    def test_bracket_kernel_matches_floor_formula(self, beta, alpha, start, count):
        b = BracketPhase(beta, alpha)
        unit, nums = b.frac_units(start, count)
        assert unit == SCALE and iter(nums) is nums
        half = SCALE >> 1  # rounded half up, as FixedReal.__mul__ rounds
        want = [((beta.mantissa * n * (alpha.mantissa * n % SCALE) + half) >> FRAC_BITS)
                % SCALE for n in range(start, start + count)]
        assert list(nums) == want
        assert b.frac_chunk(start, count).tolist() == [v / SCALE for v in want]


# the power, concatenation and interpolating-concatenation kernels against
# their per-n references; windows straddle pieces and stages

fixed_sources = st.one_of(
    st.builds(lambda a, b: PowerPhase(a, b), st.integers(1, 6), st.integers(1, 5)),
    st.builds(lambda c: PolyPhase([F(1, 3), c]), irrationals),
    st.builds(BracketPhase, irrationals, irrationals),
)
rational_sources = st.builds(PolyPhase, st.lists(rationals, min_size=1, max_size=4))
sources = st.one_of(fixed_sources, rational_sources)


def assert_kernel_matches(phase, start, count, want):
    """frac_units gives `want` (a list of Fractions) exactly, and frac_chunk
    the correctly rounded num/unit."""
    unit, nums = phase.frac_units(start, count)
    assert iter(nums) is nums
    nums = list(nums)
    assert all(type(v) is int and 0 <= v < unit for v in nums)
    assert [F(v, unit) for v in nums] == want
    chunk = phase.frac_chunk(start, count)
    assert chunk.dtype == np.float64 and chunk.tolist() == [v / unit for v in nums]


@st.composite
def concats(draw):
    gaps = draw(st.lists(st.integers(1, 30), min_size=0, max_size=5))
    bps = [0]
    for g in gaps:
        bps.append(bps[-1] + g)
    pieces = draw(st.lists(sources, min_size=len(bps), max_size=len(bps)))
    start = draw(st.integers(0, bps[-1] + 5))
    return ConcatPhase(bps, pieces), start, draw(st.integers(1, bps[-1] + 40))


@st.composite
def lagrange_windows(draw):
    """An interpolating concatenation and a window around a stage start
    or a piece boundary of its schedule."""
    source = draw(st.one_of(sources, st.builds(
        lambda a, b: ConcatPhase([0, 40], [a, b]), rational_sources, rational_sources)))
    k = draw(st.integers(1, 4))
    sched = draw(st.one_of(
        st.builds(GeometricSchedule, st.integers(1, 8)),
        st.just(LogPowerSchedule(tau=0.7, c_const=1.0, m_target=10, k=2))))
    m = draw(st.integers(1, 3))
    centre = sched.stage_start(m) + draw(st.integers(-9, 9)) * (1 << m)
    start = max(0, centre + draw(st.integers(-12, 12)))
    return build_concatenation(source, k, 10, schedule=sched), start, draw(st.integers(1, 60))


class TestBatchKernels:
    # every exponent the shape takes: the screen in frac_chunk falls back on
    # this kernel
    @given(st.integers(1, 64), st.integers(1, 64),
           st.one_of(st.integers(0, 3000), st.integers(10 ** 9, 10 ** 12)), st.integers(1, 40))
    def test_power_kernel_matches_value(self, num, den, start, count):
        p = PowerPhase(num, den)
        want = [F(p.value(n).frac_mantissa(), SCALE) for n in range(start, start + count)]
        assert_kernel_matches(p, start, count, want)

    @given(concats())
    def test_concat_kernel_matches_pieces(self, case):
        c, start, count = case
        want = [F(*frac_rep(c.frac(n))) for n in range(start, start + count)]
        assert_kernel_matches(c, start, count, want)

    @given(lagrange_windows())
    def test_lagrange_kernel_matches_lagrange_form(self, case):
        concat, start, count = case
        src, k, sched = concat.source, concat.k, concat.schedule
        want = []
        for n in range(start, start + count):
            anchor = sched.piece_start(n)
            value = sum(F(*frac_rep(src.frac(anchor + l))) * lagrange_coeff(n - anchor, l, k)
                        for l in range(k))
            want.append(value - (value.numerator // value.denominator))
        assert_kernel_matches(concat, start, count, want)
        assert all(F(*frac_rep(concat.frac(n))) == w for n, w in zip(range(start, start + 3), want))

    # the indicator's float screen rests on frac_chunk being the correctly
    # rounded num / unit for every shape; int / int rounds correctly
    ROUNDED_CASES = {
        "power": PowerPhase(5, 3),
        "table": TablePhase(lambda n: F(n * n, 7) + sqrt_const(2).mul_int(n).to_fraction(),
                            label="table"),
        "concat below 2^53": ConcatPhase([0, 20], [PolyPhase([F(1, 3), F(2, 7)]),
                                                   PolyPhase([F(1, 11), F(4, 13)])]),
        "concat between 2^53 and 2^63": ConcatPhase(
            [0, 20], [PolyPhase([F(1, 3 ** 20), F(2, 7)]), PolyPhase([F(5, 2 ** 20)])]),
        "concat above 2^63": ConcatPhase(
            [0, 20], [PolyPhase([F(1, 3)]), PolyPhase([0, sqrt_const(2)])]),
        "rational poly above 2^53": PolyPhase([F(1, 3 ** 34 + 2), F(7, 3 ** 34 + 2)]),
    }

    @pytest.mark.parametrize("name", ROUNDED_CASES)
    @given(start=st.integers(0, 200), count=st.integers(1, 60))
    def test_frac_chunk_is_correctly_rounded(self, name, start, count):
        phase = self.ROUNDED_CASES[name]
        unit, nums = phase.frac_units(start, count)
        assert phase.frac_chunk(start, count).tolist() == [num / unit for num in nums]

    def test_only_phase_defines_the_derived_methods(self):
        # but the power's frac_chunk, a screen in front of the kernel that
        # TestPowerScreen holds byte-identical to Phase.frac_chunk
        shapes = (PolyPhase, BracketPhase, PowerPhase, TablePhase, ConcatPhase,
                  ScheduledLagrangeConcat)
        for cls in shapes:
            assert cls.frac_units is Phase.frac_units
            assert (cls.frac_chunk is Phase.frac_chunk) == (cls is not PowerPhase)

    def test_table_phase_takes_an_oracle_only(self):
        t = TablePhase(lambda n: FixedReal(n << (FRAC_BITS - 2), 1), err_ulp=1, label="q")
        assert list(t.frac_units(0, 5)[1]) == [0, SCALE // 4, SCALE // 2, 3 * SCALE // 4, 0]
        with pytest.raises(TypeError):
            TablePhase(values=[0, 1])

    def test_concatenation_source_must_be_a_phase(self):
        with pytest.raises(TypeError, match="must be a Phase"):
            build_concatenation(lambda n: F(n, 3), 2, 10)

    def test_rational_table_source_bound_counts_the_rounding(self):
        # the kernel rounds a rational oracle value to 2^-96, and the
        # concatenation's certified bound covers it
        src = TablePhase(lambda n: F(n * n, 3), label="n^2/3")
        concat = build_concatenation(src, 2, 10, schedule=GeometricSchedule(4))
        worst = F(0)
        for n in range(300):
            anchor = concat.schedule.piece_start(n)
            exact = sum(src.frac(anchor + l) * lagrange_coeff(n - anchor, l, 2)
                        for l in range(2)) % 1
            err = abs(exact - F(*frac_rep(concat.frac(n))))
            err = min(err, 1 - err)
            assert src.err_ulp_at(n) == 1
            assert err * SCALE <= concat.err_ulp_at(n)
            worst = max(worst, err)
        assert worst > 0  # the rounding does show


def spy_roots(monkeypatch) -> list[int]:
    """The n that PowerPhase._roots is given from here on, in order."""
    seen: list[int] = []
    real = PowerPhase._roots

    def spy(self, ns):
        seen.extend(ns.tolist())  # before the roots overwrite them
        return real(self, ns)

    monkeypatch.setattr(PowerPhase, "_roots", spy)
    return seen


def budget_end(p: PowerPhase) -> int:
    """The largest 2^j <= 2^40 up to which p's time budget lets a range go."""
    for j in range(40, 0, -1):
        try:
            p.check_range(1 << j)
        except ResourceBudgetError:
            continue
        return 1 << j
    return 1


def near_boundary(num: int) -> bool:
    """num/2^96 lies within 2^-64 of 0, of 1, or of the edge of its float64's
    rounding cell, that edge taken at the smaller half-gap as the screen
    takes it: the n the screen may leave to the roots (at n <= 2^20, where
    its bound E is below 2^-68)."""
    if not 1 << 32 < num < SCALE - (1 << 32):
        return True
    d = float(num)  # correctly rounded
    m, e = math.frexp(d)
    half_gap = math.ldexp(0.25 if m == 0.5 else 0.5, e - 53)
    return abs(num - int(d)) + (1 << 32) >= half_gap


class TestPowerScreen:
    """PowerPhase.frac_chunk decides most n in double-double and is byte for
    byte Phase.frac_chunk, which takes every root."""

    @given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 16), st.floats(0, 1))
    def test_byte_identical_over_every_exponent(self, num, den, count, where):
        """At the start of the range the time budget allows, at its end and
        at a drawn point, log-uniform, in between."""
        p = PowerPhase(num, den)
        end = budget_end(p) - count
        for start in (0, int(end ** where), end):
            assert (p.frac_chunk(start, count).tobytes()
                    == Phase.frac_chunk(p, start, count).tobytes())

    @pytest.mark.parametrize("start", [0, 2 * 10 ** 5, 10 ** 7, 2 * 10 ** 7 - (1 << 16)])
    def test_byte_identical_on_whole_chunks(self, start):
        p = PowerPhase(3, 2)
        assert (p.frac_chunk(start, CHUNK).tobytes()
                == Phase.frac_chunk(p, start, CHUNK).tobytes())

    EDGES = {
        # perfect powers: f = 0, which the screen sees as 0, as just above 0
        # or (a seed below the integer) as just below 1
        "squares, pow:3/2": (3, 2, [1, 4, 9, 10 ** 6, 4471 ** 2]),
        "sixth powers, pow:7/6": (7, 6, [2 ** 6, 3 ** 6, 10 ** 6, 100 ** 6]),
        "cubes, pow:1/3": (1, 3, [8, 27, 10 ** 9, 99999 ** 3]),
        # {(m^2 + 1)^(3/2)} is about 3/(8m) for even m: f near 0, where
        # float64's cells are finer than the bound
        "m^2 + 1, pow:3/2": (3, 2, [4000 ** 2 + 1, 4096 ** 2 + 1]),
        "n = 0": (5, 3, [0]),
    }

    @pytest.mark.parametrize("name", EDGES)
    def test_forced_edges_take_the_roots(self, monkeypatch, name):
        num, den, ns = self.EDGES[name]
        p = PowerPhase(num, den)
        if name.startswith("cubes"):
            hi = p._dd_frac(np.array(ns[1:], dtype=np.float64))[0]
            assert (hi > 0.5).all()  # the screen's f is near 1 here
        seen = spy_roots(monkeypatch)
        for n in ns:
            got = p.frac_chunk(n, 1)
            assert seen[-1] == n
            assert got.tobytes() == Phase.frac_chunk(p, n, 1).tobytes()

    def test_the_scans_extremes_take_roots(self, monkeypatch):
        """By an exact scan of a chunk: the n whose numerator lies closest
        to a float64 midpoint, and the n with the smallest numerator."""
        p = PowerPhase(3, 2)
        start = 2 * 10 ** 7 - CHUNK
        nums = p._numerators(start, CHUNK).tolist()

        def to_midpoint(num: int) -> F:
            """Distance from num to the nearest midpoint of two float64s, in
            ulps of num."""
            s = num.bit_length() - 53
            if s < 1:
                return F(1)  # num is a float64
            r = num & ((1 << s) - 1)
            return F(abs(2 * r - (1 << s)), 1 << (s + 1))

        edges = [start + min(range(CHUNK), key=lambda i: to_midpoint(nums[i])),
                 start + min(range(CHUNK), key=nums.__getitem__)]
        seen = spy_roots(monkeypatch)
        for n in edges:
            got = p.frac_chunk(n - 2, 5)
            assert n in seen
            assert got.tobytes() == Phase.frac_chunk(p, n - 2, 5).tobytes()

    def test_a_range_past_2_53_takes_only_roots(self, monkeypatch):
        p = PowerPhase(1, 2)
        seen = spy_roots(monkeypatch)
        start = (1 << 53) - 3
        got = p.frac_chunk(start, 6)
        assert seen == list(range(start, start + 6))
        assert got.tobytes() == Phase.frac_chunk(p, start, 6).tobytes()

    @pytest.mark.parametrize("start", [1 << 16, 2 * 10 ** 5, 1 << 20])
    def test_roots_only_where_the_screen_cannot_decide(self, monkeypatch, start):
        p = PowerPhase(3, 2)
        near = {start + i for i, num in enumerate(p._numerators(start, CHUNK).tolist())
                if near_boundary(num)}
        seen = spy_roots(monkeypatch)
        p.frac_chunk(start, CHUNK)
        assert len(seen) < 0.01 * CHUNK
        assert set(seen) <= near
        # the longest run with no perfect power and no near-boundary n
        # takes no root at all
        edges = sorted(near | {start - 1, start + CHUNK})
        lo, hi = max(zip(edges, edges[1:]), key=lambda e: e[1] - e[0])
        seen.clear()
        p.frac_chunk(lo + 1, hi - lo - 1)
        assert hi - lo - 1 > 100 and seen == []

    @given(st.integers(2, 64), st.integers(1, 64), st.data())
    def test_the_bound_holds(self, den, num, data):
        """|f - {n^(num/den)}| <= E, on the circle, against a root with 160
        fractional bits, at n whose seed n^(num/den) is finite."""
        bits = min(40, 900 * den // num)
        ns = [int(2 ** x) for x in data.draw(st.lists(st.floats(1, bits),
                                                        min_size=1, max_size=8))]
        hi, lo, err = PowerPhase(num, den)._dd_frac(np.array(ns, dtype=np.float64))
        assert np.isfinite(err).all()
        for n, h, l, e in zip(ns, hi.tolist(), lo.tolist(), err.tolist()):
            root = iroot(n ** num << (160 * den), den)  # floor(y 2^160)
            d = (F(h) + F(l) - F(root, 1 << 160)) % 1
            assert min(d, 1 - d) <= F(e) + F(1, 1 << 160)


@given(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 30), st.integers(0, 40)),
                max_size=6))
def test_concat_residual_matches_the_per_n_maximum(runs):
    # samples in strided runs, the strides on both sides of the gap that
    # splits a kernel call, in any order and with repeats
    samples = [lo + i * step for lo, size, step in runs for i in range(size)]
    src = power_phase(3, 2)
    concat = build_concatenation(src, 2, 10, schedule=GeometricSchedule(4))
    if not samples:
        with pytest.raises(ValueError, match="at least one sample"):
            concat_residual(src, concat, samples)
        return
    dists = [(abs(src.frac(n).frac_mantissa() - concat.frac(n).frac_mantissa()), n)
             for n in samples]
    dists = [(min(d, SCALE - d) / SCALE, n) for d, n in dists]
    worst, arg = max(dists, key=lambda d: d[0])  # first on ties
    assert concat_residual(src, concat, samples) == ResidualReport(worst, arg, len(samples))


def test_residual_runs_stay_within_a_chunk():
    from mulab.phases import CHUNK, _runs
    assert [len(r) for r in _runs(range(2 * CHUNK + 5))] == [CHUNK, CHUNK, 5]
    assert list(_runs([3, 3, 40, 71, 200, 5])) == [[3, 3], [40, 71], [200], [5]]
    assert list(_runs([0, 31, 63])) == [[0, 31], [63]]


def test_concat_residual_reports_the_first_maximum():
    poly = PolyPhase([F(1, 3), F(-2, 7)])
    concat = build_concatenation(poly, 2, 10, schedule=GeometricSchedule(8))
    assert concat_residual(poly, concat, [9, 5, 200, 2]) == ResidualReport(0.0, 9, 4)
    with pytest.raises(ValueError, match="at least one sample"):
        concat_residual(poly, concat, [])  # a maximum over nothing is no pass


def test_precision_budget_is_not_a_parameter():
    # every caller reads RANGE_BUDGET; no caller set its own
    assert list(inspect.signature(Phase.check_range).parameters) == ["self", "n"]
    assert list(inspect.signature(eval_phase).parameters) == ["phase", "n"]
    assert list(inspect.signature(FixedReal.from_fraction).parameters) == ["x"]
