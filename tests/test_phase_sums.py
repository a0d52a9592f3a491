"""Average and correlation functionals: exact small cases, triangle and
cancellation identities at the documented tolerance, and the brute-force
approximation witness with an independently re-checked certificate."""

import cmath
import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from mulab import phase_sums
from mulab.errors import PrecisionError, ResourceBudgetError
from mulab.fixedpoint import SCALE, FixedReal, sqrt_const
from mulab.phases import BracketPhase, ConcatPhase, PolyPhase, power_phase
from mulab.phase_sums import (
    SUM_TOLERANCE,
    DirichletWitness,
    SumReport,
    ap_correlation,
    blockwise_abs_average,
    checkpoint_grid,
    dirichlet_approx,
    phase_shift_correlation,
    phase_table,
    residue_masked,
    shift_self_correlation,
    short_interval_sup_average,
    unit_weights,
    weighted_average,
    zero_weights,
)
from mulab.sieves import sieve_phi

mpmath.mp.prec = 256


class TestWeights:
    def test_residue_mask(self):
        w = residue_masked(unit_weights(20), 3, 1)
        vals = w.values
        for n in range(1, 21):
            assert vals[n] == (1 if n % 3 == 1 else 0)
        assert w.label == "one|1mod3"

    def test_empty_mask_zeroes_range(self):
        w = residue_masked(unit_weights(10), 50, 45)
        assert int(np.abs(w.values).sum()) == 0

    def test_bad_mask(self):
        with pytest.raises(ValueError):
            residue_masked(unit_weights(10), 3, 3)

    @pytest.mark.parametrize("q,a", [(1, 0), (4, 0), (4, 1), (7, 6), (999_983, 5)])
    def test_mask_matches_the_modulus_formula(self, mu_weights, q, a):
        w = mu_weights.values
        want = np.where(np.arange(w.size) % q == a, w, 0)
        got = residue_masked(mu_weights, q, a)
        assert got.values.dtype == np.int8 and np.array_equal(got.values, want)

    def test_constant_weights_over_budget_fail_fast(self):
        with pytest.raises(ResourceBudgetError, match=r"need 10000000000001 bytes.*budget"):
            unit_weights(10 ** 13)


class TestCheckpointGrid:
    def test_exact_count_and_endpoint(self):
        for n, c in ((10 ** 6, 20), (1000, 7), (50, 50), (5, 10)):
            pts = checkpoint_grid(n, c)
            assert len(pts) == min(c, n)
            assert pts[-1] == n
            assert pts == sorted(set(pts))


class TestWeightedAverage:
    def test_zero_weights_vanish(self):
        rep = weighted_average(zero_weights(100), PolyPhase([0, F(1, 3)]), 100, 5)
        assert all(r.modulus == 0.0 for r in rep.rows)

    def test_mu_constant_phase_small(self, mu_weights):
        rep = weighted_average(mu_weights, PolyPhase([0]), 10, [10])
        assert rep.rows[-1].real == pytest.approx(-0.1, abs=1e-15)
        assert rep.rows[-1].imag == 0.0

    def test_triangle_inequality(self, mu_weights):
        rep = weighted_average(mu_weights, PolyPhase([0, sqrt_const(2)]),
                               5000, 10)
        assert all(r.modulus <= 1.0 + 1e-12 for r in rep.rows)

    def test_full_period_cancellation(self):
        # unit weights, linear phase a/b: any b consecutive full periods
        # cancel exactly (up to the documented accumulation tolerance)
        for a, b in ((1, 7), (3, 8), (2, 5)):
            n = b * 600
            rep = weighted_average(unit_weights(n), PolyPhase([0, F(a, b)]),
                                   n, [n])
            assert rep.rows[-1].modulus <= SUM_TOLERANCE * n

    def test_row_count_contract(self, mu_weights):
        rep = weighted_average(mu_weights, PolyPhase([0]), 10 ** 4, 20)
        assert len(rep.rows) == 20

    def test_linear_irrational_phase_decays(self, mu_weights):
        # |(1/N) sum mu(n) e(sqrt2 n)| smaller at N=1e6 than at N=1e3
        rep = weighted_average(mu_weights, PolyPhase([0, sqrt_const(2)]),
                               10 ** 6, [10 ** 3, 10 ** 6])
        mods = [m for _, m in rep.moduli()]
        assert mods[1] < mods[0]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            weighted_average(unit_weights(10), PolyPhase([0]), 100, 5)

    def test_csv_and_json_reports(self, tmp_path, mu_weights):
        rep = weighted_average(mu_weights, PolyPhase([0]), 1000, 5)
        csv_path = tmp_path / "trace.csv"
        json_path = tmp_path / "trace.json"
        rep.write_csv(csv_path)
        rep.write_json(json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "N,avg_real,avg_imag,avg_modulus"
        assert len(lines) == 6
        assert '"schema_version": 1' in json_path.read_text()


class TestBlockwise:
    def test_range_is_checked_like_the_average(self):
        # the cubic coefficient's error bound passes the budget past n = 2^22
        phase, n = PolyPhase([0, 0, 0, sqrt_const(2)]), 5 * 10 ** 6
        weights = unit_weights(n)
        with pytest.raises(PrecisionError):
            weighted_average(weights, phase, n)
        with pytest.raises(PrecisionError):
            blockwise_abs_average(weights, phase, [0, n // 2, n + 1])

    def test_unit_weights_constant_phase(self):
        avg, per_block = blockwise_abs_average(
            unit_weights(100), PolyPhase([0]), [0, 10, 40, 100]
        )
        assert per_block == [9.0, 30.0, 60.0]  # block [0,10) sums n=1..9
        assert avg == pytest.approx(0.99)

    def test_agrees_with_direct_block_sums(self, mu_weights):
        phase = PolyPhase([0, F(1, 5)])
        bps = [0, 8, 20, 50]
        avg, blocks = blockwise_abs_average(mu_weights, phase, bps)
        w = mu_weights.values
        for (lo, hi), got in zip(zip(bps, bps[1:]), blocks):
            direct = sum(
                int(w[n]) * cmath.exp(2j * math.pi * float(phase.frac(n)))
                for n in range(max(lo, 1), hi)
            )
            assert abs(abs(direct) - got) < 1e-10


class TestShortInterval:
    def test_zero_weights(self):
        fam = [PolyPhase([0])]
        assert short_interval_sup_average(zero_weights(500), fam, 100, 10) == 0.0

    def test_constant_family_unit_weights(self):
        fam = [PolyPhase([0])]
        v = short_interval_sup_average(unit_weights(500), fam, 100, 10)
        assert v == pytest.approx(1.0)

    def test_monotone_in_family(self, mu_weights):
        base = [PolyPhase([0, F(j, 8)]) for j in range(4)]
        extra = base + [PolyPhase([0, F(j, 8)]) for j in range(4, 8)]
        lo = short_interval_sup_average(mu_weights, base, 2000, 20)
        hi = short_interval_sup_average(mu_weights, extra, 2000, 20)
        assert hi >= lo

    def test_range_validation(self):
        with pytest.raises(ValueError):
            short_interval_sup_average(unit_weights(100), [PolyPhase([0])],
                                       100, 10)


class TestApCorrelation:
    def test_zero_weights(self):
        rep = ap_correlation(zero_weights(200), PolyPhase([0]), 1, 3, 50)
        assert rep.value == 0.0

    def test_unit_weights_constant_phase(self):
        rep = ap_correlation(unit_weights(200), PolyPhase([0]), 1, 3, 50)
        assert rep.value == pytest.approx(1.0)

    def test_nonnegative_and_has_comparison(self, mu_weights):
        rep = ap_correlation(mu_weights, PolyPhase([0]), 2, 10, 5000)
        assert rep.value >= 0.0
        # s = 2: s/phi(s) = 2
        assert rep.comparison == pytest.approx(
            2.0 * math.log(math.log(10)) / math.log(10)
        )

    @pytest.mark.parametrize("s", [1, 6, 97, 210, 1024])
    def test_comparison_equals_the_phi_table_value(self, s):
        rep = ap_correlation(unit_weights(10 + 3 * s), PolyPhase([0]), s, 3, 10)
        assert rep.comparison == (s / sieve_phi(s).value(s)) * math.log(math.log(3)) / math.log(3)

    def test_h_minimum(self):
        with pytest.raises(ValueError):
            ap_correlation(unit_weights(100), PolyPhase([0]), 1, 2, 10)

    def test_empty_range_rejected(self):
        for n_max in (0, -5):
            with pytest.raises(ValueError):
                ap_correlation(unit_weights(100), PolyPhase([0]), 1, 3, n_max)


class TestShiftSelfCorrelation:
    def test_constant_table(self):
        assert shift_self_correlation(np.ones(100), 7, 90) == 0.0

    def test_period_two(self):
        g = np.tile([1.0, -1.0], 100)
        assert shift_self_correlation(g, 1, 150) == pytest.approx(4.0)
        assert shift_self_correlation(g, 2, 150) == 0.0

    def test_zero_shift(self):
        rng = np.random.default_rng(131)
        g = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert shift_self_correlation(g, 0, 64) == 0.0

    def test_phase_table_input(self):
        tab = phase_table(PolyPhase([0, F(1, 2)]), 64)  # e(n/2) = (-1)^n
        assert shift_self_correlation(tab, 1, 32) == pytest.approx(4.0)
        assert shift_self_correlation(tab, 2, 32) == pytest.approx(0.0)


class TestDirichlet:
    def test_rational_exact_hit(self):
        wit = dirichlet_approx([F(1, 3)], 3)
        assert (wit.t, wit.nearest, wit.max_err) == (3, [1], 0.0)

    def test_sqrt2(self):
        wit = dirichlet_approx([sqrt_const(2)], 3)
        assert wit.t == 2 and wit.nearest == [3]
        assert wit.max_err == pytest.approx(abs(2 * math.sqrt(2) - 3), abs=1e-12)
        assert wit.max_err <= 1 / 3

    def test_integer_vector(self):
        wit = dirichlet_approx([F(5), F(7)], 4)
        assert wit.t == 1 and wit.max_err == 0.0

    def test_certificates_random(self):
        rng = random.Random(137)
        for _ in range(60):
            L = rng.randrange(1, 3)
            q = rng.randrange(2, 9)
            thetas = []
            for _ in range(L):
                if rng.random() < 0.5:
                    thetas.append(F(rng.randrange(0, 512), 512))
                else:
                    thetas.append(sqrt_const(rng.choice((2, 3, 5, 7))))
            wit = dirichlet_approx(thetas, q)
            assert 1 <= wit.t <= q ** L
            # independent re-evaluation at 384-bit precision
            for th, a in zip(thetas, wit.nearest):
                x = (mpmath.mpf(th.mantissa) / 2 ** 96
                     if not isinstance(th, F)
                     else mpmath.mpf(th.numerator) / th.denominator)
                assert abs(wit.t * x - a) <= mpmath.mpf(1) / q + mpmath.mpf(2) ** -80

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            dirichlet_approx([F(1, 3)] * 10, 8, budget=1000)

    def test_every_witness_is_strict(self):
        # no boundary fallback: the pigeonhole witness is always strict
        import dataclasses

        assert [f.name for f in dataclasses.fields(DirichletWitness)] == \
            ["t", "nearest", "max_err"]
        for q in (2, 3, 4):  # theta = 1/q: ||t theta|| = 1/q at t = 1 and q - 1
            wit = dirichlet_approx([F(1, q)], q)
            assert (wit.t, wit.nearest, wit.max_err) == (q, [1], 0.0)

    @given(st.lists(st.fractions(-3, 3, max_denominator=40)
                    | st.integers(-(1 << 97), 1 << 97).map(FixedReal),
                    min_size=1, max_size=3),
           st.integers(2, 6))
    def test_matches_a_fraction_scan(self, thetas, q):
        xs = [F(th.mantissa, SCALE) if isinstance(th, FixedReal) else th for th in thetas]
        expected = None
        for t in range(1, q ** len(xs) + 1):
            nearest = [math.floor(t * x + F(1, 2)) for x in xs]
            worst = max(abs(t * x - a) for x, a in zip(xs, nearest))
            if worst < F(1, q):
                expected = DirichletWitness(t, nearest, float(worst))
                break
        assert expected is not None  # pigeonhole: a strict witness always exists
        assert dirichlet_approx(thetas, q) == expected


class TestConcatInSums:
    def test_blockwise_equals_full_sum_at_boundaries(self, mu_weights):
        # summing a concatenation block by block or straight through is the
        # same thing; the two presentations of the average agree at block ends
        bps = [0, 16, 48, 96, 200]
        pieces = [PolyPhase([0, F(j, 7)]) for j in range(4)] + [PolyPhase([0])]
        concat = ConcatPhase(bps, pieces)
        rep = weighted_average(mu_weights, concat, 199, [199])
        w = mu_weights.values
        direct = sum(
            int(w[n]) * cmath.exp(2j * math.pi * float(concat.frac(n)))
            for n in range(1, 200)
        )
        assert abs(rep.rows[-1].real * 199 - direct.real) < 1e-9
        assert abs(rep.rows[-1].imag * 199 - direct.imag) < 1e-9


# ---------------------------------------------------------------------------
# the streamed functionals against references written out in full; a small
# phase_sums.CHUNK makes blocks, prefix restarts and window overlaps cross

SMALL_CHUNKS = (7, 64)
stream_phases = st.sampled_from(
    (PolyPhase([0]), PolyPhase([0, sqrt_const(2)]), PolyPhase([F(1, 3), F(2, 7)]))
)


def small_chunk(size):
    return mock.patch.object(phase_sums, "CHUNK", size)


def close(got, want):
    return abs(got - want) <= SUM_TOLERANCE * max(1.0, abs(want))


def terms(weights, phase, lo, hi):
    """w(n) e(f(n)) for n in [lo, hi), in one batch."""
    fr = phase.frac_chunk(lo, hi - lo)
    return weights.values[lo:hi] * np.exp(2j * np.pi * fr)


def shifted_add_ap(weights, phase, s, h, n_max):
    z = np.concatenate([[0j], terms(weights, phase, 1, n_max + h * s + 1)])
    acc = np.zeros(n_max, dtype=np.complex128)
    for l in range(1, h + 1):
        acc += z[1 + l * s : 1 + l * s + n_max]
    return float(np.mean(np.abs(acc / h) ** 2))


def whole_window_sup(weights, family, X, h):
    best = np.zeros(X)
    for p in family:
        c = np.concatenate([[0j], np.cumsum(terms(weights, p, X, 2 * X + h - 1))])
        np.maximum(best, np.abs(c[h:] - c[:-h])[:X], out=best)
    return float(best.sum()) / (X * h)


def fsum_complex(z):
    return complex(math.fsum(z.real), math.fsum(z.imag))


class TestStreamedFunctionals:
    @given(stream_phases, st.sampled_from(SMALL_CHUNKS), st.integers(1, 5),
           st.integers(3, 40), st.integers(1, 300))
    def test_ap_matches_shifted_add_loop(self, mu_weights, phase, chunk, s, h, n):
        want = shifted_add_ap(mu_weights, phase, s, h, n)
        with small_chunk(chunk):
            got = ap_correlation(mu_weights, phase, s, h, n).value
        assert close(got, want)

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_ap_integer_terms_are_exact(self, mu_weights, chunk):
        # poly:0 makes every window sum an integer: the value is the correctly
        # rounded sum_n acc(n)^2 / (h^2 N)
        s, h, n = 2, 10, 5000
        w = mu_weights.values.astype(np.int64)
        acc = sum(w[1 + l * s : 1 + l * s + n] for l in range(1, h + 1))
        with small_chunk(chunk):
            got = ap_correlation(mu_weights, PolyPhase([0]), s, h, n).value
        assert got == float(F(int((acc * acc).sum()), h * h * n))

    def test_ap_long_rotation_within_tolerance(self):
        # |sum_{l=1..h} e((n+l)/q)| = |sin(pi h/q) / sin(pi/q)| for every n
        q, h, n = 1000003, 1000, 10 ** 6
        rep = ap_correlation(unit_weights(n + h), PolyPhase([0, F(1, q)]), 1, h, n)
        want = (math.sin(math.pi * h / q) / (h * math.sin(math.pi / q))) ** 2
        assert close(rep.value, want)

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_short_interval_matches_whole_window_cumsum(self, mu_weights, chunk):
        family = [PolyPhase([F(a, 5), F(b, 8)]) for a in range(2) for b in range(8)]
        family.append(PolyPhase([0, sqrt_const(3)]))
        for X, h in ((1, 3), (50, 7), (300, 64), (1000, 20)):
            want = whole_window_sup(mu_weights, family, X, h)
            with small_chunk(chunk):
                got = short_interval_sup_average(mu_weights, family, X, h)
            assert close(got, want)

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_weighted_average_matches_per_n_fsum(self, mu_weights, chunk):
        phase = PolyPhase([0, sqrt_const(2), F(1, 3)])
        cps = [1, 7, 8, 100, 129, 2000]
        with small_chunk(chunk):
            rep = weighted_average(mu_weights, phase, 2000, cps)
        z = terms(mu_weights, phase, 1, 2001)
        for row in rep.rows:
            want = fsum_complex(z[: row.n]) / row.n
            assert close(row.real, want.real) and close(row.imag, want.imag)

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_blockwise_matches_per_n_fsum(self, mu_weights, chunk):
        phase = power_phase(3, 2)
        bps = [0, 1, 6, 70, 71, 500, 1300]
        with small_chunk(chunk):
            avg, blocks = blockwise_abs_average(mu_weights, phase, bps)
        want = [abs(fsum_complex(terms(mu_weights, phase, max(lo, 1), hi)))
                for lo, hi in zip(bps, bps[1:])]
        assert all(close(g, w) for g, w in zip(blocks, want))
        assert close(avg, math.fsum(want) / bps[-1])

    def test_working_memory_does_not_grow_with_n(self, mu_weights):
        phase = PolyPhase([0, sqrt_const(2)])
        family = [PolyPhase([0, F(j, 4)]) for j in range(4)]

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with small_chunk(4096):
            for small, large in (
                (lambda: ap_correlation(mu_weights, phase, 3, 100, 10 ** 5),
                 lambda: ap_correlation(mu_weights, phase, 3, 100, 10 ** 6 - 300)),
                (lambda: short_interval_sup_average(mu_weights, family, 4 * 10 ** 4, 50),
                 lambda: short_interval_sup_average(mu_weights, family, 4 * 10 ** 5, 50)),
                (lambda: phase_shift_correlation(phase, 1, 10 ** 5),
                 lambda: phase_shift_correlation(phase, 1, 10 ** 6)),
            ):
                assert peak(large) < 1.25 * peak(small)


# ---------------------------------------------------------------------------
# each distinct term once: periodic phases tile one period, short-interval
# families keep one member per class modulo constants


def no_period(phase):
    return mock.patch.object(phase, "period", None)


@st.composite
def unit_phases(draw):
    """A rational polynomial whose unit is exactly q (the 1/q coefficient
    forces it), q from 1 to past the patched CHUNK."""
    q = draw(st.integers(1, 150))
    cs = [F(draw(st.integers(-3 * q, 3 * q)), q), F(1, q)]
    cs += [F(draw(st.integers(0, q - 1)), q) for _ in range(draw(st.integers(0, 2)))]
    return PolyPhase(cs)


class TestPeriodicTerms:
    def test_period_is_the_unit_of_rational_polynomials_only(self):
        assert PolyPhase([F(1, 3), F(1, 4)]).period == 12
        assert PolyPhase([5]).period == 1
        for phase in (PolyPhase([0, sqrt_const(2)]), PolyPhase([F(1, 3), FixedReal(1)]),
                      BracketPhase(sqrt_const(3), sqrt_const(2)), power_phase(3, 2)):
            assert phase.period is None

    @given(unit_phases(), st.sampled_from(SMALL_CHUNKS), st.integers(0, 400),
           st.integers(0, 600), st.booleans())
    def test_tiled_terms_are_the_per_n_terms(self, mu_weights, phase, chunk, lo, length, weighted):
        w = mu_weights.values if weighted else None
        with small_chunk(chunk):
            got = phase_sums._terms(phase, lo, lo + length, w)
            with no_period(phase):
                want = phase_sums._terms(phase, lo, lo + length, w)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("phase", [
        PolyPhase([0]), PolyPhase([F(1, 3), F(2, 7), F(5, 11)]),
        PolyPhase([0, F(1, 210000)]), PolyPhase([F(7, 4), F(1, 5), F(3, 10)]),
    ], ids=str)
    def test_functionals_are_bit_identical(self, mu_weights, phase):
        def outputs():
            avg = weighted_average(mu_weights, phase, 300_000, 20)
            return (
                [(r.real, r.imag) for r in avg.rows],
                blockwise_abs_average(mu_weights, phase, [0, 1, 17, 1000, 70001]),
                phase_table(phase, 70_001).tobytes(),
                [ap_correlation(mu_weights, phase, s, h, 100_000).value
                 for s, h in ((1, 10), (3, 100))],
                phase_shift_correlation(phase, 3, 100_000),
            )
        got = outputs()
        with no_period(phase):
            assert outputs() == got


def grid_family(g):
    return [PolyPhase([F(a0, g), F(a1, g)]) for a0 in range(g) for a1 in range(g)]


class TestClassesModuloConstants:
    def test_keys(self):
        key = PolyPhase.class_mod_constant
        assert key(PolyPhase([F(1, 3), F(1, 4)])) == key(PolyPhase([0, F(5, 4)]))
        assert key(PolyPhase([F(1, 3), F(1, 4), 2])) == (F(1, 4),)
        assert key(PolyPhase([F(1, 2)])) == key(PolyPhase([sqrt_const(2)])) == ()
        s3 = sqrt_const(3)
        assert key(PolyPhase([sqrt_const(2), s3])) == key(PolyPhase([0, s3 + FixedReal(1 << 96)]))
        assert key(PolyPhase([0, s3])) != key(PolyPhase([0, F(1, 4)]))
        assert len({key(p) for p in grid_family(16)}) == 16

    def test_shuffled_family_equals_its_representatives(self, mu_weights):
        s2, s3 = sqrt_const(2), sqrt_const(3)
        reps = [PolyPhase([0, F(1, 4)]), PolyPhase([0, F(1, 3), F(1, 5)]),
                PolyPhase([F(1, 9), s2]), PolyPhase([0, s3, F(1, 7)]),
                BracketPhase(s3, s2), BracketPhase(s2, s3)]
        others = [
            PolyPhase([F(1, 2), F(5, 4)]),            # 1/4 shifted by an integer
            PolyPhase([0, F(1, 4)]),                  # a duplicate
            PolyPhase([3, F(4, 3), F(-9, 5)]),        # integers added everywhere
            PolyPhase([s3, s2 + FixedReal(5 << 96)]),  # fixed point, integer apart
            PolyPhase([F(2, 3), s3, F(8, 7)]),
        ]
        shuffled = reps + others
        random.Random(7).shuffle(shuffled)
        for X, h in ((300, 20), (1000, 7)):
            want = short_interval_sup_average(mu_weights, reps, X, h)
            assert close(want, whole_window_sup(mu_weights, shuffled, X, h))
            assert close(short_interval_sup_average(mu_weights, shuffled, X, h), want)
            assert short_interval_sup_average(mu_weights, reps + others, X, h) == want

    def test_every_member_is_range_checked(self, mu_weights):
        coarse = PolyPhase([0, 0, FixedReal(1 << 90, err_ulp=1 << 70)])
        with pytest.raises(PrecisionError):
            short_interval_sup_average(mu_weights, [PolyPhase([0]), coarse], 1000, 10)


class TestShiftCorrelationStream:
    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    def test_matches_the_table_version(self, chunk):
        for phase in (PolyPhase([0, sqrt_const(2)]), PolyPhase([F(1, 3), F(2, 7)]),
                      BracketPhase(sqrt_const(3), sqrt_const(2))):
            for shift, n in ((0, 50), (1, 300), (5, 129), (100, 333), (700, 64)):
                want = shift_self_correlation(phase_table(phase, n + shift), shift, n)
                with small_chunk(chunk):
                    got = phase_shift_correlation(phase, shift, n)
                assert close(got, want)

    def test_rejects_bad_arguments(self):
        for shift, n in ((-1, 10), (1, 0)):
            with pytest.raises(ValueError):
                phase_shift_correlation(PolyPhase([0]), shift, n)


def test_sum_report_holds_only_what_is_read():
    # `meta` was never set and `final` never read
    assert [f.name for f in dataclasses.fields(SumReport)] == [
        "phase", "weights", "n_max", "rows"]
    assert not hasattr(SumReport, "final")
