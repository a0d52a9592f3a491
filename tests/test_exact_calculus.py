"""Exact difference-calculus identities, checked against independent oracles:
the one-step difference iterated by hand, the signed double-binomial closed
form, literal evaluation of both sides of the reconstruction identity, and
the `Fraction` bodies in `exact_oracle` for the integer form."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import exact_oracle as oracle
from mulab._util import over_lcm
from mulab.errors import WindowTooShortError
from mulab.exact_calculus import (
    RationalPoly,
    diff,
    extend_y,
    frac_diff_equivalence,
    lagrange_coeff,
    lagrange_poly,
    reconstruct_coeffs,
    sigma,
    value_bound,
    value_bound_holds,
)


def diff_once(seq):
    # independent one-step oracle
    return [b - a for a, b in zip(seq, seq[1:])]


def rand_seq(rng, n):
    return [F(rng.randrange(-99, 100), rng.randrange(1, 12)) for _ in range(n)]


class TestDiff:
    def test_second_difference_of_squares(self):
        assert diff([0, 1, 4, 9, 16], 2) == [2, 2, 2]

    def test_k_zero_is_identity(self):
        seq = [F(1, 3), F(2, 5), 7]
        assert diff(seq, 0) == [F(1, 3), F(2, 5), F(7)]

    def test_closed_form_equals_iterated(self):
        rng = random.Random(11)
        for _ in range(100):
            k = rng.randrange(0, 5)
            seq = rand_seq(rng, rng.randrange(k + 1, 15))
            expected = list(seq)
            for _ in range(k):
                expected = diff_once(expected)
            assert diff(seq, k) == expected

    def test_window_too_short(self):
        with pytest.raises(WindowTooShortError):
            diff([1, 2, 3], 3)

    def test_polynomial_killed_by_degree_plus_one(self):
        rng = random.Random(5)
        for _ in range(20):
            d = rng.randrange(0, 4)
            poly = RationalPoly.from_coeffs(rand_seq(rng, d + 1))
            window = poly.window(d + 4)
            assert all(v == 0 for v in diff(window, poly.degree + 1))


class TestSigma:
    def test_counting(self):
        # one entry per partial sum 0..J: the running sum has length J+1
        assert sigma([1, 1, 1], 0) == [0, 1, 2, 3]

    def test_empty_summand(self):
        assert sigma([], 5) == [5]

    def test_inverts_diff(self):
        rng = random.Random(13)
        for _ in range(50):
            seq = rand_seq(rng, rng.randrange(1, 12))
            c = F(rng.randrange(-5, 6), rng.randrange(1, 4))
            assert diff(sigma(seq, c), 1) == seq


class TestLagrange:
    def test_constant(self):
        p = lagrange_poly([3])
        assert p.degree == 0 and p(17) == 3

    def test_identity_line(self):
        p = lagrange_poly([0, 1])
        assert p.coeffs == (F(0), F(1))

    def test_evaluation_round_trip(self):
        p = lagrange_poly([1, 2, 5])
        assert [p(j) for j in range(3)] == [1, 2, 5]

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(30):
            vals = rand_seq(rng, rng.randrange(1, 8))
            p = lagrange_poly(vals)
            assert p.degree < len(vals)
            assert [p(j) for j in range(len(vals))] == vals

    def test_zero_values_give_zero_poly(self):
        assert lagrange_poly([0, 0, 0]).degree == -1

    def test_empty_input(self):
        with pytest.raises(ValueError):
            lagrange_poly([])


def closed_form_coeff(n, j, k):
    # the signed double-binomial form, valid for n >= k
    return (-1) ** (k - j - 1) * math.comb(n - j - 1, n - k) * math.comb(n, n - j)


class TestLagrangeCoeff:
    def test_example(self):
        assert lagrange_coeff(3, 0, 2) == -2

    def test_node_cases(self):
        for k in range(1, 6):
            for j in range(k):
                for n in range(k):
                    assert lagrange_coeff(n, j, k) == (1 if n == j else 0)

    def test_matches_closed_form(self):
        for k in range(1, 7):
            for j in range(k):
                for n in range(k, 41):
                    assert lagrange_coeff(n, j, k) == closed_form_coeff(n, j, k)

    def test_bad_j(self):
        with pytest.raises(ValueError):
            lagrange_coeff(5, 2, 2)


class TestReconstruct:
    def test_telescoping_k1(self):
        for j in range(1, 8):
            assert reconstruct_coeffs(j, 1) == [1] * j

    def test_k2_j3(self):
        assert reconstruct_coeffs(3, 2) == [2, 1]

    def test_identity_on_cubes(self):
        seq = [F(n) ** 3 for n in range(10)]
        k, j = 2, 3
        coeffs = reconstruct_coeffs(j, k)
        dk = diff(seq, k)
        for n in range(len(seq) - j):
            lhs = sum(a * dk[n + l - k] for a, l in zip(coeffs, range(k, j + 1)))
            rhs = seq[n + j] - sum(
                seq[n + m] * lagrange_coeff(j, m, k) for m in range(k)
            )
            assert lhs == rhs

    def test_identity_random_exact(self):
        rng = random.Random(19)
        for _ in range(60):
            k = rng.randrange(1, 5)
            j = rng.randrange(k, 11)
            seq = rand_seq(rng, j + rng.randrange(1, 4))
            coeffs = reconstruct_coeffs(j, k)
            assert all(0 <= a <= j ** (k - 1) for a in coeffs)
            dk = diff(seq, k)
            for n in range(len(seq) - j):
                lhs = sum(
                    a * dk[n + l - k] for a, l in zip(coeffs, range(k, j + 1))
                )
                rhs = seq[n + j] - sum(
                    seq[n + m] * lagrange_coeff(j, m, k) for m in range(k)
                )
                assert lhs == rhs

    def test_j_below_k(self):
        with pytest.raises(ValueError):
            reconstruct_coeffs(2, 3)


class TestValueBound:
    def test_formula(self):
        assert value_bound(1, 1, 5) == 10

    def test_linear_window(self):
        # f(n) = n satisfies both hypotheses with c = 1 for k = 1
        assert value_bound_holds(list(range(12)), 1, 1)

    def test_hypothesis_violation_raises(self):
        with pytest.raises(ValueError):
            value_bound_holds([0, 10, 0, 0], 1, 1)  # |D f| > 1
        with pytest.raises(ValueError):
            value_bound_holds([-1, 0, 0], 1, 1)  # initial value below 0

    def test_randomized(self):
        rng = random.Random(23)
        for _ in range(200):
            k = rng.choice((1, 2, 3))
            c = F(rng.randrange(1, 20), rng.randrange(1, 7))
            J = rng.randrange(k + 1, 12)
            init = [c * F(rng.randrange(0, 101), 100) for _ in range(k)]
            g = [c * F(rng.randrange(-100, 101), 100) for _ in range(J - k)]
            assert value_bound_holds(extend_y(init, g, J), k, c)


class TestFracDiffEquivalence:
    def test_true_pair(self):
        assert frac_diff_equivalence([F(1, 5), F(1, 2), F(4, 5)], 2) == (True, True)

    def test_false_pair(self):
        assert frac_diff_equivalence([F(1, 5), F(1, 2), F(4, 5)], 1) == (False, False)

    def test_integers(self):
        for k in range(0, 3):
            assert frac_diff_equivalence([3, -7, 4, 0], k) == (True, True)

    def test_booleans_always_agree(self):
        rng = random.Random(29)
        values = [F(a, b) for b in range(1, 9) for a in range(b)]
        for _ in range(2000):
            k = rng.randrange(0, 4)
            J = rng.randrange(k + 1, 7)
            xs = [rng.choice(values) + rng.randrange(-2, 3) for _ in range(J)]
            c1, c2 = frac_diff_equivalence(xs, k)
            assert c1 == c2


class TestExtendY:
    def test_constant(self):
        assert extend_y([7], [0, 0, 0, 0], 5) == [7, 7, 7, 7, 7]

    def test_affine(self):
        assert extend_y([0, 1], [0, 0], 4) == [0, 1, 2, 3]

    def test_forward_substitution(self):
        assert extend_y([0, 0], [2, 2], 4) == [0, 0, 2, 6]

    def test_zero_g_matches_lagrange(self):
        rng = random.Random(31)
        for _ in range(30):
            k = rng.randrange(1, 5)
            init = rand_seq(rng, k)
            m_len = k + rng.randrange(0, 6)
            y = extend_y(init, [0] * m_len, m_len)
            p = lagrange_poly(init)
            assert y == [p(n) for n in range(m_len)]

    def test_diff_recovers_g(self):
        rng = random.Random(37)
        for _ in range(30):
            k = rng.randrange(1, 4)
            m_len = k + rng.randrange(1, 8)
            init = rand_seq(rng, k)
            g = rand_seq(rng, m_len - k)
            assert diff(extend_y(init, g, m_len), k) == g

    def test_insufficient_g(self):
        with pytest.raises(WindowTooShortError):
            extend_y([1, 2], [3], 5)


# ints, "p/q" strings, Fractions and many zeros, as the calculus accepts them
rational_like = st.one_of(
    st.just(0),
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 4)),
    st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)),
)


class TestNewtonFormProperties:
    """Properties that fix each result uniquely, so no second form is needed
    as an oracle."""

    @given(st.lists(rational_like, min_size=1, max_size=8))
    def test_lagrange_poly_interpolates_below_degree_k(self, values):
        p = lagrange_poly(values)
        assert p.degree < len(values)
        assert all(type(c) is F for c in p.coeffs) and p.coeffs[-1:] != (0,)
        assert p.window(len(values)) == [F(v) for v in values]

    @given(st.lists(rational_like, max_size=8), st.lists(rational_like, max_size=12),
           st.integers(0, 12))
    def test_extend_y_keeps_init_and_has_k_th_difference_g(self, init, g, extra):
        k, m_len = len(init), len(init) + min(extra, len(g))
        y = extend_y(init, g, m_len)
        assert len(y) == m_len and all(type(v) is F for v in y)
        assert y[:k] == [F(v) for v in init]
        if m_len > k:
            assert diff(y, k) == [F(v) for v in g[: m_len - k]]


class TestOverLcm:
    def test_empty(self):
        assert over_lcm([]) == ([], 1)

    def test_ints_strings_and_fractions(self):
        assert over_lcm([3, "1/4", F(-5, 6), "-7/10", True]) == ([180, 15, -50, -42, 60], 60)

    def test_negative_and_large_denominators(self):
        big = 10 ** 12 + 39  # prime
        nums, d = over_lcm([F(1, -3), F(2, big), "5", -4])
        assert d == 3 * big and nums == [-big, 6, 5 * d, -4 * d]

    @given(st.lists(st.fractions(max_denominator=10 ** 12), max_size=8))
    def test_numerators_over_the_lcm_of_the_denominators(self, values):
        nums, d = over_lcm(values)
        assert d == math.lcm(*(v.denominator for v in values))
        assert all(type(n) is int for n in nums) and [F(n, d) for n in nums] == values

    def test_bad_values_raise_what_fraction_raises(self):
        for bad, exc in (("x", ValueError), ("1/0", ZeroDivisionError), (None, TypeError)):
            with pytest.raises(exc):
                over_lcm([1, bad])

    @given(st.lists(st.one_of(
        st.integers(-10 ** 20, 10 ** 20), st.booleans(),
        st.fractions(max_denominator=10 ** 12),
        st.floats(allow_nan=False, allow_infinity=False),
        st.decimals(allow_nan=False, allow_infinity=False, places=6),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)),
        st.sampled_from(["x", "1/", "2/0"]),
    ), max_size=8))
    def test_same_as_the_fraction_property_body(self, values):
        try:
            want = oracle.over_lcm(values)
        except Exception as exc:
            with pytest.raises(type(exc)):
                over_lcm(values)
            return
        nums, d = over_lcm(values)
        assert (nums, d) == want and all(type(n) is int for n in [*nums, d])


# inputs of the differential tests: ints, "p/q" strings, zeros and Fractions
# with denominators up to 10^12
oracle_value = st.one_of(
    st.just(0),
    st.integers(-10 ** 9, 10 ** 9),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)),
    st.builds(F, st.integers(-10 ** 15, 10 ** 15), st.integers(1, 10 ** 12)),
)
# what Fraction() refuses, and what the calculus must refuse the same way
bad_value = st.sampled_from(["x", "1/0", "", None, [1], float("nan")])
window = st.lists(oracle_value, max_size=12)


def outcome(fn, *args):
    """repr of the result, or the type of the exception raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def with_bad(values, bad, at):
    values = list(values)
    values.insert(at % (len(values) + 1), bad)
    return values


class TestIntegerFormAgainstFractionOracle:
    """The integer form equals the Fraction bodies in `exact_oracle` down to
    repr, and raises the same exception types on the same bad inputs."""

    @given(window, st.integers(-2, 8))
    def test_diff(self, xs, k):
        assert outcome(diff, xs, k) == outcome(oracle.diff, xs, k)

    @given(window, oracle_value)
    def test_sigma(self, xs, c):
        assert outcome(sigma, xs, c) == outcome(oracle.sigma, xs, c)

    @given(st.lists(oracle_value, max_size=8))
    def test_lagrange_poly(self, xs):
        assert outcome(lagrange_poly, xs) == outcome(oracle.lagrange_poly, xs)

    @given(window, st.integers(-2, 8))
    def test_frac_diff_equivalence(self, xs, k):
        assert (outcome(frac_diff_equivalence, xs, k)
                == outcome(oracle.frac_diff_equivalence, xs, k))

    @given(st.lists(oracle_value, max_size=8), window, st.integers(-2, 20))
    def test_extend_y(self, init, g, m_len):
        assert outcome(extend_y, init, g, m_len) == outcome(oracle.extend_y, init, g, m_len)

    @given(window, bad_value, st.integers(0, 12), st.integers(0, 8), st.integers(0, 12))
    def test_bad_values_raise_the_same_types(self, xs, bad, at, k, m_len):
        ys = with_bad(xs, bad, at)
        pairs = [
            (diff, oracle.diff, (ys, k)),
            (sigma, oracle.sigma, (ys, 0)),
            (sigma, oracle.sigma, (xs, bad)),
            (lagrange_poly, oracle.lagrange_poly, (ys,)),
            (frac_diff_equivalence, oracle.frac_diff_equivalence, (ys, k)),
            (extend_y, oracle.extend_y, (ys, xs, m_len)),
            (extend_y, oracle.extend_y, (xs[:k], ys, m_len)),
        ]
        for new, old, args in pairs:
            got = outcome(new, *args)
            assert isinstance(got, type) and got is outcome(old, *args), new.__name__
