"""Phase functions f(n) with a stated precision contract for {f(n)}.

A phase evaluates to fractional parts either exactly (all-rational
coefficients, `Fraction` arithmetic throughout) or in 96-fractional-bit
fixed point with a certified error bound (irrational constants such as
sqrt2 enter only as `FixedReal`).  Each shape has a `unit` and one batch
kernel, `_numerators(start, count)`, with {f(n)} = num/unit exactly on the
representation: an int64 or object array of num, or for the fixed-point
polynomial and the bracket product a (2, count) uint64 array of num's two
words (`_limbs`): row 0 is num >> 32 and row 1 is num & (2^32 - 1).  The
shapes and kernels:

* polynomial c_0 + ... + c_d n^d: Horner's rule on integer-scaled
  coefficients; for a rational unit int64 while unit * n < 2^62, Python
  ints above; for the unit 2^96 on words, mod 2^96 with n entering as the
  words of n mod 2^96, so any integer start works
* bracket product beta n {alpha n}: in 32-bit limbs, (beta n mod 2^192)
  times {alpha n}, plus 2^95, shifted right by 96 and taken mod 2^96:
  rounded half up as `frac(n)` rounds, with a negative beta in two's
  complement; its top three limbs are packed into the two words
* power n^(a/b): iroot(n^a 2^(96 b), b) over an object array, masked
  (126-bit roots, so it stays on Python ints); its `check_range` refuses a
  range whose roots would take more than `POWER_TIME_BUDGET_S`, counting
  one root per n although `frac_chunk` takes far fewer
* concatenation, piece i (any phase) on [N_i, N_{i+1}): each piece's kernel
  on its part of the range, over the lcm of the pieces' units; its
  `check_range(n)` runs each piece's at the last n that piece covers
* interpolating concatenation of a source phase at schedule breakpoints:
  the Newton form sum_{i<k} (D^i y)(0) C(n - N_i, i) mod the unit on the
  source's node numerators y, exact because D^k vanishes on a piece; its
  `check_range(n)` also runs the source's at n + k - 1
* sum of phases (any shapes, e.g. c n + sqrt(n)): the parts' kernels over
  the lcm of their units, added mod it in Python ints; its `check_range(n)`
  runs each part's, then the precision check on the summed bound

`Phase` derives the rest from the kernel: `frac(n)` is num/unit at one n
(a `FixedReal` carrying `err_ulp_at(n)` for the unit 2^96, else a
`Fraction`), `frac_units(start, count)` is (unit, iterator over the
numerators as Python ints, built from the words where the kernel gives
words) and `frac_chunk` the correctly rounded float64 num/unit.  From words
that float rounds the high word once and adds the exact remainder, so the
final add is the only rounding; from ints it is float(num) 2^-96 for the
unit 2^96 and the quotient otherwise.  The one shape with a `frac_chunk` of
its own is the power: a screen in double-double (one Newton step from a
float64 seed, with a certified bound) decides the float of most n without a
root, and only the n it cannot decide take the kernel's exact root, so that
it stays byte-identical to the derived one.  The concatenations and the sum
need Python ints, and build them from their parts' words.  One shape keeps
a `frac` of its own: the concatenation, which returns its piece's.
Consumers walk n in batches of `CHUNK`.

Periods.  `Phase.period` is a q with {f(n + q)} = {f(n)} on the
representation, or None.  A rational polynomial's period is its unit: its
numerators are an integer polynomial mod the unit, so they depend on n mod
the unit only.  Every other shape, fixed-point polynomials included, has
None.  `PolyPhase.class_mod_constant` keys a polynomial by {c_1}..{c_d} on
the representation, so that equal keys mean phases that differ by a
constant.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _limbs
from ._util import over_lcm, read_json
from .errors import ParseError, PrecisionError, ResourceBudgetError
from .exact_calculus import frac_part, lagrange_coeff
from .fixedpoint import FRAC_BITS, SCALE, FixedReal, iroot, sqrt_const

Real = Fraction | FixedReal

#: default certified-precision requirement for {f(n)}
RANGE_BUDGET = 2.0 ** -30

#: seconds of exact roots that `PowerPhase.check_range` lets a range take,
#: as estimated by `PowerPhase._root_seconds`
POWER_TIME_BUDGET_S = 60.0

#: n per batch for every consumer of frac_units/frac_chunk.  It bounds the
#: batch's arrays: 16 bytes per n for the words, 48 for an object array of
#: 96-bit ints (40 per int, 8 per slot), where a whole 1e6-term prefix
#: would take ~46 MiB per array.  The word kernels work in _limbs.BLOCK n
CHUNK = 1 << 16


def frac_rep(v: Real) -> tuple[int, int]:
    """(numerator, unit) with {v} = numerator/unit exactly on the representation."""
    if isinstance(v, FixedReal):
        return v.frac_mantissa(), SCALE
    f = frac_part(v)
    return f.numerator, f.denominator


def _as_real(value) -> Real:
    if isinstance(value, (FixedReal, Fraction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot treat {value!r} as an exact real")


class Phase:
    """Base class; a shape sets `unit` and implements `_numerators`,
    err_ulp_at() and describe(), and a periodic one sets `period`."""

    period: int | None = None
    unit: int = SCALE

    def err_ulp_at(self, n: int) -> int:
        """Certified |true {f(n)} - represented| bound, in units of 2^-96."""
        raise NotImplementedError

    def err_bound(self, n: int) -> float:
        return self.err_ulp_at(n) * 2.0 ** -FRAC_BITS

    def check_range(self, n: int) -> None:
        bound = self.err_bound(n)
        if bound > RANGE_BUDGET:
            raise PrecisionError(
                f"{self.describe()}: error bound {bound:.3e} at n={n} "
                f"exceeds budget {RANGE_BUDGET:.3e}"
            )

    def describe(self) -> str:
        raise NotImplementedError

    # the batch kernel and what derives from it ------------------------------

    def _numerators(self, start: int, count: int) -> np.ndarray:
        """num in [0, unit) with {f(n)} = num/unit on the representation for
        n = start .. start+count-1: an int64 or object array, or for the
        unit 2^96 a (2, count) uint64 array of num's words (`_limbs`)."""
        raise NotImplementedError

    def frac(self, n: int) -> Real:
        """{f(n)} = num/unit at one n: a FixedReal carrying err_ulp_at(n) for
        the unit 2^96, else a Fraction."""
        num = int(_ints(self._numerators(n, 1))[0])
        if self.unit == SCALE:
            return FixedReal(num, self.err_ulp_at(n))
        return Fraction(num, self.unit)

    def frac_units(self, start: int, count: int) -> tuple[int, Iterator[int]]:
        """(unit, iterator over the numerators as Python ints)."""
        return self.unit, iter(_ints(self._numerators(start, count)).tolist())

    def frac_chunk(self, start: int, count: int) -> np.ndarray:
        """Float64 num/unit, correctly rounded, for n = start .. start+count-1."""
        nums = self._numerators(start, count)
        if nums.ndim == 2:
            return _limbs.to_float(nums)
        if self.unit == SCALE:
            return nums.astype(np.float64) * 2.0 ** -FRAC_BITS  # exact scaling
        if self.unit > 1 << 53:  # int64 -> float64 would round num first
            nums = nums.astype(object)
        return np.asarray(nums / self.unit, dtype=np.float64)


def _ints(nums: np.ndarray) -> np.ndarray:
    """A kernel's numerators as a 1-d int64 or object array: words become
    Python ints."""
    return _limbs.to_ints(nums) if nums.ndim == 2 else nums


def eval_phase(phase: Phase, n: int) -> tuple[float, float]:
    """({f(n)} as float in [0,1), certified error bound).

    Exact-rational phases report a bound of 0.0 (the only loss is the final
    conversion to float).  Raises PrecisionError outside the certified range.
    """
    Phase.check_range(phase, n)  # precision only: one n is not a range
    v = phase.frac(n)
    return (v.to_float() if isinstance(v, FixedReal) else float(v)), phase.err_bound(n)


# ---------------------------------------------------------------------------
# polynomial phases


def _token_str(c: Real) -> str:
    if isinstance(c, FixedReal):
        return c.label or f"fix({c.to_float():.12g})"
    return str(c)


class PolyPhase(Phase):
    """f(n) = sum c_i n^i; exact when every coefficient is rational."""

    def __init__(self, coeffs: Sequence[Real | int | float]):
        cs = [_as_real(c) for c in coeffs]
        while len(cs) > 1 and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs: tuple[Real, ...] = tuple(cs) if cs else (Fraction(0),)
        self.rational = all(isinstance(c, Fraction) for c in self.coeffs)
        if self.rational:
            scaled, self.unit = over_lcm(self.coeffs)
        else:
            self._fixed = tuple(
                c if isinstance(c, FixedReal) else FixedReal.from_fraction(c)
                for c in self.coeffs
            )
            self.unit = SCALE
            scaled = [c.mantissa for c in self._fixed]
        # {f(n)} = (sum scaled_i n^i mod unit) / unit on the representation
        self._scaled = [c % self.unit for c in scaled]
        # integer scaled coefficients: the numerators depend on n mod unit only
        self.period = self.unit if self.rational else None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def describe(self) -> str:
        return "poly:" + ",".join(_token_str(c) for c in self.coeffs)

    def err_ulp_at(self, n: int) -> int:
        if self.rational:
            return 0
        return sum(c.err_ulp * abs(n) ** i for i, c in enumerate(self._fixed))

    def class_mod_constant(self) -> tuple[Fraction, ...]:
        """{c_1}, ..., {c_d} on the representation, trailing zeros dropped:
        two polynomial phases with equal keys differ by a constant mod 1."""
        key = [Fraction(c, self.unit) for c in self._scaled[1:]]
        while key and not key[-1]:
            key.pop()
        return tuple(key)

    frac_chunk = Phase.frac_chunk  # bound here too: the benchmark tracer wraps per class

    def _numerators(self, start: int, count: int) -> np.ndarray:
        """Horner's rule on the scaled coefficients, reduced mod the unit: for
        the unit 2^96 on words; else in int64, reduced every step, while no
        product can reach 2^62; else in Python ints (an object array),
        reduced once at the end."""
        if not self.rational:
            return _limbs.blocks(functools.partial(_limbs.horner, self._scaled),
                                 start, count)
        unit, cs = self.unit, self._scaled
        if unit * max(-start, start + count) < 1 << 62:
            ns = np.arange(start, start + count, dtype=np.int64)
            acc = np.full(count, cs[-1], dtype=np.int64)
            for c in reversed(cs[:-1]):
                acc = (acc * ns + c) % unit
            return acc
        # in place, so that each step frees the old ints as it goes
        ns = np.arange(start, start + count, dtype=object)
        acc = np.full(count, cs[-1], dtype=object)
        for c in reversed(cs[:-1]):
            acc *= ns
            acc += c
        acc %= unit
        return acc


def _is_zero(c: Real) -> bool:
    return c.mantissa == 0 if isinstance(c, FixedReal) else c == 0


# ---------------------------------------------------------------------------
# bracket-product phases


class BracketPhase(Phase):
    """f(n) = beta * n * {alpha * n}."""

    def __init__(self, beta: Real | int | float, alpha: Real | int | float):
        b, a = _as_real(beta), _as_real(alpha)
        self.beta = b if isinstance(b, FixedReal) else FixedReal.from_fraction(b)
        self.alpha = a if isinstance(a, FixedReal) else FixedReal.from_fraction(a)
        self._beta = _limbs.split(self.beta.mantissa, 6)  # mod 2^192
        self._alpha = _limbs.split(self.alpha.mantissa, 3)  # mod 2^96

    def describe(self) -> str:
        return f"bracket:{_token_str(self.beta)},{_token_str(self.alpha)}"

    def value(self, n: int) -> FixedReal:
        inner = FixedReal((self.alpha.mantissa * n) % SCALE, self.alpha.err_ulp * n)
        return self.beta.mul_int(n) * inner

    def err_ulp_at(self, n: int) -> int:
        return self.value(n).err_ulp

    frac_units = Phase.frac_units  # bound here too: the benchmark tracer wraps per class

    def _numerators(self, start: int, count: int) -> np.ndarray:
        """(beta n * {alpha n} + 2^95) >> 96 mod 2^96 on the mantissas,
        rounded half up as FixedReal.__mul__ rounds, in limbs, given as
        words.  With
        U = beta n {alpha n} + 2^95, floor(U / 2^96) mod 2^96 depends on
        U mod 2^192 only, so beta n may be taken mod 2^192 (in two's
        complement when it is negative)."""
        return _limbs.blocks(self._product, start, count)

    def _product(self, start: int, count: int) -> _limbs.Words:
        """The numerators' words: the top half of U's six limbs."""
        ns = _limbs.arange(start, count, 6)
        frac = _limbs.mul(self._alpha, ns, 3)  # {alpha n} 2^96
        prod = _limbs.mul(_limbs.mul(self._beta, ns, 6), frac, 6,
                          _limbs.split(SCALE >> 1, 6))
        return _limbs.from_limbs(prod[3:])


# ---------------------------------------------------------------------------
# power phases


_IROOT = np.frompyfunc(iroot, 2, 1)

# Double-double arithmetic for PowerPhase's screen (Dekker 1971, "A
# floating-point technique for extending the available precision"; Knuth,
# TAOCP vol. 2, 4.2.2): a value is hi + lo, two float64 arrays, unevaluated.


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo = a, each half of at most 26 bits, for
    |a| < 2^996 (the product by 2^27 + 1 must not overflow)."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a b) and p + e = a b exactly."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(xh, xl, yh, yl) -> tuple[np.ndarray, np.ndarray]:
    """x y in double-double within 7u^2, relative (u = 2^-53; DWTimesDW1 of
    Joldes, Muller and Popescu 2017, "Tight and rigorous error bounds for
    basic building blocks of double-word arithmetic").  A low word of None
    is zero, and x y is then exact when xl is None."""
    ch, cl = _two_prod(xh, yh)
    if xl is None:
        return ch, cl
    cl = cl + (xl * yh if yl is None else xh * yl + xl * yh)
    hi = ch + cl
    return hi, cl - (hi - ch)


def _dd_pow(m: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """m^p in double-double for m in [1/2, 1), left to right over p's bits:
    the squaring (and product by m) at bit i has its error raised to the
    2^i, and those exponents sum below 2p, so within 16 p u^2, relative."""
    hi, lo = m, None
    for bit in bin(p)[3:]:
        hi, lo = _dd_mul(hi, lo, hi, lo)
        if bit == "1":
            hi, lo = _dd_mul(hi, lo, m, None)
    return hi, np.zeros_like(m) if lo is None else lo


class PowerPhase(Phase):
    """f(n) = n^(num/den) as floor(n^(num/den) 2^96) by exact integer roots:
    within one ulp, exact when den = 1.  num/den is kept in lowest terms, so
    pow:4/2 takes no root and pow:6/4 is pow:3/2; `describe` keeps the
    exponent as written."""

    #: largest num and den: a root at 64/63 takes about 1 ms per n (one core of
    #: a 2-core Xeon VM), and exponents such as 1/10^5 would never finish
    _MAX_TERM = 64

    def __init__(self, num: int, den: int):
        if num < 1 or den < 1:
            raise ValueError("power exponent must be positive")
        if max(num, den) > self._MAX_TERM:
            raise ValueError(f"power exponent {num}/{den} needs num and den "
                             f"<= {self._MAX_TERM}")
        g = math.gcd(num, den)
        self.num, self.den = num // g, den // g
        self._written = f"pow:{num}/{den}"

    def describe(self) -> str:
        return self._written

    def err_ulp_at(self, n: int) -> int:
        return 0 if self.den == 1 or n == 0 else 1

    def _root_seconds(self, n: int) -> float:
        """Estimated seconds of one root near n: 1.2e-8 (den b)^0.85, b the
        radicand's bits; 0 when den = 1, as no root is taken.  Fitted to
        `_numerators` times at 189 points (num 1-64, den 2-64, n = 2^8,
        2^20, 2^30; one core of a 2-core Xeon VM): 170 of them took at most
        the estimate, none more than 1.7 times it."""
        if self.den == 1:
            return 0.0
        bits = self.num * int(n).bit_length() + FRAC_BITS * self.den
        return 1.2e-8 * (self.den * bits) ** 0.85

    def check_range(self, n: int) -> None:
        """The precision check, then ResourceBudgetError before any root
        when the n roots of a range up to n would take more than
        POWER_TIME_BUDGET_S seconds by `_root_seconds`."""
        super().check_range(n)
        per_n = self._root_seconds(n)
        if n * per_n > POWER_TIME_BUDGET_S:
            raise ResourceBudgetError(
                f"{self.describe()} up to n={n} needs about {n * per_n:.0f} s of "
                f"exact roots ({per_n * 1e6:.3g} us per n), over "
                f"the {POWER_TIME_BUDGET_S:.0f} s budget; lower n or the "
                f"exponent's terms")

    def _numerators(self, start: int, count: int) -> np.ndarray:
        """iroot(n^num 2^(96 den), den) mod 2^96 over an object array; zero
        when den = 1."""
        if self.den == 1:
            return np.zeros(count, dtype=np.int64)
        return self._roots(np.arange(start, start + count, dtype=object))

    def _roots(self, ns: np.ndarray) -> np.ndarray:
        """iroot(n^num 2^(96 den), den) mod 2^96 for an object array of n,
        in place as in PolyPhase._numerators: the exact root step."""
        ns **= self.num
        ns <<= FRAC_BITS * self.den
        _IROOT(ns, self.den, out=ns)
        ns &= SCALE - 1
        return ns

    def frac_chunk(self, start: int, count: int) -> np.ndarray:
        """Phase.frac_chunk, byte for byte, with a double-double screen in
        front of the roots.  An n is decided when the interval
        [f - E - 2^-96, f + E] that `_dd_frac` certifies to hold the exact
        numerator's num/2^96 lies inside (0, 1) and inside the rounding cell
        of fl(f): then every real in it rounds to fl(f), and so does num/2^96.
        The cell's half-width is taken as the smaller half-gap, that below
        fl(f), so a binade edge needs no case of its own.  Every other n
        (n <= 0, perfect powers, where f = 0, non-finite or overflowing
        intermediates, and n near a rounding boundary) takes the exact root,
        in `_roots`.  A range that starts below 0 or ends past 2^53, where
        n itself would round, takes only roots; den = 1 keeps its zeros.
        The screen works in blocks of `_limbs.BLOCK` n, which keeps its
        temporaries in cache."""
        if self.den == 1 or not 0 <= start < start + count <= 1 << 53:
            return Phase.frac_chunk(self, start, count)
        out = np.empty(count)
        exact = np.concatenate([a + self._screen(start + a, out[a : a + _limbs.BLOCK])
                                for a in range(0, count, _limbs.BLOCK)])
        if exact.size:
            nums = self._roots((exact + start).astype(object))
            out[exact] = nums.astype(np.float64) * 2.0 ** -FRAC_BITS  # exact scaling
        return out

    def _screen(self, start: int, out: np.ndarray) -> np.ndarray:
        """fl(f) into `out` for n = start .. start + out.size - 1, and the
        offsets of the n that the screen cannot decide."""
        ns = np.arange(start, start + out.size, dtype=np.int64).astype(np.float64)
        hi, lo, err = self._dd_frac(ns)
        m, e = np.frexp(hi)
        half_gap = np.ldexp(np.where(m == 0.5, 0.25, 0.5), e - 53)  # below hi
        with np.errstate(invalid="ignore"):
            # (1 + 2^-50) covers the two roundings of the sum on the left
            ok = (np.abs(lo) + err + 2.0 ** -FRAC_BITS) * (1 + 2.0 ** -50) < half_gap
        ok &= (hi > 0) & (hi < 1) & (ns > 0)
        out[...] = hi
        return np.flatnonzero(~ok)

    def _dd_frac(self, nf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hi, lo, E) per float64 n >= 1, with f = hi + lo in double-double,
        hi = fl(f), and f - {n^(num/den)} within E of an integer; E is inf
        (or nan) where the bound below does not hold.

        Write b = den, y = n^(num/den) and u = 2^-53.  The seed is
        y0 = fl(n^(num/den)) from numpy's power, which has no error
        guarantee, so nothing below trusts it.  One Newton step for
        y^b = X = n^num gives y1 = y0 + D, D = y0 (X/y0^b - 1)/b.  Both powers
        are taken on the frexp mantissas (n = m 2^e, m in [1/2, 1)) so that
        nothing overflows: X/y0^b = (m_n^num / m_y^b) 2^(e_n num - e_y b).

        Rounding.  `_dd_pow` gives m^p within 16 p u^2, relative.  The
        difference of the two scaled powers loses at most 2u of itself plus
        9 u^2 of m_y^b, and the quotient for D three roundings and one of
        using the high word of m_y^b; so the computed D' is within
        e_D = 8u|D'| + y0 (16 (num + b) + 16) u^2 / b of D.

        Newton.  With t = y/y0, t^b = 1 + b D / y0 =: 1 + s, and
        y1 - y = (y0/b) (t^b - 1 - b (t - 1)) = y0 (b-1)/2 xi^(b-2) (t-1)^2
        for some xi between 1 and t.  Where |s| <= 2^-40, which bounds t
        from computed values alone, xi^(b-2) (t-1)^2 <= 2 (s/b)^2, so
        0 <= y1 - y <= (b-1) D^2 / y0 <= (b-1) (|D'| + e_D)^2 / y0.

        Fractional part.  k = floor(y0) and y0 - k are exact, and TwoSum
        gives hi + lo = y0 - k + D' exactly.  So f - (y - k) is within
        e_D + (b-1) (|D'| + e_D)^2 / y0 of 0.  E is twice that, for the
        roundings in evaluating it; it is set to inf where
        b (|D'| + e_D) > 2^-40 y0."""
        num, b, u = self.num, self.den, 2.0 ** -53
        with np.errstate(all="ignore"):
            y0 = np.power(nf, num / b)
            mn, en = np.frexp(nf)
            my, ey = np.frexp(y0)
            xh, xl = _dd_pow(mn, num)
            ph, pl = _dd_pow(my, b)
            shift = en * num - ey * b
            xh, xl = np.ldexp(xh, shift), np.ldexp(xl, shift)
            s, e = _two_sum(xh, -ph)
            diff = s + (e + (xl - pl))
            step = y0 * (diff / ph) / b
            size = np.abs(step)
            e_step = 8 * u * size + y0 * ((16 * (num + b) + 16) * u * u / b)
            err = 2 * (e_step + (b - 1) * (size + e_step) ** 2 / y0)
            err[b * (size + e_step) > 2.0 ** -40 * y0] = np.inf
            hi, lo = _two_sum(y0 - np.floor(y0), step)
        return hi, lo, err


power_phase = PowerPhase


# ---------------------------------------------------------------------------
# sums


class SumPhase(Phase):
    """f = the sum of the phases `parts`: exact on the representations, so
    its bound is the sum of the parts' bounds.  It has no period."""

    def __init__(self, parts: Sequence[Phase]):
        self.parts = list(parts)
        self.unit = math.lcm(*(p.unit for p in self.parts))

    def describe(self) -> str:
        return "sum[" + ";".join(p.describe() for p in self.parts) + "]"

    def err_ulp_at(self, n: int) -> int:
        return sum(p.err_ulp_at(n) for p in self.parts)

    def check_range(self, n: int) -> None:
        """Each part's own check_range, so that a part's budgets (a power's
        time budget, say) hold, then the precision check on the sum."""
        for p in self.parts:
            p.check_range(n)
        super().check_range(n)

    def _numerators(self, start: int, count: int) -> np.ndarray:
        """Each part's kernel re-expressed over the lcm of the parts' units,
        summed mod it in Python ints."""
        acc = np.zeros(count, dtype=object)
        for p in self.parts:
            acc += _ints(p._numerators(start, count)).astype(object) * (self.unit // p.unit)
        acc %= self.unit
        return acc


# ---------------------------------------------------------------------------
# concatenations


class ConcatPhase(Phase):
    """Explicit concatenation: pieces[i] on [N_i, N_{i+1}), last piece open-ended."""

    def __init__(self, breakpoints: Sequence[int], pieces: Sequence[Phase]):
        bps = [int(b) for b in breakpoints]
        if not bps or bps[0] != 0:
            raise ValueError("breakpoints must start at N_0 = 0")
        if any(b >= a for b, a in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(pieces) != len(bps):
            raise ValueError("need exactly one piece per breakpoint")
        self.breakpoints = bps
        self.pieces = list(pieces)
        self.unit = math.lcm(*(p.unit for p in self.pieces))

    def _piece(self, n: int) -> Phase:
        if n < 0:
            raise ValueError("phase arguments are natural numbers")
        return self.pieces[bisect.bisect_right(self.breakpoints, n) - 1]

    def frac(self, n: int) -> Real:
        return self._piece(n).frac(n)

    def err_ulp_at(self, n: int) -> int:
        return self._piece(n).err_ulp_at(n)

    def check_range(self, n: int) -> None:
        """Each piece's own check_range at the last n it covers in [0, n],
        so that a piece's budgets (a power's time budget, say) hold on the
        part of the range it evaluates."""
        ends = [b - 1 for b in self.breakpoints[1:]] + [n]
        for piece, lo, last in zip(self.pieces, self.breakpoints, ends):
            if lo > n:
                break
            piece.check_range(min(last, n))

    def _numerators(self, start: int, count: int) -> np.ndarray:
        """Each piece's kernel on its part of the range, re-expressed over
        the lcm of the pieces' units."""
        if start < 0:
            raise ValueError("phase arguments are natural numbers")
        bps, end = self.breakpoints, start + count
        i = bisect.bisect_right(bps, start) - 1
        edges = [start, *bps[i + 1 : bisect.bisect_left(bps, end)], end]
        parts = []
        for piece, lo, hi in zip(self.pieces[i:], edges, edges[1:]):
            nums = _ints(piece._numerators(lo, hi - lo))
            if piece.unit != self.unit:
                if self.unit >= 1 << 63:  # the int64 product could overflow
                    nums = nums.astype(object)
                nums = nums * (self.unit // piece.unit)
            parts.append(nums)
        return np.concatenate(parts)

    def describe(self) -> str:
        inner = ";".join(p.describe() for p in self.pieces[:4])
        if len(self.pieces) > 4:
            inner += ";..."
        return f"concat[{inner}]"


class StageSchedule:
    """Breakpoints L_m + t*2^m, t = 0..(L_{m+1}-L_m)/2^m - 1, with L_0 = 0.

    Stage m covers [L_m, L_{m+1}) with piece gap 2^m, so gaps tend to
    infinity.  Subclasses define the raw stage start.  One finite table holds
    the starts, each rounded up to a multiple of 2^m above the one before
    (so L_m >= 2^m), and ends at the first raw start that is None or lands
    past 2^62: the last stage is open-ended.
    """

    _CEILING = 1 << 62

    def _raw_stage_start(self, m: int) -> int | None:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    @functools.cached_property
    def _starts(self) -> list[int]:
        starts = [0]
        while (raw := self._raw_stage_start(len(starts))) is not None:
            step = 1 << len(starts)
            start = -(-max(raw, starts[-1] + 1) // step) * step
            if start > self._CEILING:
                break
            starts.append(start)
        return starts

    def stage_start(self, m: int) -> int | None:
        return self._starts[m] if m < len(self._starts) else None

    def stage_of(self, n: int) -> int:
        if n < 0:
            raise ValueError("phase arguments are natural numbers")
        return bisect.bisect_right(self._starts, n) - 1

    def piece_start(self, n: int) -> int:
        m = self.stage_of(n)
        base = self.stage_start(m)
        gap = 1 << m
        return base + ((n - base) // gap) * gap

    def breakpoints(self, lo: int, hi: int) -> Iterator[int]:
        """All piece starts in [lo, hi)."""
        n = self.piece_start(max(lo, 0))
        if n < lo:
            n += 1 << self.stage_of(n)
        while n < hi:
            yield n
            n += 1 << self.stage_of(n)


class LogPowerSchedule(StageSchedule):
    """L_m = 2^m * floor(exp(log^(1/tau)(M C 2^(m k))) + 1).

    Guarantees residual <= 1/M for sources whose k-th difference decays like
    C / exp(log^tau n); tau in (5/8, 1).
    """

    def __init__(self, tau: float, c_const: float, m_target: int, k: int):
        if not 0 < tau < 1:
            raise ValueError("tau must lie in (0, 1)")
        if m_target < 1 or c_const <= 0 or k < 1:
            raise ValueError("need m_target >= 1, c_const > 0, k >= 1")
        self.tau, self.c_const, self.m_target, self.k = tau, c_const, m_target, k

    def _raw_stage_start(self, m: int) -> int | None:
        x = self.m_target * self.c_const * 2.0 ** (m * self.k)
        inner = math.log(max(x, math.e)) ** (1.0 / self.tau)
        if inner > 300:  # far past the integer ceiling; saturate
            return None
        return (1 << m) * int(math.exp(inner) + 1)

    def describe(self) -> str:
        return (f"sched[tau={self.tau},C={self.c_const},"
                f"M={self.m_target},k={self.k}]")


class GeometricSchedule(StageSchedule):
    """Exploratory schedule with L_m = base * 4^m (gap 2^m in stage m)."""

    def __init__(self, base: int = 8):
        if base < 1:
            raise ValueError("base must be >= 1")
        self.base = base

    def _raw_stage_start(self, m: int) -> int:
        return self.base * 4 ** m

    def describe(self) -> str:
        return f"geom[base={self.base}]"


class ScheduledLagrangeConcat(Phase):
    """Concatenation of the degree-<k interpolations of the phase `source`
    anchored at each schedule breakpoint N_i.  With y_l the source's
    numerator at N_i + l, the numerator at n = N_i + j is the Newton form
    sum_{i<k} (D^i y)(0) C(j, i) = sum_l y_l prod_{t != l} (j - t)/(l - t)
    mod the source's unit: exact on the source's representation."""

    def __init__(self, schedule: StageSchedule, source: Phase, k: int):
        if k < 1:
            raise ValueError("interpolation order k must be >= 1")
        if not isinstance(source, Phase):
            raise TypeError(f"concatenation source must be a Phase, not {source!r}")
        self.schedule = schedule
        self.source = source
        self.k = k
        self.unit = source.unit

    def err_ulp_at(self, n: int) -> int:
        a, k = self.schedule.piece_start(n), self.k
        return sum(self.source.err_ulp_at(a + l) * abs(lagrange_coeff(n - a, l, k))
                   for l in range(k))

    def check_range(self, n: int) -> None:
        """The precision check, then the source's own check_range over the
        nodes that a range up to n reads, so that the source's budgets (a
        power's time budget, say) hold."""
        super().check_range(n)
        self.source.check_range(n + self.k - 1)

    def describe(self) -> str:
        src = self.source.describe()
        return f"concat[deg<{self.k},{self.schedule.describe()},src={src}]"

    def _anchors(self, start: int, end: int) -> np.ndarray:
        """The piece start of each n in [start, end), stage by stage."""
        sched = self.schedule
        out = np.arange(start, end, dtype=np.int64 if end <= 1 << 62 else object)
        m, lo = sched.stage_of(start), start
        while lo < end:
            nxt = sched.stage_start(m + 1)
            hi = end if nxt is None else min(nxt, end)
            seg = out[lo - start : hi - start]
            seg -= (seg - sched.stage_start(m)) % (1 << m)
            lo, m = hi, m + 1
        return out

    def _numerators(self, start: int, count: int) -> np.ndarray:
        return self._newton(start, count)[0]

    def _newton(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """(the Newton form of every piece at once, the source's numerators)
        for n = start .. start+count-1, both in Python ints.  The node
        numerators come from one source window over [start, end + k - 1),
        which holds the source's own at every n, plus the first piece's own
        k nodes when it starts before `start`."""
        k, end, src = self.k, start + count, self.source
        anchors = self._anchors(start, end)
        first = int(anchors[0]) if count else start
        head = _ints(src._numerators(first, k)) if first < start else np.zeros(0, np.int64)
        ys = np.concatenate([head, _ints(src._numerators(start, count + k - 1))]).astype(object)
        own = ys[head.size : head.size + count]
        pos = (anchors - (start - head.size)).astype(np.intp)
        pos[anchors < start] = 0
        js = np.arange(start, end, dtype=anchors.dtype) - anchors
        acc = ys[pos]  # (D^0 y)(0) C(j, 0)
        binom = np.ones(count, dtype=object)
        for i in range(1, k):
            ys = np.diff(ys)
            binom = binom * (js - (i - 1)) // i  # C(j, i)
            acc += ys[pos] * binom
        acc %= self.unit
        return acc, own


def build_concatenation(
    source: Phase,
    k: int,
    m_target: int,
    tau: float = 0.7,
    c_const: float = 1.0,
) -> ScheduledLagrangeConcat:
    """Concatenation of interpolating polynomial phases approximating `source`
    on a `LogPowerSchedule`: the residual ||source(n) - g(n)|| is at most
    1/m_target from stage 1 on, provided ||D^k source(n)|| <= c_const /
    exp(log^tau n) holds from there.  Another schedule is
    `ScheduledLagrangeConcat(schedule, source, k)`.
    """
    return ScheduledLagrangeConcat(LogPowerSchedule(tau, c_const, m_target, k), source, k)


@dataclass
class ResidualReport:
    max_dist: float
    argmax: int
    samples: int


def concat_residual(concat: ScheduledLagrangeConcat, ns: Sequence[int]) -> ResidualReport:
    """max over sampled n of ||source(n) - concat(n)|| for the concatenation's
    source, exact on representations.

    Both sides come from one pass of the concatenation's kernel per run of
    samples that lie close together: its source window holds the source's
    numerators, over the same unit.  No samples is a ValueError: a maximum
    over nothing would read as a pass."""
    unit = concat.unit
    worst, arg = -1.0, -1
    count = 0
    for run in _runs(ns):
        lo, size = run[0], run[-1] + 1 - run[0]
        gs, ys = (a.tolist() for a in concat._newton(lo, size))
        for n in run:
            num = (ys[n - lo] - gs[n - lo]) % unit
            d = min(num, unit - num) / unit
            count += 1
            if d > worst:
                worst, arg = d, n
    if not count:
        raise ValueError("concat_residual needs at least one sample")
    return ResidualReport(worst, arg, count)


#: samples fewer than this many n apart share one call of the kernel in
#: concat_residual: a call costs about as much as a few dozen terms
_RUN_GAP = 32


def _runs(ns: Iterable[int]) -> Iterator[list[int]]:
    """ns in order, split into runs of nondecreasing samples, each less than
    _RUN_GAP after the one before and all within CHUNK of the first."""
    run: list[int] = []
    for n in ns:
        if run and not (run[-1] <= n < run[-1] + _RUN_GAP and n - run[0] < CHUNK):
            yield run
            run = []
        run.append(n)
    if run:
        yield run


# ---------------------------------------------------------------------------
# parsing


def parse_real_token(tok: str, where: str = "") -> Real:
    t = tok.strip()
    sign = 1
    if t.startswith("-"):
        sign, t = -1, t[1:]
    elif t.startswith("+"):
        t = t[1:]
    if t.startswith("sqrt"):
        try:
            m = int(t[4:])
        except ValueError:
            raise ParseError(f"bad sqrt constant {tok!r}{where}") from None
        v = sqrt_const(m)
        return -v if sign < 0 else v
    try:
        return sign * Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"unparseable real token {tok!r}{where}") from None


#: concat specs may name concat specs as pieces, this many deep
_MAX_CONCAT_DEPTH = 16


def parse_phase(text: str, base_dir: Path | None = None) -> Phase:
    """Parse a compact phase description.

    Examples: "poly:1/2,1/3", "poly:0,sqrt2", "bracket:sqrt3,sqrt2",
    "pow:3/2", "concat:@schedule.json" (a JSON object of int "breakpoints"
    and phase-string "pieces").
    """
    return _parse_phase(text, base_dir, 0)


def _parse_phase(text: str, base_dir: Path | None, depth: int) -> Phase:
    """parse_phase inside `depth` concat specs."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"phase {text!r} has no ':' separator")
    if head == "poly":
        toks = rest.split(",")
        coeffs = [
            parse_real_token(t, f" at position {i} of {text!r}")
            for i, t in enumerate(toks)
        ]
        return PolyPhase(coeffs)
    if head == "bracket":
        toks = rest.split(",")
        if len(toks) != 2:
            raise ParseError(f"bracket phase needs beta,alpha: {text!r}")
        beta = parse_real_token(toks[0], f" at position 0 of {text!r}")
        alpha = parse_real_token(toks[1], f" at position 1 of {text!r}")
        return BracketPhase(beta, alpha)
    if head == "pow":
        num, slash, den = rest.partition("/")
        try:
            return power_phase(int(num), int(den) if slash else 1)
        except ValueError as exc:
            raise ParseError(f"bad power exponent in {text!r}: {exc}") from None
    if head == "concat":
        if not rest.startswith("@"):
            raise ParseError(f"concat phase wants '@file.json': {text!r}")
        path = Path(rest[1:])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if depth >= _MAX_CONCAT_DEPTH:  # a cycle gets here too
            raise ParseError(f"{path}: 'pieces' nest concat specs more than "
                             f"{_MAX_CONCAT_DEPTH} deep")
        spec = read_json(path)
        try:
            bps, texts = spec["breakpoints"], spec["pieces"]
        except (KeyError, TypeError):
            raise ParseError(
                f"{path}: a concat spec needs 'breakpoints' and 'pieces'") from None
        if not isinstance(bps, list) or any(type(b) is not int for b in bps):
            raise ParseError(f"{path}: 'breakpoints' must be a list of ints")
        if not isinstance(texts, list) or any(type(t) is not str for t in texts):
            raise ParseError(f"{path}: 'pieces' must be a list of phase strings")
        return ConcatPhase(bps, [_parse_phase(t, base_dir, depth + 1) for t in texts])
    raise ParseError(f"unknown phase kind {head!r} in {text!r}")
