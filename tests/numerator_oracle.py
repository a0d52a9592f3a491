"""The object-array numerator kernels of the fixed-point shapes, kept as the
oracle for the limb kernels of `mulab.phases` and their consumers in
`mulab.symbolic_blocks`, and the per-n scalar paths of the shapes, kept as
the reference for the batch kernels that `Phase.frac` derives from.

Every numerator here is a Python int, so nothing can wrap or round on the
way: the fixed-unit Horner's rule reduces mod 2^96 once, at the end, and the
bracket product takes beta n {alpha n} whole before it shifts.  The float
is float(num) 2^-96, which Python rounds correctly.  The indicator and the
example-33 labels are the same scans as the package's, on these numerators.

The scalar paths evaluate one n at a time: the polynomial by Horner's rule
in `Fraction` or on the fixed-point mantissas, and the power by one exact
root.  `frac` gives any shape's {f(n)} as a Fraction from these, from the
bracket product's own `frac`, from a concatenation's piece, from an
interpolating concatenation's Lagrange form and from a sum's parts.
`TablePhase` is the generic phase of any function of n, evaluated per n.
"""

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from mulab.exact_calculus import frac_part, lagrange_coeff
from mulab.fixedpoint import FRAC_BITS, SCALE, FixedReal, iroot, sqrt_const
from mulab.phases import (
    CHUNK, BracketPhase, ConcatPhase, Phase, PolyPhase, PowerPhase, Real,
    ScheduledLagrangeConcat, SumPhase, frac_rep,
)
from mulab.symbolic_blocks import _CASE, Example33Report, IndicatorReport, SymbolSeq


class TablePhase(Phase):
    """Phase backed by a value oracle n -> Real: evaluated per n, its
    numerators {oracle(n)} rounded half up to 2^-96."""

    def __init__(self, oracle: Callable[[int], Real], err_ulp: int = 0,
                 label: str = "table"):
        self._oracle = oracle
        self._err = err_ulp
        self._label = label

    def describe(self) -> str:
        return self._label

    def frac(self, n: int) -> Real:
        v = self._oracle(n)
        return v.frac() if isinstance(v, FixedReal) else frac_part(v)

    def err_ulp_at(self, n: int) -> int:
        """The oracle's own bound, plus one ulp for rounding a rational value
        to 2^-96 in the batch kernel."""
        v = self._oracle(n)
        return v.err_ulp if isinstance(v, FixedReal) else self._err + 1

    def _numerators(self, start: int, count: int) -> np.ndarray:
        def rounded(n: int) -> int:
            num, u = frac_rep(self.frac(n))
            return (((num << (FRAC_BITS + 1)) + u) // (2 * u)) & (SCALE - 1)
        return np.fromiter(map(rounded, range(start, start + count)),
                           dtype=object, count=count)


def poly_value(phase: PolyPhase, n: int) -> Real:
    """f(n) by Horner's rule: a Fraction, or on the fixed-point mantissas a
    FixedReal with the phase's bound."""
    if phase.rational:
        acc = Fraction(0)
        for c in reversed(phase.coeffs):
            acc = acc * n + c
        return acc
    m = 0
    for c in reversed(phase._fixed):
        m = m * n + c.mantissa
    return FixedReal(m, phase.err_ulp_at(n))


def poly_frac(phase: PolyPhase, n: int) -> Real:
    v = poly_value(phase, n)
    return v.frac() if isinstance(v, FixedReal) else frac_part(v)


def power_value(phase: PowerPhase, n: int) -> FixedReal:
    """floor(n^(num/den) 2^96) 2^-96 by one exact root."""
    root = iroot((n ** phase.num) << (FRAC_BITS * phase.den), phase.den)
    return FixedReal(root, phase.err_ulp_at(n))


def power_frac(phase: PowerPhase, n: int) -> FixedReal:
    return power_value(phase, n).frac()


def frac(phase: Phase, n: int) -> Fraction:
    """{f(n)} on the representation, as a Fraction, from the scalar paths:
    a concatenation's piece, an interpolating concatenation's Lagrange form
    on its source's values, and a sum's parts added mod 1."""
    if isinstance(phase, PolyPhase):
        return Fraction(*frac_rep(poly_frac(phase, n)))
    if isinstance(phase, PowerPhase):
        return Fraction(*frac_rep(power_frac(phase, n)))
    if isinstance(phase, BracketPhase):
        return Fraction(*frac_rep(phase.frac(n)))
    if isinstance(phase, ConcatPhase):
        return frac(phase._piece(n), n)
    if isinstance(phase, ScheduledLagrangeConcat):
        anchor, k = phase.schedule.piece_start(n), phase.k
        return sum(frac(phase.source, anchor + l) * lagrange_coeff(n - anchor, l, k)
                   for l in range(k)) % 1
    if isinstance(phase, SumPhase):
        return sum(frac(p, n) for p in phase.parts) % 1
    raise TypeError(f"no scalar path for {phase.describe()}")


def poly_numerators(phase: PolyPhase, start: int, count: int) -> np.ndarray:
    """Horner's rule on the scaled coefficients in Python ints (an object
    array), reduced mod 2^96 once at the end."""
    cs = phase._scaled
    # in place, so that each step frees the old ints as it goes
    ns = np.arange(start, start + count, dtype=object)
    acc = np.full(count, cs[-1], dtype=object)
    for c in reversed(cs[:-1]):
        acc *= ns
        acc += c
    acc &= SCALE - 1
    return acc


def bracket_numerators(phase: BracketPhase, start: int, count: int) -> np.ndarray:
    """beta n * {alpha n} mod 2^96 on the mantissas, rounded half up as
    FixedReal.__mul__ rounds, in place as in poly_numerators."""
    ns = np.arange(start, start + count, dtype=object)
    nums = phase.beta.mantissa * ns
    ns *= phase.alpha.mantissa
    ns &= SCALE - 1
    nums *= ns
    nums += SCALE >> 1
    nums >>= FRAC_BITS
    nums &= SCALE - 1
    return nums


def numerators(phase: Phase, start: int, count: int) -> tuple[int, np.ndarray]:
    """(unit, object array of the numerators): from the kernels above for
    the fixed-point polynomial and the bracket product, else frac_units."""
    if isinstance(phase, PolyPhase) and not phase.rational:
        return SCALE, poly_numerators(phase, start, count)
    if isinstance(phase, BracketPhase):
        return SCALE, bracket_numerators(phase, start, count)
    unit, nums = phase.frac_units(start, count)
    return unit, np.fromiter(nums, dtype=object, count=count)


def frac_floats(nums: np.ndarray) -> np.ndarray:
    """float64 num 2^-96 for an object array of 96-bit numerators: the
    conversion rounds once, and the scaling is exact."""
    return nums.astype(np.float64) * 2.0 ** -FRAC_BITS


def indicator_set(p1: Phase, p2: Phase, P: int, tie_bits: int = 64):
    """1_{ {p1(n)} < {p2(n)} } and its near ties, on object arrays."""
    syms = np.empty(P, dtype=np.uint8)
    ties: list[int] = []
    tie_count = 0
    for start in range(0, P, CHUNK):
        cnt = min(CHUNK, P - start)
        u1, d = numerators(p1, start, cnt)
        u2, b = numerators(p2, start, cnt)
        unit = math.lcm(u1, u2)
        gap = -(-unit >> tie_bits)
        d *= unit // u1
        b *= unit // u2
        d -= b
        syms[start : start + cnt] = d < 0
        tied = np.flatnonzero((d > -gap) & (d < gap))
        tie_count += tied.size
        ties.extend((tied[: 64 - len(ties)] + start).tolist())
    report = IndicatorReport(P, tie_count, ties, tie_bits, p1.describe(), p2.describe())
    return SymbolSeq(syms, 2), report


def bracket_second_difference_labels(P: int):
    """The example-33 labels and report, on object arrays."""
    s2, s3 = sqrt_const(2), sqrt_const(3)
    two_s3 = s3.mul_int(2)
    a1 = (two_s3 * (s2 - FixedReal.from_fraction(1))).mantissa
    a2 = (two_s3 * (s2 - FixedReal.from_fraction(2))).mantissa
    frac_s2 = PolyPhase([0, s2])
    m3 = s3.mantissa
    labels = np.empty(P, dtype=np.uint8)
    worst, worst_n = -1, 0
    for start in range(0, P, CHUNK):
        cnt = min(CHUNK, P - start)
        fm = poly_numerators(frac_s2, start, cnt + 2)
        c0, c1, c2 = fm[:-2], fm[1:-1], fm[2:]
        up1, up2 = c1 > c0, c2 > c1
        lab = _CASE[up2.astype(np.intp), up1.astype(np.intp)]
        lab[(c0 == c1) | (c1 == c2)] = 0
        labels[start : start + cnt] = lab
        ns = np.arange(start, start + cnt + 2, dtype=object)
        fv = (m3 * ns * fm + (SCALE >> 1)) >> FRAC_BITS
        d2 = fv[2:] - 2 * fv[1:-1] + fv[:-2]
        slope = m3 * ns[:-2]
        formula = np.select([lab == 1, lab == 2, lab == 3],
                            [a1, a2, a1 + slope], a2 - slope)
        resid = np.where(lab > 0, np.abs(d2 - formula), -1)
        k = int(np.argmax(resid))
        if resid[k] > worst:
            worst, worst_n = resid[k], start + k
    counts = np.bincount(labels, minlength=5)
    ties = int(counts[0])
    report = Example33Report(
        P, tuple(int(c) for c in counts[1:]), worst / SCALE, worst_n, ties, ties == 0)
    return SymbolSeq(labels, 5), report
