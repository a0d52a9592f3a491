"""The object-array numerator kernels of the fixed-point shapes, kept as the
oracle for the limb kernels of `mulab.phases` and their consumers in
`mulab.symbolic_blocks`.

Every numerator here is a Python int, so nothing can wrap or round on the
way: the fixed-unit Horner's rule reduces mod 2^96 once, at the end, and the
bracket product takes beta n {alpha n} whole before it shifts.  The float
is float(num) 2^-96, which Python rounds correctly.  The indicator and the
example-33 labels are the same scans as the package's, on these numerators.
"""

import math

import numpy as np

from mulab.fixedpoint import FRAC_BITS, SCALE, FixedReal, sqrt_const
from mulab.phases import CHUNK, BracketPhase, Phase, PolyPhase
from mulab.symbolic_blocks import _CASE, Example33Report, IndicatorReport, SymbolSeq


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
