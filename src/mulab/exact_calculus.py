"""Exact-rational difference calculus.

Everything in this module is exact and performs no rounding anywhere; it
is the oracle layer the floating-point modules are tested against.  Inputs
are ints, `fractions.Fraction`s or anything `Fraction()` accepts; each
function turns its window into integer numerators over one common
denominator (`_util.over_lcm`), works on those integers, and builds
`Fraction`s only for its outputs, reduced once there.  Sequences are
windows indexed from 0; the absolute position of the window is the
caller's bookkeeping.  Every function is pure on immutable inputs: results
are bit-identical no matter how calls are scheduled across threads or
processes.

The k-th forward difference of f is
    (D^k f)(n) = sum_{l=0..k} (-1)^(k-l) C(k,l) f(n+l),
its inverse (up to an initial value) is the running sum `sigma`, and in
Newton's forward-difference form `lagrange_poly` is sum_i (D^i f)(0) C(y, i)
and `extend_y` solves D^k Y = g by k running sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from operator import mul
from typing import Iterable, Iterator, Sequence

from ._util import over_lcm
from .errors import WindowTooShortError

RationalLike = Fraction | int | str
RationalSeq = list[Fraction]


def as_fractions(values: Iterable[RationalLike]) -> RationalSeq:
    """Coerce a sequence of ints/strings/Fractions to exact Fractions."""
    return [Fraction(v) for v in values]


def frac_part(x: Fraction) -> Fraction:
    """Exact fractional part {x} in [0, 1)."""
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class RationalPoly:
    """Univariate polynomial with exact rational coefficients, ascending degree.

    The zero polynomial has degree -1 (empty coefficient tuple).
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[RationalLike]) -> "RationalPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return RationalPoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def window(self, length: int) -> RationalSeq:
        """Evaluations at 0..length-1."""
        return [self(n) for n in range(length)]


@lru_cache(maxsize=64)
def _weights(k: int) -> tuple[int, ...]:
    """The closed binomial weights (-1)^(k-l) C(k, l), l = 0..k."""
    return tuple((-1) ** (k - l) * comb(k, l) for l in range(k + 1))


def _differences(nums: list[int], k: int) -> Iterator[int]:
    """(D^k u)(n) for n = 0..len(nums)-k-1 of the integer row u, lazily."""
    w = _weights(k)
    return (sum(map(mul, w, nums[n : n + k + 1])) for n in range(len(nums) - k))


def _heads(nums: list[int]) -> list[int]:
    """The Newton heads (D^i u)(0), i = 0..len(nums)-1, of the integer row u."""
    return [sum(map(mul, _weights(i), nums)) for i in range(len(nums))]


def diff(seq: Sequence[RationalLike], k: int) -> RationalSeq:
    """k-th difference of a window, by the closed binomial formula.

    Returns the length-(J-k) sequence; agrees exactly with k applications
    of the one-step difference.
    """
    nums, d = over_lcm(seq)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k >= len(nums):
        raise WindowTooShortError(
            f"k-th difference needs window length > k ({k} >= {len(nums)})"
        )
    return [Fraction(v, d) for v in _differences(nums, k)]


def sigma(seq: Sequence[RationalLike], initial: RationalLike = 0) -> RationalSeq:
    """Running-sum inverse of the one-step difference.

    g(0) = initial and g(n+1) = g(n) + f(n), so the output has one more
    entry than the input and diff(sigma(f, c), 1) == f exactly.
    """
    nums, d = over_lcm([initial, *seq])
    return [Fraction(v, d) for v in accumulate(nums)]


def lagrange_poly(values: Sequence[RationalLike]) -> RationalPoly:
    """The unique degree-<k polynomial q with q(j) = values[j], j = 0..k-1.

    Built from the Newton form sum_{i<k} (D^i f)(0) C(y, i) on the values'
    numerators over their common denominator d: integers over d (k-1)!.
    """
    nums, d = over_lcm(values)
    k = len(nums)
    if k == 0:
        raise ValueError("lagrange_poly needs at least one value")
    total = [0] * k  # coefficients times d (k-1)!
    falling = [1]  # y(y-1)...(y-i+1), ascending degree
    scale = factorial(k - 1)  # (k-1)!/i!
    den = d * scale
    for i, head in enumerate(_heads(nums)):  # head = d (D^i f)(0)
        for deg, c in enumerate(falling):
            total[deg] += head * scale * c
        falling = [a - i * b for a, b in zip([0, *falling], [*falling, 0])]
        scale //= i + 1
    while total and not total[-1]:
        total.pop()
    return RationalPoly(tuple(Fraction(c, den) for c in total))


@lru_cache(maxsize=1 << 16)
def lagrange_coeff(n: int, j: int, k: int) -> int:
    """The integer prod_{0<=i<k, i != j} (n - i)/(j - i).

    Equals 1 at n = j, 0 at the other interpolation nodes 0..k-1, and the
    signed double-binomial closed form for n >= k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= j <= k - 1:
        raise ValueError(f"j must lie in [0, {k - 1}], got {j}")
    num = 1
    den = 1
    for i in range(k):
        if i == j:
            continue
        num *= n - i
        den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("lagrange coefficient was not an integer")
    return q


def reconstruct_coeffs(j: int, k: int) -> list[int]:
    """Coefficients a_k..a_j with
    sum_l a_l (D^k f)(n+l-k) = f(n+j) - sum_m f(n+m) prod_{i != m} (j-i)/(m-i)
    for every f and n.  a_l = C(j-l+k-1, k-1), and 0 <= a_l <= j^(k-1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if j < k:
        raise ValueError(f"need j >= k, got j={j}, k={k}")
    return [comb(j - l + k - 1, k - 1) for l in range(k, j + 1)]


def value_bound(k: int, c: RationalLike, j: int) -> Fraction:
    """The window-growth bound (k+1) * j^k * c."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if j < k:
        raise ValueError("need j >= k")
    return (k + 1) * Fraction(j) ** k * c


def value_bound_holds(seq: Sequence[RationalLike], k: int, c: RationalLike) -> bool:
    """Checker for the growth bound on a window satisfying its hypotheses.

    Hypotheses: (a) |D^k f(j)| <= c on the window, (b) f(j) in [0, c] for
    j < k.  Raises ValueError when they fail (the bound says nothing then);
    otherwise reports whether |f(j)| <= (k+1) j^k c for j = k..J-1.
    """
    xs = as_fractions(seq)
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if len(xs) <= k:
        raise WindowTooShortError("window must be longer than k")
    if any(not (0 <= xs[j] <= c) for j in range(k)):
        raise ValueError("hypothesis (b) violated: initial values outside [0, c]")
    if any(abs(d) > c for d in diff(xs, k)):
        raise ValueError("hypothesis (a) violated: |D^k f| exceeds c")
    return all(abs(xs[j]) <= value_bound(k, c, j) for j in range(k, len(xs)))


def frac_diff_equivalence(xs: Sequence[RationalLike], k: int) -> tuple[bool, bool]:
    """Evaluate the two equivalent fractional-part conditions on a window.

    (i)  {sum_l (-1)^(k-l) C(k,l) {x_{n+l}}} = 0 for n = 0..J-1-k;
    (ii) {x_n} = {sum_j {x_j} prod_{i != j} (n-i)/(j-i)} for n = 0..J-1.

    Both are decided in exact integer arithmetic on a common denominator;
    the two booleans are provably always equal.
    """
    a, d = over_lcm(xs)  # x_i scaled by d
    J = len(a)
    if not J > k >= 0:
        raise ValueError(f"need len(xs) > k >= 0, got J={J}, k={k}")
    cond1 = all(v % d == 0 for v in _differences(a, k))
    # n < k is the interpolation-node range where (ii) holds identically
    cond2 = all((sum(map(mul, row, a)) - x) % d == 0
                for row, x in zip(_lagrange_rows(J, k), a[k:]))
    return cond1, cond2


@lru_cache(maxsize=64)
def _lagrange_rows(J: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Per n = k..J-1, the row lagrange_coeff(n, j, k) for j = 0..k-1."""
    return tuple(tuple(lagrange_coeff(n, j, k) for j in range(k)) for n in range(k, J))


def extend_y(
    init: Sequence[RationalLike],
    g_vals: Sequence[RationalLike],
    m_len: int,
) -> RationalSeq:
    """The solution Y of D^k Y(j) = g(j) with Y(0..k-1) = init, on 0..m_len-1.

    D^i Y is the running sum `sigma` of D^(i+1) Y started at (D^i init)(0),
    so Y is k running sums of g, never a linear solve.  With g = 0 this
    reproduces the Lagrange extension of the initial values.
    """
    nums, d = over_lcm([*init, *g_vals])
    k = len(init)
    if m_len < k:
        raise ValueError(f"m_len must be >= k = {k}")
    if len(nums) < m_len:
        raise WindowTooShortError(
            f"need at least {m_len - k} g-values, got {len(nums) - k}"
        )
    y = nums[k:m_len]
    for head in reversed(_heads(nums[:k])):
        y = accumulate(y, initial=head)
    return [Fraction(v, d) for v in y]
