"""Fixed-point reals: signed mantissa scaled by 2**-96, 192-bit total width.

A `FixedReal` stores `mantissa` (a plain Python int) together with a
certified error bound `err_ulp`, meaning

    |true_value - mantissa / 2**96| <= err_ulp / 2**96.

Addition, subtraction and multiplication by integers are exact on the
representation; products of two values round once and propagate the bound.
Fractional-part extraction is exact on the representation, so comparisons
of fractional parts reduce to integer comparisons (near-tie handling is the
caller's job, via the error bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError

FRAC_BITS = 96
SCALE = 1 << FRAC_BITS
_HALF = 1 << (FRAC_BITS - 1)
_MANTISSA_LIMIT = 1 << 191  # signed 192-bit width


def _guard(mantissa: int) -> int:
    if not -_MANTISSA_LIMIT < mantissa < _MANTISSA_LIMIT:
        raise PrecisionError("fixed-point overflow: value exceeds 192-bit width")
    return mantissa


@dataclass(frozen=True)
class FixedReal:
    mantissa: int
    err_ulp: int = 0
    label: str | None = None  # constant provenance, e.g. "sqrt2"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(x: Fraction | int) -> "FixedReal":
        x = Fraction(x)
        q, r = divmod(x.numerator << FRAC_BITS, x.denominator)
        if 2 * r >= x.denominator:
            q += 1
        return FixedReal(_guard(q), 0 if r == 0 else 1)

    @staticmethod
    def sqrt_int(m: int) -> "FixedReal":
        """floor(sqrt(m) * 2**96); error at most one ulp."""
        if m < 0:
            raise ValueError("sqrt of negative integer")
        r = math.isqrt(m << (2 * FRAC_BITS))
        err = 0 if r * r == m << (2 * FRAC_BITS) else 1
        return FixedReal(_guard(r), err, f"sqrt{m}")

    # -- provenance --------------------------------------------------------

    @property
    def exact(self) -> bool:
        """True when the stored mantissa is the value (dyadic rational)."""
        return self.err_ulp == 0

    # -- arithmetic (exact on the representation unless noted) -------------

    def __add__(self, other: "FixedReal") -> "FixedReal":
        return FixedReal(_guard(self.mantissa + other.mantissa),
                         self.err_ulp + other.err_ulp)

    def __sub__(self, other: "FixedReal") -> "FixedReal":
        return FixedReal(_guard(self.mantissa - other.mantissa),
                         self.err_ulp + other.err_ulp)

    def __neg__(self) -> "FixedReal":
        return FixedReal(-self.mantissa, self.err_ulp)

    def mul_int(self, n: int) -> "FixedReal":
        return FixedReal(_guard(self.mantissa * n), self.err_ulp * abs(n))

    def __mul__(self, other: "FixedReal") -> "FixedReal":
        prod = self.mantissa * other.mantissa
        q, r = divmod(prod, SCALE)
        rounded = 0
        if 2 * r >= SCALE:
            q += 1
            rounded = 1
        elif r:
            rounded = 1
        err = (
            abs(self.mantissa) * other.err_ulp
            + abs(other.mantissa) * self.err_ulp
            + self.err_ulp * other.err_ulp
        ) // SCALE + 1 + rounded
        if rounded == 0 and self.err_ulp == 0 and other.err_ulp == 0:
            err = 0
        return FixedReal(_guard(q), err)

    # -- fractional parts and conversions ----------------------------------

    def floor(self) -> int:
        return self.mantissa >> FRAC_BITS

    def frac_mantissa(self) -> int:
        return self.mantissa & (SCALE - 1)

    def frac(self) -> "FixedReal":
        """Fractional part in [0, 1); exact on the representation."""
        return FixedReal(self.frac_mantissa(), self.err_ulp)

    def to_fraction(self) -> Fraction:
        """The represented dyadic rational (ignores the error bound)."""
        return Fraction(self.mantissa, SCALE)

    def to_float(self) -> float:
        # int / int is correctly rounded at any size
        return self.mantissa / SCALE

    def err_abs(self) -> float:
        return self.err_ulp * 2.0 ** -FRAC_BITS

    def __lt__(self, other: "FixedReal") -> bool:
        return self.mantissa < other.mantissa

    def __le__(self, other: "FixedReal") -> bool:
        return self.mantissa <= other.mantissa

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.label or "FixedReal"
        return f"{name}({self.to_float():.15g}, err_ulp={self.err_ulp})"


def iroot(x: int, r: int) -> int:
    """floor(x ** (1/r)) for nonnegative integer x, integer r >= 1."""
    if x < 0 or r < 1:
        raise ValueError("iroot needs x >= 0, r >= 1")
    if r == 1 or x in (0, 1):
        return x
    if r == 2:
        return math.isqrt(x)
    guess = 1 << ((x.bit_length() + r - 1) // r)
    while True:
        nxt = ((r - 1) * guess + x // guess ** (r - 1)) // r
        if nxt >= guess:
            break
        guess = nxt
    while guess ** r > x:
        guess -= 1
    return guess


_CONST_CACHE: dict[int, FixedReal] = {}


def sqrt_const(m: int) -> FixedReal:
    """Cached sqrt constants (sqrt2, sqrt3, ...)."""
    if m not in _CONST_CACHE:
        _CONST_CACHE[m] = FixedReal.sqrt_int(m)
    return _CONST_CACHE[m]
