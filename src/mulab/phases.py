"""Phase functions f(n) with a stated precision contract for {f(n)}.

A phase evaluates to fractional parts either exactly (all-rational
coefficients, `Fraction` arithmetic throughout) or in 96-fractional-bit
fixed point with a certified error bound (irrational constants such as
sqrt2 enter only as `FixedReal`).  Four shapes are supported:

* polynomial            c_0 + c_1 n + ... + c_d n^d
* bracket product       beta * n * {alpha * n}
* concatenation         piece i on [N_i, N_{i+1})
* table                 explicit values or a value oracle (e.g. n^{3/2})

plus a lazily-evaluated concatenation whose pieces are the degree-<k
interpolations of a source function anchored at schedule breakpoints.

Batch contract.  `frac_units(start, count)` returns `(unit, numerators)`,
an iterator over Python ints with {f(n)} = num/unit exactly on the
representation for n = start .. start+count-1; it is each shape's one
batch numerator kernel, and consumers iterate over the numerators once.
Polynomials run Horner's rule on integer-scaled coefficients (int64 while
unit * n stays below 2^62, Python ints in an object array above) and
bracket products one formula over an object array that rounds half up as
`frac(n)` does; both iterate over the finished list.  The other shapes go
through `frac(n)` one n at a time and yield as they go.  `frac_chunk` is the
correctly rounded float64 value of num/unit, from the same kernel.  The
per-n `frac` and `value` stay as the scalar reference.  Consumers walk n in
batches of `CHUNK`, which bounds the size of each batch's object arrays.

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
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ParseError, PrecisionError
from .exact_calculus import frac_part, lagrange_coeff
from .fixedpoint import FRAC_BITS, SCALE, FixedReal, iroot, sqrt_const

Real = Fraction | FixedReal

#: default certified-precision requirement for {f(n)}
RANGE_BUDGET = 2.0 ** -30

#: n per batch for every consumer of frac_units/frac_chunk; it bounds the
#: batch's object arrays, which for a whole 1e6-term prefix take ~300 MiB
CHUNK = 1 << 16


def real_to_float(v: Real) -> float:
    return v.to_float() if isinstance(v, FixedReal) else float(v)


def frac_rep(v: Real) -> tuple[int, int]:
    """(numerator, unit) with {v} = numerator/unit exactly on the representation."""
    if isinstance(v, FixedReal):
        return v.frac_mantissa(), SCALE
    f = frac_part(v)
    return f.numerator, f.denominator


def circle_dist(a: Real, b: Real) -> float:
    """Distance of a - b to the nearest integer, exact on the representations."""
    an, au = frac_rep(a)
    bn, bu = frac_rep(b)
    unit = au * bu
    num = (an * bu - bn * au) % unit
    return min(num, unit - num) / unit


def _as_real(value) -> Real:
    if isinstance(value, (FixedReal, Fraction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot treat {value!r} as an exact real")


class Phase:
    """Base class; subclasses implement frac(), err_ulp_at() and describe().

    `period` is a q with {f(n + q)} = {f(n)} on the representation for every
    n, or None when the shape promises none."""

    period: int | None = None

    def frac(self, n: int) -> Real:
        raise NotImplementedError

    def err_ulp_at(self, n: int) -> int:
        """Certified |true {f(n)} - represented| bound, in units of 2^-96."""
        raise NotImplementedError

    def err_bound(self, n: int) -> float:
        return self.err_ulp_at(n) * 2.0 ** -FRAC_BITS

    def check_range(self, n: int, budget: float = RANGE_BUDGET) -> None:
        bound = self.err_bound(n)
        if bound > budget:
            raise PrecisionError(
                f"{self.describe()}: error bound {bound:.3e} at n={n} "
                f"exceeds budget {budget:.3e}"
            )

    def describe(self) -> str:
        raise NotImplementedError

    # iteration helpers -----------------------------------------------------

    def frac_units(self, start: int, count: int) -> tuple[int, Iterator[int]]:
        """(unit, numerators): {f(n)} = num/unit on the representation for
        n = start .. start+count-1.  This per-n version goes through frac(n),
        rounds other units to 2^-96 and yields as it goes."""
        def gen() -> Iterator[int]:
            for n in range(start, start + count):
                num, u = frac_rep(self.frac(n))
                if u == SCALE:
                    yield num
                else:
                    q, r = divmod(num << FRAC_BITS, u)
                    yield q + (1 if 2 * r >= u else 0)
        return SCALE, gen()

    def frac_chunk(self, start: int, count: int) -> np.ndarray:
        """Float64 fractional parts for n = start .. start+count-1."""
        unit, nums = self.frac_units(start, count)
        return np.fromiter((v / unit for v in nums), dtype=np.float64, count=count)


def eval_phase(phase: Phase, n: int, budget: float = RANGE_BUDGET) -> tuple[float, float]:
    """({f(n)} as float in [0,1), certified error bound).

    Exact-rational phases report a bound of 0.0 (the only loss is the final
    conversion to float).  Raises PrecisionError outside the certified range.
    """
    phase.check_range(n, budget)
    v = phase.frac(n)
    return real_to_float(v), phase.err_bound(n)


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
            self._unit = math.lcm(*(c.denominator for c in self.coeffs))
            scaled = [int(c * self._unit) for c in self.coeffs]
        else:
            self._fixed = tuple(
                c if isinstance(c, FixedReal) else FixedReal.from_fraction(c)
                for c in self.coeffs
            )
            self._unit = SCALE
            scaled = [c.mantissa for c in self._fixed]
        # {f(n)} = (sum scaled_i n^i mod unit) / unit on the representation
        self._scaled = [c % self._unit for c in scaled]
        # integer scaled coefficients: the numerators depend on n mod unit only
        self.period = self._unit if self.rational else None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def describe(self) -> str:
        return "poly:" + ",".join(_token_str(c) for c in self.coeffs)

    def value(self, n: int) -> Real:
        if self.rational:
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * n + c
            return acc
        m = 0
        for c in reversed(self._fixed):
            m = m * n + c.mantissa
        return FixedReal(m, self.err_ulp_at(n))

    def frac(self, n: int) -> Real:
        v = self.value(n)
        return v.frac() if isinstance(v, FixedReal) else frac_part(v)

    def err_ulp_at(self, n: int) -> int:
        if self.rational:
            return 0
        return sum(c.err_ulp * abs(n) ** i for i, c in enumerate(self._fixed))

    def class_mod_constant(self) -> tuple[Fraction, ...]:
        """{c_1}, ..., {c_d} on the representation, trailing zeros dropped:
        two polynomial phases with equal keys differ by a constant mod 1."""
        key = [Fraction(c, self._unit) for c in self._scaled[1:]]
        while key and not key[-1]:
            key.pop()
        return tuple(key)

    def frac_units(self, start: int, count: int) -> tuple[int, Iterator[int]]:
        return self._unit, iter(self._numerators(start, count).tolist())

    def frac_chunk(self, start: int, count: int) -> np.ndarray:
        nums = self._numerators(start, count)
        if self.rational:
            if self._unit > 1 << 53:  # int64 -> float64 would round num first
                nums = nums.astype(object)
            return np.asarray(nums / self._unit, dtype=np.float64)
        return nums.astype(np.float64) * 2.0 ** -FRAC_BITS  # exact: unit 2^96

    def _numerators(self, start: int, count: int) -> np.ndarray:
        """Horner's rule on the scaled coefficients, reduced mod the unit: in
        int64, reduced every step, while no product can reach 2^62; else in
        Python ints (an object array), reduced once at the end.  Reducing
        mod 2^96 is a mask, which costs less than half of `%` here."""
        unit, cs = self._unit, self._scaled
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
        if self.rational:
            acc %= unit
        else:
            acc &= SCALE - 1
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

    def describe(self) -> str:
        return f"bracket:{_token_str(self.beta)},{_token_str(self.alpha)}"

    def _value(self, n: int) -> FixedReal:
        inner = FixedReal((self.alpha.mantissa * n) % SCALE, self.alpha.err_ulp * n)
        return self.beta.mul_int(n) * inner

    def value(self, n: int) -> FixedReal:
        return self._value(n)

    def frac(self, n: int) -> FixedReal:
        return self._value(n).frac()

    def err_ulp_at(self, n: int) -> int:
        return self._value(n).err_ulp

    def frac_units(self, start: int, count: int) -> tuple[int, Iterator[int]]:
        return SCALE, iter(self._numerators(start, count).tolist())

    def frac_chunk(self, start: int, count: int) -> np.ndarray:
        return self._numerators(start, count).astype(np.float64) * 2.0 ** -FRAC_BITS

    def _numerators(self, start: int, count: int) -> np.ndarray:
        """beta n * {alpha n} mod 2^96 on the mantissas, rounded half up as
        FixedReal.__mul__ rounds, in place as in PolyPhase._numerators."""
        ns = np.arange(start, start + count, dtype=object)
        nums = self.beta.mantissa * ns
        ns *= self.alpha.mantissa
        ns &= SCALE - 1
        nums *= ns
        nums += SCALE >> 1
        nums >>= FRAC_BITS
        nums &= SCALE - 1
        return nums


# ---------------------------------------------------------------------------
# table phases (explicit values or a value oracle)


class TablePhase(Phase):
    """Phase backed by explicit values or a value oracle n -> Real."""

    def __init__(
        self,
        values: Sequence[Real | int | float] | None = None,
        oracle: Callable[[int], Real] | None = None,
        err_ulp: int = 0,
        label: str = "table",
        length: int | None = None,
    ):
        if (values is None) == (oracle is None):
            raise ValueError("supply exactly one of values / oracle")
        self._values = [_as_real(v) for v in values] if values is not None else None
        self._oracle = oracle
        self._err = err_ulp
        self._label = label
        self.length = length if length is not None else (
            len(self._values) if self._values is not None else None
        )

    def describe(self) -> str:
        return self._label

    def value(self, n: int) -> Real:
        if self.length is not None and not 0 <= n < self.length:
            raise PrecisionError(f"{self._label}: n={n} outside table range")
        if self._values is not None:
            return self._values[n]
        return self._oracle(n)

    def frac(self, n: int) -> Real:
        v = self.value(n)
        return v.frac() if isinstance(v, FixedReal) else frac_part(v)

    def err_ulp_at(self, n: int) -> int:
        v = self.value(n)
        return v.err_ulp if isinstance(v, FixedReal) else self._err


def power_phase(num: int, den: int) -> TablePhase:
    """f(n) = n^(num/den) evaluated by exact integer roots (<= 1 ulp error)."""
    if num < 1 or den < 1:
        raise ValueError("power exponent must be positive")

    if den == 1:
        def oracle(n: int) -> FixedReal:
            return FixedReal((n ** num) << FRAC_BITS, 0)
    else:
        shift = FRAC_BITS * den

        def oracle(n: int) -> FixedReal:
            if n == 0:
                return FixedReal(0, 0)
            return FixedReal(iroot((n ** num) << shift, den), 1)

    return TablePhase(oracle=oracle, err_ulp=1, label=f"pow:{num}/{den}")


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

    def _piece(self, n: int) -> Phase:
        if n < 0:
            raise ValueError("phase arguments are natural numbers")
        return self.pieces[bisect.bisect_right(self.breakpoints, n) - 1]

    def frac(self, n: int) -> Real:
        return self._piece(n).frac(n)

    def err_ulp_at(self, n: int) -> int:
        return self._piece(n).err_ulp_at(n)

    def describe(self) -> str:
        inner = ";".join(p.describe() for p in self.pieces[:4])
        if len(self.pieces) > 4:
            inner += ";..."
        return f"concat[{inner}]"


class StageSchedule:
    """Breakpoints L_m + t*2^m, t = 0..(L_{m+1}-L_m)/2^m - 1, with L_0 = 0.

    Stage m covers [L_m, L_{m+1}) with piece gap 2^m, so gaps tend to
    infinity.  Subclasses define the raw stage start; values are fixed up to
    be strictly increasing and divisible by 2^m, and saturate to an
    open-ended final stage once they leave the practical integer range.
    """

    _CEILING = 1 << 62

    def __init__(self) -> None:
        self._starts: list[int | None] = [0]

    def _raw_stage_start(self, m: int) -> int | None:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def stage_start(self, m: int) -> int | None:
        while len(self._starts) <= m:
            i = len(self._starts)
            prev = self._starts[-1]
            if prev is None:
                self._starts.append(None)
                continue
            raw = self._raw_stage_start(i)
            if raw is None or raw > self._CEILING:
                self._starts.append(None)
                continue
            step = 1 << i
            while raw <= prev:
                raw += step
            self._starts.append(raw)
        return self._starts[m]

    def stage_of(self, n: int) -> int:
        if n < 0:
            raise ValueError("phase arguments are natural numbers")
        m = 0
        while True:
            nxt = self.stage_start(m + 1)
            if nxt is None or n < nxt:
                return m
            m += 1

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
        super().__init__()
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
        super().__init__()
        self.base = base

    def _raw_stage_start(self, m: int) -> int | None:
        v = self.base * 4 ** m
        return v if v <= self._CEILING else None

    def describe(self) -> str:
        return f"geom[base={self.base}]"


class ScheduledLagrangeConcat(Phase):
    """Concatenation of the degree-<k interpolations of `source` anchored at
    each schedule breakpoint N_i: the piece value at n is
        sum_l source(N_i + l) * prod_{t != l} (n - N_i - t)/(l - t),
    whose fractional part depends only on {source} because the coefficients
    are integers."""

    def __init__(self, schedule: StageSchedule, source, k: int):
        if k < 1:
            raise ValueError("interpolation order k must be >= 1")
        self.schedule = schedule
        self.source = source
        self.k = k
        self._node_cache: dict[int, list[Real]] = {}

    def _source_frac(self, n: int) -> Real:
        if isinstance(self.source, Phase):
            return self.source.frac(n)
        v = _as_real(self.source(n))
        return v.frac() if isinstance(v, FixedReal) else frac_part(v)

    def _nodes(self, anchor: int) -> list[Real]:
        nodes = self._node_cache.get(anchor)
        if nodes is None:
            nodes = [self._source_frac(anchor + l) for l in range(self.k)]
            if len(self._node_cache) > 64:
                self._node_cache.clear()
            self._node_cache[anchor] = nodes
        return nodes

    def value(self, n: int) -> Real:
        anchor = self.schedule.piece_start(n)
        nodes = self._nodes(anchor)
        j = n - anchor
        if isinstance(nodes[0], FixedReal):
            acc = FixedReal(0)
            for l, node in enumerate(nodes):
                acc = acc + node.mul_int(lagrange_coeff(j, l, self.k))
            return acc
        return sum(
            (node * lagrange_coeff(j, l, self.k) for l, node in enumerate(nodes)),
            Fraction(0),
        )

    def frac(self, n: int) -> Real:
        v = self.value(n)
        return v.frac() if isinstance(v, FixedReal) else frac_part(v)

    def err_ulp_at(self, n: int) -> int:
        v = self.value(n)
        return v.err_ulp if isinstance(v, FixedReal) else 0

    def describe(self) -> str:
        src = self.source.describe() if isinstance(self.source, Phase) else "oracle"
        return f"concat[deg<{self.k},{self.schedule.describe()},src={src}]"


def build_concatenation(
    source,
    k: int,
    m_target: int,
    schedule: StageSchedule | None = None,
    tau: float = 0.7,
    c_const: float = 1.0,
) -> ScheduledLagrangeConcat:
    """Concatenation of interpolating polynomial phases approximating `source`.

    With the default schedule the residual ||source(n) - g(n)|| is at most
    1/m_target from stage 1 on, provided ||D^k source(n)|| <= c_const /
    exp(log^tau n) holds from there.
    """
    if schedule is None:
        schedule = LogPowerSchedule(tau, c_const, m_target, k)
    return ScheduledLagrangeConcat(schedule, source, k)


@dataclass
class ResidualReport:
    max_dist: float
    argmax: int
    samples: int


def concat_residual(source: Phase, concat: Phase, ns: Sequence[int]) -> ResidualReport:
    """max over sampled n of ||source(n) - concat(n)||, exact on representations."""
    worst, arg = -1.0, -1
    count = 0
    for n in ns:
        d = circle_dist(source.frac(n), concat.frac(n))
        count += 1
        if d > worst:
            worst, arg = d, n
    return ResidualReport(worst, arg, count)


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


def parse_phase(text: str, base_dir: Path | None = None) -> Phase:
    """Parse a compact phase description.

    Examples: "poly:1/2,1/3", "poly:0,sqrt2", "bracket:sqrt3,sqrt2",
    "pow:3/2", "concat:@schedule.json".
    """
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
        spec = json.loads(path.read_text())
        pieces = [parse_phase(p, base_dir) for p in spec["pieces"]]
        return ConcatPhase(spec["breakpoints"], pieces)
    raise ParseError(f"unknown phase kind {head!r} in {text!r}")
