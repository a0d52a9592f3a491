"""Weighted exponential-sum averages and correlation functionals.

Every functional reads one term stream, `_terms`, which builds
w(n) e(f(n)) for a range of n from the phase's `frac_chunk`, `CHUNK` n at a
time.  A phase with a period q shorter than the range (a rational
polynomial, q its unit) has only q distinct terms e(f(n)): the stream
builds one period, tiles it and multiplies by w, and every term is the
float that the per-n path gives.

The running average (1/N) sum_{n<=N} w(n) e(f(n)) keeps one pairwise numpy
sum per `CHUNK` of terms and adds them with `math.fsum` at each checkpoint;
the documented relative tolerance is 1e-12 for N up to 1e8.  The
progression correlation and the short-interval sup take their window sums
from `_window_sums`: prefix sums along each residue class, then one
difference.  They walk their outer index in blocks of `CHUNK`, each block
recomputing its h*s overlapping terms, so the prefix sums restart in every
block, rounding error does not grow with N and working memory is
O(`CHUNK` + h*s).  Windows of integer terms (poly:0) are exact.  |window
sum| does not see a polynomial's constant term, so the short-interval sup
runs one member per class modulo constants (`PolyPhase.class_mod_constant`;
other shapes are each their own class), and the value moves only by
rounding.  `phase_shift_correlation` streams the shift self-correlation of
e(f(n)) in the same blocks.

Weights are exact integers in {-1, 0, +1} (mu, lambda, constant 1,
residue-class masks).  Weight tables and phases are immutable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from ._util import DEFAULT_BUDGET_BYTES, atomic_write, write_json
from .errors import ResourceBudgetError
from .fixedpoint import SCALE, FixedReal
from .phases import CHUNK, Phase, PolyPhase
from .sieves import MobiusTable, euler_phi

#: documented accumulation tolerance for |average| identities
SUM_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# weights


@dataclass
class WeightTable:
    """w[n] for 1 <= n <= n_max, exact int8 in {-1, 0, +1}; w[0] = 0."""

    values: np.ndarray
    label: str

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.int8)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("weight table needs entries for n >= 1")
        if self.values[0]:
            self.values[0] = 0

    @property
    def n_max(self) -> int:
        return self.values.size - 1


def weights_from_table(table: MobiusTable) -> WeightTable:
    """The table's own cached, read-only weight array, not a copy."""
    return WeightTable(table.weight_array(), table.label)


def _constant_weights(n_max: int, value: int, label: str) -> WeightTable:
    if n_max + 1 > DEFAULT_BUDGET_BYTES:
        raise ResourceBudgetError(
            f"constant weights for n_max={n_max} need {n_max + 1} bytes, over "
            f"the {DEFAULT_BUDGET_BYTES}-byte budget; lower n_max")
    return WeightTable(np.full(n_max + 1, value, dtype=np.int8), label)


def unit_weights(n_max: int) -> WeightTable:
    return _constant_weights(n_max, 1, "one")


def zero_weights(n_max: int) -> WeightTable:
    return _constant_weights(n_max, 0, "zero")


def residue_masked(base: WeightTable, q: int, a: int) -> WeightTable:
    """Keep w(n) only on n = a (mod q)."""
    if q < 1 or not 0 <= a < q:
        raise ValueError("need q >= 1 and 0 <= a < q")
    w = np.zeros_like(base.values)
    w[a::q] = base.values[a::q]
    return WeightTable(w, f"{base.label}|{a}mod{q}")


# ---------------------------------------------------------------------------
# the term stream and its windows


def _terms(phase: Phase, lo: int, hi: int, w: np.ndarray | None) -> np.ndarray:
    """w(n) e(f(n)) for n in [lo, hi), built `CHUNK` by `CHUNK`; w is the
    weight array indexed by n, or None for e(f(n)) alone.  A phase with a
    period q < hi - lo has only q distinct terms: one period is built and
    tiled, and each tiled term is the float the per-n path computes."""
    q = phase.period
    if q is not None and q < hi - lo:
        out = np.tile(_terms(phase, lo, lo + q, None), -(-(hi - lo) // q))[: hi - lo]
        if w is not None:
            out *= w[lo:hi]
        return out
    out = np.empty(hi - lo, dtype=np.complex128)
    for start in range(lo, hi, CHUNK):
        z = out[start - lo : start - lo + CHUNK]
        np.multiply(2j * np.pi, phase.frac_chunk(start, z.size), out=z)
        np.exp(z, out=z)
        if w is not None:
            z *= w[start : start + z.size]
    return out


def _window_sums(z: np.ndarray, h: int, s: int) -> np.ndarray:
    """sum_{l=1..h} z[i + l s] for i in [0, len(z) - h s): prefix sums along
    each residue class mod s, in place in z, then one difference."""
    for r in range(s):
        np.cumsum(z[r::s], out=z[r::s])
    return z[h * s :] - z[: -h * s]


# ---------------------------------------------------------------------------
# sum reports


@dataclass
class Checkpoint:
    n: int
    real: float
    imag: float

    @property
    def modulus(self) -> float:
        return math.hypot(self.real, self.imag)


@dataclass
class SumReport:
    """Running averages (1/N) sum w(n) e(f(n)) at checkpoint values of N."""

    phase: str
    weights: str
    n_max: int
    rows: list[Checkpoint]

    def moduli(self) -> list[tuple[int, float]]:
        return [(r.n, r.modulus) for r in self.rows]

    def write_csv(self, path: str | Path) -> None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["N", "avg_real", "avg_imag", "avg_modulus"])
        for r in self.rows:
            w.writerow([r.n, f"{r.real:.15e}", f"{r.imag:.15e}",
                        f"{r.modulus:.15e}"])
        atomic_write(path, buf.getvalue())

    def write_json(self, path: str | Path) -> None:
        write_json(path, {
            "schema_version": 1,
            "phase": self.phase,
            "weights": self.weights,
            "n_max": self.n_max,
            "tolerance": SUM_TOLERANCE,
            "checkpoints": [
                {"N": r.n, "real": r.real, "imag": r.imag,
                 "modulus": r.modulus}
                for r in self.rows
            ],
        })


def checkpoint_grid(n_max: int, count: int) -> list[int]:
    """`count` distinct log-spaced checkpoints in [1, n_max], ending at n_max."""
    if count < 1:
        raise ValueError("need at least one checkpoint")
    count = min(count, n_max)
    steps = max(count - 1, 1)
    pts = {min(max(int(round(n_max ** (i / steps))), 1), n_max)
           for i in range(count)}
    pts.add(n_max)
    n = 1
    while len(pts) < count and n <= n_max:  # pad after rounding collisions
        pts.add(n)
        n += 1
    return sorted(pts)


def weighted_average(
    weights: WeightTable,
    phase: Phase,
    n_max: int,
    checkpoints: int | Sequence[int] = 20,
) -> SumReport:
    """Checkpoint trace of (1/N) sum_{n=1..N} w(n) e(f(n))."""
    if n_max > weights.n_max:
        raise ValueError(
            f"n_max={n_max} exceeds weight table range {weights.n_max}"
        )
    cps = (checkpoint_grid(n_max, checkpoints)
           if isinstance(checkpoints, int) else sorted(set(checkpoints)))
    if not cps or cps[-1] > n_max or cps[0] < 1:
        raise ValueError("checkpoints must lie in [1, n_max]")
    phase.check_range(n_max)
    re_sums: list[float] = []  # one pairwise sum per CHUNK of terms
    im_sums: list[float] = []
    rows: list[Checkpoint] = []
    prev = 1
    for cp in cps:
        for start in range(prev, cp + 1, CHUNK):
            z = _terms(phase, start, min(start + CHUNK, cp + 1), weights.values)
            re_sums.append(float(np.sum(z.real)))
            im_sums.append(float(np.sum(z.imag)))
        prev = cp + 1
        rows.append(Checkpoint(cp, math.fsum(re_sums) / cp,
                               math.fsum(im_sums) / cp))
    return SumReport(phase.describe(), weights.label, n_max, rows)


def blockwise_abs_average(
    weights: WeightTable,
    phase: Phase,
    breakpoints: Sequence[int],
) -> tuple[float, list[float]]:
    """(1/N_m) sum_i |sum_{N_i <= n < N_{i+1}} w(n) e(f(n))| over the given
    breakpoints N_0 < ... < N_m (the blockwise side of the short-interval
    equivalence; its partner is `short_interval_sup_average`)."""
    bps = [int(b) for b in breakpoints]
    if len(bps) < 2 or any(b >= a for b, a in zip(bps, bps[1:])):
        raise ValueError("need at least two increasing breakpoints")
    if bps[-1] - 1 > weights.n_max:
        raise ValueError("breakpoints exceed weight range")
    phase.check_range(bps[-1] - 1)
    per_block = []
    for lo, hi in zip(bps, bps[1:]):
        z = _terms(phase, max(lo, 1), max(hi, 1), weights.values)
        per_block.append(abs(complex(np.sum(z.real), np.sum(z.imag))))
    return sum(per_block) / bps[-1], per_block


def short_interval_sup_average(
    weights: WeightTable,
    family: Sequence[Phase],
    X: int,
    h: int,
) -> float:
    """(1/(X h)) sum_{x=X}^{2X-1} max_{p in family} |sum_{x<=n<x+h} w(n) e(p(n))|.

    The integral over x in [X, 2X] is discretized at unit steps (with integer
    h the integrand is a step function between integers).  Maximizing over a
    finite family yields a lower bound for the sup over all degree-<k
    polynomials; reports must label it as such.
    """
    if h < 1 or X < 1 or not family:
        raise ValueError("need h >= 1, X >= 1, nonempty family")
    top = 2 * X + h - 1  # largest n used is 2X - 1 + h - 1
    if top > weights.n_max:
        raise ValueError(f"need weights up to {top}, have {weights.n_max}")
    for p in family:
        p.check_range(top)
    # |window sum| does not see a polynomial's constant term, so the first
    # member of each class modulo constants stands for the class
    members: dict[object, Phase] = {}
    for p in family:
        key = p.class_mod_constant() if isinstance(p, PolyPhase) else p
        members.setdefault(key, p)
    block_sums = []
    for a in range(X, 2 * X, CHUNK):
        m = min(CHUNK, 2 * X - a)
        best = np.zeros(m)
        for p in members.values():
            # the term at n = a - 1 only seeds the prefix: window i is
            # sum_{l=1..h} z[i + l], the sum over [a + i, a + i + h)
            z = _terms(p, a - 1, a + m + h - 1, weights.values)
            np.maximum(best, np.abs(_window_sums(z, h, 1)), out=best)
        block_sums.append(float(np.sum(best)))
    return math.fsum(block_sums) / (X * h)


@dataclass
class ApCorrelation:
    value: float
    comparison: float  # (s/phi(s)) * log log h / log h
    s: int
    h: int
    n_max: int


def ap_correlation(
    weights: WeightTable,
    phase: Phase,
    s: int,
    h: int,
    n_max: int,
) -> ApCorrelation:
    """(1/N) sum_{n=1..N} |(1/h) sum_{l=1..h} w(n+ls) e(f(n+ls))|^2.

    The report carries the comparison quantity (s/phi(s)) log log h / log h.
    """
    if s < 1 or h < 3 or n_max < 1:
        raise ValueError("need s >= 1, h >= 3 and n_max >= 1")
    top = n_max + h * s
    if top > weights.n_max:
        raise ValueError(f"need weights up to {top}, have {weights.n_max}")
    phase.check_range(top)
    block_sums = []
    for a in range(1, n_max + 1, CHUNK):
        m = min(CHUNK, n_max + 1 - a)
        z = _terms(phase, a, a + m + h * s, weights.values)
        block_sums.append(float(np.sum(np.abs(_window_sums(z, h, s)) ** 2)))
    value = math.fsum(block_sums) / (h * h * n_max)
    comparison = (s / euler_phi(s)) * math.log(math.log(h)) / math.log(h)
    return ApCorrelation(value, comparison, s, h, n_max)


def shift_self_correlation(values: Sequence[complex], shift: int, n_max: int) -> float:
    """(1/N) sum_{n=0}^{N-1} |g(n+shift) - g(n)|^2 over a complex table."""
    if shift < 0 or n_max < 1:
        raise ValueError("need shift >= 0, n_max >= 1")
    g = np.asarray(values, dtype=np.complex128)
    if n_max + shift > g.size:
        raise ValueError(f"table of {g.size} values cannot shift by {shift}")
    d = g[shift : shift + n_max] - g[:n_max]
    return float(np.mean(np.abs(d) ** 2))


def phase_shift_correlation(phase: Phase, shift: int, n_max: int) -> float:
    """`shift_self_correlation` of the table e(f(n)), n < n_max + shift,
    streamed: (1/N) sum_{n=0}^{N-1} |e(f(n+shift)) - e(f(n))|^2 from one
    `_terms` block per `CHUNK` of n (with its shift-sized overlap, or a
    second block when the shift is longer), block sums added by `math.fsum`.
    Working memory is O(`CHUNK`) whatever N and the shift."""
    if shift < 0 or n_max < 1:
        raise ValueError("need shift >= 0, n_max >= 1")
    phase.check_range(n_max + shift - 1)
    block_sums = []
    for a in range(0, n_max, CHUNK):
        m = min(CHUNK, n_max - a)
        if shift < m:
            z = _terms(phase, a, a + m + shift, None)
            d = z[shift:] - z[:m]
        else:
            d = _terms(phase, a + shift, a + shift + m, None)
            d -= _terms(phase, a, a + m, None)
        block_sums.append(float(np.sum(np.abs(d) ** 2)))
    return math.fsum(block_sums) / n_max


def phase_table(phase: Phase, n_max: int) -> np.ndarray:
    """e(f(n)) for n = 0..n_max-1 as a complex table."""
    phase.check_range(n_max - 1)
    return _terms(phase, 0, n_max, None)


# ---------------------------------------------------------------------------
# simultaneous Dirichlet approximation (brute force)


@dataclass
class DirichletWitness:
    t: int
    nearest: list[int]
    max_err: float


def dirichlet_approx(
    thetas: Sequence, q: int, budget: int = 10 ** 7
) -> DirichletWitness:
    """Smallest t in [1, q^L] with max_j ||t theta_j|| < 1/q (strict), by
    brute-force scan.

    The certificate is re-checkable: nearest[j] is the closest integer to
    t*theta_j and max_err the largest |t theta_j - nearest[j]|.  Each t is
    decided on integers: with theta_j = num/unit and e = |t num - a unit|,
    t is a witness when e q < unit for every j.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if not thetas:
        raise ValueError("need at least one theta")
    L = len(thetas)
    limit = q ** L
    if limit > budget:
        raise ResourceBudgetError(
            f"q^L = {limit} exceeds the scan budget {budget}; "
            f"reduce q or the number of thetas"
        )
    reps: list[tuple[int, int]] = []  # (numerator, unit): theta ~= num/unit
    for th in thetas:
        if isinstance(th, FixedReal):
            reps.append((th.mantissa, SCALE))
        else:
            fr = Fraction(th)
            reps.append((fr.numerator, fr.denominator))

    # the scan always returns: of the q^L + 1 points ({t theta_j})_j for
    # t = 0..q^L, two share one of the q^L half-open boxes of side 1/q
    # (pigeonhole), so their difference t <= q^L has every ||t theta_j||
    # strictly below 1/q
    for t in range(1, limit + 1):
        nearest = []
        worst_e, worst_unit = 0, 1  # the largest e/unit so far
        for num, unit in reps:
            v = t * num
            a = (2 * v + unit) // (2 * unit)  # nearest integer
            e = abs(v - a * unit)
            if e * q >= unit:
                break
            nearest.append(a)
            if e * worst_unit > worst_e * unit:
                worst_e, worst_unit = e, unit
        else:
            # int / int rounds once, as float(Fraction(e, unit)) does
            return DirichletWitness(t, nearest, worst_e / worst_unit)
