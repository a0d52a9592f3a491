"""The benchmark's workloads.

Each workload builds its inputs from the seed (set-up), runs a fixed-size
timed part that calls the public functions of mulab's layers through their
modules (so that a traced pass sees every call), and checks every output:
against stored references where the seed has them, against independent
recomputations written here, and against identities that need neither.

Why these two: `mu_scan` is dominated by sieving and the phase-sum
functionals on a 2e7 table (memory peaks here; phases only runs its rational
int64 path).  `irrational_exact` is the mirror image, pure Python-object
work: the `irrational_blocks` part (per-n fixed-point numerators and block
counting, sieving nearly absent) followed by the `exact_oracle` part
(arrangement piece counts and the exact calculus, numpy idle).  The two
parts share one workload so that each run can measure for 55 s within the
benchmark's time budget, because the speed of the 2-core VM it was tuned on
drifts on a scale of tens of seconds.

ROADMAP open items and what each should move (the benchmark predicts no
change elsewhere):

* item 2, one vectorised numerator kernel per phase: `irrational_exact`
  wall_s via phases.numerators_s, phases.poly_fixed_s, phases.table_s,
  phases.bracket_s and symbolic_blocks.indicator_set_self_s;
  phases.poly_rational_s on `mu_scan` must stay flat.
* item 3, exact LP instead of Fourier-Motzkin: `irrational_exact` wall_s via
  arrangements.count_pieces_s, arrangements.count_pieces_p90_ms and
  arrangements.generic_s; `mu_scan` never calls arrangements.
* item 4, prefix sums, canonical family members, rolling block codes:
  `mu_scan` wall_s via phase_sums.ap_correlation_self_s,
  phase_sums.short_interval_self_s and phases.poly_rational_s (the 256-member
  family holds only 16 members distinct modulo the constant term);
  `irrational_exact` wall_s via symbolic_blocks.entropy_curve_s.
* item 5, one sieve pass, one weights representation, honest budgets, one
  writer: `mu_scan` wall_s and peak_rss_mib via sieves.sieve_*_s,
  sieves.peak_alloc_mib, phase_sums.weights_peak_alloc_mib and
  sieves.save_cache_s.

Observed spread before this benchmark existed: one seeded arrangement batch
took 17.0 s and 19.75 s in two single passes (16%), and `irrational_blocks`
steps moved by up to 20% from pass to pass.  Hence fixed strata for the
arrangement batch, 55 s runs and medians.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from mulab import (
    arrangements,
    exact_calculus,
    phase_sums,
    phases,
    sieves,
    symbolic_blocks,
)

DEFAULT_SEED = 1729
SUM_TOLERANCE = phase_sums.SUM_TOLERANCE
FRAC_BITS = 96
MASK = (1 << FRAC_BITS) - 1
INV_SCALE = 2.0 ** -FRAC_BITS
SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30)


def close(a: float, b: float) -> bool:
    """Within the documented tolerance.  Every compared sum is an average of
    terms of modulus <= 1, so the tolerance is relative to that bound."""
    return abs(a - b) <= SUM_TOLERANCE * max(1.0, abs(b))


def sha(data) -> str:
    return hashlib.sha256(memoryview(np.ascontiguousarray(data)).cast("B")).hexdigest()[:32]


def rows_of(report) -> list:
    return [[r.n, r.real, r.imag] for r in report.rows]


class Checks:
    """Output checks of one run: how many were attempted, which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def fail(self, name: str) -> None:
        self.check(name, False)


def compare(checks: Checks, prefix: str, got, want) -> None:
    """One check per leaf: ints and strings exact, floats within tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            checks.fail(f"{prefix}:keys")
            return
        for key in sorted(want):
            compare(checks, f"{prefix}.{key}", got[key], want[key])
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            checks.fail(f"{prefix}:length")
            return
        if all(not isinstance(x, (list, dict, float)) for x in want):
            checks.check(prefix, got == want)
            return
        for i, (g, w) in enumerate(zip(got, want)):
            compare(checks, f"{prefix}[{i}]", g, w)
    elif isinstance(want, float):
        checks.check(prefix, isinstance(got, (int, float)) and close(got, want))
    else:
        checks.check(prefix, got == want)


def exp_sums(nums: list[int], weights: np.ndarray, lo: int) -> complex:
    """sum w(n) e(num_n / 2^96) for n = lo, lo+1, ..., numerators given."""
    fr = np.fromiter((v * INV_SCALE for v in nums), dtype=np.float64, count=len(nums))
    ws = weights[lo: lo + len(nums)].astype(np.float64)
    ang = 2.0 * math.pi * fr
    return complex(math.fsum(ws * np.cos(ang)), math.fsum(ws * np.sin(ang)))


def checkpoint_oracle(report, numerator, weights) -> bool:
    """Recompute each checkpoint average of `report` from exact numerators."""
    ok = True
    total = 0j
    prev = 1
    for n, re, im in rows_of(report):
        for lo in range(prev, n + 1, 1 << 16):
            hi = min(lo + (1 << 16), n + 1)
            total += exp_sums([numerator(k) for k in range(lo, hi)], weights, lo)
        prev = n + 1
        ok = ok and close(re, total.real / n) and close(im, total.imag / n)
    return ok


def trial_factor(n: int, primes: list[int]) -> list[int]:
    out = []
    for p in primes:
        if p * p > n:
            break
        while n % p == 0:
            out.append(p)
            n //= p
    if n > 1:
        out.append(n)
    return out


def small_primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if flags[p]]


def decode_codes(packed: np.ndarray, count: int) -> np.ndarray:
    """2-bit codes of a packed table, decoded here rather than by mulab."""
    shifts = np.array([0, 2, 4, 6], dtype=np.uint8)
    return ((packed[:, None] >> shifts) & 3).reshape(-1)[:count]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def run(self) -> dict:
        """The timed part."""
        raise NotImplementedError

    def cross_check(self, out: dict, checks: Checks) -> None:
        """Identities that need no reference; cheap, run on every pass."""

    def oracle_check(self, out: dict, checks: Checks) -> None:
        """Independent recomputations; run once per run."""

    def summarize(self, out: dict) -> tuple[dict, dict]:
        """(seed-independent values, seed-dependent values) for references."""
        raise NotImplementedError

    def facts(self, out: dict) -> dict:
        return {}

    def input_properties(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# mu_scan


class MuScan(Workload):
    name = "mu_scan"
    N = 2 * 10 ** 7
    AP_N, AP_H = 10 ** 6, (10, 100, 1000)
    SI_X, SI_H, GRID = 10 ** 5, (10, 100), 16
    CHECKPOINTS = 20

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        coeffs = []
        for i in range(3):
            d = rng.randrange(2, 13)
            coeffs.append(Fraction(rng.randrange(1 if i == 2 else 0, d), d))
        self.rational_phase = phases.parse_phase("poly:" + ",".join(map(str, coeffs)))
        self.zero_phase = phases.parse_phase("poly:0")
        g = self.GRID
        self.family = [phases.parse_phase(f"poly:{a0}/{g},{a1}/{g}")
                       for a0 in range(g) for a1 in range(g)]
        self.decades = [10 ** d for d in range(3, 8) if 10 ** d < self.N] + [self.N]
        self.cache_path = workdir / f"mu_scan_{os.getpid()}.bin"

    def run(self) -> dict:
        N = self.N
        mu = sieves.sieve_mobius(N)
        lam = sieves.sieve_liouville(N)
        phi = sieves.sieve_phi(N)
        sieves.save_cache(mu, self.cache_path)
        loaded = sieves.load_cache(self.cache_path)
        trace = sieves.mertens_trace(loaded, self.decades)
        w = phase_sums.weights_from_table(loaded)
        avg = phase_sums.weighted_average(w, self.rational_phase, N, self.CHECKPOINTS)
        ap = [phase_sums.ap_correlation(w, self.zero_phase, 1, h, self.AP_N)
              for h in self.AP_H]
        si = [phase_sums.short_interval_sup_average(w, self.family, self.SI_X, h)
              for h in self.SI_H]
        return {"mu": mu, "lam": lam, "phi": phi, "loaded": loaded,
                "trace": trace, "w": w, "avg": avg, "ap": ap, "si": si}

    def cross_check(self, out, checks):
        w = out["w"].values
        trace = out["trace"]
        checks.check("mu_scan.mertens_last_is_weight_sum",
                     trace[-1] == (self.N, int(w.sum(dtype=np.int64))))
        checks.check("mu_scan.cache_round_trip",
                     out["loaded"].n_max == self.N
                     and np.array_equal(out["loaded"].packed, out["mu"].packed))
        checks.check("mu_scan.average_rows",
                     len(out["avg"].rows) == self.CHECKPOINTS
                     and out["avg"].rows[-1].n == self.N)
        ap_vals = [r.value for r in out["ap"]]
        checks.check("mu_scan.ap_decreasing_in_h",
                     all(b < a for a, b in zip(ap_vals, ap_vals[1:])))
        checks.check("mu_scan.ap_comparison",
                     all(close(r.comparison, math.log(math.log(h)) / math.log(h))
                         for r, h in zip(out["ap"], self.AP_H)))
        checks.check("mu_scan.si_decreasing_in_h", out["si"][1] < out["si"][0])

    def oracle_check(self, out, checks):
        N = self.N
        w = out["w"].values
        signed = np.array([0, 1, -1, 0], dtype=np.int8)
        reserved = mismatch = disagree = False
        step = 1 << 20  # bytes of packed payload per chunk, 4 entries each
        for b0 in range(0, out["mu"].packed.size, step):
            lo = 4 * b0
            hi = min(lo + 4 * step, N)
            mu_codes = decode_codes(out["mu"].packed[b0: b0 + step], hi - lo)
            lam_codes = decode_codes(out["lam"].packed[b0: b0 + step], hi - lo)
            reserved |= bool((mu_codes == 3).any() or (lam_codes == 3).any())
            mismatch |= not np.array_equal(w[1 + lo: 1 + hi], signed[mu_codes])
            nz = mu_codes != 0
            disagree |= not np.array_equal(mu_codes[nz], lam_codes[nz])
        checks.check("mu_scan.no_reserved_codes", not reserved)
        checks.check("mu_scan.weights_are_decoded_mu", not mismatch and w[0] == 0)
        checks.check("mu_scan.lambda_is_mu_on_squarefree", not disagree)

        rng = random.Random(self.seed)
        sample = list(range(1, 301)) + [rng.randrange(1, N + 1) for _ in range(2000)]
        primes = small_primes(math.isqrt(N) + 1)
        phi = out["phi"].values
        ok_mu = ok_lam = ok_phi = True
        for n in sample:
            fs = trial_factor(n, primes)
            squarefree = len(set(fs)) == len(fs)
            ok_mu &= int(w[n]) == ((-1) ** len(fs) if squarefree else 0)
            ok_lam &= out["lam"].value(n) == (-1) ** len(fs)
            tot = n
            for p in set(fs):
                tot = tot // p * (p - 1)
            ok_phi &= int(phi[n]) == tot
        checks.check("mu_scan.mu_trial_division", ok_mu)
        checks.check("mu_scan.lambda_trial_division", ok_lam)
        checks.check("mu_scan.phi_trial_division", ok_phi)

        # e(f(n)) depends only on n mod d when every coefficient has denominator d
        cs = self.rational_phase.coeffs
        d = math.lcm(*(c.denominator for c in cs))
        ints = [int(c * d) for c in cs]
        resid = np.array([sum(a * r ** i for i, a in enumerate(ints)) % d
                          for r in range(d)])
        units = np.exp(2j * np.pi * resid / d)
        per_class = np.zeros(d)
        ok = True
        prev = 1
        for n, re, im in rows_of(out["avg"]):
            for lo in range(prev, n + 1, 1 << 20):
                hi = min(lo + (1 << 20), n + 1)
                per_class += np.bincount(np.arange(lo, hi) % d,
                                         weights=w[lo:hi], minlength=d)
            prev = n + 1
            z = complex(np.sum(per_class * units)) / n
            ok = ok and close(re, z.real) and close(im, z.imag)
        checks.check("mu_scan.average_residue_oracle", ok)

        prefix = np.cumsum(w[: self.AP_N + max(self.AP_H) + 1], dtype=np.int64)
        ok = True
        for r, h in zip(out["ap"], self.AP_H):
            acc = prefix[1 + h: 1 + h + self.AP_N] - prefix[1: 1 + self.AP_N]
            ok = ok and close(r.value, float(np.mean((acc / h) ** 2)))
        checks.check("mu_scan.ap_prefix_sum_oracle", ok)

        X, g = self.SI_X, self.GRID
        ok = True
        for value, h in zip(out["si"], self.SI_H):
            ns = np.arange(X, 2 * X + h)
            ws = w[X: 2 * X + h].astype(np.float64)
            best = np.zeros(X)
            for a1 in range(g):
                z = ws * np.exp(2j * np.pi * ((a1 * ns) % g) / g)
                c = np.concatenate([[0j], np.cumsum(z)])
                np.maximum(best, np.abs(c[h:] - c[:-h])[:X], out=best)
            ok = ok and close(value, float(best.sum()) / (X * h))
        checks.check("mu_scan.short_interval_slope_oracle", ok)

    def summarize(self, out):
        fixed = {
            "mu_sha": sha(out["mu"].packed),
            "lambda_sha": sha(out["lam"].packed),
            "phi_sha": sha(out["phi"].values),
            "cache_checksum": out["loaded"].checksum,
            "mertens": [list(t) for t in out["trace"]],
            "ap_values": [r.value for r in out["ap"]],
            "si_values": list(out["si"]),
        }
        seeded = {"phase": out["avg"].phase, "average": rows_of(out["avg"])}
        return fixed, seeded

    def facts(self, out):
        return {"cache_bytes": self.cache_path.stat().st_size}

    def input_properties(self):
        distinct = len({p.coeffs[1:] for p in self.family})
        n1 = self.N + 1
        return {
            "rational_phase": self.rational_phase.describe(),
            "short_interval_family": len(self.family),
            "short_interval_distinct_mod_constant": distinct,
            "short_interval_distinct_share": distinct / len(self.family),
            "largest_arrays_bytes_computed": {
                "sieve_phi values int64": 8 * n1,
                "weights int8, table cache plus WeightTable copy": 2 * n1,
                "ap_correlation terms complex128": 16 * (self.AP_N + max(self.AP_H) + 1),
                "packed mu table": (self.N + 3) // 4,
            },
        }

    def close(self):
        self.cache_path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# irrational_blocks


class IrrationalBlocks(Workload):
    name = "irrational_blocks"
    N_POLY, N_POW, N_BRACKET = 10 ** 6, 3 * 10 ** 5, 3 * 10 ** 5
    P, J_MAX, P_LABELS = 10 ** 6, 18, 10 ** 5
    TIE_BITS = 64

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        if seed == DEFAULT_SEED:
            a, b = 2, 3
        else:
            a, b = random.Random(seed).sample(SQUAREFREE, 2)
        self.a, self.b = a, b
        self.poly_phase = phases.parse_phase(f"poly:0,sqrt{a}")
        self.pow_phase = phases.parse_phase("pow:3/2")
        self.bracket_phase = phases.parse_phase(f"bracket:sqrt{b},sqrt{a}")
        self.p1 = phases.parse_phase(f"poly:0,sqrt{a}")
        self.p2 = phases.parse_phase(f"poly:0,sqrt{b}")

    def run(self) -> dict:
        mu = sieves.sieve_mobius(self.N_POLY)
        w = phase_sums.weights_from_table(mu)
        avgs = [phase_sums.weighted_average(w, ph, n, 20) for ph, n in (
            (self.poly_phase, self.N_POLY), (self.pow_phase, self.N_POW),
            (self.bracket_phase, self.N_BRACKET))]
        seq, rep = symbolic_blocks.indicator_set(self.p1, self.p2, self.P, self.TIE_BITS)
        rows = symbolic_blocks.entropy_curve(seq, self.J_MAX)
        labels, ex = symbolic_blocks.bracket_second_difference_labels(self.P_LABELS)
        return {"mu": mu, "w": w, "avgs": avgs, "seq": seq, "rep": rep,
                "rows": rows, "labels": labels, "ex": ex}

    def cross_check(self, out, checks):
        rows = out["rows"]
        checks.check("irrational_blocks.entropy_rows", [r.J for r in rows]
                     == list(range(1, self.J_MAX + 1)))
        checks.check("irrational_blocks.block_counts_nondecreasing",
                     all(b.count_all >= a.count_all for a, b in zip(rows, rows[1:])))
        checks.check("irrational_blocks.block_counts_below_bound",
                     all(r.count_all <= symbolic_blocks.indicator_block_bound(r.J, 2)
                         for r in rows))
        checks.check("irrational_blocks.block_family_containment",
                     all(r.count_reg_effective <= min(r.count_regular, r.count_effective)
                         and max(r.count_regular, r.count_effective) <= r.count_all
                         for r in rows))
        checks.check("irrational_blocks.entropy_estimate",
                     all(r.entropy_estimate == math.log(r.count_all) / r.J for r in rows))
        rep = out["rep"]
        checks.check("irrational_blocks.indicator_length",
                     len(out["seq"]) == self.P and rep.length == self.P)
        ex = out["ex"]
        checks.check("irrational_blocks.example33_partition",
                     ex.partition_ok and sum(ex.case_counts) + ex.tie_count == self.P_LABELS)
        checks.check("irrational_blocks.example33_case2_empty", ex.case_counts[1] == 0)
        checks.check("irrational_blocks.example33_residual", ex.max_residual <= 1e-9)
        checks.check("irrational_blocks.average_rows",
                     all(len(a.rows) == 20 for a in out["avgs"]))

    def oracle_check(self, out, checks):
        ma = math.isqrt(self.a << (2 * FRAC_BITS))
        mb = math.isqrt(self.b << (2 * FRAC_BITS))
        w = out["w"].values
        poly, pw, br = out["avgs"]
        checks.check("irrational_blocks.poly_average_oracle",
                     checkpoint_oracle(poly, lambda n: (n * ma) & MASK, w))
        checks.check("irrational_blocks.pow_average_oracle",
                     checkpoint_oracle(pw, lambda n: math.isqrt(n ** 3 << (2 * FRAC_BITS)) & MASK, w))
        checks.check("irrational_blocks.bracket_average_oracle",
                     checkpoint_oracle(br, lambda n: ((mb * n * ((ma * n) & MASK)) >> FRAC_BITS) & MASK, w))

        P = self.P
        syms = out["seq"].symbols
        gap = 1 << (FRAC_BITS - self.TIE_BITS)
        diffs = (((n * ma) & MASK) - ((n * mb) & MASK) for n in range(P))
        want = np.zeros(P, dtype=bool)
        ties = []
        for n, d in enumerate(diffs):
            want[n] = d < 0
            if -gap < d < gap:
                ties.append(n)
        checks.check("irrational_blocks.indicator_oracle", np.array_equal(syms != 0, want))
        checks.check("irrational_blocks.indicator_ties",
                     out["rep"].tie_count == len(ties) and out["rep"].tie_positions == ties[:64])

        s = syms.astype(np.int64)
        codes = np.zeros(P, dtype=np.int64)
        ok = True
        for r in out["rows"]:
            J = r.J
            codes = codes[: P - J + 1] * 2 + s[J - 1:]
            every = np.bincount(codes, minlength=1 << J)
            regular = np.bincount(codes[::J], minlength=1 << J)
            got = (r.count_all, r.count_regular, r.count_effective, r.count_reg_effective)
            ok = ok and got == (int(np.count_nonzero(every)), int(np.count_nonzero(regular)),
                                int(np.count_nonzero(every >= 2)),
                                int(np.count_nonzero(regular >= 2)))
        checks.check("irrational_blocks.block_count_oracle", ok)

        m2 = math.isqrt(2 << (2 * FRAC_BITS))
        fm = [(m2 * n) & MASK for n in range(self.P_LABELS + 2)]
        labels = []
        for n in range(self.P_LABELS):
            c0, c1, c2 = fm[n], fm[n + 1], fm[n + 2]
            if c0 == c1 or c1 == c2:
                labels.append(0)
            elif c2 > c1:
                labels.append(1 if c1 > c0 else 3)
            else:
                labels.append(2 if c1 < c0 else 4)
        checks.check("irrational_blocks.example33_label_oracle",
                     np.array_equal(out["labels"].symbols, np.array(labels, dtype=np.uint8)))

    def summarize(self, out):
        ex = out["ex"]
        poly, pw, br = out["avgs"]
        fixed = {
            "mu_sha": sha(out["mu"].packed),
            "mertens_1e6": int(out["w"].values.sum(dtype=np.int64)),
            "pow_average": rows_of(pw),
            "example33": {
                "labels_sha": sha(out["labels"].symbols),
                "case_counts": list(ex.case_counts),
                "tie_count": ex.tie_count,
                "max_residual": ex.max_residual,
                "argmax": ex.argmax,
            },
        }
        seeded = {
            "constants": [self.a, self.b],
            "poly_average": rows_of(poly),
            "bracket_average": rows_of(br),
            "indicator_sha": sha(out["seq"].symbols),
            "indicator_tie_count": out["rep"].tie_count,
            "indicator_tie_positions": list(out["rep"].tie_positions),
            "block_counts": [[r.count_all, r.count_regular, r.count_effective,
                              r.count_reg_effective] for r in out["rows"]],
        }
        return fixed, seeded

    def input_properties(self):
        return {
            "sqrt_constants": [self.a, self.b],
            "largest_arrays_bytes_computed": {
                "entropy_curve window codes int64": 8 * self.P,
                "indicator symbols uint8": self.P,
                "weights int8, table cache plus WeightTable copy": 2 * (self.N_POLY + 1),
            },
        }


# ---------------------------------------------------------------------------
# exact_oracle


def _det(rows) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for i in range(n - 1):
        if m[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if m[r][i] != 0), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1]


def in_general_position(normals, offsets, central: bool) -> bool:
    """Every k normals independent and, unless central, no k+1 planes share a point."""
    k = len(normals[0])
    if any(_det([normals[i] for i in s]) == 0
           for s in itertools.combinations(range(len(normals)), k)):
        return False
    if central:
        return True
    rows = [tuple(a * c.denominator for a in n) + (c.numerator,)
            for n, c in zip(normals, offsets)]
    return all(_det([rows[i] for i in s]) != 0
               for s in itertools.combinations(range(len(rows)), k + 1))


def central_generic_pieces(m: int, k: int) -> int:
    """Faces of m >= k central hyperplanes in R^k with every k normals
    independent: the origin plus, for each j-subset (j < k), the regions of
    the generic central arrangement the other m - j planes cut in its
    (k - j)-flat."""
    def regions(n: int, d: int) -> int:
        return 2 * sum(math.comb(n - 1, i) for i in range(d)) if n else 1
    return 1 + sum(math.comb(m, j) * regions(m - j, k - j) for j in range(k))


def drawn_strata() -> tuple:
    """Fixed (kind, k, m, count) strata holding the expected counts, rounded,
    of a draw of k uniform on {2, 3, 4} and m uniform on k..8: 40 cases per k,
    spread evenly over its m cells (the larger share to the larger m), 120 in
    all.  Every cell holds one central case (all offsets 0) and one cylinder
    (one coordinate absent from every normal), except cells of five, which
    hold one: 34 degenerate cases.  The 12 generic k = 4, m = 7-8 cases are
    the Fourier-Motzkin tail.  Single passes over three seeds took 19.4-20.7 s,
    with p50 30-34 ms and p90 0.37-0.48 s, on a 2-core Xeon VM."""
    strata = []
    for k in (2, 3, 4):
        cells = range(k, 9)
        base, extra = divmod(40, len(cells))
        for m in cells:
            count = base + (m > 8 - extra)
            kinds = ["central", "cylinder"]
            if count == 5:
                kinds = ["central" if m % 2 else "cylinder"]
            strata.append(("generic", k, m, count - len(kinds)))
            strata.extend((kind, k, m, 1) for kind in kinds)
    return tuple(strata)


class ExactOracle(Workload):
    name = "exact_oracle"
    # fixed strata keep the batch cost from swinging with the seed
    STRATA = drawn_strata()
    CALC = {"diff": 1500, "sigma": 1000, "lagrange": 1000, "reconstruct": 1000,
            "equivalence": 10000, "extend": 1000}

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.cases = []
        for kind, k, m, count in self.STRATA:
            for _ in range(count):
                self.cases.append(self._arrangement(rng, kind, k, m))
        self._calc_inputs(rng)

    @staticmethod
    def _arrangement(rng, kind, k, m):
        central = kind == "central"
        dim = k - 1 if kind == "cylinder" else k
        while True:
            normals = [tuple(rng.randrange(-9, 10) for _ in range(dim)) for _ in range(m)]
            offsets = [Fraction(0) if central else
                       Fraction(rng.randrange(-20, 21), rng.randrange(1, 5))
                       for _ in range(m)]
            if in_general_position(normals, offsets, central):
                break
        if kind == "cylinder":
            pos = rng.randrange(k)
            normals = [n[:pos] + (0,) + n[pos:] for n in normals]
            expected = arrangements.piece_bound(m, k - 1)
        elif central:
            expected = central_generic_pieces(m, k)
        else:
            expected = arrangements.piece_bound(m, k)
        planes = [arrangements.hyperplane(n, c) for n, c in zip(normals, offsets)]
        return {"kind": kind, "k": k, "m": m, "planes": planes, "expected": expected}

    def _calc_inputs(self, rng):
        def frac():
            return Fraction(rng.randrange(-99, 100), rng.randrange(1, 13))

        n = self.CALC
        self.calc_diff = []
        for _ in range(n["diff"]):
            k = rng.randrange(0, 5)
            self.calc_diff.append(([frac() for _ in range(rng.randrange(k + 1, 15))], k))
        self.calc_sigma = [([frac() for _ in range(rng.randrange(1, 12))], frac())
                           for _ in range(n["sigma"])]
        self.calc_lagrange = [[frac() for _ in range(rng.randrange(1, 7))]
                              for _ in range(n["lagrange"])]
        self.calc_recon = []
        for _ in range(n["reconstruct"]):
            k = rng.randrange(1, 5)
            j = rng.randrange(k, 11)
            self.calc_recon.append((j, k, [frac() for _ in range(j + 1)]))
        values = sorted({Fraction(a, b) for b in range(1, 9) for a in range(b)})
        self.calc_equiv = []
        for _ in range(n["equivalence"]):
            k = rng.randrange(0, 4)
            self.calc_equiv.append(
                ([rng.choice(values) + rng.randrange(-2, 3)
                  for _ in range(rng.randrange(k + 1, 7))], k))
        self.calc_extend = []
        for _ in range(n["extend"]):
            k = rng.randrange(1, 4)
            m_len = rng.randrange(k + 1, 13)
            self.calc_extend.append(([frac() for _ in range(k)],
                                     [frac() for _ in range(m_len - k)], m_len))

    def run(self) -> dict:
        xc = exact_calculus
        counts = [arrangements.count_pieces(c["planes"]) for c in self.cases]
        calc = {
            "diff": [xc.diff(seq, k) for seq, k in self.calc_diff],
            "sigma": [xc.sigma(seq, c) for seq, c in self.calc_sigma],
            "lagrange": [xc.lagrange_poly(v) for v in self.calc_lagrange],
            "reconstruct": [xc.reconstruct_coeffs(j, k) for j, k, _ in self.calc_recon],
            "equivalence": [xc.frac_diff_equivalence(xs, k) for xs, k in self.calc_equiv],
            "extend": [xc.extend_y(i, g, m) for i, g, m in self.calc_extend],
        }
        return {"counts": counts, "calc": calc}

    def cross_check(self, out, checks):
        counts = out["counts"]
        checks.check("exact_oracle.count_pieces_below_piece_bound",
                     all(c <= arrangements.piece_bound(case["m"], case["k"])
                         for c, case in zip(counts, self.cases)))
        for kind in ("generic", "central", "cylinder"):
            checks.check(f"exact_oracle.{kind}_piece_counts",
                         all(c == case["expected"] for c, case in zip(counts, self.cases)
                             if case["kind"] == kind))
        xc = exact_calculus
        calc = out["calc"]

        def one_step(seq):
            return [b - a for a, b in zip(seq, seq[1:])]

        def iterated(seq, k):
            for _ in range(k):
                seq = one_step(seq)
            return seq

        checks.check("exact_oracle.diff_closed_is_iterated",
                     all(d == iterated(seq, k) for d, (seq, k) in zip(calc["diff"], self.calc_diff)))
        checks.check("exact_oracle.diff_sigma_inverse",
                     all(s[0] == c and xc.diff(s, 1) == seq
                         for s, (seq, c) in zip(calc["sigma"], self.calc_sigma)))
        checks.check("exact_oracle.lagrange_interpolates",
                     all(q.degree < len(v) and all(q(j) == x for j, x in enumerate(v))
                         for q, v in zip(calc["lagrange"], self.calc_lagrange)))
        ok = True
        for coeffs, (j, k, seq) in zip(calc["reconstruct"], self.calc_recon):
            dk = xc.diff(seq, k)
            lhs = sum(a * dk[l - k] for a, l in zip(coeffs, range(k, j + 1)))
            rhs = seq[j] - sum(seq[m] * xc.lagrange_coeff(j, m, k) for m in range(k))
            ok = ok and lhs == rhs and all(0 <= a <= j ** (k - 1) for a in coeffs)
        checks.check("exact_oracle.reconstruction_identity", ok)
        checks.check("exact_oracle.equivalence_agrees",
                     all(c1 == c2 for c1, c2 in calc["equivalence"]))
        checks.check("exact_oracle.extend_solves_difference_equation",
                     all(len(y) == m and y[:len(i)] == i and xc.diff(y, len(i)) == g
                         for y, (i, g, m) in zip(calc["extend"], self.calc_extend)))

    def summarize(self, out):
        digest = hashlib.sha256(repr(out["calc"]).encode()).hexdigest()[:32]
        fixed = {"batch": len(self.cases)}
        seeded = {"piece_counts": list(out["counts"]), "calc_sha": digest}
        return fixed, seeded

    def facts(self, out):
        return {"case_kinds": ["generic" if c["kind"] == "generic" else "degenerate"
                               for c in self.cases],
                "pieces": sum(out["counts"])}

    def input_properties(self):
        kinds = {}
        for c in self.cases:
            kinds[c["kind"]] = kinds.get(c["kind"], 0) + 1
        degenerate = len(self.cases) - kinds.get("generic", 0)
        return {
            "arrangements": len(self.cases),
            "arrangement_kinds": kinds,
            "degenerate_share": degenerate / len(self.cases),
            "largest_arrays_bytes_computed": {},
        }


class Combined(Workload):
    """The timed parts of several workloads, back to back, as one pass."""

    parts: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.members = [cls(seed, workdir) for cls in self.parts]

    def run(self):
        return {m.name: m.run() for m in self.members}

    def cross_check(self, out, checks):
        for m in self.members:
            m.cross_check(out[m.name], checks)

    def oracle_check(self, out, checks):
        for m in self.members:
            m.oracle_check(out[m.name], checks)

    def summarize(self, out):
        pairs = {m.name: m.summarize(out[m.name]) for m in self.members}
        return ({name: f for name, (f, _) in pairs.items()},
                {name: s for name, (_, s) in pairs.items()})

    def facts(self, out):
        merged = {}
        for m in self.members:
            merged.update(m.facts(out[m.name]))
        return merged

    def input_properties(self):
        merged = {"largest_arrays_bytes_computed": {}}
        for m in self.members:
            props = dict(m.input_properties())
            merged["largest_arrays_bytes_computed"].update(
                props.pop("largest_arrays_bytes_computed"))
            merged.update(props)
        return merged

    def close(self):
        for m in self.members:
            m.close()


class IrrationalExact(Combined):
    name = "irrational_exact"
    parts = (IrrationalBlocks, ExactOracle)


WORKLOADS = {cls.name: cls for cls in (MuScan, IrrationalExact)}
