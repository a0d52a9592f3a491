"""Experiment presets: each runs one named desk-scale check end to end and
returns a dict of plain JSON values.  The CLI wraps these; the acceptance
test suite asserts on them.  All randomness flows through an explicit seed.
Each preset's defaults table fixes its parameters' types: `run_preset`
converts every override to the type of its default, once."""

from __future__ import annotations

import itertools
import json
import math
import platform
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from ._util import write_json
from .errors import ParseError
from . import exact_calculus as xc
from .arrangements import (
    Hyperplane,
    count_pieces,
    count_report,
    hyperplane,
    piece_bound,
)
from .fixedpoint import FixedReal, sqrt_const
from .phases import (
    ConcatPhase,
    GeometricSchedule,
    PolyPhase,
    ScheduledLagrangeConcat,
    SumPhase,
    build_concatenation,
    concat_residual,
    power_phase,
)
from .phase_sums import (
    ap_correlation,
    blockwise_abs_average,
    dirichlet_approx,
    short_interval_sup_average,
    weighted_average,
    weights_from_table,
)
from .sieves import (
    load_cache,
    mertens_trace,
    save_cache,
    sieve_mobius,
)
from .symbolic_blocks import (
    SymbolSeq,
    block_count_inequality_check,
    bracket_second_difference_labels,
    entropy_curve,
    index_blocks,
    indicator_block_bound,
    indicator_set,
    write_entropy_csv,
)

DEFAULT_SEED = 1729


def _rand_fraction(rng: random.Random, num: int = 99, den: int = 12) -> Fraction:
    return Fraction(rng.randrange(-num, num + 1), rng.randrange(1, den + 1))


# ---------------------------------------------------------------------------
# presets


def run_appendix_exact(params: dict, out_dir: Path | None = None) -> dict:
    """Exactness suite for the difference-calculus identities."""
    rng = random.Random(params["seed"])
    cases = params["cases"]

    def diff_once(seq):
        return [b - a for a, b in zip(seq, seq[1:])]

    closed_ok = 0
    for _ in range(cases):
        k = rng.randrange(0, 5)
        J = rng.randrange(k + 1, 15)
        seq = [_rand_fraction(rng) for _ in range(J)]
        it = list(seq)
        for _ in range(k):
            it = diff_once(it)
        if xc.diff(seq, k) == it:
            closed_ok += 1

    recon_ok = 0
    recon_cases = max(cases // 2, 1)
    for _ in range(recon_cases):
        k = rng.randrange(1, 5)
        j = rng.randrange(k, 11)
        seq = [_rand_fraction(rng) for _ in range(j + 1)]
        coeffs = xc.reconstruct_coeffs(j, k)
        if not all(0 <= a <= j ** max(k - 1, 0) for a in coeffs):
            continue
        dk = xc.diff(seq, k)
        lhs = sum(a * dk[l - k] for a, l in zip(coeffs, range(k, j + 1)))
        rhs = seq[j] - sum(
            seq[m] * xc.lagrange_coeff(j, m, k) for m in range(k)
        )
        if lhs == rhs:
            recon_ok += 1

    def closed_form(n, j, k):
        return (-1) ** (k - j - 1) * math.comb(n - j - 1, n - k) * math.comb(n, n - j)

    integrality_ok = True
    for k in range(1, 7):
        for j in range(k):
            for n in range(0, 41):
                v = xc.lagrange_coeff(n, j, k)
                if not isinstance(v, int):
                    integrality_ok = False
                if 0 <= n <= k - 1 and v != (1 if n == j else 0):
                    integrality_ok = False
                if n >= k and v != closed_form(n, j, k):
                    integrality_ok = False

    # fractional-part equivalence: exhaustive over denominators <= 8 at the
    # minimal window J = k+1, random windows up to J = 6
    values = sorted(
        {Fraction(a, b) for b in range(1, 9) for a in range(b)}
    )
    equiv_ok = True
    equiv_cases = 0
    for k in (1, 2, 3):
        for xs in itertools.product(values, repeat=k + 1):
            c1, c2 = xc.frac_diff_equivalence(xs, k)
            equiv_cases += 1
            if c1 != c2:
                equiv_ok = False
    for _ in range(5000):
        k = rng.randrange(0, 4)
        J = rng.randrange(k + 1, 7)
        xs = [rng.choice(values) + rng.randrange(-2, 3) for _ in range(J)]
        c1, c2 = xc.frac_diff_equivalence(xs, k)
        equiv_cases += 1
        if c1 != c2:
            equiv_ok = False

    results = {
        "closed_vs_iterated_ok": closed_ok,
        "closed_vs_iterated_total": cases,
        "reconstruction_ok": recon_ok,
        "reconstruction_total": recon_cases,
        "integrality_ok": integrality_ok,
        "equivalence_ok": equiv_ok,
        "equivalence_cases": equiv_cases,
        "passed": (
            closed_ok == cases and recon_ok == recon_cases
            and integrality_ok and equiv_ok
        ),
    }
    return results


def run_value_bound(params: dict, out_dir: Path | None = None) -> dict:
    """Randomized windows satisfying the growth-bound hypotheses."""
    rng = random.Random(params["seed"])
    trials = params["trials"]
    ok = 0
    for _ in range(trials):
        k = rng.choice((1, 2, 3))
        c = Fraction(rng.randrange(1, 50), rng.randrange(1, 10))
        J = rng.randrange(k + 1, 13)
        init = [c * Fraction(rng.randrange(0, 101), 100) for _ in range(k)]
        g = [c * Fraction(rng.randrange(-100, 101), 100) for _ in range(J - k)]
        seq = xc.extend_y(init, g, J)
        if xc.value_bound_holds(seq, k, c):
            ok += 1
    return {"trials": trials, "bound_held": ok, "passed": ok == trials}


def run_piece_bound_random(params: dict, out_dir: Path | None = None) -> dict:
    """Piece-count bound: recursion, random arrangements, fixed examples."""
    rng = random.Random(params["seed"])
    trials, m_max, k_max = params["trials"], params["m"], params["k"]

    recursion_ok = all(
        piece_bound(m, k) == piece_bound(m - 1, k) + 2 * piece_bound(m - 1, k - 1)
        for m in range(2, 31)
        for k in range(2, m)
    )
    # k = 1 column: the k-1 term degenerates to the j=0 column, which is 1
    recursion_k1_ok = all(
        piece_bound(m, 1) == piece_bound(m - 1, 1) + 2
        for m in range(2, 31)
    )

    def random_arrangement():
        k = rng.randrange(1, k_max + 1)
        m = rng.randrange(1, m_max + 1)
        planes = []
        for _ in range(m):
            while True:
                normal = tuple(
                    Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                    for _ in range(k)
                )
                if any(normal):
                    break
            planes.append(Hyperplane(normal, _rand_fraction(rng, 9, 4)))
        return planes

    bound_ok = 0
    for _ in range(trials):
        arr = random_arrangement()
        if count_pieces(arr) <= piece_bound(len(arr), arr[0].dim):
            bound_ok += 1

    one = count_pieces([hyperplane((1, 0), 0)])
    two_points = count_pieces([hyperplane((1,), 0), hyperplane((1,), 1)])
    crossing = count_report(
        [hyperplane((1, 0), 0), hyperplane((0, 1), 0)]
    )
    fixed_ok = one == 3 and two_points == 5 and (
        crossing["count"] == 9 and crossing["bound"] == 9 and crossing["attained"]
    )
    return {
        "recursion_ok": bool(recursion_ok and recursion_k1_ok),
        "random_bound_ok": bound_ok,
        "trials": trials,
        "fixed_examples_ok": fixed_ok,
        "crossing_report": crossing,
        "passed": bool(recursion_ok and recursion_k1_ok
                       and bound_ok == trials and fixed_ok),
    }


def run_block_machinery(params: dict, out_dir: Path | None = None) -> dict:
    """Containment chains and the concatenation counting inequality."""
    rng = random.Random(params["seed"])
    trials, P = params["trials"], params["p"]
    contain_ok = inequality_ok = 0
    checks = 0
    for _ in range(trials):
        raw = rng.getrandbits(P).to_bytes((P + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             bitorder="little")[:P]
        seq = SymbolSeq(bits, 2)
        J = rng.randrange(1, params["jmax"] + 1)
        idx = index_blocks(seq, J)
        a = set(idx.all_blocks)
        r = set(idx.regular_blocks)
        e = set(idx.effective_blocks)
        er = set(idx.regularly_effective_blocks)
        if er <= r <= a and er <= e <= a:
            contain_ok += 1
        l = rng.randrange(1, params["lmax"] + 1)
        if (l + 1) * J <= P:
            checks += 1
            if block_count_inequality_check(seq, J, l):
                inequality_ok += 1
    return {
        "trials": trials,
        "containment_ok": contain_ok,
        "inequality_checked": checks,
        "inequality_ok": inequality_ok,
        "passed": contain_ok == trials and inequality_ok == checks,
    }


def run_indicator_blocks(params: dict, out_dir: Path | None = None) -> dict:
    """Block growth of 1_{ {sqrt2 n} < {sqrt3 n} } against the proved bound."""
    P, j_max = params["p"], params["jmax"]
    k = 2  # both comparison polynomials have degree < 2
    p1 = PolyPhase([0, sqrt_const(2)])
    p2 = PolyPhase([0, sqrt_const(3)])
    seq, report = indicator_set(p1, p2, P)
    rows = entropy_curve(seq, j_max)
    below = all(r.count_all <= indicator_block_bound(r.J, k) for r in rows)
    ests = [r.entropy_estimate for r in rows if r.J >= 8]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(ests, ests[1:]))
    if out_dir is not None:
        write_entropy_csv(rows, out_dir / "indicator_entropy.csv")
    return {
        "p": P,
        "jmax": j_max,
        "tie_count": report.tie_count,
        "counts": [r.count_all for r in rows],
        "bounds": [indicator_block_bound(r.J, k) for r in rows],
        "estimates": [r.entropy_estimate for r in rows],
        "below_bound": below,
        "nonincreasing_from_8": nonincreasing,
        "passed": below and nonincreasing,
    }


def run_example33(params: dict, out_dir: Path | None = None) -> dict:
    """Partition + piecewise second-difference residual for sqrt3 n {sqrt2 n}."""
    P = params["n"]
    labels, rep = bracket_second_difference_labels(P)
    # note: the two-consecutive-decreases case is provably empty here (the
    # fractional step {sqrt2} is < 1/2), so its count is 0 by rights
    passed = rep.partition_ok and rep.max_residual <= params["tolerance"]
    results = {
        "n": P,
        "case_counts": list(rep.case_counts),
        "max_residual": rep.max_residual,
        "argmax": rep.argmax,
        "tie_count": rep.tie_count,
        "partition_ok": rep.partition_ok,
        "tolerance": params["tolerance"],
        "passed": passed,
    }
    if out_dir is not None:
        write_json(out_dir / "example33.json", {"schema_version": 1, **results})
    return results


def run_pnt_trend(params: dict, out_dir: Path | None = None) -> dict:
    """Mertens decades plus decay of two mu-weighted phase averages; needs
    n >= 1000, the first decade."""
    n_max = params["n"]
    if n_max < 1000:
        raise ParseError("preset 'pnt-trend': parameter 'n' must be at least 1000, "
                         "the first Mertens decade")
    decades = [10 ** d for d in range(3, 15) if 10 ** d <= n_max]
    table = sieve_mobius(n_max)
    weights = weights_from_table(table)
    trace = mertens_trace(table, decades)
    ratios = [abs(m) / n for n, m in trace]
    mertens_decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))

    cps = [c for c in (10 ** 4, n_max) if c <= n_max]
    linear = weighted_average(weights, PolyPhase([0, sqrt_const(2)]), n_max, cps)
    pw = weighted_average(weights, power_phase(3, 2), n_max, cps)
    lin_mod = [m for _, m in linear.moduli()]
    pow_mod = [m for _, m in pw.moduli()]
    lin_decay = lin_mod[0] / lin_mod[-1] if lin_mod[-1] else math.inf
    pow_decay = pow_mod[0] / pow_mod[-1] if pow_mod[-1] else math.inf
    results = {
        "mertens": [[n, m] for n, m in trace],
        "mertens_ratios": ratios,
        "mertens_strictly_decreasing": mertens_decreasing,
        "linear_moduli": lin_mod,
        "power_moduli": pow_mod,
        "linear_decay_factor": lin_decay,
        "power_decay_factor": pow_decay,
        "decay_ok": lin_decay >= 2.0 and pow_decay >= 2.0,
        "passed": mertens_decreasing and lin_decay >= 2.0 and pow_decay >= 2.0,
    }
    if out_dir is not None:
        linear.write_csv(out_dir / "linear_phase_trace.csv")
        pw.write_csv(out_dir / "power_phase_trace.csv")
    return results


def run_dirichlet_cert(params: dict, out_dir: Path | None = None) -> dict:
    """Brute-force simultaneous approximation with re-checked certificates."""
    rng = random.Random(params["seed"])
    trials = params["trials"]
    ok = 0
    for _ in range(trials):
        L = rng.randrange(1, params["lmax"] + 1)
        q = rng.randrange(2, params["qmax"] + 1)
        thetas = []
        for _ in range(L):
            if rng.random() < 0.5:
                thetas.append(Fraction(rng.randrange(0, 1000), 1000))
            else:
                thetas.append(sqrt_const(rng.choice((2, 3, 5, 6, 7))))
        wit = dirichlet_approx(thetas, q)
        # independent re-evaluation of the certificate at <= 1/q
        good = wit.t <= q ** L
        for th, a in zip(thetas, wit.nearest):
            x = (Fraction(th.mantissa, 2 ** 96) if isinstance(th, FixedReal)
                 else Fraction(th))
            if abs(wit.t * x - a) > Fraction(1, q):
                good = False
        ok += int(good)
    return {"trials": trials, "certified": ok, "passed": ok == trials}


def run_ap_trend(params: dict, out_dir: Path | None = None) -> dict:
    """Arithmetic-progression correlation decreasing in the window length."""
    n_max, s = params["n"], params["s"]
    hs = params["hs"]
    weights = weights_from_table(sieve_mobius(n_max + max(hs) * s))
    phase = PolyPhase([0])
    reports = [ap_correlation(weights, phase, s, h, n_max) for h in hs]
    values = [r.value for r in reports]
    comparisons = [r.comparison for r in reports]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    below = all(v < 10.0 * c for v, c in zip(values, comparisons))
    return {
        "hs": list(hs),
        "values": values,
        "comparisons": comparisons,
        "strictly_decreasing": decreasing,
        "below_10x_comparison": below,
        "passed": decreasing and below,
    }


def run_short_interval(params: dict, out_dir: Path | None = None) -> dict:
    """Short-interval sup-average over a coefficient grid (lower-bound
    surrogate for the sup over all degree-<k polynomials)."""
    X, grid, hs = params["x"], params["grid"], params["hs"]
    weights = weights_from_table(sieve_mobius(2 * X + max(hs)))
    family = [
        PolyPhase([Fraction(a0, grid), Fraction(a1, grid)])
        for a0 in range(grid)
        for a1 in range(grid)
    ]
    values = [short_interval_sup_average(weights, family, X, h) for h in hs]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    return {
        "x": X,
        "hs": list(hs),
        "grid": f"{grid}x{grid}",
        "label": "finite-grid lower bound for the sup over degree-<k phases",
        "values": values,
        "decreasing": decreasing,
        "passed": decreasing,
    }


def run_round_trips(params: dict, out_dir: Path | None = None) -> dict:
    """Cache persistence, polynomial reproduction, diff/sigma inversion."""
    rng = random.Random(params["seed"])
    n = params["n"]
    table = sieve_mobius(n)
    with tempfile.TemporaryDirectory() as scratch:
        cache = Path(scratch if out_dir is None else out_dir) / "roundtrip_mu.bin"
        save_cache(table, cache)
        loaded = load_cache(cache)
        cache_ok = (
            loaded.n_max == table.n_max
            and np.array_equal(loaded.packed, table.packed)
            and loaded.checksum == table.checksum
        )
        save_cache(table, cache)  # rewrite: byte-identical file
        cache_ok = cache_ok and load_cache(cache).checksum == table.checksum

    k = 3
    poly = PolyPhase([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)])
    concat = ScheduledLagrangeConcat(GeometricSchedule(8), poly, k)
    res = concat_residual(concat, range(0, 4000, 7))
    poly_ok = res.max_dist == 0.0

    sigma_ok = True
    for _ in range(50):
        seq = [_rand_fraction(rng) for _ in range(rng.randrange(1, 12))]
        c = _rand_fraction(rng)
        if xc.diff(xc.sigma(seq, c), 1) != seq:
            sigma_ok = False
    return {
        "cache_ok": bool(cache_ok),
        "concat_zero_residual": poly_ok,
        "diff_sigma_identity": sigma_ok,
        "passed": bool(cache_ok and poly_ok and sigma_ok),
    }


def run_concat_approx(params: dict, out_dir: Path | None = None) -> dict:
    """Residual of the interpolating concatenation for n^(3/2)."""
    k, m_target = params["k"], params["m_target"]
    src = power_phase(3, 2)
    concat = build_concatenation(
        src, k, m_target, tau=params["tau"], c_const=params["c"]
    )
    sched = concat.schedule
    onset = sched.stage_start(1)
    samples: list[int] = []
    for m in (1, 2):
        lo = sched.stage_start(m)
        if lo is None:
            break
        samples.extend(range(lo, lo + params["span"]))
    rep = concat_residual(concat, samples)
    passed = rep.max_dist <= 1.0 / m_target
    return {
        "schedule": sched.describe(),
        "onset": onset,
        "samples": rep.samples,
        "max_residual": rep.max_dist,
        "argmax": rep.argmax,
        "target": 1.0 / m_target,
        "passed": passed,
    }


def _nonzero(name: str, params: dict, key: str) -> None:
    """Refuse a zero denominator among a preset's parameters."""
    if params[key] == 0:
        raise ParseError(f"preset {name!r}: parameter {key!r} must be nonzero, "
                         f"it is a denominator")


def _decay(name: str, phase, n_max: int, out_dir: Path | None, csv_name: str) -> dict:
    """The mu-weighted average of e(phase) at N = n_max/100 and n_max: passed
    when its modulus fell.  Preset `name` needs n_max >= 100, so that the
    first checkpoint is at least 1."""
    if n_max < 100:
        raise ParseError(f"preset {name!r}: parameter 'n' must be at least 100, "
                         f"the first checkpoint is n // 100")
    weights = weights_from_table(sieve_mobius(n_max))
    report = weighted_average(weights, phase, n_max, [n_max // 100, n_max])
    mods = [m for _, m in report.moduli()]
    if out_dir is not None:
        report.write_csv(out_dir / csv_name)
    return {"moduli": mods, "decayed": mods[-1] < mods[0], "passed": mods[-1] < mods[0]}


def run_linear_drift(params: dict, out_dir: Path | None = None) -> dict:
    """mu against e(f) for f = c n + sqrt(n): the one-step difference tends
    to the constant c.  The sum of the rational line c n and the power
    n^(1/2), so c is exact.  Representative choice, not canonical."""
    _nonzero("linear-drift", params, "c_den")
    c = Fraction(params["c_num"], params["c_den"])
    phase = SumPhase([PolyPhase([0, c]), power_phase(1, 2)])
    return _decay("linear-drift", phase, params["n"], out_dir, "linear_drift_trace.csv")


def run_quadratic_rational(params: dict, out_dir: Path | None = None) -> dict:
    """mu against e(f) for f = (a/2q) n^2 + alpha n: second difference is the
    rational constant a/q, so e(one-step difference) has finitely many limit
    points.  Representative choice, not canonical."""
    _nonzero("quadratic-rational", params, "q")
    a, q = params["a"], params["q"]
    phase = PolyPhase([0, sqrt_const(2), Fraction(a, 2 * q)])
    return _decay("quadratic-rational", phase, params["n"], out_dir,
                  "quadratic_rational_trace.csv")


def run_block_vs_interval(params: dict, out_dir: Path | None = None) -> dict:
    """The two sides of the blockwise/short-interval equivalence, measured
    on a concatenation of linear phases (no equality asserted: the statement
    is a limit equivalence)."""
    X, h = params["x"], params["h"]
    rng = random.Random(params["seed"])
    grid = params["grid"]
    family = [PolyPhase([0, Fraction(j, grid)]) for j in range(grid)]
    bps = [0]
    gap = 8
    while bps[-1] < 2 * X:
        bps.append(bps[-1] + gap)
        gap += 1
    weights = weights_from_table(sieve_mobius(max(bps[-1], 2 * X + h)))
    pieces = [family[rng.randrange(len(family))] for _ in bps]
    concat = ConcatPhase(bps, pieces)
    block_avg, _ = blockwise_abs_average(weights, concat, bps)
    sup_avg = short_interval_sup_average(weights, family, X, h)
    return {
        "blockwise_average": block_avg,
        "short_interval_sup_average": sup_avg,
        "label": "two sides of a limit equivalence; reported, not compared",
        "passed": True,
    }


PRESETS: dict[str, tuple] = {
    # name: (function, defaults, summary)
    "appendix-exact": (run_appendix_exact, {"seed": DEFAULT_SEED, "cases": 500},
                       "exact difference-calculus identity suite"),
    "value-bound": (run_value_bound, {"seed": DEFAULT_SEED, "trials": 1000},
                    "randomized growth-bound check"),
    "lemma26-random": (run_piece_bound_random,
                       {"seed": DEFAULT_SEED, "trials": 200, "m": 8, "k": 3},
                       "piece-count bound: recursion, random, fixed examples"),
    "block-machinery": (run_block_machinery,
                        {"seed": DEFAULT_SEED, "trials": 100, "p": 10 ** 4,
                         "jmax": 6, "lmax": 4},
                        "block-family containments and counting inequality"),
    "indicator-blocks": (run_indicator_blocks,
                         {"p": 10 ** 6, "jmax": 18},
                         "block growth of the sqrt2/sqrt3 comparison set"),
    "example33": (run_example33,
                  {"n": 10 ** 5, "tolerance": 1e-9},
                  "bracket-phase second-difference partition check"),
    "pnt-trend": (run_pnt_trend, {"n": 10 ** 6},
                  "Mertens decades and mu-weighted phase decay"),
    "dirichlet-cert": (run_dirichlet_cert,
                       {"seed": DEFAULT_SEED, "trials": 100, "lmax": 2,
                        "qmax": 8},
                       "simultaneous approximation certificates"),
    "ap-trend": (run_ap_trend,
                 {"n": 10 ** 6, "s": 1, "hs": (10, 100, 1000)},
                 "progression correlation decreasing in window length"),
    "short-interval": (run_short_interval,
                       {"x": 10 ** 5, "hs": (10, 100), "grid": 16},
                       "short-interval sup-average over a coefficient grid"),
    "round-trips": (run_round_trips, {"seed": DEFAULT_SEED, "n": 10 ** 5},
                    "cache, concatenation and diff/sigma round trips"),
    "concat-approx": (run_concat_approx,
                      {"k": 2, "m_target": 10, "tau": 0.7, "c": 1.0,
                       "span": 2000},
                      "interpolating-concatenation residual for n^(3/2)"),
    "linear-drift": (run_linear_drift,
                     {"n": 10 ** 5, "c_num": 1, "c_den": 3},
                     "average against a drifting linear phase"),
    "quadratic-rational": (run_quadratic_rational,
                           {"n": 10 ** 5, "a": 1, "q": 3},
                           "average against a rational-quadratic phase"),
    "block-vs-interval": (run_block_vs_interval,
                          {"seed": DEFAULT_SEED, "x": 2 * 10 ** 4, "h": 50,
                           "grid": 8},
                          "blockwise vs short-interval averages"),
}


def _typed(default, value):
    """value as the type of a preset's default.  Text is parsed (a tuple
    default takes a comma list); any other value must have the type already,
    save that an int may stand for a float and one item for a tuple."""
    kind = type(default)
    if kind is tuple:
        if isinstance(value, str):
            value = value.split(",")
        elif not isinstance(value, tuple):
            value = (value,)
        return tuple(_typed(default[0], v) for v in value)
    if isinstance(value, str) or type(value) is kind or (kind is float and type(value) is int):
        return kind(value)
    raise TypeError


def run_preset(
    name: str,
    out_dir: str | Path | None = None,
    overrides: dict | None = None,
) -> dict:
    """Run a preset end to end and write its manifest; returns the manifest
    as written.  Each override, the seed included, takes its default's type."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ParseError(f"unknown preset {name!r}; available: {known}")
    fn, defaults, summary = PRESETS[name]
    params = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in params:
            allowed = ", ".join(sorted(params)) or "none"
            raise ParseError(
                f"unknown parameter {key!r} for preset {name!r}; "
                f"allowed: {allowed}"
            )
        try:
            params[key] = _typed(params[key], value)
        except (TypeError, ValueError, OverflowError):
            default = defaults[key]
            kind = (f"a comma list of {type(default[0]).__name__}"
                    if isinstance(default, tuple) else type(default).__name__)
            raise ParseError(f"preset {name!r}: parameter {key!r} must be "
                             f"{kind}, got {value!r}") from None
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    manifest = json.loads(json.dumps({
        "schema_version": 1,
        "experiment": name,
        "summary": summary,
        "parameters": params,
        "results": fn(params, out_path),
        "versions": {
            "mulab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }))
    if out_path is not None:
        write_json(out_path / "manifest.json", manifest)
    return manifest
