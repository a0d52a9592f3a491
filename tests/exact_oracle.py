"""The `Fraction` bodies of `mulab.exact_calculus`'s difference calculus,
kept as the oracle for its integer form, and the `Fraction`-property body
of `_util.over_lcm`, kept as the oracle for its one ratio read per value.

Here `diff`, `sigma` and `extend_y` add `Fraction`s term by term, so each
step is reduced on its own; `frac_diff_equivalence` is the integer check
with its numerators reduced mod d first; and `lagrange_poly` sums the
Newton form sum_i (D^i f)(0) C(y, i) in `Fraction`s, with the heads taken
from this module's `diff`.  The package must agree with every function here
down to `repr`, and raise the same exception types on the same bad inputs.
"""

from fractions import Fraction
import math
from math import comb, factorial, lcm

from mulab.errors import WindowTooShortError
from mulab.exact_calculus import RationalPoly, as_fractions, lagrange_coeff


def over_lcm(values):
    fs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    dens = [f.denominator for f in fs]  # read once: a property on Fraction
    d = math.lcm(*dens)
    return [f.numerator * (d // q) for f, q in zip(fs, dens)], d


def diff(seq, k):
    xs = as_fractions(seq)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k >= len(xs):
        raise WindowTooShortError(
            f"k-th difference needs window length > k ({k} >= {len(xs)})"
        )
    weights = [(-1) ** (k - l) * comb(k, l) for l in range(k + 1)]
    return [
        sum((w * xs[n + l] for l, w in enumerate(weights)), Fraction(0))
        for n in range(len(xs) - k)
    ]


def sigma(seq, initial=0):
    out = [Fraction(initial)]
    for v in seq:
        out.append(out[-1] + Fraction(v))
    return out


def lagrange_poly(values):
    vals = as_fractions(values)
    k = len(vals)
    if k == 0:
        raise ValueError("lagrange_poly needs at least one value")
    total = [Fraction(0)] * k
    falling = [1]  # y(y-1)...(y-i+1), ascending degree
    for i in range(k):
        head = diff(vals, i)[0] / factorial(i)  # C(y, i) = falling / i!
        for deg, c in enumerate(falling):
            total[deg] += head * c
        falling = [a - i * b for a, b in zip([0, *falling], [*falling, 0])]
    return RationalPoly.from_coeffs(total)


def frac_diff_equivalence(xs, k):
    vals = [x if isinstance(x, Fraction) else Fraction(x) for x in xs]
    J = len(vals)
    if not J > k >= 0:
        raise ValueError(f"need len(xs) > k >= 0, got J={J}, k={k}")
    d = lcm(*(x.denominator for x in vals))
    a = [(x.numerator * (d // x.denominator)) % d for x in vals]  # {x_i} scaled by d
    weights = [(-1) ** (k - l) * comb(k, l) for l in range(k + 1)]
    cond1 = all(
        sum(w * a[n + l] for l, w in enumerate(weights)) % d == 0
        for n in range(J - k)
    )
    cond2 = all(
        (sum(a[j] * lagrange_coeff(n, j, k) for j in range(k)) - a[n]) % d == 0
        for n in range(k, J)
    )
    return cond1, cond2


def extend_y(init, g_vals, m_len):
    init = as_fractions(init)
    g = as_fractions(g_vals)
    k = len(init)
    if m_len < k:
        raise ValueError(f"m_len must be >= k = {k}")
    if len(g) < m_len - k:
        raise WindowTooShortError(
            f"need at least {m_len - k} g-values, got {len(g)}"
        )
    y = g[: m_len - k]
    for i in reversed(range(k)):
        y = sigma(y, diff(init, i)[0])
    return y
