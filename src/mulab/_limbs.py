"""Integers mod 2^96 as two machine words, and mod 2^(32k) as k limbs.

The 96-bit numerators of the fixed-point kernels are a (2, count) uint64
array of words: row 0 is H = num >> 32, taken mod 2^64, and row 1 is
L = num & (2^32 - 1), so num = H 2^32 + L.  `horner` evaluates a polynomial
mod 2^96 on words: with n = (nH, nL), the product (H, L) n mod 2^96 is
H' = H nL + L nH + ((H nH) << 32) + ((L nL) >> 32), wrapping mod 2^64, and
L' = (L nL) & (2^32 - 1), where L nL < 2^64 is exact; adding a coefficient
takes one carry from L into H.  While n < 2^32, nH is the Python int 0 and
its two products drop out.

Wider products, such as the bracket product's mod 2^192, work in 32-bit
limbs, least significant first.  A limb is a uint64 array of values below
2^32, or a Python int when it is the same at every element (the high limbs
of n, a coefficient), so that a product by a zero limb costs nothing.  A
product splits each 64-bit partial product into halves and adds them into
column sums, which stay far below 2^64; one carry pass then normalizes the
columns, and the carry out of the top limb is dropped, which is the
reduction mod 2^(32k).  Both are classical multiple precision (Knuth, TAOCP
vol. 2, 4.3.1) with no reduction step.
"""

from __future__ import annotations

import numpy as np

MASK = (1 << 32) - 1
#: n per block of word and limb work: a uint64 row takes 64 KiB, so a
#: product's temporaries stay in cache and their peak stays small
BLOCK = 1 << 13
#: the largest float64 below 2^64, where a uint64 rounded to float64 is clipped
_TOP = float((1 << 64) - (1 << 11))

Limbs = list  # of np.ndarray (uint64) or int, each below 2^32
Words = tuple  # (H, L) of np.ndarray (uint64) or int: H below 2^64, L below 2^32
_WORD = (1 << 64) - 1


def split(x: int, k: int) -> Limbs:
    """The k limbs of x mod 2^(32k), as Python ints (x may be negative)."""
    return [(x >> (32 * i)) & MASK for i in range(k)]


def arange(start: int, count: int, k: int) -> Limbs:
    """The limbs of (start + i) mod 2^(32k) for i in range(count), with
    start any integer and count < 2^63.  Limbs that no carry reaches
    across the range stay the Python ints of start's limbs."""
    start %= 1 << (32 * k)
    head = np.arange(count, dtype=np.uint64)
    head += start & MASK
    out, carry = [head & MASK], head >> 32
    for i in range(1, k):
        if (start & ((1 << (32 * i)) - 1)) + count <= 1 << (32 * i):
            return out + split(start >> (32 * i), k - i)
        limb = carry + ((start >> (32 * i)) & MASK)
        out.append(limb & MASK)
        carry = limb >> 32
    return out


def _normalize(cols: list, carry=0) -> Limbs:
    """Carry each column sum into the next, in place (array columns must be
    the caller's own); the top carry is dropped."""
    for j, c in enumerate(cols):
        if isinstance(c, np.ndarray):
            c += carry
        else:
            c = c + carry
        carry = c >> 32
        c &= MASK
        cols[j] = c
    return cols


def _put(cols: list, j: int, t) -> None:
    """Add t into column j; a fresh array t becomes the column if it has
    none yet, so that every array column is owned by the product."""
    if isinstance(cols[j], np.ndarray):
        cols[j] += t
    elif isinstance(t, np.ndarray):
        t += cols[j]
        cols[j] = t
    else:
        cols[j] += t


def mul(a: Limbs, b: Limbs, k: int, add: Limbs | None = None) -> Limbs:
    """a * b (+ add) mod 2^(32k).  A column below the top receives at most
    2k halves below 2^32 plus one added limb, so it cannot overflow; the
    top column is needed mod 2^32 only, so its array products go in whole
    and wrap mod 2^64 (a Python int product is masked, as it cannot wrap)."""
    cols = [0] * k if add is None else [
        c.copy() if isinstance(c, np.ndarray) else c for c in add]
    for i, x in enumerate(a[:k]):
        if isinstance(x, int) and x == 0:
            continue
        for j, y in enumerate(b[: k - i]):
            if isinstance(y, int) and y == 0:
                continue
            p = x * y
            if i + j < k - 1:
                _put(cols, i + j + 1, p >> 32)
            if i + j < k - 1 or isinstance(p, int):
                p &= MASK
            _put(cols, i + j, p)
    return _normalize(cols)


def add(a: Limbs, b: Limbs, carry: int = 0) -> Limbs:
    """a + b (+ carry) mod 2^(32 len(a))."""
    return _normalize([x + y for x, y in zip(a, b)], carry)


def sub(a: Limbs, b: Limbs) -> Limbs:
    """a - b mod 2^(32 len(a)), as a + (not b) + 1 with the borrow folded
    into the carries.  Read as two's complement, the top bit is the sign."""
    return add(a, [MASK - y for y in b], 1)


def negative(a: Limbs) -> np.ndarray:
    """The sign of a, read as a two's complement number."""
    return np.asarray(a[-1] >> 31, dtype=bool)


def blocks(kernel, start: int, count: int) -> np.ndarray:
    """The (2, count) uint64 word array of the two words kernel(lo, cnt)
    gives for n = lo .. lo+cnt-1, run over blocks of BLOCK n."""
    out = np.empty((2, count), dtype=np.uint64)
    for a in range(0, count, BLOCK):
        b = min(a + BLOCK, count)
        for row, word in zip(out[:, a:b], kernel(start + a, b - a)):
            row[...] = word
    return out


def horner(coeffs: list[int], start: int, count: int) -> Words:
    """The words of sum_i coeffs[i] n^i mod 2^96 for n = start ..
    start+count-1 by Horner's rule, each coefficient an int in [0, 2^96)."""
    nh, nl = _arange_words(start, count)
    hi, lo = coeffs[-1] >> 32, coeffs[-1] & MASK
    for c in reversed(coeffs[:-1]):
        p = lo * nl  # below 2^64
        h = hi * nl
        h += p >> 32
        if not (isinstance(nh, int) and nh == 0):
            t = lo * nh + ((hi * nh) << 32)
            h += t & _WORD if isinstance(t, int) else t
        p &= MASK
        if c & MASK:
            p += c & MASK
            h += p >> 32
            p &= MASK
        if c >> 32:
            h += c >> 32
        hi, lo = h, p
    return hi, lo


def _arange_words(start: int, count: int) -> Words:
    """The words of (start + i) mod 2^96 for i in range(count), with start
    any integer and count < 2^63; the high word stays the Python int of
    start's while no carry reaches it."""
    start %= 1 << 96
    lo = np.arange(count, dtype=np.uint64)
    lo += start & MASK
    if (start & MASK) + count <= 1 << 32:
        return start >> 32, lo
    hi = lo >> 32
    hi += start >> 32  # wraps mod 2^64, as n is taken mod 2^96
    lo &= MASK
    return hi, lo


def from_limbs(a: Limbs) -> Words:
    """The words of the value of three limbs."""
    return (a[2] << 32) | a[1], a[0]


def to_limbs(w: np.ndarray) -> Limbs:
    """The three limbs of the value of two words."""
    return [w[1], w[0] & MASK, w[0] >> 32]


def to_float(w: np.ndarray) -> np.ndarray:
    """The 96-bit values (a (2, count) word array) times 2^-96 as float64,
    correctly rounded, over blocks of BLOCK n.  The high word H is rounded
    to some h < 2^64 first; H - h is then small, so the remainder
    (H - h) 2^32 + L is an exact float64 and the final add is the only
    rounding."""
    out = np.empty(w.shape[1])
    for a in range(0, w.shape[1], BLOCK):
        hi, lo = w[0, a : a + BLOCK], w[1, a : a + BLOCK]
        h = np.minimum(hi.astype(np.float64), _TOP)
        rest = (hi - h.astype(np.uint64)).view(np.int64) << 32
        rest += lo.view(np.int64)
        h *= 2.0 ** -64  # exact scalings: the add rounds once
        np.add(h, rest * 2.0 ** -96, out=out[a : a + BLOCK])
    return out


def to_ints(w: np.ndarray) -> np.ndarray:
    """The 96-bit values of a (2, count) word array as an object array of
    Python ints."""
    out = w[0].astype(object)
    out <<= 32
    out |= w[1]  # cast to ints a buffer at a time
    return out
