"""The ratio kernel that built the mu and lambda tables before the signed
product, kept as the oracle for `mulab.sieves._segmented_pack`.

Each segment carries f(n) in an int8 value array and the product of the
sieved prime powers in a separate array; every prime power p^e multiplies
the values at its multiples by f(p^e) / f(p^(e-1)) and the product by p,
and the one prime q left above sqrt(n_max) is the float64 quotient
n / product, whose f(q) is the last factor.  `pack_mobius` and
`pack_liouville` return the packed table the way the kernel did.
"""

import math

import numpy as np

from mulab.sieves import MobiusTable, _pack_codes, primes_up_to

_TILED = ((2, 4), (3, 2), (5, 2), (7, 2))
_PERIOD = math.prod(p ** e for p, e in _TILED)  # 176,400
_QUOTIENT_CHUNK = 1 << 16


def _apply_powers(vals, prod, lo, p, pe, e, stop, ratio):
    """From p^e on, for each power of p below stop: multiply vals by
    ratio(p, e) and prod by p at the multiples of p^e, where vals[i] and
    prod[i] stand for n = lo + i.  Return the (p^e, e) that comes next, or
    None once a ratio is 0 (the higher powers then change nothing)."""
    while pe < stop:
        r = ratio(p, e)
        first = -lo % pe  # offset of the first multiple of p^e
        vals[first::pe] *= r
        if r == 0:
            return None
        prod[first::pe] *= p
        pe, e = pe * p, e + 1
    return pe, e


def _tile_into(dst: np.ndarray, tile: np.ndarray, start: int) -> None:
    """dst[i] = tile[(start + i) % tile.size]."""
    i = min(dst.size, tile.size - start)
    dst[:i] = tile[start : start + i]
    while i < dst.size:
        k = min(tile.size, dst.size - i)
        dst[i : i + k] = tile[:k]
        i += k


def _segment_filler(n_max: int, size: int, ratio, dtype):
    """fill(vals, lo) writes f(n) for n in [lo, lo + len(vals)) into vals,
    for the multiplicative f on [1, n_max] with ratio(p, e) = f(p^e) /
    f(p^(e-1)), so ratio(q, 1) = f(q).  vals has the given dtype and at most
    size entries."""
    # f over the tiled powers, and their product, for n mod _PERIOD; each
    # tile entry is at most _PERIOD in absolute value, so it fits int32
    tile_dtype = dtype if np.dtype(dtype).itemsize <= 4 else np.int32
    tile_vals = np.ones(min(_PERIOD, n_max + 1), dtype=tile_dtype)
    tile_prod = np.ones(tile_vals.size, dtype=np.int32)
    powers = []  # (p, p^e, e): where each prime's powers go on per segment
    for p, top in _TILED:
        nxt = _apply_powers(tile_vals, tile_prod, 0, p, p, 1,
                            min(p ** (top + 1), n_max + 1), ratio)
        if nxt is not None:
            powers.append((p, *nxt))
    tiled = {p for p, _ in _TILED}
    powers += [(p, p, 1) for p in primes_up_to(math.isqrt(n_max)).tolist()
               if p not in tiled]
    prod_buf = np.empty(size, dtype=np.int32 if n_max < 1 << 31 else np.int64)

    def fill(vals: np.ndarray, lo: int) -> None:
        hi = lo + vals.size
        prod = prod_buf[: vals.size]
        _tile_into(vals, tile_vals, lo % _PERIOD)
        _tile_into(prod, tile_prod, lo % _PERIOD)
        for p, pe, e in powers:
            _apply_powers(vals, prod, lo, p, pe, e, hi, ratio)
        # prod divides n and both are below 2^53, so the quotient is exact:
        # 1, or the one prime factor of n above sqrt(n_max)
        for a in range(0, vals.size, _QUOTIENT_CHUNK):
            b = min(a + _QUOTIENT_CHUNK, vals.size)
            q = np.arange(lo + a, lo + b, dtype=np.float64)
            q /= prod[a:b]
            # 1 + [q > 1] (f(q) - 1): f(q) for a prime q, 1 for q = 1
            factor = (q > 1).astype(vals.dtype)
            np.multiply(factor, ratio(q, 1) - 1, out=factor, casting="unsafe")
            factor += 1
            vals[a:b] *= factor

    return fill


def multiplicative_segments(n_max: int, segment_size: int, ratio, dtype):
    """Yield (lo, f on [lo, lo + len)) over [1, n_max] for the multiplicative f
    with ratio(p, e) = f(p^e) / f(p^(e-1)) (see _segment_filler).  The values
    are a view of one buffer that the next segment overwrites."""
    size = min(segment_size, n_max)
    fill = _segment_filler(n_max, size, ratio, dtype)
    buf = np.empty(size, dtype=dtype)
    for lo in range(1, n_max + 1, segment_size):
        vals = buf[: min(segment_size, n_max + 1 - lo)]
        fill(vals, lo)
        yield lo, vals


def _segmented_pack(n_max, segment_size, ratio, label) -> MobiusTable:
    """Packed table of a {-1, 0, +1}-valued multiplicative f."""
    segment_size = max(4, (segment_size // 4) * 4)  # whole bytes of codes
    out = np.empty((n_max + 3) // 4, dtype=np.uint8)
    for lo, vals in multiplicative_segments(n_max, segment_size, ratio, np.int8):
        codes = vals.view(np.uint8)  # the buffer is refilled for the next segment
        codes &= 3  # 0 -> 0, 1 -> 1, -1 -> 3
        codes -= codes >> 1  # -1 -> 2
        b0 = (lo - 1) // 4
        out[b0 : b0 + (codes.size + 3) // 4] = _pack_codes(codes)
    return MobiusTable(n_max, out, label)


def mu_ratio(p, e):
    return -1 if e == 1 else 0


def lambda_ratio(p, e):
    return -1


def pack_mobius(n_max: int, segment_size: int = 1 << 20) -> MobiusTable:
    return _segmented_pack(n_max, segment_size, mu_ratio, "mu")


def pack_liouville(n_max: int, segment_size: int = 1 << 20) -> MobiusTable:
    return _segmented_pack(n_max, segment_size, lambda_ratio, "lambda")
