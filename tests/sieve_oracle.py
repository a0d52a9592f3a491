"""The sieve kernels that walked every n, before the odd-only walk, kept as
the oracles for `mulab.sieves`.

They pre-sieve 2^4, 3^2, 5^2, 7^2 and their divisors from one tile of
period 176,400 = 2^4 3^2 5^2 7^2, indexed by n mod 176,400.

* mu and lambda: each segment is one signed product s over every n.  Each
  sieved prime power p^e dividing n multiplies s by -p; mu stops at p and
  sets s to 0 at the multiples of p^2, lambda goes on for every power of p.
  The value is 0 where s = 0, else sign(s) flipped exactly when
  0 < |s| < n.  `pack_mobius` and `pack_liouville` return the packed table
  the way that kernel did.
* phi: the ratio kernel.  A tile of phi over the tiled powers and one of
  their product; every other prime power p^e multiplies the values at its
  multiples by p - 1, then p, and the product by p; the leftover prime q is
  the float64 quotient n / product and contributes q - 1.  `phi_values`
  returns the int64 table the way that kernel did.

The code below is the kernels' code as it stood, apart from the wrappers at
the end.
"""

import math

import numpy as np

from mulab.sieves import MobiusTable, primes_up_to

_TILED = ((2, 4), (3, 2), (5, 2), (7, 2))
_PERIOD = math.prod(p ** e for p, e in _TILED)  # 176,400
_QUOTIENT_CHUNK = 1 << 16


def _pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack 2-bit codes four to a byte, entry i at bits 2*(i % 4)."""
    if codes.size % 4:
        codes = np.concatenate([codes, np.zeros(4 - codes.size % 4, dtype=np.uint8)])
    # each group of four codes read as one little-endian uint32: code k sits
    # at bit 8k and moves to bit 2k
    word = codes.view("<u4")
    packed = word >> 6
    packed |= word
    packed |= word >> 12
    packed |= word >> 18
    return packed.astype(np.uint8)


def _apply_powers(vals, prod, lo, p, pe, e, stop):
    """From p^e on, for each power of p below stop: multiply vals by
    phi(p^e) / phi(p^(e-1)) (p - 1, then p) and prod by p at the multiples
    of p^e, where vals[i] and prod[i] stand for n = lo + i.  Return the
    (p^e, e) that comes next."""
    while pe < stop:
        first = -lo % pe  # offset of the first multiple of p^e
        vals[first::pe] *= p - 1 if e == 1 else p
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


def _segment_filler(n_max: int, size: int):
    """fill(vals, lo) writes phi(n) for n in [lo, lo + len(vals)) into the
    int64 array vals, of at most size entries (see the module docstring)."""
    # phi over the tiled powers, and their product, for n mod _PERIOD; each
    # tile entry is at most _PERIOD, so it fits int32
    tile_vals = np.ones(min(_PERIOD, n_max + 1), dtype=np.int32)
    tile_prod = np.ones(tile_vals.size, dtype=np.int32)
    powers = []  # (p, p^e, e): where each prime's powers go on per segment
    for p, top in _TILED:
        nxt = _apply_powers(tile_vals, tile_prod, 0, p, p, 1,
                            min(p ** (top + 1), n_max + 1))
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
            _apply_powers(vals, prod, lo, p, pe, e, hi)
        # prod divides n and both are below 2^53, so the quotient is exact:
        # 1, or the one prime factor of n above sqrt(n_max)
        for a in range(0, vals.size, _QUOTIENT_CHUNK):
            b = min(a + _QUOTIENT_CHUNK, vals.size)
            q = np.arange(lo + a, lo + b, dtype=np.float64)
            q /= prod[a:b]
            # 1 + [q > 1] (q - 2): phi(q) = q - 1 for a prime q, 1 for q = 1
            factor = (q > 1).astype(np.int64)
            np.multiply(factor, q - 2, out=factor, casting="unsafe")
            factor += 1
            vals[a:b] *= factor

    return fill


def _signed_segments(n_max: int, segment_size: int, squarefree: bool):
    """Yield (lo, s) over [1, n_max], where s[i] is the signed product for
    n = lo + i (see the module docstring): mu's when squarefree, else
    lambda's.  s is a view of one buffer that the next segment overwrites."""
    # the product over the tiled powers for n mod _PERIOD: at most _PERIOD
    # in absolute value, so int32; a power past the tile only meets index 0
    tile = np.ones(min(_PERIOD, n_max + 1), dtype=np.int32)
    powers = []  # (p, p^e): the first power of p each segment multiplies by
    for p, top in _TILED:
        for pe in (p ** e for e in range(1, top + 1)):
            if squarefree and pe > p:
                tile[::pe] = 0
                break
            tile[::pe] *= -p
        if not squarefree:
            powers.append((p, p ** (top + 1)))
    tiled = {p for p, _ in _TILED}
    powers += [(p, p) for p in primes_up_to(math.isqrt(n_max)).tolist()
               if p not in tiled]
    buf = np.empty(min(segment_size, n_max),
                   dtype=np.int32 if n_max < 1 << 31 else np.int64)
    for lo in range(1, n_max + 1, segment_size):
        s = buf[: min(segment_size, n_max + 1 - lo)]
        hi = lo + s.size
        _tile_into(s, tile, lo % _PERIOD)
        for p, pe in powers:
            if squarefree:
                s[-lo % p :: p] *= -p
                s[-lo % (p * p) :: p * p] = 0
                continue
            while pe < hi:
                s[-lo % pe :: pe] *= -p
                pe *= p
        yield lo, s


def _codes(s: np.ndarray, lo: int) -> np.ndarray:
    """The 2-bit codes (0, 1 for +1, 2 for -1) of the signed products s for
    n = lo + i: 0 where s = 0, else sign(s), flipped where |s| < n."""
    flip = np.abs(s) < np.arange(lo, lo + s.size, dtype=s.dtype)
    flip ^= s < 0
    codes = (s != 0).view(np.uint8)
    codes <<= flip.view(np.uint8)
    return codes


def _segmented_pack(n_max, segment_size, label, squarefree) -> MobiusTable:
    """Packed table of mu (squarefree) or lambda."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    segment_size = max(4, (segment_size // 4) * 4)  # whole bytes of codes
    out = np.empty((n_max + 3) // 4, dtype=np.uint8)
    for lo, s in _signed_segments(n_max, segment_size, squarefree):
        # _QUOTIENT_CHUNK is a multiple of 4: each chunk fills whole bytes
        for a in range(0, s.size, _QUOTIENT_CHUNK):
            chunk = s[a : a + _QUOTIENT_CHUNK]
            b0 = (lo + a - 1) // 4
            out[b0 : b0 + (chunk.size + 3) // 4] = _pack_codes(_codes(chunk, lo + a))
    return MobiusTable(n_max, out, label)


def pack_mobius(n_max: int, segment_size: int = 1 << 20) -> MobiusTable:
    return _segmented_pack(n_max, segment_size, "mu", squarefree=True)


def pack_liouville(n_max: int, segment_size: int = 1 << 20) -> MobiusTable:
    return _segmented_pack(n_max, segment_size, "lambda", squarefree=False)


def phi_values(n_max: int, segment_size: int = 1 << 20) -> np.ndarray:
    """phi on [0, n_max] as int64, phi(0) = 0, filled in place segment by
    segment, as the ratio kernel's sieve did."""
    out = np.zeros(n_max + 1, dtype=np.int64)
    fill = _segment_filler(n_max, min(segment_size, n_max))
    for lo in range(1, n_max + 1, segment_size):
        fill(out[lo : lo + segment_size], lo)
    return out
