"""Segmented sieves for mu / lambda / phi, Mertens sums, the pretentious
distance, and a bit-packed persistent cache.

Values of mu (and lambda) live in a 2-bit packed array over [1, n_max]:
code 00 -> 0, 01 -> +1, 10 -> -1; code 11 is reserved-invalid so corrupted
payloads are detectable.  Entry n sits at bit offset 2*(n-1), little-endian
within each byte.  Index 0 is unaddressable: the sums here run from n = 1.
Reads decode whole bytes through one 256 x 4 table of signed values (and
Mertens sums whole bytes through the 256 sums of its rows), a chunk of
bytes at a time, and refuse a chunk holding a code 11.

All three sieves sieve the odd n only.  A segment of segment_size n holds
its odd n = 2t + 1 at index t - t0, and the multiples of an odd prime power
p^e fall every p^e-th index from ((p^e - 1)/2 - t0) mod p^e on.  The odd
prime powers 3^2, 5^2, 7^2 and their divisors are pre-sieved once, over the
11,025 odd residues of 3^2 5^2 7^2 (t mod 11,025; no more than the odd
n <= n_max): each segment starts from that tile at offset t0 mod 11,025.
The prime 2 is not sieved: the even n = 2k take their values from k, which
is final before they are written, by three rules:
    phi(2k) = phi(k), doubled when k is even;
    lambda(2k) = -lambda(k);
    mu(2k) = -mu(k) for odd k, 0 for even k.
Every segment after the first reads its k = n / 2 from earlier segments;
the first fills its even n in doubling blocks [L, 2L), which read [L/2, L).

mu and lambda build each segment as one signed product s over its odd n,
int32 (int64 once n_max >= 2^31).  Each sieved prime power p^e dividing n
multiplies s by -p; mu stops at p and sets s to 0 at the multiples of p^2,
lambda goes on for every power of p up to n_max.  Every odd prime up to
sqrt(n_max) is sieved, so an odd n = |s| q where q is 1 or one prime above
sqrt(n_max), and for mu s = 0 exactly when a square divides n.  The value
is 0 where s = 0, else sign(s) flipped exactly when 0 < |s| < n: one
integer compare decides the leftover prime.  The odd n's codes go straight
into the table, two to a byte (n = 4c + 1 and 4c + 3 of byte c), a chunk
of a segment at a time.  Then one 256-entry lookup per function maps each
byte c of the table (the codes of k = 4c + 1..4c + 4) to the codes of their
n = 2k, which are OR-ed into bytes 2c and 2c + 1.  Byte 0 reads itself
(lambda(4) = -lambda(2), and lambda(8) = -lambda(4) in byte 1), so bytes 0
and 1 take that step three times.  Each segment starts at an even byte, so
segment_size is rounded up to a multiple of 8.

phi keeps, over the odd n of a segment, the int32 values (int64 from
n_max = 2^31 on) of phi over the sieved prime powers and their product: a
tile of each over the tiled powers, then every other odd prime power
p^e <= n_max multiplies the values at its multiples by
phi(p^e) / phi(p^(e-1)) (p - 1, then p) and the product by p.  The quotient
q = n / product is 1 or one prime above sqrt(n_max), whose phi(q) = q - 1
is the last factor: one float64 pass takes q, then q - [q > 1], times the
values, into the table's odd entries.  It is exact because the product
divides n and phi(n) <= n < 2^53; all three sieves refuse n_max >= 2^53
up front.  The even entries are then copied from n / 2 and doubled where
n / 2 is even.  Each segment starts at an odd n, so segment_size is rounded
up to an even number.  Every sieve refuses segment_size < 1.

Tables are immutable after construction and safe to share across
concurrent readers; construction itself is single-writer, segment by
segment.  A table's weight array is decoded once, cached and read-only.

Cache file layout (bit-exact across platforms):
    magic "MUSV" | version 0x02 | u64 LE n_max | payload ceil(n_max/4) bytes
    | CRC-32 (IEEE) of every byte before it, u32 LE (version 1's left n_max out)
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._util import DEFAULT_BUDGET_BYTES, atomic_write
from .errors import (
    CacheChecksumError,
    CacheFormatError,
    CacheMagicError,
    CacheVersionError,
    InvariantError,
    ResourceBudgetError,
)

MAGIC = b"MUSV"
VERSION = 2

_DEFAULT_SEGMENT = 1 << 20
#: payload bytes per step of a scan for code 11: _DEFAULT_SEGMENT entries
_SCAN_BYTES = _DEFAULT_SEGMENT // 4
#: the odd primes pre-sieved from one tile, with their top exponents
_TILED = ((3, 2), (5, 2), (7, 2))
#: the tile's length: t mod _PERIOD for the odd n = 2t + 1
_PERIOD = math.prod(p ** e for p, e in _TILED)  # 11,025
#: odd n per pass over the leftover primes, small enough to stay in cache
_QUOTIENT_CHUNK = 1 << 16
# working bytes of a sieve, as tracemalloc measures them: per odd n of a
# segment, phi's values and product of the sieved powers (4 + 4), or mu's
# and lambda's signed product (4) beside the even n's looked-up codes (one
# uint16 per two table bytes, half a byte), twice that from n_max = 2^31 on,
# where they are int64; per odd n of a quotient pass, phi's float64 quotient
# and numpy's cast buffers (8 + 8), or mu's and lambda's n and |s| beside
# their compare's masks (8 + 8 + 4 at worst; the codes and their packing take
# less); per entry of the tile, phi's two int32 tiles (mu's and lambda's
# one); per integer up to sqrt(n_max), the prime mask and the base primes'
# powers (about 100 bytes a prime); and a fixed part for Python objects and
# array headers.  The two 256-entry lookup tables of the even n's codes are
# built at import: the output table is written in place, with no copy.
_SEGMENT_BYTES_PER_N = 4 + 4
_QUOTIENT_BYTES_PER_N = 8 + 8 + 4
_TILE_BYTES_PER_N = 4 + 4
_ROOT_BYTES_PER_N = 16
_FIXED_BYTES = 1 << 14

# the four signed values of each packed byte, and their sum; a code 11
# decodes as 0 here and is caught by _reserved
_BYTE_VALUES = np.array([[(0, 1, -1, 0)[b >> k & 3] for k in (0, 2, 4, 6)]
                         for b in range(256)], dtype=np.int8)
_BYTE_SUMS = np.array([sum(row) for row in _BYTE_VALUES.tolist()], dtype=np.int8)


def _even_codes(squarefree: bool) -> np.ndarray:
    """Per packed byte c (the codes of k = 4c + 1..4c + 4), the codes of
    n = 2k at their places in bytes 2c and 2c + 1, read as one little-endian
    uint16: the low byte and the high byte are the two byte lookup tables.
    2k = 8c + 2 + 2j sits at bit 2 + 4j.  Its code is k's negated (1 and 2
    swap), and for mu 0 when k is even."""
    # neg[j, b]: the negated code of k = 4c + 1 + j in byte b
    neg = np.array([0, 2, 1, 3], dtype="<u2")[
        np.arange(256) >> np.arange(0, 8, 2)[:, None] & 3]
    return sum(neg[j] << 2 + 4 * j for j in range(4) if not (squarefree and j % 2))


#: _even_codes for mu (True) and lambda (False)
_EVEN_CODES = {squarefree: _even_codes(squarefree) for squarefree in (True, False)}


def primes_up_to(n: int) -> np.ndarray:
    """Ascending array of primes <= n."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _reserved(packed: np.ndarray) -> np.ndarray:
    """Per byte, the low bit of every pair whose code is 11."""
    reserved = packed >> 1
    reserved &= packed
    reserved &= 0x55
    return reserved


@dataclass
class MobiusTable:
    """Packed table of a {-1,0,+1}-valued function on [1, n_max].

    Built for mu; the same container also carries lambda (the file format
    does not record which, the caller's filename/label does).
    """

    n_max: int
    packed: np.ndarray
    label: str = "mu"
    _weights: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the CRC and the cache writer read the array's buffer
        self.packed = np.ascontiguousarray(self.packed)
        expected = (self.n_max + 3) // 4
        if self.packed.size != expected:
            raise InvariantError(
                f"packed payload has {self.packed.size} bytes, expected {expected}"
            )

    @property
    def checksum(self) -> int:
        return zlib.crc32(self.packed) & 0xFFFFFFFF

    def _bytes(self, b0: int, b1: int):
        """(first byte, payload bytes) over bytes [b0, b1), one
        _DEFAULT_SEGMENT entries at a time, each checked for code 11."""
        for a in range(b0, b1, _SCAN_BYTES):
            block = self.packed[a : min(a + _SCAN_BYTES, b1)]
            if _reserved(block).any():
                raise InvariantError("reserved code 11 present in table")
            yield a, block

    def _decode(self, quads: np.ndarray, b0: int) -> None:
        """quads[i] = the four signed values of payload byte b0 + i."""
        for a, block in self._bytes(b0, b0 + len(quads)):
            np.take(_BYTE_VALUES, block, axis=0, mode="clip",
                    out=quads[a - b0 : a - b0 + block.size])

    def values(self, lo: int, hi: int) -> np.ndarray:
        """Signed values for n in [lo, hi) as int8."""
        if not 1 <= lo <= hi <= self.n_max + 1:
            raise ValueError(f"range [{lo}, {hi}) outside [1, {self.n_max}]")
        b0 = (lo - 1) // 4
        quads = np.empty(((hi - 1 + 3) // 4 - b0, 4), dtype=np.int8)
        self._decode(quads, b0)
        return quads.ravel()[(lo - 1) - 4 * b0 : (hi - 1) - 4 * b0]

    def value(self, n: int) -> int:
        return int(self.values(n, n + 1)[0])

    def weight_array(self) -> np.ndarray:
        """Read-only int8 array w with w[n] = value(n) for 1 <= n <= n_max;
        w[0] = 0.  Decoded once, in place, then cached and shared."""
        if self._weights is None:
            w = np.empty(self.n_max + 1, dtype=np.int8)
            w[0] = 0
            full = self.n_max // 4  # the bytes that hold four entries
            self._decode(w[1 : 1 + 4 * full].reshape(-1, 4), 0)
            w[1 + 4 * full :] = self.values(4 * full + 1, self.n_max + 1)
            w.flags.writeable = False
            self._weights = w
        return self._weights

    def _sum(self, lo: int, hi: int) -> int:
        """Sum of the values for n in [lo, hi), whole bytes by their sums."""
        b0, b1 = -(-(lo - 1) // 4), (hi - 1) // 4  # the bytes inside [lo, hi)
        if b0 > b1:
            return int(self.values(lo, hi).sum())
        total = (int(self.values(lo, 4 * b0 + 1).sum())
                 + int(self.values(4 * b1 + 1, hi).sum()))
        for _, block in self._bytes(b0, b1):
            total += int(np.take(_BYTE_SUMS, block, mode="clip").sum(dtype=np.int64))
        return total


def _segment_bytes(n_max: int, segment_size: int) -> int:
    """Working bytes of a sieve beside its table: one segment, one quotient
    pass, the tile and the base primes."""
    odd = (min(segment_size, n_max) + 1) // 2  # the odd n of one segment
    wide = 1 if n_max < 1 << 31 else 2  # int64 segments from 2^31 on
    return (wide * _SEGMENT_BYTES_PER_N * odd
            + _QUOTIENT_BYTES_PER_N * min(_QUOTIENT_CHUNK, odd)
            + _TILE_BYTES_PER_N * min(_PERIOD, (n_max + 1) // 2)
            + _ROOT_BYTES_PER_N * math.isqrt(n_max) + _FIXED_BYTES)


def _check_budget(label, table_bytes, n_max, segment_size) -> None:
    """Refuse a sieve past phi's exact float quotient, the one range limit of
    all three sieves, or one whose table plus working bytes exceed the
    budget."""
    if n_max >= 1 << 53:
        raise ValueError(
            f"{label} sieve for n_max={n_max}: n_max must be below 2^53, where "
            f"phi's leftover prime is an exact float64 quotient")
    segment_bytes = _segment_bytes(n_max, segment_size)
    need = table_bytes + segment_bytes
    if need > DEFAULT_BUDGET_BYTES:
        raise ResourceBudgetError(
            f"{label} sieve for n_max={n_max} needs {need} bytes ({table_bytes} "
            f"for the table, {segment_bytes} for one segment, the tile "
            f"and the base primes), over the {DEFAULT_BUDGET_BYTES}-byte budget; "
            f"lower n_max"
        )


def _apply_powers(vals, prod, t0, p, pe, e, stop):
    """From p^e on, for each power of p below stop: multiply vals by
    phi(p^e) / phi(p^(e-1)) (p - 1, then p) and prod by p at the multiples
    of p^e, where vals[i] and prod[i] stand for the odd n = 2 (t0 + i) + 1.
    Return the (p^e, e) that comes next."""
    while pe < stop:
        first = (pe // 2 - t0) % pe  # 2t + 1 = 0 mod p^e at t = (p^e - 1) / 2
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


def _base_primes(n_max: int) -> list[int]:
    """The odd primes up to sqrt(n_max) that the tile leaves to each segment."""
    skip = {2, *(p for p, _ in _TILED)}
    return [p for p in primes_up_to(math.isqrt(n_max)).tolist() if p not in skip]


def _phi_segments(n_max: int, segment_size: int):
    """Yield (lo, vals, prod) over the odd n of [1, n_max], segment_size n
    (an even number) at a time, where vals[i] is phi of the sieved part of
    the odd n = lo + 2i and prod[i] is that part (see the module docstring).
    Both are views of buffers that the next segment overwrites."""
    odd = (n_max + 1) // 2
    # phi over the tiled powers, and their product, for t mod _PERIOD; each
    # tile entry is at most _PERIOD, so it fits int32
    tile_vals = np.ones(min(_PERIOD, odd), dtype=np.int32)
    tile_prod = np.ones(tile_vals.size, dtype=np.int32)
    powers = []  # (p, p^e, e): where each prime's powers go on per segment
    for p, top in _TILED:
        nxt = _apply_powers(tile_vals, tile_prod, 0, p, p, 1,
                            min(p ** (top + 1), n_max + 1))
        powers.append((p, *nxt))
    powers += [(p, p, 1) for p in _base_primes(n_max)]
    half = segment_size // 2
    dtype = np.int32 if n_max < 1 << 31 else np.int64
    vals_buf = np.empty(min(half, odd), dtype=dtype)
    prod_buf = np.empty(vals_buf.size, dtype=dtype)
    for t0 in range(0, odd, half):
        vals = vals_buf[: min(half, odd - t0)]
        prod = prod_buf[: vals.size]
        _tile_into(vals, tile_vals, t0 % _PERIOD)
        _tile_into(prod, tile_prod, t0 % _PERIOD)
        for p, pe, e in powers:
            _apply_powers(vals, prod, t0, p, pe, e, 2 * (t0 + vals.size))
        yield 2 * t0 + 1, vals, prod


def _signed_segments(n_max: int, segment_size: int, squarefree: bool):
    """Yield (lo, s) over the odd n of [1, n_max], segment_size n (an even
    number) at a time, where s[i] is the signed product for the odd
    n = lo + 2i (see the module docstring): mu's when squarefree, else
    lambda's.  s is a view of one buffer that the next segment overwrites."""
    odd = (n_max + 1) // 2
    # the product over the tiled powers for t mod _PERIOD: at most _PERIOD
    # in absolute value, so int32
    tile = np.ones(min(_PERIOD, odd), dtype=np.int32)
    powers = []  # (p, p^e): the first power of p each segment multiplies by
    for p, top in _TILED:
        for pe in (p ** e for e in range(1, top + 1)):
            if squarefree and pe > p:
                tile[pe // 2 :: pe] = 0
                break
            tile[pe // 2 :: pe] *= -p
        if not squarefree:
            powers.append((p, p ** (top + 1)))
    powers += [(p, p) for p in _base_primes(n_max)]
    half = segment_size // 2
    buf = np.empty(min(half, odd), dtype=np.int32 if n_max < 1 << 31 else np.int64)
    for t0 in range(0, odd, half):
        s = buf[: min(half, odd - t0)]
        hi = 2 * (t0 + s.size)  # above the segment's last odd n
        _tile_into(s, tile, t0 % _PERIOD)
        for p, pe in powers:
            if squarefree:
                s[(p // 2 - t0) % p :: p] *= -p
                pe = p * p
                s[(pe // 2 - t0) % pe :: pe] = 0
                continue
            while pe < hi:
                s[(pe // 2 - t0) % pe :: pe] *= -p
                pe *= p
        yield 2 * t0 + 1, s


def _codes(s: np.ndarray, lo: int) -> np.ndarray:
    """The 2-bit codes (0, 1 for +1, 2 for -1) of the signed products s for
    the odd n = lo + 2i: 0 where s = 0, else sign(s), flipped where |s| < n."""
    flip = np.abs(s) < np.arange(lo, lo + 2 * s.size, 2, dtype=s.dtype)
    flip ^= s < 0
    codes = (s != 0).view(np.uint8)
    codes <<= flip.view(np.uint8)
    return codes


def _pack_odd(codes: np.ndarray, dst: np.ndarray) -> None:
    """dst[c] = codes[2c] | codes[2c + 1] << 4: the codes of the odd n of
    byte c (n = 4c + 1 and 4c + 3) at its bits 0 and 4, the even n's bits
    left 0."""
    if codes.size % 2:
        codes = np.append(codes, np.uint8(0))
    pair = codes.view("<u2")  # code 2c in the low byte, 2c + 1 in the high
    pair |= pair >> 4
    dst[:] = pair  # the low bytes


def _or_evens(out: np.ndarray, b0: int, b1: int, evens: np.ndarray) -> None:
    """OR into bytes [b0, b1) of out (b0 even) the codes of their even n = 2k,
    looked up in evens from bytes [b0 / 2, ceil(b1 / 2)), which hold k."""
    looked = np.take(evens, out[b0 // 2 : (b1 + 1) // 2])  # read before written
    pairs = (b1 - b0) // 2
    out[b0 : b0 + 2 * pairs].view("<u2")[:] |= looked[:pairs]
    if (b1 - b0) % 2:
        out[b1 - 1] |= looked[-1] & 0xFF


def _segmented_pack(n_max, segment_size, label, squarefree) -> MobiusTable:
    """Packed table of mu (squarefree) or lambda."""
    if n_max < 1 or segment_size < 1:
        raise ValueError("n_max and segment_size must be >= 1")
    segment_size = -(-segment_size // 8) * 8  # each segment starts at an even byte
    _check_budget(label, (n_max + 3) // 4, n_max, segment_size)
    out = np.empty((n_max + 3) // 4, dtype=np.uint8)
    evens = _EVEN_CODES[squarefree]
    for lo, s in _signed_segments(n_max, segment_size, squarefree):
        b0 = (lo - 1) // 4
        # _QUOTIENT_CHUNK is even: each chunk fills whole bytes
        for a in range(0, s.size, _QUOTIENT_CHUNK):
            chunk = s[a : a + _QUOTIENT_CHUNK]
            c = b0 + a // 2
            _pack_odd(_codes(chunk, lo + 2 * a), out[c : c + (chunk.size + 1) // 2])
        b1 = b0 + (s.size + 1) // 2
        if b0 == 0:  # bytes 0 and 1 read byte 0 itself: n = 2 reads 1, 4
            for _ in range(3):  # reads 2 and 8 reads 4, a pass each
                _or_evens(out, 0, min(2, b1), evens)
            b0 = 2
        # blocks [b, 2b) read [b / 2, b), already final; a later segment is
        # one block
        while b0 < b1:
            b = min(2 * b0, b1)
            _or_evens(out, b0, b, evens)
            b0 = b
    if n_max % 4:  # the last byte's codes past n_max
        out[-1] &= (1 << 2 * (n_max % 4)) - 1
    return MobiusTable(n_max, out, label)


def sieve_mobius(n_max: int, segment_size: int = _DEFAULT_SEGMENT) -> MobiusTable:
    """Exact mu on [1, n_max]: 0 on non-squarefree n, else (-1)^(#prime factors).
    segment_size is rounded up to a multiple of 8."""
    return _segmented_pack(n_max, segment_size, "mu", squarefree=True)


def sieve_liouville(n_max: int, segment_size: int = _DEFAULT_SEGMENT) -> MobiusTable:
    """Exact lambda on [1, n_max]: completely multiplicative, lambda(p) = -1.
    segment_size is rounded up to a multiple of 8."""
    return _segmented_pack(n_max, segment_size, "lambda", squarefree=False)


@dataclass
class PhiTable:
    n_max: int
    values: np.ndarray  # int64, index 0 unused

    def value(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside [1, {self.n_max}]")
        return int(self.values[n])


def euler_phi(n: int) -> int:
    """phi(n) for one n >= 1 by trial division over the primes up to
    isqrt(n): no table, so phi(s) costs isqrt(s) bytes of prime sieve
    instead of the s + 1 entries of `sieve_phi(s)`."""
    if n < 1:
        raise ValueError(f"phi needs n >= 1, got {n}")
    out = rest = n
    for p in primes_up_to(math.isqrt(n)).tolist():
        if p * p > rest:
            break
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
    if rest > 1:  # no prime up to sqrt(rest) divides it, so rest is prime
        out -= out // rest
    return out


def sieve_phi(n_max: int, segment_size: int = _DEFAULT_SEGMENT) -> PhiTable:
    """Euler phi on [1, n_max]: multiplicative, phi(p^e) = p^(e-1) (p - 1).
    segment_size is rounded up to an even number."""
    if n_max < 1 or segment_size < 1:
        raise ValueError("n_max and segment_size must be >= 1")
    segment_size += segment_size % 2  # each segment starts at an odd n
    _check_budget("phi", 8 * (n_max + 1), n_max, segment_size)
    out = np.zeros(n_max + 1, dtype=np.int64)
    for lo, vals, prod in _phi_segments(n_max, segment_size):
        for a in range(0, vals.size, _QUOTIENT_CHUNK):
            b = min(a + _QUOTIENT_CHUNK, vals.size)
            # prod divides n, so the quotient is exact: 1, or the one prime
            # q of n above sqrt(n_max), where the factor is phi(q) = q - 1
            q = np.arange(lo + 2 * a, lo + 2 * b, 2, dtype=np.float64)
            q /= prod[a:b]
            q -= q > 1
            q *= vals[a:b]
            out[lo + 2 * a : lo + 2 * b : 2] = q
        # phi(2k) = phi(k), doubled for even k, for the segment's even n; in
        # blocks of n in [2k, 4k), whose k in [k, 2k) are final by then
        k, k1 = (lo + 1) // 2, (min(lo + segment_size, n_max + 1) + 1) // 2
        while k < k1:
            e = min(2 * k, k1)
            even = out[2 * k : 2 * e : 2]
            even[:] = out[k:e]
            even[k % 2 :: 2] <<= 1
            k = e
    return PhiTable(n_max, out)


def mertens(table: MobiusTable, n: int) -> int:
    """M(n) = sum_{m <= n} mu(m), exact."""
    return mertens_trace(table, [n])[0][1]


def mertens_trace(table: MobiusTable, ns: Sequence[int]) -> list[tuple[int, int]]:
    """Cumulative M(n) sampled at the (sorted) checkpoints ns."""
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 1 or ns[-1] > table.n_max:
        raise ValueError(f"checkpoints outside [1, {table.n_max}]")
    out = []
    total = 0
    prev = 1
    for n in ns:
        total += table._sum(prev, n + 1)
        prev = n + 1
        out.append((n, total))
    return out


# ---------------------------------------------------------------------------
# pretentious distance


def pretentious_distance_sq(g, t: float, x_max: int) -> float:
    """D^2 = sum_{p <= x_max} (1 - Re(g(p) p^{-it})) / p.

    `g` is an array indexed by n or a callable p -> complex, with |g(p)| <= 1.
    """
    ps = primes_up_to(x_max)
    if ps.size == 0:
        return 0.0
    if callable(g):
        vals = np.array([complex(g(int(p))) for p in ps])
    else:
        vals = np.asarray(g)[ps].astype(np.complex128)
    if (np.abs(vals) > 1.0 + 1e-12).any():
        raise ValueError("pretentious distance needs |g(p)| <= 1")
    twist = np.exp(-1j * t * np.log(ps.astype(np.float64)))
    terms = (1.0 - (vals * twist).real) / ps
    return float(terms.sum())


def m_estimate(g, t_grid: Sequence[float], x_max: int) -> tuple[float, float]:
    """min over the grid of D^2(g, n^{it}); an upper bound for the true inf
    over all moduli/characters (only the trivial character is scanned).
    Returns (best value, best t)."""
    if not t_grid:
        raise ValueError("t_grid must be nonempty")
    best, best_t = math.inf, None
    for t in t_grid:
        v = pretentious_distance_sq(g, t, x_max)
        if v < best:
            best, best_t = v, t
    return best, best_t


# ---------------------------------------------------------------------------
# persistence


def save_cache(table: MobiusTable, path: str | Path) -> None:
    """Write the packed table; bit-exact and atomic (temp file + rename).
    The payload goes from the table's array to the file, with no copy."""
    header = MAGIC + bytes([VERSION]) + struct.pack("<Q", table.n_max)
    crc = zlib.crc32(table.packed, zlib.crc32(header))
    atomic_write(path, header, memoryview(table.packed), struct.pack("<I", crc))


def load_cache(path: str | Path) -> MobiusTable:
    """Read a packed table, verifying magic, version, n_max and CRC."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise CacheMagicError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 13:
        raise CacheChecksumError(f"{path}: truncated header")
    version = blob[4]
    if version != VERSION:
        raise CacheVersionError(
            f"{path}: version 0x{version:02x}, expected 0x{VERSION:02x}"
        )
    (n_max,) = struct.unpack("<Q", blob[5:13])
    if n_max < 1:
        raise CacheFormatError(f"{path}: n_max {n_max}, a table needs n_max >= 1")
    payload_len = (n_max + 3) // 4
    rest = memoryview(blob)[13:]  # slices below are views, not copies
    if len(rest) != payload_len + 4:
        raise CacheChecksumError(
            f"{path}: payload+crc is {len(rest)} bytes, expected {payload_len + 4} "
            f"(truncated or padded file)"
        )
    payload, crc_bytes = rest[:payload_len], rest[payload_len:]
    (crc_stored,) = struct.unpack("<I", crc_bytes)
    crc_actual = zlib.crc32(payload, zlib.crc32(blob[:13]))
    if crc_stored != crc_actual:
        raise CacheChecksumError(
            f"{path}: CRC mismatch (stored {crc_stored:08x}, actual {crc_actual:08x})"
        )
    # tables are immutable: the table is a read-only view of the file's bytes
    packed = np.frombuffer(payload, dtype=np.uint8)
    # a code 11 sets both bits of its pair: one test per byte, a step at a time
    for a in range(0, payload_len, _SCAN_BYTES):
        reserved = _reserved(packed[a : a + _SCAN_BYTES])
        if reserved.any():
            b = int(np.flatnonzero(reserved)[0])
            low = int(reserved[b]) & -int(reserved[b])  # low bit of the first bad pair
            raise CacheFormatError(
                f"{path}: reserved code 11 at n={4 * (a + b) + low.bit_length() // 2 + 1}")
    return MobiusTable(int(n_max), packed)
