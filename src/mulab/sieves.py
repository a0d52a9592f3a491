"""Segmented sieves for mu / lambda / phi, Mertens sums, the pretentious
distance, and a bit-packed persistent cache.

Values of mu (and lambda) live in a 2-bit packed array over [1, n_max]:
code 00 -> 0, 01 -> +1, 10 -> -1; code 11 is reserved-invalid so corrupted
payloads are detectable.  Entry n sits at bit offset 2*(n-1), little-endian
within each byte.  Index 0 is unaddressable: the sums here run from n = 1.
Reads decode whole bytes through one 256 x 4 table of signed values (and
Mertens sums whole bytes through the 256 sums of its rows), a chunk of
bytes at a time, and refuse a chunk holding a code 11.

All three sieves walk [1, n_max] in segments and pre-sieve the prime powers
2^4, 3^2, 5^2, 7^2 and their divisors once, over one period of 176,400 =
2^4 3^2 5^2 7^2 (no larger than n_max + 1): each segment starts from a tile
at offset lo mod 176,400.

mu and lambda build each segment as one signed product s, int32 (int64 once
n_max >= 2^31).  Each sieved prime power p^e dividing n multiplies s by -p;
mu stops at p and sets s to 0 at the multiples of p^2, lambda goes on for
every power of p up to n_max.  Every prime up to sqrt(n_max) is sieved, so
n = |s| q where q is 1 or one prime above sqrt(n_max), and for mu s = 0
exactly when a square divides n.  The value is 0 where s = 0, else sign(s)
flipped exactly when 0 < |s| < n: one integer compare decides the leftover
prime.  The values go to codes and are packed four to a byte, a chunk of a
segment at a time.

phi keeps the ratio kernel: a tile of phi over the tiled powers and one of
their product, then every other prime power p^e <= n_max multiplies the
values at its multiples by phi(p^e) / phi(p^(e-1)) (p - 1, then p) and the
product by p.  The quotient q = n / product is 1 or one prime above
sqrt(n_max), whose phi(q) = q - 1 is the last factor.  It is taken in
float64, exact because the product divides n and both are below 2^53; all
three sieves refuse n_max >= 2^53 up front.

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
#: the small primes pre-sieved from one period, with their top exponents
_TILED = ((2, 4), (3, 2), (5, 2), (7, 2))
_PERIOD = math.prod(p ** e for p, e in _TILED)  # 176,400
#: entries per pass over the leftover primes, small enough to stay in cache
_QUOTIENT_CHUNK = 1 << 16
# working bytes of a sieve, as tracemalloc measures them: per entry of a
# segment, mu's and lambda's signed product (4 bytes, 8 from n_max = 2^31 on)
# or phi's values and product of the stripped powers (8 + 8 at worst); per
# entry of a quotient pass, phi's float64 quotient, the factor and numpy's
# cast buffers (8 + 8 + 8), or mu's and lambda's n and |s| beside their
# compare's mask (8 + 8 + 1 at worst; the codes and packing take less); per
# entry of the period, the tiles (phi's two int32 tiles, mu's and lambda's
# one); per integer up to sqrt(n_max), the prime mask and the base primes'
# powers (about 100 bytes a prime); and a fixed part for Python objects and
# array headers
_SEGMENT_BYTES_PER_N = 8 + 8
_QUOTIENT_BYTES_PER_N = 8 + 8 + 8
_TILE_BYTES_PER_N = 4 + 4
_ROOT_BYTES_PER_N = 16
_FIXED_BYTES = 1 << 14

# the four signed values of each packed byte, and their sum; a code 11
# decodes as 0 here and is caught by _reserved
_BYTE_VALUES = np.array([[(0, 1, -1, 0)[b >> k & 3] for k in (0, 2, 4, 6)]
                         for b in range(256)], dtype=np.int8)
_BYTE_SUMS = np.array([sum(row) for row in _BYTE_VALUES.tolist()], dtype=np.int8)


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
        step = max(1, _DEFAULT_SEGMENT // 4)
        for a in range(b0, b1, step):
            block = self.packed[a : min(a + step, b1)]
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
    pass, the period tiles and the base primes."""
    size = min(segment_size, n_max)
    return (_SEGMENT_BYTES_PER_N * size
            + _QUOTIENT_BYTES_PER_N * min(_QUOTIENT_CHUNK, size)
            + _TILE_BYTES_PER_N * min(_PERIOD, n_max + 1)
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
            f"for the table, {segment_bytes} for one segment, the period tiles "
            f"and the base primes), over the {DEFAULT_BUDGET_BYTES}-byte budget; "
            f"lower n_max"
        )


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
    _check_budget(label, (n_max + 3) // 4, n_max, segment_size)
    out = np.empty((n_max + 3) // 4, dtype=np.uint8)
    for lo, s in _signed_segments(n_max, segment_size, squarefree):
        # _QUOTIENT_CHUNK is a multiple of 4: each chunk fills whole bytes
        for a in range(0, s.size, _QUOTIENT_CHUNK):
            chunk = s[a : a + _QUOTIENT_CHUNK]
            b0 = (lo + a - 1) // 4
            out[b0 : b0 + (chunk.size + 3) // 4] = _pack_codes(_codes(chunk, lo + a))
    return MobiusTable(n_max, out, label)


def sieve_mobius(n_max: int, segment_size: int = _DEFAULT_SEGMENT) -> MobiusTable:
    """Exact mu on [1, n_max]: 0 on non-squarefree n, else (-1)^(#prime factors)."""
    return _segmented_pack(n_max, segment_size, "mu", squarefree=True)


def sieve_liouville(n_max: int, segment_size: int = _DEFAULT_SEGMENT) -> MobiusTable:
    """Exact lambda on [1, n_max]: completely multiplicative, lambda(p) = -1."""
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
    """Euler phi on [1, n_max]: multiplicative, phi(p^e) = p^(e-1) (p - 1)."""
    if n_max < 1 or segment_size < 1:
        raise ValueError("n_max and segment_size must be >= 1")
    _check_budget("phi", 8 * (n_max + 1), n_max, segment_size)
    out = np.zeros(n_max + 1, dtype=np.int64)
    fill = _segment_filler(n_max, min(segment_size, n_max))
    for lo in range(1, n_max + 1, segment_size):
        fill(out[lo : lo + segment_size], lo)  # the table's own slice
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
    packed = np.frombuffer(payload, dtype=np.uint8).copy()
    # a code 11 sets both bits of its pair: one test over every byte
    reserved = _reserved(packed)
    if reserved.any():
        b = int(np.flatnonzero(reserved)[0])
        low = int(reserved[b]) & -int(reserved[b])  # low bit of the first bad pair
        raise CacheFormatError(
            f"{path}: reserved code 11 at n={4 * b + low.bit_length() // 2 + 1}")
    return MobiusTable(int(n_max), packed)
