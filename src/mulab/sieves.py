"""Segmented sieves for mu / lambda / phi, Mertens sums, the pretentious
distance, and a bit-packed persistent cache.

Values of mu (and lambda) live in a 2-bit packed array over [1, n_max]:
code 00 -> 0, 01 -> +1, 10 -> -1; code 11 is reserved-invalid so corrupted
payloads are detectable.  Entry n sits at bit offset 2*(n-1), little-endian
within each byte.  Index 0 is unaddressable: the sums here run from n = 1.
Reads decode whole bytes through one 256 x 4 table of signed values (and
Mertens sums whole bytes through the 256 sums of its rows), a chunk of
bytes at a time, and refuse a chunk holding a code 11.

mu, lambda and phi come from one segmented kernel for a multiplicative f,
given by the integer ratios f(p^e) / f(p^(e-1)): -1 then 0 for mu, -1 for
lambda, p - 1 then p for phi.  The prime powers 2^4, 3^2, 5^2, 7^2 and
their divisors are pre-sieved once, over one period of 176,400 = 2^4 3^2
5^2 7^2 (no larger than n_max + 1): a tile of f over those powers and a
tile of the product of the powers stripped.  Each segment starts from the
two tiles at offset lo mod 176,400.  Every other prime power p^e <= n_max
then multiplies the values at its multiples by the ratio and the product
by p; a zero ratio ends that prime's powers.  The quotient q = n / product
is 1 or one prime above sqrt(n_max), whose f(q) is the last factor.  It is
taken in float64, exact because the product divides n and both are below
2^53; the sieves refuse n_max >= 2^53 up front.  mu and lambda pack their
values to codes arithmetically, four to a byte.

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
#: entries per pass over the leftover quotients, small enough to stay in cache
_QUOTIENT_CHUNK = 1 << 16
# working bytes of a sieve, as tracemalloc measures them: per entry of a
# segment, the values and the product of the stripped powers (int64 at
# worst; mu's int8 values, codes and packing take less); per entry of a
# quotient pass, the float64 quotient, f(q) - 1, the factor in the values'
# dtype and numpy's cast buffers; per entry of the period, the two tiles (int32 at worst); per
# integer up to sqrt(n_max), the prime mask and the base primes' powers (about
# 100 bytes a prime); and a fixed part for Python objects and array headers
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
    """Refuse a sieve past the float quotient's exact range, or one whose
    table plus working bytes exceed the budget."""
    if n_max >= 1 << 53:
        raise ValueError(
            f"{label} sieve for n_max={n_max}: n_max must be below 2^53, where "
            f"the leftover prime is an exact float64 quotient")
    segment_bytes = _segment_bytes(n_max, segment_size)
    need = table_bytes + segment_bytes
    if need > DEFAULT_BUDGET_BYTES:
        raise ResourceBudgetError(
            f"{label} sieve for n_max={n_max} needs {need} bytes ({table_bytes} "
            f"for the table, {segment_bytes} for one segment, the period tiles "
            f"and the base primes), over the {DEFAULT_BUDGET_BYTES}-byte budget; "
            f"lower n_max"
        )


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
    f(p^(e-1)), so ratio(q, 1) = f(q) (see the module docstring).  vals has
    the given dtype and at most size entries."""
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


def _multiplicative_segments(n_max: int, segment_size: int, ratio, dtype):
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
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    segment_size = max(4, (segment_size // 4) * 4)  # whole bytes of codes
    _check_budget(label, (n_max + 3) // 4, n_max, segment_size)
    out = np.empty((n_max + 3) // 4, dtype=np.uint8)
    for lo, vals in _multiplicative_segments(n_max, segment_size, ratio, np.int8):
        codes = vals.view(np.uint8)  # the buffer is refilled for the next segment
        codes &= 3  # 0 -> 0, 1 -> 1, -1 -> 3
        codes -= codes >> 1  # -1 -> 2
        b0 = (lo - 1) // 4
        out[b0 : b0 + (codes.size + 3) // 4] = _pack_codes(codes)
    return MobiusTable(n_max, out, label)


def sieve_mobius(n_max: int, segment_size: int = _DEFAULT_SEGMENT) -> MobiusTable:
    """Exact mu on [1, n_max]: 0 on non-squarefree n, else (-1)^(#prime factors)."""
    mu_ratio = lambda p, e: -1 if e == 1 else 0
    return _segmented_pack(n_max, segment_size, mu_ratio, "mu")


def sieve_liouville(n_max: int, segment_size: int = _DEFAULT_SEGMENT) -> MobiusTable:
    """Exact lambda on [1, n_max]: completely multiplicative, lambda(p) = -1."""
    lambda_ratio = lambda p, e: -1
    return _segmented_pack(n_max, segment_size, lambda_ratio, "lambda")


@dataclass
class PhiTable:
    n_max: int
    values: np.ndarray  # int64, index 0 unused

    def value(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside [1, {self.n_max}]")
        return int(self.values[n])


def sieve_phi(n_max: int, segment_size: int = _DEFAULT_SEGMENT) -> PhiTable:
    """Euler phi on [1, n_max]: multiplicative, phi(p^e) = p^(e-1) (p - 1)."""
    if n_max < 1 or segment_size < 1:
        raise ValueError("n_max and segment_size must be >= 1")
    _check_budget("phi", 8 * (n_max + 1), n_max, segment_size)
    out = np.zeros(n_max + 1, dtype=np.int64)
    phi_ratio = lambda p, e: p - 1 if e == 1 else p
    fill = _segment_filler(n_max, min(segment_size, n_max), phi_ratio, np.int64)
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
