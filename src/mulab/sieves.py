"""Segmented sieves for mu / lambda / phi, Mertens sums, the pretentious
distance, and a bit-packed persistent cache.

Values of mu (and lambda) live in a 2-bit packed array over [1, n_max]:
code 00 -> 0, 01 -> +1, 10 -> -1; code 11 is reserved-invalid so corrupted
payloads are detectable.  Entry n sits at bit offset 2*(n-1), little-endian
within each byte.  Index 0 is unaddressable: the sums here run from n = 1.

mu, lambda and phi come from one segmented kernel for a multiplicative f.
In each segment it strips every prime power p^e <= n_max from a remainder
and multiplies the running value at the multiples of p^e by the integer
ratio f(p^e) / f(p^(e-1)): -1 then 0 for mu, -1 for lambda, p - 1 then p
for phi.  A zero ratio ends that prime's powers.  The remainder is then 1
or one prime q > sqrt(n_max), whose f(q) is the last factor.

Tables are immutable after construction and safe to share across
concurrent readers; construction itself is single-writer, segment by
segment.  A table's weight array is decoded once, cached and read-only.

Cache file layout (bit-exact across platforms):
    magic "MUSV" | version 0x01 | u64 LE n_max | payload ceil(n_max/4) bytes
    | CRC-32 (IEEE) of payload, u32 LE
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
VERSION = 1

_DECODE = np.array([0, 1, -1, 0], dtype=np.int8)  # code 3 filtered separately
_DEFAULT_SEGMENT = 1 << 20
# working bytes per entry of a sieve segment, at worst (phi): rem, values and
# f(rem) as int64, and the leftover mask
_SEGMENT_BYTES_PER_N = 3 * 8 + 1


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
    if codes.size % 4:
        codes = np.concatenate([codes, np.zeros(4 - codes.size % 4, dtype=np.uint8)])
    return (
        codes[0::4] | (codes[1::4] << 2) | (codes[2::4] << 4) | (codes[3::4] << 6)
    ).astype(np.uint8)


def _unpack_codes(packed: np.ndarray, count: int) -> np.ndarray:
    out = np.empty(packed.size * 4, dtype=np.uint8)
    out[0::4] = packed & 3
    out[1::4] = (packed >> 2) & 3
    out[2::4] = (packed >> 4) & 3
    out[3::4] = (packed >> 6) & 3
    return out[:count]


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
        expected = (self.n_max + 3) // 4
        if self.packed.size != expected:
            raise InvariantError(
                f"packed payload has {self.packed.size} bytes, expected {expected}"
            )

    @property
    def checksum(self) -> int:
        return zlib.crc32(self.packed.tobytes()) & 0xFFFFFFFF

    def codes(self, lo: int, hi: int) -> np.ndarray:
        """Raw 2-bit codes for n in [lo, hi)."""
        if not 1 <= lo <= hi <= self.n_max + 1:
            raise ValueError(f"range [{lo}, {hi}) outside [1, {self.n_max}]")
        b0 = (lo - 1) // 4
        b1 = (hi - 1 + 3) // 4
        block = _unpack_codes(self.packed[b0:b1], (b1 - b0) * 4)
        return block[(lo - 1) - 4 * b0 : (hi - 1) - 4 * b0]

    def values(self, lo: int, hi: int) -> np.ndarray:
        """Signed values for n in [lo, hi) as int8."""
        codes = self.codes(lo, hi)
        if (codes == 3).any():
            raise InvariantError("reserved code 11 present in table")
        return _DECODE[codes]

    def value(self, n: int) -> int:
        return int(self.values(n, n + 1)[0])

    def _segments(self, lo: int, hi: int):
        """(start, values) over [lo, hi), one _DEFAULT_SEGMENT at a time."""
        for a in range(lo, hi, _DEFAULT_SEGMENT):
            yield a, self.values(a, min(a + _DEFAULT_SEGMENT, hi))

    def weight_array(self) -> np.ndarray:
        """Read-only int8 array w with w[n] = value(n) for 1 <= n <= n_max;
        w[0] = 0.  Decoded once, then cached and shared."""
        if self._weights is None:
            w = np.zeros(self.n_max + 1, dtype=np.int8)
            for lo, vals in self._segments(1, self.n_max + 1):
                w[lo : lo + vals.size] = vals
            w.flags.writeable = False
            self._weights = w
        return self._weights


def _check_budget(label, table_bytes, n_max, segment_size, memory_budget=None) -> None:
    """Refuse a sieve whose table plus one segment's arrays exceed the budget."""
    budget = DEFAULT_BUDGET_BYTES if memory_budget is None else memory_budget
    segment_bytes = _SEGMENT_BYTES_PER_N * min(segment_size, n_max)
    need = table_bytes + segment_bytes
    if need > budget:
        raise ResourceBudgetError(
            f"{label} sieve for n_max={n_max} needs {need} bytes ({table_bytes} "
            f"for the table, {segment_bytes} for one segment), over the "
            f"{budget}-byte budget; lower n_max or raise the budget"
        )


def _multiplicative_segments(n_max: int, segment_size: int, ratio, dtype):
    """Yield (lo, f on [lo, lo + len)) over [1, n_max] for the multiplicative f
    with ratio(p, e) = f(p^e) / f(p^(e-1)), so ratio(q, 1) = f(q) (see the
    module docstring).  The values are a view of one buffer that the next
    segment overwrites."""
    base = primes_up_to(math.isqrt(n_max)).tolist()
    buf = np.empty(min(segment_size, n_max), dtype=dtype)
    rem_dtype = np.int32 if n_max < 1 << 31 else np.int64
    for lo in range(1, n_max + 1, segment_size):
        hi = min(lo + segment_size, n_max + 1)
        vals = buf[: hi - lo]
        vals.fill(1)
        rem = np.arange(lo, hi, dtype=rem_dtype)
        for p in base:
            pe, e = p, 1
            while pe <= n_max:
                r = ratio(p, e)
                first = -lo % pe  # offset of the first multiple of p^e
                vals[first::pe] *= r
                if r == 0:
                    break
                rem[first::pe] //= p
                pe, e = pe * p, e + 1
        np.multiply(vals, ratio(rem, 1), out=vals, where=rem > 1)
        del rem
        yield lo, vals


def _segmented_pack(n_max, segment_size, memory_budget, ratio, label) -> MobiusTable:
    """Packed table of a {-1, 0, +1}-valued multiplicative f."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    segment_size = max(4, (segment_size // 4) * 4)  # whole bytes of codes
    _check_budget(label, (n_max + 3) // 4, n_max, segment_size, memory_budget)
    out = np.empty((n_max + 3) // 4, dtype=np.uint8)
    for lo, vals in _multiplicative_segments(n_max, segment_size, ratio, np.int8):
        codes = (vals % 3).astype(np.uint8)  # 0->0, 1->1, -1->2
        b0 = (lo - 1) // 4
        out[b0 : b0 + (codes.size + 3) // 4] = _pack_codes(codes)
    return MobiusTable(n_max, out, label)


def sieve_mobius(
    n_max: int,
    segment_size: int = _DEFAULT_SEGMENT,
    memory_budget: int | None = None,
) -> MobiusTable:
    """Exact mu on [1, n_max]: 0 on non-squarefree n, else (-1)^(#prime factors)."""
    mu_ratio = lambda p, e: -1 if e == 1 else 0
    return _segmented_pack(n_max, segment_size, memory_budget, mu_ratio, "mu")


def sieve_liouville(
    n_max: int,
    segment_size: int = _DEFAULT_SEGMENT,
    memory_budget: int | None = None,
) -> MobiusTable:
    """Exact lambda on [1, n_max]: completely multiplicative, lambda(p) = -1."""
    lambda_ratio = lambda p, e: -1
    return _segmented_pack(n_max, segment_size, memory_budget, lambda_ratio, "lambda")


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
    for lo, vals in _multiplicative_segments(n_max, segment_size, phi_ratio, np.int64):
        out[lo : lo + vals.size] = vals
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
        for _, vals in table._segments(prev, n + 1):
            total += int(vals.sum(dtype=np.int64))
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
    """Write the packed table; bit-exact and atomic (temp file + rename)."""
    payload = table.packed.tobytes()
    blob = (
        MAGIC
        + bytes([VERSION])
        + struct.pack("<Q", table.n_max)
        + payload
        + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    )
    atomic_write(path, blob)


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
    payload_len = (n_max + 3) // 4
    rest = memoryview(blob)[13:]  # slices below are views, not copies
    if len(rest) != payload_len + 4:
        raise CacheChecksumError(
            f"{path}: payload+crc is {len(rest)} bytes, expected {payload_len + 4} "
            f"(truncated or padded file)"
        )
    payload, crc_bytes = rest[:payload_len], rest[payload_len:]
    (crc_stored,) = struct.unpack("<I", crc_bytes)
    crc_actual = zlib.crc32(payload) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise CacheChecksumError(
            f"{path}: CRC mismatch (stored {crc_stored:08x}, actual {crc_actual:08x})"
        )
    packed = np.frombuffer(payload, dtype=np.uint8).copy()
    # a code 11 sets both bits of its pair: one test over every byte
    reserved = packed >> 1
    reserved &= packed
    reserved &= 0x55
    if reserved.any():
        b = int(np.flatnonzero(reserved)[0])
        low = int(reserved[b]) & -int(reserved[b])  # low bit of the first bad pair
        raise CacheFormatError(
            f"{path}: reserved code 11 at n={4 * b + low.bit_length() // 2 + 1}")
    return MobiusTable(int(n_max), packed)
