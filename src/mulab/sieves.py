"""Segmented sieves for mu / lambda / phi, Mertens sums, the pretentious
distance, and a bit-packed persistent cache.

Values of mu (and lambda) live in a 2-bit packed array over [1, n_max]:
code 00 -> 0, 01 -> +1, 10 -> -1; code 11 is reserved-invalid so corrupted
payloads are detectable.  Entry n sits at bit offset 2*(n-1), little-endian
within each byte.  Index 0 is unaddressable: the sums here run from n = 1.

Tables are immutable after construction and safe to share across
concurrent readers; construction itself is single-writer, segment by
segment.

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

from ._util import atomic_write
from .errors import (
    CacheChecksumError,
    CacheMagicError,
    CacheVersionError,
    InvariantError,
    ResourceBudgetError,
)

MAGIC = b"MUSV"
VERSION = 1

_DECODE = np.array([0, 1, -1, 0], dtype=np.int8)  # code 3 filtered separately
_DEFAULT_SEGMENT = 1 << 20
_DEFAULT_BUDGET_BYTES = 1 << 29  # 512 MiB of packed payload


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

    def weight_array(self) -> np.ndarray:
        """int8 array w with w[n] = value(n) for 1 <= n <= n_max; w[0] = 0."""
        if self._weights is None:
            w = np.zeros(self.n_max + 1, dtype=np.int8)
            w[1:] = self.values(1, self.n_max + 1)
            self._weights = w
        return self._weights


def _check_budget(n_max: int, memory_budget: int | None) -> None:
    budget = _DEFAULT_BUDGET_BYTES if memory_budget is None else memory_budget
    need = (n_max + 3) // 4
    if need > budget:
        raise ResourceBudgetError(
            f"packed table for n_max={n_max} needs {need} bytes, over the "
            f"{budget}-byte budget; construction is already segmented, so "
            f"raise memory_budget or lower n_max"
        )


def sieve_mobius(
    n_max: int,
    segment_size: int = _DEFAULT_SEGMENT,
    memory_budget: int | None = None,
) -> MobiusTable:
    """Exact mu on [1, n_max]: 0 on non-squarefree n, else (-1)^(#prime factors)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_budget(n_max, memory_budget)

    def segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
        size = hi - lo
        mu = np.ones(size, dtype=np.int8)
        rem = np.arange(lo, hi, dtype=np.int64)
        for p in base:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            mu[start - lo :: p] *= -1
            rem[start - lo :: p] //= p
            p2 = p * p
            if p2 <= n_max:
                start2 = ((lo + p2 - 1) // p2) * p2
                mu[start2 - lo :: p2] = 0
        mu[rem > 1] *= -1
        return mu

    return MobiusTable(n_max, _segmented_pack(n_max, segment_size, segment), "mu")


def sieve_liouville(
    n_max: int,
    segment_size: int = _DEFAULT_SEGMENT,
    memory_budget: int | None = None,
) -> MobiusTable:
    """Exact lambda on [1, n_max]: completely multiplicative, lambda(p) = -1."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_budget(n_max, memory_budget)

    def segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
        size = hi - lo
        lam = np.ones(size, dtype=np.int8)
        rem = np.arange(lo, hi, dtype=np.int64)
        for p in base:
            p = int(p)
            pe = p
            while pe <= n_max:
                start = ((lo + pe - 1) // pe) * pe
                sl = slice(start - lo, size, pe)
                lam[sl] *= -1
                rem[sl] //= p
                if pe > n_max // p:
                    break
                pe *= p
        lam[rem > 1] *= -1
        return lam

    return MobiusTable(n_max, _segmented_pack(n_max, segment_size, segment), "lambda")


def _segmented_pack(n_max: int, segment_size: int, segment_fn) -> np.ndarray:
    base = primes_up_to(math.isqrt(n_max))
    segment_size = max(4, (segment_size // 4) * 4)
    out = np.empty((n_max + 3) // 4, dtype=np.uint8)
    for lo in range(1, n_max + 1, segment_size):
        hi = min(lo + segment_size, n_max + 1)
        vals = segment_fn(lo, hi, base)
        codes = (vals % 3).astype(np.uint8)  # 0->0, 1->1, -1->2
        b0 = (lo - 1) // 4
        out[b0 : b0 + (codes.size + 3) // 4] = _pack_codes(codes)
    return out


@dataclass
class PhiTable:
    n_max: int
    values: np.ndarray  # int64, index 0 unused

    def value(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside [1, {self.n_max}]")
        return int(self.values[n])


def sieve_phi(n_max: int, segment_size: int = _DEFAULT_SEGMENT) -> PhiTable:
    """Euler phi on [1, n_max] by a segmented factor sieve."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    base = primes_up_to(math.isqrt(n_max))
    out = np.zeros(n_max + 1, dtype=np.int64)
    for lo in range(1, n_max + 1, segment_size):
        hi = min(lo + segment_size, n_max + 1)
        size = hi - lo
        phi = np.arange(lo, hi, dtype=np.int64)
        rem = np.arange(lo, hi, dtype=np.int64)
        for p in base:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            sl = slice(start - lo, size, p)
            phi[sl] = phi[sl] // p * (p - 1)
            pe = p
            while pe <= n_max:
                st = ((lo + pe - 1) // pe) * pe
                rem[st - lo :: pe] //= p
                if pe > n_max // p:
                    break
                pe *= p
        big = rem > 1
        phi[big] = phi[big] // rem[big] * (rem[big] - 1)
        out[lo:hi] = phi
    return PhiTable(n_max, out)


def mertens(table: MobiusTable, n: int) -> int:
    """M(n) = sum_{m <= n} mu(m), exact."""
    if not 1 <= n <= table.n_max:
        raise ValueError(f"n={n} outside [1, {table.n_max}]")
    total = 0
    for lo in range(1, n + 1, _DEFAULT_SEGMENT):
        hi = min(lo + _DEFAULT_SEGMENT, n + 1)
        total += int(table.values(lo, hi).astype(np.int64).sum())
    return total


def mertens_trace(table: MobiusTable, ns: Sequence[int]) -> list[tuple[int, int]]:
    """Cumulative M(n) sampled at the (sorted) checkpoints ns."""
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 1 or ns[-1] > table.n_max:
        raise ValueError("checkpoints outside table range")
    out = []
    total = 0
    prev = 1
    for n in ns:
        for lo in range(prev, n + 1, _DEFAULT_SEGMENT):
            hi = min(lo + _DEFAULT_SEGMENT, n + 1)
            total += int(table.values(lo, hi).astype(np.int64).sum())
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
    rest = blob[13:]
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
    table = MobiusTable(int(n_max), packed)
    table.values(1, min(int(n_max), 1 << 16) + 1)  # reject reserved code 11 early
    return table
