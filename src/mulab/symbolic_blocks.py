"""Block extraction and entropy estimation for finite-range sequences.

For a finite prefix s(0..P-1) over a small alphabet, four families of
length-J windows are counted:

* all blocks         windows at every start <= P-J
* regular blocks     windows at starts l*J
* effective blocks   blocks occurring at least `threshold` times (finite
                     surrogate for "occurs infinitely often")
* regularly effective    regular blocks recurring at least `threshold`
                     times among the regular positions

The counts are exact, on integer window codes sum_j s(i+j) base^(J-1-j)
(no approximate matching).  Every window length whose codes fit int64
(base^J < 2^62) is counted through one streamed pass (`_stream`): it rolls
the L-window codes of CHUNK starts at a time, the symbols past the prefix
read as 0, and feeds each family of starts its J-codes, code // base^(L-J),
into one histogram (`_Histogram`).  A histogram is a dense count array
while base^J is at most its number of starts (and CHUNK, for the regular
starts), else one sorted run of codes and counts plus the codes held since
its last merge, merged by one np.unique once the held blocks average as many
codes as the run has distinct ones: at once when windows repeat, so that its
memory stays flat in P, and once when read when nearly every window is new.
`entropy_curve` feeds one histogram of every start at J_max and one of the
regular starts per J, and folds the first down, as subword counts do: the
J histogram is the (J+1) one aggregated by code // base, plus the fewer than
J_max windows past P - J_max.  `index_blocks` feeds its two families at J
and decodes their distinct codes; `block_count_inequality_check` feeds the
lJ-windows at starts <= P - (l+1)J and the regular J-windows from one pass
at lJ.  The tracemalloc peak is the histograms and one block: on the
sqrt2/sqrt3 indicator at P = 1e6, 3.6 MiB for `entropy_curve` at J_max = 18,
3.1 MiB for `index_blocks` at J = 18 and for the inequality at J = 6, l = 3,
each growing by less than 1.25 times up to P = 4e6, and 1.8 MiB for
`index_blocks` at J = 30; at most 40 bytes per symbol when nearly every
window is distinct.
Past the int64 code length the keys are dense ranks (`_ranked_keys`): the
J-window at i is the pair (rank of the (J-1)-window at i, s(i+J-1)), ranked
by one np.unique per J from the ranks of the longest coded windows (about
107 bytes per symbol), each length once per call, and counted by the same
histograms.  Only `index_blocks` decodes keys into blocks.  `entropy_curve`
and `index_blocks` check their working bytes (measured per symbol and per
decoded block) against the 512 MiB default budget, and the ranked window
keys they build over all J against a fixed limit, up front.  The per-J entropy
estimates log|B_J|/J are finite-prefix estimates, which the report rows
label explicitly.
Scans are pure functions of the immutable prefix; counting unions over
disjoint start ranges commute, so callers may shard long prefixes.

The comparison-set indicator screens each batch with floats first: both
phases' `frac_chunk` values are correctly rounded, so their difference f is
within 3 2^-54 of {p1} - {p2}, and wherever |f| and ||f| - window|
(window = 2^-tie_bits rounded up to the common unit) exceed 2^-50, f
decides that n's symbol and tie.  Only the span from a batch's first
undecided n to its last, such as n = 0 where both fractional parts are 0,
falls back to the exact compare: both phases' `frac_units` ints over their
common unit, the sign of their difference, and its tie test, from the
difference's correctly rounded float; the few n where that float cannot
decide the tie are checked on the ints.  The example-33 labels read
{sqrt2 n} from the word kernel of `PolyPhase([0, sqrt2])` (`_limbs`): the
orderings come from an unsigned compare of the high words, then the low,
and the residual D2 f - formula from 160-bit two's complement limbs, split
from the words once per block, exact for every n below 2^58.  Both, and
`block_count_inequality_check`, check their measured working bytes against
the default budget up front.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _limbs
from ._util import DEFAULT_BUDGET_BYTES, atomic_write, read_json, write_json
from .errors import ParseError, PrecisionError, ResourceBudgetError, WindowTooShortError
from .fixedpoint import FRAC_BITS, SCALE, FixedReal, sqrt_const
from .phases import CHUNK, Phase, PolyPhase, frac_rep

Block = tuple[int, ...]


@dataclass
class SymbolSeq:
    """Finite prefix of a sequence over the alphabet {0..alphabet_size-1}."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self) -> None:
        self.symbols = np.asarray(self.symbols)
        if self.symbols.ndim != 1 or self.symbols.size < 1:
            raise ValueError("symbols must be a nonempty 1-d array")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        if self.symbols.dtype != bool and not np.issubdtype(self.symbols.dtype, np.integer):
            raise ValueError(f"symbols must be integers or bools, not dtype {self.symbols.dtype}")
        if int(self.symbols.min()) < 0 or int(self.symbols.max()) >= self.alphabet_size:
            raise ValueError("symbol outside alphabet range")

    @staticmethod
    def from_list(symbols: Sequence[int], alphabet_size: int) -> "SymbolSeq":
        dtype = np.uint8 if alphabet_size <= 256 else np.int64
        return SymbolSeq(np.array(symbols, dtype=dtype), alphabet_size)

    def __len__(self) -> int:
        return int(self.symbols.size)


def save_symbols(seq: SymbolSeq, data_path: str | Path) -> Path:
    """Raw byte file plus JSON header `<data_path>.json`."""
    data_path = Path(data_path)
    if seq.alphabet_size > 256:
        raise ValueError("raw byte export needs alphabet_size <= 256")
    atomic_write(data_path, seq.symbols.astype(np.uint8).tobytes())
    header = {
        "schema_version": 1,
        "alphabet_size": seq.alphabet_size,
        "length": len(seq),
        "data": data_path.name,
    }
    hdr = data_path.with_suffix(data_path.suffix + ".json")
    write_json(hdr, header)
    return hdr


def load_symbols(header_path: str | Path) -> SymbolSeq:
    header_path = Path(header_path)
    header = read_json(header_path)
    if not isinstance(header, dict):
        raise ParseError(f"{header_path}: the header must be a JSON object")
    for field, kind in (("length", int), ("alphabet_size", int), ("data", str)):
        if type(header.get(field)) is not kind:
            raise ParseError(f"{header_path}: the header needs {kind.__name__} {field!r}")
    data = (header_path.parent / header["data"]).read_bytes()
    arr = np.frombuffer(data, dtype=np.uint8)
    if arr.size != header["length"]:
        raise ParseError(f"{header_path}: 'length' is {header['length']}, "
                         f"the data file holds {arr.size} symbols")
    return SymbolSeq(arr.copy(), header["alphabet_size"])


# ---------------------------------------------------------------------------
# window counting


#: working bytes per symbol of the window keys when every window is
#: distinct, charged as the per-J code arrays took them (56, P = 1e6, numpy
#: 2.4), so the refusals stay as they were.  The streamed pass of the coded J,
#: its histograms and one block of codes, stays below it: tracemalloc reads
#: at most 40 for `entropy_curve` and 37 for `block_count_inequality_check`
#: on i.i.d. symbols (P = 2e5, bases 2 and 300), the codes held until one
#: np.unique reads them, as the per-J arrays were.  Once
#: base^J >= 2^62 the ranked windows add the symbols' digits, the pair keys,
#: the previous ranks and np.unique's inverse and first starts (about 107 in
#: all at P = 1e6, bases 2, 5, 300).
_CODE_BYTES_PER_SYMBOL = 56
_RANK_BYTES_PER_SYMBOL = 56
#: ranked window keys that one call may build over all its J (P per J past
#: the code length): each takes 240-300 ns of np.unique (P = 1e6 and 4e6,
#: bases 2 and 300, one core of a 2-core Xeon VM), so 2^28 keys take 65-80 s.
#: The int64 codes are not counted against it
_MAX_WINDOW_KEYS = 1 << 28


def _code_range(base: int, J: int) -> int | None:
    """base^J, the number of distinct J-window codes, or None once it
    reaches 2^62 and the codes would overflow int64 (by J = 62 for base >= 2,
    so no larger power is ever built)."""
    size = base ** min(J, 63)
    return size if size < 1 << 62 else None


def _coded_length(base: int, J: int) -> int:
    """The longest window length up to J whose codes fit int64."""
    return next(j for j in range(J, -1, -1) if _code_range(base, j) is not None)


#: bytes per distinct block that `index_blocks` decodes, measured the same
#: way (P = 1e5; bases 2, 5, 300): a dict entry and its count, plus 8 per
#: block symbol for its tuple and 8 more on the rank path for the symbols'
#: list
_BLOCK_BYTES = 176


def _check_budget(what: str, P: int, alphabet_size: int, J: int,
                  blocks: int = 0) -> None:
    """Raise ResourceBudgetError unless the J-window keys of a length-P
    prefix over the alphabet, all distinct, plus `blocks` decoded blocks
    fit the default budget, and the ranked keys of the window lengths up to
    J stay within _MAX_WINDOW_KEYS.  It needs no symbols, so a caller that
    builds the prefix can check before building it."""
    coded = _coded_length(alphabet_size, J)
    ranked = coded < J
    per_symbol = _CODE_BYTES_PER_SYMBOL + ranked * _RANK_BYTES_PER_SYMBOL
    need = per_symbol * P + blocks * (_BLOCK_BYTES + 8 * J * (1 + ranked))
    keys = P * (J - coded)
    if need > DEFAULT_BUDGET_BYTES or keys > _MAX_WINDOW_KEYS:
        raise ResourceBudgetError(
            f"{what} for P={P}, J={J} needs about {need} bytes "
            f"({per_symbol} per symbol for the window keys) and {keys} ranked "
            f"window keys, over the {DEFAULT_BUDGET_BYTES}-byte budget or the "
            f"{_MAX_WINDOW_KEYS}-key limit; shorten the prefix or lower J")


def _codes(symbols: np.ndarray, base: int, L: int, a: int, n: int) -> np.ndarray:
    """The int64 codes sum_j s[i+j] base^(L-1-j) of the L-windows at the n
    starts i from a, for base^L < 2^62, with the symbols past the prefix
    read as 0: the J-window at i, wherever it fits, is code // base^(L-J)."""
    codes = np.zeros(n, dtype=np.int64)
    for j in range(L):
        codes *= base
        digits = symbols[a + j : a + j + n]
        part = codes[: digits.size]
        # the int64 loop converts the symbols as astype(int64) would; uint64
        # symbols would otherwise select the float64 loop, inexact past 2^53
        np.add(part, digits, out=part, casting="unsafe", dtype=np.int64)
    return codes


def _ranked_keys(symbols: np.ndarray, base: int, J_hi: int):
    """Yield (J, ranks, size, starts) for the J up to J_hi past the int64
    code length: ranks[i] < size is the dense rank of the J-window at
    start i, in the order of their symbols, and starts[r] the first start of
    rank r.  Each J ranks the pair keys rank_{J-1}[i] d + digit[i+J-1], where
    digit is the rank of a symbol among the d distinct ones, so that a key
    stays below P^2, by one np.unique, from the ranks of the int64 codes."""
    P = symbols.size
    coded = _coded_length(base, J_hi)
    if coded == J_hi:
        return
    ranks = np.unique(_codes(symbols, base, coded, 0, P - coded + 1),
                      return_inverse=True)[1]
    digits = np.unique(symbols, return_inverse=True)[1]
    d = int(digits.max()) + 1
    for J in range(coded + 1, J_hi + 1):
        keys = ranks[: P - J + 1] * d
        keys += digits[J - 1 :]
        _, starts, ranks = np.unique(keys, return_index=True, return_inverse=True)
        del keys
        yield J, ranks, starts.size, starts


def _blocks(distinct: np.ndarray, counts: np.ndarray, J: int, base: int,
            symbols: np.ndarray, starts: np.ndarray | None) -> dict[Block, int]:
    """The counted keys as {block: count}: ranks read from the first start
    of their window, codes decoded digit by digit."""
    if starts is not None:
        return {tuple(symbols[i : i + J].tolist()): cnt
                for i, cnt in zip(starts[distinct].tolist(), counts.tolist())}
    out = {}
    for code, cnt in zip(distinct.tolist(), counts.tolist()):
        block = []
        for _ in range(J):
            code, r = divmod(code, base)
            block.append(r)
        out[tuple(reversed(block))] = cnt
    return out


def _combine(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct keys, summed counts) of ascending keys that may repeat."""
    head = np.empty(keys.size, dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    if head.all():
        return keys, counts
    first = np.flatnonzero(head)
    del head
    return keys[first], np.add.reduceat(counts, first)


class _Histogram:
    """Occurrence counts of the keys in range(size) of the J-windows at the
    starts range(first, stop, step), fed block by block.  While size is at
    most the number of starts, and for regular starts (step > 1) at most
    CHUNK too, so that the dense regular arrays never outgrow one block, it
    is a dense count array.  Above that it is one run (distinct keys
    ascending, counts) and the keys fed since the run was last merged, held
    while the held blocks average fewer keys than the run has: one
    np.unique then sorts them with the run's keys, whose counts it adds.  Where
    windows repeat, each block is merged as it comes and the held keys stay
    within one block; where nearly every window is new, the keys are held
    until read and sorted once, as a per-J count would."""

    def __init__(self, size: int, J: int, first: int, stop: int, step: int = 1):
        self.size, self.J = size, J
        self.starts = range(first, stop, step)
        self.limit = len(self.starts) if step == 1 else min(CHUNK, len(self.starts))
        self.held: list[np.ndarray] = []
        self._store(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def _store(self, keys: np.ndarray, counts: np.ndarray) -> None:
        self.run, self.dense = (keys, counts), None
        if self.size <= self.limit:
            self.dense = np.zeros(self.size, dtype=np.int64)
            self.dense[keys] = counts

    def take(self, keys: np.ndarray, a: int, div: int = 1) -> "_Histogram":
        """Add key // div for each of keys, those of the starts a, a + 1, ...,
        whose start is one of the histogram's; returns the histogram."""
        first, stop, step = self.starts.start, self.starts.stop, self.starts.step
        keys = keys[max(first - a, (first - a) % step) : max(stop - a, 0) : step]
        if self.dense is not None:
            np.add.at(self.dense, keys // div if div > 1 else keys, 1)
            return self
        # a strided view would hold the whole array it was taken from
        self.held.append(keys // div if div > 1 else keys.copy())
        if sum(k.size for k in self.held) >= len(self.held) * self.run[0].size:
            self._merge_held()
        return self

    def _merge_held(self) -> None:
        if self.held:
            keys, counts = self.run
            held, self.held, self.run = np.concatenate([keys, *self.held]), [], None
            merged, total = np.unique(held, return_counts=True)
            del held
            total[np.searchsorted(merged, keys)] += counts - 1
            self.run = merged, total

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """(distinct keys ascending, their counts)."""
        if self.dense is not None:
            keys = np.flatnonzero(self.dense)
            return keys, self.dense[keys]
        self._merge_held()
        return self.run

    def family(self, threshold: int, extra: list[int] = ()) -> tuple[int, int]:
        """(distinct keys, keys counted at least threshold times), with each
        key in `extra` counted once more."""
        counts = self.dense if self.dense is not None else self.items()[1]
        distinct = int(np.count_nonzero(counts))
        effective = int(np.count_nonzero(counts >= threshold))
        for key, more in Counter(extra).items():
            have = self._count(key)
            distinct += have == 0
            effective += (have + more >= threshold) - (have >= threshold)
        return distinct, effective

    def _count(self, key: int) -> int:
        if self.dense is not None:
            return int(self.dense[key])
        keys, counts = self.run
        i = int(np.searchsorted(keys, key))
        return int(counts[i]) if i < keys.size and keys[i] == key else 0

    def fold(self, base: int) -> None:
        """From the (J+1)-window counts to the J-window counts of the same
        starts: each key's J-window prefix is key // base."""
        self.size //= base
        if self.dense is not None:
            self.dense = self.dense.reshape(-1, base).sum(axis=1)
            return
        keys, counts = self.items()
        self.run = None
        keys //= base
        self._store(*_combine(keys, counts))


def _stream(symbols: np.ndarray, base: int, L: int, hists: list[_Histogram]) -> None:
    """Feed each histogram, of a window length J <= L for base^L < 2^62,
    the J-window codes of its starts, code // base^(L - J), from one pass
    over the L-window codes of all their starts, CHUNK at a time."""
    lo = min(h.starts.start for h in hists)
    hi = max(h.starts.stop for h in hists)
    for a in range(lo, hi, CHUNK):
        codes = _codes(symbols, base, L, a, min(CHUNK, hi - a))
        for h in hists:
            h.take(codes, a, base ** (L - h.J))


def _count_families(symbols: np.ndarray, base: int,
                    families: list[tuple[int, int, int, int]]):
    """(histograms, first starts) of the window families (J, first, stop,
    step), the J-windows at starts range(first, stop, step), which must fit
    in the prefix.  The coded J are counted in one streamed pass at the
    longest of them, the ranked J in one roll of the ranks up to the
    longest, whose first starts of each rank come back (None without it)."""
    hists = {f: _Histogram(base ** f[0], *f) for f in families
             if _code_range(base, f[0]) is not None}
    if hists:
        _stream(symbols, base, max(J for J, *_ in hists), list(hists.values()))
    ranked = [f for f in families if f not in hists]
    starts = None
    if ranked:
        for J, ranks, size, starts in _ranked_keys(symbols, base, max(J for J, *_ in ranked)):
            hists.update((f, _Histogram(size, *f).take(ranks, 0)) for f in ranked if f[0] == J)
    return [hists[f] for f in families], starts


def _families(J: int, tail_start: int, P: int) -> list[tuple[int, int, int, int]]:
    """The all and the regular J-window families: every start from
    tail_start, and every J-th start from the first multiple of J there."""
    return [(J, tail_start, P - J + 1, 1), (J, -(-tail_start // J) * J, P - J + 1, J)]


@dataclass
class BlockIndex:
    """The four window families of one prefix at window length J."""

    J: int
    prefix_len: int
    threshold: int
    tail_start: int
    all_blocks: dict[Block, int]
    regular_blocks: dict[Block, int]
    effective_blocks: dict[Block, int]
    regularly_effective_blocks: dict[Block, int]

    def counts(self) -> tuple[int, int, int, int]:
        return (
            len(self.all_blocks),
            len(self.regular_blocks),
            len(self.effective_blocks),
            len(self.regularly_effective_blocks),
        )


def index_blocks(
    seq: SymbolSeq,
    J: int,
    effective_threshold: int = 2,
    tail_start: int = 0,
) -> BlockIndex:
    """Exact counts of the four J-block families on the prefix.

    "Effective" is finitely surrogated by an occurrence count of at least
    `effective_threshold`; `tail_start` restricts counted occurrences to
    starts >= tail_start.  Both knobs are echoed in the result.
    """
    P = len(seq)
    if not 1 <= J <= P:
        raise WindowTooShortError(f"need 1 <= J <= {P}, got {J}")
    if effective_threshold < 2:
        raise ValueError("effective_threshold must be >= 2")
    if not 0 <= tail_start <= P - J:
        raise ValueError("tail_start outside the prefix")
    base = seq.alphabet_size
    _check_budget("index_blocks", P, base, J, min(P - J + 1, _code_range(base, J) or P))
    hists, starts = _count_families(seq.symbols, base, _families(J, tail_start, P))
    all_counts, reg_counts = (_blocks(*h.items(), J, base, seq.symbols, starts)
                              for h in hists)
    eff = {b: c for b, c in all_counts.items() if c >= effective_threshold}
    reg_eff = {b: c for b, c in reg_counts.items() if c >= effective_threshold}
    return BlockIndex(
        J, P, effective_threshold, tail_start,
        all_counts, reg_counts, eff, reg_eff,
    )


@dataclass
class EntropyRow:
    J: int
    count_all: int
    count_regular: int
    count_effective: int
    count_reg_effective: int
    entropy_estimate: float  # log|B_J|/J on the finite prefix


def _check_entropy(P: int, alphabet_size: int, J_max: int, effective_threshold: int,
                   tail_start: int) -> None:
    """The argument checks and the budget of `entropy_curve` on a length-P
    prefix, which need no symbols, so that a caller that builds the prefix
    can check before building it."""
    if J_max > P:
        raise WindowTooShortError("J_max exceeds the prefix length")
    if J_max < 1:
        return
    if effective_threshold < 2:
        raise ValueError("effective_threshold must be >= 2")
    if not 0 <= tail_start <= P - J_max:
        raise ValueError("tail_start outside the prefix")
    _check_budget("entropy_curve", P, alphabet_size, J_max)


def entropy_curve(
    seq: SymbolSeq,
    J_max: int,
    effective_threshold: int = 2,
    tail_start: int = 0,
) -> list[EntropyRow]:
    """Per-J counts of all four families plus the finite-prefix estimate
    log|B_J|/J.  These are prefix estimates of a limit, reported side by
    side; no equality between the four columns is asserted."""
    P, base, thr = len(seq), seq.alphabet_size, effective_threshold
    _check_entropy(P, base, J_max, thr, tail_start)
    if J_max < 1:
        return []
    coded = _coded_length(base, J_max)
    counts = []
    if coded:
        # one histogram of the starts that hold a whole J_max-window, folded
        # down J by J, with the fewer than J_max windows past them counted on
        # top, and one histogram of the regular starts per J
        every = _Histogram(base ** coded, *_families(coded, tail_start, P)[0])
        regular = [_Histogram(base ** J, *_families(J, tail_start, P)[1])
                   for J in range(1, coded + 1)]
        _stream(seq.symbols, base, coded, [every, *regular])
        reg_counts = [regular.pop(0).family(thr) for _ in range(coded)]
        for J in range(coded, 0, -1):
            if J < coded:
                every.fold(base)
            late = _codes(seq.symbols, base, J, P - coded + 1, coded - J).tolist()
            counts.insert(0, every.family(thr, late) + reg_counts[J - 1])
    for J, ranks, size, _ in _ranked_keys(seq.symbols, base, J_max):
        counts.append(sum((_Histogram(size, *f).take(ranks, 0).family(thr)
                           for f in _families(J, tail_start, P)), ()))
    return [EntropyRow(J, a, r, e, re, math.log(a) / J)
            for J, (a, e, r, re) in enumerate(counts, 1)]


def write_entropy_csv(rows: Sequence[EntropyRow], path: str | Path) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["J", "count_all", "count_regular", "count_effective",
         "count_reg_effective", "entropy_estimate"]
    )
    for r in rows:
        w.writerow(
            [r.J, r.count_all, r.count_regular, r.count_effective,
             r.count_reg_effective, f"{r.entropy_estimate:.10f}"]
        )
    atomic_write(path, buf.getvalue())


def block_count_inequality_check(seq: SymbolSeq, J: int, l: int) -> bool:
    """Check |B_{lJ}| <= J * |B_J^r|^(l+1) on the edge-safe prefix region.

    Left-side windows are drawn only from starts <= P - (l+1)J so every one
    of them is covered by l+1 successive regular J-blocks inside the prefix.
    Always true; returned rather than asserted so callers can tabulate.
    """
    left, regular = _inequality_counts(seq, J, l)
    return left <= J * regular ** (l + 1)


def _inequality_counts(seq: SymbolSeq, J: int, l: int) -> tuple[int, int]:
    """(|B_{lJ}|, |B_J^r|) of `block_count_inequality_check`, from one
    streamed pass or one roll of the ranks."""
    P = len(seq)
    if l < 1 or J < 1:
        raise ValueError("need J >= 1, l >= 1")
    if (l + 1) * J > P:
        raise WindowTooShortError("window (l+1)*J exceeds the prefix")
    base = seq.alphabet_size
    _check_budget("block_count_inequality_check", P, base, l * J)
    left, regular = (l * J, 0, P - (l + 1) * J + 1, 1), (J, 0, P - J + 1, J)
    hists, _ = _count_families(seq.symbols, base, [left, regular])
    return hists[0].family(2)[0], hists[1].family(2)[0]


# ---------------------------------------------------------------------------
# quantization


def quantize_gn(y_values: Sequence, N: int) -> SymbolSeq:
    """Symbol t = floor(N * {y}), alphabet {0..N-1}.

    {y} in [t/N, (t+1)/N) maps to t; the boundary {y} = t/N belongs to cell
    t exactly when y is exact (Fraction or dyadic FixedReal).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    syms = []
    for y in y_values:
        if isinstance(y, (FixedReal, Fraction, int)):
            num, unit = frac_rep(y)
            t = N * num // unit
        else:
            t = int(N * (y - math.floor(y)))
        syms.append(min(t, N - 1))
    return SymbolSeq.from_list(syms, N)


# ---------------------------------------------------------------------------
# the comparison-set indicator and its block growth


#: working bytes of `indicator_set` and `bracket_second_difference_labels`
#: beyond their one-byte symbols per n: one batch's arrays, which CHUNK
#: (of Python ints) and _limbs.BLOCK (of words and limbs) bound.
#: tracemalloc measures 8.4-12.1 MB and 3.7 MB for P from 1e5 to 3e6
#: (numpy 2.4; the indicator of poly:0,sqrt2 and poly:0,sqrt3)
_INDICATOR_BATCH_BYTES = 16 << 20
_LABEL_BATCH_BYTES = 4 << 20

#: the float screen of `indicator_set`: above this, |f| and ||f| - window|
#: exceed the 4 2^-54 error of f and window combined
_SCREEN = 2.0 ** -50


def _check_bytes(what: str, P: int, batch_bytes: int) -> None:
    """Raise ResourceBudgetError unless one byte per n for P symbols plus
    one batch's working bytes fit the default budget."""
    need = P + batch_bytes
    if need > DEFAULT_BUDGET_BYTES:
        raise ResourceBudgetError(
            f"{what} for P={P} needs about {need} bytes (1 per n for the "
            f"symbols and {batch_bytes} for a batch), over the "
            f"{DEFAULT_BUDGET_BYTES}-byte budget; shorten the prefix")


@dataclass
class IndicatorReport:
    length: int
    tie_count: int
    tie_positions: list[int]
    tie_bits: int
    phase1: str
    phase2: str


def indicator_set(
    p1: Phase, p2: Phase, P: int, tie_bits: int = 64
) -> tuple[SymbolSeq, IndicatorReport]:
    """Binary prefix of 1_{ {p1(n)} < {p2(n)} } for n = 0..P-1.

    Comparison is exact on the representations; positions where the two
    fractional parts agree to within 2^-tie_bits are flagged in the report
    rather than silently resolved.  Raises PrecisionError when the
    representation error itself cannot support the comparison.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    for ph in (p1, p2):
        ph.check_range(P - 1)
        bound = ph.err_bound(P - 1)
        if bound > 2.0 ** -tie_bits:
            need = FRAC_BITS + math.ceil(math.log2(bound / 2.0 ** -tie_bits))
            raise PrecisionError(
                f"{ph.describe()}: representation error {bound:.3e} at "
                f"n={P - 1} cannot support {tie_bits}-bit comparisons; "
                f"about {need} fractional bits would be required"
            )
    _check_bytes("indicator_set", P, _INDICATOR_BATCH_BYTES)
    # {p1} - {p2} = d / unit exactly; |d| / unit < 2^-tie_bits holds
    # exactly when |d| < gap = ceil(unit / 2^tie_bits), as d is an integer
    unit = math.lcm(p1.unit, p2.unit)
    gap = -(-unit >> tie_bits)
    window = gap / unit  # correctly rounded, as int / int is
    syms = np.empty(P, dtype=np.uint8)
    ties: list[int] = []
    tie_count = 0
    for start in range(0, P, CHUNK):
        cnt = min(CHUNK, P - start)
        below, tie_mask = _chunk(p1, p2, start, cnt, unit, gap, window)
        syms[start : start + cnt] = below
        tied = np.flatnonzero(tie_mask)
        tie_count += tied.size
        ties.extend((tied[: 64 - len(ties)] + start).tolist())
    report = IndicatorReport(
        P, tie_count, ties, tie_bits, p1.describe(), p2.describe()
    )
    return SymbolSeq(syms, 2), report


def _chunk(p1: Phase, p2: Phase, start: int, cnt: int, unit: int, gap: int,
           window: float) -> tuple[np.ndarray, np.ndarray]:
    """(symbols, tie mask) of a chunk, from floats where they decide an n.
    Each frac_chunk value lies within 2^-54 of its fraction and the
    subtraction rounds once more, so f is within 3 2^-54 of {p1} - {p2},
    and window within 2^-54 of gap / unit: wherever |f| and ||f| - window|
    exceed _SCREEN, f has the sign of {p1} - {p2} and |f| < window exactly
    when the tie holds.  The exact compare takes over the span from the
    first n the floats leave undecided to the last."""
    f = p1.frac_chunk(start, cnt) - p2.frac_chunk(start, cnt)
    af = np.abs(f)
    below, tied = f < 0, af < window
    undecided = np.flatnonzero((af <= _SCREEN) | (np.abs(af - window) <= _SCREEN))
    if undecided.size:
        lo, hi = int(undecided[0]), int(undecided[-1]) + 1
        below[lo:hi], tied[lo:hi] = _exact_span(p1, p2, start + lo, hi - lo, unit, gap)
    return below, tied


def _exact_span(p1: Phase, p2: Phase, start: int, cnt: int, unit: int,
                gap: int) -> tuple[np.ndarray, np.ndarray]:
    """(symbols, tie mask) of a span from the exact numerator difference d
    over the common unit: the sign of d, and ties |d| < gap."""
    u1, d = _numerator_array(p1, start, cnt)
    u2, b = _numerator_array(p2, start, cnt)
    if u1 != unit:
        d *= unit // u1
    if u2 != unit:
        b *= unit // u2
    d -= b
    # float(d) rounds d correctly, so it has d's sign, and |d| < gap can
    # hold only where |float(d)| <= float(gap); those few are checked
    # on the ints
    df = d.astype(np.float64)
    near = np.flatnonzero(np.abs(df) <= float(gap))
    tied = np.zeros(cnt, dtype=bool)
    tied[near[np.abs(d[near]) < gap]] = True
    return df < 0, tied


def _numerator_array(phase: Phase, start: int, count: int) -> tuple[int, np.ndarray]:
    """frac_units as an object array, which no list outlives: the in-place
    products above then free each numerator as they replace it."""
    unit, nums = phase.frac_units(start, count)
    return unit, np.fromiter(nums, dtype=object, count=count)


def indicator_block_bound(J: int, k: int) -> int:
    """Proved polynomial bound 8^(2k) (2k+1) 2^(2k) (k+2)^(2k) J^(2k(k+1))
    for the number of J-blocks of a comparison-set indicator built from two
    polynomials of degree < k."""
    return 8 ** (2 * k) * (2 * k + 1) * 2 ** (2 * k) * (k + 2) ** (2 * k) \
        * J ** (2 * k * (k + 1))


# ---------------------------------------------------------------------------
# the bracket-product second difference, label by label


# case label by (c2 > c1, c1 > c0) for c_i = {sqrt2 (n+i)}, away from ties
_CASE = np.array([[2, 4], [3, 1]], dtype=np.uint8)


@dataclass
class Example33Report:
    length: int
    case_counts: tuple[int, int, int, int]
    max_residual: float
    argmax: int
    tie_count: int
    partition_ok: bool


def bracket_second_difference_labels(P: int) -> tuple[SymbolSeq, Example33Report]:
    """Label n by the ordering of {sqrt2 n}, {sqrt2(n+1)}, {sqrt2(n+2)} and
    check the matching piecewise formula for the second difference of
    f(n) = sqrt3 * n * {sqrt2 n}.

    Cases (symbols 1..4):
      1: {s2(n+2)} > {s2(n+1)} > {s2 n}        D2 f = 2 sqrt3 (sqrt2 - 1)
      2: {s2(n+2)} < {s2(n+1)} < {s2 n}        D2 f = 2 sqrt3 (sqrt2 - 2)
      3: {s2(n+2)} > {s2(n+1)}, {s2(n+1)} < {s2 n}   ... + sqrt3 * n
      4: {s2(n+2)} < {s2(n+1)}, {s2(n+1)} > {s2 n}   ... - sqrt3 * n

    Returns the labels and a report with the maximum |D2 f(n) - formula(n)|
    over n < P, evaluated in 96-fractional-bit fixed point.
    """
    if P < 3:
        raise ValueError("need P >= 3")
    _check_bytes("bracket_second_difference_labels", P, _LABEL_BATCH_BYTES)
    s2, s3 = sqrt_const(2), sqrt_const(3)
    two_s3 = s3.mul_int(2)
    a1 = (two_s3 * (s2 - FixedReal.from_fraction(1))).mantissa  # 2 sqrt3 (sqrt2 - 1)
    a2 = (two_s3 * (s2 - FixedReal.from_fraction(2))).mantissa  # 2 sqrt3 (sqrt2 - 2)
    # The residual r = D2 f - formula takes 160-bit two's complement limbs
    # (f(n) 2^96 mod 2^160, so the product m3 n fm + 2^95 mod 2^256), and
    # r is exact there whenever |r| < 2^159.  With 0 <= fm < 2^96 and
    # m3 < 2^97, 0 <= f(n) 2^96 <= m3 n < 2^97 n, so |D2 f| 2^96 < 2^98 (n+3);
    # |a1|, |a2| < 2^98 and the slope m3 n < 2^97 n, so |r| < 2^99 (n + 3),
    # below 2^159 for every n < 2^58.  The budget keeps P below 2^29.
    wide1, wide2 = _limbs.split(a1, 5), _limbs.split(a2, 5)
    m3 = _limbs.split(s3.mantissa, 6)
    half = _limbs.split(SCALE >> 1, 8)
    frac_s2 = PolyPhase([0, s2])
    labels = np.empty(P, dtype=np.uint8)
    counts = np.zeros(5, dtype=np.int64)
    worst, worst_n = -1, 0
    for start in range(0, P, _limbs.BLOCK):
        cnt = min(_limbs.BLOCK, P - start)
        fm = frac_s2._numerators(start, cnt + 2)  # {sqrt2 n} 2^96, in words
        c0, c1, c2 = fm[:, :-2], fm[:, 1:-1], fm[:, 2:]
        up1, flat1 = _order(c0, c1)
        up2, flat2 = _order(c1, c2)
        lab = _CASE[up2.astype(np.intp), up1.astype(np.intp)]
        lab[flat1 | flat2] = 0
        labels[start : start + cnt] = lab
        counts += np.bincount(lab, minlength=5)
        # f(n) = sqrt3 n {sqrt2 n}, rounded to 2^-96 as FixedReal.__mul__ does
        m3n = _limbs.mul(m3, _limbs.arange(start, cnt + 2, 6), 6)  # below 2^160
        fv = _limbs.mul(m3n + [0, 0], _limbs.to_limbs(fm), 8, half)[3:]
        mid = [x[1:-1] for x in fv]
        d2 = _limbs.add(_limbs.sub([x[2:] for x in fv], mid),
                        _limbs.sub([x[:-2] for x in fv], mid))
        slope = [x[:-2] for x in m3n[:5]]
        down = _limbs.sub([0] * 5, slope)
        odd = (lab & 1).astype(bool)  # cases 1 and 3 start from a1
        formula = _limbs.add(
            [np.where(odd, np.uint64(x), np.uint64(y)) for x, y in zip(wide1, wide2)],
            [np.where(lab == 3, x, np.where(lab == 4, y, 0)) for x, y in zip(slope, down)])
        r = _limbs.sub(d2, formula)
        neg = _limbs.negative(r)
        r = [np.where(neg, x, y) for x, y in zip(_limbs.sub([0] * 5, r), r)]
        k = _first_max(r, lab > 0)
        if k is not None:
            v = sum(int(x[k]) << (32 * i) for i, x in enumerate(r))
            if v > worst:
                worst, worst_n = v, start + k
    ties = int(counts[0])
    report = Example33Report(
        P, tuple(int(c) for c in counts[1:]), worst / SCALE, worst_n, ties,
        ties == 0,
    )
    return SymbolSeq(labels, 5), report


def _order(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a < b, a == b) for (2, count) word arrays of unsigned 96-bit
    values: one unsigned compare of the high words, then of the low."""
    high_eq = a[0] == b[0]
    return (a[0] < b[0]) | (high_eq & (a[1] < b[1])), high_eq & (a[1] == b[1])


def _first_max(a, where: np.ndarray) -> int | None:
    """The first index of the largest value among the elements `where`
    holds, comparing the limbs from the top; None when it holds none."""
    idx = np.flatnonzero(where)
    if not idx.size:
        return None
    for limb in reversed(a):
        vals = limb[idx]
        idx = idx[vals == vals.max()]
    return int(idx[0])
