"""The per-J block counting that `entropy_curve`, `index_blocks` and
`block_count_inequality_check` did before they counted every coded window
length through one streamed histogram, kept verbatim as the differential
oracle: each J rolls a prefix-length int64 code array (dense ranks once
base^J >= 2^62) and counts it on its own."""

import math

import numpy as np

from mulab.symbolic_blocks import EntropyRow, SymbolSeq


def _code_range(base: int, J: int) -> int | None:
    """base^J, the number of distinct J-window codes, or None once it
    reaches 2^62 and the codes would overflow int64 (by J = 62 for base >= 2,
    so no larger power is ever built)."""
    size = base ** min(J, 63)
    return size if size < 1 << 62 else None


def _window_keys(symbols: np.ndarray, base: int, J_lo: int, J_hi: int):
    """Yield (J, keys, size, starts) for J_lo <= J <= J_hi.  keys[i] < size
    identifies the J-window at start i, and keys order the windows as their
    symbols do.  While base^J < 2^62 the keys are the int64 codes
    sum_j s[i+j] base^(J-1-j) (size base^J, starts None), rolled in place as
    code_J = code_{J-1} base + s[J-1:], so each yield overwrites the one
    before.  Above that they are dense ranks, of the pair keys
    rank_{J-1}[i] d + digit[i+J-1], where digit is the rank of a symbol
    among the d distinct ones, so that a key stays below P^2: size is the
    number of distinct windows and starts[r] the first start of rank r."""
    P = symbols.size
    codes = np.zeros(P, dtype=np.int64)
    J = 0
    while J < J_hi and _code_range(base, J + 1) is not None:
        J += 1
        codes = codes[: P - J + 1]
        codes *= base
        # the int64 loop converts the symbols as astype(int64) would; uint64
        # symbols would otherwise select the float64 loop, inexact past 2^53
        np.add(codes, symbols[J - 1 :], out=codes, casting="unsafe", dtype=np.int64)
        if J >= J_lo:
            yield J, codes, _code_range(base, J), None
    if J == J_hi:
        return
    ranks = np.unique(codes, return_inverse=True)[1]
    del codes
    digits = np.unique(symbols, return_inverse=True)[1]
    d = int(digits.max()) + 1
    for J in range(J + 1, J_hi + 1):
        keys = ranks[: P - J + 1] * d
        keys += digits[J - 1 :]
        _, starts, ranks = np.unique(keys, return_index=True, return_inverse=True)
        del keys
        if J >= J_lo:
            yield J, ranks, starts.size, starts


def _key_counts(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct keys ascending, occurrence counts) of keys in range(size):
    by np.bincount while the count array is no larger than the keys, else
    by np.unique."""
    if size <= keys.size:
        counts = np.bincount(keys, minlength=size)
        distinct = np.flatnonzero(counts)
        return distinct, counts[distinct]
    return np.unique(keys, return_counts=True)


def _family_counts(keys: np.ndarray, J: int, tail_start: int, size: int):
    """_key_counts of the windows at every start >= tail_start and of the
    regular windows, at every J-th start from the first multiple of J there."""
    first_reg = -(-tail_start // J) * J
    return (_key_counts(keys[tail_start:], size),
            _key_counts(keys[first_reg::J], size))


def _blocks(distinct: np.ndarray, counts: np.ndarray, J: int, base: int,
            symbols: np.ndarray, starts: np.ndarray | None) -> dict:
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


def index_blocks_dicts(seq: SymbolSeq, J: int, effective_threshold: int,
                       tail_start: int) -> tuple[dict, dict, dict, dict]:
    """The all, regular, effective and regularly effective dicts of
    `index_blocks` for valid arguments, from one J-window key array."""
    base = seq.alphabet_size
    _, keys, size, starts = next(_window_keys(seq.symbols, base, J, J))
    all_counts, reg_counts = (
        _blocks(*family, J, base, seq.symbols, starts)
        for family in _family_counts(keys, J, tail_start, size))
    eff = {b: c for b, c in all_counts.items() if c >= effective_threshold}
    reg_eff = {b: c for b, c in reg_counts.items() if c >= effective_threshold}
    return all_counts, reg_counts, eff, reg_eff


def inequality_counts(seq: SymbolSeq, J: int, l: int) -> tuple[int, int]:
    """(distinct lJ-windows at starts <= P - (l+1)J, distinct regular
    J-windows) of `block_count_inequality_check` for valid arguments, from
    one key array per window length."""
    P = len(seq)
    base = seq.alphabet_size
    _, keys, size, _ = next(_window_keys(seq.symbols, base, l * J, l * J))
    left = _key_counts(keys[: P - (l + 1) * J + 1], size)[0].size
    _, keys, size, _ = next(_window_keys(seq.symbols, base, J, J))
    reg = _key_counts(keys[::J], size)[0].size
    return left, reg


def entropy_curve_rows(seq: SymbolSeq, J_max: int, effective_threshold: int,
                       tail_start: int) -> list[EntropyRow]:
    """The rows of `entropy_curve` for valid arguments, J by J."""
    base = seq.alphabet_size
    rows = []
    for J, keys, size, _ in _window_keys(seq.symbols, base, 1, J_max):
        (_, every), (_, regular) = _family_counts(keys, J, tail_start, size)
        a = every.size
        rows.append(EntropyRow(
            J, a, regular.size,
            int(np.count_nonzero(every >= effective_threshold)),
            int(np.count_nonzero(regular >= effective_threshold)),
            math.log(a) / J))
    return rows
