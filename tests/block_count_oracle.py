"""The per-J block counting loop that `entropy_curve` ran before it counted
every window length from one streamed J_max histogram, kept verbatim as the
differential oracle: each J rolls a prefix-length int64 code array (dense
ranks once base^J >= 2^62) and counts it on its own."""

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
        # unsafe casting converts the symbols as astype(int64) would
        np.add(codes, symbols[J - 1 :], out=codes, casting="unsafe")
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
