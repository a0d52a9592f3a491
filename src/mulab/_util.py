"""Small shared helpers."""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from pathlib import Path

from .errors import ParseError

#: default working-memory budget of the measured layer's entry points (512 MiB)
DEFAULT_BUDGET_BYTES = 1 << 29

#: the values over_lcm reads without a Fraction() round trip
_EXACT = (int, Fraction)


def over_lcm(values) -> tuple[list[int], int]:
    """(nums, d): integer numerators over one common denominator, with
    values[i] = nums[i] / d exactly and d the lcm of the values'
    denominators (1 when there are none).  A value that is neither an int
    nor a Fraction goes through Fraction() first, so "p/q" strings work and
    a bad value raises what Fraction() raises.  Each value's ratio is read
    once, by as_integer_ratio()."""
    ratios = [(v if isinstance(v, _EXACT) else Fraction(v)).as_integer_ratio()
              for v in values]
    d = math.lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def atomic_write(path: str | Path, *parts: str | bytes | memoryview) -> None:
    """Write the parts in order via temp file + rename so readers never see
    partial output.

    Text is written as UTF-8 with no newline translation, bytes-like parts
    as they are, without a copy.  The file gets the mode a plain open()
    would give it (0666 less the umask).
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str | Path):
    """The JSON document in a UTF-8 file.  Undecodable bytes, malformed JSON
    and nesting past the recursion limit raise ParseError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: not a JSON document ({exc})") from None


def write_json(path: str | Path, doc) -> None:
    """doc as indented JSON with sorted keys and a final newline, atomically."""
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
