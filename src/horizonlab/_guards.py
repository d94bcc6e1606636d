"""Work guards and input checks shared across the package.

Every potentially unbounded search (horizon walks, series truncation,
switch-point searches) is capped by a guard index. The cap can be raised
or lowered through the HORIZONLAB_GUARD environment variable, read at
call time so tests can tighten it.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import numpy as np

GUARD_INDEX_DEFAULT = 10**8
SEARCH_BOUND_DEFAULT = 10**7


class GuardExceeded(RuntimeError):
    """A bounded search ran past the configured guard index."""


def guard_index() -> int:
    """Current guard on index-valued searches and truncation points."""
    raw = os.environ.get("HORIZONLAB_GUARD")
    if raw is None:
        return GUARD_INDEX_DEFAULT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"HORIZONLAB_GUARD must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("HORIZONLAB_GUARD must be positive")
    return value


def as_index(x, what: str) -> int:
    """x as an int when it is integral (3 or 3.0); a fractional or
    non-finite float raises ValueError naming it instead of truncating."""
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def index_dtype(top: int):
    """The dtype of an array of integers >= 0 whose largest value is top,
    an exact Python int: int64 below 2**63, object (Python ints) from
    there up. Never uint64 or float64: numpy reads [2**63] as uint64 and
    promotes uint64 with int64 to float64. Both dtypes serve the same
    numpy expressions (diff, searchsorted, unique, slicing, concatenate,
    + - * <<), so indices of any size take one path; per-element scalar
    code reads Python ints off them with .tolist()."""
    return np.int64 if top < 1 << 63 else object


def index_array(values: Sequence[int], top: Optional[int] = None) -> np.ndarray:
    """values as an array of index_dtype(top), top by default their largest."""
    dtype = index_dtype(max(values, default=0) if top is None else top)
    return np.array(values if dtype is np.int64 else [int(x) for x in values], dtype=dtype)


def short_index(k: int) -> str:
    """k for a message: in full below 10**20, else rounded to three
    significant digits, with its digit count (10**400 reads
    1.00e400, 401 digits)."""
    if k < 10**20:
        return str(k)
    e = (k.bit_length() - 1) * 30102 // 100000  # 10**e <= k: 0.30102 < log10 2
    while 10 ** (e + 1) <= k:
        e += 1
    count, lead = e + 1, (k // 10 ** (e - 3) + 5) // 10
    if lead == 1000:  # 9995... rounds up to the next power of ten
        lead, e = 100, e + 1
    return f"{lead // 100}.{lead % 100:02d}e{e}, {count} digits"


def json_list(d: dict, key: str) -> list:
    """d[key], which must be a list: a string would be read one character
    at a time."""
    value = d[key]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {type(value).__name__}")
    return value
