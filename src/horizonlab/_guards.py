"""Work guards and input checks shared across the package.

Every potentially unbounded search (horizon walks, series truncation,
switch-point searches) is capped by a guard index. The cap can be raised
or lowered through the HORIZONLAB_GUARD environment variable, read at
call time so tests can tighten it.
"""

from __future__ import annotations

import os

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


def json_list(d: dict, key: str) -> list:
    """d[key], which must be a list: a string would be read one character
    at a time."""
    value = d[key]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {type(value).__name__}")
    return value
