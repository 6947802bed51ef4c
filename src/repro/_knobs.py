"""``REPRO_*`` environment knobs (documented in the README's knob table).

Each reader returns the unset default for an empty variable and stops the
program with one line naming the variable for a malformed value.
"""

from __future__ import annotations

import os
from typing import Any

_SWITCH = {"": False, "0": False, "false": False, "1": True, "true": True}


def number_knob(name: str, default: Any, kind: type = int) -> Any:
    """A positive ``kind`` (``int`` or ``float``) from the environment
    variable ``name``.  A malformed, non-positive or NaN value stops the
    program with one line naming the variable."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = kind(raw)
    except ValueError:
        value = -1
    if not value > 0:  # NaN fails too
        noun = "an integer >= 1" if kind is int else "a number > 0"
        raise SystemExit(f"{name} must be {noun}, got {raw!r}")
    return value


def switch_knob(name: str) -> bool:
    """An on/off environment variable: empty, ``0`` or ``false`` is off and
    ``1`` or ``true`` is on (case-insensitive); any other value stops the
    program with one line naming the variable."""
    raw = os.environ.get(name, "")
    value = _SWITCH.get(raw.strip().lower())
    if value is None:
        raise SystemExit(f"{name} must be empty, 0, 1, false or true, got {raw!r}")
    return value
