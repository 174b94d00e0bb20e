"""Argument-validation helpers shared across the package.

Sketch constructors take a handful of integer/float parameters whose
silent misuse (zero-size arrays, negative windows, alpha <= 0) produces
confusing downstream failures; these helpers make the failure happen at
construction time with a message naming the offending parameter.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "require_positive_int",
    "require_non_negative_int",
    "require_positive_float",
    "require_in_range",
    "as_key_array",
    "as_index_array",
]


def require_positive_int(name: str, value) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as int."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    v = int(value)
    if v < 1:
        raise ValueError(f"{name} must be >= 1, got {v}")
    return v


def require_non_negative_int(name: str, value) -> int:
    """Validate that ``value`` is an integer >= 0 and return it as int."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    v = int(value)
    if v < 0:
        raise ValueError(f"{name} must be >= 0, got {v}")
    return v


def require_positive_float(name: str, value) -> float:
    """Validate that ``value`` is a finite number > 0 and return a float."""
    try:
        v = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a number, got {type(value).__name__}") from exc
    if not np.isfinite(v) or v <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value}")
    return v


def require_in_range(name: str, value, low: float, high: float, *, inclusive: bool = True) -> float:
    """Validate ``low <= value <= high`` (or strict) and return a float."""
    v = float(value)
    ok = (low <= v <= high) if inclusive else (low < v < high)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must be in {bracket[0]}{low}, {high}{bracket[1]}, got {value}"
        )
    return v


def as_key_array(keys) -> np.ndarray:
    """Coerce a sequence of integer keys to a 1-D ``uint64`` array.

    A size-0 input is an empty batch whatever its dtype (``np.asarray([])``
    is ``float64``): it comes back as an empty ``uint64`` array.
    """
    arr = np.asarray(keys)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"keys must be integers, got dtype {arr.dtype}")
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr.astype(np.uint64, copy=False)


def as_index_array(indices) -> np.ndarray:
    """Cell indices as ``int64``, without a copy where possible.

    Fancy indexing and ``take`` cast every other index dtype to
    ``int64`` on each call, which makes ``uint64`` gathers and scatters
    2-3x slower.  Hashed indices are far below ``2**63``, so unsigned
    ones reinterpret for free; other integer dtypes are converted.
    """
    arr = np.asarray(indices)
    if arr.dtype == np.uint64:
        return arr.view(np.int64)
    return arr.astype(np.int64, copy=False)
