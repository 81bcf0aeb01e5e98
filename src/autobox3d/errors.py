"""Exception types, and the one field rule of every JSON and YAML reader:
nothing is converted on the way in, so ``true`` is not 1, ``"1.5"`` is not
1.5 and null is not ``"None"``.
"""

import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np


class ValidationError(ValueError):
    """A config file, input file, or threshold table failed validation."""


class UnknownClassError(ValidationError):
    """A proposal references a class with no configured threshold or anchor."""


class CloudFormatError(ValueError):
    """A point cloud file could not be parsed."""


def make_output_dir(path: Path) -> Path:
    """``path``, made a directory if need be, or a ValidationError that names it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {path}: {exc.strerror}") from None
    return path


@contextmanager
def reading(where):
    """Report a record's KeyError, TypeError or ValueError as a ValidationError
    that starts with ``where`` and names a missing key as such."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"{where}: {detail}") from exc


def as_float(value, what: str) -> float:
    """``value`` as a float: a finite number, never a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    # False for NaN, the infinities and ints beyond the float range; an int compares exactly.
    if not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return float(value)


def as_int(value, what: str) -> int:
    """``value`` as an int: a number without a fraction (``3.0`` reads as 3), never a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_index(value, n: int, what: str) -> int:
    """A position in a list of ``n``: an int in [0, n); even ``0.0`` fails."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < n:
        raise ValidationError(f"{what} must be an integer in [0, {n}), got {value!r}")
    return value


def as_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}")
    return value


def as_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{what} must be true or false, got {value!r}")
    return value


def as_floats(value, what: str, shape: tuple) -> np.ndarray:
    """Nested lists of ``shape`` (``None``: any length) as a float64 array. Each
    element goes through ``as_float``: ``np.asarray([1, True])`` is an int64
    array, so a dtype check alone would let the boolean through."""
    arr = np.array(value, dtype=object)
    if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        size = " x ".join("n" if n is None else str(n) for n in shape)
        raise ValidationError(f"{what} must be a list of {size} numbers, got {value!r}")
    return np.array([as_float(v, what) for v in arr.flat]).reshape(arr.shape)


_RULES = {"float": as_float, "int": as_int, "str": as_str, "bool": as_bool}


def as_field(kind: str, value, what: str):
    """``value`` read by the field rule for the type named ``kind``; a value
    of any other type is taken as given."""
    return _RULES[kind](value, what) if kind in _RULES else value


def from_mapping(cls, entry, where: str):
    """Dataclass ``cls`` from one mapping, each value read by the rule for its
    field's type as ``"<where> <key>"``; a field of another type takes the
    value as given. Unknown keys fail; a missing field without a default
    raises ``KeyError``, which ``reading`` reports as a missing key."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{where.rstrip(':')} must be a mapping")
    types = {f.name: getattr(f.type, "__name__", f.type) for f in fields(cls)}
    if set(entry) - set(types):
        raise ValidationError(f"{where} unknown key(s) {sorted(set(entry) - set(types))}")
    for f in fields(cls):
        if f.name not in entry and f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return cls(**{key: as_field(types[key], v, f"{where} {key}") for key, v in entry.items()})
