"""Exception types, the one field rule of every JSON and YAML reader, and
its one record walker, ``read_record``. Nothing is converted on the way in,
so ``true`` is not 1, ``"1.5"`` is not 1.5 and null is not ``"None"``.
"""

import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

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


_RULES = {float: as_float, int: as_int, str: as_str, bool: as_bool}
# The declared type of each field of a dataclass, resolved once per class.
field_types = cache(get_type_hints)


def read_record(hint, value, key: str = "", base=None):
    """``value``, as parsed from JSON or YAML, read as type ``hint``, with its
    full dotted ``key`` (``swarm.n_iter``, ``classes[1].count``) in messages.

    A dataclass reads a mapping by its fields' declared types: unknown keys
    fail, a field without a default that the mapping leaves out raises
    ``KeyError`` (``reading`` reports a missing key), and over a ``base``
    instance the mapping sets only the fields it names. ``list``/``tuple``
    read a list, ``dict`` a table merged over ``base``, ``np.ndarray`` a list
    of numbers, scalars go through their field rules, and other types pass.
    """
    what, dot = key or "the document", f"{key}." if key else ""
    if is_dataclass(hint):
        names = {f.name for f in fields(hint)}
        entry = as_dict(value, what)
        if set(entry) - names:
            unknown = sorted(f"{dot}{k}" for k in set(entry) - names)
            raise ValidationError(f"unknown key(s) {unknown}; allowed: {sorted(names)}")
        if base is None:
            for f in fields(hint):
                if f.name not in entry and f.default is MISSING and f.default_factory is MISSING:
                    raise KeyError(dot + f.name)
        kwargs = {
            name: read_record(field_types(hint)[name], v, dot + name,
                              None if base is None else getattr(base, name))
            for name, v in entry.items()
        }
        try:
            return hint(**kwargs) if base is None else replace(base, **kwargs)
        except ValueError as exc:  # the dataclass's own checks, named at their key
            raise ValidationError(f"{key}: {exc}" if key else str(exc)) from exc
    origin, args = get_origin(hint), get_args(hint)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ValidationError(f"{what} must be a list, got {value!r}")
        return origin(read_record(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        table = dict(base or {})
        for name, v in as_dict(value, what).items():
            name = as_str(name, f"a key of {what}")
            table[name] = read_record(args[1], v, dot + name)
        return table
    if hint is np.ndarray:
        return as_floats(value, what, (None,))
    return _RULES[hint](value, what) if hint in _RULES else value


def as_dict(value, what: str) -> dict:
    """``value`` if it is a mapping (a JSON object)."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a mapping, got {value!r}")
    return value
