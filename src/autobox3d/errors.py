"""Exception types, and the number rules of the input readers, shared across the package."""


class ValidationError(ValueError):
    """A config file, input file, or threshold table failed validation."""


class UnknownClassError(ValidationError):
    """A proposal references a class with no configured threshold or anchor."""


class CloudFormatError(ValueError):
    """A point cloud file could not be parsed."""


def as_int(value, what: str) -> int:
    """``value`` as an int; booleans and fractions fail instead of truncating."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_float(value, what: str) -> float:
    """``value`` as a float; booleans fail instead of reading as 1 or 0."""
    if isinstance(value, bool):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)
