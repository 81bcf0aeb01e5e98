"""The field rule of ``errors`` on its own: every element, the shape, and no
conversion of strings, booleans or non-finite numbers."""

import pytest

from autobox3d.errors import ValidationError, as_float, as_floats, as_index, as_int


@pytest.mark.parametrize("value, shape", [
    ([1.0, True], (None,)),
    ([[1.0, 2.0], [3.0]], (2, 2)),
    ("1.0", (None,)),
    ([1.0, 2.0], (3,)),
], ids=["bool-element", "ragged", "string", "short"])
def test_as_floats_checks_every_element_and_the_shape(value, shape):
    with pytest.raises(ValidationError, match="v must be"):
        as_floats(value, "v", shape)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "3", None])
def test_as_int_refuses_non_numbers(value):
    with pytest.raises(ValidationError, match="n must be an integer"):
        as_int(value, "n")


@pytest.mark.parametrize("value, message", [
    (True, "must be a number"), ("1.5", "must be a number"), (None, "must be a number"),
    (float("nan"), "must be finite"), (float("-inf"), "must be finite"),
    (10**400, "must be finite"),
])
def test_as_float_refuses_non_numbers(value, message):
    with pytest.raises(ValidationError, match="x " + message):
        as_float(value, "x")


def test_integral_values_read_as_int():
    assert as_int(3.0, "n") == 3 and type(as_int(3.0, "n")) is int
    assert as_float(2, "x") == 2.0 and type(as_float(2, "x")) is float
    assert as_floats([[1, 2.5]], "v", (1, None)).tolist() == [[1.0, 2.5]]


@pytest.mark.parametrize("value", [-1, 3, 0.0, True, "0"])
def test_as_index_takes_only_ints_in_range(value):
    with pytest.raises(ValidationError, match=r"i must be an integer in \[0, 3\)"):
        as_index(value, 3, "i")
