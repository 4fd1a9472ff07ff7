"""The working-dtype policy of :func:`repro.util.dtypes.resolve_dtype`."""

import numpy as np
import pytest

from repro.util.dtypes import resolve_dtype


@pytest.mark.parametrize(
    "value, expected",
    [
        (np.float32, np.float32),
        (np.float64, np.float64),
        (float, np.float64),
        (int, np.float64),
        (np.int32, np.float64),
        (np.dtype(np.float32), np.float32),
        ("float32", np.float32),
        (np.zeros(2, np.float32), np.float32),
        (np.zeros(2, np.int64), np.float64),
    ],
)
def test_scalar_types_dtypes_and_arrays(value, expected):
    assert resolve_dtype(value) == np.dtype(expected)


def test_an_explicit_dtype_wins():
    assert resolve_dtype(np.float64, np.float32) == np.dtype(np.float32)
    with pytest.raises(ValueError, match="float32 or float64"):
        resolve_dtype(np.float64, np.int32)
