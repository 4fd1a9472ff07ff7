"""Floating-point dtype policy shared by every execution path.

The paper's kernels are dtype-agnostic — FLOP counts and communication
volumes are element counts — so the engine should honor whatever floating
precision the caller hands it. The policy implemented here:

* ``float32`` and ``float64`` inputs keep their precision end-to-end
  (STHOSVD, HOOI, the distributed engine, every backend);
* everything else (ints, bools, exotic floats) promotes to ``float64``,
  which remains the default working precision;
* an explicit ``dtype=`` knob on the session API overrides both.
"""

from __future__ import annotations

import numpy as np

#: dtypes that flow through unchanged; all others promote to float64.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def resolve_dtype(value, dtype=None) -> np.dtype:
    """Working dtype for ``value`` (an array, dtype, or scalar type).

    ``dtype``, when given, wins — but must be one of the supported floating
    dtypes. Otherwise the value's own dtype is kept if supported, else
    ``float64``.
    """
    if dtype is not None:
        dtype = np.dtype(dtype)
        if dtype not in SUPPORTED_DTYPES:
            raise ValueError(
                f"dtype must be float32 or float64, got {dtype}"
            )
        return dtype
    if not isinstance(value, type):  # a scalar type's ``dtype`` is a descriptor
        value = getattr(value, "dtype", None) or value
    candidate = np.dtype(value)
    return candidate if candidate in SUPPORTED_DTYPES else np.dtype(np.float64)


def as_float(array, dtype=None) -> np.ndarray:
    """Return ``array`` as an ndarray in its resolved working dtype.

    No copy is made when the array already has the resolved dtype.
    """
    array = np.asarray(array)
    return np.asarray(array, dtype=resolve_dtype(array, dtype))


def accumulator_dtype(dtype) -> np.dtype:
    """Reduction dtype for per-rank partials: floats keep their precision,
    everything else accumulates in float64 (the old engine behavior)."""
    dtype = np.dtype(dtype)
    return dtype if np.issubdtype(dtype, np.floating) else np.dtype(np.float64)
