"""LAPACK's symmetric EVD and economic QR, called without the GIL.

The factor step's two LAPACK routines (``syevr`` and ``geqrf`` +
``orgqr``) are bound here from the C function pointers that
:mod:`scipy.linalg.cython_lapack` exports. A :mod:`ctypes` call releases
the interpreter lock for its whole duration, so two serve workers run
their EVDs and QRs at the same time, where scipy's f2py wrappers let one
at a time through.

The results are scipy's bit for bit: the same routine and arguments as
scipy's ``eigh`` (``jobz='V'``, ``uplo='L'``, ``abstol=0``, ``vl=0``,
``vu=1``, an index range or the full one) and as scipy's
``qr(mode="economic")`` for a tall matrix, on a Fortran-order
copy of the input in the LAPACK dtype scipy would pick, with the
workspace sizes LAPACK's own query returns (rounded as scipy rounds
them). Each query runs once per routine, dtype and shape; only the sizes
are kept, every array is the caller's own.
"""

from __future__ import annotations

import ctypes

import numpy as np
from scipy.linalg import cython_lapack

__all__ = ["eigh", "qr_economic"]

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


def _bind(name: str, nargs: int):
    """``cython_lapack``'s ``name`` as a GIL-releasing foreign function of
    ``nargs`` pointer arguments (LAPACK passes every argument by address)."""
    capsule = cython_lapack.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


#: dtype -> routine name -> function
_ROUTINES = {
    np.dtype(dtype): {
        name: _bind(prefix + name, nargs)
        for name, nargs in (("syevr", 21), ("geqrf", 8), ("orgqr", 9))
    }
    for prefix, dtype in (("s", np.float32), ("d", np.float64))
}

# One-letter arguments, NUL-terminated, at fixed addresses.
_FLAGS = ctypes.create_string_buffer(b"V\0A\0I\0L\0")
_JOBZ_V, _RANGE_A, _RANGE_I, _UPLO_L = (
    ctypes.addressof(_FLAGS) + 2 * i for i in range(4)
)
_INT = np.dtype(np.intc)

#: (routine, dtype char, shape) -> workspace sizes
_workspace: dict[tuple, tuple[int, ...]] = {}


def _lapack_dtype(dtype: np.dtype) -> np.dtype:
    """scipy's choice: small ints, bools and half/single floats run in
    float32, other ints and doubles in float64."""
    if dtype.char in "?bBhHef":
        return np.dtype(np.float32)
    if dtype.char in "iIlLqQdg":
        return np.dtype(np.float64)
    raise TypeError(f"need a real matrix, got dtype {dtype}")


def _fortran_copy(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    return np.array(a, dtype=_lapack_dtype(a.dtype), order="F")


def _lwork(value, dtype: np.dtype) -> int:
    """scipy's rounding of a queried float32 size: one ulp up first, since
    LAPACK may have truncated it to single precision."""
    if dtype == np.float32:
        value = np.nextafter(value, np.inf, dtype=np.float32)
    return int(value)


def _check(info: int, name: str, dtype: np.dtype) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(
            f"LAPACK {name} ({dtype}) returned info={info}"
        )


def eigh(a, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(w, v)``: the ``k`` largest eigenpairs of symmetric ``a``, or all.

    Eigenvalues ascend as scipy's ``eigh`` returns them, and ``v``'s
    columns are their eigenvectors in the same order; only ``a``'s lower
    triangle is read. No finite check is made.
    """
    a = _fortran_copy(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    cols = n if k is None else k
    if not 1 <= cols <= n:
        raise ValueError(f"k must be in [1, {n}], got {cols}")
    dtype = a.dtype
    syevr = _ROUTINES[dtype]["syevr"]
    key = ("syevr", dtype.char, n)
    if key not in _workspace:
        _workspace[key] = _syevr_query(syevr, n, dtype)
    lwork, liwork = _workspace[key]
    # ints: n, lda, il, iu, m, ldz, lwork, liwork, info, isuppz, iwork
    ints = np.empty(9 + 2 * n + liwork, _INT)
    ints[:9] = (n, n, n - cols + 1, n, 0, n, lwork, liwork, 0)
    # reals: vl, vu, abstol, w, work
    reals = np.empty(3 + n + lwork, dtype)
    reals[:3] = (0, 1, 0)
    z = np.empty((n, cols), dtype, order="F")
    i, r = ints.ctypes.data, reals.ctypes.data
    si, sr = _INT.itemsize, dtype.itemsize
    syevr(
        _JOBZ_V, _RANGE_A if k is None else _RANGE_I, _UPLO_L,
        i, a.ctypes.data, i + si, r, r + sr, i + 2 * si, i + 3 * si,
        r + 2 * sr, i + 4 * si, r + 3 * sr, z.ctypes.data, i + 5 * si,
        i + 9 * si, r + (3 + n) * sr, i + 6 * si, i + (9 + 2 * n) * si,
        i + 7 * si, i + 8 * si,
    )
    _check(int(ints[8]), "syevr", dtype)
    m = int(ints[4])
    return reals[3:3 + m], z[:, :m]


def _syevr_query(syevr, n: int, dtype: np.dtype) -> tuple[int, int]:
    ints = np.array([n, n, 1, n, 0, n, -1, -1, 0, 0], _INT)
    reals = np.zeros(4, dtype)
    reals[1] = 1
    i, r = ints.ctypes.data, reals.ctypes.data
    si, sr = _INT.itemsize, dtype.itemsize
    syevr(
        _JOBZ_V, _RANGE_A, _UPLO_L, i, r, i + si, r, r + sr, i + 2 * si,
        i + 3 * si, r + 2 * sr, i + 4 * si, r, r, i + 5 * si, i + 9 * si,
        r + 3 * sr, i + 6 * si, i + 9 * si, i + 7 * si, i + 8 * si,
    )
    _check(int(ints[8]), "syevr workspace query", dtype)
    return _lwork(reals[3], dtype), int(ints[9])


def qr_economic(a) -> np.ndarray:
    """The ``m x n`` orthonormal factor ``Q`` of ``a = QR`` for ``m >= n``,
    as scipy's ``qr(a, mode="economic")[0]``."""
    a = _fortran_copy(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"need m >= n, got shape {a.shape}")
    dtype = a.dtype
    geqrf, orgqr = _ROUTINES[dtype]["geqrf"], _ROUTINES[dtype]["orgqr"]
    key = ("qr", dtype.char, m, n)
    if key not in _workspace:
        _workspace[key] = _qr_query(geqrf, orgqr, m, n, dtype)
    lwork_geqrf, lwork_orgqr = _workspace[key]
    # ints: m, n, lda, lwork (geqrf), lwork (orgqr), info
    ints = np.array([m, n, m, lwork_geqrf, lwork_orgqr, 0], _INT)
    reals = np.empty(n + max(lwork_geqrf, lwork_orgqr, 1), dtype)
    i, r, p = ints.ctypes.data, reals.ctypes.data, a.ctypes.data
    si, work = _INT.itemsize, reals.ctypes.data + n * dtype.itemsize
    geqrf(i, i + si, p, i + 2 * si, r, work, i + 3 * si, i + 5 * si)
    _check(int(ints[5]), "geqrf", dtype)
    orgqr(i, i + si, i + si, p, i + 2 * si, r, work, i + 4 * si, i + 5 * si)
    _check(int(ints[5]), "orgqr", dtype)
    return a


def _qr_query(geqrf, orgqr, m: int, n: int, dtype: np.dtype):
    ints = np.array([m, n, m, -1, 0], _INT)
    reals = np.zeros(2, dtype)
    i, r = ints.ctypes.data, reals.ctypes.data
    si = _INT.itemsize
    sizes = []
    for routine, args in (
        (geqrf, (i, i + si, r, i + 2 * si, r, r + dtype.itemsize)),
        (orgqr, (i, i + si, i + si, r, i + 2 * si, r, r + dtype.itemsize)),
    ):
        routine(*args, i + 3 * si, i + 4 * si)
        _check(int(ints[4]), "QR workspace query", dtype)
        # scipy's qr truncates the queried size without rounding up
        sizes.append(int(reals[1]))
    return tuple(sizes)
