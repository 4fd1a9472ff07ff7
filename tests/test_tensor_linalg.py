"""Tests for Gram-based SVD helpers."""

import ctypes
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from repro.tensor import lapack, linalg
from repro.tensor.linalg import (
    deterministic_sign,
    gram,
    gram_factor,
    leading_eigvecs,
    leading_left_singular_vectors,
)


class TestGram:
    def test_value_and_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 20))
        g = gram(x)
        np.testing.assert_allclose(g, x @ x.T, rtol=1e-12)
        np.testing.assert_array_equal(g, g.T)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            gram(np.zeros(3))


class TestDeterministicSign:
    def test_flips_negative_dominant(self):
        v = np.array([[0.1, -0.9], [-0.9, 0.1]])
        out = deterministic_sign(v)
        np.testing.assert_allclose(out[:, 0], [-0.1, 0.9])
        np.testing.assert_allclose(out[:, 1], [0.9, -0.1])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((6, 3))
        once = deterministic_sign(v)
        np.testing.assert_array_equal(once, deterministic_sign(once))

    def test_does_not_mutate_input(self):
        v = np.array([[-1.0], [0.5]])
        _ = deterministic_sign(v)
        assert v[0, 0] == -1.0

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            deterministic_sign(np.ones(3))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_the_column_loop(self, seed, dtype):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((9, 14))
        v[:, :8] = rng.integers(-3, 4, (9, 8))  # exact ties in magnitude
        v[:3, 0] = [-3.0, 3.0, 1.0]  # tie, negative first: flips
        v[:3, 1] = [3.0, -3.0, 1.0]  # tie, positive first: stays
        v[:, 8] = 0.0
        v[:, 9] = -0.0
        v[4, 10] = np.nan
        v[:, 11] = np.nan
        v[2, 12] = -np.inf
        v = v.astype(dtype)
        out = deterministic_sign(v)
        assert out.dtype == v.dtype
        assert out.tobytes() == _loop_sign(v).tobytes()


def _loop_sign(vectors):
    """The per-column loop :func:`deterministic_sign` replaced: the
    reference it must match bit for bit."""
    vectors = np.array(vectors, copy=True)
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            vectors[:, j] = -col
    return vectors


class TestLeadingEigvecs:
    def test_recovers_known_eigenvectors(self):
        # diag matrix: leading eigvecs are unit vectors of largest entries
        d = np.diag([1.0, 5.0, 3.0, 2.0])
        v = leading_eigvecs(d, 2)
        np.testing.assert_allclose(np.abs(v[:, 0]), [0, 1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(np.abs(v[:, 1]), [0, 0, 1, 0], atol=1e-12)

    def test_orthonormal(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 30))
        v = leading_eigvecs(gram(x), 4)
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-10)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            leading_eigvecs(np.eye(3), 0)
        with pytest.raises(ValueError):
            leading_eigvecs(np.eye(3), 4)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            leading_eigvecs(np.zeros((3, 4)), 1)


class TestLeadingLeftSingularVectors:
    def test_gram_and_svd_methods_agree_on_subspace(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 40))
        k = 3
        u1 = leading_left_singular_vectors(x, k, method="gram")
        u2 = leading_left_singular_vectors(x, k, method="svd")
        # same subspace: projectors match (vectors may differ by sign only,
        # but deterministic_sign makes them equal up to tiny round-off)
        np.testing.assert_allclose(u1 @ u1.T, u2 @ u2.T, atol=1e-8)
        np.testing.assert_allclose(u1, u2, atol=1e-8)

    def test_maximizes_captured_energy(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 50))
        u = leading_left_singular_vectors(x, 2)
        captured = np.linalg.norm(u.T @ x) ** 2
        # compare against 50 random orthonormal 2-frames
        for seed in range(50):
            q, _ = np.linalg.qr(
                np.random.default_rng(seed).standard_normal((6, 2))
            )
            assert captured >= np.linalg.norm(q.T @ x) ** 2 - 1e-8

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            leading_left_singular_vectors(np.eye(3), 1, method="magic")

    def test_rejects_bad_shape_and_k(self):
        with pytest.raises(ValueError, match="2-D"):
            leading_left_singular_vectors(np.ones(3), 1)
        for k in (0, 4):
            with pytest.raises(ValueError, match="k must be"):
                leading_left_singular_vectors(np.eye(3), k, method="svd")


# --------------------------------------------------------------------- #
# gram_factor's warm route (a HOOI update started from its last factor)
# --------------------------------------------------------------------- #

N, K = 48, 8
ANGLE_TOL = {np.float64: 1e-12, np.float32: 1e-5}


def _spectral_gram(lams, dtype, seed=0):
    """``(V diag(lams) V^T in dtype, V)`` for a random orthogonal ``V``."""
    lams = np.asarray(lams, dtype=np.float64)
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((lams.size, lams.size)))
    return ((v * lams) @ v.T).astype(dtype), v


def _near(basis, scale, seed=1):
    """``basis`` moved by a perturbation of size ``scale`` and made
    orthonormal again: a factor one HOOI sweep away from ``basis``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(basis + scale * rng.standard_normal(basis.shape))
    return q.astype(basis.dtype)


def _routed(g, k, init):
    """``(warm, factor)``: whether ``gram_factor(g, k, init)`` skipped the
    subset EVD, and its result."""
    with mock.patch.object(
        linalg, "leading_eigvecs", wraps=linalg.leading_eigvecs
    ) as spy:
        factor = gram_factor(g, k, init)
    return spy.call_count == 0, factor


def _angle(a, b):
    """Sine of the largest principal angle between two column spans."""
    a, b = a.astype(np.float64), b.astype(np.float64)
    return np.linalg.norm(a - b @ (b.T @ a), 2)


def _separated():
    """Leading ``K`` in [0.5, 1] over a flat tail at 1e-4 (low rank +
    noise, the spectrum HOOI updates see)."""
    return np.r_[np.linspace(1.0, 0.5, K), np.full(N - K, 1e-4)]


def _graded():
    return 10.0 ** (-np.arange(1, N + 1) / 4)


def _clustered():
    lams = np.linspace(1.0, 0.1, N)
    lams[K - 1] = lams[K] * (1 + 1e-12)
    return lams


def _rank_deficient():
    return np.r_[np.linspace(1.0, 0.5, K - 3), np.zeros(N - K + 3)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestWarmStart:
    def test_accepted_from_a_nearby_factor(self, dtype):
        g, _ = _spectral_gram(_separated(), dtype)
        exact = gram_factor(g, K)
        warm, factor = _routed(g, K, _near(exact, 1e-6))
        assert warm
        assert factor.dtype == exact.dtype
        assert _angle(factor, exact) <= ANGLE_TOL[dtype]
        # the same sign convention: the columns themselves agree
        np.testing.assert_allclose(
            factor, exact, atol=10 * ANGLE_TOL[dtype]
        )

    @pytest.mark.parametrize(
        "spectrum", [_graded, _clustered, _rank_deficient]
    )
    def test_hard_spectra(self, dtype, spectrum):
        """The fallback returns the EVD bit for bit. Only float32's graded
        case is accepted: at λ_{k+1}/λ_k = 0.56 three steps take 1e-6 to
        float32's residual tolerance, not float64's."""
        g, _ = _spectral_gram(spectrum(), dtype)
        exact = gram_factor(g, K)
        warm, factor = _routed(g, K, _near(exact, 1e-6))
        assert warm == (spectrum is _graded and dtype is np.float32)
        if warm:
            assert _angle(factor, exact) <= ANGLE_TOL[dtype]
        else:
            np.testing.assert_array_equal(factor, exact)

    def test_theta_k_at_rounding_level_falls_back(self, dtype):
        # exact data: residual and tail are 0 and θ_k = 1e-20 > 0, yet
        # θ_k is below what the residual tolerance can resolve
        g = np.diag([1.0, 0.5, 1e-20, 0.0, 0.0]).astype(dtype)
        warm, factor = _routed(g, 3, np.eye(5, 3, dtype=dtype))
        assert not warm
        np.testing.assert_array_equal(factor, gram_factor(g, 3))

    def test_init_orthogonal_to_the_leading_eigenvector(self, dtype):
        # the iteration settles on span(v_2..v_{K+1}), an invariant
        # subspace with a small residual; only the tail check sees v_1
        g, v = _spectral_gram(_separated(), dtype)
        warm, factor = _routed(g, K, v[:, 1:K + 1].astype(dtype))
        assert not warm
        np.testing.assert_array_equal(factor, gram_factor(g, K))

    @pytest.mark.parametrize("shape", [(N, K + 1), (N - 1, K), (K,)])
    def test_wrong_shape_init_is_not_tried(self, dtype, shape):
        g, _ = _spectral_gram(_separated(), dtype)
        warm, factor = _routed(g, K, np.ones(shape, dtype))
        assert not warm
        np.testing.assert_array_equal(factor, gram_factor(g, K))

    def test_k_at_or_outside_the_bounds(self, dtype):
        g, _ = _spectral_gram(_separated(), dtype)
        warm, factor = _routed(g, N, np.eye(N, dtype=dtype))
        assert not warm
        np.testing.assert_array_equal(factor, gram_factor(g, N))
        for k in (0, N + 1):
            with pytest.raises(ValueError, match="k must be"):
                gram_factor(g, k, np.ones((N, k), dtype))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gram_raises_without_new_warnings(self, dtype, bad):
        g, _ = _spectral_gram(_separated(), dtype)
        init = gram_factor(g, K)
        g[0, 0] = bad  # an infinite pivot meets zeros: inf * 0 in matmul
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for start in (None, init):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    gram_factor(g, K, start)


@given(
    dtype=st.sampled_from([np.float64, np.float32]),
    n=st.integers(2, 24),
    k_frac=st.floats(0, 1, exclude_max=True),
    family=st.sampled_from(
        ["graded", "uniform", "separated", "rank", "clustered"]
    ),
    rate=st.floats(0.5, 8),
    log_scale=st.floats(-16, 0),
    seed=st.integers(0, 2**16),
)
def test_accepted_warm_factor_spans_the_exact_subspace(
    dtype, n, k_frac, family, rate, log_scale, seed
):
    """Accepted warm factors span the EVD's subspace; refused ones are it.

    The angle bound is the fixed tolerance (1e-12 in float64, 1e-5 in
    float32) wherever the spectrum pins the subspace down that well. A
    leading gap ``δ = λ_k - λ_{k+1}`` pins it only to about ``ε λ_1 / δ``
    for any backward-stable solver, the subset EVD included
    (Davis–Kahan), so on graded or clustered draws the bound is
    ``128 ε λ_1 / δ``.
    """
    k = 1 + int(k_frac * (n - 1))
    rng = np.random.default_rng(seed)
    if family == "graded":
        lams = 10.0 ** (-np.arange(1, n + 1) / rate)
    elif family == "uniform":
        lams = rng.uniform(0, 1, n)
    elif family == "separated":
        lams = np.r_[
            rng.uniform(0.5, 1, k), rng.uniform(0, 10.0**-rate, n - k)
        ]
    elif family == "rank":
        rank = int(rng.integers(0, k + 1))
        lams = np.r_[rng.uniform(0.5, 1, rank), np.zeros(n - rank)]
    else:
        lams = rng.uniform(0.5, 1, n)
        lams = np.sort(lams)[::-1]
        lams[k - 1] = lams[k] * (1 + 10.0 ** (-2 * rate))
    lams = np.sort(lams)[::-1]
    g, _ = _spectral_gram(lams, dtype, seed)
    exact = gram_factor(g, k)
    warm, factor = _routed(g, k, _near(exact, 10.0**log_scale, seed))
    if not warm:
        np.testing.assert_array_equal(factor, exact)
        return
    gap = lams[k - 1] - lams[k]
    eps = np.finfo(dtype).eps
    bound = 128 * eps * lams[0] / gap if gap > 0 else np.inf
    assert _angle(factor, exact) <= max(ANGLE_TOL[dtype], bound)


# --------------------------------------------------------------------- #
# the GIL-free LAPACK calls: scipy's bits, other threads keep running
# --------------------------------------------------------------------- #


def _family(kind, n, dtype, rng):
    """A symmetric ``n x n`` test matrix of one kind, in ``dtype``."""
    if kind == "repeated":
        lams = rng.integers(0, 3, n).astype(np.float64)
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (v * lams) @ v.T
    elif kind == "rank":
        x = rng.standard_normal((n, max(1, n // 3)))
        a = x @ x.T
    else:
        x = rng.standard_normal((n, n + 3))
        a = x @ x.T
    return ((a + a.T) * 0.5).astype(dtype)


def _transposed(a):
    """``a``'s values in a non-contiguous, transposed layout."""
    buf = np.zeros((2 * a.shape[1], a.shape[0]), a.dtype)
    buf[::2] = a.T
    view = buf[::2].T
    assert view.size == 1 or not (
        view.flags.c_contiguous or view.flags.f_contiguous
    )
    return view


def _same_bits(ours, theirs):
    assert ours.dtype == theirs.dtype
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def _assert_matches_scipy(a, k):
    n = a.shape[0]
    w, v = scipy.linalg.eigh(a, subset_by_index=[n - k, n - 1])
    ours = lapack.eigh(a, k)
    _same_bits(ours[0], w)
    _same_bits(ours[1], v)
    _same_bits(leading_eigvecs(a, k), deterministic_sign(v[:, ::-1]))
    w, v = scipy.linalg.eigh(a)
    ours = lapack.eigh(a)
    _same_bits(ours[0], w)
    _same_bits(ours[1], v)
    tall = a[:, :k]
    _same_bits(
        lapack.qr_economic(tall), scipy.linalg.qr(tall, mode="economic")[0]
    )


def _ks(n):
    return sorted({1, max(1, n // 8), max(1, n // 2), n})


class TestLapackMatchesScipy:
    """:mod:`repro.tensor.lapack` returns scipy's ``eigh`` and economic
    ``qr`` bit for bit: the rest of the program sees no change."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 37, 128, 300])
    def test_every_k_of_a_size(self, n, dtype):
        rng = np.random.default_rng(n)
        a = _family("random", n, dtype, rng)
        for k in _ks(n):
            _assert_matches_scipy(a, k)

    @given(
        dtype=st.sampled_from([np.float64, np.float32]),
        n=st.integers(1, 300),
        k_pick=st.integers(0, 3),
        kind=st.sampled_from(["random", "repeated", "rank"]),
        transposed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_property(self, dtype, n, k_pick, kind, transposed, seed):
        rng = np.random.default_rng(seed)
        a = _family(kind, n, dtype, rng)
        if transposed:
            a = _transposed(a)
        _assert_matches_scipy(a, _ks(n)[min(k_pick, len(_ks(n)) - 1)])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_only_the_lower_triangle_is_read(self, dtype):
        # a non-symmetric input: both read the same triangle of the
        # transposed, non-contiguous view
        rng = np.random.default_rng(5)
        a = _transposed(rng.standard_normal((40, 40)).astype(dtype))
        _assert_matches_scipy(a, 6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("cols", ["duplicate", "zero"])
    def test_rank_deficient_qr(self, dtype, cols):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((30, 9)).astype(dtype)
        if cols == "duplicate":
            a[:, 4] = a[:, 1]
        else:
            a[:, 2:5] = 0
        for view in (a, _transposed(a)):
            _same_bits(
                lapack.qr_economic(view),
                scipy.linalg.qr(view, mode="economic")[0],
            )

    @pytest.mark.parametrize(
        "dtype, runs_in", [(np.int64, np.float64), (np.int16, np.float32)]
    )
    def test_integer_matrices_run_where_scipy_ran_them(self, dtype, runs_in):
        a = np.array([[4, 1, 0], [1, 3, 1], [0, 1, 2]], dtype=dtype)
        assert leading_eigvecs(a, 2).dtype == runs_in
        _assert_matches_scipy(a, 2)

    def test_workspace_sizes_are_scipys(self):
        from scipy.linalg import lapack as scipy_lapack

        for n in (1, 9, 300, 2000):
            for prefix, dtype in (("s", np.float32), ("d", np.float64)):
                lapack.eigh(np.eye(n, dtype=dtype), 1)
                query = getattr(scipy_lapack, prefix + "syevr_lwork")
                key = ("syevr", np.dtype(dtype).char, n)
                assert lapack._workspace[key] == (
                    scipy_lapack._compute_lwork(query, n, lower=1)
                )

    def test_warm_route_is_the_scipy_algorithm(self):
        """The warm route's steps, written with scipy's calls, give the
        same factor bit for bit."""
        for dtype in (np.float64, np.float32):
            g, _ = _spectral_gram(_separated(), dtype)
            init = _near(gram_factor(g, K), 1e-6)
            warm, factor = _routed(g, K, init)
            assert warm
            _same_bits(factor, _scipy_warm_factor(g, K, init))

    def test_bad_input_is_refused(self):
        with pytest.raises(TypeError, match="real"):
            lapack.eigh(np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="2-D"):
            lapack.qr_economic(np.ones(3))
        with pytest.raises(ValueError, match="square"):
            lapack.eigh(np.ones((3, 4)))
        for k in (0, 4):
            with pytest.raises(ValueError, match="k must be"):
                lapack.eigh(np.eye(3), k)
        with pytest.raises(ValueError, match="m >= n"):
            lapack.qr_economic(np.ones((3, 4)))

    @pytest.mark.parametrize("routine", ["syevr", "geqrf", "orgqr"])
    def test_lapack_failure_raises_linalg_error(self, routine, monkeypatch):
        def failing(*args):
            ctypes.c_int.from_address(args[-1]).value = -1

        routines = {dt: dict(fs) for dt, fs in lapack._ROUTINES.items()}
        routines[np.dtype(np.float64)][routine] = failing
        monkeypatch.setattr(lapack, "_ROUTINES", routines)
        monkeypatch.setattr(lapack, "_workspace", {})
        with pytest.raises(np.linalg.LinAlgError, match="info=-1"):
            if routine == "syevr":
                lapack.eigh(np.eye(4))
            else:
                lapack.qr_economic(np.eye(4)[:, :3])


def _scipy_warm_factor(g, k, init):
    """:func:`linalg._warm_factor`'s steps through scipy's wrappers (the
    form that held the GIL): the reference the GIL-free calls must match."""
    g = (g + g.T) * 0.5
    eps = np.finfo(g.dtype).eps
    gq = g @ np.asarray(init, dtype=g.dtype)
    for _ in range(linalg.SUBSPACE_STEPS):
        q = scipy.linalg.qr(
            gq, mode="economic", overwrite_a=True, check_finite=False
        )[0]
        gq = g @ q
        theta, v = scipy.linalg.eigh(q.T @ gq, check_finite=False)
        theta, v = theta[::-1], v[:, ::-1]
        q, gq = q @ v, gq @ v
        tol = 64 * eps * theta[0]
        if np.linalg.norm(gq - q * theta) <= tol and (
            np.linalg.norm(g - (q * theta) @ q.T) + 2 * tol < theta[-1]
        ):
            return deterministic_sign(q)
    return None


def _helper_advance(call):
    """How far a helper thread, counting while it yields, gets during
    ``call()`` when the interpreter never takes the GIL away by itself:
    only a call that releases the GIL lets it run."""
    count = 0
    stop = threading.Event()

    def spin():
        nonlocal count
        while not stop.is_set():
            count += 1
            time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(100)
    helper = threading.Thread(target=spin)
    try:
        helper.start()
        time.sleep(0.01)
        before = count
        call()
        return count - before
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        helper.join(10)
        assert not helper.is_alive()


def test_factor_evd_lets_other_threads_run():
    g = gram(np.random.default_rng(7).standard_normal((800, 900)))
    ours = theirs = 0
    for _ in range(3):
        ours += _helper_advance(lambda: leading_eigvecs(g, 80))
        theirs += _helper_advance(
            lambda: scipy.linalg.eigh(g, subset_by_index=[720, 799])
        )
    assert ours >= 5 * max(theirs, 1), (ours, theirs)


def test_threads_get_the_serial_results():
    rng = np.random.default_rng(8)
    work = []
    for i in range(200):
        n = int(rng.integers(2, 90))
        k = int(rng.integers(1, n))
        dtype = (np.float64, np.float32)[i % 2]
        g = _family(("random", "rank")[i % 3 == 0], n, dtype, rng)
        init = gram_factor(g, k) if i % 4 == 0 else None
        if init is not None:
            init = _near(init, 1e-7, seed=i)
        work.append((g, k, init))
    serial = [gram_factor(*item).tobytes() for item in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda item: gram_factor(*item), work))
    finally:
        sys.setswitchinterval(interval)
    assert [f.tobytes() for f in threaded] == serial

