"""Tests for sequential TTM and TTM-chains.

The kernel never unfolds: it views the tensor as ``(A, L, B)`` and runs one
batched GEMM, into ``out=`` when given. Everything that view logic can get
wrong is a matter of strides, so the differential tests below hold it
against ``np.einsum`` over layouts, dtypes and sinks, and the memory tests
hold it to "no tensor-sized temporary".
"""

import contextlib
import gc
import importlib
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.tensor.ttm import ttm, ttm_chain
from repro.tensor.unfold import unfold

#: the module, not the function ``repro.tensor`` re-exports under its name
ttm_module = importlib.import_module("repro.tensor.ttm")

LETTERS = "abcde"


def einsum_ttm(x, matrix, mode):
    """The reference: the mode product as a plain index contraction."""
    sub = LETTERS[: x.ndim]
    return np.einsum(
        f"{sub},z{sub[mode]}->{sub.replace(sub[mode], 'z')}", x, matrix
    )


def tolerance(want: np.ndarray, length: int) -> float:
    """Absolute bound on a ``length``-term dot product in ``want``'s dtype."""
    eps = np.finfo(want.dtype).eps
    return 4 * eps * max(1, length) * max(1.0, float(np.abs(want).max()))


def lay_out(values: np.ndarray, layout: str, axis: int, workdir: str):
    """``values`` (C-contiguous) again, element for element, in ``layout``."""
    if layout == "c":
        return values
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "transposed":
        return np.ascontiguousarray(values.T).T
    if layout == "reversed":  # a negative stride along ``axis``
        return np.flip(np.ascontiguousarray(np.flip(values, axis)), axis)
    if layout == "readonly":
        frozen = values.copy()
        frozen.setflags(write=False)
        return frozen
    if layout == "memmap":
        mapped = np.memmap(
            f"{workdir}/x.bin", dtype=values.dtype, mode="w+",
            shape=values.shape,
        )
        mapped[...] = values
        return mapped
    # a view into a larger array, longer along ``axis``
    grown = list(values.shape)
    grown[axis] = 2 * grown[axis] + 1
    big = np.full(grown, np.nan, dtype=values.dtype)
    index = [slice(None)] * values.ndim
    if layout == "block":  # a contiguous range: what a block cut makes
        index[axis] = slice(1, 1 + values.shape[axis])
    else:  # "step": every other element
        index[axis] = slice(1, None, 2)
    view = big[tuple(index)]
    view[...] = values
    return view


LAYOUTS = (
    "c", "fortran", "transposed", "reversed", "readonly", "memmap", "block",
    "step",
)
SINKS = ("new", "fresh", "block", "step", "reversed")
DTYPES = (
    (np.float64, np.float64),
    (np.float32, np.float32),
    (np.float32, np.float64),
    (np.float64, np.float32),
)


def check_against_einsum(dims, mode, k, layout, axis, sink, dtypes, seed):
    rng = np.random.default_rng(seed)
    x_dtype, m_dtype = dtypes
    values = rng.standard_normal(dims).astype(x_dtype)
    matrix = rng.standard_normal((k, dims[mode])).astype(m_dtype)
    want = einsum_ttm(values, matrix, mode)
    with tempfile.TemporaryDirectory() as workdir:
        x = lay_out(values, layout, axis % len(dims), workdir)
        if sink == "new":
            got = ttm(x, matrix, mode)
            assert got.flags["C_CONTIGUOUS"]
        else:
            out = lay_out(
                np.zeros(want.shape, want.dtype),
                "c" if sink == "fresh" else sink, axis % len(dims), workdir,
            )
            got = ttm(x, matrix, mode, out)
            assert got is out
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_allclose(
            got, want, rtol=0, atol=tolerance(want, dims[mode])
        )
        del x, got


class TestAgainstEinsum:
    @given(
        dims=st.lists(st.integers(1, 5), min_size=2, max_size=5).map(tuple),
        mode=st.integers(0, 4),
        k=st.integers(1, 7),
        layout=st.sampled_from(LAYOUTS),
        axis=st.integers(0, 4),
        sink=st.sampled_from(SINKS),
        dtypes=st.sampled_from(DTYPES),
        seed=st.integers(0, 999),
    )
    def test_any_shape_layout_dtype_and_sink(
        self, dims, mode, k, layout, axis, sink, dtypes, seed
    ):
        check_against_einsum(
            dims, mode % len(dims), k, layout, axis, sink, dtypes, seed
        )

    #: (dims, mode, k): the corners of the (A, L, B) view
    TABLE = {
        "vector": ((6,), 0, 3),
        "matrix-first": ((5, 4), 0, 3),
        "matrix-last": ((5, 4), 1, 3),
        "A=1": ((5, 4, 3), 0, 2),
        "middle": ((5, 4, 3), 1, 2),
        "B=1": ((5, 4, 3), 2, 2),
        "B=1-by-unit-modes": ((5, 4, 1, 1), 1, 2),
        "A=1-by-unit-modes": ((1, 1, 4, 3), 2, 2),
        "unit-mode-multiplied": ((4, 1, 3), 1, 5),
        "unit-mode-between": ((4, 1, 3, 2), 2, 2),
        "K=1": ((3, 4, 2, 5), 2, 1),
        "K>L": ((3, 4, 2, 5), 1, 9),
        "5d-middle": ((2, 3, 2, 3, 2), 2, 4),
        "5d-last": ((2, 3, 2, 3, 2), 4, 4),
    }

    @pytest.mark.parametrize("row", sorted(TABLE))
    def test_corner_table(self, row):
        dims, mode, k = self.TABLE[row]
        for layout in LAYOUTS:
            for sink in SINKS:
                for axis in range(len(dims)):
                    for dtypes in DTYPES[:3]:
                        check_against_einsum(
                            dims, mode, k, layout, axis, sink, dtypes, seed=7
                        )

    def test_integer_tensors_still_work(self):
        x = np.arange(24).reshape(2, 3, 4)
        for mode in range(3):
            ints = np.arange(2 * x.shape[mode]).reshape(2, -1)
            got = ttm(x, ints, mode)
            assert got.dtype == x.dtype
            np.testing.assert_array_equal(got, einsum_ttm(x, ints, mode))
            got = ttm(x, ints * 0.5, mode)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(
                got, einsum_ttm(x, ints * 0.5, mode)
            )

    def test_broadcast_input(self):
        # zero strides: every slab is the same memory
        x = np.broadcast_to(np.arange(12.0).reshape(1, 4, 3), (5, 4, 3))
        matrix = np.arange(8.0).reshape(2, 4)
        for mode in range(3):
            m = matrix if mode == 1 else np.ones((2, x.shape[mode]))
            np.testing.assert_allclose(
                ttm(x, m, mode), einsum_ttm(x, m, mode), atol=1e-12
            )

    def test_empty_tensors(self):
        assert ttm(np.ones((3, 0, 4)), np.ones((2, 3)), 0).shape == (2, 0, 4)
        # an empty sum is zero, also into a dirty out
        out = np.full((3, 2, 4), np.nan)
        ttm(np.ones((3, 0, 4)), np.ones((2, 0)), 1, out)
        np.testing.assert_array_equal(out, np.zeros((3, 2, 4)))


class TestOutIsChecked:
    x = np.ones((3, 4, 5))
    matrix = np.ones((2, 4))

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            ttm(self.x, self.matrix, 1, np.empty((3, 4, 5)))
        with pytest.raises(ValueError, match="shape"):
            ttm(self.x, self.matrix, 1, np.empty((3, 2, 5, 1)))

    def test_no_silent_cast_into_out(self):
        with pytest.raises(ValueError, match="dtype"):
            ttm(self.x, self.matrix, 1, np.empty((3, 2, 5), np.float32))
        # float32 x float64 is a float64 product: a float32 out would lose it
        with pytest.raises(ValueError, match="dtype"):
            ttm(
                self.x.astype(np.float32), self.matrix, 1,
                np.empty((3, 2, 5), np.float32),
            )

    def test_read_only(self):
        out = np.empty((3, 2, 5))
        out.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            ttm(self.x, self.matrix, 1, out)

    def test_overlapping_the_input(self):
        big = np.ones((3, 4, 5))
        with pytest.raises(ValueError, match="overlap"):
            ttm(big, np.ones((2, 4)), 1, big[:, :2])
        with pytest.raises(ValueError, match="overlap"):
            ttm(big[:, ::-1], np.ones((4, 4)), 1, big)

    def test_not_an_array(self):
        with pytest.raises(ValueError, match="ndarray"):
            ttm(self.x, self.matrix, 1, [[0.0]])


KIB = 1024


def traced_peak(call) -> int:
    """Peak bytes allocated during ``call`` (numpy reports its buffers to
    ``tracemalloc``), the result dropped before the next reading.

    The least of three readings: the trace is process-wide, so a thread
    some earlier test left running can only add to one, never take away.
    """
    call()  # lazy imports and caches are not the kernel's
    peaks = []
    for _ in range(3):
        gc.collect()
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


class TestNoTensorSizedTemporary:
    """The kernel allocates its output and nothing else of that order.

    At the parent commit a middle mode peaked at 692 KB for a 69 KB result:
    the unfolding copy of the input plus a second copy of the output.
    """

    x = np.random.default_rng(0).standard_normal((48, 40, 36))

    def matrix(self, mode):
        return np.random.default_rng(1).standard_normal((5, self.x.shape[mode]))

    @pytest.mark.parametrize("mode", (0, 1))
    def test_first_and_middle_modes(self, mode):
        matrix = self.matrix(mode)
        out = ttm(self.x, matrix, mode)
        peak = traced_peak(lambda: ttm(self.x, matrix, mode))
        assert peak <= out.nbytes + 4 * KIB
        assert traced_peak(lambda: ttm(self.x, matrix, mode, out)) <= 4 * KIB

    def test_last_mode_holds_one_transposed_product(self):
        matrix = self.matrix(2)
        out = ttm(self.x, matrix, 2)
        assert 4 * out.nbytes < self.x.nbytes  # the bounds below tell them apart
        peak = traced_peak(lambda: ttm(self.x, matrix, 2))
        assert peak <= 2 * out.nbytes + 4 * KIB
        peak = traced_peak(lambda: ttm(self.x, matrix, 2, out))
        assert peak <= out.nbytes + 4 * KIB

    def test_last_mode_allocates_no_product(self):
        """Row panels of ``X @ M^T`` go straight into the sink: the only
        allocation is the ``L x K`` copy of ``M^T``. The ``M @ X^T`` form
        this replaced held a ``K x A`` product (``out.nbytes``) and failed
        both bounds."""
        matrix = self.matrix(2)  # C-ordered, so M^T is copied once
        out = ttm(self.x, matrix, 2)
        assert 4 * KIB < out.nbytes  # the bounds below tell them apart
        peak = traced_peak(lambda: ttm(self.x, matrix, 2, out))
        assert peak <= matrix.nbytes + 4 * KIB
        peak = traced_peak(lambda: ttm(self.x, matrix, 2))
        assert peak <= out.nbytes + 4 * KIB
        # float32 tensor x float64 matrix: matmul casts its input, one
        # panel at a time, never the whole tensor
        x32 = self.x.astype(np.float32)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ttm_module, "PANEL_BYTES", 16 * KIB)
            assert x32.nbytes >= 10 * ttm_module.PANEL_BYTES
            out = ttm(x32, matrix, 2)
            assert out.dtype == np.float64
            peak = traced_peak(lambda: ttm(x32, matrix, 2, out))
        assert peak <= 16 * KIB + matrix.nbytes + 4 * KIB

    @pytest.mark.parametrize("mode", (0, 1, 2))
    def test_a_block_cut_in_front_of_the_mode_stays_a_view(self, mode):
        # x[:, lo:hi] under mode 0, x[lo:hi] otherwise: what `_cut` yields
        # on descending dims
        index = (slice(None), slice(8, 24)) if mode == 0 else slice(8, 24)
        block, matrix = self.x[index], self.matrix(mode)
        sink = np.empty(
            self.x.shape[:mode] + (5,) + self.x.shape[mode + 1 :]
        )
        spare = sink[index].nbytes if mode == 2 else 0
        peak = traced_peak(lambda: ttm(block, matrix, mode, sink[index]))
        assert peak <= spare + 4 * KIB

    def test_only_a_cut_behind_the_mode_is_copied_and_only_that_block(self):
        block, matrix = self.x[:, :, 4:16], self.matrix(0)
        sink = np.empty((5, 40, 36))
        peak = traced_peak(lambda: ttm(block, matrix, 0, sink[:, :, 4:16]))
        assert peak <= block.nbytes + sink[:, :, 4:16].nbytes + 4 * KIB
        np.testing.assert_allclose(
            sink[:, :, 4:16], einsum_ttm(block, matrix, 0), atol=1e-12
        )


@contextlib.contextmanager
def panels_of(rows: int, length: int, dtype):
    """Last-mode panels of ``rows`` rows of ``length`` elements of ``dtype``
    (the module's byte constant patched down to that)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            ttm_module, "PANEL_BYTES", rows * length * np.dtype(dtype).itemsize
        )
        yield


def count_matmuls(call) -> int:
    """How many ``np.matmul`` calls ``call`` makes."""
    calls = []
    real = np.matmul

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "matmul", spy)
        call()
    return len(calls)


SEAM_SINKS = SINKS + ("memmap",)


def check_across_seams(dims, k, layout, axis, sink, dtypes, seed, rows):
    """The last mode of ``dims`` in panels of ``rows`` rows, against einsum,
    from any input layout into any sink (a mapped file included)."""
    rng = np.random.default_rng(seed)
    x_dtype, m_dtype = dtypes
    mode, axis = len(dims) - 1, axis % len(dims)
    values = rng.standard_normal(dims).astype(x_dtype)
    matrix = rng.standard_normal((k, dims[mode])).astype(m_dtype)
    want = einsum_ttm(values, matrix, mode)
    with tempfile.TemporaryDirectory() as x_dir, (
        tempfile.TemporaryDirectory()
    ) as out_dir, panels_of(rows, dims[mode], want.dtype):
        x = lay_out(values, layout, axis, x_dir)
        out = None
        if sink != "new":
            out = lay_out(
                np.zeros(want.shape, want.dtype),
                "c" if sink == "fresh" else sink, axis, out_dir,
            )
        got = ttm(x, matrix, mode, out)
        assert out is None or got is out
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_allclose(
            got, want, rtol=0, atol=tolerance(want, dims[mode])
        )
        del x, got, out


class TestLastModePanels:
    """The last mode runs as row panels of ``X @ M^T`` written into the
    sink. With the panel constant patched down to a few rows, every case
    below crosses at least two seams, and each is held against einsum."""

    #: the corners of the (A, L, B) view that reach the panel loop (B == 1),
    #: and the last-mode cases TestAgainstEinsum.TABLE has only for others
    CORNERS = {
        **{
            name: row
            for name, row in TestAgainstEinsum.TABLE.items()
            if math.prod(row[0][row[1] + 1 :]) == 1
        },
        "last-K=1": ((3, 4, 5), 2, 1),
        "last-K>L": ((3, 4, 5), 2, 9),
        "4d-last": ((3, 4, 2, 5), 3, 3),
    }

    @pytest.mark.parametrize("row", sorted(CORNERS))
    def test_corners_across_seams(self, row):
        dims, mode, k = self.CORNERS[row]
        lead = math.prod(dims[:mode])
        x, matrix = np.ones(dims), np.ones((k, dims[mode]))
        with panels_of(2, dims[mode], np.float64):
            panels = count_matmuls(lambda: ttm(x, matrix, mode))
        assert panels == -(-lead // 2)
        assert panels >= 3 or lead == 1  # two seams, unless a single row
        for layout in LAYOUTS:
            for sink in SEAM_SINKS:
                for axis in range(len(dims)):
                    for dtypes in DTYPES:
                        check_across_seams(
                            dims, k, layout, axis, sink, dtypes, 7, rows=2
                        )

    def test_lead_not_a_multiple_of_the_panel(self):
        # 20 rows in panels of 3: six full panels and a ragged one
        x, matrix = np.ones((5, 4, 3)), np.ones((2, 3))
        with panels_of(3, 3, np.float64):
            assert count_matmuls(lambda: ttm(x, matrix, 2)) == 7
        for layout in LAYOUTS:
            for sink in SEAM_SINKS:
                for axis in range(3):
                    check_across_seams(
                        (5, 4, 3), 2, layout, axis, sink, DTYPES[0], 3, rows=3
                    )

    def test_leading_axes_that_do_not_merge(self):
        # a block cut in front of the mode: each leading row range is
        # panelled on its own, 5 x ceil(4 / 3) panels
        big = np.random.default_rng(0).standard_normal((5, 9, 3))
        block, matrix = big[:, 2:6], np.ones((2, 3))
        with panels_of(3, 3, np.float64):
            assert count_matmuls(lambda: ttm(block, matrix, 2)) == 10
            got = ttm(block, matrix, 2)
        np.testing.assert_allclose(
            got, einsum_ttm(block, matrix, 2), rtol=0, atol=1e-12
        )

    @given(
        lead=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
        length=st.integers(1, 6),
        k=st.integers(1, 9),
        layout=st.sampled_from(LAYOUTS),
        axis=st.integers(0, 4),
        sink=st.sampled_from(SEAM_SINKS),
        dtypes=st.sampled_from(DTYPES),
        seed=st.integers(0, 999),
        rows=st.integers(1, 3),
    )
    def test_any_case_across_seams(
        self, lead, length, k, layout, axis, sink, dtypes, seed, rows
    ):
        assume(math.prod(lead) > 2 * rows)  # at least three panels
        check_across_seams(
            lead + (length,), k, layout, axis, sink, dtypes, seed, rows
        )

    @pytest.mark.parametrize("rows", (1, 2, 3))
    def test_integer_tensors_still_match_exactly(self, rows):
        x = np.arange(5 * 4 * 7).reshape(5, 4, 7) - 60
        ints = np.arange(3 * 7).reshape(3, 7) - 10
        for matrix in (ints, ints * 0.5):
            dtype = np.result_type(x, matrix)
            for block in (x, x[:, 1:3]):
                with panels_of(rows, 7, dtype):
                    got = ttm(block, matrix, 2)
                assert got.dtype == dtype
                np.testing.assert_array_equal(
                    got, einsum_ttm(block, matrix, 2)
                )

    @pytest.mark.parametrize("dtypes", DTYPES, ids=str)
    def test_same_call_same_bits(self, dtypes):
        # at the shipped panel size: 6144 rows of 40, ragged last panel
        rng = np.random.default_rng(4)
        x = rng.standard_normal((128, 48, 40)).astype(dtypes[0])
        matrix = rng.standard_normal((7, 40)).astype(dtypes[1])
        assert count_matmuls(lambda: ttm(x, matrix, 2)) >= 2
        first = ttm(x, matrix, 2)
        np.testing.assert_array_equal(ttm(x, matrix, 2), first)
        # a sink BLAS cannot write into is filled through a buffer, and
        # gets the same bits
        wide = np.empty(first.shape[:-1] + (2 * first.shape[-1],), first.dtype)
        np.testing.assert_array_equal(ttm(x, matrix, 2, wide[..., ::2]), first)


class TestTTM:
    def test_matches_unfold_definition(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((4, 5, 6))
        a = rng.standard_normal((3, 5))
        z = ttm(t, a, 1)
        assert z.shape == (4, 3, 6)
        np.testing.assert_allclose(unfold(z, 1), a @ unfold(t, 1), rtol=1e-12)

    def test_identity_matrix_is_noop(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 4, 2))
        np.testing.assert_allclose(ttm(t, np.eye(4), 1), t)

    def test_matrix_shape_checked(self):
        with pytest.raises(ValueError, match="columns"):
            ttm(np.zeros((3, 4)), np.zeros((2, 5)), 1)
        with pytest.raises(ValueError, match="2-D"):
            ttm(np.zeros((3, 4)), np.zeros(4), 1)

    def test_output_contiguous(self):
        z = ttm(np.zeros((3, 4, 5)), np.zeros((2, 4)), 1)
        assert z.flags["C_CONTIGUOUS"]

    def test_matches_einsum_3d(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 4))
        np.testing.assert_allclose(
            ttm(t, a, 1), np.einsum("ijk,rj->irk", t, a), rtol=1e-12
        )

    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=99),
    )
    def test_mode_length_replaced(self, mode, k, seed):
        dims = (4, 3, 5, 2)
        t = np.random.default_rng(seed).standard_normal(dims)
        a = np.random.default_rng(seed + 1).standard_normal((k, dims[mode]))
        z = ttm(t, a, mode)
        expected = list(dims)
        expected[mode] = k
        assert z.shape == tuple(expected)


class TestTTMChain:
    def test_commutativity(self):
        # the property HOOI's tree rearrangements rely on (section 2.1)
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 5, 6))
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((3, 6))
        z1 = ttm(ttm(t, a, 0), b, 2)
        z2 = ttm(ttm(t, b, 2), a, 0)
        np.testing.assert_allclose(z1, z2, rtol=1e-12)

    @given(st.permutations([0, 1, 2, 3]), st.integers(min_value=0, max_value=49))
    def test_chain_order_invariance(self, order, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((3, 4, 2, 5))
        mats = {m: rng.standard_normal((2, t.shape[m])) for m in range(4)}
        natural = ttm_chain(t, [mats[m] for m in range(4)], list(range(4)))
        shuffled = ttm_chain(t, [mats[m] for m in order], list(order))
        np.testing.assert_allclose(natural, shuffled, rtol=1e-10)

    def test_skip_mode(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((3, 4, 5))
        mats = [rng.standard_normal((2, s)) for s in t.shape]
        z = ttm_chain(t, mats, skip=1)
        assert z.shape == (2, 4, 2)

    def test_transpose_flag(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((3, 4))
        f = rng.standard_normal((3, 2))  # L x K factor
        z = ttm_chain(t, [f], [0], transpose=True)
        np.testing.assert_allclose(z, f.T @ t, rtol=1e-12)

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ttm_chain(np.zeros((2, 2)), [np.eye(2), np.eye(2)], [0, 0])

    def test_none_matrix_without_skip_rejected(self):
        with pytest.raises(ValueError, match="None"):
            ttm_chain(np.zeros((2, 2)), [None, np.eye(2)], [0, 1])

    def test_matrix_count_mismatch(self):
        with pytest.raises(ValueError, match="one matrix per mode"):
            ttm_chain(np.zeros((2, 2)), [np.eye(2)], [0, 1])
