"""Randomized (sketched) Tucker: math units, session surface, satellites.

Covers the building blocks in :mod:`repro.backends.sketch`, the
schedule compiler, seed-determinism and clamping through
``TuckerSession.run(method=...)`` on every backend, the HOOI
early-stop semantics (``converged`` / ``stopped_reason``), the serving
layer's seed handling and the method-aware cost model. Cross-backend
*numerical* agreement for the randomized methods lives in the
conformance harness (``test_backend_conformance.py``); this file owns
everything else.
"""

import json

import numpy as np
import pytest

from repro.backends import (
    BACKEND_NAMES,
    BackendUnavailableError,
    get_backend,
)
from repro.backends import sketch as rsk
from repro.tensor import kernels
from repro.backends.schedule import RAND_METHODS, compile_rand_steps
from repro.backends.select import (
    default_profile,
    estimate_seconds,
    init_flops,
    select_backend,
)
from repro.cli import main
from repro.core.meta import TensorMeta
from repro.session import TuckerSession
from repro.tensor.random import low_rank_tensor
from repro.tensor.ttm import ttm_chain

#: a simcluster-feasible case: every rank / sketch width >= grid extent.
DIMS, CORE, PROCS = (20, 18, 16), (5, 4, 3), 4


def make_backend(name, n_procs=PROCS):
    try:
        if name in ("threaded", "procpool"):
            return get_backend(name, n_procs=3)
        return get_backend(name, n_procs=n_procs)
    except BackendUnavailableError as exc:  # pragma: no cover - host-specific
        pytest.skip(f"{name} unavailable here: {exc}")


def fixture(dims=DIMS, core=CORE, noise=0.05, seed=0, dtype=np.float64):
    return low_rank_tensor(dims, core, noise=noise, seed=seed).astype(
        dtype, copy=False
    )


def true_error(arr, dec):
    """Offline reconstruction error — no norm-identity shortcuts."""
    recon = ttm_chain(dec.core, list(dec.factors), list(range(arr.ndim)))
    diff = recon - np.asarray(arr, dtype=recon.dtype)
    return float(
        np.linalg.norm(diff.reshape(-1)) / np.linalg.norm(arr.reshape(-1))
    )


# --------------------------------------------------------------------- #
# sketch math units
# --------------------------------------------------------------------- #


class TestSketchMath:
    def test_sketch_width_clamps_to_dim(self):
        assert rsk.sketch_width(4, 5, 100) == 9
        assert rsk.sketch_width(4, 50, 10) == 10  # rank + p > dim clamps
        assert rsk.sketch_width(10, 0, 6) == 6
        assert rsk.sketch_width(0, 0, 6) == 1  # never degenerate

    def test_mode_spec_shapes_and_out_shape(self):
        rng = np.random.default_rng(0)
        spec = rsk.mode_sketch_spec(rng, (6, 5, 4), 1, 2, 1, np.float64)
        assert spec.mode == 1
        assert sorted(spec.omegas) == [0, 2]
        assert spec.omegas[0].shape == (3, 6)
        assert spec.omegas[2].shape == (3, 4)
        assert kernels.out_shape((6, 5, 4), spec) == (3, 5, 3)

    def test_core_spec_widths_follow_minster(self):
        rng = np.random.default_rng(0)
        spec = rsk.core_sketch_spec(rng, (30, 5, 8), (3, 3, 3), 2, np.float64)
        assert spec.mode == -1
        # t = min(2*min(k+p, d) + 1, d) per mode
        assert spec.omegas[0].shape == (11, 30)
        assert spec.omegas[1].shape == (5, 5)
        assert spec.omegas[2].shape == (8, 8)

    def test_single_pass_specs_order(self):
        rng = np.random.default_rng(3)
        specs = rsk.single_pass_specs(
            rng, (6, 5, 4), (2, 2, 2), 1, np.float64
        )
        assert [s.mode for s in specs] == [0, 1, 2, -1]

    def test_sketch_matches_dense_ttm_chain(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((6, 5, 4))
        spec = rsk.mode_sketch_spec(
            np.random.default_rng(2), t.shape, 0, 2, 1, np.float64
        )
        (w,), norm_sq = rsk.sketch_arrays(t, [spec])
        expected = ttm_chain(t, [spec.omegas[1], spec.omegas[2]], [1, 2])
        np.testing.assert_allclose(w, expected, atol=1e-12)
        assert norm_sq == pytest.approx(float(np.dot(t.ravel(), t.ravel())))

    def test_blocked_accumulation_equals_whole_tensor(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((8, 5, 4))
        specs = rsk.single_pass_specs(
            np.random.default_rng(5), t.shape, (2, 2, 2), 1, np.float64
        )
        whole, norm_sq = rsk.sketch_arrays(t, specs)
        # Re-accumulate from two blocks cut along mode 0.
        for spec, ref in zip(specs, whole):
            out = np.zeros(kernels.out_shape(t.shape, spec), dtype=t.dtype)
            for lo, hi in ((0, 3), (3, 8)):
                ranges = ((lo, hi), (0, 5), (0, 4))
                kernels.add_block_contribution(out, t[lo:hi], spec, ranges)
            np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_orthonormal_cols_is_orthonormal_and_deterministic(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((12, 4))
        q1, q2 = rsk.orthonormal_cols(m), rsk.orthonormal_cols(m)
        np.testing.assert_allclose(q1.T @ q1, np.eye(4), atol=1e-12)
        np.testing.assert_array_equal(q1, q2)

    def test_solve_core_recovers_exact_core(self):
        rng = np.random.default_rng(7)
        dims, core = (10, 9, 8), (3, 2, 2)
        factors = [
            rsk.orthonormal_cols(rng.standard_normal((d, k)))
            for d, k in zip(dims, core)
        ]
        g = rng.standard_normal(core)
        y = ttm_chain(g, factors, [0, 1, 2])
        spec = rsk.core_sketch_spec(rng, dims, core, 2, np.float64)
        (h,), _ = rsk.sketch_arrays(y, [spec])
        recovered = rsk.solve_core(h, spec, factors)
        np.testing.assert_allclose(recovered, g, atol=1e-8)

    def test_sketch_flops_counts_chain(self):
        rng = np.random.default_rng(8)
        spec = rsk.mode_sketch_spec(rng, (10, 8, 6), 0, 2, 1, np.float64)
        # mode 1 first: 3*480; then mode 2 on the shrunk (10,3,6): 3*180
        assert kernels.sketch_flops((10, 8, 6), spec) == pytest.approx(
            3 * 480 + 3 * 180
        )


class TestCompileRandSteps:
    META = TensorMeta(dims=(10, 8, 6), core=(3, 3, 2))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method must be one of"):
            compile_rand_steps([0, 1, 2], self.META, method="hosvd")

    def test_rejects_negative_knobs(self):
        with pytest.raises(ValueError, match="oversample"):
            compile_rand_steps(
                [0, 1, 2], self.META, method="rsthosvd", oversample=-1
            )
        with pytest.raises(ValueError, match="power_iters"):
            compile_rand_steps(
                [0, 1, 2], self.META, method="rsthosvd", power_iters=-1
            )

    def test_rsthosvd_interleaves_sketch_and_ttm(self):
        steps = compile_rand_steps(
            [2, 0, 1], self.META, method="rsthosvd", oversample=3,
            power_iters=2,
        )
        ops = [(s.op, s.mode) for s in steps if s.op != "free"]
        assert ops == [
            ("sketch", 2), ("ttm", 2),
            ("sketch", 0), ("ttm", 0),
            ("sketch", 1), ("ttm", 1),
        ]
        first = steps[0]
        assert (first.p, first.q, first.k) == (3, 2, 2)

    def test_single_pass_is_one_step(self):
        steps = compile_rand_steps(
            [0, 1, 2], self.META, method="sp-rsthosvd", oversample=4
        )
        assert len(steps) == 1
        assert steps[0].op == "spsketch" and steps[0].p == 4


# --------------------------------------------------------------------- #
# session surface, all backends
# --------------------------------------------------------------------- #


class TestRandomizedSession:
    @pytest.mark.parametrize("method", RAND_METHODS)
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_seed_determinism_per_backend(self, name, method):
        t = fixture()

        def one(seed):
            session = TuckerSession(backend=make_backend(name))
            try:
                return session.run(
                    t, CORE, n_procs=PROCS, method=method, seed=seed,
                    power_iters=1, skip_hooi=True,
                )
            finally:
                session.close()

        # seed 99 runs between the two seed-11 runs: a seed taken from the
        # clock cannot repeat from a to b without also repeating in c
        a, c, b = one(11), one(99), one(11)
        np.testing.assert_array_equal(
            a.decomposition.core, b.decomposition.core
        )
        for fa, fb in zip(a.decomposition.factors, b.decomposition.factors):
            np.testing.assert_array_equal(fa, fb)
        assert not np.array_equal(
            a.decomposition.core, c.decomposition.core
        ), "different seeds must draw different sketches"

    @pytest.mark.parametrize("method", RAND_METHODS)
    def test_float32_end_to_end(self, method):
        t = fixture(dtype=np.float32)
        res = TuckerSession(backend="sequential").run(
            t, CORE, method=method, seed=1, skip_hooi=True
        )
        assert res.decomposition.core.dtype == np.float32
        assert all(
            f.dtype == np.float32 for f in res.decomposition.factors
        )
        assert true_error(t, res.decomposition) < 0.5

    @pytest.mark.parametrize("method", RAND_METHODS)
    def test_oversample_past_dims_clamps(self, method):
        t = fixture(dims=(8, 7, 6), core=(3, 3, 2))
        res = TuckerSession(backend="sequential").run(
            t, (3, 3, 2), method=method, seed=2, oversample=100,
            skip_hooi=True,
        )
        for mode, f in enumerate(res.decomposition.factors):
            assert f.shape == ((8, 7, 6)[mode], (3, 3, 2)[mode])
        assert res.decomposition.core.shape == (3, 3, 2)
        assert true_error(t, res.decomposition) < 0.5

    def test_rsthosvd_reported_error_is_true_error(self):
        # The final rsthosvd handle is a projection of the input, so the
        # norm identity is exact — the reported error must match the
        # offline reconstruction error.
        t = fixture()
        res = TuckerSession(backend="sequential").run(
            t, CORE, method="rsthosvd", seed=3, skip_hooi=True
        )
        assert res.sthosvd_error == pytest.approx(
            true_error(t, res.decomposition), rel=1e-8
        )

    @pytest.mark.parametrize("method", RAND_METHODS)
    def test_error_within_bound_of_exact(self, method):
        t = fixture(noise=0.05)
        session = TuckerSession(backend="sequential")
        exact = session.run(t, CORE, skip_hooi=True)
        rand = session.run(
            t, CORE, method=method, seed=4, power_iters=1, skip_hooi=True
        )
        assert true_error(t, rand.decomposition) <= 1.5 * max(
            exact.sthosvd_error, 1e-12
        )

    def test_hooi_refines_randomized_init(self):
        t = fixture()
        session = TuckerSession(backend="sequential")
        res = session.run(t, CORE, method="rsthosvd", seed=5, max_iters=5)
        assert res.method == "rsthosvd"
        assert res.n_iters >= 1
        assert res.stopped_reason in ("converged", "max_iters")
        assert res.errors[-1] <= res.sthosvd_error + 1e-12

    def test_method_field_defaults_to_exact(self):
        t = fixture(dims=(8, 7, 6), core=(2, 2, 2))
        res = TuckerSession(backend="sequential").run(
            t, (2, 2, 2), max_iters=1
        )
        assert res.method == "exact"

    def test_unknown_method_rejected(self):
        t = fixture(dims=(8, 7, 6), core=(2, 2, 2))
        with pytest.raises(ValueError, match="method must be"):
            TuckerSession(backend="sequential").run(
                t, (2, 2, 2), method="hosvd"
            )

    def test_run_many_forwards_method_and_seed(self):
        t1, t2 = fixture(seed=0), fixture(seed=1)
        with TuckerSession(backend="sequential") as session:
            batch = session.run_many(
                [t1, t2], core_dims=CORE, method="rsthosvd", seed=6,
                power_iters=1, skip_hooi=True,
            )
            singles = [
                session.run(
                    t, CORE, method="rsthosvd", seed=6, power_iters=1,
                    skip_hooi=True,
                )
                for t in (t1, t2)
            ]
        assert batch.n_items == 2
        for item, single in zip(batch.items, singles):
            np.testing.assert_array_equal(
                item.result.decomposition.core,
                single.decomposition.core,
            )

    @pytest.mark.parametrize("name", ["sequential", "threaded", "procpool"])
    @pytest.mark.parametrize("method", RAND_METHODS)
    def test_spilled_run_matches_in_memory(self, name, method, tmp_path):
        # One pass over the spill blocks accumulates every sketch; the
        # blocked accumulation must agree with the resident path.
        t = fixture(noise=0.01)
        backend = make_backend(name)
        kw = dict(
            n_procs=PROCS, method=method, seed=7, power_iters=1,
            skip_hooi=True,
        )
        try:
            resident = TuckerSession(backend=backend).run(t, CORE, **kw)
            spilled = TuckerSession(
                backend=backend, storage="mmap", spill_dir=str(tmp_path),
            ).run(t, CORE, **kw)
        finally:
            backend.close()
        assert spilled.storage == "mmap"
        assert spilled.sthosvd_error == pytest.approx(
            resident.sthosvd_error, abs=1e-8
        )
        np.testing.assert_allclose(
            spilled.decomposition.core, resident.decomposition.core,
            atol=1e-8,
        )
        for a, b in zip(
            spilled.decomposition.factors, resident.decomposition.factors
        ):
            np.testing.assert_allclose(a, b, atol=1e-8)


# --------------------------------------------------------------------- #
# HOOI early-stop semantics (the bugfix)
# --------------------------------------------------------------------- #


class TestHooiEarlyStop:
    def _run_with_core_norms(self, monkeypatch, g_fracs, **kwargs):
        """HOOI with scripted per-iteration core norms (as input fractions)."""
        t = fixture(dims=(8, 7, 6), core=(2, 2, 2))
        session = TuckerSession(backend="sequential")
        init = session.sthosvd(t, (2, 2, 2)).decomposition
        backend = session.backend
        real = backend.fro_norm_sq
        fracs = iter(g_fracs)
        t_norm_sq = float(np.dot(t.ravel(), t.ravel()))

        def fake(handle, *, tag="norm"):
            if tag == "norm:core":
                return next(fracs) * t_norm_sq
            return real(handle, tag=tag)

        monkeypatch.setattr(backend, "fro_norm_sq", fake)
        return session.hooi(t, init, **kwargs)

    def test_plateau_reports_converged(self, monkeypatch):
        res = self._run_with_core_norms(
            monkeypatch, [0.9, 0.9, 0.9], max_iters=5, tol=1e-8
        )
        assert res.converged is True
        assert res.stopped_reason == "converged"
        assert res.n_iters == 2

    def test_rising_error_stops_as_non_monotone(self, monkeypatch):
        # Core norm drops -> error rises. The old ``delta < tol`` check
        # reported this as converged; it must stop and say why instead.
        res = self._run_with_core_norms(
            monkeypatch, [0.9, 0.5, 0.4], max_iters=5, tol=1e-8
        )
        assert res.converged is False
        assert res.stopped_reason == "non-monotone"
        assert res.n_iters == 2
        assert res.errors[-1] > res.errors[-2]

    def test_exhausting_iterations_reports_max_iters(self, monkeypatch):
        res = self._run_with_core_norms(
            monkeypatch, [0.5, 0.7, 0.9], max_iters=3, tol=1e-8
        )
        assert res.converged is False
        assert res.stopped_reason == "max_iters"
        assert res.n_iters == 3

    def test_real_run_converges_cleanly(self):
        t = fixture(dims=(8, 7, 6), core=(2, 2, 2), noise=0.0)
        res = TuckerSession(backend="sequential").run(
            t, (2, 2, 2), max_iters=10, tol=1e-6
        )
        assert res.converged is True
        assert res.stopped_reason == "converged"


# --------------------------------------------------------------------- #
# serving: seed handling + randomized dispatch
# --------------------------------------------------------------------- #


class TestServeRandomized:
    def test_conflicting_seeds_rejected(self):
        from repro.serve.request import parse_request

        with pytest.raises(ValueError, match="conflicting seeds"):
            parse_request({
                "core": [2, 2, 2], "seed": 1,
                "random": {"dims": [6, 6, 6], "seed": 2},
            })

    def test_agreeing_and_single_seeds_accepted(self):
        from repro.serve.request import parse_request

        both = parse_request({
            "core": [2, 2, 2], "seed": 3,
            "random": {"dims": [6, 6, 6], "seed": 3},
        })
        assert both.seed == 3
        inner = parse_request({
            "core": [2, 2, 2], "random": {"dims": [6, 6, 6], "seed": 4},
        })
        assert inner.seed == 4
        top = parse_request({
            "core": [2, 2, 2], "seed": 5,
            "random": {"dims": [6, 6, 6]},
        })
        assert top.seed == 5

    def test_request_accepts_randomized_methods(self):
        from repro.serve.request import ServeRequest

        for method in RAND_METHODS:
            req = ServeRequest(
                core=(2, 2, 2), dims=(6, 6, 6), method=method
            )
            assert req.method == method
        with pytest.raises(ValueError, match="method must be one of"):
            ServeRequest(core=(2, 2, 2), dims=(6, 6, 6), method="hosvd")

    @pytest.mark.parametrize("method", RAND_METHODS)
    def test_served_result_replays_bit_for_bit(self, method):
        from repro.serve import ServeRequest, TuckerServer

        t = fixture(dims=(10, 8, 6), core=(3, 3, 2))
        with TuckerServer(workers=1, backend="sequential") as server:
            ticket = server.submit(ServeRequest(
                array=t, core=(3, 3, 2), method=method, seed=9, id="r0"
            ))
            res = ticket.result(timeout=120)
        assert res.ok, res.error
        assert res.value.method == method
        assert res.value.n_iters == 0  # init-only, like "sthosvd"
        ref = TuckerSession(backend="sequential").run(
            t, (3, 3, 2), method=method, seed=9, skip_hooi=True
        )
        np.testing.assert_array_equal(
            res.value.decomposition.core, ref.decomposition.core
        )


# --------------------------------------------------------------------- #
# method-aware cost model
# --------------------------------------------------------------------- #


class TestMethodAwareCostModel:
    DIMS, CORE = (200, 180, 160), (8, 6, 5)

    def test_exact_init_flops_is_a_sweep(self):
        # each mode's TTM from the full tensor plus its (d+1)/2 Gram
        card = float(np.prod(self.DIMS))
        sweep = sum(k * card for k in self.CORE) + sum(
            (d + 1) / 2 * card for d in self.DIMS
        )
        assert init_flops(self.DIMS, self.CORE) == sweep

    def test_randomized_flops_beat_exact_gram(self):
        exact = init_flops(self.DIMS, self.CORE, "exact")
        rand = init_flops(self.DIMS, self.CORE, "rsthosvd")
        sp = init_flops(self.DIMS, self.CORE, "sp-rsthosvd")
        assert rand < exact and sp < exact

    def test_power_iterations_are_charged(self):
        base = init_flops(self.DIMS, self.CORE, "rsthosvd", power_iters=0)
        powered = init_flops(self.DIMS, self.CORE, "rsthosvd", power_iters=2)
        assert powered > base

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="method must be one of"):
            init_flops(self.DIMS, self.CORE, "hosvd")

    def test_estimate_seconds_prices_methods_apart(self):
        params = default_profile()["backends"]["sequential"]
        kwargs = dict(
            n_procs=1, dtype=np.float64, available_cores=4
        )
        exact = estimate_seconds(
            "sequential", params, self.DIMS, self.CORE, **kwargs
        )
        rand = estimate_seconds(
            "sequential", params, self.DIMS, self.CORE, method="rsthosvd",
            **kwargs,
        )
        assert rand < exact

    def test_select_backend_is_method_pure(self):
        a = select_backend(
            self.DIMS, self.CORE, n_procs=2, available_cores=4,
            method="rsthosvd",
        )
        b = select_backend(
            self.DIMS, self.CORE, n_procs=2, available_cores=4,
            method="rsthosvd",
        )
        assert (a.backend, a.n_procs, a.scores) == (
            b.backend, b.n_procs, b.scores
        )
        assert "method=rsthosvd" in a.reason
        exact = select_backend(
            self.DIMS, self.CORE, n_procs=2, available_cores=4
        )
        assert "method=" not in exact.reason


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #


class TestDecomposeCliMethod:
    ARGS = [
        "decompose", "--random", "12,10,8", "--core", "4,3,3",
        "--seed", "5", "--skip-hooi",
    ]

    def test_json_payload_carries_method(self, capsys):
        rc = main(self.ARGS + ["--method", "rsthosvd", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "rsthosvd"
        assert payload["n_iters"] == 0
        assert np.isfinite(payload["sthosvd_error"])

    @pytest.mark.parametrize("method", RAND_METHODS)
    def test_same_seed_reproduces(self, method, capsys):
        args = self.ARGS + ["--method", method, "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["method"] == method
        assert first["sthosvd_error"] == second["sthosvd_error"]

    def test_text_output_names_the_method(self, capsys):
        rc = main(self.ARGS + ["--method", "rsthosvd", "--power-iters", "1"])
        assert rc == 0
        assert "rsthosvd error:" in capsys.readouterr().out
