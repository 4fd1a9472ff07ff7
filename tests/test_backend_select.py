"""Property tests for the input-adaptive backend selector.

The selector is a pure function of ``(dims, core, n_procs, dtype,
available_cores, profile)``; hypothesis pins the three contract
properties the session relies on:

* the selection is always a *registered* backend (auto candidates are a
  subset of ``BACKEND_NAMES``);
* selection is stable — repeated calls with the same inputs return the
  same backend and the same scores;
* an explicit ``backend=`` override is always respected — an auto session
  never overrides an explicitly named backend.
"""

import json
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    AUTO_CANDIDATES,
    BACKEND_NAMES,
    default_profile,
    load_profile,
    merge_profile,
    save_profile,
    select_backend,
)
from repro.backends.select import (
    FIXED_COSTS,
    calibrate,
    default_profile_path,
    estimate_seconds,
    init_flops,
    select_storage,
)
from repro.session import TuckerSession
from repro.tensor.random import low_rank_tensor

# (dims, core) pairs: 1..5 modes, every core dim <= its tensor dim.
shapes = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.tuples(*[st.integers(min_value=1, max_value=64)] * n),
        st.tuples(*[st.integers(min_value=1, max_value=64)] * n),
    ).map(lambda dc: (dc[0], tuple(min(k, d) for k, d in zip(dc[1], dc[0]))))
)

procs = st.one_of(st.none(), st.integers(min_value=1, max_value=64))
cores_avail = st.integers(min_value=1, max_value=128)
dtypes = st.sampled_from([None, np.float32, np.float64])


class TestSelectionProperties:
    @settings(max_examples=200, deadline=None)
    @given(shape=shapes, n_procs=procs, cores=cores_avail, dtype=dtypes)
    def test_selection_is_a_registered_backend(
        self, shape, n_procs, cores, dtype
    ):
        dims, core = shape
        sel = select_backend(
            dims, core, n_procs=n_procs, available_cores=cores, dtype=dtype
        )
        assert sel.backend in AUTO_CANDIDATES
        assert sel.backend in BACKEND_NAMES
        assert sel.n_procs >= 1
        if n_procs is not None:
            assert sel.n_procs == n_procs
        assert set(sel.scores) <= set(AUTO_CANDIDATES)
        assert all(s >= 0 for s in sel.scores.values())
        assert sel.reason

    @settings(max_examples=100, deadline=None)
    @given(shape=shapes, n_procs=procs, cores=cores_avail, dtype=dtypes)
    def test_selection_is_stable(self, shape, n_procs, cores, dtype):
        dims, core = shape
        first = select_backend(
            dims, core, n_procs=n_procs, available_cores=cores, dtype=dtype
        )
        second = select_backend(
            dims, core, n_procs=n_procs, available_cores=cores, dtype=dtype
        )
        assert first.backend == second.backend
        assert first.scores == second.scores
        assert first.reason == second.reason

    @settings(max_examples=100, deadline=None)
    @given(
        shape=shapes,
        n_procs_cores=st.one_of(
            st.tuples(procs, st.just(1)),
            st.tuples(st.none(), st.just(2)),
        ),
    )
    def test_single_core_always_sequential(self, shape, n_procs_cores):
        # With one core the parallel backends pay pure overhead, and with
        # two the natural count leaves them one worker: the default
        # profile must never pick them.
        dims, core = shape
        n_procs, cores = n_procs_cores
        sel = select_backend(
            dims, core, n_procs=n_procs, available_cores=cores
        )
        assert sel.backend == "sequential"

    @settings(max_examples=50, deadline=None)
    @given(shape=shapes, cores=cores_avail)
    def test_scores_cover_all_candidates(self, shape, cores):
        dims, core = shape
        sel = select_backend(dims, core, available_cores=cores)
        assert set(sel.scores) == set(AUTO_CANDIDATES)
        # The winner is the argmin of its own score table.
        assert sel.scores[sel.backend] == min(sel.scores.values())


class TestOverrideRespected:
    @pytest.mark.parametrize("name", ["sequential", "threaded", "procpool"])
    def test_explicit_backend_is_never_overridden(self, name):
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        session = TuckerSession(backend=name, n_procs=2)
        res = session.run(t, (3, 3, 2), planner="optimal", n_procs=2,
                          max_iters=1)
        assert res.backend == name
        assert res.auto_selected is False
        assert res.selection_reason == ""

    def test_auto_records_choice_in_result(self):
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        session = TuckerSession(backend="auto")
        res = session.run(t, (3, 3, 2), planner="optimal", max_iters=1)
        assert res.auto_selected is True
        assert res.backend in AUTO_CANDIDATES
        assert res.backend in res.selection_reason or res.selection_reason
        assert session.last_selection is not None
        assert session.last_selection.backend == res.backend

    def test_auto_matches_selector_verdict(self):
        profile = default_profile()
        dims, core = (10, 9, 8), (3, 3, 2)
        session = TuckerSession(backend="auto", n_procs=2,
                                calibration=profile)
        t = low_rank_tensor(dims, core, noise=0.1, seed=0)
        res = session.run(t, core, planner="optimal", max_iters=1)
        expected = select_backend(dims, core, n_procs=2, profile=profile)
        assert res.backend == expected.backend

    def test_auto_rejects_cluster_config(self):
        with pytest.raises(ValueError, match="auto"):
            TuckerSession(backend="auto", cluster=object())

    def test_calibration_only_for_auto(self):
        with pytest.raises(ValueError, match="calibration"):
            TuckerSession(backend="sequential", calibration={})


class TestRobustness:
    """Regressions from review: degraded hosts and partial inputs."""

    def test_partial_calibration_dict_merges_over_defaults(self):
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        session = TuckerSession(
            backend="auto",
            calibration={"version": 1,
                         "backends": {"procpool": {"rate": 5e9}}},
        )
        res = session.run(t, (3, 3, 2), planner="optimal", max_iters=1)
        assert res.backend in AUTO_CANDIDATES

    def test_auto_falls_back_when_winner_unavailable(self, monkeypatch):
        import repro.session as session_mod
        from repro.backends import BackendUnavailableError

        real = session_mod.get_backend

        def flaky(spec, **kwargs):
            if spec == "sequential":
                raise BackendUnavailableError("no can do", backend=spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(session_mod, "get_backend", flaky)
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        session = TuckerSession(backend="auto")
        res = session.run(t, (3, 3, 2), planner="optimal", max_iters=1)
        assert res.backend != "sequential"
        assert res.backend in AUTO_CANDIDATES
        assert "fell back" in res.selection_reason

    def test_auto_raises_typed_error_when_nothing_available(self, monkeypatch):
        import repro.session as session_mod
        from repro.backends import BackendUnavailableError

        def nothing(spec, **kwargs):
            raise BackendUnavailableError("gone", backend=str(spec))

        monkeypatch.setattr(session_mod, "get_backend", nothing)
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        session = TuckerSession(backend="auto")
        with pytest.raises(BackendUnavailableError, match="no auto-eligible"):
            session.run(t, (3, 3, 2), planner="optimal", max_iters=1)

    def test_auto_rebuilds_pool_when_n_procs_changes(self, monkeypatch):
        import repro.backends.select as select_mod

        monkeypatch.setattr(select_mod.os, "cpu_count", lambda: 8)
        # Force threaded to win so the session actually builds pools.
        profile = default_profile()
        profile["backends"]["sequential"]["rate"] = 1.0
        profile["backends"]["procpool"]["rate"] = 1.0
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        session = TuckerSession(backend="auto", calibration=profile)
        first = session.run(t, (3, 3, 2), planner="optimal", n_procs=2,
                            max_iters=1)
        assert first.backend == "threaded"
        assert session.backend.n_workers == 2
        second = session.run(t, (3, 3, 2), planner="optimal", n_procs=6,
                             max_iters=1)
        assert second.backend == "threaded"
        assert session.backend.n_workers == 6

    def test_calibrate_skips_unavailable_backend(self, monkeypatch):
        import repro.backends as backends_mod
        from repro.backends import BackendUnavailableError

        real = backends_mod.get_backend

        def flaky(spec, **kwargs):
            if spec == "procpool":
                raise BackendUnavailableError("no shm", backend=spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(backends_mod, "get_backend", flaky)
        profile = calibrate(dims=(12, 10, 8), core=(3, 3, 2), repeats=1)
        # procpool keeps its default parameters and is honestly reported
        # as unmeasured; the rest were measured.
        assert "procpool" not in profile["measured"]
        assert "sequential" in profile["measured"]
        assert profile["backends"]["procpool"] == (
            default_profile()["backends"]["procpool"]
        )
        assert profile["backends"]["sequential"]["rate"] > 0

    def test_warm_backends_skip_startup_charge(self):
        # A session's cached pool has paid its spin-up; selection must
        # not keep charging it.
        dims, core = (64, 64, 64), (8, 8, 8)
        cold = select_backend(dims, core, n_procs=4, available_cores=8)
        warm = select_backend(dims, core, n_procs=4, available_cores=8,
                              warm=("procpool",))
        assert warm.scores["procpool"] < cold.scores["procpool"]
        assert warm.scores["threaded"] == cold.scores["threaded"]

    def test_session_rejects_unreadable_explicit_calibration(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            TuckerSession(
                backend="auto",
                calibration=str(tmp_path / "nope.json"),
            )

    def test_defaulted_procs_clamped_to_plannable(self):
        # An 8-core machine's natural pool size is 7 — a prime larger
        # than every core dim here, which admits no valid grid. A
        # *defaulted* count must be clamped, not crash the planner.
        from repro.backends import ThreadedBackend

        t = low_rank_tensor((10, 9, 8), (5, 4, 3), noise=0.1, seed=0)
        session = TuckerSession(backend=ThreadedBackend(n_workers=7))
        res = session.run(t, (5, 4, 3), planner="optimal", max_iters=1)
        assert res.plan.n_procs == 6  # largest feasible count <= 7

    def test_auto_with_unplannable_natural_procs(self, monkeypatch):
        import repro.backends.select as select_mod

        monkeypatch.setattr(select_mod.os, "cpu_count", lambda: 8)
        t = low_rank_tensor((10, 9, 8), (5, 4, 3), noise=0.1, seed=0)
        session = TuckerSession(backend="auto")
        res = session.run(t, (5, 4, 3), planner="optimal", max_iters=1)
        assert res.plan.n_procs <= 6
        session.close()

    def test_explicit_unplannable_procs_still_error(self):
        # An explicit request is honored, not silently clamped.
        t = low_rank_tensor((10, 9, 8), (5, 4, 3), noise=0.1, seed=0)
        session = TuckerSession(backend="sequential")
        with pytest.raises(ValueError, match="no valid grid"):
            session.run(t, (5, 4, 3), planner="optimal", n_procs=7,
                        max_iters=1)

    def test_superseded_pools_are_closed_not_leaked(self, monkeypatch):
        import repro.backends.select as select_mod

        monkeypatch.setattr(select_mod.os, "cpu_count", lambda: 8)
        profile = default_profile()
        profile["backends"]["sequential"]["rate"] = 1.0
        profile["backends"]["procpool"]["rate"] = 1.0
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        with TuckerSession(backend="auto", calibration=profile) as session:
            session.run(t, (3, 3, 2), planner="optimal", n_procs=2,
                        max_iters=1)
            old = session.backend
            assert old._pool is not None  # the 2-worker pool span up
            session.run(t, (3, 3, 2), planner="optimal", n_procs=6,
                        max_iters=1)
            # The 2-worker instance was evicted and its pool shut down;
            # exactly one threaded instance remains cached.
            assert old._pool is None
            assert list(session._backends) == [("threaded", 6)]
        assert session.backend._pool is None  # close() on exit

    def test_warm_discount_requires_matching_procs(self, monkeypatch):
        import repro.backends.select as select_mod

        monkeypatch.setattr(select_mod.os, "cpu_count", lambda: 8)
        profile = default_profile()
        profile["backends"]["sequential"]["rate"] = 1.0
        profile["backends"]["procpool"]["rate"] = 1.0
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        session = TuckerSession(backend="auto", calibration=profile)
        session.run(t, (3, 3, 2), planner="optimal", n_procs=2, max_iters=1)
        base = select_backend(
            (10, 9, 8), (3, 3, 2), n_procs=6, available_cores=8,
            profile=session._profile,
        )
        session.run(t, (3, 3, 2), planner="optimal", n_procs=6, max_iters=1)
        # The cached pool had 2 workers, the new run wants 6: no warm
        # discount applies, so the score matches a cold selection.
        assert session.last_selection.scores == base.scores
        session.close()

    @pytest.mark.parametrize("name", ["threaded", "procpool"])
    def test_numpy_integer_worker_counts_accepted(self, name):
        from repro.backends import get_backend

        backend = get_backend(name, n_procs=np.int64(2))
        assert backend.n_workers == 2
        backend.close()

    def test_profile_without_measured_list_loads_uncalibrated(self, tmp_path):
        import json as json_mod

        path = tmp_path / "p.json"
        path.write_text(json_mod.dumps({"version": 1, "backends": {}}))
        assert load_profile(str(path))["measured"] == []


class TestValidation:
    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            select_backend((), ())

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="modes"):
            select_backend((4, 4), (2,))

    def test_nonpositive_procs_rejected(self):
        with pytest.raises(ValueError, match="n_procs"):
            select_backend((4, 4), (2, 2), n_procs=0)

    def test_non_integral_dims_rejected(self):
        # 64.9 must not be priced as 64.
        with pytest.raises(TypeError, match=r"dims\[0\]"):
            select_backend((64.9, 64, 64), (8, 8, 8))
        with pytest.raises(TypeError, match=r"core\[2\]"):
            select_backend((64, 64, 64), (8, 8, 7.5))
        with pytest.raises(TypeError, match=r"dims\[1\]"):
            calibrate(dims=(12, 9.5, 8), backends=())

    def test_retired_storage_options_rejected(self):
        params = default_profile()["backends"]["sequential"]
        with pytest.raises(TypeError):
            calibrate(backends=(), storage_probe=False)
        with pytest.raises(TypeError):
            calibrate(backends=(), probe_bytes=1)
        with pytest.raises(TypeError):
            estimate_seconds(
                "sequential", params, (8, 8, 8), (2, 2, 2), n_procs=1,
                dtype=np.float64, available_cores=1, storage_params={},
            )

    def test_profile_without_candidates_rejected(self):
        with pytest.raises(ValueError, match="auto-eligible"):
            select_backend((4, 4), (2, 2), profile={"backends": {}})


class TestCostModel:
    def test_exact_flops_monotone_in_size(self):
        small = init_flops((8, 8, 8), (2, 2, 2))
        large = init_flops((16, 16, 16), (2, 2, 2))
        assert large > small > 0

    def test_float32_estimated_faster(self):
        params = default_profile()["backends"]["sequential"]
        kwargs = dict(n_procs=1, available_cores=1)
        f64 = estimate_seconds("sequential", params, (32, 32, 32), (4, 4, 4),
                               dtype=np.float64, **kwargs)
        f32 = estimate_seconds("sequential", params, (32, 32, 32), (4, 4, 4),
                               dtype=np.float32, **kwargs)
        assert f32 < f64

    @pytest.mark.parametrize("method", ["exact", "rsthosvd", "sp-rsthosvd"])
    @pytest.mark.parametrize("name", AUTO_CANDIDATES)
    def test_every_method_priced_at_the_one_rate(self, name, method):
        # Less the costs no rate touches (an infinite rate's estimate),
        # the modelled time is flops over throughput: doubling the
        # backend's rate halves it, for the sketch methods exactly as
        # for the exact sweep.
        params = default_profile()["backends"][name]
        kw = dict(n_procs=4, dtype=np.float64, available_cores=8,
                  method=method)

        def at(rate):
            return estimate_seconds(
                name, dict(params, rate=rate), (64, 48, 40), (8, 6, 5), **kw
            )

        fixed = at(float("inf"))
        slow = at(params["rate"]) - fixed
        fast = at(2.0 * params["rate"]) - fixed
        assert slow > 0
        assert slow == pytest.approx(2.0 * fast, rel=1e-9)

    def test_large_tensor_prefers_parallel_when_cores_abound(self):
        sel = select_backend(
            (512, 512, 512), (32, 32, 32), n_procs=8, available_cores=16
        )
        assert sel.backend in ("threaded", "procpool")
        assert sel.scores[sel.backend] < sel.scores["sequential"]


class TestProfilePersistence:
    def test_round_trip_preserves_selection(self, tmp_path):
        profile = default_profile()
        profile["backends"]["threaded"]["rate"] = 123456789.0
        path = save_profile(profile, str(tmp_path / "p.json"))
        loaded = load_profile(path)
        assert loaded["backends"]["threaded"]["rate"] == 123456789.0
        a = select_backend((64, 64, 64), (8, 8, 8), available_cores=8,
                           profile=profile)
        b = select_backend((64, 64, 64), (8, 8, 8), available_cores=8,
                           profile=loaded)
        assert a.backend == b.backend

    def test_implicit_missing_profile_falls_back(self, monkeypatch, tmp_path):
        # The machine profile is optional: absent -> defaults, silently.
        monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path / "absent.json"))
        loaded = load_profile()
        assert loaded["backends"] == default_profile()["backends"]
        assert loaded["measured"] == []

    def test_explicit_missing_path_raises(self, tmp_path):
        # A *named* path that cannot be read at all is a caller error.
        with pytest.raises(ValueError, match="cannot read"):
            load_profile(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize(
        "content",
        ["{not json", "", '{"version": 999, "backends": {}}', "[1, 2, 3]"],
        ids=["corrupt", "empty", "stale-version", "not-an-object"],
    )
    def test_corrupt_or_stale_content_warns_and_falls_back(
        self, tmp_path, content
    ):
        # Corrupt/stale *content* must degrade to the defaults with a
        # warning — never crash a run that was about to use the profile.
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.warns(RuntimeWarning, match="falling back"):
            loaded = load_profile(str(path))
        assert loaded["backends"] == default_profile()["backends"]
        assert loaded["measured"] == []

    def test_wrong_typed_values_warn_and_keep_defaults(self, tmp_path):
        import json as json_mod

        path = tmp_path / "mangled.json"
        path.write_text(json_mod.dumps({
            "version": 1,
            "backends": {
                "threaded": {"rate": "fast", "startup": None},
                "procpool": {"rate": 5e9},
                "sequential": "broken",
            },
            "measured": "junk",
        }))
        with pytest.warns(RuntimeWarning, match="invalid entries"):
            loaded = load_profile(str(path))
        defaults = default_profile()["backends"]
        # Bad keys keep their defaults, good keys still merge.
        assert loaded["backends"]["threaded"]["rate"] == defaults["threaded"]["rate"]
        assert loaded["backends"]["threaded"]["startup"] == defaults["threaded"]["startup"]
        assert loaded["backends"]["sequential"] == defaults["sequential"]
        assert loaded["backends"]["procpool"]["rate"] == 5e9
        assert loaded["measured"] == []

    def test_nonfinite_values_rejected(self):
        with pytest.warns(RuntimeWarning, match="invalid entries"):
            merged = merge_profile(
                {"backends": {"threaded": {"rate": float("nan")}}}
            )
        assert merged["backends"]["threaded"]["rate"] == (
            default_profile()["backends"]["threaded"]["rate"]
        )

    @pytest.mark.parametrize(
        "params",
        [
            {"rate": 0},
            {"rate": float("inf")},
            {"rate": -1e9},
            {"startup": -5},
            {"startup": float("inf")},
        ],
        ids=["rate-0", "rate-inf", "rate-negative", "startup-negative",
             "startup-inf"],
    )
    def test_out_of_range_values_warn_and_select_as_default(self, params):
        # rate divides the model, a negative startup would let threaded
        # win on a negative modelled time, and an infinite one would
        # price it out of every verdict.
        with pytest.warns(RuntimeWarning, match="threaded"):
            merged = merge_profile({"backends": {"threaded": params}})
        assert merged["backends"] == default_profile()["backends"]
        a = select_backend((64, 64, 64), (8, 8, 8), profile=merged)
        b = select_backend((64, 64, 64), (8, 8, 8))
        assert (a.backend, a.n_procs, a.scores, a.reason) == (
            b.backend, b.n_procs, b.scores, b.reason
        )

    def test_zero_startup_is_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            merged = merge_profile({"backends": {"procpool": {"startup": 0}}})
        assert merged["backends"]["procpool"]["startup"] == 0.0

    def test_session_survives_corrupt_explicit_calibration(self, tmp_path):
        # End to end: a stale profile file named by the caller must not
        # take the session down mid-construction or mid-run.
        path = tmp_path / "stale.json"
        path.write_text('{"version": 999}')
        with pytest.warns(RuntimeWarning, match="falling back"):
            session = TuckerSession(backend="auto", calibration=str(path))
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        res = session.run(t, (3, 3, 2), planner="optimal", max_iters=1)
        assert res.backend in AUTO_CANDIDATES
        session.close()

    def test_implicit_corrupt_file_falls_back(self, monkeypatch, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        with pytest.warns(RuntimeWarning, match="falling back"):
            loaded = load_profile()
        assert loaded["backends"] == default_profile()["backends"]

    def test_env_var_controls_default_path(self, monkeypatch, tmp_path):
        target = str(tmp_path / "prof.json")
        monkeypatch.setenv("REPRO_CALIBRATION", target)
        assert default_profile_path() == target

    def test_calibrate_produces_loadable_profile(self, tmp_path):
        profile = calibrate(
            dims=(12, 10, 8), core=(3, 3, 2), repeats=1,
            backends=("sequential",),
        )
        assert profile["measured"] == ["sequential"]
        assert profile["backends"]["sequential"]["rate"] > 0
        path = save_profile(profile, str(tmp_path / "cal.json"))
        loaded = load_profile(path)
        assert loaded == profile
        sel = select_backend((12, 10, 8), (3, 3, 2), profile=loaded)
        assert sel.backend in AUTO_CANDIDATES

    def test_calibrate_starts_the_pool_on_two_cores(self, monkeypatch):
        # Two cores leave the natural pool one worker, which runs every
        # task in the parent: the probe must still time a pool spin-up.
        from repro.backends.procpool import ProcessPoolBackend

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with mock.patch.object(
            ProcessPoolBackend, "_start_pool", autospec=True,
            side_effect=ProcessPoolBackend._start_pool,
        ) as start:
            profile = calibrate(
                dims=(12, 10, 8), core=(3, 3, 2), repeats=1,
                backends=("procpool",),
            )
        assert start.call_count >= 1
        assert profile["measured"] == ["procpool"]

    def test_calibrate_without_measurements_is_uncalibrated(self):
        # Nothing measured, nothing calibrated: selection keeps the
        # uncalibrated cap-8 default instead of ranking n_procs on
        # default rates.
        profile = calibrate(backends=())
        assert profile == default_profile()


class TestSpilledCostModel:
    """The out-of-core regime: staging copies dropped."""

    def test_spilled_drops_copy_charge(self):
        # procpool stages its input into shared memory; under spill the
        # workers map the spill blocks in place. A slow rate makes the
        # copy the only difference between the two estimates.
        params = dict(default_profile()["backends"]["procpool"], rate=1.0)
        kw = dict(n_procs=1, dtype=np.float64, available_cores=1)
        resident = estimate_seconds(
            "procpool", params, (32, 32, 32), (4, 4, 4), **kw
        )
        spilled = estimate_seconds(
            "procpool", params, (32, 32, 32), (4, 4, 4), spilled=True, **kw
        )
        assert spilled < resident  # the copy charge is gone

    @pytest.mark.parametrize("backend", ["sequential", "threaded", "procpool"])
    def test_spilled_charges_no_io(self, backend):
        # Writing and reading the spill files costs every backend the
        # same, so the model prices no I/O: a spilled estimate is the
        # resident one less the staging copy, with nothing added.
        params = default_profile()["backends"][backend]
        dims = (48, 40, 32)
        kw = dict(n_procs=4, dtype=np.float64, available_cores=4)
        resident = estimate_seconds(backend, params, dims, (8, 8, 8), **kw)
        spilled = estimate_seconds(
            backend, params, dims, (8, 8, 8), spilled=True, **kw
        )
        copy_rate = FIXED_COSTS[backend]["copy_elems_per_s"]
        copy = float(np.prod(dims)) / copy_rate if copy_rate > 0 else 0.0
        assert resident - spilled == pytest.approx(copy, rel=1e-12, abs=0.0)

    def test_select_backend_spilled_deterministic_and_flagged(self):
        a = select_backend(
            (48, 48, 48), (8, 8, 8), n_procs=4, available_cores=8,
            spilled=True,
        )
        b = select_backend(
            (48, 48, 48), (8, 8, 8), n_procs=4, available_cores=8,
            spilled=True,
        )
        assert a.backend == b.backend
        assert a.scores == b.scores
        assert "spilled" in a.reason
        resident = select_backend(
            (48, 48, 48), (8, 8, 8), n_procs=4, available_cores=8,
        )
        assert "spilled" not in resident.reason


class TestStorageProfileMerge:
    @staticmethod
    def _assert_loads_like_base(
        tmp_path, backends=None, storage=None, top=None
    ):
        """A profile carrying retired keys loads without a warning and
        selects exactly as the same profile without them."""
        import copy

        base = default_profile()
        base["measured"] = ["sequential", "threaded"]
        base["backends"]["threaded"]["rate"] = 5.0e9
        old = copy.deepcopy(base)
        for name, extra in (backends or {}).items():
            old["backends"][name].update(extra)
        if storage is not None:
            old["storage"] = dict(storage)
        old.update(top or {})
        path = save_profile(old, str(tmp_path / "old.json"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_profile(path)
        assert loaded == merge_profile(base)
        for spilled in (False, True):
            for method in ("exact", "rsthosvd", "sp-rsthosvd"):
                a = select_backend(
                    (96, 80, 64), (8, 8, 8), available_cores=4,
                    profile=loaded, spilled=spilled, method=method,
                )
                b = select_backend(
                    (96, 80, 64), (8, 8, 8), available_cores=4,
                    profile=base, spilled=spilled, method=method,
                )
                assert (a.backend, a.n_procs, a.scores) == (
                    b.backend, b.n_procs, b.scores
                )

    def test_profiles_with_spill_rates_load_silently_and_select_alike(
        self, tmp_path
    ):
        # Profiles calibrated while the model charged spill I/O carry
        # the measured spill bandwidths.
        self._assert_loads_like_base(tmp_path, storage=dict(
            spill_write_bytes_per_s=6.0e8,
            spill_read_bytes_per_s=1.6e9,
        ))

    def test_profiles_with_codec_rates_load_silently_and_select_alike(
        self, tmp_path
    ):
        # Profiles calibrated while the model still priced zlib/narrow
        # carry codec rates.
        self._assert_loads_like_base(tmp_path, storage=dict(
            zlib_encode_bytes_per_s=2.0e7,
            zlib_decode_bytes_per_s=1.07e8,
            zlib_ratio=0.961,
            narrow_encode_bytes_per_s=1.5e9,
            narrow_decode_bytes_per_s=3.0e9,
        ))

    def test_profiles_with_sketch_rates_and_read_passes_load_silently(
        self, tmp_path
    ):
        # Profiles written while the model had a second, sketch-only
        # throughput and a read-pass multiplier still carry both.
        self._assert_loads_like_base(
            tmp_path,
            backends={
                name: {"sketch_rate": 1.0e8} for name in AUTO_CANDIDATES
            },
            storage={"spill_read_passes": 3.0},
        )

    @pytest.mark.parametrize("flag", [True, False])
    def test_profiles_with_fixed_costs_and_flag_load_silently(
        self, tmp_path, flag
    ):
        # Profiles written while the fixed costs and the calibrated flag
        # were settable carry them; values far from the fixed ones (an
        # efficiency of 0 was once refused) change no verdict now.
        fixed = dict(per_task=1.0, efficiency=0.0, copy_elems_per_s=1.0,
                     max_cores=1.0)
        self._assert_loads_like_base(
            tmp_path,
            backends={name: fixed for name in AUTO_CANDIDATES},
            top={"calibrated": flag},
        )
        merged = merge_profile({"calibrated": flag, "backends": {
            name: fixed for name in AUTO_CANDIDATES
        }})
        assert merged == default_profile()
        assert set(merged) == {"version", "measured", "backends"}
        assert all(
            set(params) == {"rate", "startup"}
            for params in merged["backends"].values()
        )


class TestCalibratedProcRanking:
    """With a calibrated profile, the cost model picks n_procs itself."""

    def _many_core_profile(self):
        profile = default_profile()
        profile["measured"] = list(AUTO_CANDIDATES)
        # Cripple sequential so a parallel backend wins outright.
        profile["backends"]["sequential"]["rate"] = 1.0
        return profile

    def test_calibrated_profile_ranks_beyond_cap8(self):
        sel = select_backend(
            (512, 512, 512), (32, 32, 32),
            available_cores=32, profile=self._many_core_profile(),
        )
        # Cap-8 is gone: the big tensor amortizes dispatch overhead, so
        # the ladder's widest rung (all-but-one core) models cheapest.
        assert sel.n_procs == 31
        assert "ranked cheapest of candidates" in sel.reason
        assert "calibrated profile" in sel.reason

    def test_uncalibrated_default_keeps_cap8_and_says_so(self):
        sel = select_backend(
            (512, 512, 512), (32, 32, 32), available_cores=32,
        )
        assert sel.n_procs == 8
        assert "clamped" in sel.reason
        assert "uncalibrated cap 8" in sel.reason
        assert "calibrate to rank candidates" in sel.reason

    def test_stale_calibrated_flag_without_measurements_keeps_cap8(self):
        # An older `calibrate(backends=())` wrote `"calibrated": true`
        # with nothing measured: the flag is ignored, and only a
        # non-empty `measured` list ranks the ladder.
        profile = merge_profile(
            {"version": 1, "calibrated": True, "measured": []}
        )
        sel = select_backend(
            (512, 512, 512), (32, 32, 32), available_cores=32,
            profile=profile,
        )
        assert sel.n_procs == 8
        assert "uncalibrated cap 8" in sel.reason

    def test_small_input_ranks_fewer_procs(self):
        # A tiny tensor's dispatch overhead dominates: the calibrated
        # ladder settles on a single process, below the cap-8 default.
        sel = select_backend(
            (4, 4, 4), (2, 2, 2), available_cores=32,
            profile=self._many_core_profile(),
        )
        assert sel.n_procs == 1

    def test_explicit_procs_skip_the_ladder(self):
        sel = select_backend(
            (512, 512, 512), (32, 32, 32), n_procs=3,
            available_cores=32, profile=self._many_core_profile(),
        )
        assert sel.n_procs == 3
        assert "ranked cheapest" not in sel.reason

    def test_candidate_ladder_shape(self):
        from repro.backends.select import candidate_procs

        assert candidate_procs(1) == (1,)
        # 32 cores: 1, powers of two through 16, the cap-8 default (8,
        # already a power of two) and all-but-one.
        assert candidate_procs(32) == (1, 2, 4, 8, 16, 31)
        assert all(p <= 31 for p in candidate_procs(32))

    def test_auto_procs_are_the_default_pool_size(self, monkeypatch):
        # the session keys warm pools on the predicted count, so it must
        # be the size a default pool really gets, on every core count
        import os

        from repro.backends import ThreadedBackend
        from repro.backends.select import resolve_auto_procs

        for cores in range(1, 18):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            assert resolve_auto_procs(None) == ThreadedBackend().n_workers, cores

    def test_clamp_note_absent_on_small_machines(self):
        # 4 usable cores sit under the cap: nothing was clamped, so the
        # reason must not claim otherwise.
        sel = select_backend((64, 64, 64), (8, 8, 8), available_cores=5)
        assert "clamped" not in sel.reason


class TestDtypeSpeedup:
    def test_half_precision_never_reaches_the_model(self):
        # The model prices float32 at 2x float64; a float16 input must
        # not get a 4x speedup numpy cannot deliver. The dtype policy
        # keeps it out: an explicit float16 is rejected, and a float16
        # array works (and is priced) at float64.
        from repro.util.dtypes import resolve_dtype

        with pytest.raises(ValueError, match="float32 or float64"):
            select_backend((32, 32, 32), (4, 4, 4), dtype=np.float16)
        assert resolve_dtype(np.zeros(2, np.float16)) == np.float64


class TestStorageSelection:
    """select_storage decides memory or mmap, and why: nothing else."""

    @pytest.mark.parametrize(
        "retired", [{"profile": {}}, {"codec": "narrow"}],
        ids=["profile", "codec"],
    )
    def test_takes_no_profile_or_codec(self, retired):
        with pytest.raises(TypeError):
            select_storage(10**9, "mmap", **retired)


class TestSpillCodecFrontDoors:
    """Every entry point takes raw or narrow and refuses the rest early."""

    REJECTED = ["auto", "zlib", "zlib:6", "gzip", "RAW", None]

    @pytest.mark.parametrize("codec", REJECTED)
    def test_session_rejects_at_construction(self, codec):
        with pytest.raises(ValueError, match=r"'raw', 'narrow'"):
            TuckerSession("sequential", spill_codec=codec)

    @pytest.mark.parametrize("codec", REJECTED)
    def test_per_run_override_rejected(self, codec):
        # The codec is a session setting: no run takes one.
        t = low_rank_tensor((8, 7, 6), (2, 2, 2), seed=0)
        with TuckerSession("sequential") as session:
            with pytest.raises(TypeError, match="spill_codec"):
                session.run(t, (2, 2, 2), spill_codec=codec)
            with pytest.raises(TypeError, match="spill_codec"):
                session.run_many([t], (2, 2, 2), spill_codec=codec)

    @pytest.mark.parametrize("codec", REJECTED)
    def test_server_rejects_at_construction(self, codec):
        from repro.serve import TuckerServer

        with pytest.raises(ValueError, match="spill_codec"):
            TuckerServer(workers=1, backend="sequential", spill_codec=codec)

    def test_defaults_are_raw(self):
        with TuckerSession("sequential") as session:
            assert session._spill_codec == "raw"

    @pytest.mark.parametrize("storage", ["mmap", "memory"])
    def test_result_reports_the_codec_only_when_spilled(
        self, tmp_path, storage
    ):
        t = low_rank_tensor((12, 10, 8), (3, 3, 2), seed=0)
        with TuckerSession(
            "sequential", storage=storage, memory_budget="4K",
            spill_dir=str(tmp_path), spill_codec="narrow",
        ) as session:
            res = session.run(t, (3, 3, 2), max_iters=1)
        assert res.storage == storage
        assert res.spill_codec == ("narrow" if storage == "mmap" else "raw")


class TestSpillGeometry:
    """Stores take their block and chunk from one budget rule."""

    def test_block_and_chunk_follow_the_budget(self):
        from repro.backends.blockpar import OC_LEASE_FACTOR
        from repro.session import _spill_geometry
        from repro.storage import DEFAULT_CHUNK_BYTES

        block = 16 * 2**20 // OC_LEASE_FACTOR
        assert _spill_geometry(16 * 2**20) == (
            block, min(DEFAULT_CHUNK_BYTES, block)
        )
        assert _spill_geometry(0) == (4096, 4096)
        assert _spill_geometry(None) == (None, DEFAULT_CHUNK_BYTES)

    def test_stale_calibrated_chunk_is_dropped(self, tmp_path):
        # Profiles written before the chunk size was fixed still carry
        # storage.spill_chunk_bytes: they load quietly without it, and
        # a calibrated auto session's store writes the default chunk.
        from repro.session import _spill_geometry

        stale = default_profile()
        stale["measured"] = list(AUTO_CANDIDATES)
        stale["storage"] = {"spill_chunk_bytes": 256.0 * 2**10}
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(stale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = load_profile(str(path))
        assert "storage" not in profile
        assert profile["measured"] == list(AUTO_CANDIDATES)
        with TuckerSession(
            "auto", calibration=str(path), storage="mmap",
            memory_budget="16M", spill_dir=str(tmp_path),
        ) as session:
            store = session._open_store(session._select_storage(10**9))
            with store:
                assert store.chunk_bytes == _spill_geometry(16 * 2**20)[1]
