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
    calibrate,
    default_profile_path,
    estimate_seconds,
    profile_from_trace,
    select_storage,
    sweep_flops,
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
        assert profile["calibrated"] is True
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

    def test_profile_without_calibrated_key_loads_uncalibrated(self, tmp_path):
        import json as json_mod

        path = tmp_path / "p.json"
        path.write_text(json_mod.dumps({"version": 1, "backends": {}}))
        assert load_profile(str(path))["calibrated"] is False


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

    def test_profile_without_candidates_rejected(self):
        with pytest.raises(ValueError, match="auto-eligible"):
            select_backend((4, 4), (2, 2), profile={"backends": {}})


class TestCostModel:
    def test_sweep_flops_monotone_in_size(self):
        small = sweep_flops((8, 8, 8), (2, 2, 2))
        large = sweep_flops((16, 16, 16), (2, 2, 2))
        assert large > small > 0

    def test_float32_estimated_faster(self):
        params = default_profile()["backends"]["sequential"]
        kwargs = dict(n_procs=1, available_cores=1)
        f64 = estimate_seconds(params, (32, 32, 32), (4, 4, 4),
                               dtype=np.float64, **kwargs)
        f32 = estimate_seconds(params, (32, 32, 32), (4, 4, 4),
                               dtype=np.float32, **kwargs)
        assert f32 < f64

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
        assert loaded["calibrated"] is False

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
        assert loaded["calibrated"] is False

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
        assert profile["calibrated"] is True
        assert profile["backends"]["sequential"]["rate"] > 0
        path = save_profile(profile, str(tmp_path / "cal.json"))
        loaded = load_profile(path)
        assert loaded["calibrated"] is True
        sel = select_backend((12, 10, 8), (3, 3, 2), profile=loaded)
        assert sel.backend in AUTO_CANDIDATES


class TestSpilledCostModel:
    """The out-of-core regime: I/O charged, staging copies dropped."""

    def _params(self, **over):
        params = dict(default_profile()["backends"]["sequential"])
        params.update(over)
        return params

    def test_spilled_adds_io_charge(self):
        kw = dict(n_procs=1, dtype=np.float64, available_cores=1)
        resident = estimate_seconds(
            self._params(), (64, 64, 64), (8, 8, 8), **kw
        )
        spilled = estimate_seconds(
            self._params(), (64, 64, 64), (8, 8, 8), spilled=True, **kw
        )
        nbytes = 64 ** 3 * 8
        expected_io = nbytes / 8.0e8 + nbytes / 1.6e9
        assert spilled == pytest.approx(resident + expected_io)

    def test_spilled_drops_copy_charge(self):
        # A backend with a staging-copy cost loses it under spill: the
        # workers map the spill blocks in place.
        kw = dict(n_procs=1, dtype=np.float64, available_cores=1)
        slow_copy = self._params(copy_elems_per_s=1.0)  # absurdly slow
        resident = estimate_seconds(
            slow_copy, (32, 32, 32), (4, 4, 4), **kw
        )
        spilled = estimate_seconds(
            slow_copy, (32, 32, 32), (4, 4, 4), spilled=True, **kw
        )
        assert spilled < resident  # the huge copy charge is gone

    def test_storage_params_scale_the_io_term(self):
        kw = dict(n_procs=1, dtype=np.float64, available_cores=1)
        fast = estimate_seconds(
            self._params(), (64, 64, 64), (8, 8, 8), spilled=True,
            storage_params={
                "spill_write_bytes_per_s": 1e12,
                "spill_read_bytes_per_s": 1e12,
            },
            **kw,
        )
        slow = estimate_seconds(
            self._params(), (64, 64, 64), (8, 8, 8), spilled=True,
            storage_params={
                "spill_write_bytes_per_s": 1e6,
                "spill_read_bytes_per_s": 1e6,
            },
            **kw,
        )
        assert slow > fast

    def test_read_passes_multiply_read_charge(self):
        kw = dict(n_procs=1, dtype=np.float64, available_cores=1)
        one_pass = estimate_seconds(
            self._params(), (64, 64, 64), (8, 8, 8), spilled=True,
            storage_params={"spill_read_passes": 1.0}, **kw,
        )
        three_pass = estimate_seconds(
            self._params(), (64, 64, 64), (8, 8, 8), spilled=True,
            storage_params={"spill_read_passes": 3.0}, **kw,
        )
        nbytes = 64 ** 3 * 8
        assert three_pass - one_pass == pytest.approx(
            2.0 * nbytes / 1.6e9
        )

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
    def test_storage_section_merges_over_defaults(self):
        profile = merge_profile(
            {"storage": {"spill_write_bytes_per_s": 5.0e9}}
        )
        assert profile["storage"]["spill_write_bytes_per_s"] == 5.0e9
        assert profile["storage"]["spill_read_bytes_per_s"] == 1.6e9

    def test_invalid_storage_values_keep_defaults_and_warn(self):
        with pytest.warns(RuntimeWarning, match="storage"):
            profile = merge_profile({
                "storage": {
                    "spill_write_bytes_per_s": -1.0,
                    "spill_read_bytes_per_s": "fast",
                },
            })
        assert profile["storage"] == default_profile()["storage"]

    def test_unknown_storage_keys_dropped(self):
        profile = merge_profile({"storage": {"warp_speed": 1.0}})
        assert "warp_speed" not in profile["storage"]

    def test_profiles_with_codec_rates_load_silently_and_select_alike(
        self, tmp_path
    ):
        # Profiles calibrated while the model still priced zlib/narrow
        # carry codec rates: they load without a warning and select
        # exactly as the same profile without them.
        import copy
        import warnings

        base = default_profile()
        base["calibrated"] = True
        base["measured"] = ["sequential", "threaded"]
        base["backends"]["threaded"]["rate"] = 5.0e9
        base["storage"]["spill_write_bytes_per_s"] = 6.0e8
        old = copy.deepcopy(base)
        old["storage"].update(
            zlib_encode_bytes_per_s=2.0e7,
            zlib_decode_bytes_per_s=1.07e8,
            zlib_ratio=0.961,
            narrow_encode_bytes_per_s=1.5e9,
            narrow_decode_bytes_per_s=3.0e9,
        )
        path = save_profile(old, str(tmp_path / "old.json"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_profile(path)
        assert loaded == merge_profile(base)
        for spilled in (False, True):
            a = select_backend(
                (96, 80, 64), (8, 8, 8), available_cores=4,
                profile=loaded, spilled=spilled,
            )
            b = select_backend(
                (96, 80, 64), (8, 8, 8), available_cores=4,
                profile=base, spilled=spilled,
            )
            assert (a.backend, a.n_procs, a.scores) == (
                b.backend, b.n_procs, b.scores
            )


class TestProfileFromTrace:
    def _span(self, sid, name, kind, seconds, nbytes):
        from repro.obs.trace import Span

        return Span(
            sid=sid, name=name, kind=kind, start=0.0, end=seconds,
            attrs={"bytes": nbytes},
        )

    def test_io_spans_become_storage_rates(self):
        from repro.obs.trace import Trace

        trace = Trace(spans=(
            self._span(1, "spill:write", "io", 0.5, 5.0e8),
            self._span(2, "spill:write", "io", 0.5, 5.0e8),
            self._span(3, "spill:read", "io", 0.25, 5.0e8),
        ))
        partial = profile_from_trace(trace)
        assert partial["storage"]["spill_write_bytes_per_s"] == (
            pytest.approx(1.0e9)
        )
        assert partial["storage"]["spill_read_bytes_per_s"] == (
            pytest.approx(2.0e9)
        )
        merged = merge_profile(partial)
        assert merged["storage"]["spill_write_bytes_per_s"] == (
            pytest.approx(1.0e9)
        )

    def test_non_io_and_zero_byte_spans_ignored(self):
        from repro.obs.trace import Trace

        trace = Trace(spans=(
            self._span(1, "spill:write", "phase", 0.5, 1e9),  # wrong kind
            self._span(2, "spill:write", "io", 0.5, 0),       # no bytes
            self._span(3, "other:io", "io", 0.5, 1e9),        # wrong name
        ))
        assert profile_from_trace(trace) == {}

    def test_sub_microsecond_aggregates_discarded(self):
        from repro.obs.trace import Trace

        trace = Trace(spans=(
            self._span(1, "spill:read", "io", 5e-7, 4096),
        ))
        assert profile_from_trace(trace) == {}

    def test_empty_trace_is_empty_partial(self):
        from repro.obs.trace import Trace

        assert profile_from_trace(Trace(spans=())) == {}

    def test_real_spilled_run_yields_mergeable_profile(self, tmp_path):
        t = low_rank_tensor((16, 14, 12), (3, 3, 2), seed=5, noise=0.0)
        with TuckerSession(
            backend="sequential", trace=True,
            storage="mmap", spill_dir=str(tmp_path),
        ) as session:
            result = session.run(t, (3, 3, 2), max_iters=1)
        partial = profile_from_trace(result.trace)
        assert "spill_write_bytes_per_s" in partial.get("storage", {})
        merged = merge_profile(partial)
        sel = select_backend(
            (16, 14, 12), (3, 3, 2), profile=merged, spilled=True,
        )
        assert sel.backend in AUTO_CANDIDATES

    def _codec_span(self, sid, name, seconds, nbytes, **extra):
        from repro.obs.trace import Span

        return Span(
            sid=sid, name=name, kind="io", start=0.0, end=seconds,
            attrs={"bytes": nbytes, **extra},
        )

    def test_codec_spans_never_read_as_raw_bandwidth(self):
        from repro.obs.trace import Trace

        # Encoded writes time the codec, not the disk; decodes are no
        # storage term at all.
        trace = Trace(spans=(
            self._codec_span(1, "spill:write", 0.5, 5.0e8),  # raw write
            self._codec_span(2, "spill:write", 1.0, 3.0e8,
                             codec="zlib:6", raw_bytes=6.0e8),
            self._codec_span(3, "spill:write", 1.0, 3.0e8,
                             codec="narrow", raw_bytes=6.0e8),
            self._codec_span(4, "spill:decode", 0.5, 1.0e9, codec="zlib:6"),
        ))
        storage = profile_from_trace(trace)["storage"]
        assert storage == {"spill_write_bytes_per_s": pytest.approx(1.0e9)}

    def test_unknown_codec_family_spans_dropped(self):
        from repro.obs.trace import Trace

        trace = Trace(spans=(
            self._codec_span(1, "spill:write", 1.0, 1e8,
                             codec="lz9", raw_bytes=1e9),
        ))
        assert profile_from_trace(trace) == {}


class TestCalibratedProcRanking:
    """With a calibrated profile, the cost model picks n_procs itself."""

    def _many_core_profile(self):
        profile = default_profile()
        profile["calibrated"] = True
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

    def test_small_input_ranks_fewer_procs(self):
        # A tiny tensor's dispatch overhead dominates: the calibrated
        # ladder settles on a single process, below the cap-8 default.
        profile = self._many_core_profile()
        profile["backends"]["threaded"]["per_task"] = 1.0
        profile["backends"]["procpool"]["per_task"] = 1.0
        sel = select_backend(
            (4, 4, 4), (2, 2, 2), available_cores=32, profile=profile,
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


class TestDtypeSpeedupClamp:
    def test_half_precision_not_modeled_faster_than_float32(self):
        # BLAS has no fast path below float32; a float16 input must not
        # be priced at a 4x speedup numpy cannot deliver.
        params = default_profile()["backends"]["sequential"]
        kw = dict(n_procs=1, available_cores=1)
        f32 = estimate_seconds(params, (32, 32, 32), (4, 4, 4),
                               dtype=np.float32, **kw)
        f16 = estimate_seconds(params, (32, 32, 32), (4, 4, 4),
                               dtype=np.float16, **kw)
        assert f16 == pytest.approx(f32)


class TestCodecSelection:
    """select_storage's codec half: raw or an explicit narrow, no choice."""

    def _calibrated(self, **storage):
        profile = default_profile()
        profile["calibrated"] = True
        profile["storage"].update(storage)
        return profile

    def test_default_is_raw_and_narrow_is_honored(self):
        assert select_storage(10**9, "mmap").codec == "raw"
        sel = select_storage(10**9, "mmap", codec="narrow")
        assert sel.codec == "narrow"
        assert sel.chunk_bytes is None  # uncalibrated: store default

    @pytest.mark.parametrize(
        "codec", ["auto", "zlib", "zlib:6", "gzip", "RAW", None]
    )
    def test_only_raw_and_narrow_accepted(self, codec):
        with pytest.raises(ValueError, match=r"spill_codec must be one of"):
            select_storage(1024, "memory", codec=codec)

    def test_calibrated_chunk_size_rides_along(self):
        profile = self._calibrated(spill_chunk_bytes=2.0**20)
        sel = select_storage(10**9, "mmap", profile=profile)
        assert sel.chunk_bytes == 2**20

    def test_memory_mode_keeps_raw_codec(self):
        sel = select_storage(1024, "auto", memory_budget=10**9,
                             codec="narrow")
        assert sel.mode == "memory"
        assert sel.codec == "raw"

    def test_auto_budget_spill_carries_codec_and_chunk(self):
        profile = self._calibrated(spill_chunk_bytes=2.0**18)
        sel = select_storage(10**9, "auto", memory_budget=1024,
                             codec="narrow", profile=profile)
        assert sel.spilled
        assert sel.codec == "narrow"
        assert sel.chunk_bytes == 2**18


class TestSpillCodecFrontDoors:
    """Every entry point takes raw or narrow and refuses the rest early."""

    REJECTED = ["auto", "zlib", "zlib:6"]

    @pytest.mark.parametrize("codec", REJECTED)
    def test_session_rejects_at_construction(self, codec):
        with pytest.raises(ValueError, match=r"'raw', 'narrow'"):
            TuckerSession("sequential", spill_codec=codec)

    @pytest.mark.parametrize("codec", REJECTED)
    def test_per_run_override_rejected(self, codec):
        t = low_rank_tensor((8, 7, 6), (2, 2, 2), seed=0)
        with TuckerSession("sequential") as session:
            with pytest.raises(ValueError, match="spill_codec"):
                session.run(t, (2, 2, 2), spill_codec=codec)
            with pytest.raises(ValueError, match="spill_codec"):
                session.run_many([t], (2, 2, 2), spill_codec=codec)

    @pytest.mark.parametrize("codec", REJECTED)
    def test_server_rejects_at_construction(self, codec):
        from repro.serve import TuckerServer

        with pytest.raises(ValueError, match="spill_codec"):
            TuckerServer(workers=1, backend="sequential", spill_codec=codec)

    def test_defaults_are_raw(self):
        with TuckerSession("sequential") as session:
            assert session._spill_codec == "raw"


class TestSpillGeometry:
    """Stores and prefetch share one budget -> block/chunk rule."""

    def _session(self, **storage):
        profile = default_profile()
        profile["calibrated"] = True
        profile["storage"].update(storage)
        return TuckerSession(
            "auto", calibration=profile, storage="mmap", memory_budget="16M"
        )

    def test_prefetch_chunk_matches_calibrated_store_chunk(self, tmp_path):
        with self._session(spill_chunk_bytes=256 * 2**10) as session:
            selection = session._select_storage(10**9, None, None)
            store = session._open_store(selection, str(tmp_path))
            with store:
                assert store.chunk_bytes == 256 * 2**10
                assert session.prefetch_chunk_bytes() == store.chunk_bytes

    def test_uncalibrated_numbers_unchanged(self):
        from repro.backends.blockpar import OC_LEASE_FACTOR
        from repro.storage import DEFAULT_CHUNK_BYTES

        with TuckerSession("sequential", memory_budget="16M") as session:
            assert session.prefetch_chunk_bytes() == min(
                DEFAULT_CHUNK_BYTES, 16 * 2**20 // OC_LEASE_FACTOR
            )
            assert session.prefetch_chunk_bytes(0) == 4096
        with TuckerSession("sequential") as session:
            assert session.prefetch_chunk_bytes() == DEFAULT_CHUNK_BYTES


class TestCalibrateStorageProbe:
    def test_probe_measures_raw_rates_and_chunk(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        profile = calibrate(
            backends=(), storage_probe=True, probe_bytes=1 << 16,
        )
        storage = profile["storage"]
        assert set(storage) == set(default_profile()["storage"])
        for key in ("spill_write_bytes_per_s", "spill_read_bytes_per_s"):
            assert storage[key] > 0, key
        assert storage["spill_chunk_bytes"] >= 256 * 2**10
        # A storage-only probe still counts as calibrated: it armed the
        # chunk choice and the spilled charge with real numbers.
        assert profile["calibrated"] is True
        assert profile["measured"] == []
        # The probe cleans up after itself.
        assert list(tmp_path.iterdir()) == []

    def test_probe_off_leaves_defaults_uncalibrated(self):
        profile = calibrate(backends=(), storage_probe=False)
        assert profile["calibrated"] is False
        assert profile["storage"] == default_profile()["storage"]
