"""Unit tests for the observability layer (repro.obs).

Covers the tracer primitive (nesting, retroactive spans, ledger
mirroring, mark/drain scoping), the disabled no-op tracer, the metrics
registry, both trace file formats round-tripping, and the modeled-volume
summarizer agreeing with the plan's own aggregate volumes.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.meta import TensorMeta
from repro.core.planner import Planner
from repro.dist.stats import Record, StatsLedger
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Trace,
    Tracer,
    canonical_tag,
    format_summary,
    load_trace,
    modeled_step_volumes,
    summarize,
)
from repro.obs.metrics import HISTOGRAM_WINDOW
from repro.obs.export import (
    from_chrome,
    to_chrome,
    write_chrome,
    write_jsonl,
)
from repro.obs.trace import _NULL_SPAN, Span


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #


class TestTracer:
    def test_nesting_and_parents(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner", kind="io") as inner:
                pass
        trace = tr.drain()
        assert [s.name for s in trace.spans] == ["inner", "outer"]
        got_inner, got_outer = trace.spans
        assert got_inner.parent == got_outer.sid
        assert got_outer.parent is None
        assert got_inner.kind == "io"
        trace.validate()

    def test_span_attrs_and_set(self):
        tr = Tracer()
        with tr.span("s", key="k", n=3) as span:
            span.set(more=True)
        (got,) = tr.drain().spans
        assert got.attrs == {"key": "k", "n": 3, "more": True}

    def test_exception_records_span_with_error(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("doomed"):
                raise RuntimeError("boom")
        (got,) = tr.drain().spans
        assert got.name == "doomed"
        assert "RuntimeError" in got.attrs["error"]

    def test_add_span_defaults_parent_to_open_span(self):
        tr = Tracer()
        t0 = time.perf_counter()
        with tr.span("host") as host:
            tr.add_span("retro", t0, t0 + 0.5, kind="worker", pid=42)
        trace = tr.drain()
        retro = trace.find("retro")[0]
        assert retro.parent == host.sid
        assert retro.attrs["pid"] == 42
        assert retro.seconds == pytest.approx(0.5)

    def test_event_attaches_to_open_span(self):
        tr = Tracer()
        with tr.span("s"):
            tr.event("select:backend", backend="threaded")
        (got,) = tr.drain().spans
        assert got.events[0].name == "select:backend"
        assert got.events[0].attrs == {"backend": "threaded"}

    def test_annotate_open_span(self):
        tr = Tracer()
        with tr.span("s"):
            tr.annotate(flag=1)
        (got,) = tr.drain().spans
        assert got.attrs["flag"] == 1

    def test_on_record_mirrors_ledger(self):
        tr = Tracer()
        ledger = StatsLedger()
        ledger.observer = tr.on_record
        with tr.span("phase"):
            ledger.add_comm("reduce_scatter", "ttm:n3", 4, 120.0, 0.25)
            ledger.add_compute("gemm", "svd:m0", 999.0, 0.125)
        trace = tr.drain()
        assert trace.step_tags() == {"ttm:n3", "svd:m0"}
        ttm = trace.find("ttm:n3")[0]
        assert ttm.kind == "step"
        assert ttm.attrs["elements"] == 120.0
        assert ttm.attrs["group_size"] == 4
        assert ttm.seconds == pytest.approx(0.25)
        svd = trace.find("svd:m0")[0]
        assert svd.attrs["flops"] == 999.0

    def test_mark_drain_scoping(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        mark = tr.mark()
        with tr.span("b"):
            pass
        second = tr.drain(mark)
        assert [s.name for s in second.spans] == ["b"]
        first = tr.drain()
        assert [s.name for s in first.spans] == ["a"]
        assert len(tr.drain()) == 0

    def test_concurrent_add_span_threadsafe(self):
        import threading

        tr = Tracer()
        n = 200

        def add(base):
            for i in range(n):
                tr.add_span(f"t{base}", 0.0, 1.0, kind="worker")

        threads = [threading.Thread(target=add, args=(k,)) for k in range(4)]
        with tr.span("host"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        trace = tr.drain()
        assert len(trace) == 4 * n + 1
        sids = [s.sid for s in trace.spans]
        assert len(sids) == len(set(sids))


class TestNullTracer:
    def test_all_noops(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("x") is _NULL_SPAN
        with NULL_TRACER.span("x") as s:
            s.set(a=1)
            assert s.seconds == 0.0
        NULL_TRACER.event("e")
        NULL_TRACER.on_record(
            Record(category="comm", op="o", tag="t", elements=1.0)
        )
        assert NULL_TRACER.mark() == 0
        assert len(NULL_TRACER.drain()) == 0

    def test_shared_singleton_span(self):
        # The no-op context manager is a shared instance: instrumented
        # hot paths allocate nothing when tracing is off.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


# --------------------------------------------------------------------- #
# Trace structure
# --------------------------------------------------------------------- #


class TestTrace:
    def _spans(self):
        return (
            Span(sid=1, name="root", kind="phase", start=0.0, end=10.0),
            Span(sid=2, name="kid", kind="step", start=1.0, end=2.0, parent=1),
            Span(sid=3, name="kid", kind="step", start=3.0, end=4.0, parent=1),
        )

    def test_roots_children_find_by_kind(self):
        trace = Trace(spans=self._spans())
        assert [s.sid for s in trace.roots()] == [1]
        assert [s.sid for s in trace.children(trace.spans[0])] == [2, 3]
        assert len(trace.find("kid")) == 2
        assert len(trace.by_kind("step")) == 2
        assert trace.seconds == pytest.approx(10.0)

    def test_validate_rejects_child_outside_parent(self):
        bad = Trace(
            spans=(
                Span(sid=1, name="root", kind="phase", start=0.0, end=1.0),
                Span(sid=2, name="kid", kind="step", start=0.5, end=5.0,
                     parent=1),
            )
        )
        with pytest.raises(AssertionError, match="ends after parent"):
            bad.validate()

    def test_validate_rejects_unknown_kind(self):
        bad = Trace(
            spans=(Span(sid=1, name="x", kind="nope", start=0.0, end=1.0),)
        )
        with pytest.raises(AssertionError, match="unknown kind"):
            bad.validate()

    def test_merge_remaps_sids_and_orphans_parents(self):
        a = Trace(spans=self._spans(), meta={"backend": "a", "only_a": 1})
        b = Trace(spans=self._spans(), meta={"backend": "b"})
        merged = Trace.merge([a, b])
        assert len(merged) == 6
        sids = [s.sid for s in merged.spans]
        assert len(sids) == len(set(sids))
        # Both roots survive as roots; children still bind to their own.
        assert len(merged.roots()) == 2
        for root in merged.roots():
            assert len(merged.children(root)) == 2
        # meta merge is first-wins.
        assert merged.meta["backend"] == "a"
        assert merged.meta["only_a"] == 1
        merged.validate()


# --------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------- #


class TestExport:
    def _trace(self):
        tr = Tracer()
        with tr.span("run", kind="phase", backend="sequential") as root:
            tr.event("select:storage", mode="memory")
            with tr.span("compile"):
                pass
            tr.add_span("ttm:n1", root.start, root.start + 1e-5,
                        kind="step", elements=10.0)
        trace = tr.drain()
        trace.meta.update({"backend": "sequential", "itemsize": 8})
        return trace

    def test_chrome_round_trip(self, tmp_path):
        trace = self._trace()
        path = str(tmp_path / "t.json")
        write_chrome(trace, path)
        loaded = Trace.load(path)
        assert loaded.meta["backend"] == "sequential"
        assert {s.name for s in loaded.spans} == {"run", "compile", "ttm:n1"}
        for orig, back in zip(
            sorted(trace.spans, key=lambda s: s.sid),
            sorted(loaded.spans, key=lambda s: s.sid),
        ):
            assert back.name == orig.name
            assert back.kind == orig.kind
            assert back.parent == orig.parent
            assert back.start == pytest.approx(orig.start, abs=1e-9)
            assert back.seconds == pytest.approx(orig.seconds, abs=1e-9)
        assert loaded.step_tags() == {"ttm:n1"}
        loaded.validate()

    def test_chrome_document_shape(self):
        trace = self._trace()
        doc = to_chrome(trace)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["backend"] == "sequential"
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"run", "compile", "ttm:n1"}
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "select:storage" for e in instants)

    def test_jsonl_round_trip(self, tmp_path):
        trace = self._trace()
        path = str(tmp_path / "t.jsonl")
        write_jsonl(trace, path)
        loaded = Trace.load(path)
        assert loaded.meta == trace.meta
        assert [s.name for s in loaded.spans] == [s.name for s in trace.spans]
        events = loaded.find("run")[0].events
        assert events[0].name == "select:storage"

    def test_save_infers_format_from_extension(self, tmp_path):
        trace = self._trace()
        chrome = tmp_path / "a.json"
        jsonl = tmp_path / "a.jsonl"
        trace.save(str(chrome))
        trace.save(str(jsonl))
        assert "traceEvents" in json.loads(chrome.read_text())
        first = jsonl.read_text().splitlines()[0]
        assert "meta" in json.loads(first)
        # the sniffing loader handles both without being told
        assert load_trace(str(chrome)).step_tags() == {"ttm:n1"}
        assert load_trace(str(jsonl)).step_tags() == {"ttm:n1"}

    def test_chrome_from_bad_document(self):
        with pytest.raises(ValueError):
            from_chrome({"no": "events"})


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2.5)
        assert reg.counter("hits").value == 3.5
        with pytest.raises(ValueError):
            reg.counter("hits").inc(-1)

    def test_gauge_peak(self):
        reg = MetricsRegistry()
        g = reg.gauge("resident")
        g.set(10)
        g.set(4)
        assert g.value == 4 and g.peak == 10
        g.max(7)
        assert g.value == 7 and g.peak == 10

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("step")
        for v in range(1, 101):
            h.observe(float(v))
        pct = h.percentiles((50.0, 99.0))
        assert pct[50.0] == pytest.approx(50.0, abs=1.0)
        assert pct[99.0] == pytest.approx(99.0, abs=1.0)
        s = h.summary()
        assert s["count"] == 100.0
        assert "p50" in s and "p99" in s

    def test_histogram_is_a_bounded_window_with_exact_sums(self):
        extra = 10
        h = MetricsRegistry().histogram("latency")
        # old samples are huge: any that leaked into the window would
        # drag every percentile up.
        for _ in range(extra):
            h.observe(1e6)
        for v in range(HISTOGRAM_WINDOW):
            h.observe(float(v))
        assert h.count == HISTOGRAM_WINDOW + extra
        expected_total = extra * 1e6 + sum(range(HISTOGRAM_WINDOW))
        assert h.total == expected_total  # integers: exact in float64
        s = h.summary()
        assert s["count"] == float(HISTOGRAM_WINDOW + extra)
        assert s["mean"] == expected_total / (HISTOGRAM_WINDOW + extra)
        assert h.percentiles((0.0, 100.0)) == {
            0.0: 0.0, 100.0: float(HISTOGRAM_WINDOW - 1)
        }
        assert len(h._recent) == HISTOGRAM_WINDOW >= 4096

    def test_metrics_never_load_the_bench_package(self):
        """A serving process that runs and snapshots must not pay for
        (or depend on) ``repro.bench``: percentiles live in ``obs``."""
        code = (
            "import sys, numpy as np\n"
            "import repro, repro.serve\n"
            "s = repro.TuckerSession('sequential')\n"
            "s.run(np.ones((6, 5, 4)), (2, 2, 2), max_iters=1)\n"
            "snap = s.metrics.snapshot()\n"
            "assert snap['histograms']['run_seconds']['count'] == 1.0\n"
            "print([m for m in sys.modules if m.startswith('repro.bench')])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.25)
        snap = reg.snapshot()
        json.dumps(snap)
        assert snap["counters"]["c"] == 1.0
        assert snap["gauges"]["g"]["peak"] == 1.5
        assert snap["histograms"]["h"]["count"] == 1.0
        reg.clear()
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


# --------------------------------------------------------------------- #
# summarize: modeled volumes vs plan aggregates
# --------------------------------------------------------------------- #


CONFIGS = [
    ((12, 10, 8), (4, 3, 3), 4, "optimal", "dynamic"),
    ((14, 9, 11), (5, 3, 4), 8, "optimal", "static"),
    ((9, 8, 7, 6), (3, 3, 2, 2), 8, "chain-k", "dynamic"),
]


class TestModeledVolumes:
    def test_canonical_tag_strips_iteration(self):
        assert canonical_tag("hooi:it3:ttm:n7") == "ttm:n7"
        assert canonical_tag("hooi:it12:core:ttm1") == "core:ttm1"
        assert canonical_tag("sthosvd:svd0") == "sthosvd:svd0"
        assert canonical_tag("norm:input") == "norm:input"

    @pytest.mark.parametrize("dims,core,procs,tree,grid", CONFIGS)
    def test_volumes_sum_to_plan_aggregates(self, dims, core, procs, tree,
                                            grid):
        plan = Planner(procs, tree=tree, grid=grid).plan(
            TensorMeta(dims=dims, core=core)
        )
        vols = modeled_step_volumes(plan)
        ttm = sum(v for t, v in vols.items()
                  if t.startswith("ttm:") or t.startswith("regrid:") is False
                  and t.startswith("ttm:"))
        ttm = sum(v for t, v in vols.items() if t.startswith("ttm:"))
        regrid = sum(v for t, v in vols.items() if t.startswith("regrid:"))
        core_ttm = sum(v for t, v in vols.items()
                       if t.startswith("core:ttm"))
        core_regrid = sum(v for t, v in vols.items()
                          if t.startswith("core:regrid"))
        assert ttm == plan.ttm_volume
        assert regrid == plan.regrid_volume
        assert core_ttm == plan.core_ttm_volume
        assert core_regrid == plan.core_regrid_volume

    def test_summarize_rows_cover_model(self):
        from repro.session import TuckerSession
        from repro.tensor.random import low_rank_tensor

        dims, core, procs = (12, 10, 8), (4, 3, 3), 4
        t = low_rank_tensor(dims, core, noise=0.1, seed=3)
        session = TuckerSession(backend="simcluster", n_procs=procs,
                                trace=True)
        res = session.run(t, core, planner="optimal", n_procs=procs,
                          max_iters=2, tol=-np.inf)
        rows = summarize(res.trace)
        by_tag = {r["tag"]: r for r in rows}
        modeled = res.trace.meta["modeled_volumes"]
        # Every modeled HOOI tree/core tag that actually executed has its
        # model charge placed next to its measurement.
        seen_modeled = {tag for tag, row in by_tag.items()
                        if row["modeled_elements"] is not None}
        assert seen_modeled
        assert seen_modeled <= set(modeled)
        # simcluster records exact engine volumes, (q-1)|Out|/q per
        # reduce-scatter — always positive and never above the paper's
        # (q_n-1)|Out| charge shown beside it.
        for tag, row in by_tag.items():
            if tag.startswith("ttm:") and row["modeled_elements"]:
                per_occurrence = row["elements"] / row["count"]
                assert 0 < per_occurrence <= row["modeled_elements"], tag
        text = format_summary(rows)
        assert "step tag" in text and "model elems" in text

    def test_format_summary_marks_unmodeled(self):
        rows = [{
            "tag": "norm:input", "count": 2, "modeled_elements": None,
            "seconds": 0.5, "elements": 10.0, "bytes": 80.0, "flops": 0.0,
        }]
        text = format_summary(rows)
        assert "-" in text


# --------------------------------------------------------------------- #
# session integration
# --------------------------------------------------------------------- #


class TestSessionTracing:
    def _run(self, **kw):
        from repro.session import TuckerSession
        from repro.tensor.random import low_rank_tensor

        t = low_rank_tensor((12, 10, 8), (4, 3, 3), noise=0.1, seed=5)
        session = TuckerSession(backend="sequential", trace=True)
        return session, session.run(t, (4, 3, 3), n_procs=4, max_iters=2,
                                    **kw)

    def test_trace_meta_and_metrics(self):
        session, res = self._run()
        meta = res.trace.meta
        assert meta["backend"] == "sequential"
        assert meta["itemsize"] == 8
        snap = meta["metrics"]
        assert snap["counters"]["runs"] == 1.0
        assert snap["counters"]["plan_cache_misses"] == 1.0
        assert snap["histograms"]["run_seconds"]["count"] == 1.0
        assert any(k.startswith("step_seconds:") for k in snap["histograms"])

    def test_spill_run_emits_io_spans(self, tmp_path):
        from repro.session import TuckerSession
        from repro.tensor.random import low_rank_tensor

        t = low_rank_tensor((16, 12, 10), (4, 3, 3), noise=0.1, seed=5)
        session = TuckerSession(backend="sequential", trace=True)
        res = session.run(t, (4, 3, 3), max_iters=1, storage="mmap",
                          spill_dir=str(tmp_path))
        io = res.trace.by_kind("io")
        assert io, "spilled run produced no io spans"
        assert {s.name for s in io} <= {"spill:read", "spill:write"}
        writes = res.trace.meta["metrics"]["counters"]["spill_write_bytes"]
        assert writes > 0
        assert res.trace.meta["resident_peak"] > 0

    def test_user_supplied_tracer_is_used(self):
        from repro.session import TuckerSession
        from repro.tensor.random import low_rank_tensor

        tr = Tracer()
        t = low_rank_tensor((10, 8, 6), (3, 3, 2), noise=0.1, seed=5)
        session = TuckerSession(backend="sequential", trace=tr)
        res = session.run(t, (3, 3, 2), max_iters=1)
        assert session.tracer is tr
        assert res.trace is not None
        assert res.trace.find("run")

    def test_batch_trace_merges_items(self):
        from repro.session import TuckerSession
        from repro.tensor.random import low_rank_tensor

        xs = [
            low_rank_tensor((10, 8, 6), (3, 3, 2), noise=0.1, seed=k)
            for k in range(3)
        ]
        session = TuckerSession(backend="sequential", trace=True)
        batch = session.run_many(xs, core_dims=(3, 3, 2), max_iters=1)
        trace = batch.trace
        assert trace is not None
        roots = {s.name for s in trace.roots()}
        assert roots == {"batch", "run"}
        assert len(trace.find("run")) == 3
        assert trace.meta["method"] == "batch"
        assert trace.meta["items"] == 3
        assert batch.seconds >= max(i.seconds for i in batch.items)
        trace.validate()

    def test_batch_skip_keeps_failed_item_spans(self):
        from repro.session import TuckerSession
        from repro.tensor.random import low_rank_tensor

        good = low_rank_tensor((10, 8, 6), (3, 3, 2), noise=0.1, seed=1)
        session = TuckerSession(backend="sequential", trace=True)
        batch = session.run_many(
            [good, "/nonexistent/path.npy", good * 2.0],
            core_dims=(3, 3, 2), max_iters=1, on_error="skip",
        )
        assert len(batch.items) == 2
        assert len(batch.failures) == 1
        assert batch.trace is not None
        assert len(batch.trace.find("run")) == 2

    def test_tracing_off_buffer_stays_empty(self):
        from repro.session import TuckerSession
        from repro.tensor.random import low_rank_tensor

        t = low_rank_tensor((10, 8, 6), (3, 3, 2), noise=0.1, seed=5)
        session = TuckerSession(backend="sequential")
        for _ in range(3):
            res = session.run(t, (3, 3, 2), max_iters=1)
            assert res.trace is None
        assert session.tracer.mark() == 0
        assert session.metrics.counter("runs").value == 3.0
