"""Cross-phase reuse: a chain hands its prefix to the next sweep's tree.

The STHOSVD pass, ``rsthosvd`` and every core chain another sweep may
follow keep the outputs the next TTM-tree would otherwise recompute
(:class:`repro.backends.schedule.Handoff`). These tests pin what that
must not change and what it must release:

* factors bit-identical, cores and errors to 1e-12, against a loop of
  cold single sweeps fed the same initial factors — on every local
  backend, resident and spilled, over the shapes that stress the path
  choice (cubic ties, no shared prefix, a dim-1 mode, ``core == dims``);
* the paper's FLOP model stays checkable: executed plus reused
  multiply-adds are exactly what the per-invocation model charges;
* the carry dies with the run — tolerance stop, ``max_iters`` or a
  kernel raising mid-sweep — leaving no spill file, lease or segment;
* :func:`repro.core.memory.traversal_peak_cards` prices the warm sweeps.
"""

import gc
import math
import os
import sys
import weakref

import numpy as np
import pytest

from repro.backends import (
    BackendUnavailableError,
    ProcessPoolBackend,
    SequentialBackend,
    get_backend,
    run_steps,
)
from repro.backends.procpool import segment_prefix
from repro.backends.schedule import (
    compile_core_steps,
    compile_handoff,
    compile_sthosvd_steps,
    compile_tree_steps,
    handoff_core_order,
)
from repro.core.cost import node_costs
from repro.core.memory import carried_nodes, traversal_peak_cards
from repro.core.meta import TensorMeta
from repro.core.planner import Planner
from repro.errors import ReproError
from repro.session import TuckerSession, compile_plan
from repro.storage import resident_gauge
from repro.tensor.random import low_rank_tensor

LOCAL = ("sequential", "threaded", "procpool")
NEVER = {"max_iters": 3, "tol": float("-inf")}

#: name -> (dims, core, tree kind)
SHAPES = {
    "3d-cubic": ((12, 12, 12), (4, 4, 4), "optimal"),
    # benchmarks/perf's dense4d-threaded, dims / 4
    "4d-bench": ((18, 16, 15, 14), (3, 2, 2, 2), "optimal"),
    "5d": ((7, 6, 5, 4, 3), (3, 3, 2, 2, 2), "optimal"),
    # STHOSVD starts with the long mode 2; a balanced tree's root
    # children multiply modes 0 and 1
    "skewed": ((6, 7, 30), (3, 3, 4), "balanced"),
    "dim-1": ((8, 1, 7), (3, 1, 3), "optimal"),
    "full-core": ((6, 5, 4), (6, 5, 4), "optimal"),
}


def make(shape: str):
    """``(tensor, core, compiled plan)`` of one named shape, P = 2."""
    dims, core, kind = SHAPES[shape]
    t = low_rank_tensor(dims, core, noise=0.1, seed=3)
    plan = Planner(2, tree=kind, grid="dynamic").plan(
        TensorMeta(dims=dims, core=core)
    )
    return t, core, compile_plan(plan)


@pytest.fixture(scope="module")
def backends():
    """One instance per local backend for the whole module (one pool)."""
    made = {}
    for name in LOCAL:
        try:
            made[name] = get_backend(name, n_procs=2)
        except BackendUnavailableError:  # no /dev/shm in this sandbox
            continue
    yield made
    for backend in made.values():
        backend.close()


def session_on(backends, name, **storage) -> TuckerSession:
    if name not in backends:
        pytest.skip(f"{name} backend unavailable here")
    return TuckerSession(backend=backends[name], **storage)


def cold_sweeps(session, t, compiled, factors, sweeps):
    """The reference: ``sweeps`` single cold invocations, nothing carried.

    ``hooi(max_iters=1)`` starts from caller factors (no init pass to
    inherit from) and runs a last permitted sweep (nothing to hand on):
    the cold tree program and the plan's own core chain.
    """
    errors = []
    for _ in range(sweeps):
        res = session.hooi(t, factors, plan=compiled, max_iters=1)
        assert res.flops_reused == 0
        factors = res.decomposition.factors
        errors += res.errors
    return res.decomposition, errors


def assert_equivalent(res, ref_dec, ref_errors):
    for got, ref in zip(res.decomposition.factors, ref_dec.factors):
        assert np.array_equal(got, ref)  # same kernel, same operands
    assert np.abs(res.decomposition.core - ref_dec.core).max() <= 1e-12
    assert np.abs(np.subtract(res.errors, ref_errors)).max() <= 1e-12


def tree_ttm_tags(res, sweep: int) -> set[str]:
    prefix = f"hooi:it{sweep}:ttm:"
    return {r.tag for r in res.ledger.records if r.tag.startswith(prefix)}


# --------------------------------------------------------------------- #
# equivalence
# --------------------------------------------------------------------- #


class TestEquivalence:
    @pytest.mark.parametrize("method", ["exact", "rsthosvd"])
    @pytest.mark.parametrize("storage", ["memory", "mmap"])
    @pytest.mark.parametrize("name", LOCAL)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_run_matches_cold_sweeps(
        self, backends, shape, name, storage, method
    ):
        t, core, compiled = make(shape)
        session = session_on(backends, name, storage=storage)
        kw = {"plan": compiled, "method": method}
        init = session.run(t, core, skip_hooi=True, **kw)
        ref_dec, ref_errors = cold_sweeps(
            session, t, compiled, init.decomposition.factors, 3,
        )
        res = session.run(t, core, **NEVER, **kw)
        assert res.storage == storage
        assert_equivalent(res, ref_dec, ref_errors)
        # every sweep after the first inherits from a core chain; the
        # first inherits from the init pass when the orders share a prefix
        handoff, following = compiled.sthosvd_handoff, compiled.core_handoff
        assert res.flops_reused == (
            (handoff.flops_reused if handoff else 0)
            + 2 * following.flops_reused
        )

    @pytest.mark.parametrize("name", LOCAL)
    @pytest.mark.parametrize("shape", ["3d-cubic", "4d-bench", "skewed"])
    def test_cold_starts_still_reuse_from_sweep_1(self, backends, shape, name):
        """``init=`` and ``sp-rsthosvd`` hand sweep 0 nothing."""
        t, core, compiled = make(shape)
        session = session_on(backends, name)
        sketched = session.run(
            t, core, plan=compiled, method="sp-rsthosvd", skip_hooi=True
        )
        factors = sketched.decomposition.factors
        ref_dec, ref_errors = cold_sweeps(session, t, compiled, factors, 3)
        every = {f"hooi:it0:{tag}" for tag in compiled.core_handoff.reused}
        for res in (
            session.hooi(t, factors, plan=compiled, **NEVER),
            session.run(
                t, core, plan=compiled, method="sp-rsthosvd", **NEVER
            ),
        ):
            assert_equivalent(res, ref_dec, ref_errors)
            assert res.flops_reused == 2 * compiled.core_handoff.flops_reused
            assert every <= tree_ttm_tags(res, 0)
            assert not {t.replace("it0", "it1") for t in every} & (
                tree_ttm_tags(res, 1)
            )

    def test_skewed_shape_shares_no_prefix(self):
        _, _, compiled = make("skewed")
        assert compiled.sthosvd_handoff is None
        assert compiled.core_handoff is not None

    def test_last_permitted_sweep_keeps_the_plans_core_order(self, backends):
        t, core, compiled = make("4d-bench")
        session = session_on(backends, "sequential")
        res = session.run(t, core, plan=compiled, **NEVER)

        def core_order(sweep):
            prefix = f"hooi:it{sweep}:core:ttm"
            return tuple(
                int(r.tag[len(prefix):])
                for r in res.ledger.records
                if r.tag.startswith(prefix)
            )

        handed = compiled.core_handoff.order
        assert handed != compiled.plan.core_order  # the shape exercises it
        assert core_order(0) == core_order(1) == handed
        assert core_order(2) == compiled.plan.core_order

    def test_simcluster_runs_the_papers_programs(self):
        t, core, compiled = make("3d-cubic")
        with TuckerSession("simcluster", n_procs=2, trace=True) as session:
            res = session.run(t, core, plan=compiled, **NEVER)
        assert res.flops_reused == 0
        for sweep in range(3):
            (span,) = res.trace.find(f"hooi:it{sweep}")
            assert span.attrs["reused"] == []
            assert len(tree_ttm_tags(res, sweep)) == (
                compiled.plan.tree.n_ttm_ops
            )

    def test_sweep_spans_name_what_they_reused(self):
        t, core, compiled = make("3d-cubic")
        with TuckerSession("sequential", trace=True) as session:
            res = session.run(t, core, plan=compiled, **NEVER)
        for sweep in range(3):
            (span,) = res.trace.find(f"hooi:it{sweep}")
            reused = set(span.attrs["reused"])
            assert reused and not reused & tree_ttm_tags(res, sweep)
            assert len(reused) + len(tree_ttm_tags(res, sweep)) == (
                compiled.plan.tree.n_ttm_ops
            )


# --------------------------------------------------------------------- #
# the paper's FLOP model stays checkable
# --------------------------------------------------------------------- #


def chain_flops(meta: TensorMeta, order) -> int:
    total = mask = 0
    for mode in order:
        total += meta.core[mode] * meta.card_after(mask)
        mask |= 1 << mode
    return total


def executed_ttm_flops(res) -> float:
    return sum(
        r.flops
        for r in res.ledger.records
        if r.op == "gemm" and r.tag.startswith("hooi")
    )


class TestFlopIdentity:
    @pytest.mark.parametrize("name", LOCAL)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_executed_plus_reused_is_the_model(self, backends, shape, name):
        t, core, compiled = make(shape)
        session = session_on(backends, name)
        res = session.run(t, core, plan=compiled, **NEVER)
        meta, plan = compiled.meta, compiled.plan
        modeled = 3 * plan.flops + (
            2 * chain_flops(meta, compiled.core_handoff.order)
            + chain_flops(meta, plan.core_order)
        )
        assert executed_ttm_flops(res) + res.flops_reused == modeled
        assert "flops_reused" not in res.stats  # the ledger summary, as ever

    def test_dense3d_seq_item_issues_five_full_tensor_ttms(self):
        """benchmarks/perf's dense3d-seq item: 28 -> 24 records, 7 -> 5
        full-tensor TTMs (STHOSVD's one, then two root children a sweep)."""
        rng = np.random.default_rng(0)
        t = rng.standard_normal((256, 256, 256), dtype=np.float32)
        with TuckerSession("sequential") as session:
            res = session.run(
                t, (32, 32, 32), max_iters=2, tol=float("-inf")
            )
        records = res.ledger.records
        assert len(records) == 24
        assert sum(r.flops == 32 * 256**3 for r in records) == 5
        assert res.flops_reused == 2 * (32 * 256**3 + 32 * 32 * 256**2)


# --------------------------------------------------------------------- #
# lifetime
# --------------------------------------------------------------------- #

needs_shm = pytest.mark.skipif(
    sys.platform != "linux" or not os.path.isdir("/dev/shm"),
    reason="segment accounting reads /dev/shm",
)


def shm_entries() -> set[str]:
    """This process's segments: other processes may share ``/dev/shm``."""
    return {e for e in os.listdir("/dev/shm") if e.startswith(segment_prefix())}


class Boom(ReproError):
    """The typed error the failing backends raise."""


def failing(base):
    """``base`` whose ``fail_at``-th ``ttm`` call raises :class:`Boom`."""

    class Failing(base):
        fail_at = 0
        calls = 0
        reading = 0  # cardinality of the failed call's source

        def ttm(self, handle, *args, **kwargs):
            self.calls += 1
            if self.calls == self.fail_at:
                self.reading = int(np.prod(self.shape(handle)))
                raise Boom(f"ttm call {self.calls}")
            return super().ttm(handle, *args, **kwargs)

    return Failing


class LiveCards(SequentialBackend):
    """Tracks the summed cardinality of every handle it made that is
    still alive (ndarrays die with their last reference)."""

    def __init__(self) -> None:
        super().__init__()
        self.live = self.peak = 0

    def _drop(self, size: int) -> None:
        self.live -= size

    def ttm(self, *args, **kwargs):
        out = super().ttm(*args, **kwargs)
        self.live += out.size
        weakref.finalize(out, self._drop, out.size)
        self.peak = max(self.peak, self.live)
        return out


class TestLifetime:
    def run_until_it_passes(self, backend, run):
        """Fail the 1st, 2nd, ... ``ttm`` of ``run`` in turn; yields after
        each failure, returns once a run makes fewer calls than that."""
        for nth in range(1, 200):
            backend.calls, backend.fail_at = 0, nth
            try:
                run()
            except Boom:
                pass  # yield outside: a live traceback pins the run's frames
            else:
                assert nth > 10  # the runs below issue more TTMs than that
                return
            gc.collect()
            yield nth
        raise AssertionError("the run never finished")

    def test_sequential_mmap_leaves_no_spill_file_or_lease(self, tmp_path):
        t, core, compiled = make("4d-bench")
        backend = failing(SequentialBackend)()
        session = TuckerSession(
            backend=backend, storage="mmap", memory_budget="64K",
            spill_dir=str(tmp_path),
        )
        gauge = resident_gauge()
        for _ in self.run_until_it_passes(
            backend,
            lambda: session.run(t, core, plan=compiled, **NEVER),
        ):
            assert os.listdir(tmp_path) == []
            assert gauge.current == 0

    @needs_shm
    def test_procpool_leaves_no_segment(self, backends):
        if "procpool" not in backends:
            pytest.skip("procpool backend unavailable here")
        t, core, compiled = make("4d-bench")
        with failing(ProcessPoolBackend)(2) as backend:
            session = TuckerSession(backend=backend)
            before = shm_entries()
            for _ in self.run_until_it_passes(
                backend,
                lambda: session.run(t, core, plan=compiled, **NEVER),
            ):
                assert shm_entries() - before == set()
            gc.collect()
            assert shm_entries() - before == set()

    @pytest.mark.parametrize(
        "stop",
        [
            {"max_iters": 10, "tol": 1e-3},  # stops on tolerance, carry full
            {"max_iters": 2, "tol": float("-inf")},
        ],
    )
    def test_nothing_outlives_the_run(self, stop):
        t, core, compiled = make("3d-cubic")
        backend = LiveCards()
        res = TuckerSession(backend=backend).run(
            t, core, plan=compiled, **stop
        )
        if stop["max_iters"] == 10:
            assert res.stopped_reason == "converged"
            assert res.n_iters < 10
        assert res.flops_reused > 0
        del res
        gc.collect()
        assert backend.live == 0

    def test_a_raising_kernel_releases_every_intermediate(self):
        """Even while the caller still holds the error: its traceback pins
        every frame of the failed run, so what a frame names itself — the
        previous sweep's core, the failed call's source — may be alive,
        and nothing else is: the carry was cleared."""
        t, core, compiled = make("4d-bench")
        backend = failing(LiveCards)()
        session = TuckerSession(backend=backend)
        failures = 0
        for nth in range(1, 200):
            backend.calls, backend.fail_at = 0, nth
            try:
                session.run(t, core, plan=compiled, **NEVER)
            except Boom as exc:
                held = exc
            else:
                break
            failures += 1
            source = backend.reading if backend.reading < t.size else 0
            assert backend.live <= math.prod(core) + source
            del held
            gc.collect()
            assert backend.live == 0
        assert failures > 10


# --------------------------------------------------------------------- #
# compilation and the memory model
# --------------------------------------------------------------------- #


class TestCompile:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_warm_program_skips_the_path_and_frees_what_it_reads(self, shape):
        _, _, compiled = make(shape)
        tree, meta = compiled.plan.tree, compiled.meta
        for handoff in (compiled.sthosvd_handoff, compiled.core_handoff):
            if handoff is None:
                continue
            path = tree.root_path(handoff.order)
            kept = [f"n{n.uid}" for n in carried_nodes(path)]
            assert [s for s in handoff.keep if s] == kept
            assert kept[-1] == f"n{path[-1].uid}"  # the deepest, always
            warm = handoff.tree_steps
            made = {s.dst for s in warm if s.op == "ttm"}
            assert not made & {f"n{n.uid}" for n in path}
            assert len(made) == tree.n_ttm_ops - len(path)
            freed = [s.src for s in warm if s.op == "free"]
            assert sorted(freed) == sorted(made | set(kept))
            # the chain leaves exactly the kept slots behind
            chain = handoff.chain_steps
            outputs = [s.dst for s in chain if s.op == "ttm"]
            freed = {s.src for s in chain if s.op == "free"}
            assert set(outputs) - freed == set(kept) | {outputs[-1]}
            costs = node_costs(tree, meta)
            assert handoff.flops_reused == sum(
                costs[n.uid]["flops"] for n in path
            )

    def test_the_programs_the_harness_reads_did_not_move(self):
        _, _, compiled = make("4d-bench")
        plan, meta = compiled.plan, compiled.meta
        assert compiled.tree_steps == compile_tree_steps(
            plan.tree, meta, scheme=plan.scheme
        )
        assert compiled.core_steps == compile_core_steps(
            plan.core_order, plan.core_scheme
        )
        assert compiled.sthosvd_steps == compile_sthosvd_steps(
            compiled.sthosvd_order, meta
        )

    def test_path_choice_prices_the_last_chain_step(self):
        # K_leaf * |In(leaf)| = L_leaf * prod(K): the shortest mode's leaf
        _, _, compiled = make("4d-bench")
        order = handoff_core_order(compiled.plan.tree, compiled.meta)
        assert order[-1] == 3  # dims (18, 16, 15, 14)
        assert compiled.plan.tree.root_path(order)[-1].children[0].mode == 3

    def test_cubic_ties_go_to_the_smaller_modeled_peak(self):
        _, _, compiled = make("3d-cubic")
        tree, meta = compiled.plan.tree, compiled.meta
        peaks = {}
        for leaf in tree.leaves():
            path = []
            node = tree.parent(leaf)
            while node.kind == "ttm":
                path.append(node.mode)
                node = tree.parent(node)
            order = (*reversed(path), leaf.mode)
            peaks[order] = traversal_peak_cards(tree, meta, order)
        chosen = compiled.core_handoff.order
        assert peaks[chosen] == min(peaks.values())
        assert len(set(peaks.values())) > 1  # the tie-break had work to do

    def test_no_root_child_no_handoff(self):
        _, _, compiled = make("skewed")
        tree, meta = compiled.plan.tree, compiled.meta
        assert tree.root_path(compiled.sthosvd_order) == ()
        assert compile_handoff(
            tree, meta, compiled.sthosvd_order, compile_core_steps
        ) is None


class TestMemoryModel:
    """The model's peak is the measured peak of live cardinalities."""

    def measure(self, compiled, t, handoff, chain_steps, factors):
        backend = LiveCards()
        carry = {}
        new = dict(enumerate(factors))
        core, _, _ = run_steps(
            backend, t, chain_steps, new, tag="chain", carry=carry
        )
        del core
        assert sorted(carry) == sorted(s for s in handoff.keep if s)
        run_steps(
            backend, t, handoff.tree_steps, [new[m] for m in range(t.ndim)],
            {}, tag="tree", carry=carry,
        )
        assert carry == {} and backend.live == 0
        return t.size + backend.peak

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_cold_program(self, shape):
        t, core, compiled = make(shape)
        backend = LiveCards()
        factors = [np.eye(d, k) for d, k in zip(t.shape, core)]
        run_steps(backend, t, compiled.tree_steps, factors, {}, tag="tree")
        assert t.size + backend.peak == traversal_peak_cards(
            compiled.plan.tree, compiled.meta
        )

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_both_warm_programs(self, shape):
        t, core, compiled = make(shape)
        tree, meta = compiled.plan.tree, compiled.meta
        factors = [np.eye(d, k) for d, k in zip(t.shape, core)]
        after_core = compiled.core_handoff
        assert self.measure(
            compiled, t, after_core, after_core.chain_steps, factors
        ) == traversal_peak_cards(tree, meta, after_core.order)
        after_init = compiled.sthosvd_handoff
        if after_init is not None:
            assert self.measure(
                compiled, t, after_init, after_init.chain_steps, factors
            ) == traversal_peak_cards(tree, meta, after_init.order)
