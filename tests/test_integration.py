"""End-to-end integration tests crossing every module boundary.

These are the repo's "does the whole system behave like the paper's" tests:
plan -> distribute -> HOOI -> error drops; engine statistics match planner
predictions; the public API of ``repro`` stays importable and coherent.
"""

import ast
import importlib
import pathlib
import pkgutil

import numpy as np
import pytest

import repro
from repro import (
    MachineModel,
    Planner,
    SimCluster,
    TensorMeta,
    TuckerSession,
    low_rank_tensor,
    predict,
    separable_field_tensor,
    sthosvd,
)
from repro.bench import ALGORITHMS, make_planner
from repro.hooi.hooi import hooi_reference_step


def hooi_distributed(cluster, t, init, **kw):
    session = TuckerSession(backend="simcluster", cluster=cluster)
    return session.hooi(t, init, **kw)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


SRC = pathlib.Path(repro.__file__).parent

BROAD = {"Exception", "BaseException"}
LOG_METHODS = {
    "debug", "info", "warning", "warn", "error", "exception", "critical",
    "log",
}


def _leaves_a_trail(handler):
    """The handler re-raises, or calls a logger method on a receiver
    whose dotted name contains ``log``."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in LOG_METHODS
            and isinstance(node.func.value, (ast.Name, ast.Attribute))
            and "log" in ast.unparse(node.func.value).lower()
        ):
            return True
    return False


def silent_handlers(source: str) -> list[int]:
    """Line numbers of the handlers in ``source`` that swallow a failure:
    a bare ``except:`` (it also catches KeyboardInterrupt), or a broad
    ``Exception``/``BaseException`` handler with no raise and no log."""
    silent = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = (
            node.type.elts if isinstance(node.type, ast.Tuple)
            else [node.type]
        )
        if node.type is None or (
            any(ast.unparse(e).rsplit(".", 1)[-1] in BROAD for e in caught)
            and not _leaves_a_trail(node)
        ):
            silent.append(node.lineno)
    return silent


def typed_errors() -> list[type]:
    """Every exception class defined in a ``repro`` module."""
    return [
        obj
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
        for obj in vars(importlib.import_module(info.name)).values()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == info.name
    ]


class TestErrorRoot:
    """Every typed error has one root, and no handler swallows a failure
    without a trail."""

    def test_walk_finds_the_typed_errors(self):
        errors = typed_errors()
        assert repro.ReproError in errors and len(errors) > 5

    @pytest.mark.parametrize(
        "cls", typed_errors(),
        ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
    )
    def test_typed_errors_share_one_root(self, cls):
        assert issubclass(cls, repro.ReproError)

    @pytest.mark.parametrize(
        "module, name, stdlib_base",
        [
            ("repro.backends", "BackendUnavailableError", ValueError),
            ("repro.storage", "StorageError", RuntimeError),
            ("repro.storage", "CorruptBlockError", RuntimeError),
            ("repro.serve", "AdmissionError", Exception),
            ("repro.serve", "ServeError", Exception),
            ("repro.serve", "DeadlineExceeded", Exception),
            ("repro.serve", "RequestCancelled", Exception),
        ],
    )
    def test_typed_errors_keep_their_stdlib_base(
        self, module, name, stdlib_base
    ):
        # pre-existing ``except ValueError`` / ``except RuntimeError``
        # sites rely on the base
        cls = getattr(importlib.import_module(module), name)
        assert issubclass(cls, repro.ReproError)
        assert issubclass(cls, stdlib_base)

    @pytest.mark.parametrize(
        "handler, silent",
        [
            ("except Exception:\n    pass", True),
            ("except:\n    raise", True),
            ("except BaseException:\n    cleanup()", True),
            ("except (OSError, Exception):\n    pass", True),
            ("except builtins.Exception:\n    pass", True),
            ("except Exception as exc:\n    print(exc)", True),
            ("except Exception:\n    raise", False),
            ("except Exception as exc:\n    raise Boom() from exc", False),
            ("except Exception:\n    log.warning('x')", False),
            ("except Exception:\n    self._logger.exception('x')", False),
            ("except OSError:\n    pass", False),
        ],
        ids=[
            "broad-pass", "bare-even-reraising", "base-exception",
            "broad-in-tuple", "dotted-broad", "print-is-no-log",
            "reraise", "raise-typed", "logged", "logged-via-attribute",
            "narrow",
        ],
    )
    def test_handler_scan(self, handler, silent):
        source = f"try:\n    work()\n{handler}\n"
        assert silent_handlers(source) == ([3] if silent else [])

    def test_broad_handlers_reraise_or_log(self):
        silent = [
            f"{path.relative_to(SRC)}:{line}"
            for path in sorted(SRC.rglob("*.py"))
            for line in silent_handlers(path.read_text(encoding="utf-8"))
        ]
        assert silent == []

    def test_root_is_a_leaf_module(self):
        import repro.errors

        assert repro.ReproError is repro.errors.ReproError
        # storage, backends and serve all parent their errors here, so
        # it may import none of them (nor anything else).
        with open(repro.errors.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        assert not [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]


class TestFullPipeline:
    def test_compress_smooth_field(self):
        # the paper's motivating use case: compress a smooth simulation field
        t = separable_field_tensor((24, 20, 18), n_bumps=5, noise=1e-4, seed=0)
        meta = TensorMeta(dims=t.shape, core=(6, 6, 6))
        init = sthosvd(t, meta.core)
        cluster = SimCluster(8)
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        res = hooi_distributed(cluster, t, init, plan=plan, max_iters=5)
        assert res.error < 0.01
        assert res.decomposition.compression_ratio > 10

    def test_hooi_improves_on_bad_init(self):
        # random orthonormal init: HOOI must improve it a lot
        from repro.tensor.random import random_orthonormal

        dims, core = (14, 12, 10), (4, 3, 3)
        t = low_rank_tensor(dims, core, noise=0.05, seed=1)
        factors = [
            random_orthonormal(ell, k, seed=i)
            for i, (ell, k) in enumerate(zip(dims, core))
        ]
        from repro.hooi.decomposition import TuckerDecomposition
        from repro.tensor.ttm import ttm_chain

        core0 = ttm_chain(t, factors, [0, 1, 2], transpose=True)
        init = TuckerDecomposition(core=core0, factors=factors)
        cluster = SimCluster(4)
        res = hooi_distributed(cluster, t, init, max_iters=10)
        assert res.error < 0.5 * init.error_vs(t)

    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    def test_every_algorithm_executes_and_agrees(self, alg, hooi_sweep):
        # all five algorithm configs must produce the same new factors
        dims, core = (10, 9, 8, 7), (3, 3, 2, 2)
        t = low_rank_tensor(dims, core, noise=0.1, seed=2)
        meta = TensorMeta(dims=dims, core=core)
        init = sthosvd(t, core)
        ref = hooi_reference_step(t, init.factors, core)
        plan = make_planner(alg, 8).plan(meta)
        dec = hooi_sweep(t, init, plan, SimCluster(8))
        for a, b in zip(dec.factors, ref.factors):
            np.testing.assert_allclose(a, b, atol=1e-7)
        np.testing.assert_allclose(dec.core, ref.core, atol=1e-7)


class TestPlannerEnginePredictions:
    def test_predicted_volume_is_engine_upper_bound(self, hooi_sweep):
        dims, core = (12, 12, 9, 8), (4, 6, 3, 4)
        meta = TensorMeta(dims=dims, core=core)
        t = low_rank_tensor(dims, core, noise=0.2, seed=3)
        init = sthosvd(t, core)
        for alg in sorted(ALGORITHMS):
            plan = make_planner(alg, 8).plan(meta)
            cluster = SimCluster(8)
            hooi_sweep(t, init, plan, cluster)
            rep = predict(plan)
            engine_total = cluster.stats.volume(tag_prefix="hooi:it0:")
            model_total = (
                rep.ttm.volume + rep.regrid.volume + rep.svd.volume + rep.core.volume
            )
            assert engine_total <= model_total
            # and the reduce-scatter part is exact
            assert (
                cluster.stats.volume(
                    op="reduce_scatter", tag_prefix="hooi:it0:ttm"
                )
                == plan.ttm_volume
            )

    def test_iterations_have_identical_metrics(self):
        # "any two HOOI iterations incur the same load and volume" (sec 6.2)
        dims, core = (10, 10, 8), (3, 4, 2)
        meta = TensorMeta(dims=dims, core=core)
        t = low_rank_tensor(dims, core, noise=0.3, seed=4)
        init = sthosvd(t, core)
        plan = Planner(4, tree="optimal", grid="dynamic").plan(meta)
        cluster = SimCluster(4)
        hooi_distributed(cluster, t, init, plan=plan, max_iters=3, tol=0.0)
        vols = [
            cluster.stats.volume(tag_prefix=f"hooi:it{i}") for i in range(3)
        ]
        assert vols[0] == vols[1] == vols[2] > 0


class TestMachineModelEffects:
    def test_alltoall_advantage_prefers_dynamic_in_time(self):
        meta = TensorMeta(
            dims=(50, 20, 100, 20, 50), core=(10, 16, 20, 2, 25)
        )
        static = make_planner("opt-static", 32).plan(meta)
        dynamic = make_planner("opt-dynamic", 32).plan(meta)
        machine = MachineModel.bgq_like()
        t_static = predict(static, machine).tree_comm_seconds
        t_dynamic = predict(dynamic, machine).tree_comm_seconds
        assert t_dynamic <= t_static
