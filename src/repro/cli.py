"""Command-line interface: plan, decompose, inspect and model from the shell.

Subcommands
-----------
``plan``       plan one metadata instance and print (or save) the plan
``decompose``  actually decompose a tensor via the session API
``calibrate``  measure per-backend throughput; persist an auto-selection profile
``psi``        print the Table-1 grid counts for given P and N range
``batch``      decompose a stream of ``.npy`` tensors through one warm session
``serve``      serve decompositions over newline-delimited JSON
``trace``      inspect a saved run trace (``trace summarize out.json``)
``model``      model one HOOI invocation for every algorithm configuration
``suite``      print benchmark-suite statistics
``lint``       run the repo's static analyzer

Examples::

    python -m repro plan --dims 400,100,100,50,20 --core 80,80,10,40,10 -p 32
    python -m repro decompose --random 24,20,16 --core 6,5,4 --backend auto
    python -m repro decompose --input t.npy --core 8,6,5 --json
    python -m repro decompose --input huge.npy --core 8,6,5 --storage mmap
    python -m repro decompose --random 24,20,16 --core 6,5,4 --trace out.json
    python -m repro trace summarize out.json
    python -m repro batch --glob 'data/*.npy' --core 8,6,5 --memory-budget 2G
    python -m repro calibrate --out profile.json
    python -m repro psi -p 32 --n-min 5 --n-max 10
    python -m repro model --tensor SP -p 32
    python -m repro suite --ndim 5
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections.abc import Sequence

from repro.backends import AUTO_BACKEND, BACKEND_NAMES, STORAGE_MODES
from repro.backends import select as backend_select
from repro.storage import parse_bytes
from repro.bench.algorithms import ALGORITHMS, make_planner, paper_label
from repro.bench.suite import REAL_TENSORS, benchmark_metas, real_tensor_meta
from repro.core.grids import psi
from repro.core.memory import plan_peak_bytes_per_rank
from repro.core.meta import TensorMeta
from repro.core.planner import Planner
from repro.hooi.model import predict
from repro.mpi.machine import MachineModel
from repro.session import TuckerSession
from repro.util.table import ascii_table


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _parse_bytes_arg(text: str) -> int:
    try:
        return parse_bytes(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_storage_args(p) -> None:
    p.add_argument(
        "--storage", default="auto", choices=STORAGE_MODES,
        help="where the working set lives: 'memory' (fully resident), "
        "'mmap' (spill to memory-mapped block files), or 'auto' "
        "(spill only when --memory-budget is exceeded; default)",
    )
    p.add_argument(
        "--memory-budget", type=_parse_bytes_arg, default=None,
        metavar="BYTES",
        help="resident-byte budget (suffixes ok: 512K, 2M, 1G); with "
        "--storage auto, inputs over the budget spill "
        "(default: $REPRO_MEMORY_BUDGET)",
    )
    p.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help="root directory for spill files "
        "(default: $REPRO_SPILL_DIR, else the system tempdir)",
    )
    p.add_argument(
        "--spill-codec", default="auto", metavar="CODEC",
        help="spill block encoding: 'auto' (raw unless a calibrated "
        "profile says compression pays; default), 'raw', 'zlib' / "
        "'zlib:LEVEL' (lossless), or 'narrow' (lossy float64->float32 "
        "with the realized error bound reported per run)",
    )


def _add_run_args(
    p,
    *,
    backend_default: str,
    backend_help: str,
    procs_default: int | None,
    procs_help: str | None = None,
    calibration_help: str | None = None,
) -> None:
    """The backend / processor / planner flags ``decompose``, ``batch``
    and ``serve`` share.

    ``calibration_help`` doubles as the switch for the per-run flags
    (``--calibration``, ``--dtype``, ``--max-iters``, ``--tol``,
    ``--skip-hooi``): ``serve`` passes none, because there each request
    carries its own.
    """
    p.add_argument(
        "--backend",
        default=backend_default,
        choices=BACKEND_NAMES + (AUTO_BACKEND,),
        help=backend_help,
    )
    p.add_argument(
        "-p", "--procs", type=int, default=procs_default, help=procs_help
    )
    p.add_argument(
        "--planner", default="portfolio",
        help="'portfolio' or a tree kind (optimal, chain-k, ...)",
    )
    if calibration_help is None:
        return
    p.add_argument("--calibration", help=calibration_help)
    p.add_argument(
        "--dtype", default=None, choices=["float32", "float64"],
        help="working precision (default: keep float32/float64 inputs)",
    )
    p.add_argument("--max-iters", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--skip-hooi", action="store_true")


def _session_from_args(args) -> TuckerSession:
    """The session ``decompose`` / ``batch`` run on; bad flags exit cleanly."""
    if args.calibration is not None and args.backend != AUTO_BACKEND:
        raise SystemExit("--calibration requires --backend auto")
    try:
        return TuckerSession(
            backend=args.backend, n_procs=args.procs,
            calibration=args.calibration, spill_codec=args.spill_codec,
            trace=bool(args.trace),
        )
    except ValueError as exc:  # bad profile path, bad codec, bad backend ...
        raise SystemExit(str(exc)) from None


def _meta_from_args(args) -> TensorMeta:
    if getattr(args, "tensor", None):
        return real_tensor_meta(args.tensor)
    if not args.dims or not args.core:
        raise SystemExit("provide --tensor NAME or both --dims and --core")
    return TensorMeta(dims=args.dims, core=args.core)


def cmd_plan(args) -> int:
    meta = _meta_from_args(args)
    planner = Planner(args.procs, tree=args.tree, grid=args.grid)
    plan = planner.plan(meta)
    print(f"metadata: {meta}")
    print(f"tree: {args.tree} ({plan.tree.n_ttm_ops} TTMs), grid: {args.grid}")
    print(f"flops (TTM component):  {plan.flops:,}")
    print(f"TTM volume:             {plan.ttm_volume:,} elements")
    print(f"regrid volume:          {plan.regrid_volume:,} elements")
    print(f"initial grid:           {plan.initial_grid}")
    mem = plan_peak_bytes_per_rank(plan)
    print(f"peak memory per rank:   {mem['total'] / 2**30:.2f} GiB")
    if args.show_tree:
        print(plan.tree.pretty(meta))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(plan.to_json())
        print(f"plan written to {args.out}")
    return 0


def cmd_decompose(args) -> int:
    import numpy as np

    from repro.tensor.random import random_tensor

    if args.random is not None:
        tensor = random_tensor(args.random, seed=args.seed)
    elif args.input:
        # Lazy mapping: the file is never fully resident before its
        # blocks are cut — spilled runs read it in place.
        tensor = np.load(args.input, mmap_mode="r")
        if not isinstance(tensor, np.ndarray):
            raise SystemExit(
                f"{args.input} does not contain a single ndarray"
            )
    else:
        raise SystemExit("provide --input FILE.npy or --random DIMS")
    if not args.core:
        raise SystemExit("provide --core K1,K2,...")

    # ``with``: a pool backend's workers and shm are torn down here, not
    # left to interpreter exit.
    with _session_from_args(args) as session:
        result = session.run(
            tensor,
            args.core,
            planner=args.planner,
            n_procs=args.procs,
            dtype=args.dtype,
            max_iters=args.max_iters,
            tol=args.tol,
            skip_hooi=args.skip_hooi,
            method=args.method,
            oversample=args.oversample,
            power_iters=args.power_iters,
            seed=args.seed,
            storage=args.storage,
            memory_budget=args.memory_budget,
            spill_dir=args.spill_dir,
        )
    stats = result.stats  # scoped to this run, even on a reused backend
    plan = result.plan
    if args.trace:
        result.trace.save(args.trace)
    payload = {
        "dims": list(tensor.shape),
        "core": list(result.decomposition.core_dims),
        "backend": result.backend,
        "dtype": result.decomposition.core.dtype.name,
        "planner": str(args.planner),
        "tree_kind": plan.tree_kind,
        "grid_kind": plan.grid_kind,
        "n_procs": plan.n_procs,
        "method": result.method,
        "sthosvd_error": result.sthosvd_error,
        "error": result.error,
        "n_iters": result.n_iters,
        "converged": result.converged,
        "stopped_reason": result.stopped_reason,
        "compression_ratio": result.compression_ratio,
        "from_cache": result.from_cache,
        "auto_selected": result.auto_selected,
        "selection_reason": result.selection_reason,
        "storage": result.storage,
        "storage_reason": result.storage_reason,
        "spill_codec": result.spill_codec,
        "spill_bytes_written": result.spill_bytes_written,
        "spill_bytes_logical": result.spill_bytes_logical,
        "spill_error_bound": result.spill_error_bound,
        "seconds": result.seconds,
        "ledger": stats,
    }
    if args.trace:
        payload["trace"] = args.trace
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"tensor:             {'x'.join(map(str, tensor.shape))} "
          f"-> {'x'.join(map(str, result.decomposition.core_dims))}")
    print(f"backend:            {result.backend} ({payload['dtype']})"
          + (" [auto]" if result.auto_selected else ""))
    if result.auto_selected and result.selection_reason:
        print(f"selected because:   {result.selection_reason}")
    if result.storage != "memory":
        print(f"storage:            {result.storage} "
              f"({result.storage_reason})")
        if result.spill_bytes_logical:
            ratio = result.spill_bytes_written / result.spill_bytes_logical
            bound = (
                f", error bound {result.spill_error_bound:.3e}"
                if result.spill_error_bound
                else ""
            )
            print(f"spill codec:        {result.spill_codec} "
                  f"({result.spill_bytes_written:,} of "
                  f"{result.spill_bytes_logical:,} logical bytes, "
                  f"ratio {ratio:.2f}{bound})")
    print(f"plan:               tree={plan.tree_kind}, grid={plan.grid_kind}, "
          f"P={plan.n_procs} (cache {'hit' if result.from_cache else 'miss'})")
    init_name = "sthosvd" if result.method == "exact" else result.method
    print(f"{init_name} error:".ljust(20) + f"{result.sthosvd_error:.6e}")
    stop = f", {result.stopped_reason}" if result.stopped_reason else ""
    print(f"final error:        {result.error:.6e} "
          f"({result.n_iters} HOOI iters{stop})")
    print(f"compression ratio:  {result.compression_ratio:.2f}x")
    print(f"ledger volume:      {stats['comm_volume']:,.0f} elements")
    print(f"ledger flops:       {stats['flops']:,.0f} multiply-adds")
    print(f"wall time:          {result.seconds:.3f}s")
    if args.trace:
        print(f"trace written to    {args.trace} "
              f"(chrome://tracing / ui.perfetto.dev, or "
              f"'repro trace summarize {args.trace}')")
    return 0


def _batch_paths(args) -> list[str]:
    """Resolve the batch input list from ``--glob`` and/or ``--manifest``.

    Manifest lines are one ``.npy`` path each (blank lines and ``#``
    comments skipped); relative paths resolve against the manifest's own
    directory, so a manifest travels with its data.
    """
    import glob as glob_mod
    import os

    paths: list[str] = []
    if args.glob:
        matched = sorted(glob_mod.glob(args.glob))
        if not matched:
            raise SystemExit(f"--glob {args.glob!r} matched no files")
        paths.extend(matched)
    if args.manifest:
        try:
            with open(args.manifest, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise SystemExit(f"cannot read manifest: {exc}") from None
        base = os.path.dirname(os.path.abspath(args.manifest))
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            paths.append(
                line if os.path.isabs(line) else os.path.join(base, line)
            )
    if not paths:
        raise SystemExit("provide --glob PATTERN and/or --manifest FILE")
    return paths


def cmd_batch(args) -> int:
    paths = _batch_paths(args)
    if not args.core:
        raise SystemExit("provide --core K1,K2,...")
    session = _session_from_args(args)
    try:
        batch = session.run_many(
            paths,
            args.core,
            planner=args.planner,
            n_procs=args.procs,
            dtype=args.dtype,
            max_iters=args.max_iters,
            tol=args.tol,
            skip_hooi=args.skip_hooi,
            max_in_flight=args.max_in_flight,
            on_error=args.on_error,
            storage=args.storage,
            memory_budget=args.memory_budget,
            spill_dir=args.spill_dir,
        )
    except (ValueError, OSError) as exc:  # bad item with --on-error raise
        raise SystemExit(str(exc)) from None
    finally:
        session.close()
    if args.trace:
        batch.trace.save(args.trace)
    aggregate = batch.stats()
    if args.json:
        payload = {
            "backend": args.backend,
            "core": list(args.core),
            "planner": str(args.planner),
            "max_in_flight": args.max_in_flight,
            **aggregate,
            "items": [
                {
                    "index": item.index,
                    "source": item.source,
                    "dims": list(item.result.plan.meta.dims),
                    "backend": item.backend,
                    "sthosvd_error": item.result.sthosvd_error,
                    "error": item.error,
                    "n_iters": item.result.n_iters,
                    "from_cache": item.from_cache,
                    "auto_selected": item.result.auto_selected,
                    "storage": item.result.storage,
                    "spill_codec": item.result.spill_codec,
                    "spill_bytes_written": item.result.spill_bytes_written,
                    "spill_bytes_logical": item.result.spill_bytes_logical,
                    "spill_error_bound": item.result.spill_error_bound,
                    "seconds": item.seconds,
                    "ledger": item.result.stats,
                }
                for item in batch.items
            ],
            "failures": [
                {
                    "index": failure.index,
                    "source": failure.source,
                    "error": failure.error,
                    "kind": failure.kind,
                }
                for failure in batch.failures
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if batch.failures else 0
    rows = [
        [
            str(item.index),
            item.source if len(item.source) <= 40 else "..." + item.source[-37:],
            "x".join(map(str, item.result.plan.meta.dims)),
            item.backend,
            f"{item.error:.3e}",
            str(item.result.n_iters),
            "hit" if item.from_cache else "miss",
            f"{item.seconds:.3f}s",
        ]
        for item in batch.items
    ]
    print(ascii_table(
        ["#", "source", "dims", "backend", "error", "iters", "plan", "time"],
        rows,
    ))
    for failure in batch.failures:
        print(f"FAILED #{failure.index} {failure.source}: {failure.error}")
    print(f"{batch.n_items} item(s) in {batch.seconds:.3f}s "
          f"({batch.items_per_second:.2f} items/s), "
          f"{len(batch.failures)} failure(s)")
    print(f"plans compiled:     {batch.plans_compiled} "
          f"({batch.cache_hits} cache hit(s))")
    print(f"ledger volume:      {aggregate['comm_volume']:,.0f} elements")
    print(f"ledger flops:       {aggregate['flops']:,.0f} multiply-adds")
    if args.trace:
        print(f"trace written to    {args.trace}")
    return 1 if batch.failures else 0


def cmd_serve(args) -> int:
    from repro.serve import TuckerServer, serve_socket, serve_stdio

    try:
        server = TuckerServer(
            workers=args.workers,
            backend=args.backend,
            n_procs=args.procs,
            planner=args.planner,
            memory_budget=args.memory_budget,
            max_queue=args.max_queue,
            storage=args.storage,
            spill_dir=args.spill_dir,
            spill_codec=args.spill_codec,
            prefetch=not args.no_prefetch,
            deadline=args.deadline,
            trace=bool(args.trace),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        if args.socket:
            stats = serve_socket(server, args.socket)
        else:
            stats = serve_stdio(server)
    except KeyboardInterrupt:
        server.drain()
        stats = server.stats_snapshot()
    if args.trace:
        trace = server.merged_trace()
        if trace is not None:
            trace.save(args.trace)
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
            fh.write("\n")
    failed = float(stats.get("failed", 0)) if stats else 0.0
    return 1 if failed else 0


def cmd_calibrate(args) -> int:
    try:
        profile = backend_select.calibrate(
            dims=args.dims or (48, 40, 32),
            core=args.core or (8, 8, 8),
            repeats=args.repeats,
            n_procs=args.procs,
            seed=args.seed,
            storage_probe=not args.no_storage_probe,
        )
        path = backend_select.save_profile(profile, args.out)
    except (ValueError, OSError) as exc:  # bad probe args, unwritable --out
        raise SystemExit(str(exc)) from None
    if args.json:
        print(json.dumps({"path": path, "profile": profile}, indent=2,
                         sort_keys=True))
        return 0
    measured = set(profile.get("measured", ()))
    rows = [
        [
            name,
            f"{params['rate'] / 1e9:.2f}G",
            f"{params['startup'] * 1e3:.1f}ms",
            f"{params['per_task'] * 1e6:.0f}us",
            f"{params['efficiency']:.2f}",
            "measured" if name in measured else "default",
        ]
        for name, params in sorted(profile["backends"].items())
    ]
    print(ascii_table(
        ["backend", "rate (madds/s)", "startup", "per task", "efficiency",
         "source"],
        rows,
    ))
    if not args.no_storage_probe:
        storage = profile.get("storage", {})

        def _rate(key):
            value = storage.get(key)
            return "-" if value is None else f"{value / 1e6:.0f}M/s"

        storage_rows = [
            ["raw", _rate("spill_write_bytes_per_s"),
             _rate("spill_read_bytes_per_s"), "1.00"],
            ["zlib", _rate("zlib_encode_bytes_per_s"),
             _rate("zlib_decode_bytes_per_s"),
             f"{storage.get('zlib_ratio', 1.0):.2f}"],
            ["narrow", _rate("narrow_encode_bytes_per_s"),
             _rate("narrow_decode_bytes_per_s"), "0.50"],
        ]
        print(ascii_table(
            ["spill codec", "encode/write", "decode/read", "ratio"],
            storage_rows,
        ))
        chunk = storage.get("spill_chunk_bytes")
        if chunk:
            print(f"spill chunk size:   {int(chunk):,} bytes")
    print(f"profile written to {path}")
    print("auto-selection sessions pick it up via "
          "TuckerSession(backend='auto')")
    return 0


def cmd_trace_summarize(args) -> int:
    from repro.obs import format_summary, load_trace, summarize

    try:
        trace = load_trace(args.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load trace {args.path!r}: {exc}") from None
    rows = summarize(trace)
    if args.json:
        print(json.dumps({"meta": {k: v for k, v in trace.meta.items()
                                   if k != "metrics"},
                          "rows": rows}, indent=2, sort_keys=True,
                         default=str))
        return 0
    meta = trace.meta
    title = None
    if meta.get("dims"):
        title = (
            f"{'x'.join(map(str, meta['dims']))} -> "
            f"{'x'.join(map(str, meta.get('core', ())))} "
            f"on {meta.get('backend', '?')}"
        )
    print(format_summary(rows, title=title))
    return 0


def cmd_psi(args) -> int:
    ns = list(range(args.n_min, args.n_max + 1))
    rows = [[f"P={args.procs}"] + [psi(args.procs, n) for n in ns]]
    print(ascii_table(["P \\ N"] + [str(n) for n in ns], rows))
    return 0


#: planning goes through the session layer so repeated CLI invocations in
#: one process (and the model loop below) share the compiled-plan cache.
_planning_session = TuckerSession(backend="sequential", cache_size=64)


def cmd_model(args) -> int:
    meta = _meta_from_args(args)
    machine = MachineModel.bgq_like()
    rows = []
    for name in ALGORITHMS:
        plan = _planning_session.compile(
            meta, planner=make_planner(name, args.procs)
        ).plan
        rep = predict(plan, machine)
        rows.append(
            [
                paper_label(name),
                f"{plan.flops / 1e9:.1f}G",
                f"{plan.total_volume / 1e6:.1f}M",
                f"{rep.ttm_compute_seconds:.3f}",
                f"{rep.ttm_comm_seconds:.3f}",
                f"{rep.svd_seconds:.3f}",
                f"{rep.total_seconds:.3f}",
            ]
        )
    print(f"metadata: {meta}   P = {args.procs}")
    print(
        ascii_table(
            ["alg", "flops", "volume", "comp s", "comm s", "svd s", "total s"],
            rows,
        )
    )
    return 0


def cmd_suite(args) -> int:
    metas = benchmark_metas(args.ndim)
    cards = [m.cardinality for m in metas]
    print(f"{args.ndim}-D canonical suite: {len(metas)} tensors")
    print(f"cardinality range: {min(cards):,} .. {max(cards):,}")
    print(f"real tensors available: {', '.join(REAL_TENSORS)}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import LintConfig, run_lint

    config = None
    if args.config:
        config = LintConfig.load_file(args.config)
    try:
        report = run_lint(
            args.paths,
            config=config,
            rules=args.rule or None,
        )
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format())
        suppressed = len(report.suppressed)
        status = "clean" if report.ok else (
            f"{len(report.findings)} finding"
            f"{'s' if len(report.findings) != 1 else ''}"
        )
        print(
            f"repro lint: {report.files} files, {status}"
            + (f" ({suppressed} suppressed)" if suppressed else "")
        )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Tucker decomposition planner/model "
        "(Chakaravarthy et al., IPDPS 2017 reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log to stderr: -v for INFO, -vv for DEBUG "
        "(the library is silent by default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_meta_args(p):
        p.add_argument("--dims", type=_parse_ints, help="L1,L2,...")
        p.add_argument("--core", type=_parse_ints, help="K1,K2,...")
        p.add_argument(
            "--tensor", help=f"real tensor name ({', '.join(REAL_TENSORS)})"
        )
        p.add_argument("-p", "--procs", type=int, default=32)

    p_plan = sub.add_parser("plan", help="plan one metadata instance")
    add_meta_args(p_plan)
    p_plan.add_argument("--tree", default="optimal")
    p_plan.add_argument("--grid", default="dynamic")
    p_plan.add_argument("--show-tree", action="store_true")
    p_plan.add_argument("--out", help="write the plan JSON here")
    p_plan.set_defaults(func=cmd_plan)

    p_dec = sub.add_parser(
        "decompose", help="decompose a tensor via the session API"
    )
    p_dec.add_argument("--input", help="load the tensor from this .npy file")
    p_dec.add_argument(
        "--random", type=_parse_ints, metavar="DIMS",
        help="generate a random tensor with these dims (L1,L2,...)",
    )
    p_dec.add_argument("--core", type=_parse_ints, help="K1,K2,...")
    _add_run_args(
        p_dec,
        backend_default="sequential",
        backend_help="execution backend, or 'auto' for input-adaptive "
        "selection",
        procs_default=8,
        calibration_help="calibration profile JSON for --backend auto "
        "(default: the persisted machine profile)",
    )
    p_dec.add_argument(
        "--method",
        choices=("exact", "rsthosvd", "sp-rsthosvd"),
        default="exact",
        help="initialization: exact STHOSVD (default), randomized "
             "range-finder STHOSVD, or single-pass sketched STHOSVD",
    )
    p_dec.add_argument(
        "--oversample", type=int, default=5,
        help="extra sketch columns beyond the target rank (randomized "
             "methods)",
    )
    p_dec.add_argument(
        "--power-iters", type=int, default=0,
        help="power iterations sharpening each randomized range finder",
    )
    p_dec.add_argument(
        "--seed", type=int, default=0,
        help="seed for --random inputs and for the randomized methods' "
             "test matrices",
    )
    _add_storage_args(p_dec)
    p_dec.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the run and write it here as a "
        "Chrome trace-event file (.jsonl extension selects JSON-lines); "
        "inspect with 'repro trace summarize PATH' or ui.perfetto.dev",
    )
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_batch = sub.add_parser(
        "batch",
        help="decompose a stream of .npy tensors through one warm session",
    )
    p_batch.add_argument(
        "--glob", help="shell glob of .npy inputs (e.g. 'data/*.npy')"
    )
    p_batch.add_argument(
        "--manifest",
        help="text file listing one .npy path per line (# comments; "
        "relative paths resolve against the manifest's directory)",
    )
    p_batch.add_argument("--core", type=_parse_ints, help="K1,K2,...")
    _add_run_args(
        p_batch,
        backend_default=AUTO_BACKEND,
        backend_help="execution backend; 'auto' (default) re-selects per "
        "item",
        procs_default=None,
        calibration_help="calibration profile JSON for --backend auto",
    )
    p_batch.add_argument(
        "--max-in-flight", type=int, default=8, metavar="N",
        help="tensors loaded ahead of execution; bounds resident memory "
        "and the plan-grouping window (default 8)",
    )
    p_batch.add_argument(
        "--on-error", default="raise", choices=["raise", "skip"],
        help="stop on the first failed item, or record it and keep "
        "streaming (exit code 1 if anything failed)",
    )
    _add_storage_args(p_batch)
    p_batch.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the whole batch and write it here "
        "(Chrome trace-event format; .jsonl selects JSON-lines)",
    )
    p_batch.add_argument("--json", action="store_true")
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="serve decompositions over newline-delimited JSON "
        "(stdio by default, --socket for a local AF_UNIX listener)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker threads, each owning a private session with its "
        "own plan cache and warm pools (default 2)",
    )
    _add_run_args(
        p_serve,
        backend_default=AUTO_BACKEND,
        backend_help="execution backend per worker session (default auto)",
        procs_default=None,
        procs_help="processor count per worker session (total parallelism "
        "is workers x procs; default: natural)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="bound on queued+running requests before submissions are "
        "shed with an admission error (default 64)",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline; requests still waiting when "
        "it elapses fail instead of running (requests may override)",
    )
    p_serve.add_argument(
        "--no-prefetch", action="store_true",
        help="disable background page-warming of the next request's "
        ".npy input",
    )
    p_serve.add_argument(
        "--socket", metavar="PATH", default=None,
        help="listen on a local AF_UNIX socket instead of stdio",
    )
    _add_storage_args(p_serve)
    p_serve.add_argument(
        "--trace", metavar="PATH", default=None,
        help="trace every worker session and write the merged span "
        "trace here on drain",
    )
    p_serve.add_argument(
        "--stats-out", metavar="PATH", default=None,
        help="write the final stats snapshot JSON here on drain",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_cal = sub.add_parser(
        "calibrate",
        help="measure per-backend throughput; persist an auto profile",
    )
    p_cal.add_argument("--dims", type=_parse_ints, help="probe tensor dims")
    p_cal.add_argument("--core", type=_parse_ints, help="probe core dims")
    p_cal.add_argument("--repeats", type=int, default=3)
    p_cal.add_argument(
        "-p", "--procs", type=int, default=None,
        help="worker count for the parallel backends (default: natural)",
    )
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument(
        "--out", help="write the profile here (default: the machine "
        "profile path, $REPRO_CALIBRATION or ~/.cache/repro)",
    )
    p_cal.add_argument(
        "--no-storage-probe", action="store_true",
        help="skip the spill-storage probe (write/read bandwidth, "
        "zlib/narrow encode+decode rates, compression ratio, chunk size)",
    )
    p_cal.add_argument("--json", action="store_true")
    p_cal.set_defaults(func=cmd_calibrate)

    p_trace = sub.add_parser(
        "trace", help="inspect a saved run trace"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summarize",
        help="per-step table: modeled volume vs measured seconds/bytes",
    )
    p_tsum.add_argument("path", help="trace file (Chrome or JSON-lines)")
    p_tsum.add_argument("--json", action="store_true")
    p_tsum.set_defaults(func=cmd_trace_summarize)

    p_psi = sub.add_parser("psi", help="grid counts (Table 1)")
    p_psi.add_argument("-p", "--procs", type=int, default=32)
    p_psi.add_argument("--n-min", type=int, default=5)
    p_psi.add_argument("--n-max", type=int, default=10)
    p_psi.set_defaults(func=cmd_psi)

    p_model = sub.add_parser("model", help="model every algorithm config")
    add_meta_args(p_model)
    p_model.set_defaults(func=cmd_model)

    p_suite = sub.add_parser("suite", help="benchmark-suite statistics")
    p_suite.add_argument("--ndim", type=int, default=5)
    p_suite.set_defaults(func=cmd_suite)

    p_lint = sub.add_parser(
        "lint", help="run the repo's static analyzer (rules R001-R006)"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    p_lint.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of text",
    )
    p_lint.add_argument(
        "--rule", action="append", metavar="ID",
        help="run only this rule id (repeatable)",
    )
    p_lint.add_argument(
        "--config", help="explicit pyproject.toml (default: nearest)"
    )
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        root = logging.getLogger("repro")
        root.addHandler(handler)
        root.setLevel(
            logging.INFO if args.verbose == 1 else logging.DEBUG
        )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
