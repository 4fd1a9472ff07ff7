"""Run one benchmark workload (or all four) and print every metric.

    python3 benchmarks/perf/run.py --workload dense3d-seq --seed 1 \
        --seconds 20 --trace 0

One process per workload, BLAS pinned to one thread before numpy loads.
`--trace 0` measures the end-to-end metrics with nothing wrapped, times
scaled by the yardstick measured next to them (layers.Yardstick);
`--trace 1` is a separate run that wraps the layers and probes them
directly (see layers.py). The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the lines
before it name every metric with its unit and sample count. Without
`--workload` every workload runs, one after the other.

The process started here only supervises: each workload runs in a child of
its own, and the supervisor returns once every process that child started
has ended (see `supervise`).
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from statistics import median
from time import monotonic, perf_counter, sleep

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# A traced run splits --seconds: this share with nothing wrapped (the base
# of obs.harness_overhead_frac), this share wrapped, in alternating slices;
# the other workloads' layers and the probes take the rest.
PLAIN_SHARE, WRAPPED_SHARE, TRACE_ROUNDS = 0.15, 0.30, 3
SMOKE_METAS, PAPER_METAS = 4, 40
# The timed phase runs in slices, the yardstick after each (layers.Yardstick).
SLICE_SECONDS = 2.0
SMOKE_YARD, FULL_YARD = 40, 160
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>
# How long the supervisor waits for what a finished workload left running
# before it kills it.
ORPHAN_GRACE_SECONDS = 10.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, yardstick and phases, for the "
                             "test; the values mean nothing")
    parser.add_argument("--out", help="append the full record to this file")
    parser.add_argument("--spans", help="write the traced spans to this file")
    parser.add_argument("--supervised", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"no program to measure: {SRC}/repro is missing")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(spec["run_seconds"])
    if not args.supervised:
        names = [args.workload] if args.workload else [
            workload["name"] for workload in spec["workloads"]
        ]
        return supervise(names, args)

    # Before numpy loads: one BLAS thread per worker, so a run never has
    # more runnable threads than the workload asks for.
    os.environ.update({name: "1" for name in PINNED})
    sys.path[:0] = [HERE, SRC]
    # The build: byte-compile the program once, outside every clock.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=2)
    from workloads import BY_NAME

    if args.workload not in BY_NAME:
        sys.exit(f"unknown workload {args.workload!r}; have {sorted(BY_NAME)}")
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(
        prefix=args.workload + "-", dir=os.path.join(HERE, ".work")
    )
    try:
        if args.trace:
            record = run_trace(BY_NAME[args.workload], args, workdir)
        else:
            record = run_end_to_end(BY_NAME[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(record, args, spec)


def supervise(names, args) -> int:
    """Run each workload in a child process; leave no process behind.

    A workload may start processes that end only after it has: the process
    pool's `multiprocessing` resource tracker runs until its parent is
    gone. This process makes itself the reaper of all its descendants, so
    such an orphan lands here, and is waited for (`reap`) on every way out.
    """
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    # SIGTERM as an exception: `subprocess.run` then kills the child, and
    # the `finally` below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    status = 0
    try:
        for name in names:
            command = [
                sys.executable, os.path.abspath(__file__), "--supervised",
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            command += ["--smoke"] if args.smoke else []
            command += ["--out", args.out] if args.out else []
            command += ["--spans", args.spans] if args.spans else []
            status |= subprocess.run(command, check=False).returncode
    finally:
        reap(ORPHAN_GRACE_SECONDS)
    return int(status != 0)


def reap(grace: float) -> None:
    """Wait until every descendant has ended; kill what outlives `grace`."""
    deadline = monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # none left
            return
        if pid:
            continue
        if monotonic() > deadline:
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        sleep(0.01)


def children() -> list[int]:
    """The pids whose parent is this process, from `/proc`."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                parent = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if parent == os.getpid():
            found.append(int(entry))
    return found


# --------------------------------------------------------------------- #
# the two kinds of run
# --------------------------------------------------------------------- #


@contextmanager
def running(workload, workdir, cases):
    """The workload's session or server, warmed up; stopped on exit."""
    state = workload.start(workdir)
    try:
        workload.warm(state, cases)
        yield state
    finally:
        workload.stop(state)


def run_end_to_end(workload, args, workdir) -> dict:
    import numpy as np

    import layers
    from workloads import Checker

    if args.smoke:
        workload = workload.tiny()
    rng = np.random.default_rng(args.seed)
    cases = workload.make_inputs(rng, workdir)
    yardstick = layers.Yardstick(rng, SMOKE_YARD if args.smoke else FULL_YARD)
    shm_before = layers.shm_entries()
    speed = yardstick.factor()
    # From here on memory and time are the program's, not the generator's.
    gc.collect()
    hwm_reset = reset_hwm()
    clock = perf_counter()
    import repro  # noqa: F401 - the import is part of set-up

    import_s = perf_counter() - clock
    setups, setups_scaled = [], []
    checker = Checker()
    scaled = []  # item latencies, each times its slice's yardstick factor
    wall = scaled_wall = 0.0
    for repeat in range(SETUP_REPEATS):
        clock = perf_counter()
        with running(workload, workdir, cases) as state:
            setups.append(perf_counter() - clock)
            setups_scaled.append(setups[-1] * yardstick.factor())
            if repeat < SETUP_REPEATS - 1:
                continue
            # The timed phase, on the last set-up: slices of the closed
            # loop, the yardstick after each.
            start = perf_counter()
            while perf_counter() - start < args.seconds:
                left = args.seconds - (perf_counter() - start)
                first = len(checker.latencies)
                slice_wall = workload.drive(
                    state, cases, min(SLICE_SECONDS, left), checker.record,
                    args.seed,
                )
                factor = yardstick.factor()
                scaled += [t * factor for t in checker.latencies[first:]]
                wall += slice_wall
                scaled_wall += slice_wall * factor
    peak_rss_mb = read_hwm_mb()
    rel_error = checker.verify(cases)
    done = len(checker.latencies)
    residue = litter(workdir, shm_before)
    return {
        "workload": workload.name,
        "trace": 0,
        "correct": checker.failed == 0 and not residue,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            "latency_ms_p50": median(scaled) * 1e3 if done else 0.0,
            "items_per_s": done / scaled_wall,
            "setup_s": import_s * speed + median(setups_scaled),
            "peak_rss_mb": peak_rss_mb,
            "rel_error": rel_error,
        },
        "samples": {
            "latency_ms_p50": done,
            "items_per_s": done,
            "setup_s": len(setups),
            "rel_error": len(checker.first),
        },
        "info": {
            "unscaled": {
                "latency_ms_p50":
                    median(checker.latencies) * 1e3 if done else 0.0,
                "items_per_s": done / wall,
                "setup_s": import_s + median(setups),
            },
            "latency_ms_percentiles": {
                q: layers.percentile(scaled, q) * 1e3
                for q in (10, 25, 75, 90, 99)
            },
            "yardstick_ms": [s * 1e3 for s in yardstick.seconds],
            "hwm_reset": hwm_reset,
            "litter": residue,
        },
    }


def run_trace(main_workload, args, workdir) -> dict:
    import numpy as np

    import layers
    from workloads import BY_NAME, WORKLOADS, Checker, Serve, Spill

    by_name = {
        name: w.tiny() if args.smoke else w for name, w in BY_NAME.items()
    }
    main_workload = by_name[main_workload.name]
    # The named workload first and in full; the others with one input, a
    # short warm-up and a fixed, small item count, only to fill in their
    # layers' numbers.
    order = [main_workload] + [
        replace(by_name[w.name], warmup=min(w.warmup, 3))
        for w in WORKLOADS if w.name != main_workload.name
    ]
    rng = np.random.default_rng(args.seed)
    inputs = {
        w.name: w.make_inputs(rng, workdir, None if w is main_workload else 1)
        for w in order
    }
    shm_before = layers.shm_entries()
    gemm_before = layers.gemm_rate()
    from repro.storage import resident_gauge

    recorder = layers.Recorder()
    metrics = {}
    attempted = failed = 0
    item_s = {}
    for workload in order:
        cases = inputs[workload.name]
        resident_gauge().reset()
        checker, plain = Checker(), Checker()
        mark = len(recorder.spans)
        with running(workload, workdir, cases) as state:
            if workload is main_workload:
                # Plain and wrapped slices alternate, so that a drift of
                # the box falls on both sides of harness_overhead_frac.
                wall = 0.0
                for _ in range(TRACE_ROUNDS):
                    workload.drive(
                        state, cases, PLAIN_SHARE * args.seconds / TRACE_ROUNDS,
                        plain.record, args.seed,
                    )
                    with layers.wrapped(recorder):
                        wall += workload.drive(
                            state, cases,
                            WRAPPED_SHARE * args.seconds / TRACE_ROUNDS,
                            checker.record, args.seed,
                        )
            else:
                with layers.wrapped(recorder):
                    wall = workload.drive(
                        state, cases, 0, checker.record, args.seed,
                        max_items=workload.trace_items,
                    )
            caches = workload.cache_info(state)
            if isinstance(workload, Serve):
                metrics.update(layers.serve_metrics(checker, state))
                rate_2w = len(checker.latencies) / wall
        items = recorder.items(mark)
        item_s[workload.name] = layers.p50(checker.latencies)
        if isinstance(workload, Spill):
            metrics.update(layers.spill_metrics(
                items, len(litter(workdir, shm_before))
            ))
        elif not isinstance(workload, Serve):
            metrics.update(layers.backend_metrics(items, workload.backend))
        if workload is main_workload:
            metrics.update(layers.session_metrics(
                items, caches, layers.schedule_steps(workload)
            ))
            metrics["obs.harness_overhead_frac"] = (
                item_s[workload.name] / layers.p50(plain.latencies) - 1.0
            )
            below_session = layers.p50([
                1.0 - item.sums.get(layers.ITEM, 0.0) / item.seconds
                for item in items
            ])
        checker.verify(cases)
        attempted += checker.attempted
        failed += checker.failed

    dense3d, dense4d, spill, serve = (by_name[w.name] for w in WORKLOADS)
    metrics.update(layers.probe_tensor(
        inputs[dense3d.name][0].data, dense3d.core[1], gemm_before
    ))
    metrics.update(layers.probe_pools(
        inputs[dense4d.name], item_s[dense4d.name], recorder
    ))
    metrics.update(layers.probe_spill(spill, inputs[spill.name][0], workdir))
    metrics.update(layers.probe_plans(
        [key for w in order for key in w.plan_keys()],
        SMOKE_METAS if args.smoke else PAPER_METAS,
    ))
    metrics.update(layers.probe_serve(
        serve, inputs[serve.name], workdir, rate_2w, args.seed
    ))
    four_d = next(c for c in inputs[serve.name] if len(c.core) == 4)
    metrics.update(layers.probe_select_dist(four_d))
    metrics["machine.gemm_drift_frac"] = abs(
        layers.gemm_rate() / gemm_before - 1.0
    )
    if args.spans:
        recorder.dump(args.spans)
    left = litter(workdir, shm_before)
    volumes_agree = (
        metrics["dist.ledger_volume"] == metrics["dist.model_volume"]
    )
    return {
        "workload": main_workload.name,
        "trace": 1,
        "correct": failed == 0 and volumes_agree and not left,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {},
        "info": {
            "spans": len(recorder.spans),
            "backend_share_of_item_p50": below_session,
            "litter": left,
        },
    }


# --------------------------------------------------------------------- #
# the process and the machine
# --------------------------------------------------------------------- #


def reset_hwm() -> bool:
    """Reset the peak-RSS mark, so it no longer holds the generator."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def read_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def litter(workdir, shm_before) -> list[str]:
    """What a finished workload must not leave: spill files, shm segments."""
    import layers

    spill = os.path.join(workdir, "spill")
    left = os.listdir(spill) if os.path.isdir(spill) else []
    return sorted(left) + sorted(layers.shm_entries() - shm_before)


def git_sha() -> str:
    """HEAD's commit, read from `.git` by hand; a bare checkout has none."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine_info(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"{blas.get('openblas configuration', '')}".strip(),
        "thread_env": {name: os.environ.get(name) for name in PINNED},
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def report(record, args, spec) -> int:
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(record["metrics"]):
        missing = sorted(set(units) - set(record["metrics"]))
        extra = sorted(set(record["metrics"]) - set(units))
        sys.exit(f"metrics differ from BENCHMARK.json: "
                 f"missing {missing}, unlisted {extra}")
    record["info"].update(machine_info(args))
    record["metrics"] = {
        name: {"value": float(record["metrics"][name]), "unit": units[name]}
        for name in units
    }
    for name, metric in record["metrics"].items():
        samples = record["samples"].get(name)
        note = f"  (n={samples})" if samples else ""
        print(f"{record['workload']}  {name} = {metric['value']:.6g} "
              f"{metric['unit']}{note}")
    print(f"{record['workload']}  attempted={record['attempted']} "
          f"failed={record['failed']} correct={record['correct']}")
    print("info " + json.dumps(record["info"], sort_keys=True))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        key: record[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
