"""Line coverage of a few source files, counted with ``sys.settrace``.

Run pytest under the counter and report the named files::

    PYTHONPATH=src python tools/linecov.py src/repro/tensor/linalg.py \\
        --fail-under 95 -- tests/test_tensor_linalg.py -q

Everything after ``--`` goes to ``pytest.main`` in this process. For each
file the report gives executed / executable lines, the percentage and
the missed line numbers; the exit status is pytest's when it failed, 1
when the total is below ``--fail-under``, else 0.

Executable lines are the line numbers of the compiled code objects, so
blank lines, comments and docstrings of functions never count. A line
marked ``# pragma: no cover`` is left out together with the block it
opens, as coverage.py does. The counter needs no package beyond pytest,
so a per-file floor that CI checks with coverage.py can be checked where
coverage.py is not installed; the two agree to within a few lines (they
count a multi-line statement differently).

Threads started while counting are traced too; worker processes are not.
Tracing allocates on the heap (a frame object per call, and a trace
closure per call of a counted file), so a test that bounds a kernel's
allocations with ``tracemalloc`` can fail under the counter alone, and
the more files are counted, the more of them do. Counting any file fails
``test_tensor_ttm.py``'s ``test_last_mode_allocates_no_product`` (by
~200 bytes); counting every file under ``src/repro`` fails 16 tests of
``test_blockkernels.py`` and ``test_tensor_ttm.py``: the cases of
``test_blockkernels.py``'s
``test_ttm_block_task_allocates_no_block_sized_temporary`` and
``test_threaded_ttm_peaks_at_its_output``, and four of
``test_tensor_ttm.py``'s ``TestNoTensorSizedTemporary``. All of them
pass without the tracer; read the coverage numbers of such a run all
the same.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from types import CodeType, FrameType


def executable_lines(path: str) -> set[int]:
    """Line numbers of ``path`` that carry bytecode, minus excluded blocks."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines: set[int] = set()
    todo = [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines - _excluded(source.splitlines())


def _excluded(text: list[str]) -> set[int]:
    out: set[int] = set()
    for i, line in enumerate(text):
        if "pragma: no cover" not in line:
            continue
        indent = len(line) - len(line.lstrip())
        out.add(i + 1)
        for j in range(i + 1, len(text)):
            body = text[j]
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            out.add(j + 1)
    return out


class LineCounter:
    """Context manager recording the lines executed in ``paths``.

    Restores whatever trace function was installed before it (a coverage
    tool's included) on exit.
    """

    def __init__(self, paths) -> None:
        self.hits: dict[str, set[int]] = {
            os.path.realpath(p): set() for p in paths
        }
        self._by_name: dict[str, set[int] | None] = {}

    def _global(self, frame: FrameType, event: str, arg):
        name = frame.f_code.co_filename
        if name not in self._by_name:
            self._by_name[name] = self.hits.get(os.path.realpath(name))
        hits = self._by_name[name]
        if hits is None:
            return None

        def local(frame: FrameType, event: str, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        # the frame's first line (a module body's or a decorator's) fires
        # no "line" event of its own when entering
        hits.add(frame.f_lineno)
        return local

    def __enter__(self) -> LineCounter:
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])

    def report(self) -> list[dict]:
        """Per file: ``path``, ``hit``, ``total``, ``percent``, ``missed``."""
        rows = []
        for path, hits in self.hits.items():
            lines = executable_lines(path)
            hit = len(lines & hits)
            rows.append({
                "path": os.path.relpath(path),
                "hit": hit,
                "total": len(lines),
                "percent": 100.0 * hit / len(lines) if lines else 100.0,
                "missed": sorted(lines - hits),
            })
        return rows


def _spans(numbers: list[int]) -> str:
    """``[3, 4, 5, 9]`` -> ``"3-5, 9"``."""
    runs: list[list[int]] = []
    for n in numbers:
        if runs and n == runs[-1][-1] + 1:
            runs[-1].append(n)
        else:
            runs.append([n])
    return ", ".join(
        str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="source files to count")
    parser.add_argument("--fail-under", type=float, default=0.0)
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    import pytest

    with LineCounter(args.paths) as counter:
        status = pytest.main(argv[split + 1:])
    rows = counter.report()
    for row in rows:
        print(
            f"{row['path']}: {row['hit']}/{row['total']} lines, "
            f"{row['percent']:.1f} %, missed: {_spans(row['missed']) or '-'}"
        )
    hit = sum(row["hit"] for row in rows)
    total = sum(row["total"] for row in rows)
    percent = 100.0 * hit / total if total else 100.0
    print(f"total: {hit}/{total} lines, {percent:.1f} %")
    if status:
        return int(status)
    return 1 if percent < args.fail_under else 0


if __name__ == "__main__":
    sys.exit(main())
