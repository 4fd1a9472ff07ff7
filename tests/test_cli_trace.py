"""CLI tests for the observability surface: --trace, trace summarize
and the --verbose logging flag."""

import json
import logging

import numpy as np
import pytest

from repro.cli import main
from repro.obs import load_trace


def _golden_decompose(tmp_path, extra=()):
    trace_path = tmp_path / "out.json"
    rc = main([
        "decompose",
        "--random", "12,10,8",
        "--core", "4,3,3",
        "-p", "4",
        "--max-iters", "2",
        "--trace", str(trace_path),
        *extra,
    ])
    return rc, trace_path


class TestDecomposeTrace:
    def test_trace_file_written_and_loadable(self, tmp_path, capsys):
        rc, path = _golden_decompose(tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc  # Chrome trace-event format
        trace = load_trace(str(path))
        trace.validate()
        assert trace.find("run")

    def test_trace_step_tags_match_run_ledger(self, tmp_path):
        """Acceptance: the saved trace's step tags are exactly the
        ledger tags of an identical run."""
        from repro.session import TuckerSession
        from repro.tensor.random import random_tensor

        rc, path = _golden_decompose(tmp_path)
        assert rc == 0
        trace = load_trace(str(path))
        session = TuckerSession(backend="sequential")
        res = session.run(
            random_tensor((12, 10, 8), seed=0), (4, 3, 3),
            n_procs=4, max_iters=2,
        )
        assert trace.step_tags() == {r.tag for r in res.ledger.records}

    def test_jsonl_extension_selects_jsonl(self, tmp_path):
        trace_path = tmp_path / "out.jsonl"
        rc = main([
            "decompose", "--random", "10,8,6", "--core", "3,3,2",
            "--max-iters", "1", "--trace", str(trace_path),
        ])
        assert rc == 0
        first = trace_path.read_text().splitlines()[0]
        assert "meta" in json.loads(first)
        load_trace(str(trace_path)).validate()

    def test_json_payload_names_trace(self, tmp_path, capsys):
        rc, path = _golden_decompose(tmp_path, extra=("--json",))
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == str(path)
        assert payload["seconds"] > 0


class TestTraceSummarize:
    def test_summarize_table(self, tmp_path, capsys):
        rc, path = _golden_decompose(tmp_path)
        assert rc == 0
        capsys.readouterr()
        rc = main(["trace", "summarize", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "step tag" in out
        assert "model elems" in out
        # HOOI tree TTM steps show a modeled (q_n-1)|Out| charge.
        assert "ttm:n" in out
        assert "12x10x8 -> 4x3x3" in out

    def test_summarize_json(self, tmp_path, capsys):
        rc, path = _golden_decompose(tmp_path)
        assert rc == 0
        capsys.readouterr()
        rc = main(["trace", "summarize", str(path), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        tags = {r["tag"] for r in doc["rows"]}
        assert any(t.startswith("ttm:n") for t in tags)
        assert doc["meta"]["backend"] == "sequential"

    def test_summarize_missing_file(self):
        with pytest.raises(SystemExit, match="cannot load trace"):
            main(["trace", "summarize", "/nonexistent/trace.json"])


class TestBatchTrace:
    def test_batch_trace_has_all_items(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for k in range(2):
            np.save(tmp_path / f"t{k}.npy",
                    rng.standard_normal((10, 8, 6)))
        trace_path = tmp_path / "batch.json"
        rc = main([
            "batch",
            "--glob", str(tmp_path / "*.npy"),
            "--core", "3,3,2",
            "--backend", "sequential",
            "--max-iters", "1",
            "--trace", str(trace_path),
        ])
        assert rc == 0
        trace = load_trace(str(trace_path))
        assert len(trace.find("batch")) == 1
        assert len(trace.find("run")) == 2
        assert trace.meta["items"] == 2


class TestVerboseFlag:
    @pytest.fixture(autouse=True)
    def _reset_logger(self):
        logger = logging.getLogger("repro")
        before = (list(logger.handlers), logger.level)
        yield
        logger.handlers[:], logger.level = before[0], before[1]
        logger.setLevel(before[1])

    def test_silent_by_default(self, capsys):
        rc = main(["decompose", "--random", "10,8,6", "--core", "3,3,2",
                   "--max-iters", "1"])
        assert rc == 0
        assert "INFO" not in capsys.readouterr().err

    def test_verbose_logs_compile_to_stderr(self, capsys):
        rc = main(["-v", "decompose", "--random", "10,8,6",
                   "--core", "3,3,2", "--max-iters", "1"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "INFO repro.session: compiling plan" in err

    def test_double_verbose_enables_debug(self):
        main(["-vv", "psi", "-p", "4"])
        assert logging.getLogger("repro").level == logging.DEBUG
