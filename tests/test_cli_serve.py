"""Tests for the ``repro serve`` subcommand (stdio ndjson transport)."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.tensor.random import low_rank_tensor, random_tensor


def _run_serve(monkeypatch, capsys, lines, argv=()):
    """Drive ``repro serve`` with ndjson lines on a fake stdin."""
    stdin = io.StringIO(
        "\n".join(json.dumps(line) if not isinstance(line, str) else line
                  for line in lines) + "\n"
    )
    monkeypatch.setattr("sys.stdin", stdin)
    rc = main(["serve", "--workers", "2", *argv])
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return rc, out


class TestServeCli:
    def test_mixed_workload_round_trip(self, monkeypatch, capsys, tmp_path):
        np.save(
            tmp_path / "x.npy",
            low_rank_tensor((10, 9, 8), (3, 3, 2), seed=1, noise=0.1),
        )
        rc, out = _run_serve(monkeypatch, capsys, [
            {"id": "path", "path": str(tmp_path / "x.npy"),
             "core": [3, 3, 2], "max_iters": 2},
            {"id": "rand", "random": {"dims": [8, 8, 8], "seed": 2},
             "core": [2, 2, 2]},
            {"op": "stats"},
            {"op": "drain"},
        ])
        assert rc == 0
        assert [r.get("id") for r in out[:2]] == ["path", "rand"]
        assert all(r["ok"] for r in out[:2])
        assert out[2]["op"] == "stats"
        assert out[3]["op"] == "drain" and out[3]["ok"]
        assert out[3]["completed"] == 2.0

    def test_save_and_stats_out(self, monkeypatch, capsys, tmp_path):
        result_path = str(tmp_path / "dec.npz")
        stats_path = str(tmp_path / "stats.json")
        rc, out = _run_serve(
            monkeypatch, capsys,
            [{"id": "s", "random": {"dims": [8, 7, 6]},
              "core": [2, 2, 2], "save": result_path}],
            argv=["--stats-out", stats_path],
        )
        assert rc == 0
        assert out[0]["saved"] == result_path
        with np.load(result_path) as payload:
            assert payload["core"].shape == (2, 2, 2)
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
        assert stats["completed"] == 1.0
        assert stats["workers"] == 2

    def test_failed_request_exits_nonzero(self, monkeypatch, capsys):
        rc, out = _run_serve(
            monkeypatch, capsys,
            # Queued longer than a 1ms deadline can survive.
            [{"id": "doomed", "random": {"dims": [8, 8, 8]},
              "core": [2, 2, 2], "deadline": 0.001},
             {"id": "fine", "random": {"dims": [8, 8, 8]},
              "core": [2, 2, 2]}],
        )
        by_id = {r.get("id"): r for r in out if "id" in r}
        if not by_id["doomed"]["ok"]:  # lost the race to the worker
            assert by_id["doomed"]["error_kind"] == "DeadlineExceeded"
            assert rc == 1
        assert by_id["fine"]["ok"]

    def test_trace_saved_on_drain(self, monkeypatch, capsys, tmp_path):
        trace_path = str(tmp_path / "serve.trace.json")
        rc, _ = _run_serve(
            monkeypatch, capsys,
            [{"id": "t", "random": {"dims": [8, 7, 6]},
              "core": [2, 2, 2]}],
            argv=["--trace", trace_path],
        )
        assert rc == 0
        from repro.obs import Trace

        trace = Trace.load(trace_path)
        assert len(trace.spans) > 0

    def test_budgeted_mixed_drain_matches_sequential(
        self, monkeypatch, capsys, tmp_path
    ):
        """12 requests over two plan keys, half ``.npy`` paths and half
        seeded random inputs, under a 128K admission budget (the inputs
        total 596K): the drain is clean, repeat keys hit their warm
        worker, responses come back in id order and every saved core
        equals a sequential ``session.run`` to 1e-10."""
        from repro.session import TuckerSession

        rng = np.random.default_rng(0)
        requests, inputs = [], []
        for i in range(12):
            dims = (24, 20, 16) if i % 2 == 0 else (20, 18, 14)
            core = (5, 4, 4) if i % 2 == 0 else (4, 4, 3)
            req = {"id": f"r{i}", "core": list(core), "max_iters": 2,
                   "save": str(tmp_path / f"r{i}.npz")}
            if i % 4 < 2:
                path = tmp_path / f"t{i}.npy"
                np.save(path, rng.standard_normal(dims))
                req["path"] = str(path)
                inputs.append((np.load(path), core))
            else:
                req["random"] = {"dims": list(dims), "seed": i}
                inputs.append((random_tensor(dims, seed=i), core))
            requests.append(req)
        rc, out = _run_serve(
            monkeypatch, capsys, [*requests, {"op": "drain"}],
            argv=["--memory-budget", "128K", "--backend", "sequential",
                  "--deadline", "120",
                  "--stats-out", str(tmp_path / "stats.json")],
        )
        assert rc == 0
        *body, final = out
        assert final["op"] == "drain" and final["ok"], final
        assert final["completed"] == 12
        assert final["failed"] == 0 and final["shed"] == 0, final
        assert final["affinity"]["hit_rate"] > 0, final["affinity"]
        assert [r["id"] for r in body] == [f"r{i}" for i in range(12)]
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["completed"] == 12
        with TuckerSession(backend="sequential") as session:
            for i, (resp, (tensor, core)) in enumerate(zip(body, inputs)):
                assert resp["ok"], resp
                ref = session.run(tensor, core, max_iters=2)
                with np.load(tmp_path / f"r{i}.npz") as saved:
                    np.testing.assert_allclose(
                        saved["core"], ref.decomposition.core, rtol=0,
                        atol=1e-10, err_msg=resp["id"],
                    )

    def test_bad_budget_is_a_clean_error(self, monkeypatch, capsys):
        stdin = io.StringIO("")
        monkeypatch.setattr("sys.stdin", stdin)
        with pytest.raises(SystemExit):
            main(["serve", "--memory-budget", "minus-five"])

    def test_socket_transport_is_gone(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--socket", "x"])
        assert exc.value.code == 2
        assert "--socket" in capsys.readouterr().err
