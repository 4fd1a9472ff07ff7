"""Tests for the ``repro batch`` subcommand."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.tensor.random import low_rank_tensor

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def npy_dir(tmp_path):
    """Five same-shape tensors plus one odd-shaped straggler on disk."""
    for seed in range(5):
        np.save(
            tmp_path / f"t{seed}.npy",
            low_rank_tensor((14, 12, 10), (4, 3, 3), noise=0.1, seed=seed),
        )
    np.save(
        tmp_path / "odd.npy",
        low_rank_tensor((16, 10, 8), (4, 3, 3), noise=0.1, seed=9),
    )
    return tmp_path


class TestBatchGlob:
    def test_glob_batch_human_output(self, npy_dir, capsys):
        rc = main([
            "batch",
            "--glob", str(npy_dir / "t*.npy"),
            "--core", "4,3,3",
            "--backend", "sequential",
            "-p", "2",
            "--max-iters", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "5 item(s)" in out
        assert "items/s" in out
        assert "plans compiled:     1 (4 cache hit(s))" in out

    def test_glob_no_match_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="matched no files"):
            main([
                "batch",
                "--glob", str(tmp_path / "nothing-*.npy"),
                "--core", "4,3,3",
            ])

    def test_missing_inputs_errors(self):
        with pytest.raises(SystemExit, match="provide --glob"):
            main(["batch", "--core", "4,3,3"])

    def test_missing_core_errors(self, npy_dir):
        with pytest.raises(SystemExit, match="--core"):
            main(["batch", "--glob", str(npy_dir / "t*.npy")])


class TestBatchStorageFlags:
    def test_every_item_spills_under_mmap(self, npy_dir, capsys):
        spill = npy_dir / "spill"
        spill.mkdir()
        rc = main([
            "batch",
            "--glob", str(npy_dir / "t*.npy"),
            "--core", "4,3,3",
            "--backend", "sequential",
            "--max-iters", "1",
            "--storage", "mmap",
            "--memory-budget", "16K",
            "--spill-dir", str(spill),
            "--json",
        ])
        assert rc == 0
        items = json.loads(capsys.readouterr().out)["items"]
        assert len(items) == 5
        assert [item["storage"] for item in items] == ["mmap"] * 5
        assert list(spill.iterdir()) == []


class TestBatchManifest:
    def test_manifest_relative_paths_and_json(self, npy_dir, capsys):
        manifest = npy_dir / "manifest.txt"
        manifest.write_text(
            "# a comment\n"
            "t0.npy\n"
            "\n"
            "t1.npy\n"
            "odd.npy\n"
        )
        rc = main([
            "batch",
            "--manifest", str(manifest),
            "--core", "4,3,3",
            "--backend", "sequential",
            "-p", "2",
            "--max-iters", "2",
            "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "max_in_flight" not in payload
        assert payload["n_items"] == 3
        assert payload["n_failures"] == 0
        assert payload["items_per_second"] > 0
        assert payload["plans_compiled"] == 2  # two distinct shapes
        assert payload["cache_hits"] == 1
        sources = [item["source"] for item in payload["items"]]
        assert sources[0].endswith("t0.npy")
        assert [item["index"] for item in payload["items"]] == [0, 1, 2]
        assert payload["items"][2]["dims"] == [16, 10, 8]
        for item in payload["items"]:
            assert 0.0 <= item["error"] <= 1.0
            assert item["ledger"]["flops"] > 0

    def test_max_in_flight_is_not_a_flag(self, npy_dir):
        with pytest.raises(SystemExit) as exc:
            main([
                "batch",
                "--glob", str(npy_dir / "t*.npy"),
                "--core", "4,3,3",
                "--max-in-flight", "4",
            ])
        assert exc.value.code == 2

    def test_manifest_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read manifest"):
            main([
                "batch",
                "--manifest", str(tmp_path / "absent.txt"),
                "--core", "4,3,3",
            ])


class TestBatchFailures:
    def test_on_error_skip_reports_and_exits_nonzero(self, npy_dir, capsys):
        (npy_dir / "broken.npy").write_bytes(b"this is not an npy file")
        rc = main([
            "batch",
            "--glob", str(npy_dir / "*.npy"),
            "--core", "4,3,3",
            "--backend", "sequential",
            "-p", "2",
            "--max-iters", "1",
            "--on-error", "skip",
            "--json",
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_items"] == 6
        assert payload["n_failures"] == 1
        assert payload["failures"][0]["source"].endswith("broken.npy")

    def test_on_error_raise_stops(self, npy_dir):
        (npy_dir / "broken.npy").write_bytes(b"this is not an npy file")
        with pytest.raises(SystemExit):
            main([
                "batch",
                "--glob", str(npy_dir / "*.npy"),
                "--core", "4,3,3",
                "--backend", "sequential",
                "--max-iters", "1",
            ])

    def test_calibration_requires_auto(self, npy_dir):
        with pytest.raises(SystemExit, match="requires --backend auto"):
            main([
                "batch",
                "--glob", str(npy_dir / "t*.npy"),
                "--core", "4,3,3",
                "--backend", "sequential",
                "--calibration", "whatever.json",
            ])


class TestBatchMatchesDecompose:
    def test_batch_items_match_sequential_decompose(self, npy_dir, capsys):
        rc = main([
            "batch",
            "--glob", str(npy_dir / "t*.npy"),
            "--core", "4,3,3",
            "--backend", "auto",
            "--planner", "optimal",
            "-p", "2",
            "--max-iters", "2",
            "--json",
        ])
        assert rc == 0
        batch = json.loads(capsys.readouterr().out)
        for item in batch["items"]:
            rc = main([
                "decompose",
                "--input", item["source"],
                "--core", "4,3,3",
                "--backend", "sequential",
                "--planner", "optimal",
                "-p", "2",
                "--max-iters", "2",
                "--json",
            ])
            assert rc == 0
            single = json.loads(capsys.readouterr().out)
            assert abs(item["error"] - single["error"]) < 1e-10
            assert abs(item["sthosvd_error"] - single["sthosvd_error"]) < 1e-10


def _repro(*args, cwd):
    """``repro ARGS --json`` in a fresh interpreter, its JSON report."""
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args, "--json"],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


class TestSpilledProcpoolBatch:
    def test_matches_in_memory_sequential_and_leaves_no_spill(self, tmp_path):
        """Procpool workers write the spilled TTM outputs through their own
        shared mappings and the parent reads them without any sync; every
        item matches an in-memory sequential one-shot to 1e-10."""
        rng = np.random.default_rng(0)
        names = []
        for i in range(4):
            # 48x40x32 float64 = 480 KiB per tensor, against a 128K budget
            names.append(f"big{i}.npy")
            np.save(tmp_path / names[-1], rng.standard_normal((48, 40, 32)))
        (tmp_path / "manifest.txt").write_text("\n".join(names) + "\n")
        spill = tmp_path / "spill"
        spill.mkdir()
        common = ("--core", "6,5,4", "--planner", "optimal", "-p", "3",
                  "--max-iters", "2")
        report = _repro(
            "batch", "--manifest", "manifest.txt", *common,
            "--backend", "procpool", "--storage", "mmap",
            "--memory-budget", "128K", "--spill-dir", str(spill),
            cwd=tmp_path,
        )
        assert report["n_items"] == 4 and report["n_failures"] == 0
        for item in report["items"]:
            assert item["storage"] == "mmap", item
            single = _repro(
                "decompose", "--input", item["source"], *common,
                "--backend", "sequential", "--storage", "memory",
                cwd=tmp_path,
            )
            assert single["storage"] == "memory"
            for key in ("sthosvd_error", "error"):
                assert abs(item[key] - single[key]) < 1e-10, (
                    item["source"], key,
                )
        assert list(spill.iterdir()) == []
