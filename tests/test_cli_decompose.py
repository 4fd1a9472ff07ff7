"""Tests for the ``repro decompose`` subcommand."""

import contextlib
import io
import json
import threading

import numpy as np
import pytest

from repro.backends import BACKEND_NAMES
from repro.cli import main


def _decompose_json(capsys, *args):
    """``repro decompose ARGS --json`` in-process, its JSON payload."""
    assert main(["decompose", *args, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


EVERY_BACKEND_ARGS = (
    "--random", "24,20,16", "--core", "6,5,4", "--max-iters", "2",
)


@pytest.fixture(scope="module")
def sequential_reference():
    """The sequential JSON payload every backend's run is compared with."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["decompose", *EVERY_BACKEND_ARGS,
                     "--backend", "sequential", "--json"]) == 0
    return json.loads(out.getvalue())


class TestDecomposeRandom:
    @pytest.mark.parametrize("backend", BACKEND_NAMES + ("auto",))
    def test_every_backend(self, backend, capsys, sequential_reference):
        rc = main(
            [
                "decompose",
                "--random", "24,20,16",
                "--core", "6,5,4",
                "--backend", backend,
                "-p", "8",
                "--max-iters", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        if backend == "auto":
            assert "[auto]" in out
        else:
            assert f"backend:            {backend}" in out
        assert "24x20x16 -> 6x5x4" in out
        assert "final error" in out
        assert "compression ratio" in out
        assert "ledger volume" in out
        ref = sequential_reference
        got = _decompose_json(capsys, *EVERY_BACKEND_ARGS, "--backend", backend)
        for key in ("sthosvd_error", "error"):
            assert abs(got[key] - ref[key]) < 1e-10, (key, got[key], ref[key])

    def test_json_output(self, capsys):
        rc = main(
            [
                "decompose",
                "--random", "12,10,8",
                "--core", "4,3,2",
                "--backend", "simcluster",
                "-p", "4",
                "--max-iters", "2",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dims"] == [12, 10, 8]
        assert payload["core"] == [4, 3, 2]
        assert payload["backend"] == "simcluster"
        assert payload["n_iters"] == 2
        assert payload["ledger"]["comm_volume"] > 0
        assert 0.0 <= payload["error"] <= 1.0

    def test_dtype_flag(self, capsys):
        rc = main(
            [
                "decompose",
                "--random", "12,10,8",
                "--core", "4,3,2",
                "--dtype", "float32",
                "--max-iters", "1",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dtype"] == "float32"

    def test_skip_hooi(self, capsys):
        rc = main(
            [
                "decompose",
                "--random", "12,10,8",
                "--core", "4,3,2",
                "--skip-hooi",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_iters"] == 0
        assert payload["error"] == payload["sthosvd_error"]


class TestDecomposeTeardown:
    def test_pool_backend_is_closed_before_returning(self, capsys):
        """The session runs under ``with``: a started thread pool is
        joined by the command, not left to interpreter exit."""
        before = set(threading.enumerate())
        rc = main(
            [
                "decompose",
                "--random", "24,20,16",
                "--core", "6,5,4",
                "--backend", "threaded",
                "-p", "2",
            ]
        )
        assert rc == 0
        assert set(threading.enumerate()) - before == set()


class TestDecomposeFile:
    def test_npy_input(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((10, 9, 8)).astype(np.float32)
        path = tmp_path / "t.npy"
        np.save(path, t)
        rc = main(
            [
                "decompose",
                "--input", str(path),
                "--core", "3,3,2",
                "--max-iters", "1",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dims"] == [10, 9, 8]
        assert payload["dtype"] == "float32"  # input dtype honored


class TestDecomposeAuto:
    def test_auto_backend_selects_and_reports(self, capsys):
        rc = main(
            [
                "decompose",
                "--random", "12,10,8",
                "--core", "4,3,2",
                "--backend", "auto",
                "--max-iters", "1",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["auto_selected"] is True
        assert payload["backend"] in BACKEND_NAMES
        assert payload["selection_reason"]

    def test_auto_with_calibration_profile(self, tmp_path, capsys):
        from repro.backends.select import default_profile, save_profile

        profile = default_profile()
        path = save_profile(profile, str(tmp_path / "prof.json"))
        rc = main(
            [
                "decompose",
                "--random", "12,10,8",
                "--core", "4,3,2",
                "--backend", "auto",
                "--calibration", path,
                "--max-iters", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[auto]" in out
        assert "selected because" in out
        # a randomized run on the profile is priced as randomized
        result = _decompose_json(
            capsys, "--random", "12,10,8", "--core", "4,3,2",
            "--backend", "auto", "--calibration", path,
            "--method", "rsthosvd", "--skip-hooi",
        )
        assert result["auto_selected"] is True
        assert result["method"] == "rsthosvd"
        assert "method=rsthosvd" in result["selection_reason"], result


class TestCalibrate:
    def test_calibrate_writes_profile(self, tmp_path, capsys):
        path = str(tmp_path / "cal.json")
        rc = main(
            [
                "calibrate",
                "--dims", "12,10,8",
                "--core", "3,3,2",
                "--repeats", "1",
                "--out", path,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile written to" in out
        with open(path, encoding="utf-8") as fh:
            profile = json.load(fh)
        assert "sequential" in profile["measured"]
        assert set(profile["backends"]["sequential"]) == {"rate", "startup"}
        assert profile["backends"]["sequential"]["rate"] > 0
        # calibration measures backend rates only: no spill section
        assert "storage" not in profile
        assert "spill" not in out
        header = next(line for line in out.splitlines() if "backend" in line)
        assert [cell.strip() for cell in header.split("|")] == [
            "backend", "rate (madds/s)", "startup", "source"
        ]

    def test_storage_probe_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--no-storage-probe",
                  "--out", str(tmp_path / "cal.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "cal.json").exists()

    def test_calibrate_bad_args_exit_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="repeats"):
            main(
                [
                    "calibrate",
                    "--dims", "12,10,8",
                    "--core", "3,3,2",
                    "--repeats", "0",
                    "--out", str(tmp_path / "cal.json"),
                ]
            )

    def test_calibrate_json_output(self, tmp_path, capsys):
        rc = main(
            [
                "calibrate",
                "--dims", "12,10,8",
                "--core", "3,3,2",
                "--repeats", "1",
                "--out", str(tmp_path / "cal.json"),
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["measured"]
        assert set(payload["profile"]) == {"version", "measured", "backends"}
        assert set(payload["profile"]["backends"]) >= {
            "sequential", "threaded", "procpool"
        }


class TestDecomposeStorageFlags:
    """--storage / --memory-budget / --spill-dir reach the run."""

    ARGS = ["decompose", "--random", "24,20,16", "--core", "6,5,4", "--json"]

    def test_mmap_spills_under_the_budget_and_cleans_up(
        self, tmp_path, capsys
    ):
        spill = tmp_path / "spill"
        spill.mkdir()
        rc = main(self.ARGS + [
            "--storage", "mmap", "--memory-budget", "16K",
            "--spill-dir", str(spill),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["storage"] == "mmap"
        assert payload["spill_bytes_logical"] > 0
        assert list(spill.iterdir()) == []

    def test_memory_stays_resident(self, capsys):
        rc = main(self.ARGS + ["--storage", "memory"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["storage"] == "memory"


class TestDecomposeErrors:
    def test_bad_calibration_path_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(
                [
                    "decompose",
                    "--random", "8,8,8",
                    "--core", "2,2,2",
                    "--backend", "auto",
                    "--calibration", str(tmp_path / "missing.json"),
                ]
            )

    def test_calibration_requires_auto_backend(self):
        with pytest.raises(SystemExit, match="--backend auto"):
            main(
                [
                    "decompose",
                    "--random", "8,8,8",
                    "--core", "2,2,2",
                    "--backend", "threaded",
                    "--calibration", "whatever.json",
                ]
            )

    @pytest.mark.parametrize("codec", ["zlib", "auto"])
    def test_retired_spill_codec_exits_cleanly(self, codec):
        with pytest.raises(SystemExit, match="'raw', 'narrow'") as exc:
            main(
                [
                    "decompose",
                    "--random", "12,10,8",
                    "--core", "3,3,2",
                    "--spill-codec", codec,
                ]
            )
        # a string exit code: the interpreter prints it and exits 1
        assert isinstance(exc.value.code, str)

    def test_requires_tensor_source(self):
        with pytest.raises(SystemExit, match="--input|--random"):
            main(["decompose", "--core", "2,2,2"])

    def test_requires_core(self):
        with pytest.raises(SystemExit, match="--core"):
            main(["decompose", "--random", "8,8,8"])
