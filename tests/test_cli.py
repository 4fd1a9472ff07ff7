"""Tests for the command-line interface."""

import importlib
import importlib.util
import json
import pathlib
import tomllib

import pytest

from repro.cli import main
from repro.core.planner import Plan


class TestPlanCommand:
    def test_plan_with_dims(self, capsys):
        rc = main(
            [
                "plan",
                "--dims", "24,20,16,10",
                "--core", "6,10,4,5",
                "-p", "8",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "flops" in out and "initial grid" in out
        assert "24x20x16x10 -> 6x10x4x5" in out

    def test_plan_with_real_tensor(self, capsys):
        rc = main(["plan", "--tensor", "SP", "-p", "32", "--show-tree"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "500x500x500x11x10" in out
        assert "F~0" in out  # tree rendering

    def test_plan_writes_json(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        rc = main(
            [
                "plan",
                "--dims", "12,10,8",
                "--core", "4,3,2",
                "-p", "4",
                "--out", str(path),
            ]
        )
        assert rc == 0
        plan = Plan.from_json(path.read_text())
        assert plan.meta.dims == (12, 10, 8)
        json.loads(path.read_text())  # valid JSON

    def test_plan_requires_metadata(self):
        with pytest.raises(SystemExit):
            main(["plan", "-p", "4"])

    def test_bad_dims_format(self):
        with pytest.raises(SystemExit):
            main(["plan", "--dims", "a,b", "--core", "1,1", "-p", "2"])


class TestPsiCommand:
    def test_table1_row(self, capsys):
        rc = main(["psi", "-p", "32", "--n-min", "5", "--n-max", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        for value in ("126", "252", "462", "792", "1287", "2002"):
            assert value in out


class TestModelCommand:
    def test_model_real_tensor(self, capsys):
        rc = main(["model", "--tensor", "HCCI", "-p", "32"])
        assert rc == 0
        out = capsys.readouterr().out
        for label in ("CK", "CH", "B", "OPT-S", "OPT"):
            assert label in out
        assert "total s" in out

    def test_model_plans_without_a_session(self):
        # every repro invocation imports the CLI: it must build no session
        import repro.cli
        from repro.session import TuckerSession

        assert not any(
            isinstance(v, TuckerSession) for v in vars(repro.cli).values()
        )


class TestSuiteCommand:
    def test_suite_stats(self, capsys):
        rc = main(["suite", "--ndim", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "10312" in out
        assert "HCCI" in out


class TestRetiredCommands:
    def test_bench_is_not_a_subcommand(self, capsys):
        # Seconds are measured by benchmarks/perf/ (BENCHMARK.json) only.
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestPackaging:
    """What ``pip install`` relies on, checked without running pip."""

    ROOT = pathlib.Path(__file__).resolve().parents[1]

    def _project(self):
        with open(self.ROOT / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh)["project"]

    def test_console_script_resolves_to_cli_main(self):
        module, _, attr = self._project()["scripts"]["repro"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main

    def test_build_backend_writes_metadata(self, tmp_path):
        from repro._version import __version__

        spec = importlib.util.spec_from_file_location(
            "_build_backend", self.ROOT / "_build_backend.py"
        )
        backend = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(backend)
        dist_info = backend.prepare_metadata_for_build_wheel(str(tmp_path))
        metadata = (tmp_path / dist_info / "METADATA").read_text()
        lines = metadata.splitlines()
        project = self._project()
        assert f"Name: {project['name']}" in lines
        assert f"Version: {__version__}" in lines
        for dep in project["dependencies"]:
            assert f"Requires-Dist: {dep}" in lines, dep
