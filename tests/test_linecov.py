"""Tests for ``tools/linecov.py``, the ``sys.settrace`` line counter."""

import importlib.util
import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "linecov.py")

_spec = importlib.util.spec_from_file_location("linecov", TOOL)
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

# Line numbers matter: the expectations below name them.
FIXTURE = textwrap.dedent('''\
    """A module with known missed lines."""


    def used(x):
        if x > 0:
            return x
        return -x


    def unused():
        return 1


    def guarded(x):
        if x is None:  # pragma: no cover
            raise ValueError(
                "never"
            )
        return x
''')
EXECUTABLE = {1, 4, 5, 6, 7, 10, 11, 14, 19}
MISSED = [7, 11]


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "fixture_mod.py"
    path.write_text(FIXTURE)
    return str(path)


def _import(path):
    spec = importlib.util.spec_from_file_location("fixture_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_executable_lines_skip_docstrings_blanks_and_excluded_blocks(
    fixture_path,
):
    assert linecov.executable_lines(fixture_path) == EXECUTABLE


def test_counter_reports_the_known_missed_lines(fixture_path):
    before = sys.gettrace()
    with linecov.LineCounter([fixture_path]) as counter:
        module = _import(fixture_path)
        assert module.used(2) == 2
        assert module.guarded(3) == 3
    assert sys.gettrace() is before
    (row,) = counter.report()
    assert row["missed"] == MISSED
    assert (row["hit"], row["total"]) == (7, 9)
    assert row["percent"] == pytest.approx(700 / 9)


def test_spans_merge_consecutive_lines():
    assert linecov._spans([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
    assert linecov._spans([]) == ""


def test_cli_runs_pytest_and_gates_on_the_floor(tmp_path, fixture_path):
    (tmp_path / "test_fixture.py").write_text(textwrap.dedent("""\
        import fixture_mod

        def test_used():
            assert fixture_mod.used(2) == 2
            assert fixture_mod.guarded(3) == 3
    """))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))

    def run(floor):
        return subprocess.run(
            [
                sys.executable, TOOL, fixture_path, "--fail-under", floor,
                "--", "-q", "-p", "no:cacheprovider", "test_fixture.py",
            ],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120,
        )

    below = run("90")
    assert below.returncode == 1, below.stdout + below.stderr
    assert "7/9 lines, 77.8 %, missed: 7, 11" in below.stdout
    assert run("75").returncode == 0
