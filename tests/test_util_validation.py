"""Tests for repro.util.validation, and the mypy gate on repro.util."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

from repro.util.validation import (
    check_core_dims,
    check_dims,
    check_mode,
    check_positive_int,
)


class TestCheckPositiveInt:
    def test_accepts_ints(self):
        assert check_positive_int(3, "x") == 3
        assert check_positive_int(1, "x") == 1

    def test_accepts_integral_floats(self):
        assert check_positive_int(4.0, "x") == 4

    def test_rejects_fractional(self):
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(ValueError):
            check_positive_int(-1, "x")

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            check_positive_int("three", "x")

    def test_error_message_names_argument(self):
        with pytest.raises(ValueError, match="n_procs"):
            check_positive_int(0, "n_procs")


class TestCheckDims:
    def test_roundtrip(self):
        assert check_dims([3, 4, 5]) == (3, 4, 5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_dims([])

    def test_rejects_zero_length_mode(self):
        with pytest.raises(ValueError):
            check_dims([3, 0, 5])


class TestCheckCoreDims:
    def test_ok(self):
        assert check_core_dims([2, 2], [4, 4]) == (2, 2)

    def test_equal_allowed(self):
        assert check_core_dims([4, 4], [4, 4]) == (4, 4)

    def test_rejects_longer_core(self):
        with pytest.raises(ValueError, match="exceeds"):
            check_core_dims([5, 2], [4, 4])

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            check_core_dims([2, 2, 2], [4, 4])


class TestCheckMode:
    def test_bounds(self):
        assert check_mode(0, 3) == 0
        assert check_mode(2, 3) == 2
        with pytest.raises(ValueError):
            check_mode(3, 3)
        with pytest.raises(ValueError):
            check_mode(-1, 3)


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy is not installed (the CI lint job provides it)",
)
def test_mypy_on_typed_packages():
    # pyproject.toml's [tool.mypy] names the packages (repro.util)
    repo = pathlib.Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file",
         str(repo / "pyproject.toml")],
        capture_output=True,
        text=True,
        cwd=repo,
    )
    assert result.returncode == 0, result.stdout + result.stderr
