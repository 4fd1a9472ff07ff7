"""Configuration for ``repro lint``: ``pyproject.toml [tool.repro.lint]``.

Recognized keys::

    [tool.repro.lint]
    disable = ["R006"]                 # rule ids off everywhere
    exclude = ["src/repro/_vendored/*"]  # file globs never analyzed

    [tool.repro.lint.per-file-ignores]
    "src/repro/bench/*.py" = ["R001"]  # rules off for matching files

    [tool.repro.lint.rules.R005]
    extra-tags = ["calibrate:*"]         # rule-specific options

Globs match full relative paths or any path suffix (see
:func:`repro.analysis.core.match_path`). Loading is tolerant of a missing
file or a missing table — the defaults are an empty configuration — but a
*malformed* table (wrong types) raises ``ValueError`` so a typo cannot
silently disable the gate.
"""

from __future__ import annotations

import fnmatch
import os
import tomllib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

__all__ = ["LintConfig", "find_pyproject"]


def _str_list(value: object, key: str) -> tuple[str, ...]:
    if value is None:
        return ()
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ValueError(f"[tool.repro.lint] {key} must be a list of strings")
    out: list[str] = []
    for item in value:
        if not isinstance(item, str):
            raise ValueError(
                f"[tool.repro.lint] {key} entries must be strings, "
                f"got {item!r}"
            )
        out.append(item)
    return tuple(out)


def find_pyproject(start: str) -> str | None:
    """Nearest ``pyproject.toml`` at or above ``start`` (a file or dir)."""
    path = os.path.abspath(start)
    if os.path.isfile(path):
        path = os.path.dirname(path)
    while True:
        candidate = os.path.join(path, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(path)
        if parent == path:
            return None
        path = parent


@dataclass(frozen=True)
class LintConfig:
    """Parsed ``[tool.repro.lint]`` settings."""

    disable: frozenset[str] = frozenset()
    exclude: tuple[str, ...] = ()
    per_file_ignores: tuple[tuple[str, frozenset[str]], ...] = ()
    rule_options: Mapping[str, Mapping[str, object]] = field(
        default_factory=dict
    )
    source: str = "<defaults>"

    @classmethod
    def from_mapping(
        cls, table: Mapping[str, object], *, source: str = "<mapping>"
    ) -> "LintConfig":
        disable = frozenset(_str_list(table.get("disable"), "disable"))
        exclude = _str_list(table.get("exclude"), "exclude")
        raw_ignores = table.get("per-file-ignores", {})
        if not isinstance(raw_ignores, Mapping):
            raise ValueError(
                "[tool.repro.lint] per-file-ignores must be a table"
            )
        ignores: list[tuple[str, frozenset[str]]] = []
        for pattern, rules in raw_ignores.items():
            ignores.append(
                (str(pattern), frozenset(_str_list(rules, "per-file-ignores")))
            )
        raw_rules = table.get("rules", {})
        if not isinstance(raw_rules, Mapping):
            raise ValueError("[tool.repro.lint] rules must be a table")
        rule_options: dict[str, Mapping[str, object]] = {}
        for rule_id, options in raw_rules.items():
            if not isinstance(options, Mapping):
                raise ValueError(
                    f"[tool.repro.lint.rules.{rule_id}] must be a table"
                )
            rule_options[str(rule_id)] = dict(options)
        return cls(
            disable=disable,
            exclude=exclude,
            per_file_ignores=tuple(ignores),
            rule_options=rule_options,
            source=source,
        )

    @classmethod
    def load(cls, start: str | None = None) -> "LintConfig":
        """Load from the nearest ``pyproject.toml`` (empty when absent)."""
        pyproject = find_pyproject(start or os.getcwd())
        if pyproject is None:
            return cls()
        return cls.load_file(pyproject)

    @classmethod
    def load_file(cls, path: str) -> "LintConfig":
        with open(path, "rb") as fh:
            data = tomllib.load(fh)
        tool = data.get("tool", {})
        if not isinstance(tool, Mapping):
            return cls(source=path)
        repro = tool.get("repro", {})
        if not isinstance(repro, Mapping):
            return cls(source=path)
        lint = repro.get("lint", {})
        if not isinstance(lint, Mapping):
            raise ValueError(f"{path}: [tool.repro.lint] must be a table")
        return cls.from_mapping(lint, source=path)

    # -- queries ---------------------------------------------------------- #

    def excluded(self, path: str) -> bool:
        return any(_match(path, pattern) for pattern in self.exclude)

    def ignored(self, path: str, rule_id: str) -> bool:
        """Is ``rule_id`` configured off for ``path``?"""
        if rule_id in self.disable:
            return True
        for pattern, rules in self.per_file_ignores:
            if _match(path, pattern) and (not rules or rule_id in rules):
                return True
        return False

    def option(self, rule_id: str, key: str, default: object) -> object:
        options = self.rule_options.get(rule_id)
        if options is None or key not in options:
            return default
        return options[key]

    def str_list_option(
        self, rule_id: str, key: str, default: Sequence[str]
    ) -> tuple[str, ...]:
        value = self.option(rule_id, key, None)
        if value is None:
            return tuple(default)
        return _str_list(value, f"rules.{rule_id}.{key}")


def _match(path: str, pattern: str) -> bool:
    normalized = path.replace("\\", "/")
    return fnmatch.fnmatch(normalized, pattern) or fnmatch.fnmatch(
        normalized, "*/" + pattern
    )
