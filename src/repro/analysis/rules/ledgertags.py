"""R005 — ledger-tag registry: step tags trace back to the schedule.

PR 6 established the span-tag == ledger-tag contract: every executed
Step produces exactly one ledger record whose tag is reconstructed as
``{prefix}:{step.tag}``, and the tracing bridge names step spans by that
same tag — so modeled volumes, measured seconds and golden-ledger
fixtures all aggregate on one vocabulary. A ledger ``add_*`` call (or a
kernel invocation) with a tag outside that vocabulary silently falls out
of every aggregation.

This rule derives the canonical vocabulary *statically*:

* ``Step(tag=...)`` literals and f-strings in the schedule module
  (option ``schedule-glob``, default ``*/backends/schedule.py``) —
  f-string placeholders become wildcards, and any ``prefix:`` chain is
  allowed in front (the interpreters prepend ``hooi:it3:`` etc.);
* the ``tag=`` keyword-only defaults of the kernel methods in the base
  module (option ``base-glob``) — the kernel-family roots (``ttm``,
  ``svd``, ``norm``, ...), each allowed an optional ``:detail`` suffix;
* fnmatch-style patterns from option ``extra-tags`` for vocabularies
  no Step program emits (the calibration micro-bench's records).

Checked call sites: literal ``tag=`` arguments to ``add_comm`` /
``add_compute`` and to the kernel methods. F-string tags that *start*
with a literal part are checked with placeholders sampled as ``0``
(``f"calibrate:ttm{mode}"`` checks ``"calibrate:ttm0"``); fully dynamic tags
(``f"{tag}:gram"``) are the runtime conformance suite's job. The
schedule module itself is the vocabulary's source and is exempt.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from collections.abc import Iterator

from repro.analysis.core import FileContext, Finding, Project, Rule

__all__ = ["LedgerTagRule"]

DEFAULT_SCHEDULE_GLOB = "*/backends/schedule.py"
DEFAULT_BASE_GLOB = "*/backends/base.py"

#: ledger-recording calls whose ``tag=`` lands verbatim in the ledger.
LEDGER_CALLS = frozenset({"add_comm", "add_compute"})
#: backend kernel methods whose ``tag=`` labels the resulting record.
KERNEL_CALLS = frozenset({
    "ttm", "leading_factor", "sketch", "cross_gram", "regrid",
    "fro_norm_sq",
})


def _fstring_pattern(node: ast.JoinedStr) -> str | None:
    """Regex for an f-string tag; ``None`` when it starts dynamic."""
    if not node.values or isinstance(node.values[0], ast.FormattedValue):
        return None
    parts: list[str] = []
    for value in node.values:
        if isinstance(value, ast.Constant):
            parts.append(re.escape(str(value.value)))
        else:
            parts.append(".+")
    return "".join(parts)


def _fstring_sample(node: ast.JoinedStr) -> str | None:
    """A representative concrete tag; ``None`` when it starts dynamic."""
    if not node.values or isinstance(node.values[0], ast.FormattedValue):
        return None
    parts: list[str] = []
    for value in node.values:
        if isinstance(value, ast.Constant):
            parts.append(str(value.value))
        else:
            parts.append("0")
    return "".join(parts)


def _step_tag_patterns(tree: ast.Module) -> list[str]:
    """Patterns of every ``Step(tag=...)`` in the schedule module."""
    patterns: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "Step":
            continue
        for kw in node.keywords:
            if kw.arg != "tag":
                continue
            if isinstance(kw.value, ast.Constant) and isinstance(
                kw.value.value, str
            ):
                patterns.append(re.escape(kw.value.value))
            elif isinstance(kw.value, ast.JoinedStr):
                pattern = _fstring_pattern(kw.value)
                if pattern is not None:
                    patterns.append(pattern)
    return patterns


def _kernel_default_tags(tree: ast.Module) -> list[str]:
    """``tag=`` keyword-only defaults of the base module's methods."""
    tags: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for arg, default in zip(
            node.args.kwonlyargs, node.args.kw_defaults
        ):
            if (
                arg.arg == "tag"
                and isinstance(default, ast.Constant)
                and isinstance(default.value, str)
            ):
                tags.append(default.value)
    return tags


class TagRegistry:
    """The canonical tag vocabulary as one compiled alternation."""

    def __init__(
        self,
        step_patterns: list[str],
        kernel_tags: list[str],
        extra_globs: tuple[str, ...],
    ) -> None:
        alternatives: list[str] = []
        for pattern in step_patterns:
            # any "prefix:" chain, then the step tag (with optional
            # power-iteration style ":detail" continuations).
            alternatives.append(f"(?:.+:)?{pattern}(?::.+)?")
        for tag in kernel_tags:
            alternatives.append(f"{re.escape(tag)}(?::.+)?")
        for glob in extra_globs:
            alternatives.append(fnmatch.translate(glob))
        self.known = bool(alternatives)
        self._regex = re.compile(
            "^(?:" + "|".join(alternatives) + ")$"
        ) if alternatives else None

    def allows(self, tag: str) -> bool:
        return self._regex is not None and bool(self._regex.match(tag))


class LedgerTagRule(Rule):
    id = "R005"
    name = "ledger-tag-registry"
    description = (
        "every literal ledger/kernel tag must belong to the canonical "
        "step-tag vocabulary derived from backends/schedule.py"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        schedule_glob = str(project.config.option(
            self.id, "schedule-glob", DEFAULT_SCHEDULE_GLOB
        ))
        base_glob = str(project.config.option(
            self.id, "base-glob", DEFAULT_BASE_GLOB
        ))
        extra = project.config.str_list_option(self.id, "extra-tags", ())
        schedule_ctx = project.find_file(schedule_glob)
        if schedule_ctx is None:
            return  # no vocabulary source to anchor to
        base_ctx = project.find_file(base_glob)
        registry = TagRegistry(
            _step_tag_patterns(schedule_ctx.tree),
            _kernel_default_tags(base_ctx.tree) if base_ctx else [],
            extra,
        )
        if not registry.known:
            yield self.finding(
                schedule_ctx,
                1,
                f"no Step(tag=...) vocabulary found in "
                f"{schedule_ctx.path}; the ledger-tag registry is empty",
            )
            return
        for ctx in project.files:
            if ctx is schedule_ctx:
                continue
            yield from self._check_calls(ctx, registry)

    def _check_calls(
        self, ctx: FileContext, registry: TagRegistry
    ) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in LEDGER_CALLS | KERNEL_CALLS:
                continue
            for kw in node.keywords:
                if kw.arg != "tag":
                    continue
                tag: str | None = None
                shown: str | None = None
                if isinstance(kw.value, ast.Constant) and isinstance(
                    kw.value.value, str
                ):
                    tag = shown = kw.value.value
                elif isinstance(kw.value, ast.JoinedStr):
                    tag = _fstring_sample(kw.value)
                    if tag is not None:
                        shown = ast.unparse(kw.value)
                if tag is None:
                    continue  # dynamic: the conformance suite's job
                if not registry.allows(tag):
                    yield self.finding(
                        ctx,
                        kw.value,
                        f"tag {shown!r} is not in the canonical step-tag "
                        "vocabulary (backends/schedule.py Step tags + "
                        "kernel default roots); ledger aggregations and "
                        "the span-tag==ledger-tag contract will not see "
                        "it — add the Step tag or extend "
                        "[tool.repro.lint.rules.R005] extra-tags",
                    )
