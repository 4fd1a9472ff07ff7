"""R006 — exception-hygiene: no silent swallows, one error root.

A ``bare except:`` or an ``except Exception:`` whose handler neither
re-raises nor logs turns every future bug into a silent no-op — the
serving layer's shed/failed requests and the batch layer's skipped items
must always leave a trail. The rule flags:

* ``except:`` (always — it also catches ``KeyboardInterrupt``);
* ``except Exception`` / ``except BaseException`` (alone or in a tuple)
  whose body contains neither a ``raise`` nor a call to a logger method
  (an attribute call like ``logger.warning(...)`` on a receiver whose
  dotted name contains ``log``).

Handlers that *narrow* the catch (``except (OSError, ValueError):``) are
out of scope — naming the expected failure set is exactly the fix this
rule pushes toward.

It also flags a class whose bases are only ``Exception`` /
``BaseException``: :class:`repro.errors.ReproError` is the package's one
error root, and a second root is an error no ``except ReproError`` sees.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import FileContext, FileRule, Finding, Project
from repro.analysis.names import dotted_name

__all__ = ["ExceptionHygieneRule"]

BROAD = frozenset({"Exception", "BaseException"})
ERROR_ROOT = "ReproError"
LOG_METHODS = frozenset({
    "debug", "info", "warning", "warn", "error", "exception", "critical",
    "log",
})


def _terminal_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _broad_names(node: ast.expr | None) -> list[str]:
    """The broad exception names caught by this handler's type expr."""
    if node is None:
        return []
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    names = [_terminal_name(expr) for expr in exprs]
    return [name for name in names if name is not None and name in BROAD]


def _leaves_a_trail(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in LOG_METHODS
        ):
            receiver = dotted_name(node.func.value)
            if receiver is not None and "log" in receiver.lower():
                return True
    return False


class ExceptionHygieneRule(FileRule):
    id = "R006"
    name = "exception-hygiene"
    description = (
        "bare except / broad except Exception must re-raise or log; "
        "silent swallows hide failures; new error classes derive from "
        "ReproError"
    )

    def check_file(
        self, ctx: FileContext, project: Project
    ) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                if (
                    node.name != ERROR_ROOT
                    and node.bases
                    and all(_terminal_name(b) in BROAD for b in node.bases)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"class {node.name} starts a second error "
                        f"hierarchy; derive it from {ERROR_ROOT} "
                        "(repro.errors), adding a stdlib base only for "
                        "compatibility",
                    )
                continue
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare 'except:' catches everything including "
                    "KeyboardInterrupt/SystemExit; name the expected "
                    "exception types",
                )
                continue
            broad = _broad_names(node.type)
            if broad and not _leaves_a_trail(node):
                yield self.finding(
                    ctx,
                    node,
                    f"broad 'except {broad[0]}' swallows without "
                    "re-raising or logging; narrow the caught types or "
                    "route the failure through "
                    "logging.getLogger('repro')",
                )
