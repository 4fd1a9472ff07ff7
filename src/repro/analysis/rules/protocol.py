"""R004 — protocol-drift: every backend matches ``ExecutionBackend``.

The schedule executor is written purely against the nine-primitive
``ExecutionBackend`` protocol, and ``backend="auto"`` dispatch (a-Tucker
style) is only sound if every dispatch target honors the *same* call
shape — a backend that renames a parameter, drops a keyword, or ships a
different default silently diverges the moment a caller passes by
keyword or relies on the default.

The rule parses the base module (option ``base-glob``, default
``*/backends/base.py``), collects the abstract methods of the protocol
class (option ``protocol``, default ``ExecutionBackend``), then checks
every class in the project that reaches the protocol through its bases —
directly, or through intermediate classes defined in the project (a
shared pool-lifecycle base, say), whose methods count as inherited:

* every abstract method is implemented, by the class or a project base
  (required of leaf classes only: an intermediate base may stay partial);
* positional parameter names match, in order;
* keyword-only parameter names match, in order;
* every default value matches the base's, token for token
  (annotations are deliberately *not* compared — backends legitimately
  narrow ``Any`` handles to their own handle types).

If the base module is not among the analyzed files the rule has nothing
to anchor to and stays silent (lint ``src`` as a whole for full
coverage).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.core import FileContext, Finding, Project, Rule

__all__ = ["ProtocolDriftRule"]

DEFAULT_BASE_GLOB = "*/backends/base.py"
DEFAULT_PROTOCOL = "ExecutionBackend"


@dataclass(frozen=True)
class MethodSig:
    """The comparable shape of one method signature."""

    args: tuple[str, ...]
    defaults: tuple[str, ...]  # unparsed, aligned to the tail of args
    kwonly: tuple[str, ...]
    kw_defaults: tuple[str | None, ...]
    vararg: str | None
    kwarg: str | None


def _signature(node: ast.FunctionDef) -> MethodSig:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return MethodSig(
        args=tuple(names),
        defaults=tuple(ast.unparse(d) for d in args.defaults),
        kwonly=tuple(a.arg for a in args.kwonlyargs),
        kw_defaults=tuple(
            None if d is None else ast.unparse(d) for d in args.kw_defaults
        ),
        vararg=args.vararg.arg if args.vararg else None,
        kwarg=args.kwarg.arg if args.kwarg else None,
    )


def _is_abstract(node: ast.FunctionDef) -> bool:
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else (
            dec.id if isinstance(dec, ast.Name) else None
        )
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _class_methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }


def _base_names(node: ast.ClassDef) -> list[str]:
    out: list[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            out.append(base.id)
        elif isinstance(base, ast.Attribute):
            out.append(base.attr)
    return out


Owned = tuple[FileContext, ast.ClassDef]


def _lineage(
    owned: Owned, classes: dict[str, Owned], protocol: str, seen: set[str]
) -> tuple[list[Owned], bool]:
    """``owned`` and its project-local ancestors, nearest first, and
    whether any path through them reaches ``protocol``."""
    out, reaches = [owned], False
    for base in _base_names(owned[1]):
        if base == protocol:
            reaches = True
        elif base in classes and base not in seen:
            seen.add(base)
            above, hit = _lineage(classes[base], classes, protocol, seen)
            out += above
            reaches = reaches or hit
    return out, reaches


def _drift(base: MethodSig, impl: MethodSig) -> list[str]:
    problems: list[str] = []
    if impl.args != base.args:
        problems.append(
            f"positional parameters {list(impl.args)} != protocol's "
            f"{list(base.args)}"
        )
    if impl.kwonly != base.kwonly:
        problems.append(
            f"keyword-only parameters {list(impl.kwonly)} != protocol's "
            f"{list(base.kwonly)}"
        )
    else:
        for name, base_default, impl_default in zip(
            base.kwonly, base.kw_defaults, impl.kw_defaults
        ):
            if base_default != impl_default:
                problems.append(
                    f"default for '{name}' is {impl_default or '<required>'} "
                    f"!= protocol's {base_default or '<required>'}"
                )
    if impl.args == base.args and impl.defaults != base.defaults:
        problems.append(
            f"positional defaults {list(impl.defaults)} != protocol's "
            f"{list(base.defaults)}"
        )
    if impl.vararg != base.vararg:
        problems.append(
            f"*{impl.vararg or ''} != protocol's *{base.vararg or ''}"
        )
    if impl.kwarg != base.kwarg:
        problems.append(
            f"**{impl.kwarg or ''} != protocol's **{base.kwarg or ''}"
        )
    return problems


class ProtocolDriftRule(Rule):
    id = "R004"
    name = "protocol-drift"
    description = (
        "every ExecutionBackend subclass implements each abstract method "
        "with a matching signature and defaults"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        base_glob = str(
            project.config.option(self.id, "base-glob", DEFAULT_BASE_GLOB)
        )
        protocol = str(
            project.config.option(self.id, "protocol", DEFAULT_PROTOCOL)
        )
        base_ctx = project.find_file(base_glob)
        if base_ctx is None:
            return
        base_class = next(
            (
                node
                for node in ast.walk(base_ctx.tree)
                if isinstance(node, ast.ClassDef) and node.name == protocol
            ),
            None,
        )
        if base_class is None:
            yield self.finding(
                base_ctx,
                1,
                f"protocol class {protocol} not found in {base_ctx.path}",
            )
            return
        abstract = {
            name: _signature(fn)
            for name, fn in _class_methods(base_class).items()
            if _is_abstract(fn)
        }
        classes: dict[str, Owned] = {}
        for ctx in project.files:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef) and node is not base_class:
                    classes.setdefault(node.name, (ctx, node))
        subclassed = {
            base for _, node in classes.values() for base in _base_names(node)
        }
        reported: set[tuple[int, str]] = set()
        for ctx, node in classes.values():
            lineage, reaches = _lineage(
                (ctx, node), classes, protocol, {node.name}
            )
            if not reaches:
                continue
            for name in sorted(abstract):
                found = next(
                    (
                        (owner_ctx, owner, methods[name])
                        for owner_ctx, owner in lineage
                        if name in (methods := _class_methods(owner))
                    ),
                    None,
                )
                if found is None:
                    if node.name not in subclassed:
                        yield self.finding(
                            ctx,
                            node,
                            f"{node.name} does not implement "
                            f"{protocol}.{name}; the schedule executor "
                            "will hit the abstract method at runtime",
                        )
                    continue
                owner_ctx, owner, impl = found
                for problem in _drift(abstract[name], _signature(impl)):
                    # an inherited method: one finding, not one per heir
                    if (id(impl), problem) in reported:
                        continue
                    reported.add((id(impl), problem))
                    yield self.finding(
                        owner_ctx,
                        impl,
                        f"{owner.name}.{name} drifts from "
                        f"{protocol}.{name}: {problem}",
                    )
