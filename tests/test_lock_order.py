"""Lock order: the static lock-acquisition graph of ``src/repro`` has no cycle.

The serving stack holds locks across calls into other locked components
(session run lock -> plan-cache lock -> metrics lock). Two components that ever take each other's locks in
opposite orders can deadlock under exactly the concurrent load the
server exists for, and that failure is timing-dependent, so the
behavioural tests rarely see it. This test builds the graph from the
source and reports every cycle.

How the graph is built (all lexical, nothing is executed):

* **Locks.** ``self.X = threading.Lock()/RLock()/Condition()`` in a
  class defines lock ``Class.X``; ``X = threading.Lock()`` at module
  scope defines ``module.X``. ``Condition(self.Y)`` aliases ``Class.Y``
  (one underlying lock, two names).
* **Acquisitions.** ``with self.X:`` (and ``with obj.X:`` where the
  class of ``obj`` is statically known) plus explicit ``.acquire()``.
* **Edges.** While a ``with`` block holds *A*, every lock *B* taken
  lexically inside it adds *A -> B*, and every call made inside it adds
  *A -> B* for each *B* in the callee's transitive acquire-effect (a
  fixpoint over the call graph; calls resolve by receiver type:
  ``self.m()``, ``self.attr.m()``, ``Class()``, module functions).
* **Reentrancy.** Self-edges on an ``RLock`` are dropped. Self-edges on
  a plain lock are kept only when provably the same object: lexical
  nesting, or a ``self.m()`` call whose body takes the lock directly.
"""

from __future__ import annotations

import ast
import pathlib
import textwrap
from dataclasses import dataclass, field

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

LOCK_FACTORIES = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    # Condition() owns a fresh, non-reentrant lock by default
    "threading.Condition": "lock",
}

#: the graph of ``src/repro`` today; a new edge must be added here on
#: purpose, after checking it closes no cycle
SRC_EDGES = {
    ("TuckerSession._cache_lock", "MetricsRegistry._lock"),
    ("TuckerSession._run_lock", "MetricsRegistry._lock"),
    ("TuckerSession._run_lock", "Tracer._lock"),
    ("TuckerSession._run_lock", "TuckerSession._cache_lock"),
}


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


class _Module:
    """One parsed module: its import aliases, classes, functions and
    module-level locks."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.stem = pathlib.Path(path).stem
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        self.aliases.setdefault(root, root)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        self.classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
        self.functions = [
            n for n in tree.body if isinstance(n, ast.FunctionDef)
        ]
        self.assigns = [n for n in tree.body if isinstance(n, ast.Assign)]

    def resolve(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def lock_kind(self, expr: ast.expr) -> str | None:
        if not isinstance(expr, ast.Call):
            return None
        name = _dotted(expr.func)
        return None if name is None else LOCK_FACTORIES.get(self.resolve(name))

    def constructed(self, expr: ast.expr) -> str | None:
        """Bare class name when ``expr`` is ``ClassName(...)``."""
        if not isinstance(expr, ast.Call):
            return None
        if isinstance(expr.func, ast.Name):
            name = self.resolve(expr.func.id).rsplit(".", 1)[-1]
        elif isinstance(expr.func, ast.Attribute):
            name = expr.func.attr
        else:
            return None
        return name if name[:1].isupper() else None


def _annotation_class(expr: ast.expr | None) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value.strip('"').rsplit(".", 1)[-1]
    return None


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@dataclass
class _Func:
    cls: str | None
    acquires: set[str] = field(default_factory=set)
    #: (locks held, callee key, receiver is ``self``)
    calls: list[tuple[tuple[str, ...], tuple[str, str], bool]] = field(
        default_factory=list
    )
    #: (outer, inner) from lexical nesting
    nested: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class LockGraph:
    kinds: dict[str, str]  # lock -> "lock" | "rlock"
    edges: set[tuple[str, str]]

    def cycles(self) -> list[str]:
        """Every self-deadlock and every cross-lock cycle, as text."""
        found = [
            f"{a} may be acquired while already held"
            for a, b in sorted(self.edges) if a == b
        ]
        succ: dict[str, set[str]] = {}
        for a, b in self.edges:
            if a != b:
                succ.setdefault(a, set()).add(b)
        for start in sorted(succ):
            # depth-first search for a path back to ``start`` through
            # locks that sort after it, so each cycle is named once
            stack = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in sorted(succ.get(node, ())):
                    if nxt == start:
                        found.append(" -> ".join([*path, start]))
                    elif nxt > start and nxt not in path:
                        stack.append((nxt, [*path, nxt]))
        return found


def lock_graph(sources: dict[str, str]) -> LockGraph:
    """The lock-acquisition graph of ``{path: source}``."""
    modules = [_Module(p, ast.parse(s)) for p, s in sources.items()]
    locks: dict[tuple[str, str], tuple[str, str]] = {}  # -> (key, kind)
    aliases: dict[tuple[str, str], str] = {}
    attr_types: dict[tuple[str, str], str] = {}
    class_names = {c.name for m in modules for c in m.classes}
    for mod in modules:
        for node in mod.assigns:
            kind = mod.lock_kind(node.value)
            for target in node.targets:
                if kind and isinstance(target, ast.Name):
                    locks[("", target.id)] = (f"{mod.stem}.{target.id}", kind)
        for cls in mod.classes:
            for method in cls.body:
                if isinstance(method, ast.FunctionDef):
                    _index_method(mod, cls.name, method, locks, aliases,
                                  attr_types)

    def lock_of_attr(owner: str, attr: str) -> tuple[str, str] | None:
        seen: set[str] = set()
        while attr not in seen:
            seen.add(attr)
            if (owner, attr) in locks:
                return locks[(owner, attr)]
            if (owner, attr) not in aliases:
                return None
            attr = aliases[(owner, attr)]
        return None

    funcs: dict[tuple[str, str], _Func] = {}
    for mod in modules:
        scopes = [(None, fn) for fn in mod.functions] + [
            (cls.name, fn) for cls in mod.classes for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
        ]
        for cls_name, fn in scopes:
            info = _Func(cls_name)
            _Walker(info, mod, lock_of_attr, attr_types, class_names).walk(fn)
            funcs[(cls_name or f"mod:{mod.stem}", fn.name)] = info

    # transitive acquire-effects, to a fixpoint
    effects = {key: set(f.acquires) for key, f in funcs.items()}
    changed = True
    while changed:
        changed = False
        for key, info in funcs.items():
            for _, callee, _ in info.calls:
                new = effects.get(callee, set()) - effects[key]
                if new:
                    effects[key] |= new
                    changed = True

    kinds = {key: kind for key, kind in locks.values()}
    edges: set[tuple[str, str]] = set()
    for info in funcs.values():
        pairs = list(info.nested)
        for held, callee, is_self in info.calls:
            if callee not in funcs:
                continue
            for inner in effects[callee]:
                for outer in held:
                    # a call-mediated self-edge is the same lock object
                    # only for a self-call that takes it directly
                    if inner != outer or (
                        is_self and inner in funcs[callee].acquires
                    ):
                        pairs.append((outer, inner))
        edges.update(
            (a, b) for a, b in pairs if a != b or kinds.get(a) != "rlock"
        )
    return LockGraph(kinds, edges)


def _index_method(mod, cls, method, locks, aliases, attr_types) -> None:
    param_types = {
        arg.arg: name
        for arg in method.args.args + method.args.kwonlyargs
        if (name := _annotation_class(arg.annotation)) is not None
    }
    for node in ast.walk(method):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        attr = _self_attr(node.targets[0])
        if attr is None:
            continue
        kind = mod.lock_kind(node.value)
        if kind is not None:
            call = node.value
            wrapped = None  # Condition(self.Y) shares self.Y's lock
            if call.args and mod.resolve(_dotted(call.func) or "") == (
                "threading.Condition"
            ):
                wrapped = _self_attr(call.args[0])
            if wrapped is not None:
                aliases[(cls, attr)] = wrapped
            else:
                locks[(cls, attr)] = (f"{cls}.{attr}", kind)
            continue
        type_name = mod.constructed(node.value)
        if type_name is None and isinstance(node.value, ast.Name):
            type_name = param_types.get(node.value.id)
        if type_name is not None:
            attr_types[(cls, attr)] = type_name


class _Walker:
    """Collects one function's acquires, calls and nesting."""

    def __init__(self, info, mod, lock_of_attr, attr_types, class_names):
        self.info = info
        self.mod = mod
        self.lock_of_attr = lock_of_attr
        self.attr_types = attr_types
        self.class_names = class_names
        self.local_types: dict[str, str] = {}
        self.held: list[str] = []

    def walk(self, fn: ast.FunctionDef) -> None:
        for arg in fn.args.args + fn.args.kwonlyargs:
            name = _annotation_class(arg.annotation)
            if name in self.class_names:
                self.local_types[arg.arg] = name
        for stmt in fn.body:
            self._visit(stmt)

    def _type_of(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.info.cls
            return self.local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._type_of(expr.value)
            return None if base is None else self.attr_types.get(
                (base, expr.attr)
            )
        return None

    def _lock_of(self, expr: ast.expr) -> str | None:
        lock = None
        if isinstance(expr, ast.Attribute):
            base = self._type_of(expr.value)
            if base is not None:
                lock = self.lock_of_attr(base, expr.attr)
        elif isinstance(expr, ast.Name):
            lock = self.lock_of_attr("", expr.id)
        return None if lock is None else lock[0]

    def _callee(self, call: ast.Call) -> tuple[tuple[str, str] | None, bool]:
        func = call.func
        if isinstance(func, ast.Name):
            name = self.mod.resolve(func.id).rsplit(".", 1)[-1]
            if name in self.class_names:
                return (name, "__init__"), False
            return (f"mod:{self.mod.stem}", func.id), False
        if isinstance(func, ast.Attribute):
            rtype = self._type_of(func.value)
            if rtype is not None:
                is_self = isinstance(func.value, ast.Name) and (
                    func.value.id == "self"
                )
                return (rtype, func.attr), is_self
            if func.attr in self.class_names:  # module.ClassName(...)
                return (func.attr, "__init__"), False
        return None, False

    def _acquire(self, lock: str) -> None:
        self.info.acquires.add(lock)
        self.info.nested.extend((outer, lock) for outer in self.held)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # a nested scope is walked as its own function
        if isinstance(node, (ast.With, ast.AsyncWith)):
            taken = 0
            for item in node.items:
                lock = self._lock_of(item.context_expr)
                if lock is None:
                    self._visit(item.context_expr)
                    continue
                self._acquire(lock)
                self.held.append(lock)
                taken += 1
            for stmt in node.body:
                self._visit(stmt)
            del self.held[len(self.held) - taken:]
            return
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            cls = self.mod.constructed(node.value)
            if isinstance(node.targets[0], ast.Name) and (
                cls in self.class_names
            ):
                self.local_types[node.targets[0].id] = cls
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "acquire":
                lock = self._lock_of(func.value)
                if lock is not None:
                    self._acquire(lock)
            else:
                callee, is_self = self._callee(node)
                if callee is not None:
                    self.info.calls.append(
                        (tuple(self.held), callee, is_self)
                    )
        for child in ast.iter_child_nodes(node):
            self._visit(child)


def _graph_of(source: str) -> LockGraph:
    return lock_graph({"pkg/mod.py": textwrap.dedent(source)})


def test_src_graph_is_the_known_one_and_acyclic():
    graph = lock_graph({
        str(path): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    })
    assert graph.cycles() == []
    assert graph.edges == SRC_EDGES
    assert len(graph.kinds) == 13, sorted(graph.kinds)


def test_cross_class_cycle_is_named():
    graph = _graph_of("""
        import threading

        class A:
            def __init__(self, b: "B"):
                self._lock = threading.Lock()
                self.b = b
            def f(self):
                with self._lock:
                    self.b.g()

        class B:
            def __init__(self, a: "A"):
                self._lock = threading.Lock()
                self.a = a
            def g(self):
                with self._lock:
                    pass
            def h(self):
                with self._lock:
                    self.a.f()
    """)
    assert graph.cycles() == ["A._lock -> B._lock -> A._lock"]


def test_consistent_order_is_clean():
    graph = _graph_of("""
        import threading

        class Inner:
            def __init__(self):
                self._lock = threading.Lock()
            def g(self):
                with self._lock:
                    pass

        class Outer:
            def __init__(self):
                self._lock = threading.Lock()
                self.inner = Inner()
            def f(self):
                with self._lock:
                    self.inner.g()
    """)
    assert graph.edges == {("Outer._lock", "Inner._lock")}
    assert graph.cycles() == []


NESTED = """
    import threading
    class C:
        def __init__(self):
            self._lock = threading.{factory}()
        def f(self):
            with self._lock:
                with self._lock:
                    pass
"""


def test_plain_lock_self_nesting_deadlocks():
    graph = _graph_of(NESTED.format(factory="Lock"))
    assert graph.cycles() == ["C._lock may be acquired while already held"]


def test_rlock_self_nesting_is_allowed():
    assert _graph_of(NESTED.format(factory="RLock")).cycles() == []


def test_self_call_reacquire_deadlocks_for_plain_lock():
    graph = _graph_of("""
        import threading
        class C:
            def __init__(self):
                self._lock = threading.Lock()
            def f(self):
                with self._lock:
                    self.g()
            def g(self):
                with self._lock:
                    pass
    """)
    assert graph.cycles() == ["C._lock may be acquired while already held"]


def test_condition_aliases_its_wrapped_lock():
    graph = _graph_of("""
        import threading
        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition(self._lock)
            def f(self):
                with self._lock:
                    with self._cond:
                        pass
    """)
    assert graph.cycles() == ["C._lock may be acquired while already held"]
