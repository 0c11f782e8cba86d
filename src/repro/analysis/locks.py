"""Lock-discipline checkers: guarded attributes and lock ordering.

Reads the :func:`repro.util.concurrency.guarded_by` declarations off
class decorators (from the AST — nothing is imported) and enforces:

``LOCK001`` (file scope)
    Every read/write of a guarded attribute (``self.<field>``) happens
    while the declared lock is held — inside ``with self.<lock>:`` — or
    inside a ``*_locked`` method, whose name promises the caller holds
    the lock.  Calling a ``*_locked`` method of ``self`` *without*
    holding any class lock is flagged too.  ``__init__``, ``__del__``
    and ``__setstate__`` are exempt: the object is not shared yet (or
    no longer).  Nested functions and lambdas are analyzed as if no
    lock were held — they typically run later, on another thread
    (metrics callbacks); suppress deliberate torn reads with
    ``# repro: ignore[LOCK001]``.

``LOCK002`` (project scope)
    Builds the cross-class lock-acquisition graph and rejects ordering
    cycles (static deadlock detection).  An edge ``A.l1 -> B.l2`` is
    recorded when, with ``l1`` held, code may reach an acquisition of
    ``l2`` — directly (a second ``with self.<lock>:``), through a call
    on a typed attribute (``self.x.m()``), through a same-class helper
    (``self.m()``), through an *unguarded* intermediate class, or
    through a chained call whose return annotation names a guarded
    class (``self.family.labels(...).observe(...)``).  Method
    acquisition sets are closed transitively (fixpoint), so locks taken
    deep inside a call chain still produce the edge the runtime
    sanitizer would observe from the top of its held stack.

    Attribute types are inferred from constructor assignments
    (``self.x = ClassName(...)``, including inside conditional
    expressions), from ``AnnAssign`` annotations
    (``self._cache: EvalCache | None = ...``), from annotated
    ``__init__`` parameters assigned to ``self``, and from return
    annotations of (name-keyed) methods.  The observed runtime graph
    (``SAN001``, see the sanitizer docs) is checked to be a subset of
    this static graph, so the approximations cannot silently rot.

Known approximations (documented in ``docs/STATIC_ANALYSIS.md``):
acquisition is only seen through literal ``with self.<lock>:`` blocks;
classes and methods are keyed by name; locals are untyped.  These fit
this codebase's conventions — the point is catching regressions in
real discipline, not solving aliasing in general.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.engine import Finding, ParsedFile, Project, checker

__all__ = ["collect_lock_edges"]

RULES = {
    "LOCK001": "guarded attribute accessed without holding its declared lock",
    "LOCK002": "lock-acquisition ordering cycle (potential deadlock)",
}

#: Methods where the instance is not yet (or no longer) shared.
EXEMPT_METHODS = {"__init__", "__del__", "__setstate__"}


def _decorated_guards(cls: ast.ClassDef) -> tuple[dict[str, str], list[str]]:
    """``guarded_by`` declarations on a class: (field -> lock, lock order)."""
    guards: dict[str, str] = {}
    locks: list[str] = []
    for dec in cls.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        fn = dec.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None)
        if name != "guarded_by" or not dec.args:
            continue
        if not all(isinstance(a, ast.Constant) and isinstance(a.value, str)
                   for a in dec.args):
            continue
        lock = dec.args[0].value
        if lock not in locks:
            locks.append(lock)
        for arg in dec.args[1:]:
            guards[arg.value] = lock
    return guards, locks


def _self_attr(node: ast.AST) -> str | None:
    """``self.<attr>`` -> attr name, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _methods(cls: ast.ClassDef):
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


@dataclass
class _ClassInfo:
    """Everything the checkers need to know about one guarded class."""

    name: str
    path: str
    node: ast.ClassDef
    guards: dict[str, str]       # field -> lock
    locks: list[str]             # declared lock attribute names


def _collect_guarded_classes(pf: ParsedFile) -> list[_ClassInfo]:
    out = []
    for node in ast.walk(pf.tree):
        if isinstance(node, ast.ClassDef):
            guards, locks = _decorated_guards(node)
            if locks:
                out.append(_ClassInfo(name=node.name, path=pf.path,
                                      node=node, guards=guards, locks=locks))
    return out


def _with_locks(node: ast.With, lock_names: set[str]) -> set[str]:
    """Class locks acquired by one ``with`` statement."""
    taken = set()
    for item in node.items:
        attr = _self_attr(item.context_expr)
        if attr is not None and attr in lock_names:
            taken.add(attr)
    return taken


# ---------------------------------------------------------------------------
# LOCK001: guarded-attribute discipline (file scope)


class _DisciplineVisitor:
    """Walks one method body tracking which class locks are held."""

    def __init__(self, pf: ParsedFile, info: _ClassInfo) -> None:
        self.pf = pf
        self.info = info
        self.lock_names = set(info.locks)
        self.findings: list[Finding] = []

    def scan(self, node: ast.AST, held: frozenset) -> None:
        if isinstance(node, ast.With):
            for item in node.items:
                self.scan(item.context_expr, held)
            inner = held | _with_locks(node, self.lock_names)
            for stmt in node.body:
                self.scan(stmt, frozenset(inner))
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Nested callables (metrics callbacks, worker thunks) run
            # later, possibly on another thread: assume nothing is held.
            body = node.body if isinstance(node.body, list) else [node.body]
            for stmt in body:
                self.scan(stmt, frozenset())
            return
        attr = _self_attr(node)
        if attr is not None:
            lock = self.info.guards.get(attr)
            if lock is not None and lock not in held:
                self.findings.append(self.pf.finding(
                    "LOCK001", node,
                    f"{self.info.name}.{attr} is guarded by "
                    f"{self.info.name}.{lock} but accessed without it"))
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and _self_attr(node.func) is not None
                and node.func.attr.endswith("_locked")
                and not held):
            self.findings.append(self.pf.finding(
                "LOCK001", node,
                f"{self.info.name}.{node.func.attr}() requires a held lock "
                f"(\"_locked\" convention) but none of "
                f"{sorted(self.lock_names)} is held"))
        for child in ast.iter_child_nodes(node):
            self.scan(child, held)


EXAMPLES = {
    "LOCK001": ('@guarded_by("_lock", "_jobs")\nclass S:\n    def get(self, k):\n        return self._jobs.get(k)',
                '@guarded_by("_lock", "_jobs")\nclass S:\n    def get(self, k):\n        with self._lock:\n            return self._jobs.get(k)'),
    "LOCK002": ("# thread A: A._lock -> B._lock   (A.ping calls b.pong)\n"
                "# thread B: B._lock -> A._lock   (B.pong calls a.ping)",
                "# acquire the two locks in one global order, or drop the\n"
                "# nested call out of the locked region"),
}


@checker("lock-discipline", scope="file", rules={"LOCK001": RULES["LOCK001"]},
         examples={"LOCK001": EXAMPLES["LOCK001"]})
def check_lock_discipline(pf: ParsedFile) -> list[Finding]:
    findings: list[Finding] = []
    for info in _collect_guarded_classes(pf):
        for method in _methods(info.node):
            if method.name in EXEMPT_METHODS or method.name.endswith("_locked"):
                continue
            visitor = _DisciplineVisitor(pf, info)
            for stmt in method.body:
                visitor.scan(stmt, frozenset())
            findings.extend(visitor.findings)
    return findings


# ---------------------------------------------------------------------------
# LOCK002: cross-class lock-acquisition graph (project scope)


@dataclass(frozen=True)
class _Edge:
    src: str   # "Class.lock"
    dst: str
    path: str
    line: int
    col: int


def _annotation_classes(node: ast.expr | None, universe: set[str]) -> set[str]:
    """Class names a type annotation may denote (unions, Optional, ...)."""
    if node is None:
        return set()
    if isinstance(node, ast.Name):
        return {node.id} & universe
    if isinstance(node, ast.Attribute):
        return {node.attr} & universe
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_annotation_classes(node.left, universe)
                | _annotation_classes(node.right, universe))
    if isinstance(node, ast.Subscript):  # Optional[X], list[X]: take inner
        return _annotation_classes(node.slice, universe)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:  # string annotation: "EvalCache | None"
            return _annotation_classes(
                ast.parse(node.value, mode="eval").body, universe)
        except SyntaxError:
            return set()
    return set()


@dataclass
class _TypeInfo:
    """Name-keyed type facts for one class (guarded or not)."""

    name: str
    node: ast.ClassDef
    #: attr -> possible class names.
    attr_types: dict[str, set[str]] = field(default_factory=dict)
    #: method name -> method node.
    methods: dict[str, ast.AST] = field(default_factory=dict)


class _Universe:
    """Every class in the project + name-keyed inference tables."""

    def __init__(self, project: Project) -> None:
        self.types: dict[str, _TypeInfo] = {}
        self.owners: dict[str, ParsedFile] = {}
        for pf in project.files:
            for node in ast.walk(pf.tree):
                if isinstance(node, ast.ClassDef) and node.name not in self.types:
                    info = _TypeInfo(name=node.name, node=node)
                    for method in _methods(node):
                        info.methods.setdefault(method.name, method)
                    self.types[node.name] = info
                    self.owners[node.name] = pf
        names = set(self.types)
        #: method name -> class names its return annotation may denote.
        self.method_returns: dict[str, set[str]] = {}
        for info in self.types.values():
            for mname, method in info.methods.items():
                returned = _annotation_classes(
                    getattr(method, "returns", None), names)
                if returned:
                    self.method_returns.setdefault(mname, set()).update(returned)
        for info in self.types.values():
            self._infer_attr_types(info, names)

    def _value_classes(self, value: ast.expr, names: set[str],
                       param_ann: dict[str, set[str]]) -> set[str]:
        """Class names an assigned expression may produce."""
        if isinstance(value, ast.Call):
            fn = value.func
            if isinstance(fn, ast.Name) and fn.id in names:
                return {fn.id}
            if isinstance(fn, ast.Attribute):
                if fn.attr in names:
                    return {fn.attr}
                return set(self.method_returns.get(fn.attr, ()))
            return set()
        if isinstance(value, ast.Name):
            return param_ann.get(value.id, set())
        if isinstance(value, ast.IfExp):
            return (self._value_classes(value.body, names, param_ann)
                    | self._value_classes(value.orelse, names, param_ann))
        if isinstance(value, ast.BoolOp):
            out: set[str] = set()
            for operand in value.values:
                out |= self._value_classes(operand, names, param_ann)
            return out
        return set()

    def _infer_attr_types(self, info: _TypeInfo, names: set[str]) -> None:
        for method in info.methods.values():
            args = getattr(method, "args", None)
            param_ann: dict[str, set[str]] = {}
            if args is not None:
                for arg in (list(args.posonlyargs) + list(args.args)
                            + list(args.kwonlyargs)):
                    classes = _annotation_classes(arg.annotation, names)
                    if classes:
                        param_ann[arg.arg] = classes
            for node in ast.walk(method):
                if isinstance(node, ast.AnnAssign):
                    attr = _self_attr(node.target)
                    if attr is not None:
                        classes = _annotation_classes(node.annotation, names)
                        if classes:
                            info.attr_types.setdefault(attr, set()).update(classes)
                elif isinstance(node, ast.Assign) and node.value is not None:
                    classes = self._value_classes(node.value, names, param_ann)
                    if not classes:
                        continue
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            info.attr_types.setdefault(attr, set()).update(classes)

    # -- receiver resolution ---------------------------------------------
    def receiver_classes(self, cls: str, expr: ast.expr) -> set[str]:
        """Possible classes of the receiver expression in class ``cls``."""
        if isinstance(expr, ast.Name):
            return {cls} if expr.id == "self" else set()
        if isinstance(expr, ast.Attribute):
            bases = self.receiver_classes(cls, expr.value)
            out: set[str] = set()
            for base in bases:
                info = self.types.get(base)
                if info is not None:
                    out |= info.attr_types.get(expr.attr, set())
            return out
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            return set(self.method_returns.get(expr.func.attr, ()))
        return set()

    def call_targets(self, cls: str, call: ast.Call) -> set[tuple[str, str]]:
        """(class, method) pairs one call may dispatch to, from ``cls``."""
        fn = call.func
        if not isinstance(fn, ast.Attribute):
            if isinstance(fn, ast.Name) and fn.id in self.types:
                return {(fn.id, "__init__")}
            return set()
        out = set()
        for rcls in self.receiver_classes(cls, fn.value):
            info = self.types.get(rcls)
            if info is not None and fn.attr in info.methods:
                out.add((rcls, fn.attr))
        return out


def _effective_acquires(universe: _Universe,
                        guarded: dict[str, _ClassInfo],
                        ) -> dict[tuple[str, str], set[str]]:
    """Fixpoint: qualified locks each (class, method) may acquire.

    Direct ``with self.<lock>:`` acquisitions plus, transitively, those
    of every method a call may reach — through typed attributes,
    same-class helpers, unguarded intermediates, and chained calls.
    Nested functions/lambdas are excluded (they run later, elsewhere).
    """
    direct: dict[tuple[str, str], set[str]] = {}
    calls: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for cname, tinfo in universe.types.items():
        locks = set(guarded[cname].locks) if cname in guarded else set()
        for mname, method in tinfo.methods.items():
            key = (cname, mname)
            direct[key] = {f"{cname}.{lock}"
                           for lock in _acquired_locks_shallow(method, locks)}
            out: set[tuple[str, str]] = set()
            for node in _walk_shallow(method):
                if isinstance(node, ast.Call):
                    out |= universe.call_targets(cname, node)
            calls[key] = out

    eff = {key: set(val) for key, val in direct.items()}
    changed = True
    while changed:
        changed = False
        for key, targets in calls.items():
            acc = eff[key]
            before = len(acc)
            for target in targets:
                acc |= eff.get(target, set())
            if len(acc) != before:
                changed = True
    return eff


def _walk_shallow(method: ast.AST):
    """Walk a method body without descending into nested callables."""
    stack = list(ast.iter_child_nodes(method))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _acquired_locks_shallow(method: ast.AST, lock_names: set[str]) -> set[str]:
    out: set[str] = set()
    for node in _walk_shallow(method):
        if isinstance(node, ast.With):
            out |= _with_locks(node, lock_names)
    return out


class _EdgeCollector:
    """Records lock-order edges from one method of one guarded class."""

    def __init__(self, pf: ParsedFile, info: _ClassInfo,
                 universe: _Universe,
                 eff: dict[tuple[str, str], set[str]],
                 edges: list[_Edge]) -> None:
        self.pf = pf
        self.info = info
        self.universe = universe
        self.eff = eff
        self.edges = edges
        self.lock_names = set(info.locks)

    def scan(self, node: ast.AST, held: tuple) -> None:
        if isinstance(node, ast.With):
            for item in node.items:
                self.scan(item.context_expr, held)
            taken = _with_locks(node, self.lock_names)
            inner = held
            for lock in sorted(taken):
                name = f"{self.info.name}.{lock}"
                if name in inner:  # re-entrant (RLock): not an ordering edge
                    continue
                if inner:
                    self._edge(inner[-1], name, node)
                inner = inner + (name,)
            for stmt in node.body:
                self.scan(stmt, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            for stmt in body:
                self.scan(stmt, ())
            return
        if held and isinstance(node, ast.Call):
            for target in self.universe.call_targets(self.info.name, node):
                for lock in sorted(self.eff.get(target, ())):
                    if lock in held:
                        continue  # re-entrant through the chain
                    self._edge(held[-1], lock, node)
        for child in ast.iter_child_nodes(node):
            self.scan(child, held)

    def _edge(self, src: str, dst: str, node: ast.AST) -> None:
        if src == dst:  # re-entrant acquisition (RLock) is not an ordering edge
            return
        self.edges.append(_Edge(src=src, dst=dst, path=self.pf.path,
                                line=node.lineno, col=node.col_offset))


def _find_cycles(edges: list[_Edge]) -> list[list[_Edge]]:
    """Elementary cycles in the edge list (DFS; deduped by node set)."""
    graph: dict[str, list[_Edge]] = {}
    for e in edges:
        graph.setdefault(e.src, []).append(e)
    cycles: list[list[_Edge]] = []
    seen_cycles: set[frozenset] = set()

    def dfs(node: str, path: list[_Edge], on_path: dict[str, int]) -> None:
        for edge in graph.get(node, ()):
            if edge.dst in on_path:
                cycle = path[on_path[edge.dst]:] + [edge]
                key = frozenset(e.src for e in cycle)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(cycle)
                continue
            on_path[edge.dst] = len(path) + 1
            dfs(edge.dst, path + [edge], on_path)
            del on_path[edge.dst]

    for start in sorted(graph):
        dfs(start, [], {start: 0})
    return cycles


def collect_lock_edges(project: Project) -> list[_Edge]:
    """The static lock-order edge list (the LOCK002 graph).

    Exposed for the ``SAN001`` checker, which verifies the *observed*
    runtime graph is a subset of this one.
    """
    classes: dict[str, _ClassInfo] = {}
    owners: dict[str, ParsedFile] = {}
    for pf in project.files:
        for info in _collect_guarded_classes(pf):
            classes[info.name] = info
            owners[info.name] = pf
    if not classes:
        return []
    universe = _Universe(project)
    eff = _effective_acquires(universe, classes)

    edges: list[_Edge] = []
    for info in classes.values():
        pf = owners[info.name]
        collector = _EdgeCollector(pf, info, universe, eff, edges)
        for method in _methods(info.node):
            for stmt in method.body:
                collector.scan(stmt, ())
    return edges


@checker("lock-order", scope="project", rules={"LOCK002": RULES["LOCK002"]},
         examples={"LOCK002": EXAMPLES["LOCK002"]})
def check_lock_order(project: Project) -> list[Finding]:
    edges = collect_lock_edges(project)
    findings: list[Finding] = []
    for cycle in _find_cycles(edges):
        chain = " -> ".join([cycle[0].src] + [e.dst for e in cycle])
        sites = ", ".join(f"{e.path}:{e.line}" for e in cycle)
        anchor = cycle[0]
        findings.append(Finding(
            rule="LOCK002", path=anchor.path, line=anchor.line,
            col=anchor.col,
            message=f"lock-order cycle {chain} (acquisition sites: {sites})"))
    return findings
