"""Whole-program index and call graph for detcheck.

The program is the set of modules handed to one ``detcheck`` run.  Each
module is parsed once through reprolint's :func:`build_context` (so the
import-alias map — ``np`` → ``numpy``, ``from repro.utils.rng import
ensure_rng`` → ``repro.utils.rng.ensure_rng`` — is shared with the
linter), then indexed three ways:

* **by qualname** — ``repro.sharding.server.ShardedParameterServer.
  state_arrays``; a ``def`` nested in a function body (a closure such
  as the pipelined trainer's ``drain_one``) is indexed too, as
  ``<enclosing qualname>.<locals>.<name>``, the way Python names it.
  A name a package ``__init__`` re-exports (``from repro.embeddings
  import plan_under_budget``) resolves to the module that defines it;
* **by module-local name** — for resolving bare calls and ``self.m()``
  (a bare call resolves to a closure of an enclosing scope first);
* **by bare method name** — the fallback for ``x.m(...)`` receiver
  calls, which merges the summaries of *every* program function named
  ``m``.  This is deliberately CHA-style imprecise in the sound
  direction: merged summaries can only add taints/flows, never drop a
  finding.

:func:`Program.scc_order` returns Tarjan SCCs callee-first so the
summary pass can run bottom-up, iterating each cycle to a fixpoint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.rules import RuleContext, build_context
from repro.analysis.detcheck.taint import Value, annotation_value

__all__ = ["FunctionInfo", "ModuleInfo", "Program", "build_program"]

#: Receiver-call attribute names never resolved against program
#: functions: ubiquitous builtin/container protocol names that would
#: otherwise merge unrelated summaries (``d.get`` vs ``Queue.get`` is
#: disambiguated by the receiver's container shape instead).
_NO_MERGE_ATTRS = frozenset(
    {
        "append", "extend", "add", "update", "pop", "remove", "clear",
        "items", "keys", "values", "copy", "join", "split", "strip",
        "format", "encode", "decode", "sort", "reverse", "index",
        "count", "startswith", "endswith", "read", "write", "close",
    }
)


#: Qualname infix of a function defined in another function's body.
_LOCALS = ".<locals>."


@dataclass
class FunctionInfo:
    """One program function (or method)."""

    qualname: str
    name: str
    module: str
    class_name: Optional[str]
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Explicit parameter names, ``self``/``cls`` stripped for methods.
    params: Tuple[str, ...] = ()
    #: Abstract values implied by the parameter annotations, aligned
    #: with :attr:`params`.
    param_values: Tuple[Value, ...] = ()
    #: Abstract value implied by the return annotation.
    return_value: Value = field(default_factory=Value)

    @property
    def enclosing(self) -> Optional[str]:
        """Qualname of the function whose body defines this one, if any."""
        scope, sep, _ = self.qualname.rpartition(_LOCALS)
        return scope if sep else None


@dataclass
class ModuleInfo:
    """One parsed module plus its detcheck-specific indexes."""

    modname: str
    ctx: RuleContext
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Class name -> attribute name -> annotation-derived value
    #: (``self.components`` resolving to ``Dict[str, float]``).
    class_attrs: Dict[str, Dict[str, Value]] = field(default_factory=dict)


def _module_name(rel: str) -> str:
    stem = rel[:-3] if rel.endswith(".py") else rel
    return stem.replace("/", ".")


def _function_info(
    node: ast.AST,
    modname: str,
    class_name: Optional[str],
    scope: Optional[str] = None,
) -> FunctionInfo:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    arg_nodes = list(node.args.posonlyargs) + list(node.args.args)
    if class_name and arg_nodes and arg_nodes[0].arg in ("self", "cls"):
        arg_nodes = arg_nodes[1:]
    params = tuple(a.arg for a in arg_nodes)
    param_values = tuple(annotation_value(a.annotation) for a in arg_nodes)
    if scope is not None:
        prefix = f"{scope}{_LOCALS}"
    elif class_name:
        prefix = f"{modname}.{class_name}."
    else:
        prefix = f"{modname}."
    return FunctionInfo(
        qualname=f"{prefix}{node.name}",
        name=node.name,
        module=modname,
        class_name=class_name,
        node=node,
        params=params,
        param_values=param_values,
        return_value=annotation_value(node.returns),
    )


def _nested_defs(node: ast.AST) -> List[ast.AST]:
    """The ``def``s directly inside a function body, at any statement
    depth, without entering nested functions, classes or lambdas."""
    found: List[ast.AST] = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(child)
        elif not isinstance(child, (ast.ClassDef, ast.Lambda)):
            found.extend(_nested_defs(child))
    return found


def _add_function(info: ModuleInfo, fn: FunctionInfo) -> None:
    """Index ``fn`` and, recursively, the closures defined in its body."""
    info.functions[fn.qualname] = fn
    for node in _nested_defs(fn.node):
        _add_function(info, _function_info(node, info.modname, None, fn.qualname))


def _index_module(ctx: RuleContext) -> ModuleInfo:
    info = ModuleInfo(modname=_module_name(ctx.rel), ctx=ctx)
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _add_function(info, _function_info(node, info.modname, None))
        elif isinstance(node, ast.ClassDef):
            attrs: Dict[str, Value] = {}
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    attrs[item.target.id] = annotation_value(item.annotation)
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _add_function(
                        info, _function_info(item, info.modname, node.name)
                    )
                    if item.name == "__init__":
                        for stmt in ast.walk(item):
                            if (
                                isinstance(stmt, ast.AnnAssign)
                                and isinstance(stmt.target, ast.Attribute)
                                and isinstance(stmt.target.value, ast.Name)
                                and stmt.target.value.id == "self"
                            ):
                                attrs.setdefault(
                                    stmt.target.attr,
                                    annotation_value(stmt.annotation),
                                )
            info.class_attrs[node.name] = attrs
    return info


@dataclass
class Program:
    """All modules of one detcheck run plus the call graph."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    by_name: Dict[str, List[str]] = field(default_factory=dict)

    def add_module(self, info: ModuleInfo) -> None:
        self.modules[info.modname] = info
        for qualname, fn in info.functions.items():
            self.functions[qualname] = fn
            if _LOCALS not in qualname:  # a closure is never x.m()
                self.by_name.setdefault(fn.name, []).append(qualname)

    # -- call resolution ---------------------------------------------

    def resolve_callees(
        self, fn: FunctionInfo, call: ast.Call
    ) -> List[FunctionInfo]:
        """Program functions a call may dispatch to (possibly empty)."""
        module = self.modules[fn.module]
        if isinstance(call.func, ast.Name):
            closure = self._closure(fn.qualname, call.func.id)
            if closure is not None:
                return [closure]
        resolved = module.ctx.resolve_call(call.func)
        if resolved is not None:
            if resolved in self.functions:
                return [self.functions[resolved]]
            local = f"{fn.module}.{resolved}"
            if local in self.functions:
                return [self.functions[local]]
            exported = self._reexported(resolved)
            if exported is not None:
                return [exported]
        func = call.func
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and fn.class_name is not None
            ):
                own = f"{fn.module}.{fn.class_name}.{func.attr}"
                if own in self.functions:
                    return [self.functions[own]]
            if func.attr in _NO_MERGE_ATTRS or func.attr.startswith("__"):
                return []
            return [
                self.functions[q] for q in self.by_name.get(func.attr, ())
            ]
        return []

    def _reexported(self, dotted: str) -> Optional[FunctionInfo]:
        """The program function a package ``__init__`` re-exports.

        ``repro.embeddings.plan_under_budget`` is
        ``repro.embeddings.planner.plan_under_budget``: the package
        imports it from there.  Chains of re-exports are followed.
        """
        seen: Set[str] = set()
        while dotted not in self.functions and dotted not in seen:
            seen.add(dotted)
            package, _, name = dotted.rpartition(".")
            init = self.modules.get(f"{package}.__init__")
            if init is None or name not in init.ctx.aliases:
                return None
            dotted = init.ctx.aliases[name]
        return self.functions.get(dotted)

    def _closure(self, scope: str, name: str) -> Optional[FunctionInfo]:
        """The ``def name`` of ``scope`` or of a scope enclosing it."""
        while True:
            local = self.functions.get(f"{scope}{_LOCALS}{name}")
            if local is not None:
                return local
            if _LOCALS not in scope:
                return None
            scope = scope.rsplit(_LOCALS, 1)[0]

    # -- bottom-up order ---------------------------------------------

    def scc_order(self) -> List[List[str]]:
        """Tarjan SCCs, emitted callees-first (iterative)."""
        edges: Dict[str, List[str]] = {}
        for qualname, fn in self.functions.items():
            targets: List[str] = []
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    targets.extend(
                        c.qualname for c in self.resolve_callees(fn, node)
                    )
            edges[qualname] = targets

        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        for root in self.functions:
            if root in index:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, edge_idx = work[-1]
                if edge_idx == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack[node] = True
                advanced = False
                targets = edges[node]
                while edge_idx < len(targets):
                    succ = targets[edge_idx]
                    edge_idx += 1
                    if succ not in index:
                        work[-1] = (node, edge_idx)
                        work.append((succ, 0))
                        advanced = True
                        break
                    if on_stack.get(succ):
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work[-1] = (node, edge_idx)
                if edge_idx >= len(targets):
                    work.pop()
                    if lowlink[node] == index[node]:
                        component: List[str] = []
                        while True:
                            member = stack.pop()
                            on_stack[member] = False
                            component.append(member)
                            if member == node:
                                break
                        sccs.append(component)
                    if work:
                        parent = work[-1][0]
                        lowlink[parent] = min(lowlink[parent], lowlink[node])
        return sccs


def build_program(
    files: List[Tuple[Path, str, str]],
) -> Program:
    """Parse ``(path, rel, source)`` triples into a :class:`Program`.

    Raises ``SyntaxError`` for unparsable sources — callers handle the
    per-file DET000 bookkeeping.
    """
    program = Program()
    for path, rel, source in files:
        ctx = build_context(path, rel, source)
        program.add_module(_index_module(ctx))
    return program
