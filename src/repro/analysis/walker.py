"""The one abstract interpreter under shapecheck, perfcheck and detcheck.

A :class:`Walker` executes Python over a value domain that a subclass
supplies.  The walker owns the program's structure: statement and
expression dispatch; the environment, copied into every branch arm and
joined back; binding targets and evaluating call arguments (a backend
call binds once through its op-table row, :func:`bind_op`); the stacks
of open ``with bk.zone(...)`` blocks, loops and branch arms; and
findings — the first message at a ``(rule, line, col)`` wins, and a rule
outside the walker's catalog is dropped, which is how perfcheck runs
shapecheck's transfer functions without its findings and how
detcheck's summary pass stays silent.

A domain overrides the hooks at the bottom of the class: one per kind of
expression, binding to attributes and subscripts, ``return`` and
``x op= y``.  Where the analyzers walk control flow differently, the
domain declares it:

* ``LOOP = "widen"`` widens every name the loop assigns to ``TOP`` and
  runs the body once (shapecheck); ``"join"`` runs it twice, each pass
  joined with the pre-loop environment (detcheck);
* ``TRY = "branches"`` runs the body, each handler and the ``else`` arm
  as alternatives, each followed by ``finally``; ``"sequence"`` runs the
  body, joins in each handler, then ``else`` and ``finally``;
* :meth:`Walker.run_module` walks a module, ``def`` and ``class`` bodies
  included; detcheck's whole-program pass calls :meth:`Walker.run_body` once
  per function instead and sets ``WALKS_DEFS = False``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, RuleInfo, finding
from repro.analysis.rules import RuleContext
from repro.backend.ops import OPS

__all__ = ["Walker", "Zone", "CallArgs", "Operand", "bind_op", "assigned_names"]

Env = Dict[str, Any]


@dataclass
class Zone:
    """One open ``with bk.zone(name)`` block (+ shapecheck's dtype policy state)."""

    name: str
    float_dtypes: Set[str] = field(default_factory=set)
    reported: bool = False


class CallArgs(NamedTuple):
    """A call's operands, evaluated in this order."""

    args: List[Any]  # positional values; ``*xs`` contributes the value of xs
    starred: bool  # some positional was ``*xs``: the arity is unknown
    keywords: List[Tuple[Optional[str], Any]]  # name is None for ``**kw``
    receiver: Any  # ``obj`` of ``obj.method(...)``; None for a bare callee


class Operand(NamedTuple):
    """One bound operand of a backend call."""

    expr: Optional[ast.expr]  # None when the op's default filled it
    value: Any


def bind_op(method: str, node: ast.Call, call: CallArgs) -> Optional[Dict[str, Operand]]:
    """A backend call's operands by protocol name, bound once by its op-table row.

    ``None`` when ``method`` is not a backend op or the call does not fit
    the row (wrong arity, unknown keyword, a ``*args`` of unknown
    length): such a call is not modelled.
    """
    spec = OPS.get(method)
    if spec is None or call.starred:
        return None
    args = [Operand(expr, value) for expr, value in zip(node.args, call.args)]
    kwargs = {
        name: Operand(kw.value, value)
        for kw, (name, value) in zip(node.keywords, call.keywords)
        if name is not None
    }
    try:
        bound = spec.bind(args, kwargs)
    except TypeError:
        return None
    return {
        name: arg if isinstance(arg, Operand) else Operand(None, arg)
        for name, arg in bound.items()
    }


def assigned_names(node: ast.AST) -> Set[str]:
    """Every name ``node`` may store to: ``x``, ``x.attr`` and the ``x`` of ``x[i]``."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if not isinstance(getattr(child, "ctx", None), ast.Store):
            continue
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
            names.add(f"{child.value.id}.{child.attr}")
        elif isinstance(child, ast.Subscript) and isinstance(child.value, ast.Name):
            names.add(child.value.id)
    return names


class Walker:
    """Walk one module or function body over a subclass's value domain."""

    LOOP = "widen"
    TRY = "branches"
    WALKS_DEFS = True
    #: The unknown value (what ``"widen"`` loops bind).
    TOP: Any = None

    def __init__(self, ctx: RuleContext, catalog: Mapping[str, RuleInfo]) -> None:
        self.ctx = ctx
        self.catalog = catalog
        self.env: Env = {}
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, int, int]] = set()
        self.zones: List[Zone] = []
        self.loops: List[Tuple[ast.stmt, Any]] = []  # (loop, abstract item)
        self.branch_path: List[int] = []  # ids of the enclosing branch arms
        self._arms = 0

    # -- findings ------------------------------------------------------
    def emit(self, rule_name: str, where: Any, message: str, hint: str) -> None:
        """Report ``rule_name`` at ``where`` (a node or ``(line, col)``)."""
        rule = self.catalog.get(rule_name)
        if rule is None:
            return
        new = finding(rule, self.ctx.path, where, message, hint)
        key = (new.rule_id, new.line, new.col)
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append(new)

    # -- entries -------------------------------------------------------
    def run_module(self) -> List[Finding]:
        """Walk the whole module; its findings in report order."""
        self.exec_block(self.ctx.tree.body)
        return sorted(self.findings, key=lambda f: f.sort_key)

    def run_body(self, body: Sequence[ast.stmt], env: Env) -> None:
        """Walk a function or class body in ``env``.  It does not run
        where it is defined, so the enclosing zones, loops and branch
        arms do not apply inside."""
        saved = (self.env, self.zones, self.loops, self.branch_path)
        self.env, self.zones, self.loops, self.branch_path = env, [], [], []
        try:
            self.exec_block(body)
        finally:
            self.env, self.zones, self.loops, self.branch_path = saved

    # ==================================================================
    # statements
    # ==================================================================
    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self.bind(target, value, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            self.ann_assign(stmt, None if stmt.value is None else self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self.aug_assign(stmt, self.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            self.returns(stmt, None if stmt.value is None else self.eval(stmt.value))
        elif isinstance(stmt, ast.If):
            self.condition(stmt)
            self.run_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            self._exec_loop(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._exec_with(stmt)
        elif isinstance(stmt, ast.Try):
            self._exec_try(stmt)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif not self.WALKS_DEFS:
            return
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._exec_def(stmt)
        elif isinstance(stmt, ast.ClassDef):
            self.run_body(stmt.body, {})
        # Import/Pass/Break/Continue/Global/Nonlocal/Match: no abstract
        # effect (imports are pre-resolved into ctx.aliases).

    def _exec_def(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        defaults: Dict[str, Any] = {}
        with_default = positional[len(positional) - len(args.defaults):]
        for arg, default in zip(with_default, args.defaults):
            defaults[arg.arg] = self.eval(default)
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None:
                defaults[arg.arg] = self.eval(kw_default)
        params = [
            *positional,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]
        self.run_body(
            node.body, {arg.arg: self.param(arg, defaults.get(arg.arg)) for arg in params}
        )

    def _exec_loop(self, stmt: ast.For | ast.AsyncFor | ast.While) -> None:
        if isinstance(stmt, ast.While):
            self.condition(stmt)
            item = None
        else:
            item = self.loop_item(stmt, self.eval(stmt.iter))
        if self.LOOP == "widen":
            self.havoc(stmt)
            self._loop_pass(stmt, item)
            self.exec_block(stmt.orelse)
            self.havoc(stmt)
        else:
            pre = self.copy_env(self.env)
            for _ in range(2):
                self._loop_pass(stmt, item)
                self.env = self.join([self.env, pre])
            self.exec_block(stmt.orelse)

    def _loop_pass(self, stmt: ast.For | ast.AsyncFor | ast.While, item: Any) -> None:
        """One abstract iteration: bind the target, run the body in the loop."""
        if not isinstance(stmt, ast.While):
            self.bind(stmt.target, item, stmt)
        self.loops.append((stmt, item))
        try:
            self.exec_block(stmt.body)
        finally:
            self.loops.pop()

    def havoc(self, node: ast.stmt) -> None:
        """Widen every name ``node`` may assign to ``TOP``."""
        for name in assigned_names(node):
            self.env[name] = self.TOP

    def _exec_with(self, stmt: ast.With | ast.AsyncWith) -> None:
        zone: Optional[str] = None
        for item in stmt.items:
            name = self.zone_of(item.context_expr)
            if name is not None and zone is None:
                zone = name
                continue
            value = self.eval(item.context_expr)
            if item.optional_vars is not None:
                self.bind(item.optional_vars, self.entered(value), stmt)
        if zone is None:
            self.exec_block(stmt.body)
            return
        self.zones.append(Zone(zone))
        try:
            self.exec_block(stmt.body)
        finally:
            self.zones.pop()

    def _exec_try(self, stmt: ast.Try) -> None:
        if self.TRY == "branches":
            arms = [stmt.body + stmt.finalbody]
            arms += [handler.body + stmt.finalbody for handler in stmt.handlers]
            if stmt.orelse:
                arms.append(stmt.body + stmt.orelse + stmt.finalbody)
            self.run_branches(arms)
            return
        self.exec_block(stmt.body)
        pre = self.copy_env(self.env)
        for handler in stmt.handlers:
            saved = self.copy_env(self.env)
            self.exec_block(handler.body)
            self.env = self.join([self.env, saved])
        self.env = self.join([self.env, pre])
        self.exec_block(stmt.orelse)
        self.exec_block(stmt.finalbody)

    # -- environments --------------------------------------------------
    def run_branches(self, arms: Sequence[Sequence[ast.stmt]]) -> None:
        """Run each arm on a copy of the environment; join the outcomes."""
        pre = self.env
        outcomes: List[Env] = []
        for arm in arms:
            self.env = self.copy_env(pre)
            self._arms += 1
            self.branch_path.append(self._arms)
            try:
                self.exec_block(arm)
            finally:
                self.branch_path.pop()
            outcomes.append(self.env)
        self.env = self.join(outcomes)

    def copy_env(self, env: Env) -> Env:
        return {name: self.copy_value(value) for name, value in env.items()}

    def join(self, envs: Sequence[Env]) -> Env:
        """Point-wise join; a name some environments lack joins as incomplete."""
        joined: Env = {}
        for env in envs:
            for name in env:
                if name not in joined:
                    present = [other[name] for other in envs if name in other]
                    joined[name] = self.join_values(present, len(present) == len(envs))
        return joined

    # -- binding -------------------------------------------------------
    def bind(self, target: ast.expr, value: Any, stmt: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.copy_value(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt, item in zip(target.elts, self.unpack(value, target)):
                self.bind(elt.value if isinstance(elt, ast.Starred) else elt, item, stmt)
        elif isinstance(target, ast.Attribute):
            self.bind_attribute(target, value)
        elif isinstance(target, ast.Subscript):
            self.bind_subscript(target, value, stmt)

    # ==================================================================
    # expressions
    # ==================================================================
    def eval(self, node: ast.expr) -> Any:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.copy_value(self.env[node.id])
            return self.global_name(node)
        if isinstance(node, ast.Constant):
            return self.constant(node)
        if isinstance(node, ast.Attribute):
            return self.attribute(node, self.eval(node.value))
        if isinstance(node, ast.Call):
            return self.call(node, self.call_args(node))
        if isinstance(node, ast.Subscript):
            return self.subscript(node, self.eval(node.value))
        if isinstance(node, (ast.Tuple, ast.List)):
            return self.sequence(node, [
                self.eval(elt.value if isinstance(elt, ast.Starred) else elt)
                for elt in node.elts
            ])
        if isinstance(node, ast.BinOp):
            return self.operator(node, [self.eval(node.left), self.eval(node.right)])
        if isinstance(node, ast.UnaryOp):
            return self.operator(node, [self.eval(node.operand)])
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            return self.operator(node, [self.eval(operand) for operand in operands])
        if isinstance(node, ast.BoolOp):
            return self.operator(node, [self.eval(value) for value in node.values])
        if isinstance(node, ast.IfExp):
            test = self.eval(node.test)
            return self.if_exp(node, test, self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value)
            self.bind(node.target, value, node)
            return value
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        return self.other(node)

    def call_args(self, node: ast.Call) -> CallArgs:
        """Evaluate positional, then keyword arguments, then the receiver."""
        args = [
            self.eval(arg.value if isinstance(arg, ast.Starred) else arg)
            for arg in node.args
        ]
        keywords = [(kw.arg, self.eval(kw.value)) for kw in node.keywords]
        receiver = (
            self.eval(node.func.value) if isinstance(node.func, ast.Attribute) else None
        )
        return CallArgs(
            args,
            any(isinstance(arg, ast.Starred) for arg in node.args),
            keywords,
            receiver,
        )

    # ==================================================================
    # domain hooks (the defaults know nothing)
    # ==================================================================
    def copy_value(self, value: Any) -> Any:
        return value

    def join_values(self, values: List[Any], complete: bool) -> Any:
        """One name's values from the arms that bound it (``complete``: all did)."""
        first = values[0]
        return first if complete and all(v == first for v in values[1:]) else self.TOP

    def unpack(self, value: Any, target: ast.Tuple | ast.List) -> List[Any]:
        return [self.TOP] * len(target.elts)

    def bind_attribute(self, target: ast.Attribute, value: Any) -> None:
        pass

    def bind_subscript(self, target: ast.Subscript, value: Any, stmt: ast.AST) -> None:
        self.eval(target.value)

    def ann_assign(self, stmt: ast.AnnAssign, value: Any) -> None:
        if stmt.value is not None:
            self.bind(stmt.target, value, stmt)

    def aug_assign(self, stmt: ast.AugAssign, value: Any) -> None:
        pass

    def returns(self, stmt: ast.Return, value: Any) -> None:
        pass

    def condition(self, stmt: ast.If | ast.While) -> None:
        self.eval(stmt.test)

    def loop_item(self, stmt: ast.For | ast.AsyncFor, iterable: Any) -> Any:
        return self.TOP

    def zone_of(self, expr: ast.expr) -> Optional[str]:
        """The kernel zone a ``with`` item opens, if any."""
        return None

    def entered(self, value: Any) -> Any:
        """What ``with <value> as x`` binds to ``x``."""
        return value

    def param(self, arg: ast.arg, default: Any) -> Any:
        """A nested ``def``'s parameter, given its evaluated default."""
        return self.TOP

    def global_name(self, node: ast.Name) -> Any:
        return self.TOP

    def constant(self, node: ast.Constant) -> Any:
        return self.TOP

    def attribute(self, node: ast.Attribute, base: Any) -> Any:
        return self.TOP

    def subscript(self, node: ast.Subscript, base: Any) -> Any:
        """``base[...]``: the hook evaluates the index as it needs."""
        return self.TOP

    def sequence(self, node: ast.Tuple | ast.List, items: List[Any]) -> Any:
        return self.TOP

    def operator(self, node: ast.expr, operands: List[Any]) -> Any:
        """A ``BinOp``, ``UnaryOp``, ``Compare`` or ``BoolOp``."""
        return self.TOP

    def if_exp(self, node: ast.IfExp, test: Any, body: Any, orelse: Any) -> Any:
        return self.TOP

    def call(self, node: ast.Call, call: CallArgs) -> Any:
        """A call; a bare callee (``f(...)``) is left to the hook."""
        return self.TOP

    def other(self, node: ast.expr) -> Any:
        """Dict/set literals, comprehensions, f-strings, lambdas, await,
        yield, slices: the hook evaluates what it needs."""
        return self.TOP
