"""The statement and expression dispatcher under detcheck.

A :class:`Walker` executes one function body over a value domain that a
subclass supplies (:class:`~repro.analysis.detcheck.interp.FunctionInterpreter`).
The walker owns the program's structure: statement and expression
dispatch; the environment, copied into every branch arm and joined back;
binding targets and evaluating call arguments; the stack of open loops;
and findings — the first message at a ``(rule, line, col)`` wins, and a
rule outside the walker's catalog is dropped, which is how detcheck's
summary pass stays silent.

Control flow is walked one way:

* a loop body runs twice, each pass joined with the pre-loop environment;
* ``try`` runs the body, joins in each handler, then ``else`` and
  ``finally``;
* ``def`` and ``class`` statements have no effect: detcheck's
  whole-program pass walks each function through :meth:`Walker.run_body`.

The domain implements the hooks at the bottom of the class: one per kind
of expression, binding to attributes and subscripts, ``return`` and
``x op= y``.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, RuleInfo, finding
from repro.analysis.rules import RuleContext

__all__ = ["Walker", "CallArgs"]

Env = Dict[str, Any]


class CallArgs(NamedTuple):
    """A call's operands, evaluated in this order."""

    args: List[Any]  # positional values; ``*xs`` contributes the value of xs
    starred: bool  # some positional was ``*xs``: the arity is unknown
    keywords: List[Tuple[Optional[str], Any]]  # name is None for ``**kw``
    receiver: Any  # ``obj`` of ``obj.method(...)``; None for a bare callee


class Walker:
    """Walk one function body over a subclass's value domain."""

    def __init__(self, ctx: RuleContext, catalog: Mapping[str, RuleInfo]) -> None:
        self.ctx = ctx
        self.catalog = catalog
        self.env: Env = {}
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, int, int]] = set()
        self.loops: List[Tuple[ast.stmt, Any]] = []  # (loop, abstract item)

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

    # -- entry ---------------------------------------------------------
    def run_body(self, body: Sequence[ast.stmt], env: Env) -> None:
        """Walk a function body in ``env``."""
        self.env = env
        self.exec_block(body)

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
            for item in stmt.items:
                value = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, value, stmt)
            self.exec_block(stmt.body)
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
        # Def/Class/Import/Pass/Break/Continue/Global/Nonlocal/Match: no
        # abstract effect (imports are pre-resolved into ctx.aliases).

    def _exec_loop(self, stmt: ast.For | ast.AsyncFor | ast.While) -> None:
        if isinstance(stmt, ast.While):
            self.condition(stmt)
            item = None
        else:
            item = self.loop_item(stmt, self.eval(stmt.iter))
        pre = self.copy_env(self.env)
        for _ in range(2):
            if not isinstance(stmt, ast.While):
                self.bind(stmt.target, item, stmt)
            self.loops.append((stmt, item))
            try:
                self.exec_block(stmt.body)
            finally:
                self.loops.pop()
            self.env = self.join([self.env, pre])
        self.exec_block(stmt.orelse)

    def _exec_try(self, stmt: ast.Try) -> None:
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
            self.exec_block(arm)
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
    # domain hooks
    # ==================================================================
    def copy_value(self, value: Any) -> Any:
        raise NotImplementedError

    def join_values(self, values: List[Any], complete: bool) -> Any:
        """One name's values from the arms that bound it (``complete``: all did)."""
        raise NotImplementedError

    def unpack(self, value: Any, target: ast.Tuple | ast.List) -> List[Any]:
        raise NotImplementedError

    def bind_attribute(self, target: ast.Attribute, value: Any) -> None:
        raise NotImplementedError

    def bind_subscript(self, target: ast.Subscript, value: Any, stmt: ast.AST) -> None:
        raise NotImplementedError

    def ann_assign(self, stmt: ast.AnnAssign, value: Any) -> None:
        raise NotImplementedError

    def aug_assign(self, stmt: ast.AugAssign, value: Any) -> None:
        raise NotImplementedError

    def returns(self, stmt: ast.Return, value: Any) -> None:
        raise NotImplementedError

    def condition(self, stmt: ast.If | ast.While) -> None:
        raise NotImplementedError

    def loop_item(self, stmt: ast.For | ast.AsyncFor, iterable: Any) -> Any:
        raise NotImplementedError

    def global_name(self, node: ast.Name) -> Any:
        raise NotImplementedError

    def constant(self, node: ast.Constant) -> Any:
        raise NotImplementedError

    def attribute(self, node: ast.Attribute, base: Any) -> Any:
        raise NotImplementedError

    def subscript(self, node: ast.Subscript, base: Any) -> Any:
        """``base[...]``: the hook evaluates the index as it needs."""
        raise NotImplementedError

    def sequence(self, node: ast.Tuple | ast.List, items: List[Any]) -> Any:
        raise NotImplementedError

    def operator(self, node: ast.expr, operands: List[Any]) -> Any:
        """A ``BinOp``, ``UnaryOp``, ``Compare`` or ``BoolOp``."""
        raise NotImplementedError

    def if_exp(self, node: ast.IfExp, test: Any, body: Any, orelse: Any) -> Any:
        raise NotImplementedError

    def call(self, node: ast.Call, call: CallArgs) -> Any:
        """A call; a bare callee (``f(...)``) is left to the hook."""
        raise NotImplementedError

    def other(self, node: ast.expr) -> Any:
        """Dict/set literals, comprehensions, f-strings, lambdas, await,
        yield, slices: the hook evaluates what it needs."""
        raise NotImplementedError
