"""The determinism-taint interpreter.

One :class:`FunctionInterpreter` abstractly executes one function body
over the :class:`~.taint.Value` lattice.  The same pass serves two
masters:

* **summary mode** (``report=False``) — runs during the bottom-up
  fixpoint to produce a :class:`~.taint.FunctionSummary`;
* **report mode** (``report=True``) — runs once per function after
  summaries converge, emitting :class:`Finding` records for DET001–
  DET006.

Loops are havoc-widened lightly: the body is interpreted twice with the
environment joined against the pre-loop state between passes, which is
enough for the accumulate-then-store patterns this codebase uses while
keeping the pass linear.  Branches interpret both arms on cloned
environments and join.  Everything unknown stays untainted and ordered
(one-sided soundness: detcheck never reports from ignorance).

Interprocedural glue: call sites resolve through
:meth:`Program.resolve_callees`; callee summaries inject source taints
into return values, forward argument taints along ``param_flow``, and
flag DET001 when a tainted argument lands in a callee's checkpoint sink
position.  DET004 is the showpiece: a call inside a determinism zone to
a helper whose summary returns ``ENTROPY_RNG`` fires at the *call
site*, which is where the invariant breaks.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.detcheck.callgraph import (
    FunctionInfo,
    ModuleInfo,
    Program,
)
from repro.analysis.detcheck.catalog import (
    ADDRESS_CALLS,
    COPY_CALLS,
    DET_RULES,
    DETERMINISM_ZONES,
    ENTROPY_RNG_CALLS,
    ENV_ATTRS,
    ENV_CALLS,
    ORDER_INSENSITIVE_REDUCERS,
    ORDER_SENSITIVE_COMBINERS,
    PAYLOAD_FUNCTION_NAMES,
    PAYLOAD_WRITER_CALLS,
    PLACEMENT_CONSTRUCTORS,
    RNG_COERCERS,
    SIMCLOCK_DECISION_ZONES,
    SOURCE_LABEL,
    STATE_SINK_METHODS,
    SourceKind,
    WALL_CLOCK_CALLS,
)
from repro.analysis.detcheck.taint import (
    FunctionSummary,
    Taint,
    Value,
    annotation_value,
)
from repro.analysis.findings import Finding
from repro.analysis.rules import RNG_EXEMPT_FILES

__all__ = [
    "FunctionInterpreter",
    "compute_summaries",
    "module_findings",
]

#: Loop context: is the innermost loop's iteration order canonical,
#: and which names did it bind?
_LoopCtx = Tuple[bool, Set[str]]

_DICT_VIEWS = ("items", "keys", "values")
_INPLACE_METHODS = frozenset({"fill", "sort", "partial_fill"})
_FLOAT_OPS = (ast.Add, ast.Sub)


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class FunctionInterpreter:
    """Abstractly execute one function body (see module docstring)."""

    def __init__(
        self,
        program: Program,
        fn: FunctionInfo,
        summaries: Dict[str, FunctionSummary],
        module_env: Dict[str, Value],
        report: bool,
    ) -> None:
        self.program = program
        self.fn = fn
        self.module: ModuleInfo = program.modules[fn.module]
        self.ctx = self.module.ctx
        self.summaries = summaries
        self.module_env = module_env
        self.report = report
        self.env: Dict[str, Value] = {}
        self.self_attrs: Dict[str, Value] = {}
        self.findings: List[Finding] = []
        self._emitted: Set[Tuple[str, int, int]] = set()
        self.loop_stack: List[_LoopCtx] = []
        self.returned: List[Value] = []
        self.sink_params: Set[int] = set()
        self.is_payload = self._detect_payload()

    # -- setup --------------------------------------------------------

    def _detect_payload(self) -> bool:
        if self.fn.name in PAYLOAD_FUNCTION_NAMES:
            return True
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Call):
                if self.ctx.resolve_call(node.func) in PAYLOAD_WRITER_CALLS:
                    return True
        return False

    def run(self) -> FunctionSummary:
        for idx, name in enumerate(self.fn.params):
            value = self.fn.param_values[idx].clone()
            value.param_deps = {idx}
            self.env[name] = value
        if self.fn.class_name is not None:
            for attr, value in self.module.class_attrs.get(
                self.fn.class_name, {}
            ).items():
                self.self_attrs[attr] = value.clone()
        body = getattr(self.fn.node, "body", [])
        self.exec_block(body)
        return self._summary()

    def _summary(self) -> FunctionSummary:
        kinds: Set[SourceKind] = set()
        param_flow: Set[int] = set()
        containers: Set[Optional[str]] = set()
        returns_float = self.fn.return_value.is_float
        for value in self.returned:
            kinds |= value.kinds
            param_flow |= value.param_deps
            containers.add(value.container)
            returns_float = returns_float or value.is_float
        container = self.fn.return_value.container
        if len(containers) == 1:
            inferred = next(iter(containers))
            container = inferred if inferred is not None else container
        return FunctionSummary(
            returns=frozenset(kinds),
            param_flow=frozenset(param_flow),
            returns_container=container,
            returns_float=returns_float,
            checkpoint_sink_params=frozenset(self.sink_params),
        )

    # -- findings -----------------------------------------------------

    def _emit(
        self, rule_name: str, node: ast.AST, message: str, hint: str
    ) -> None:
        if not self.report:
            return
        rule = DET_RULES[rule_name]
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        key = (rule.id, line, col)
        if key in self._emitted:
            return
        self._emitted.add(key)
        self.findings.append(
            Finding(
                rule=rule.name,
                rule_id=rule.id,
                severity=rule.severity,
                path=self.ctx.path,
                line=line,
                col=col,
                message=message,
                hint=hint,
            )
        )

    def _taint_detail(self, value: Value) -> str:
        details = sorted(
            f"{t.detail} (line {t.line})" for t in value.taints
        )
        return "; ".join(details)

    def _check_tainted_sink(
        self, node: ast.AST, value: Value, sink: str
    ) -> None:
        if value.taints:
            labels = sorted(SOURCE_LABEL[k] for k in value.kinds)
            self._emit(
                "tainted-state",
                node,
                f"{' + '.join(labels)} from {self._taint_detail(value)} "
                f"flows into {sink}",
                "derive the value from the seeded configuration (or drop "
                "it from the persisted/applied state)",
            )

    # -- environment helpers ------------------------------------------

    def _join_env(
        self, left: Dict[str, Value], right: Dict[str, Value]
    ) -> Dict[str, Value]:
        out: Dict[str, Value] = {}
        for key in set(left) | set(right):
            if key in left and key in right:
                out[key] = left[key].merge(right[key])
            else:
                out[key] = (left.get(key) or right[key]).clone()
        return out

    def _copy_env(self) -> Dict[str, Value]:
        return {name: value.clone() for name, value in self.env.items()}

    def _in_unordered_loop(self) -> bool:
        return any(unordered for unordered, _ in self.loop_stack)

    def _loop_vars(self) -> Set[str]:
        names: Set[str] = set()
        for _, bound in self.loop_stack:
            names |= bound
        return names

    # -- statements ---------------------------------------------------

    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, value, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            value = (
                self.eval(stmt.value) if stmt.value is not None else Value()
            )
            ann = annotation_value(stmt.annotation)
            if ann.container is not None and value.container is None:
                value.container = ann.container
            value.is_float = value.is_float or ann.is_float
            value.value_is_float = value.value_is_float or ann.value_is_float
            self._assign(stmt.target, value, stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._exec_augassign(stmt)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt)
        elif isinstance(stmt, ast.While):
            self._check_decision(stmt.test, stmt)
            self.eval(stmt.test)
            pre = self._copy_env()
            self.exec_block(stmt.body)
            self.env = self._join_env(self.env, pre)
            self.exec_block(stmt.body)
            self.env = self._join_env(self.env, pre)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._check_decision(stmt.test, stmt)
            self.eval(stmt.test)
            pre = self._copy_env()
            self.exec_block(stmt.body)
            taken = self.env
            self.env = pre
            self.exec_block(stmt.orelse)
            self.env = self._join_env(taken, self.env)
        elif isinstance(stmt, ast.Return):
            value = (
                self.eval(stmt.value) if stmt.value is not None else Value()
            )
            self.returned.append(value)
            if self.is_payload and value.taints:
                self._check_tainted_sink(
                    stmt, value, "the returned checkpoint payload"
                )
            if self.is_payload:
                self.sink_params |= value.param_deps
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                value = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, value, stmt)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            pre = self._copy_env()
            for handler in stmt.handlers:
                saved = self._copy_env()
                self.exec_block(handler.body)
                self.env = self._join_env(self.env, saved)
            self.env = self._join_env(self.env, pre)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
        # Nested defs/classes and pass/import/global are not descended.

    def _exec_for(self, stmt: ast.For) -> None:
        iter_value = self.eval(stmt.iter)
        unordered = iter_value.unordered or iter_value.container in (
            "dict",
            "set",
        )
        element = Value(
            taints=set(iter_value.taints),
            is_float=iter_value.is_float or iter_value.value_is_float,
            value_is_float=iter_value.value_is_float,
            unordered=unordered,
            param_deps=set(iter_value.param_deps),
        )
        bound = _names_in(stmt.target)
        pre = self._copy_env()
        self._assign(stmt.target, element, stmt)
        self.loop_stack.append((unordered, bound))
        self.exec_block(stmt.body)
        self.env = self._join_env(self.env, pre)
        self._assign(stmt.target, element, stmt)
        self.exec_block(stmt.body)
        self.loop_stack.pop()
        self.env = self._join_env(self.env, pre)
        self.exec_block(stmt.orelse)

    def _exec_augassign(self, stmt: ast.AugAssign) -> None:
        rhs = self.eval(stmt.value)
        if isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            current = self.env.get(name, Value())
            if (
                self._in_unordered_loop()
                and current.is_float
                and isinstance(stmt.op, _FLOAT_OPS)
                and (_names_in(stmt.value) & self._loop_vars())
            ):
                self._emit(
                    "unordered-float-accum",
                    stmt,
                    f"float accumulation into {name!r} iterates a "
                    "dict/set, so the rounding depends on insertion/"
                    "hash order",
                    "iterate sorted(...) (canonical order) or collect "
                    "terms and reduce with math.fsum",
                )
            if current.from_queue or current.queue_shared:
                self._emit(
                    "queue-seam-mutation",
                    stmt,
                    f"in-place update of {name!r}, which is shared "
                    "across a queue seam",
                    "operate on an owned .copy() of the dequeued/"
                    "enqueued array",
                )
            merged = current.merge(rhs)
            merged.is_float = current.is_float or rhs.is_float
            self.env[name] = merged
        elif isinstance(stmt.target, ast.Subscript):
            self._store_subscript(stmt.target, rhs, stmt)

    def _assign(
        self, target: ast.expr, value: Value, stmt: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value.clone()
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, value, stmt)
        elif isinstance(target, ast.Subscript):
            self._store_subscript(target, value, stmt)
        elif isinstance(target, ast.Attribute):
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.self_attrs[target.attr] = value.clone()
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value, stmt)

    def _store_subscript(
        self, target: ast.Subscript, value: Value, stmt: ast.stmt
    ) -> None:
        base = self.eval(target.value)
        if base.from_queue or base.queue_shared:
            seam = "dequeued from" if base.from_queue else "handed to"
            self._emit(
                "queue-seam-mutation",
                stmt,
                f"in-place element store into an array {seam} a queue",
                "mutate an owned .copy(); the other side of the queue "
                "seam still references this buffer",
            )
        if base.container == "dict":
            if self.is_payload and self._in_unordered_loop():
                self._emit(
                    "unordered-reduction",
                    stmt,
                    "checkpoint payload entries are stored while "
                    "iterating a dict/set, so the payload's key order "
                    "is not canonical",
                    "iterate sorted(...items()) so the serialized "
                    "payload is byte-stable across construction orders",
                )
            if self.is_payload:
                self._check_tainted_sink(
                    stmt, value, "a checkpoint payload entry"
                )
                self.sink_params |= value.param_deps
            # Track what flowed into the dict through the named base.
            if isinstance(target.value, ast.Name):
                entry = self.env.get(target.value.id)
                if entry is not None:
                    entry.taints |= value.taints
                    entry.value_is_float = (
                        entry.value_is_float or value.is_float
                    )
                    entry.param_deps |= value.param_deps

    def _check_decision(self, test: ast.expr, stmt: ast.stmt) -> None:
        if not self.ctx.in_zone(SIMCLOCK_DECISION_ZONES):
            return
        value = self.eval(test)
        if SourceKind.WALL_CLOCK in value.kinds:
            self._emit(
                "wall-clock-decision",
                stmt,
                "branch condition derives from "
                f"{self._taint_detail(value)} inside a SimClock-only "
                "zone",
                "decide from SimClock/event-loop time; wall-clock may "
                "only be *measured*, never acted on, in this zone",
            )

    # -- expressions --------------------------------------------------

    def eval(self, node: Optional[ast.expr]) -> Value:
        if node is None:
            return Value()
        if isinstance(node, ast.Constant):
            return Value(is_float=isinstance(node.value, float))
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id].clone()
            if node.id in self.module_env:
                return self.module_env[node.id].clone()
            return Value()
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            self.eval(node.slice)
            return Value(
                taints=set(base.taints),
                is_float=base.is_float or base.value_is_float,
                param_deps=set(base.param_deps),
            )
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return Value.combine(
                (self.eval(node.left), self.eval(node.right))
            )
        if isinstance(node, ast.BoolOp):
            return Value.combine(tuple(self.eval(v) for v in node.values))
        if isinstance(node, ast.Compare):
            return Value.combine(
                (self.eval(node.left),)
                + tuple(self.eval(c) for c in node.comparators)
            )
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.IfExp):
            self._check_decision(node.test, node)
            test = self.eval(node.test)
            merged = self.eval(node.body).merge(self.eval(node.orelse))
            merged.taints |= test.taints
            merged.param_deps |= test.param_deps
            return merged
        if isinstance(node, ast.Dict):
            out = Value(container="dict")
            for value_node in node.values:
                if value_node is None:
                    continue
                value = self.eval(value_node)
                out.taints |= value.taints
                out.value_is_float = out.value_is_float or value.is_float
                out.param_deps |= value.param_deps
                out.unordered = out.unordered or value.unordered
            return out
        if isinstance(node, ast.Set):
            out = Value(container="set")
            for element in node.elts:
                value = self.eval(element)
                out.taints |= value.taints
                out.param_deps |= value.param_deps
            return out
        if isinstance(node, (ast.List, ast.Tuple)):
            out = Value(container="list")
            for element in node.elts:
                value = self.eval(element)
                out.taints |= value.taints
                out.param_deps |= value.param_deps
                out.unordered = out.unordered or value.unordered
                out.is_float = out.is_float or value.is_float
            return out
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._eval_comp(node, node.elt, "list")
        if isinstance(node, ast.SetComp):
            return self._eval_comp(node, node.elt, "set")
        if isinstance(node, ast.DictComp):
            out = self._eval_comp(node, node.value, "dict")
            return out
        if isinstance(node, ast.JoinedStr):
            return Value.combine(
                tuple(
                    self.eval(v.value)
                    for v in node.values
                    if isinstance(v, ast.FormattedValue)
                )
            )
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value)
            self._assign(node.target, value, ast.Pass())
            return value
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            value = self.eval(node.value) if node.value is not None else Value()
            self.returned.append(value)
            return Value()
        if isinstance(node, ast.Lambda):
            return Value()
        return Value()

    def _eval_comp(
        self,
        node: ast.expr,
        elt: ast.expr,
        container: str,
    ) -> Value:
        pre = self._copy_env()
        unordered = False
        taints: Set[Taint] = set()
        deps: Set[int] = set()
        generators = getattr(node, "generators", [])
        for gen in generators:
            iter_value = self.eval(gen.iter)
            gen_unordered = iter_value.unordered or iter_value.container in (
                "dict",
                "set",
            )
            unordered = unordered or gen_unordered
            taints |= iter_value.taints
            deps |= iter_value.param_deps
            element = Value(
                taints=set(iter_value.taints),
                is_float=iter_value.is_float or iter_value.value_is_float,
                value_is_float=iter_value.value_is_float,
                unordered=gen_unordered,
                param_deps=set(iter_value.param_deps),
            )
            self._assign(gen.target, element, ast.Pass())
            for cond in gen.ifs:
                self.eval(cond)
        elt_value = self.eval(elt)
        if isinstance(node, ast.DictComp):
            self.eval(node.key)
        self.env = pre
        out = Value(
            taints=taints | elt_value.taints,
            container=container,
            is_float=elt_value.is_float if container != "dict" else False,
            value_is_float=elt_value.is_float if container == "dict" else False,
            unordered=unordered if container not in ("set",) else False,
            param_deps=deps | elt_value.param_deps,
        )
        if (
            container == "dict"
            and unordered
            and self.is_payload
        ):
            self._emit(
                "unordered-reduction",
                node,
                "a payload/manifest mapping is comprehended from "
                "unordered dict/set iteration, so its key order is not "
                "canonical",
                "build it from sorted(...items()) so manifests and "
                "payloads serialize byte-identically",
            )
        return out

    def _eval_attribute(self, node: ast.Attribute) -> Value:
        resolved = self.ctx.resolve_call(node)
        if resolved in ENV_ATTRS:
            return Value(
                taints={
                    Taint(SourceKind.ENV, node.lineno, resolved or "os.environ")
                }
            )
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            if node.attr in self.self_attrs:
                return self.self_attrs[node.attr].clone()
            return Value()
        base = self.eval(node.value)
        return Value(
            taints=set(base.taints),
            is_float=base.is_float,
            from_queue=base.from_queue,
            queue_shared=base.queue_shared,
            param_deps=set(base.param_deps),
        )

    # -- calls --------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> Value:
        resolved = self.ctx.resolve_call(node.func)
        pos_vals = [self.eval(arg) for arg in node.args]
        kw_pairs: List[Tuple[Optional[str], Value]] = [
            (kw.arg, self.eval(kw.value)) for kw in node.keywords
        ]
        all_vals = pos_vals + [v for _, v in kw_pairs]
        line = node.lineno
        receiver: Optional[Value] = None
        if isinstance(node.func, ast.Attribute):
            receiver = self.eval(node.func.value)

        # --- receiver-shape method semantics -------------------------
        if isinstance(node.func, ast.Attribute) and receiver is not None:
            attr = node.func.attr
            if attr in _DICT_VIEWS and receiver.container in (
                "dict",
                "sorted",
            ):
                return Value(
                    taints=set(receiver.taints),
                    is_float=(
                        receiver.value_is_float if attr != "keys" else False
                    ),
                    value_is_float=receiver.value_is_float,
                    unordered=receiver.container == "dict"
                    or receiver.unordered,
                    param_deps=set(receiver.param_deps),
                )
            if attr == "get" and receiver.container == "queue":
                return Value(from_queue=True)
            if attr == "get" and receiver.container == "dict":
                return Value(
                    taints=set(receiver.taints),
                    is_float=receiver.value_is_float,
                    param_deps=set(receiver.param_deps),
                )
            if attr == "put" and receiver.container == "queue":
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in self.env:
                        self.env[arg.id].queue_shared = True
                return Value()
            if attr == "copy":
                owned = receiver.clone()
                owned.from_queue = False
                owned.queue_shared = False
                return owned
            if attr in _INPLACE_METHODS and (
                receiver.from_queue or receiver.queue_shared
            ):
                self._emit(
                    "queue-seam-mutation",
                    node,
                    f".{attr}() mutates an array shared across a queue "
                    "seam in place",
                    "call it on an owned .copy() of the buffer",
                )
                return Value()
            if attr in STATE_SINK_METHODS:
                for value in all_vals:
                    self._check_tainted_sink(
                        node, value, f"the {attr}() apply path"
                    )

        # --- source catalog ------------------------------------------
        if resolved is not None:
            if resolved in ENTROPY_RNG_CALLS:
                return Value(
                    taints={Taint(SourceKind.ENTROPY_RNG, line, resolved)}
                )
            if resolved == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    return Value(
                        taints={
                            Taint(
                                SourceKind.ENTROPY_RNG,
                                line,
                                "default_rng()",
                            )
                        }
                    )
                return Value.combine(tuple(all_vals))
            if resolved in WALL_CLOCK_CALLS:
                return Value(
                    taints={Taint(SourceKind.WALL_CLOCK, line, resolved)}
                )
            if resolved in ENV_CALLS:
                return Value(taints={Taint(SourceKind.ENV, line, resolved)})
            if resolved in ADDRESS_CALLS:
                return Value(
                    taints={Taint(SourceKind.ADDRESS, line, resolved)}
                )
            if resolved in RNG_COERCERS:
                out = Value.combine(tuple(all_vals))
                if any(
                    isinstance(arg, ast.Constant) and arg.value == "entropy"
                    for arg in node.args
                ) or any(
                    kw.arg == "seed"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value == "entropy"
                    for kw in node.keywords
                ):
                    out.taints.add(
                        Taint(
                            SourceKind.ENTROPY_RNG,
                            line,
                            f'{resolved.rsplit(".", 1)[-1]}("entropy")',
                        )
                    )
                return out

            # --- ordering catalog ------------------------------------
            if resolved == "sorted":
                out = Value.combine(tuple(all_vals))
                out.container = "sorted"
                out.unordered = False
                if pos_vals:
                    out.value_is_float = pos_vals[0].value_is_float
                return out
            if resolved in ORDER_INSENSITIVE_REDUCERS:
                out = Value.combine(tuple(all_vals))
                out.unordered = False
                if resolved in ("set", "frozenset"):
                    out.container = "set"
                if resolved == "math.fsum":
                    out.is_float = True
                return out
            if resolved == "sum" and pos_vals:
                arg = pos_vals[0]
                if arg.unordered and arg.is_float:
                    self._emit(
                        "unordered-float-accum",
                        node,
                        "sum() over a dict/set-ordered float iterable "
                        "depends on insertion/hash order",
                        "use math.fsum (order-insensitive, correctly "
                        "rounded) or sum over sorted(...) keys",
                    )
                out = Value.combine(tuple(all_vals))
                out.is_float = arg.is_float
                return out
            if resolved == "dict":
                out = Value.combine(tuple(all_vals))
                out.container = "dict"
                if pos_vals:
                    out.unordered = pos_vals[0].unordered
                    out.value_is_float = pos_vals[0].value_is_float
                return out
            if resolved in ("list", "tuple"):
                out = Value.combine(tuple(all_vals))
                out.container = "list"
                if pos_vals:
                    out.unordered = pos_vals[0].unordered or pos_vals[
                        0
                    ].container in ("dict", "set")
                return out
            if resolved in COPY_CALLS:
                out = Value.combine(tuple(all_vals))
                out.from_queue = False
                out.queue_shared = False
                return out
            if resolved in ORDER_SENSITIVE_COMBINERS:
                for value in all_vals:
                    if value.unordered:
                        short = resolved.rsplit(".", 1)[-1]
                        self._emit(
                            "unordered-reduction",
                            node,
                            f"np.{short}() combines operands collected "
                            "from unordered dict/set iteration; the "
                            "result layout is not canonical",
                            "collect the operands in sorted(...) key "
                            "order before combining",
                        )
                return Value.combine(tuple(all_vals))
            if resolved in PAYLOAD_WRITER_CALLS:
                short = resolved.rsplit(".", 1)[-1]
                for value in all_vals:
                    self._check_tainted_sink(
                        node, value, f"np.{short}() checkpoint output"
                    )
                    if value.unordered:
                        self._emit(
                            "unordered-reduction",
                            node,
                            f"np.{short}() serializes a payload built "
                            "from unordered dict/set iteration",
                            "canonicalize the payload with "
                            "sorted(...items()) before writing",
                        )
                    self.sink_params |= value.param_deps
                return Value()
            if resolved.rsplit(".", 1)[-1] in PLACEMENT_CONSTRUCTORS or (
                resolved in PLACEMENT_CONSTRUCTORS
            ):
                for value in all_vals:
                    self._check_tainted_sink(
                        node, value, "a placement-plan record"
                    )
                    self.sink_params |= value.param_deps
                return Value.combine(tuple(all_vals))
            if resolved.rsplit(".", 1)[-1].endswith("Queue"):
                return Value(container="queue")

        # --- program callees (interprocedural) -----------------------
        callees = self.program.resolve_callees(self.fn, node)
        if callees:
            out = self._apply_summaries(
                node, callees, pos_vals, kw_pairs, resolved
            )
            if receiver is not None:
                out.taints |= receiver.taints
                out.param_deps |= receiver.param_deps
            return out

        # --- unknown call: propagate source taints only --------------
        out = Value()
        for value in all_vals:
            out.taints |= value.taints
            out.param_deps |= value.param_deps
        if receiver is not None:
            out.taints |= receiver.taints
            out.param_deps |= receiver.param_deps
        return out

    def _apply_summaries(
        self,
        node: ast.Call,
        callees: List[FunctionInfo],
        pos_vals: List[Value],
        kw_pairs: List[Tuple[Optional[str], Value]],
        resolved: Optional[str],
    ) -> Value:
        merged: Optional[FunctionSummary] = None
        for callee in callees:
            summary = self.summaries.get(callee.qualname)
            if summary is None:
                summary = FunctionSummary(
                    returns_container=callee.return_value.container,
                    returns_float=callee.return_value.is_float,
                )
            merged = summary if merged is None else merged.merge(summary)
        assert merged is not None
        display = resolved or callees[0].name

        # Map caller arguments onto callee parameter positions.
        indexed: Dict[int, Value] = dict(enumerate(pos_vals))
        params = callees[0].params
        for kw_name, value in kw_pairs:
            if kw_name is not None and kw_name in params:
                indexed[params.index(kw_name)] = value

        if (
            SourceKind.ENTROPY_RNG in merged.returns
            and self.ctx.in_zone(DETERMINISM_ZONES)
            and (resolved not in RNG_COERCERS)
        ):
            self._emit(
                "entropy-rng-escape",
                node,
                f"{display}() returns an entropy-seeded RNG (per its "
                "summary) into a determinism zone",
                "thread an explicit int seed through the helper "
                "(repro.utils.rng.ensure_rng) instead of minting "
                "entropy inside it",
            )

        for idx in merged.checkpoint_sink_params:
            value = indexed.get(idx)
            if value is not None and value.taints:
                self._check_tainted_sink(
                    node,
                    value,
                    f"a checkpoint payload or table plan via {display}()",
                )

        out = Value(
            taints={
                Taint(kind, node.lineno, f"call to {display}")
                for kind in merged.returns
            },
            container=merged.returns_container,
            is_float=merged.returns_float,
        )
        for idx in merged.param_flow:
            value = indexed.get(idx)
            if value is not None:
                out.taints |= value.taints
                out.param_deps |= value.param_deps
        return out


# ---------------------------------------------------------------------------
# program drivers
# ---------------------------------------------------------------------------

_SCC_ITERATION_CAP = 8


def _module_level_env(
    program: Program,
    module: ModuleInfo,
    summaries: Dict[str, FunctionSummary],
) -> Dict[str, Value]:
    """Abstract values of module-level constants (Assign/AnnAssign)."""
    dummy = FunctionInfo(
        qualname=f"{module.modname}.<module>",
        name="<module>",
        module=module.modname,
        class_name=None,
        node=module.ctx.tree,
    )
    interp = FunctionInterpreter(program, dummy, summaries, {}, report=False)
    for stmt in module.ctx.tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            interp.exec_stmt(stmt)
    return interp.env


def compute_summaries(
    program: Program,
) -> Tuple[Dict[str, FunctionSummary], Dict[str, Dict[str, Value]]]:
    """Bottom-up fixpoint over Tarjan SCCs (callees first)."""
    summaries: Dict[str, FunctionSummary] = {}
    module_envs: Dict[str, Dict[str, Value]] = {}
    for modname, module in program.modules.items():
        module_envs[modname] = _module_level_env(program, module, summaries)
    for component in program.scc_order():
        rounds = 1 if len(component) == 1 else _SCC_ITERATION_CAP
        for _ in range(rounds):
            changed = False
            for qualname in component:
                fn = program.functions[qualname]
                module = program.modules[fn.module]
                if module.ctx.rel in RNG_EXEMPT_FILES:
                    new = FunctionSummary(
                        returns_container=fn.return_value.container,
                        returns_float=fn.return_value.is_float,
                    )
                else:
                    interp = FunctionInterpreter(
                        program,
                        fn,
                        summaries,
                        module_envs.get(fn.module, {}),
                        report=False,
                    )
                    new = interp.run()
                if summaries.get(qualname) != new:
                    summaries[qualname] = new
                    changed = True
            if not changed:
                break
    return summaries, module_envs


def module_findings(
    program: Program,
    modname: str,
    summaries: Dict[str, FunctionSummary],
    module_envs: Dict[str, Dict[str, Value]],
) -> List[Finding]:
    """Report pass for one module (summaries already converged)."""
    module = program.modules[modname]
    if module.ctx.rel in RNG_EXEMPT_FILES:
        return []
    findings: List[Finding] = []
    for fn in module.functions.values():
        interp = FunctionInterpreter(
            program,
            fn,
            summaries,
            module_envs.get(modname, {}),
            report=True,
        )
        interp.run()
        findings.extend(interp.findings)
    findings.sort(key=lambda f: f.sort_key)
    return findings
