"""The determinism-taint domain over :mod:`repro.analysis.walker`.

One :class:`FunctionInterpreter` abstractly executes one function body
over the :class:`~.taint.Value` lattice.  The same pass serves two
masters:

* **summary mode** (``report=False``) — runs during the bottom-up
  fixpoint to produce a :class:`~.taint.FunctionSummary`; its catalog is
  empty, so the walker drops every finding;
* **report mode** (``report=True``) — runs once per function after
  summaries converge, emitting :class:`Finding` records for DET001–
  DET005.

The walker's control flow is this domain's: loop bodies run
twice with the environment joined against the pre-loop state between
passes (enough for the accumulate-then-store patterns this codebase uses
while keeping the pass linear), ``try`` runs the body and then each
handler joined in, and nested ``def``/``class`` bodies are not descended
(the whole-program pass runs each indexed function on its own, closures
included; a closure's free names take their values from its enclosing
function's environment at the end of that body).  Branch
arms run on cloned environments and join.  Everything unknown stays
untainted and ordered (one-sided soundness: detcheck never reports from
ignorance).

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
from typing import Any, Dict, List, Optional, Set, Tuple

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
from repro.analysis.walker import CallArgs, Walker

__all__ = [
    "FunctionInterpreter",
    "compute_summaries",
    "module_findings",
]

_DICT_VIEWS = ("items", "keys", "values")
#: Calls whose result is a nondeterminism source, by kind.
_SOURCE_CALLS = (
    (ENTROPY_RNG_CALLS, SourceKind.ENTROPY_RNG),
    (WALL_CLOCK_CALLS, SourceKind.WALL_CLOCK),
    (ENV_CALLS, SourceKind.ENV),
    (ADDRESS_CALLS, SourceKind.ADDRESS),
)
_FLOAT_OPS = (ast.Add, ast.Sub)


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _element(iterable: Value, unordered: bool) -> Value:
    """What iterating ``iterable`` binds to the loop target."""
    return Value(
        taints=set(iterable.taints),
        is_float=iterable.is_float or iterable.value_is_float,
        value_is_float=iterable.value_is_float,
        unordered=unordered,
        param_deps=set(iterable.param_deps),
    )


def _iterates_unordered(iterable: Value) -> bool:
    return iterable.unordered or iterable.container in ("dict", "set")


class FunctionInterpreter(Walker):
    """Abstractly execute one function body (see module docstring)."""

    def __init__(
        self,
        program: Program,
        fn: FunctionInfo,
        summaries: Dict[str, FunctionSummary],
        module_env: Dict[str, Value],
        report: bool,
    ) -> None:
        module: ModuleInfo = program.modules[fn.module]
        super().__init__(module.ctx, DET_RULES if report else {})
        self.program = program
        self.fn = fn
        self.module = module
        self.summaries = summaries
        self.module_env = module_env
        self.self_attrs: Dict[str, Value] = {}
        self.returned: List[Value] = []
        self.sink_params: Set[int] = set()
        self.is_payload = self._detect_payload()
        self.enclosing_env = self._enclosing_env()

    # -- setup --------------------------------------------------------

    def _enclosing_env(self) -> Dict[str, Value]:
        """A closure's view of its enclosing function's locals.

        The enclosing body runs once more, in summary mode, and its final
        environment is what the closure's free names read (a closure
        runs after the names it reads are bound).  Their dependencies on
        the enclosing function's parameters are dropped: those are not
        this function's parameters.
        """
        scope = self.fn.enclosing
        if scope is None:
            return {}
        outer = FunctionInterpreter(
            self.program,
            self.program.functions[scope],
            self.summaries,
            self.module_env,
            report=False,
        )
        outer.run()
        env: Dict[str, Value] = {}
        for name, value in outer.env.items():
            env[name] = value.clone()
            env[name].param_deps = set()
        return env

    def _detect_payload(self) -> bool:
        if self.fn.name in PAYLOAD_FUNCTION_NAMES:
            return True
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Call):
                if self.ctx.resolve_call(node.func) in PAYLOAD_WRITER_CALLS:
                    return True
        return False

    def run(self) -> FunctionSummary:
        params: Dict[str, Any] = {}
        for idx, name in enumerate(self.fn.params):
            value = self.fn.param_values[idx].clone()
            value.param_deps = {idx}
            params[name] = value
        if self.fn.class_name is not None:
            for attr, value in self.module.class_attrs.get(
                self.fn.class_name, {}
            ).items():
                self.self_attrs[attr] = value.clone()
        self.run_body(getattr(self.fn.node, "body", []), params)
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

    def _taint_detail(self, value: Value) -> str:
        return "; ".join(sorted(f"{t.detail} (line {t.line})" for t in value.taints))

    def _check_tainted_sink(self, node: ast.AST, value: Value, sink: str) -> None:
        if value.taints:
            labels = sorted(SOURCE_LABEL[k] for k in value.kinds)
            self.emit(
                "tainted-state",
                node,
                f"{' + '.join(labels)} from {self._taint_detail(value)} "
                f"flows into {sink}",
                "derive the value from the seeded configuration (or drop "
                "it from the persisted/applied state)",
            )

    def _check_decision(self, value: Value, node: ast.AST) -> None:
        if (
            self.ctx.in_zone(SIMCLOCK_DECISION_ZONES)
            and SourceKind.WALL_CLOCK in value.kinds
        ):
            self.emit(
                "wall-clock-decision",
                node,
                "branch condition derives from "
                f"{self._taint_detail(value)} inside a SimClock-only "
                "zone",
                "decide from SimClock/event-loop time; wall-clock may "
                "only be *measured*, never acted on, in this zone",
            )

    def _in_unordered_loop(self) -> bool:
        return any(item is not None and item.unordered for _, item in self.loops)

    def _loop_vars(self) -> Set[str]:
        names: Set[str] = set()
        for loop, _ in self.loops:
            if isinstance(loop, (ast.For, ast.AsyncFor)):
                names |= _names_in(loop.target)
        return names

    # -- walker hooks: environment ------------------------------------

    def copy_value(self, value: Any) -> Any:
        return value.clone()

    def join_values(self, values: List[Any], complete: bool) -> Any:
        joined = values[0]
        for value in values[1:]:
            joined = joined.merge(value)
        return joined.clone() if len(values) == 1 else joined

    def unpack(self, value: Any, target: ast.Tuple | ast.List) -> List[Any]:
        return [value] * len(target.elts)

    def global_name(self, node: ast.Name) -> Any:
        if node.id in self.enclosing_env:
            return self.enclosing_env[node.id].clone()
        if node.id in self.module_env:
            return self.module_env[node.id].clone()
        return Value()

    # -- walker hooks: statements -------------------------------------

    def bind_attribute(self, target: ast.Attribute, value: Any) -> None:
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            self.self_attrs[target.attr] = value.clone()

    def bind_subscript(self, target: ast.Subscript, value: Any, stmt: ast.AST) -> None:
        base = self.eval(target.value)
        if base.container != "dict":
            return
        if self.is_payload and self._in_unordered_loop():
            self.emit(
                "unordered-reduction",
                stmt,
                "checkpoint payload entries are stored while "
                "iterating a dict/set, so the payload's key order "
                "is not canonical",
                "iterate sorted(...items()) so the serialized "
                "payload is byte-stable across construction orders",
            )
        if self.is_payload:
            self._check_tainted_sink(stmt, value, "a checkpoint payload entry")
            self.sink_params |= value.param_deps
        # Track what flowed into the dict through the named base.
        if isinstance(target.value, ast.Name):
            entry = self.env.get(target.value.id)
            if entry is not None:
                entry.taints |= value.taints
                entry.value_is_float = entry.value_is_float or value.is_float
                entry.param_deps |= value.param_deps

    def ann_assign(self, stmt: ast.AnnAssign, value: Any) -> None:
        value = value if stmt.value is not None else Value()
        ann = annotation_value(stmt.annotation)
        if ann.container is not None and value.container is None:
            value.container = ann.container
        value.is_float = value.is_float or ann.is_float
        value.value_is_float = value.value_is_float or ann.value_is_float
        self.bind(stmt.target, value, stmt)

    def aug_assign(self, stmt: ast.AugAssign, value: Any) -> None:
        if isinstance(stmt.target, ast.Subscript):
            self.bind_subscript(stmt.target, value, stmt)
        if not isinstance(stmt.target, ast.Name):
            return
        name = stmt.target.id
        current = self.env.get(name, Value())
        if (
            self._in_unordered_loop()
            and current.is_float
            and isinstance(stmt.op, _FLOAT_OPS)
            and (_names_in(stmt.value) & self._loop_vars())
        ):
            self.emit(
                "unordered-float-accum",
                stmt,
                f"float accumulation into {name!r} iterates a "
                "dict/set, so the rounding depends on insertion/"
                "hash order",
                "iterate sorted(...) (canonical order) or collect "
                "terms and reduce with math.fsum",
            )
        merged = current.merge(value)
        merged.is_float = current.is_float or value.is_float
        self.env[name] = merged

    def returns(self, stmt: ast.Return, value: Any) -> None:
        value = value if value is not None else Value()
        self.returned.append(value)
        if self.is_payload:
            self._check_tainted_sink(stmt, value, "the returned checkpoint payload")
            self.sink_params |= value.param_deps

    def condition(self, stmt: ast.If | ast.While) -> None:
        self._check_decision(self.eval(stmt.test), stmt)

    def loop_item(self, stmt: ast.For | ast.AsyncFor, iterable: Any) -> Any:
        return _element(iterable, _iterates_unordered(iterable))

    # -- walker hooks: expressions ------------------------------------

    def constant(self, node: ast.Constant) -> Any:
        return Value(is_float=isinstance(node.value, float))

    def subscript(self, node: ast.Subscript, base: Any) -> Any:
        self.eval(node.slice)
        return Value(
            taints=set(base.taints),
            is_float=base.is_float or base.value_is_float,
            param_deps=set(base.param_deps),
        )

    def sequence(self, node: ast.Tuple | ast.List, items: List[Any]) -> Any:
        out = Value.combine(tuple(items))
        out.container = "list"
        return out

    def operator(self, node: ast.expr, operands: List[Any]) -> Any:
        if isinstance(node, ast.UnaryOp):
            return operands[0]
        return Value.combine(tuple(operands))

    def if_exp(self, node: ast.IfExp, test: Any, body: Any, orelse: Any) -> Any:
        self._check_decision(test, node)
        merged = body.merge(orelse)
        merged.taints |= test.taints
        merged.param_deps |= test.param_deps
        return merged

    def other(self, node: ast.expr) -> Any:
        if isinstance(node, ast.Dict):
            out = Value.combine(tuple(self.eval(value) for value in node.values))
            out.container, out.value_is_float, out.is_float = "dict", out.is_float, False
            return out
        if isinstance(node, ast.Set):
            out = Value.flows(self.eval(element) for element in node.elts)
            out.container = "set"
            return out
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._eval_comp(node, node.elt, "list")
        if isinstance(node, ast.SetComp):
            return self._eval_comp(node, node.elt, "set")
        if isinstance(node, ast.DictComp):
            return self._eval_comp(node, node.value, "dict")
        if isinstance(node, ast.JoinedStr):
            return Value.combine(
                tuple(
                    self.eval(v.value)
                    for v in node.values
                    if isinstance(v, ast.FormattedValue)
                )
            )
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            value = self.eval(node.value) if node.value is not None else Value()
            self.returned.append(value)
        # Lambdas, slices: opaque.
        return Value()

    def _eval_comp(self, node: Any, elt: ast.expr, container: str) -> Value:
        """A comprehension, its targets scoped to it."""
        pre = self.copy_env(self.env)
        unordered = False
        taints: Set[Taint] = set()
        deps: Set[int] = set()
        for gen in node.generators:
            iter_value = self.eval(gen.iter)
            gen_unordered = _iterates_unordered(iter_value)
            unordered = unordered or gen_unordered
            taints |= iter_value.taints
            deps |= iter_value.param_deps
            self.bind(gen.target, _element(iter_value, gen_unordered), node)
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
        if container == "dict" and unordered and self.is_payload:
            self.emit(
                "unordered-reduction",
                node,
                "a payload/manifest mapping is comprehended from "
                "unordered dict/set iteration, so its key order is not "
                "canonical",
                "build it from sorted(...items()) so manifests and "
                "payloads serialize byte-identically",
            )
        return out

    def attribute(self, node: ast.Attribute, base: Any) -> Any:
        resolved = self.ctx.resolve_call(node)
        if resolved in ENV_ATTRS:
            return Value(taints={Taint(SourceKind.ENV, node.lineno, resolved or "os.environ")})
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            if node.attr in self.self_attrs:
                return self.self_attrs[node.attr].clone()
            return Value()
        return Value(
            taints=set(base.taints),
            is_float=base.is_float,
            param_deps=set(base.param_deps),
        )

    # -- calls --------------------------------------------------------

    def call(self, node: ast.Call, call: CallArgs) -> Any:
        resolved = self.ctx.resolve_call(node.func)
        pos_vals: List[Value] = call.args
        kw_pairs: List[Tuple[Optional[str], Value]] = call.keywords
        all_vals = pos_vals + [v for _, v in kw_pairs]
        line = node.lineno
        receiver: Optional[Value] = call.receiver

        # --- receiver-shape method semantics -------------------------
        if isinstance(node.func, ast.Attribute) and receiver is not None:
            attr = node.func.attr
            if attr in _DICT_VIEWS and receiver.container in ("dict", "sorted"):
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
            if attr == "get" and receiver.container == "dict":
                return Value(
                    taints=set(receiver.taints),
                    is_float=receiver.value_is_float,
                    param_deps=set(receiver.param_deps),
                )
            if attr == "copy":
                return receiver.clone()
            if attr in STATE_SINK_METHODS:
                for value in all_vals:
                    self._check_tainted_sink(node, value, f"the {attr}() apply path")

        # --- source catalog ------------------------------------------
        if resolved is not None:
            for calls, kind in _SOURCE_CALLS:
                if resolved in calls:
                    return Value(taints={Taint(kind, line, resolved)})
            out = Value.combine(tuple(all_vals))
            first = pos_vals[0] if pos_vals else None
            if resolved == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    return Value(
                        taints={Taint(SourceKind.ENTROPY_RNG, line, "default_rng()")}
                    )
                return out
            if resolved in RNG_COERCERS:
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
                out.container, out.unordered = "sorted", False
                if first is not None:
                    out.value_is_float = first.value_is_float
                return out
            if resolved in ORDER_INSENSITIVE_REDUCERS:
                out.unordered = False
                if resolved in ("set", "frozenset"):
                    out.container = "set"
                if resolved == "math.fsum":
                    out.is_float = True
                return out
            if resolved == "sum" and first is not None:
                if first.unordered and first.is_float:
                    self.emit(
                        "unordered-float-accum",
                        node,
                        "sum() over a dict/set-ordered float iterable "
                        "depends on insertion/hash order",
                        "use math.fsum (order-insensitive, correctly "
                        "rounded) or sum over sorted(...) keys",
                    )
                out.is_float = first.is_float
                return out
            if resolved == "dict":
                out.container = "dict"
                if first is not None:
                    out.unordered = first.unordered
                    out.value_is_float = first.value_is_float
                return out
            if resolved in ("list", "tuple"):
                out.container = "list"
                if first is not None:
                    out.unordered = _iterates_unordered(first)
                return out
            if resolved in COPY_CALLS:
                return out
            if resolved in ORDER_SENSITIVE_COMBINERS:
                if any(value.unordered for value in all_vals):
                    self.emit(
                        "unordered-reduction",
                        node,
                        f"np.{resolved.rsplit('.', 1)[-1]}() combines operands "
                        "collected from unordered dict/set iteration; the "
                        "result layout is not canonical",
                        "collect the operands in sorted(...) key "
                        "order before combining",
                    )
                return out
            if resolved in PAYLOAD_WRITER_CALLS:
                short = resolved.rsplit(".", 1)[-1]
                for value in all_vals:
                    self._check_tainted_sink(
                        node, value, f"np.{short}() checkpoint output"
                    )
                    if value.unordered:
                        self.emit(
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
                return out

        # --- program callees (interprocedural) -----------------------
        callees = self.program.resolve_callees(self.fn, node)
        if callees:
            out = self._apply_summaries(node, callees, pos_vals, kw_pairs, resolved)
        else:  # unknown call: propagate source taints only
            out = Value.flows(all_vals)
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
            self.emit(
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
            if value is None:
                continue
            self._check_tainted_sink(
                node, value, f"a checkpoint payload or table plan via {display}()"
            )
            # What reaches the callee's sink from this function's own
            # parameters reaches it from this function's callers too.
            self.sink_params |= value.param_deps

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
