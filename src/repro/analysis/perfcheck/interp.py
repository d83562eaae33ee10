"""The perfcheck abstract interpreter and PERF rule catalog.

Subclasses the shapecheck interpreter (same abstract domain, same
soundness posture) but repurposes the walk: instead of shape findings it
records one :class:`OpNode` per ``ArrayBackend`` call site that fits its
row of the op table — which op, in which zone and branch — and runs
one-sided performance rules over the recorded sequence.  SHP findings
are dropped (shapecheck owns them); perfcheck emits only PERF findings.

Rules (the PERF catalog)
------------------------
``PERF001 hot-loop-alloc``       loop-invariant allocation inside a kernel-zone loop
``PERF003 layout-churn``         copy-forcing transpose/reshape chains in kernel files
``PERF005 batch-python-loop``    Python for-loop over an abstract tensor's leading dim in a zone
``PERF006 redundant-gather``     provably duplicate gather_rows with no intervening write
``PERF007 dtype-churn``          redundant or immediately-overwritten astype in a zone

Rule ids are stable: the gaps are retired rules (002 the unfused-
contraction advisory; 004 plan-cache-bypass, which guarded the
``einsum`` op's plan key and left with it).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..findings import Finding, Severity
from ..rules import KERNEL_ZONES, RuleContext
from ..shapecheck.domain import TOP, DottedVal, TensorVal, format_shape
from ..shapecheck.interp import _ZONE_CONSTANTS, _Interpreter, _bind_backend_call

__all__ = [
    "PERF_RULES",
    "PerfRuleInfo",
    "OpNode",
    "PerfModuleResult",
    "interpret_module_perf",
]


@dataclass(frozen=True)
class PerfRuleInfo:
    """Catalog entry for one perfcheck rule."""

    id: str
    name: str
    severity: Severity
    description: str


PERF_RULES: Dict[str, PerfRuleInfo] = {
    rule.name: rule
    for rule in (
        PerfRuleInfo(
            "PERF000",
            "syntax-error",
            Severity.ERROR,
            "file could not be parsed; perfcheck analyzed nothing",
        ),
        PerfRuleInfo(
            "PERF001",
            "hot-loop-alloc",
            Severity.ERROR,
            "loop-invariant array allocation inside a kernel-zone loop: "
            "the same buffer is re-allocated every iteration",
        ),
        PerfRuleInfo(
            "PERF003",
            "layout-churn",
            Severity.ERROR,
            "chained transpose/reshape in a kernel file forces an "
            "intermediate copy (layout churn)",
        ),
        PerfRuleInfo(
            "PERF005",
            "batch-python-loop",
            Severity.ERROR,
            "Python for-loop over an array's leading dimension inside a "
            "kernel zone (shape-evidenced row-at-a-time execution)",
        ),
        PerfRuleInfo(
            "PERF006",
            "redundant-gather",
            Severity.ERROR,
            "two identical gather_rows calls in one kernel zone with no "
            "intervening write: the second re-reads the same rows",
        ),
        PerfRuleInfo(
            "PERF007",
            "dtype-churn",
            Severity.ERROR,
            "redundant astype in a kernel zone (cast to the dtype the "
            "array already has, or a cast immediately re-cast)",
        ),
    )
}

_NP_ALLOCS = (
    "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
)
_NDARRAY_ANNOTATIONS = ("np.ndarray", "numpy.ndarray", "ndarray")


@dataclass
class OpNode:
    """One recorded backend call site."""

    index: int
    op: str
    line: int
    col: int
    zone: Optional[str]
    branch: Tuple[int, ...]


@dataclass
class _LoopFrame:
    stmt: ast.stmt
    assigned: Set[str]


@dataclass
class _GatherSite:
    node: OpNode
    arg_nodes: Tuple[ast.expr, ...]  # the table and indices expressions
    texts: Tuple[str, ...]  # ... as source text: equal texts, same gather
    loop_key: Tuple[int, ...]
    loop_assigned: Set[str]


@dataclass
class PerfModuleResult:
    """Findings + recorded backend call sites of one module's perfcheck run."""

    findings: List[Finding]
    nodes: List[OpNode]


class _PerfInterpreter(_Interpreter):
    def __init__(self, ctx: RuleContext) -> None:
        super().__init__(ctx)
        self.perf_findings: List[Finding] = []
        self._nodes: List[OpNode] = []
        self._loops: List[_LoopFrame] = []
        self._branches: List[int] = []
        self._branch_counter = 0
        self._bind_events: List[Tuple[int, str]] = []
        self._gathers: List[_GatherSite] = []

    # -- findings ------------------------------------------------------
    def _emit(self, rule_name: str, node: ast.AST, message: str, hint: str) -> None:
        # Shape findings belong to shapecheck; perfcheck stays silent on
        # them (same walk, different rule catalog).
        return

    def _emit_perf(
        self, rule_name: str, node: ast.AST, message: str, hint: str
    ) -> None:
        self._emit_perf_at(
            rule_name,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            message,
            hint,
        )

    def _emit_perf_at(
        self, rule_name: str, line: int, col: int, message: str, hint: str
    ) -> None:
        rule = PERF_RULES[rule_name]
        self.perf_findings.append(
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

    def _record(self, node: ast.AST, op: str) -> OpNode:
        op_node = OpNode(
            index=len(self._nodes),
            op=op,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            zone=self._zone.name if self._zone is not None else None,
            branch=tuple(self._branches),
        )
        self._nodes.append(op_node)
        return op_node

    # ==================================================================
    # statements
    # ==================================================================
    def _exec_stmt(self, stmt: ast.stmt, env: Dict[str, Any]) -> None:
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_val = self._eval(stmt.iter, env)
            self._check_batch_loop(stmt, iter_val, env)
            self._havoc(stmt, env)
            self._bind(stmt.target, TOP, env)
            self._loops.append(_LoopFrame(stmt, self._assigned_names(stmt)))
            try:
                self._exec_block(stmt.body, env)
            finally:
                self._loops.pop()
            self._exec_block(stmt.orelse, env)
            self._havoc(stmt, env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            self._havoc(stmt, env)
            self._loops.append(_LoopFrame(stmt, self._assigned_names(stmt)))
            try:
                self._exec_block(stmt.body, env)
            finally:
                self._loops.pop()
            self._exec_block(stmt.orelse, env)
            self._havoc(stmt, env)
        else:
            super()._exec_stmt(stmt, env)

    def _exec_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, env: Dict[str, Any]
    ) -> None:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        default_vals: Dict[str, Any] = {}
        if args.defaults:
            for arg, default in zip(positional[-len(args.defaults):], args.defaults):
                default_vals[arg.arg] = self._eval(default, env)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                default_vals[arg.arg] = self._eval(default, env)
        fn_env: Dict[str, Any] = {}
        for arg in [
            *positional,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            value: Any = TOP
            default = default_vals.get(arg.arg)
            if isinstance(default, DottedVal) and default.tail in _ZONE_CONSTANTS:
                # zone=ZONE_TT_BACKWARD-style defaults: analyze the
                # body under the zone it declares.
                value = default
            elif isinstance(default, str) and default in _ZONE_CONSTANTS.values():
                value = default
            elif arg.annotation is not None and ast.unparse(
                arg.annotation
            ) in _NDARRAY_ANNOTATIONS:
                value = TensorVal(None, None)
            fn_env[arg.arg] = value
        # A nested def's body does not run where it is defined: suspend
        # the loop/zone/branch context for the duration.
        saved = (self._loops, self._zones, self._branches)
        self._loops, self._zones, self._branches = [], [], []
        try:
            self._exec_block(node.body, fn_env)
        finally:
            self._loops, self._zones, self._branches = saved

    def _exec_branches(
        self, env: Dict[str, Any], *branches: Sequence[ast.stmt]
    ) -> None:
        snapshots: List[Dict[str, Any]] = []
        for branch in branches:
            branch_env = dict(env)
            self._branch_counter += 1
            self._branches.append(self._branch_counter)
            try:
                self._exec_block(branch, branch_env)
            finally:
                self._branches.pop()
            snapshots.append(branch_env)
        if not snapshots:
            return
        keys: Set[str] = set()
        for snap in snapshots:
            keys.update(snap)
        for key in keys:
            values = [snap.get(key, TOP) for snap in snapshots]
            first = values[0]
            if all(v == first for v in values[1:]):
                env[key] = first
            else:
                env[key] = TOP

    def _bind(self, target: ast.expr, value: Any, env: Dict[str, Any]) -> None:
        # PERF006 needs to know when a gather operand was rebound.
        name = target.value if isinstance(target, (ast.Attribute, ast.Subscript)) else target
        if isinstance(name, ast.Name):
            self._bind_events.append((len(self._nodes), name.id))
        super()._bind(target, value, env)

    # ==================================================================
    # recorded ops
    # ==================================================================
    def _backend_call(
        self,
        node: ast.Call,
        method: str,
        args: List[Any],
        kwargs: Dict[str, Any],
        starred: bool,
    ) -> Any:
        result = super()._backend_call(node, method, args, kwargs, starred)
        # Bind the operand *expressions* by the same rule as the values.
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
        operands = _bind_backend_call(method, node.args, keywords, starred)
        if operands is not None:
            op_node = self._record(node, method)
            after = _AFTER_OP.get(method)
            if after is not None:
                after(self, node, op_node, operands)
        return result

    def _numpy_call(
        self,
        node: ast.Call,
        name: str,
        args: List[Any],
        kwargs: Dict[str, Any],
        starred: bool,
    ) -> Any:
        tail = name.rsplit(".", 1)[-1]
        if tail in _NP_ALLOCS:
            self._check_hot_alloc(node, f"np.{tail}")
        return super()._numpy_call(node, name, args, kwargs, starred)

    def _after_alloc(
        self, node: ast.Call, op_node: OpNode, operands: Dict[str, Any]
    ) -> None:
        self._check_hot_alloc(node, f"backend.{op_node.op}")

    def _after_gather_rows(
        self, node: ast.Call, op_node: OpNode, operands: Dict[str, Any]
    ) -> None:
        loop_assigned: Set[str] = set()
        for frame in self._loops:
            loop_assigned |= frame.assigned
        arg_nodes = (operands["table"], operands["indices"])
        self._gathers.append(
            _GatherSite(
                node=op_node,
                arg_nodes=arg_nodes,
                texts=tuple(ast.unparse(arg) for arg in arg_nodes),
                loop_key=tuple(id(f.stmt) for f in self._loops),
                loop_assigned=loop_assigned,
            )
        )

    def _tensor_method(
        self,
        node: ast.Call,
        base: TensorVal,
        method: str,
        args: List[Any],
        kwargs: Dict[str, Any],
    ) -> Any:
        result = super()._tensor_method(node, base, method, args, kwargs)
        if not isinstance(result, TensorVal):
            return result
        if method == "astype" and self._zones:
            target = result.dtype
            if target is not None and base.dtype is not None and target == base.dtype:
                self._emit_perf(
                    "dtype-churn",
                    node,
                    f"astype({target!r}) on an array that already has dtype "
                    f"{base.dtype!r} copies without converting",
                    "drop the redundant cast (or cast once at the zone "
                    "boundary)",
                )
        return result

    # ==================================================================
    # rule checks
    # ==================================================================
    def _check_hot_alloc(self, node: ast.Call, display: str) -> None:
        if not self._zones or not self._loops:
            return
        free = {
            child.id
            for child in ast.walk(node)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
        }
        assigned: Set[str] = set()
        for frame in self._loops:
            assigned |= frame.assigned
        if free & assigned:
            return  # loop-variant: a different buffer each iteration
        zone = self._zone.name if self._zone is not None else "<unknown>"
        self._emit_perf(
            "hot-loop-alloc",
            node,
            f"{display} allocates a loop-invariant buffer on every "
            f"iteration inside kernel zone {zone!r}",
            "hoist the allocation out of the loop and reuse the buffer",
        )

    def _check_batch_loop(
        self, stmt: ast.For | ast.AsyncFor, iter_val: Any, env: Dict[str, Any]
    ) -> None:
        if not self._zones:
            return
        evidence: Optional[str] = None
        if isinstance(iter_val, TensorVal):
            evidence = (
                f"iterates an abstract array of shape {format_shape(iter_val.shape)} "
                "row by row"
            )
        elif (
            isinstance(stmt.iter, ast.Call)
            and isinstance(stmt.iter.func, ast.Name)
            and stmt.iter.func.id == "range"
            and len(stmt.iter.args) == 1
        ):
            bound = stmt.iter.args[0]
            target: Optional[ast.expr] = None
            if (
                isinstance(bound, ast.Call)
                and isinstance(bound.func, ast.Name)
                and bound.func.id == "len"
                and len(bound.args) == 1
            ):
                target = bound.args[0]
            elif (
                isinstance(bound, ast.Subscript)
                and isinstance(bound.value, ast.Attribute)
                and bound.value.attr == "shape"
                and isinstance(bound.slice, ast.Constant)
                and bound.slice.value == 0
            ):
                target = bound.value.value
            if target is not None and isinstance(self._eval(target, env), TensorVal):
                evidence = f"loops range over {ast.unparse(target)}'s leading dimension"
        if evidence is None:
            return
        zone = self._zone.name if self._zone is not None else "<unknown>"
        self._emit_perf(
            "batch-python-loop",
            stmt,
            f"Python for-loop in kernel zone {zone!r} {evidence}: the "
            "batch dimension is executed one row per interpreter step",
            "replace the loop with a batched backend op "
            "(gather_rows/matmul over the whole batch)",
        )

    # -- post-run passes -----------------------------------------------
    def _finalize_redundant_gathers(self) -> None:
        groups: Dict[Tuple[Any, ...], List[_GatherSite]] = {}
        for site in self._gathers:
            if site.node.zone is None:
                continue
            key = (site.node.zone, site.texts, site.loop_key)
            groups.setdefault(key, []).append(site)
        for sites in groups.values():
            if len(sites) < 2:
                continue
            free: Set[str] = set()
            for arg in sites[0].arg_nodes:
                for child in ast.walk(arg):
                    if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                        free.add(child.id)
            if sites[0].loop_key and free & sites[0].loop_assigned:
                continue  # operands change across iterations
            for first, second in zip(sites, sites[1:]):
                a, b = first.node, second.node
                if not (
                    a.branch == b.branch[: len(a.branch)]
                    or b.branch == a.branch[: len(b.branch)]
                ):
                    continue  # mutually exclusive branches
                if any(
                    n.op == "scatter_add_rows" and a.index < n.index < b.index
                    for n in self._nodes
                ):
                    continue
                if any(
                    a.index < seq <= b.index and name in free
                    for seq, name in self._bind_events
                ):
                    continue  # an operand was rebound in between
                self._emit_perf_at(
                    "redundant-gather",
                    b.line,
                    b.col,
                    f"gather_rows({', '.join(first.texts)}) in zone {a.zone!r} "
                    f"repeats the gather at line {a.line} with no "
                    "intervening write to the table or operands",
                    "reuse the first gather's result (the Eff-TT reuse "
                    "path exists for exactly this)",
                )


# What a PERF rule needs from a recorded call site beyond (op, zone,
# branch), keyed like the op table: ``after(interp, node, op_node,
# operands)`` with the operand expressions bound by OpSpec.bind.
_AFTER_OP: Dict[str, Callable[..., None]] = {
    "zeros": _PerfInterpreter._after_alloc,
    "ones": _PerfInterpreter._after_alloc,
    "empty": _PerfInterpreter._after_alloc,
    "full": _PerfInterpreter._after_alloc,
    "gather_rows": _PerfInterpreter._after_gather_rows,
}


def _syntactic_findings(ctx: RuleContext) -> List[Finding]:
    """AST-only PERF rules: layout churn, cast chains."""
    findings: List[Finding] = []
    if not ctx.in_zone(KERNEL_ZONES):
        return findings

    def emit(rule_name: str, node: ast.AST, message: str, hint: str) -> None:
        rule = PERF_RULES[rule_name]
        findings.append(
            Finding(
                rule=rule.name,
                rule_id=rule.id,
                severity=rule.severity,
                path=ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
                hint=hint,
            )
        )

    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        inner = node.func.value
        inner_attr = (
            inner.func.attr
            if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
            else None
        )
        if attr == "reshape" and inner_attr == "transpose":
            emit(
                "layout-churn",
                node,
                "transpose(...).reshape(...) forces a full copy of the "
                "intermediate (non-contiguous view reshaped)",
                "restructure the computation to reshape first, keep a "
                "pre-transposed layout, or suppress with a pragma if the "
                "relayout is the call's contract",
            )
        elif attr == "reshape" and inner_attr == "reshape":
            emit(
                "layout-churn",
                node,
                "reshape(...).reshape(...) — the first reshape is dead "
                "layout churn",
                "collapse the chain into a single reshape",
            )
        elif attr == "transpose" and inner_attr == "transpose":
            emit(
                "layout-churn",
                node,
                "transpose(...).transpose(...) — compose the two "
                "permutations into one",
                "merge the permutations (or drop them if they cancel)",
            )
        elif attr == "transpose" and node.args:
            perm = [
                a.value
                for a in node.args
                if isinstance(a, ast.Constant) and isinstance(a.value, int)
            ]
            if len(perm) == len(node.args) and perm == list(range(len(perm))):
                emit(
                    "layout-churn",
                    node,
                    f"transpose{tuple(perm)} is the identity permutation",
                    "drop the no-op transpose",
                )
        elif attr == "astype" and inner_attr == "astype":
            emit(
                "dtype-churn",
                node,
                "astype(...).astype(...) converts twice; only the last "
                "dtype survives",
                "cast once to the final dtype",
            )
    return findings


def interpret_module_perf(ctx: RuleContext) -> PerfModuleResult:
    """Run the perf interpreter + syntactic rules over one module."""
    interp = _PerfInterpreter(ctx)
    interp.run()
    interp._finalize_redundant_gathers()
    findings = interp.perf_findings + _syntactic_findings(ctx)
    # Branch re-execution (Try bodies run once per handler) can duplicate
    # findings at identical positions; keep one.
    seen: Set[Tuple[str, int, int, str]] = set()
    unique: List[Finding] = []
    for finding in findings:
        key = (finding.rule_id, finding.line, finding.col, finding.message)
        if key in seen:
            continue
        seen.add(key)
        unique.append(finding)
    unique.sort(key=lambda f: f.sort_key)
    return PerfModuleResult(findings=unique, nodes=interp._nodes)
