"""The perfcheck domain and PERF rule catalog.

:class:`PerfInterpreter` is the shapecheck domain (same abstract values,
same soundness posture) with a different catalog: the SHP findings its
transfer functions raise are dropped by the walker, and instead it
records one :class:`OpNode` per ``ArrayBackend`` call site that fits its
row of the op table — which op, in which zone and branch — and runs
one-sided performance rules over the recorded sequence.

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
from typing import Any, Dict, List, Optional, Set, Tuple

from ..findings import Finding, RuleInfo, Severity, finding, rule_catalog
from ..rules import KERNEL_ZONES, RuleContext
from ..shapecheck.domain import TOP, DottedVal, TensorVal, format_shape
from ..shapecheck.interp import ZONE_CONSTANTS, ShapeInterpreter
from ..walker import Operand, assigned_names

__all__ = [
    "PERF_RULES",
    "OpNode",
    "PerfModuleResult",
    "interpret_module_perf",
]


PERF_RULES: Dict[str, RuleInfo] = rule_catalog(
    RuleInfo(
        "PERF000",
        "syntax-error",
        Severity.ERROR,
        "file could not be parsed; perfcheck analyzed nothing",
    ),
    RuleInfo(
        "PERF001",
        "hot-loop-alloc",
        Severity.ERROR,
        "loop-invariant array allocation inside a kernel-zone loop: "
        "the same buffer is re-allocated every iteration",
    ),
    RuleInfo(
        "PERF003",
        "layout-churn",
        Severity.ERROR,
        "chained transpose/reshape in a kernel file forces an "
        "intermediate copy (layout churn)",
    ),
    RuleInfo(
        "PERF005",
        "batch-python-loop",
        Severity.ERROR,
        "Python for-loop over an array's leading dimension inside a "
        "kernel zone (shape-evidenced row-at-a-time execution)",
    ),
    RuleInfo(
        "PERF006",
        "redundant-gather",
        Severity.ERROR,
        "two identical gather_rows calls in one kernel zone with no "
        "intervening write: the second re-reads the same rows",
    ),
    RuleInfo(
        "PERF007",
        "dtype-churn",
        Severity.ERROR,
        "redundant astype in a kernel zone (cast to the dtype the "
        "array already has, or a cast immediately re-cast)",
    ),
)

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
class _GatherSite:
    node: OpNode
    arg_nodes: Tuple[Any, ...]  # the table and indices expressions
    texts: Tuple[str, ...]  # ... as source text: equal texts, same gather
    loop_key: Tuple[int, ...]
    loop_assigned: Set[str]


@dataclass
class PerfModuleResult:
    """Findings + recorded backend call sites of one module's perfcheck run."""

    findings: List[Finding]
    nodes: List[OpNode]


def _free_names(node: ast.AST) -> Set[str]:
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
    }


class PerfInterpreter(ShapeInterpreter):
    def __init__(self, ctx: RuleContext) -> None:
        super().__init__(ctx, PERF_RULES)
        self.nodes: List[OpNode] = []
        self._bind_events: List[Tuple[int, str]] = []
        self._gathers: List[_GatherSite] = []

    def _zone_name(self) -> str:
        return self.zones[-1].name if self.zones else "<unknown>"

    def _loop_assigned(self) -> Set[str]:
        names: Set[str] = set()
        for loop, _ in self.loops:
            names |= assigned_names(loop)
        return names

    # -- walker hooks --------------------------------------------------
    def param(self, arg: ast.arg, default: Any) -> Any:
        if isinstance(default, DottedVal) and default.tail in ZONE_CONSTANTS:
            # zone=ZONE_TT_BACKWARD-style defaults: analyze the body
            # under the zone it declares.
            return default
        if isinstance(default, str) and default in ZONE_CONSTANTS.values():
            return default
        if arg.annotation is not None and ast.unparse(arg.annotation) in _NDARRAY_ANNOTATIONS:
            return TensorVal(None, None)
        return TOP

    def bind(self, target: ast.expr, value: Any, stmt: ast.AST) -> None:
        # PERF006 needs to know when a gather operand was rebound.
        name = target.value if isinstance(target, (ast.Attribute, ast.Subscript)) else target
        if isinstance(name, ast.Name):
            self._bind_events.append((len(self.nodes), name.id))
        super().bind(target, value, stmt)

    def loop_item(self, stmt: ast.For | ast.AsyncFor, iterable: Any) -> Any:
        self._check_batch_loop(stmt, iterable)
        return TOP

    def on_op(self, node: ast.Call, method: str, operands: Dict[str, Operand]) -> None:
        op_node = OpNode(
            index=len(self.nodes),
            op=method,
            line=node.lineno,
            col=node.col_offset,
            zone=self.zones[-1].name if self.zones else None,
            branch=tuple(self.branch_path),
        )
        self.nodes.append(op_node)
        if method in ("zeros", "ones", "empty", "full"):
            self._check_hot_alloc(node, f"backend.{method}")
        elif method == "gather_rows":
            # table and indices have no defaults: both are expressions.
            arg_nodes = (operands["table"].expr, operands["indices"].expr)
            self._gathers.append(
                _GatherSite(
                    node=op_node,
                    arg_nodes=arg_nodes,
                    texts=tuple(ast.unparse(arg) for arg in arg_nodes),
                    loop_key=tuple(id(loop) for loop, _ in self.loops),
                    loop_assigned=self._loop_assigned(),
                )
            )

    def numpy_call(
        self, node: ast.Call, tail: str, args: List[Any], kwargs: Dict[str, Any]
    ) -> Any:
        if tail in _NP_ALLOCS:
            self._check_hot_alloc(node, f"np.{tail}")
        return super().numpy_call(node, tail, args, kwargs)

    def tensor_method(
        self,
        node: ast.Call,
        base: TensorVal,
        method: str,
        args: List[Any],
        kwargs: Dict[str, Any],
    ) -> Any:
        result = super().tensor_method(node, base, method, args, kwargs)
        if (
            method == "astype"
            and self.zones
            and isinstance(result, TensorVal)
            and result.dtype is not None
            and result.dtype == base.dtype
        ):
            self.emit(
                "dtype-churn",
                node,
                f"astype({result.dtype!r}) on an array that already has dtype "
                f"{base.dtype!r} copies without converting",
                "drop the redundant cast (or cast once at the zone "
                "boundary)",
            )
        return result

    # ==================================================================
    # rule checks
    # ==================================================================
    def _check_hot_alloc(self, node: ast.Call, display: str) -> None:
        if not self.zones or not self.loops:
            return
        if _free_names(node) & self._loop_assigned():
            return  # loop-variant: a different buffer each iteration
        self.emit(
            "hot-loop-alloc",
            node,
            f"{display} allocates a loop-invariant buffer on every "
            f"iteration inside kernel zone {self._zone_name()!r}",
            "hoist the allocation out of the loop and reuse the buffer",
        )

    def _check_batch_loop(self, stmt: ast.For | ast.AsyncFor, iter_val: Any) -> None:
        if not self.zones:
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
            if target is not None and isinstance(self.eval(target), TensorVal):
                evidence = f"loops range over {ast.unparse(target)}'s leading dimension"
        if evidence is None:
            return
        self.emit(
            "batch-python-loop",
            stmt,
            f"Python for-loop in kernel zone {self._zone_name()!r} {evidence}: the "
            "batch dimension is executed one row per interpreter step",
            "replace the loop with a batched backend op "
            "(gather_rows/matmul over the whole batch)",
        )

    # -- post-run pass -------------------------------------------------
    def report_redundant_gathers(self) -> None:
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
                free |= _free_names(arg)
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
                    for n in self.nodes
                ):
                    continue
                if any(
                    a.index < seq <= b.index and name in free
                    for seq, name in self._bind_events
                ):
                    continue  # an operand was rebound in between
                self.emit(
                    "redundant-gather",
                    (b.line, b.col),
                    f"gather_rows({', '.join(first.texts)}) in zone {a.zone!r} "
                    f"repeats the gather at line {a.line} with no "
                    "intervening write to the table or operands",
                    "reuse the first gather's result (the Eff-TT reuse "
                    "path exists for exactly this)",
                )


#: (method, the method it is called on) -> (rule, message, hint)
_CHAINS: Dict[Tuple[str, Optional[str]], Tuple[str, str, str]] = {
    ("reshape", "transpose"): (
        "layout-churn",
        "transpose(...).reshape(...) forces a full copy of the "
        "intermediate (non-contiguous view reshaped)",
        "restructure the computation to reshape first, keep a "
        "pre-transposed layout, or suppress with a pragma if the "
        "relayout is the call's contract",
    ),
    ("reshape", "reshape"): (
        "layout-churn",
        "reshape(...).reshape(...) — the first reshape is dead layout churn",
        "collapse the chain into a single reshape",
    ),
    ("transpose", "transpose"): (
        "layout-churn",
        "transpose(...).transpose(...) — compose the two permutations into one",
        "merge the permutations (or drop them if they cancel)",
    ),
    ("astype", "astype"): (
        "dtype-churn",
        "astype(...).astype(...) converts twice; only the last dtype survives",
        "cast once to the final dtype",
    ),
}


def _syntactic_findings(ctx: RuleContext) -> List[Finding]:
    """AST-only PERF rules: layout churn, cast chains."""
    if not ctx.in_zone(KERNEL_ZONES):
        return []
    found: Dict[Tuple[str, int, int, str], Finding] = {}
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        inner = node.func.value
        called_on = (
            inner.func.attr
            if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
            else None
        )
        rule = _CHAINS.get((node.func.attr, called_on))
        if rule is None and node.func.attr == "transpose" and node.args:
            perm = [
                a.value
                for a in node.args
                if isinstance(a, ast.Constant) and isinstance(a.value, int)
            ]
            if len(perm) == len(node.args) and perm == list(range(len(perm))):
                rule = (
                    "layout-churn",
                    f"transpose{tuple(perm)} is the identity permutation",
                    "drop the no-op transpose",
                )
        if rule is not None:
            new = finding(PERF_RULES[rule[0]], ctx.path, node, rule[1], rule[2])
            found.setdefault((new.rule_id, new.line, new.col, new.message), new)
    return list(found.values())


def interpret_module_perf(ctx: RuleContext) -> PerfModuleResult:
    """Run the perf interpreter + syntactic rules over one module."""
    interp = PerfInterpreter(ctx)
    interp.run_module()
    interp.report_redundant_gathers()
    findings = interp.findings + _syntactic_findings(ctx)
    findings.sort(key=lambda f: f.sort_key)
    return PerfModuleResult(findings=findings, nodes=interp.nodes)
