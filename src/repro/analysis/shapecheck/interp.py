"""The shapecheck abstract interpreter.

Symbolically executes one parsed module over the abstract domain in
:mod:`repro.analysis.shapecheck.domain`: assignments propagate abstract
tensors, ``with backend.zone(...)`` blocks open *kernel zones*, and the
backend/numpy calls inside them are checked for provable shape, rank,
and dtype inconsistencies.

Soundness posture
-----------------
The interpreter is deliberately lossy in the safe direction:

* unsupported expressions evaluate to ``TOP`` (unknown) and unknown
  values never produce findings;
* ``if``/``try`` branches are interpreted independently and merged
  point-wise (disagreeing bindings widen to ``TOP``);
* loop bodies are interpreted once *after* havocking every name the
  body assigns, so checks inside a loop see a generic iteration, not
  the first one.

Checks (the SHP rule catalog)
-----------------------------
``SHP001 einsum-subscripts``  malformed signature / operand-count mismatch
``SHP002 einsum-rank``        operand rank vs. subscript term arity
``SHP003 einsum-dim``         one index letter, two incompatible extents
``SHP004 matmul-shape``       inner-dimension / batch-broadcast conflict
``SHP005 reshape-elements``   provably inconsistent element count
``SHP006 dtype-upcast``       implicit float64 upcast inside a kernel zone
``SHP007 gather-index``       constant gather/scatter index out of range
``SHP008 broadcast-shape``    elementwise/scatter operand shape conflict
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import RuleContext
from repro.analysis.shapecheck.domain import (
    TOP,
    BackendVal,
    CoreListVal,
    CoresVal,
    Dim,
    DottedVal,
    DTypeVal,
    SpecVal,
    SymbolFactory,
    TensorVal,
    TupleVal,
    broadcast_shapes,
    dim_product,
    dims_conflict,
    format_shape,
    promote_dtypes,
    resolve_dtype,
)
from repro.analysis.shapecheck.einsum import check_einsum
from repro.backend.ops import OPS

__all__ = ["SHAPE_RULES", "ShapeRuleInfo", "interpret_module"]


@dataclass(frozen=True)
class ShapeRuleInfo:
    """Catalog entry for one shapecheck rule (mirrors the lint Rule shape)."""

    id: str
    name: str
    severity: Severity
    description: str


SHAPE_RULES: Dict[str, ShapeRuleInfo] = {
    rule.name: rule
    for rule in (
        ShapeRuleInfo(
            "SHP001",
            "einsum-subscripts",
            Severity.ERROR,
            "einsum signature literal is malformed or names a different "
            "number of terms than the call passes operands",
        ),
        ShapeRuleInfo(
            "SHP002",
            "einsum-rank",
            Severity.ERROR,
            "einsum operand rank differs from its subscript term arity",
        ),
        ShapeRuleInfo(
            "SHP003",
            "einsum-dim",
            Severity.ERROR,
            "one einsum index letter is bound to two provably different "
            "extents",
        ),
        ShapeRuleInfo(
            "SHP004",
            "matmul-shape",
            Severity.ERROR,
            "matmul operands have provably incompatible inner or batch "
            "dimensions",
        ),
        ShapeRuleInfo(
            "SHP005",
            "reshape-elements",
            Severity.ERROR,
            "reshape target has a provably different element count than "
            "the source",
        ),
        ShapeRuleInfo(
            "SHP006",
            "dtype-upcast",
            Severity.ERROR,
            "implicit float64 upcast inside a kernel zone (mixed concrete "
            "float dtypes)",
        ),
        ShapeRuleInfo(
            "SHP007",
            "gather-index",
            Severity.ERROR,
            "constant gather/scatter row index is negative or exceeds the "
            "table's row count",
        ),
        ShapeRuleInfo(
            "SHP008",
            "broadcast-shape",
            Severity.ERROR,
            "elementwise/scatter operands have provably incompatible "
            "shapes",
        ),
    )
}

# Dotted-name tails that yield the active backend.
_BACKEND_FACTORIES = (
    "get_backend",
    "resolve_backend",
    "set_backend",
    "NumpyBackend",
    "Interposer",
    "InstrumentedBackend",
    "SanitizerBackend",
    "TorchBackend",
)

_ELEMENTWISE_NUMPY = (
    "sqrt",
    "exp",
    "log",
    "log1p",
    "abs",
    "absolute",
    "sign",
    "negative",
    "square",
    "tanh",
)

# Known kernel-zone constant names (``ZONE_EFFTT_FORWARD`` → "efftt_forward").
def _zone_constants() -> Dict[str, str]:
    from repro.backend import protocol

    return {
        name: getattr(protocol, name)
        for name in dir(protocol)
        if name.startswith("ZONE_")
    }


_ZONE_CONSTANTS = _zone_constants()

_STARRED = object()  # marker: a *args element of unknown arity


def _bind_backend_call(
    method: str, args: Sequence[Any], kwargs: Dict[str, Any], starred: bool
) -> Optional[Dict[str, Any]]:
    """A backend call's operands by protocol name, defaults filled.

    ``None`` when ``method`` is not a backend op or the call does not fit
    its row of the op table (wrong arity, unknown keyword, a ``*args`` of
    unknown length): such a call is not modelled.
    """
    spec = OPS.get(method)
    if spec is None or starred:
        return None
    try:
        return spec.bind(args, kwargs)
    except TypeError:
        return None


class _ZoneFrame:
    """Dtype-policy state for one open kernel zone."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.float_dtypes: Set[str] = set()
        self.reported = False


class _Interpreter:
    def __init__(self, ctx: RuleContext) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []
        self.syms = SymbolFactory()
        self._zones: List[_ZoneFrame] = []

    # -- findings ------------------------------------------------------
    def _emit(self, rule_name: str, node: ast.AST, message: str, hint: str) -> None:
        rule = SHAPE_RULES[rule_name]
        self.findings.append(
            Finding(
                rule=rule.name,
                rule_id=rule.id,
                severity=rule.severity,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
                hint=hint,
            )
        )

    # -- zone / dtype policy -------------------------------------------
    @property
    def _zone(self) -> Optional[_ZoneFrame]:
        return self._zones[-1] if self._zones else None

    def _note_zone_dtype(self, node: ast.AST, dtype: Optional[str], op: str) -> None:
        """Track concrete float dtypes per zone; flag the first mix."""
        zone = self._zone
        if zone is None or dtype not in ("float16", "float32", "float64"):
            return
        zone.float_dtypes.add(dtype)
        if len(zone.float_dtypes) > 1 and not zone.reported:
            zone.reported = True
            dtypes = "/".join(sorted(zone.float_dtypes))
            self._emit(
                "dtype-upcast",
                node,
                f"kernel zone {zone.name!r} mixes concrete float dtypes "
                f"({dtypes}) at {op}: implicit float64 upcasts break the "
                "zone's precision contract",
                "keep one float dtype per zone; cast explicitly with "
                "astype() where widening is intended",
            )

    def _note_operands(self, node: ast.AST, op: str, *operands: Any) -> None:
        for operand in operands:
            if isinstance(operand, TensorVal):
                self._note_zone_dtype(node, operand.dtype, op)

    # ==================================================================
    # statements
    # ==================================================================
    def run(self) -> None:
        self._exec_block(self.ctx.tree.body, {})

    def _exec_block(self, stmts: Sequence[ast.stmt], env: Dict[str, Any]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.stmt, env: Dict[str, Any]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._exec_function(stmt, env)
        elif isinstance(stmt, ast.ClassDef):
            self._exec_block(stmt.body, {})
        elif isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            current = self._eval_target(stmt.target, env)
            value = self._eval(stmt.value, env)
            result = self._binop_values(stmt, current, value)
            self._bind(stmt.target, result, env)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self._exec_branches(env, stmt.body, stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter, env)
            self._havoc(stmt, env)
            self._bind(stmt.target, TOP, env)
            self._exec_block(stmt.body, env)
            self._exec_block(stmt.orelse, env)
            self._havoc(stmt, env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            self._havoc(stmt, env)
            self._exec_block(stmt.body, env)
            self._exec_block(stmt.orelse, env)
            self._havoc(stmt, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._exec_with(stmt, env)
        elif isinstance(stmt, ast.Try):
            branches = [stmt.body + stmt.finalbody]
            for handler in stmt.handlers:
                branches.append(handler.body + stmt.finalbody)
            if stmt.orelse:
                branches.append(stmt.body + stmt.orelse + stmt.finalbody)
            self._exec_branches(env, *branches)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # Import/Pass/Break/Continue/Global/Nonlocal: no abstract effect
        # (imports are pre-resolved into ctx.aliases).

    def _exec_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, env: Dict[str, Any]
    ) -> None:
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is not None:
                self._eval(default, env)
        fn_env: Dict[str, Any] = {}
        args = node.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            fn_env[arg.arg] = TOP
        self._exec_block(node.body, fn_env)

    def _exec_branches(
        self, env: Dict[str, Any], *branches: Sequence[ast.stmt]
    ) -> None:
        """Interpret each branch on a copy; merge bindings point-wise."""
        snapshots: List[Dict[str, Any]] = []
        for branch in branches:
            branch_env = dict(env)
            self._exec_block(branch, branch_env)
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

    def _exec_with(self, stmt: ast.With | ast.AsyncWith, env: Dict[str, Any]) -> None:
        zone_name: Optional[str] = None
        for item in stmt.items:
            zone = self._zone_of(item.context_expr, env)
            if zone is not None and zone_name is None:
                zone_name = zone
                continue
            value = self._eval(item.context_expr, env)
            if item.optional_vars is not None:
                # use_backend(...) yields the installed backend.
                bound = value if isinstance(value, BackendVal) else TOP
                self._bind(item.optional_vars, bound, env)
        if zone_name is not None:
            self._zones.append(_ZoneFrame(zone_name))
            try:
                self._exec_block(stmt.body, env)
            finally:
                self._zones.pop()
        else:
            self._exec_block(stmt.body, env)

    def _zone_of(self, expr: ast.expr, env: Dict[str, Any]) -> Optional[str]:
        """Kernel-zone name when ``expr`` is a ``backend.zone(...)`` call."""
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "zone"
            and expr.args
        ):
            return None
        receiver = self._eval(expr.func.value, env)
        arg = expr.args[0]
        name: Optional[str] = None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
        else:
            arg_val = self._eval(arg, env)
            if isinstance(arg_val, str):
                name = arg_val
            elif isinstance(arg_val, DottedVal) and arg_val.tail in _ZONE_CONSTANTS:
                name = _ZONE_CONSTANTS[arg_val.tail]
        if isinstance(receiver, BackendVal):
            return name if name is not None else "<unknown>"
        # Unknown receiver: only trust the call when the argument is a
        # recognized kernel-zone constant.
        if name in _ZONE_CONSTANTS.values():
            return name
        return None

    def _havoc(self, node: ast.stmt, env: Dict[str, Any]) -> None:
        """Widen every name the statement may assign to TOP."""
        for name in self._assigned_names(node):
            env[name] = TOP

    @staticmethod
    def _assigned_names(node: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                names.add(child.id)
            elif (
                isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Store)
                and isinstance(child.value, ast.Name)
            ):
                names.add(f"{child.value.id}.{child.attr}")
            elif isinstance(child, ast.Subscript) and isinstance(
                child.ctx, ast.Store
            ):
                if isinstance(child.value, ast.Name):
                    names.add(child.value.id)
        return names

    # -- binding -------------------------------------------------------
    def _bind(self, target: ast.expr, value: Any, env: Dict[str, Any]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            items = (
                value.items
                if isinstance(value, TupleVal)
                and len(value.items) == len(target.elts)
                else [TOP] * len(target.elts)
            )
            for elt, item in zip(target.elts, items):
                if isinstance(elt, ast.Starred):
                    self._bind(elt.value, TOP, env)
                else:
                    self._bind(elt, item, env)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            env[f"{target.value.id}.{target.attr}"] = value
        elif isinstance(target, ast.Subscript):
            # Mutating one element invalidates a tracked tuple; tensor
            # element writes keep shape/dtype.
            if isinstance(target.value, ast.Name):
                current = env.get(target.value.id)
                if isinstance(current, TupleVal):
                    env[target.value.id] = TOP
            self._eval(target.value, env)

    def _eval_target(self, target: ast.expr, env: Dict[str, Any]) -> Any:
        """Current abstract value of an AugAssign target."""
        if isinstance(target, ast.Name):
            return env.get(target.id, TOP)
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            return env.get(f"{target.value.id}.{target.attr}", TOP)
        return TOP

    # ==================================================================
    # expressions
    # ==================================================================
    def _eval(self, node: ast.expr, env: Dict[str, Any]) -> Any:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            alias = self.ctx.aliases.get(node.id)
            if alias is not None:
                return DottedVal(alias)
            return TOP
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env)
        if isinstance(node, (ast.Tuple, ast.List)):
            if any(isinstance(elt, ast.Starred) for elt in node.elts):
                for elt in node.elts:
                    inner = elt.value if isinstance(elt, ast.Starred) else elt
                    self._eval(inner, env)
                return TOP
            return TupleVal(tuple(self._eval(elt, env) for elt in node.elts))
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            if isinstance(node.op, ast.USub) and isinstance(operand, (int, float)):
                return -operand
            if isinstance(operand, TensorVal):
                return operand
            return TOP
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            return self._binop_values(node, left, right)
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, env)
            for comparator in node.comparators:
                self._eval(comparator, env)
            if isinstance(left, TensorVal):
                return TensorVal(left.shape, "bool")
            return TOP
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value, env)
            return TOP
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            body = self._eval(node.body, env)
            orelse = self._eval(node.orelse, env)
            return body if body == orelse else TOP
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            self._bind(node.target, value, env)
            return value
        if isinstance(node, ast.Starred):
            self._eval(node.value, env)
            return TOP
        if isinstance(node, ast.JoinedStr):
            return TOP
        # Comprehensions, lambdas, dict/set literals, await, yield:
        # opaque — their inner scopes are not interpreted.
        return TOP

    # -- attribute / subscript -----------------------------------------
    def _eval_attribute(self, node: ast.Attribute, env: Dict[str, Any]) -> Any:
        if isinstance(node.value, ast.Name):
            dotted = env.get(f"{node.value.id}.{node.attr}")
            if dotted is not None:
                return dotted
        base = self._eval(node.value, env)
        if isinstance(base, DottedVal):
            return DottedVal(f"{base.name}.{node.attr}")
        if isinstance(base, TensorVal):
            if node.attr == "shape":
                if base.shape is None:
                    return TOP
                return TupleVal(tuple(base.shape))
            if node.attr == "dtype":
                return DTypeVal(base.dtype) if base.dtype else TOP
            if node.attr == "T":
                if base.shape is None:
                    return TensorVal(None, base.dtype)
                return TensorVal(tuple(reversed(base.shape)), base.dtype)
            if node.attr == "ndim":
                return base.rank if base.rank is not None else TOP
            if node.attr == "size":
                if base.shape is not None:
                    total = dim_product(base.shape)
                    if total is not None:
                        return total
                return TOP
            return TOP
        if isinstance(base, SpecVal):
            if node.attr == "row_shape":
                return TupleVal(base.row_shape)
            if node.attr == "col_shape":
                return TupleVal(base.col_shape)
            if node.attr == "ranks":
                return TupleVal(base.ranks)
            if node.attr == "num_cores":
                return base.num_cores
            if node.attr == "padded_rows":
                return base.padded_rows
            if node.attr == "embedding_dim":
                return base.embedding_dim
            return TOP
        if isinstance(base, CoresVal):
            if node.attr == "cores":
                return CoreListVal(base.spec, base.dtype)
            if node.attr == "spec":
                return base.spec if base.spec is not None else TOP
            if node.attr == "dtype":
                return DTypeVal(base.dtype) if base.dtype else TOP
            return TOP
        return TOP

    def _eval_subscript(self, node: ast.Subscript, env: Dict[str, Any]) -> Any:
        base = self._eval(node.value, env)
        index_node = node.slice
        if isinstance(base, TupleVal):
            if isinstance(index_node, ast.Slice):
                lower = self._eval(index_node.lower, env) if index_node.lower else None
                upper = self._eval(index_node.upper, env) if index_node.upper else None
                if (lower is None or isinstance(lower, int)) and (
                    upper is None or isinstance(upper, int)
                ):
                    return TupleVal(base.items[lower:upper])
                return TOP
            index = self._eval(index_node, env)
            if isinstance(index, int):
                try:
                    return base.items[index]
                except IndexError:
                    return TOP
            return TOP
        if isinstance(base, CoreListVal):
            index = self._eval(index_node, env)
            if isinstance(index, int) and base.spec is not None:
                shape = base.spec.core_shape(index)
                if shape is not None:
                    return TensorVal(shape, base.dtype)
            return TensorVal(None, base.dtype)
        if isinstance(base, TensorVal):
            if isinstance(index_node, ast.Slice):
                self._eval_slice_parts(index_node, env)
                if base.shape is not None:
                    return TensorVal((None,) + base.shape[1:], base.dtype)
                return TensorVal(None, base.dtype)
            index = self._eval(index_node, env)
            if isinstance(index, int) and base.shape is not None and base.shape:
                return TensorVal(base.shape[1:], base.dtype)
            return TensorVal(None, base.dtype)
        if isinstance(index_node, ast.Slice):
            self._eval_slice_parts(index_node, env)
        else:
            self._eval(index_node, env)
        return TOP

    def _eval_slice_parts(self, node: ast.Slice, env: Dict[str, Any]) -> None:
        for part in (node.lower, node.upper, node.step):
            if part is not None:
                self._eval(part, env)

    # -- binary operators ----------------------------------------------
    def _binop_values(self, node: ast.AST, left: Any, right: Any) -> Any:
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            try:
                if isinstance(node, (ast.BinOp, ast.AugAssign)):
                    op = node.op
                    if isinstance(op, ast.Add):
                        return left + right
                    if isinstance(op, ast.Sub):
                        return left - right
                    if isinstance(op, ast.Mult):
                        return left * right
                    if isinstance(op, ast.FloorDiv):
                        return left // right
                    if isinstance(op, ast.Div):
                        return left / right
                    if isinstance(op, ast.Mod):
                        return left % right
                    if isinstance(op, ast.Pow):
                        return left**right
            except (ZeroDivisionError, OverflowError, ValueError):
                return TOP
            return TOP
        arithmetic = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Pow, ast.Mod)
        )
        if arithmetic and (
            isinstance(left, TensorVal) or isinstance(right, TensorVal)
        ):
            return self._elementwise(node, left, right, op_name="elementwise op")
        if isinstance(left, TupleVal) and isinstance(right, TupleVal) and isinstance(
            node, ast.BinOp
        ) and isinstance(node.op, ast.Add):
            return TupleVal(left.items + right.items)
        return TOP

    def _elementwise(
        self, node: ast.AST, left: Any, right: Any, op_name: str
    ) -> TensorVal:
        tensors = [v for v in (left, right) if isinstance(v, TensorVal)]
        self._note_operands(node, op_name, *tensors)
        dtype = promote_dtypes(*(t.dtype for t in tensors))
        if len(tensors) == 2:
            a, b = tensors
            if a.shape is not None and b.shape is not None:
                result, conflict = broadcast_shapes(a.shape, b.shape)
                if conflict:
                    self._emit(
                        "broadcast-shape",
                        node,
                        f"{op_name} operands with shapes "
                        f"{format_shape(a.shape)} and {format_shape(b.shape)} "
                        "cannot broadcast",
                        "align the operand shapes (or reshape/expand "
                        "explicitly)",
                    )
                    return TensorVal(None, dtype)
                return TensorVal(result, dtype)
            return TensorVal(None, dtype)
        if not tensors:
            return TensorVal(None, dtype)
        # Tensor-scalar: shape passes through.
        return TensorVal(tensors[0].shape, dtype)

    # ==================================================================
    # calls
    # ==================================================================
    def _eval_call(self, node: ast.Call, env: Dict[str, Any]) -> Any:
        args: List[Any] = []
        starred = False
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                self._eval(arg.value, env)
                args.append(_STARRED)
                starred = True
            else:
                args.append(self._eval(arg, env))
        kwargs: Dict[str, Any] = {}
        for kw in node.keywords:
            value = self._eval(kw.value, env)
            if kw.arg is not None:
                kwargs[kw.arg] = value

        func = node.func
        if isinstance(func, ast.Attribute):
            base = self._eval(func.value, env)
            method = func.attr
            if isinstance(base, BackendVal):
                return self._backend_call(node, method, args, kwargs, starred)
            if isinstance(base, TensorVal):
                return self._tensor_method(node, base, method, args, kwargs)
            if isinstance(base, SpecVal):
                if method == "core_shape" and args and isinstance(args[0], int):
                    shape = base.core_shape(args[0])
                    return TupleVal(shape) if shape is not None else TOP
                return TOP
            if isinstance(base, DottedVal):
                return self._dotted_call(
                    node, f"{base.name}.{method}", args, kwargs, starred
                )
            if isinstance(base, TupleVal) and isinstance(func.value, ast.Name):
                # append/extend/etc. mutate the sequence: widen it.
                env[func.value.id] = TOP
                return TOP
            if method == "einsum" and not starred and args:
                # Unknown receiver, literal signature: still resolvable.
                return self._einsum_call(node, args[0], args[1:])
            return TOP
        fval = self._eval(func, env)
        if isinstance(fval, DottedVal):
            return self._dotted_call(node, fval.name, args, kwargs, starred)
        return TOP

    def _dotted_call(
        self,
        node: ast.Call,
        name: str,
        args: List[Any],
        kwargs: Dict[str, Any],
        starred: bool,
    ) -> Any:
        tail = name.rsplit(".", 1)[-1]
        if tail in _BACKEND_FACTORIES or tail == "use_backend":
            return BackendVal()
        if name.startswith("numpy.") or name == "numpy":
            return self._numpy_call(node, name, args, kwargs, starred)
        if tail == "prod" and args and isinstance(args[0], TupleVal):
            total = dim_product(tuple(
                item if isinstance(item, int) else None for item in args[0].items
            ))
            return total if total is not None else TOP
        if name.endswith("TTSpec.create") or tail == "TTSpec":
            return self._make_spec(name, args, kwargs)
        if name.endswith("TTCores.random_init") or tail == "TTCores":
            spec = args[0] if args and isinstance(args[0], SpecVal) else None
            dtype = resolve_dtype(kwargs.get("dtype")) or "float64"
            return CoresVal(spec, dtype)
        return TOP

    def _make_spec(
        self, name: str, args: List[Any], kwargs: Dict[str, Any]
    ) -> Any:
        def int_tuple(value: Any) -> Optional[Tuple[int, ...]]:
            if isinstance(value, TupleVal) and all(
                isinstance(item, int) for item in value.items
            ):
                return tuple(value.items)
            return None

        ordered = [
            kwargs.get(key, args[i] if i < len(args) else None)
            for i, key in enumerate(("row_shape", "col_shape", "rank" if name.endswith("create") else "ranks"))
        ]
        rows, cols = int_tuple(ordered[0]), int_tuple(ordered[1])
        if rows is None or cols is None or len(rows) != len(cols):
            return TOP
        if name.endswith("TTSpec.create"):
            rank = ordered[2]
            rank_arg: Any = rank if isinstance(rank, int) else int_tuple(rank)
            if rank_arg is None:
                return TOP
            try:
                from repro.embeddings.tt_core import clamp_ranks

                ranks = tuple(clamp_ranks(rows, cols, rank_arg))
            except Exception:
                return TOP
            return SpecVal(rows, cols, ranks)
        boundary = int_tuple(ordered[2])
        if boundary is None or len(boundary) != len(rows) + 1:
            return TOP
        return SpecVal(rows, cols, boundary)

    # -- numpy calls ---------------------------------------------------
    def _numpy_call(
        self,
        node: ast.Call,
        name: str,
        args: List[Any],
        kwargs: Dict[str, Any],
        starred: bool,
    ) -> Any:
        tail = name.rsplit(".", 1)[-1]
        if tail in ("zeros", "ones", "empty"):
            shape = self._shape_from_val(args[0]) if args else None
            dtype = resolve_dtype(kwargs.get("dtype", args[1] if len(args) > 1 else None))
            self._note_zone_dtype(node, dtype, f"np.{tail}")
            return TensorVal(shape, dtype)
        if tail == "full":
            shape = self._shape_from_val(args[0]) if args else None
            dtype = resolve_dtype(kwargs.get("dtype", args[2] if len(args) > 2 else None))
            self._note_zone_dtype(node, dtype, "np.full")
            return TensorVal(shape, dtype)
        if tail in ("zeros_like", "ones_like", "empty_like", "full_like"):
            ref = args[0] if args else None
            dtype = resolve_dtype(kwargs.get("dtype"))
            if isinstance(ref, TensorVal):
                return TensorVal(ref.shape, dtype or ref.dtype)
            return TensorVal(None, dtype)
        if tail in ("asarray", "ascontiguousarray", "array"):
            source = args[0] if args else None
            dtype = resolve_dtype(kwargs.get("dtype", args[1] if len(args) > 1 else None))
            if isinstance(source, TensorVal):
                return TensorVal(source.shape, dtype or source.dtype, source.int_values)
            if isinstance(source, TupleVal):
                return self._tensor_from_literal(source, dtype)
            return TensorVal(None, dtype)
        if tail == "arange":
            if args and isinstance(args[0], int) and len(args) == 1:
                return TensorVal((args[0],), resolve_dtype(kwargs.get("dtype")) or "int64")
            return TensorVal(None, resolve_dtype(kwargs.get("dtype")) or "int64")
        if tail == "dtype" and args:
            resolved = resolve_dtype(args[0])
            return DTypeVal(resolved) if resolved else TOP
        if tail in _ELEMENTWISE_NUMPY:
            source = args[0] if args else None
            if isinstance(source, TensorVal):
                self._note_operands(node, f"np.{tail}", source)
                return TensorVal(source.shape, source.dtype)
            return TOP
        if tail in ("maximum", "minimum"):
            if len(args) == 2:
                return self._elementwise(node, args[0], args[1], f"np.{tail}")
            return TOP
        if tail == "where":
            if len(args) == 3:
                return self._where(node, args[0], args[1], args[2])
            return TOP
        if tail == "matmul" or tail == "dot":
            if len(args) == 2:
                return self._check_matmul(node, args[0], args[1], f"np.{tail}")
            return TOP
        if tail == "einsum":
            if starred or not args:
                return TOP
            return self._einsum_call(node, args[0], args[1:])
        if tail == "prod" and args and isinstance(args[0], TupleVal):
            total = dim_product(tuple(
                item if isinstance(item, int) else None for item in args[0].items
            ))
            return total if total is not None else TOP
        return TOP

    def _tensor_from_literal(
        self, literal: TupleVal, dtype: Optional[str]
    ) -> TensorVal:
        """Shape (and small-int values) of a nested list literal."""
        items = literal.items
        if all(isinstance(item, int) and not isinstance(item, bool) for item in items):
            return TensorVal(
                (len(items),), dtype or "int64", tuple(items)
            )
        if all(isinstance(item, (int, float)) for item in items):
            return TensorVal((len(items),), dtype or "float64")
        if items and all(isinstance(item, TupleVal) for item in items):
            inner = self._tensor_from_literal(items[0], dtype)
            widths = {len(item.items) for item in items}
            if len(widths) == 1 and inner.shape is not None:
                return TensorVal((len(items),) + inner.shape, inner.dtype)
        return TensorVal(None, dtype)

    # -- backend calls -------------------------------------------------
    def _backend_call(
        self,
        node: ast.Call,
        method: str,
        args: List[Any],
        kwargs: Dict[str, Any],
        starred: bool,
    ) -> Any:
        bound = _bind_backend_call(method, args, kwargs, starred)
        handler = _BACKEND_HANDLERS.get(method)
        if bound is None or handler is None:
            return TOP
        # Operands arrive positionally, in the row's protocol order.
        return handler(self, node, method, *bound.values())

    def _op_alloc(self, node: ast.AST, method: str, shape: Any, dtype: Any) -> TensorVal:
        resolved = resolve_dtype(dtype)
        self._note_zone_dtype(node, resolved, f"backend.{method}")
        return TensorVal(self._shape_from_val(shape), resolved)

    def _op_asarray(self, node: ast.AST, method: str, a: Any, dtype: Any) -> TensorVal:
        resolved = resolve_dtype(dtype)
        if isinstance(a, TensorVal):
            return TensorVal(a.shape, resolved or a.dtype, a.int_values)
        if isinstance(a, TupleVal):
            return self._tensor_from_literal(a, resolved)
        return TensorVal(None, resolved)

    def _op_exp(self, node: ast.AST, method: str, a: Any) -> Any:
        if isinstance(a, TensorVal):
            self._note_operands(node, f"backend.{method}", a)
            return TensorVal(a.shape, a.dtype)
        return TOP

    def _op_binary(self, node: ast.AST, method: str, a: Any, b: Any) -> Any:
        return self._elementwise(node, a, b, f"backend.{method}")

    def _op_axpy(self, node: ast.AST, method: str, target: Any, values: Any, scale: Any) -> None:
        self._elementwise(node, target, values, f"backend.{method}")

    def _where(self, node: ast.AST, cond: Any, a: Any, b: Any) -> TensorVal:
        result = self._elementwise(node, a, b, "where")
        if isinstance(cond, TensorVal) and cond.shape is not None and result.shape is not None:
            merged, conflict = broadcast_shapes(cond.shape, result.shape)
            if conflict:
                self._emit(
                    "broadcast-shape",
                    node,
                    f"where() condition shape {format_shape(cond.shape)} "
                    f"cannot broadcast with value shape "
                    f"{format_shape(result.shape)}",
                    "align the mask with the value operands",
                )
                return TensorVal(None, result.dtype)
            return TensorVal(merged, result.dtype)
        return TensorVal(None, result.dtype)

    # -- tensor methods ------------------------------------------------
    def _tensor_method(
        self,
        node: ast.Call,
        base: TensorVal,
        method: str,
        args: List[Any],
        kwargs: Dict[str, Any],
    ) -> Any:
        if method == "reshape":
            return self._reshape(node, base, args)
        if method == "transpose":
            if not args:
                if base.shape is None:
                    return base
                return TensorVal(tuple(reversed(base.shape)), base.dtype)
            perm = args
            if len(args) == 1 and isinstance(args[0], TupleVal):
                perm = list(args[0].items)
            if (
                base.shape is not None
                and all(isinstance(p, int) for p in perm)
                and sorted(perm) == list(range(len(base.shape)))
            ):
                return TensorVal(
                    tuple(base.shape[p] for p in perm), base.dtype
                )
            return TensorVal(None, base.dtype)
        if method == "astype":
            dtype = resolve_dtype(args[0] if args else kwargs.get("dtype"))
            return TensorVal(base.shape, dtype, base.int_values)
        if method == "copy":
            return base
        if method in ("sum", "mean", "max", "min", "prod", "std", "var"):
            axis = kwargs.get("axis", args[0] if args else None)
            if axis is None:
                return TensorVal((), base.dtype)
            if (
                isinstance(axis, int)
                and base.shape is not None
                and -len(base.shape) <= axis < len(base.shape)
            ):
                reduced = list(base.shape)
                reduced.pop(axis)
                return TensorVal(tuple(reduced), base.dtype)
            return TensorVal(None, base.dtype)
        return TOP

    def _reshape(self, node: ast.Call, base: TensorVal, args: List[Any]) -> TensorVal:
        dims_in = args
        if len(args) == 1 and isinstance(args[0], TupleVal):
            dims_in = list(args[0].items)
        new_dims: List[Dim] = []
        minus_one_at: Optional[int] = None
        for i, value in enumerate(dims_in):
            if isinstance(value, int):
                if value == -1:
                    if minus_one_at is not None:
                        return TensorVal(None, base.dtype)
                    minus_one_at = i
                    new_dims.append(None)
                else:
                    new_dims.append(value)
            elif hasattr(value, "name") and value.__class__.__name__ == "SymDim":
                new_dims.append(value)
            else:
                new_dims.append(None)
        old_total = dim_product(base.shape) if base.shape is not None else None
        known = [d for d in new_dims if isinstance(d, int)]
        if old_total is not None and len(known) == len(new_dims):
            new_total = 1
            for d in known:
                new_total *= d
            if minus_one_at is None:
                if new_total != old_total:
                    self._emit(
                        "reshape-elements",
                        node,
                        f"reshape from {format_shape(base.shape)} "
                        f"({old_total} elements) to "
                        f"{format_shape(tuple(new_dims))} ({new_total} "
                        "elements)",
                        "the reshape target must preserve the element count",
                    )
                    return TensorVal(None, base.dtype)
        if (
            minus_one_at is not None
            and old_total is not None
            and all(isinstance(d, int) for i, d in enumerate(new_dims) if i != minus_one_at)
        ):
            rest = 1
            for i, d in enumerate(new_dims):
                if i != minus_one_at and isinstance(d, int):
                    rest *= d
            if rest > 0 and old_total % rest != 0:
                self._emit(
                    "reshape-elements",
                    node,
                    f"reshape from {format_shape(base.shape)} "
                    f"({old_total} elements) cannot infer -1: {old_total} "
                    f"is not divisible by {rest}",
                    "the explicit reshape dims must divide the element count",
                )
                return TensorVal(None, base.dtype)
            if rest > 0:
                new_dims[minus_one_at] = old_total // rest
        return TensorVal(tuple(new_dims), base.dtype, base.int_values)

    # -- kernel op checks ----------------------------------------------
    def _einsum_call(
        self, node: ast.Call, subscripts: Any, operands: List[Any]
    ) -> Any:
        if not isinstance(subscripts, str) or _STARRED in operands:
            return TOP
        self._note_operands(node, "einsum", *operands)
        result, issues = check_einsum(subscripts, operands)
        for issue in issues:
            self._emit(
                issue.code,
                node,
                issue.message,
                "check the subscript string against the operand shapes "
                "(TT chain terms are (L, R_in, n_k, R_out))",
            )
        return result

    def _check_matmul(self, node: ast.AST, a: Any, b: Any, op: str) -> TensorVal:
        self._note_operands(node, op, a, b)
        if not (isinstance(a, TensorVal) and isinstance(b, TensorVal)):
            tensors = [v for v in (a, b) if isinstance(v, TensorVal)]
            return TensorVal(None, promote_dtypes(*(t.dtype for t in tensors)))
        dtype = promote_dtypes(a.dtype, b.dtype)
        if a.shape is None or b.shape is None:
            return TensorVal(None, dtype)
        if len(a.shape) == 0 or len(b.shape) == 0:
            self._emit(
                "matmul-shape",
                node,
                f"{op} on a 0-d operand (shapes {format_shape(a.shape)}, "
                f"{format_shape(b.shape)})",
                "matmul needs at least 1-d operands",
            )
            return TensorVal(None, dtype)
        inner_a = a.shape[-1]
        inner_b = b.shape[-2] if len(b.shape) >= 2 else b.shape[-1]
        if dims_conflict(inner_a, inner_b):
            self._emit(
                "matmul-shape",
                node,
                f"{op} inner dimensions disagree: "
                f"{format_shape(a.shape)} @ {format_shape(b.shape)} "
                f"contracts {inner_a} against {inner_b}",
                "the last dim of the left operand must equal the "
                "second-to-last dim of the right operand",
            )
            return TensorVal(None, dtype)
        if len(a.shape) >= 2 and len(b.shape) >= 2:
            batch_a, batch_b = a.shape[:-2], b.shape[:-2]
            batch, conflict = broadcast_shapes(batch_a, batch_b)
            if conflict:
                self._emit(
                    "matmul-shape",
                    node,
                    f"{op} batch dimensions cannot broadcast: "
                    f"{format_shape(a.shape)} @ {format_shape(b.shape)}",
                    "stack the batched operands consistently",
                )
                return TensorVal(None, dtype)
            assert batch is not None
            return TensorVal(batch + (a.shape[-2], b.shape[-1]), dtype)
        # Rank-1 semantics collapse an axis; keep only the dtype.
        return TensorVal(None, dtype)

    def _check_segment_gemm(
        self, node: ast.AST, method: str, a: Any, other: Any, groups: Any
    ) -> TensorVal:
        """``gather_matmul(a, table, groups)`` / ``matmul_segment_sum(a, b, groups)``.

        ``a`` is ``(L, M, K)``; the table is ``(T, K, N)`` and yields
        ``(L, M, N)``, ``b`` is ``(L, N, K)`` and yields one ``(M, N)``
        block per distinct id (a count only the run knows).
        """
        op = f"backend.{method}"
        self._note_operands(node, op, a, other)
        tensors = [v for v in (a, other) if isinstance(v, TensorVal)]
        dtype = promote_dtypes(*(t.dtype for t in tensors))
        if len(tensors) < 2 or any(
            t.shape is None or len(t.shape) != 3 for t in tensors
        ):
            return TensorVal(None, dtype)
        gathers = method == "gather_matmul"
        contracted = other.shape[1] if gathers else other.shape[2]
        if dims_conflict(a.shape[2], contracted):
            self._emit(
                "matmul-shape",
                node,
                f"{op} inner dimensions disagree: {format_shape(a.shape)} "
                f"against {format_shape(other.shape)} contracts "
                f"{a.shape[2]} against {contracted}",
                "a is (L, M, K); the table is (T, K, N), b is (L, N, K)",
            )
            return TensorVal(None, dtype)
        if gathers:
            return TensorVal((a.shape[0], a.shape[1], other.shape[2]), dtype)
        return TensorVal((None, a.shape[1], other.shape[1]), dtype)

    def _check_gather(self, node: ast.AST, table: Any, indices: Any) -> Any:
        index_values: Optional[Tuple[int, ...]] = None
        index_shape: Optional[Tuple[Dim, ...]] = None
        if isinstance(indices, TensorVal):
            index_values = indices.int_values
            index_shape = indices.shape
        elif isinstance(indices, TupleVal) and all(
            isinstance(item, int) for item in indices.items
        ):
            index_values = tuple(indices.items)
            index_shape = (len(indices.items),)
        table_val = table if isinstance(table, TensorVal) else TensorVal()
        rows = (
            table_val.shape[0]
            if table_val.shape is not None and table_val.shape
            else None
        )
        if index_values is not None:
            for value in index_values:
                if value < 0:
                    self._emit(
                        "gather-index",
                        node,
                        f"gather_rows with constant negative index {value} "
                        "(row tables are never addressed from the end)",
                        "use non-negative row ids; negative indices wrap "
                        "silently and read the wrong row",
                    )
                    break
                if isinstance(rows, int) and value >= rows:
                    self._emit(
                        "gather-index",
                        node,
                        f"gather_rows with constant index {value} out of "
                        f"range for a table with {rows} rows",
                        "indices must satisfy 0 <= idx < table.shape[0]",
                    )
                    break
        if table_val.shape is not None and index_shape is not None:
            return TensorVal(
                tuple(index_shape) + tuple(table_val.shape[1:]), table_val.dtype
            )
        return TensorVal(None, table_val.dtype)

    def _check_scatter(
        self, node: ast.AST, target: Any, indices: Any, values: Any
    ) -> None:
        self._note_operands(node, "backend.scatter_add_rows", target, values)
        index_values: Optional[Tuple[int, ...]] = None
        index_len: Optional[int] = None
        if isinstance(indices, TensorVal):
            index_values = indices.int_values
            if indices.shape is not None and len(indices.shape) == 1 and isinstance(
                indices.shape[0], int
            ):
                index_len = indices.shape[0]
        elif isinstance(indices, TupleVal) and all(
            isinstance(item, int) for item in indices.items
        ):
            index_values = tuple(indices.items)
            index_len = len(indices.items)
        target_val = target if isinstance(target, TensorVal) else TensorVal()
        values_val = values if isinstance(values, TensorVal) else TensorVal()
        rows = (
            target_val.shape[0]
            if target_val.shape is not None and target_val.shape
            else None
        )
        if index_values is not None:
            for value in index_values:
                if value < 0 or (isinstance(rows, int) and value >= rows):
                    self._emit(
                        "gather-index",
                        node,
                        f"scatter_add_rows with constant index {value} out "
                        "of range for the target table"
                        + (f" ({rows} rows)" if isinstance(rows, int) else ""),
                        "indices must satisfy 0 <= idx < target.shape[0]",
                    )
                    break
        if (
            target_val.shape is not None
            and values_val.shape is not None
            and len(values_val.shape) >= 1
        ):
            if index_len is not None and dims_conflict(
                values_val.shape[0], index_len
            ):
                self._emit(
                    "broadcast-shape",
                    node,
                    f"scatter_add_rows values have leading dim "
                    f"{values_val.shape[0]} but {index_len} indices were "
                    "given",
                    "values must supply one row per index",
                )
                return
            trailing_t = target_val.shape[1:]
            trailing_v = values_val.shape[1:]
            if len(trailing_t) == len(trailing_v):
                for dt, dv in zip(trailing_t, trailing_v):
                    if dims_conflict(dt, dv):
                        self._emit(
                            "broadcast-shape",
                            node,
                            "scatter_add_rows values rows have shape "
                            f"{format_shape(trailing_v)} but target rows "
                            f"have shape {format_shape(trailing_t)}",
                            "the per-row value shape must match the "
                            "target's row shape",
                        )
                        break

    # -- helpers -------------------------------------------------------
    def _shape_from_val(self, value: Any) -> Optional[Tuple[Dim, ...]]:
        if isinstance(value, int):
            return (value,)
        if isinstance(value, TupleVal):
            out: List[Dim] = []
            for item in value.items:
                if isinstance(item, int):
                    out.append(item)
                elif item.__class__.__name__ == "SymDim":
                    out.append(item)
                else:
                    out.append(None)
            return tuple(out)
        return None


# One transfer function per modelled row of the op table, called as
# ``handler(interp, node, op, *operands)`` with the operands bound by
# OpSpec.bind.  A backend op without an entry evaluates to TOP.
_BACKEND_HANDLERS: Dict[str, Callable[..., Any]] = {
    "zeros": _Interpreter._op_alloc,
    "ones": _Interpreter._op_alloc,
    "empty": _Interpreter._op_alloc,
    "full": lambda self, node, op, shape, fill_value, dtype: self._op_alloc(
        node, op, shape, dtype
    ),
    "asarray": _Interpreter._op_asarray,
    "matmul": lambda self, node, op, a, b: self._check_matmul(
        node, a, b, f"backend.{op}"
    ),
    "gather_matmul": _Interpreter._check_segment_gemm,
    "matmul_segment_sum": _Interpreter._check_segment_gemm,
    "gather_rows": lambda self, node, op, table, indices: self._check_gather(
        node, table, indices
    ),
    "scatter_add_rows": lambda self, node, op, target, indices, values, scale: (
        self._check_scatter(node, target, indices, values)
    ),
    "exp": _Interpreter._op_exp,
    "maximum": _Interpreter._op_binary,
    "multiply": _Interpreter._op_binary,
    "where": lambda self, node, op, cond, a, b: self._where(node, cond, a, b),
    "axpy": _Interpreter._op_axpy,
}


def interpret_module(ctx: RuleContext) -> List[Finding]:
    """Run the abstract interpreter over one parsed module."""
    interp = _Interpreter(ctx)
    interp.run()
    interp.findings.sort(key=lambda f: f.sort_key)
    return interp.findings
