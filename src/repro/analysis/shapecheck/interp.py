"""The shapecheck value domain: abstract tensors over the shared walker.

:class:`ShapeInterpreter` runs :class:`~repro.analysis.walker.Walker`
over the domain in :mod:`repro.analysis.shapecheck.domain`: assignments
propagate abstract tensors, ``with backend.zone(...)`` blocks open
*kernel zones*, and the backend/numpy calls are checked for provable
shape, rank, and dtype inconsistencies.

Soundness posture
-----------------
The interpreter is deliberately lossy in the safe direction:

* unsupported expressions evaluate to ``TOP`` (unknown) and unknown
  values never produce findings;
* ``if``/``try`` arms are interpreted independently and merged
  point-wise (disagreeing bindings widen to ``TOP``);
* loop bodies are interpreted once *after* havocking every name the
  body assigns, so checks inside a loop see a generic iteration, not
  the first one.

Checks (the SHP rule catalog)
-----------------------------
``SHP004 matmul-shape``       inner-dimension / batch-broadcast conflict
``SHP005 reshape-elements``   provably inconsistent element count
``SHP006 dtype-upcast``       implicit float64 upcast inside a kernel zone
``SHP007 gather-index``       constant gather/scatter index out of range
``SHP008 broadcast-shape``    elementwise/scatter operand shape conflict

Rule ids are stable: SHP001-SHP003 (einsum subscripts, rank and
extents) retired with the last ``einsum`` call and are not reused.
"""

from __future__ import annotations

import ast
import operator
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.findings import Finding, RuleInfo, Severity, rule_catalog
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
    SymDim,
    TensorVal,
    TupleVal,
    broadcast_shapes,
    dim_product,
    dims_conflict,
    format_shape,
    promote_dtypes,
    resolve_dtype,
)
from repro.analysis.walker import CallArgs, Operand, Walker, bind_op

__all__ = ["SHAPE_RULES", "ShapeInterpreter", "interpret_module"]


SHAPE_RULES: Dict[str, RuleInfo] = rule_catalog(
    RuleInfo(
        "SHP004",
        "matmul-shape",
        Severity.ERROR,
        "matmul operands have provably incompatible inner or batch "
        "dimensions",
    ),
    RuleInfo(
        "SHP005",
        "reshape-elements",
        Severity.ERROR,
        "reshape target has a provably different element count than "
        "the source",
    ),
    RuleInfo(
        "SHP006",
        "dtype-upcast",
        Severity.ERROR,
        "implicit float64 upcast inside a kernel zone (mixed concrete "
        "float dtypes)",
    ),
    RuleInfo(
        "SHP007",
        "gather-index",
        Severity.ERROR,
        "constant gather/scatter row index is negative or exceeds the "
        "table's row count",
    ),
    RuleInfo(
        "SHP008",
        "broadcast-shape",
        Severity.ERROR,
        "elementwise/scatter operands have provably incompatible "
        "shapes",
    ),
)

# Dotted-name tails that yield the active backend.
_BACKEND_FACTORIES = (
    "get_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
    "NumpyBackend",
    "Interposer",
    "InstrumentedBackend",
    "SanitizerBackend",
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


ZONE_CONSTANTS = _zone_constants()

_STARRED = object()  # marker: a *args element of unknown arity

_ARITHMETIC: Dict[type, Callable[[Any, Any], Any]] = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}


def _int_product(value: TupleVal) -> Any:
    total = dim_product(tuple(item if isinstance(item, int) else None for item in value.items))
    return total if total is not None else TOP


class ShapeInterpreter(Walker):
    """Abstract tensors: symbolic shapes, dtypes and small int literals."""

    TOP = TOP

    def __init__(
        self, ctx: RuleContext, catalog: Mapping[str, RuleInfo] = SHAPE_RULES
    ) -> None:
        super().__init__(ctx, catalog)

    # -- zone / dtype policy -------------------------------------------
    def _note_zone_dtype(self, node: ast.AST, dtype: Optional[str], op: str) -> None:
        """Track concrete float dtypes per zone; flag the first mix."""
        if not self.zones or dtype not in ("float16", "float32", "float64"):
            return
        zone = self.zones[-1]
        zone.float_dtypes.add(dtype)
        if len(zone.float_dtypes) > 1 and not zone.reported:
            zone.reported = True
            dtypes = "/".join(sorted(zone.float_dtypes))
            self.emit(
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

    def zone_of(self, expr: ast.expr) -> Optional[str]:
        """Kernel-zone name when ``expr`` is a ``backend.zone(...)`` call."""
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "zone"
            and expr.args
        ):
            return None
        receiver = self.eval(expr.func.value)
        arg = expr.args[0]
        name: Optional[str] = None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
        else:
            arg_val = self.eval(arg)
            if isinstance(arg_val, str):
                name = arg_val
            elif isinstance(arg_val, DottedVal) and arg_val.tail in ZONE_CONSTANTS:
                name = ZONE_CONSTANTS[arg_val.tail]
        if isinstance(receiver, BackendVal):
            return name if name is not None else "<unknown>"
        # Unknown receiver: only trust the call when the argument is a
        # recognized kernel-zone constant.
        if name in ZONE_CONSTANTS.values():
            return name
        return None

    def entered(self, value: Any) -> Any:
        # use_backend(...) yields the installed backend; nothing else is modelled.
        return value if isinstance(value, BackendVal) else TOP

    # -- statements and binding ----------------------------------------
    def aug_assign(self, stmt: ast.AugAssign, value: Any) -> None:
        target = stmt.target
        current: Any = TOP
        if isinstance(target, ast.Name):
            current = self.env.get(target.id, TOP)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            current = self.env.get(f"{target.value.id}.{target.attr}", TOP)
        self.bind(target, self._binop_values(stmt, current, value), stmt)

    def unpack(self, value: Any, target: ast.Tuple | ast.List) -> List[Any]:
        items = (
            list(value.items)
            if isinstance(value, TupleVal) and len(value.items) == len(target.elts)
            else [TOP] * len(target.elts)
        )
        return [
            TOP if isinstance(elt, ast.Starred) else item
            for elt, item in zip(target.elts, items)
        ]

    def bind_attribute(self, target: ast.Attribute, value: Any) -> None:
        if isinstance(target.value, ast.Name):
            self.env[f"{target.value.id}.{target.attr}"] = value

    def bind_subscript(self, target: ast.Subscript, value: Any, stmt: ast.AST) -> None:
        # Mutating one element invalidates a tracked tuple; tensor
        # element writes keep shape/dtype.
        if isinstance(target.value, ast.Name) and isinstance(
            self.env.get(target.value.id), TupleVal
        ):
            self.env[target.value.id] = TOP
        self.eval(target.value)

    # ==================================================================
    # expressions
    # ==================================================================
    def constant(self, node: ast.Constant) -> Any:
        return node.value

    def global_name(self, node: ast.Name) -> Any:
        alias = self.ctx.aliases.get(node.id)
        return DottedVal(alias) if alias is not None else TOP

    def sequence(self, node: ast.Tuple | ast.List, items: List[Any]) -> Any:
        if any(isinstance(elt, ast.Starred) for elt in node.elts):
            return TOP
        return TupleVal(tuple(items))

    def operator(self, node: ast.expr, operands: List[Any]) -> Any:
        first = operands[0]
        if isinstance(node, ast.BinOp):
            return self._binop_values(node, first, operands[1])
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub) and isinstance(first, (int, float)):
                return -first
            return first if isinstance(first, TensorVal) else TOP
        if isinstance(node, ast.Compare) and isinstance(first, TensorVal):
            return TensorVal(first.shape, "bool")
        return TOP

    def if_exp(self, node: ast.IfExp, test: Any, body: Any, orelse: Any) -> Any:
        return body if body == orelse else TOP

    # -- attribute / subscript -----------------------------------------
    def attribute(self, node: ast.Attribute, base: Any) -> Any:
        if isinstance(node.value, ast.Name):
            dotted = self.env.get(f"{node.value.id}.{node.attr}")
            if dotted is not None:
                return dotted
        if isinstance(base, DottedVal):
            return DottedVal(f"{base.name}.{node.attr}")
        if isinstance(base, TensorVal):
            if node.attr == "dtype":
                return DTypeVal(base.dtype) if base.dtype else TOP
            if base.shape is None:
                return TensorVal(None, base.dtype) if node.attr == "T" else TOP
            if node.attr == "shape":
                return TupleVal(tuple(base.shape))
            if node.attr == "T":
                return TensorVal(tuple(reversed(base.shape)), base.dtype)
            if node.attr == "ndim":
                return len(base.shape)
            if node.attr == "size":
                total = dim_product(base.shape)
                return total if total is not None else TOP
            return TOP
        if isinstance(base, SpecVal):
            if node.attr in ("row_shape", "col_shape", "ranks"):
                return TupleVal(getattr(base, node.attr))
            if node.attr in ("num_cores", "padded_rows", "embedding_dim"):
                return getattr(base, node.attr)
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

    def subscript(self, node: ast.Subscript, base: Any) -> Any:
        index_node = node.slice
        if isinstance(base, TupleVal):
            if isinstance(index_node, ast.Slice):
                lower = self.eval(index_node.lower) if index_node.lower else None
                upper = self.eval(index_node.upper) if index_node.upper else None
                if (lower is None or isinstance(lower, int)) and (
                    upper is None or isinstance(upper, int)
                ):
                    return TupleVal(base.items[lower:upper])
                return TOP
            index = self.eval(index_node)
            if isinstance(index, int):
                try:
                    return base.items[index]
                except IndexError:
                    return TOP
            return TOP
        if isinstance(base, CoreListVal):
            index = self.eval(index_node)
            if isinstance(index, int) and base.spec is not None:
                shape = base.spec.core_shape(index)
                if shape is not None:
                    return TensorVal(shape, base.dtype)
            return TensorVal(None, base.dtype)
        if isinstance(index_node, ast.Slice):
            for part in (index_node.lower, index_node.upper, index_node.step):
                if part is not None:
                    self.eval(part)
            index = None
        else:
            index = self.eval(index_node)
        if not isinstance(base, TensorVal):
            return TOP
        if isinstance(index_node, ast.Slice):
            if base.shape is not None:
                return TensorVal((None,) + base.shape[1:], base.dtype)
        elif isinstance(index, int) and base.shape:
            return TensorVal(base.shape[1:], base.dtype)
        return TensorVal(None, base.dtype)

    # -- binary operators ----------------------------------------------
    def _binop_values(self, node: ast.BinOp | ast.AugAssign, left: Any, right: Any) -> Any:
        arithmetic = _ARITHMETIC.get(type(node.op))
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            try:
                return TOP if arithmetic is None else arithmetic(left, right)
            except (ZeroDivisionError, OverflowError, ValueError):
                return TOP
        if arithmetic is not None and (
            isinstance(left, TensorVal) or isinstance(right, TensorVal)
        ):
            return self._elementwise(node, "elementwise op", left, right)
        if isinstance(left, TupleVal) and isinstance(right, TupleVal) and isinstance(
            node, ast.BinOp
        ) and isinstance(node.op, ast.Add):
            return TupleVal(left.items + right.items)
        return TOP

    def _elementwise(self, node: ast.AST, op_name: str, left: Any, right: Any) -> TensorVal:
        tensors = [v for v in (left, right) if isinstance(v, TensorVal)]
        self._note_operands(node, op_name, *tensors)
        dtype = promote_dtypes(*(t.dtype for t in tensors))
        if len(tensors) == 2:
            a, b = tensors
            if a.shape is not None and b.shape is not None:
                result, conflict = broadcast_shapes(a.shape, b.shape)
                if conflict:
                    self.emit(
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
    def call(self, node: ast.Call, call: CallArgs) -> Any:
        args: List[Any] = [
            _STARRED if isinstance(expr, ast.Starred) else value
            for expr, value in zip(node.args, call.args)
        ]
        kwargs = {name: value for name, value in call.keywords if name is not None}
        func = node.func
        if not isinstance(func, ast.Attribute):
            fval = self.eval(func)
            if isinstance(fval, DottedVal):
                return self._dotted_call(node, fval.name, args, kwargs)
            return TOP
        base, method = call.receiver, func.attr
        if isinstance(base, BackendVal):
            return self.backend_call(node, method, call)
        if isinstance(base, TensorVal):
            return self.tensor_method(node, base, method, args, kwargs)
        if isinstance(base, SpecVal):
            if method == "core_shape" and args and isinstance(args[0], int):
                shape = base.core_shape(args[0])
                return TupleVal(shape) if shape is not None else TOP
            return TOP
        if isinstance(base, DottedVal):
            return self._dotted_call(node, f"{base.name}.{method}", args, kwargs)
        if isinstance(base, TupleVal) and isinstance(func.value, ast.Name):
            # append/extend/etc. mutate the sequence: widen it.
            self.env[func.value.id] = TOP
        return TOP

    def _dotted_call(
        self, node: ast.Call, name: str, args: List[Any], kwargs: Dict[str, Any]
    ) -> Any:
        tail = name.rsplit(".", 1)[-1]
        if tail in _BACKEND_FACTORIES:
            return BackendVal()
        if name.startswith("numpy.") or name == "numpy":
            return self.numpy_call(node, tail, args, kwargs)
        if tail == "prod" and args and isinstance(args[0], TupleVal):
            return _int_product(args[0])
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

        creates = name.endswith("TTSpec.create")
        ordered = [
            kwargs.get(key, args[i] if i < len(args) else None)
            for i, key in enumerate(("row_shape", "col_shape", "rank" if creates else "ranks"))
        ]
        rows, cols = int_tuple(ordered[0]), int_tuple(ordered[1])
        if rows is None or cols is None or len(rows) != len(cols):
            return TOP
        if creates:
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
    def numpy_call(
        self, node: ast.Call, tail: str, args: List[Any], kwargs: Dict[str, Any]
    ) -> Any:
        if tail in ("zeros", "ones", "empty", "full"):
            at = 2 if tail == "full" else 1  # dtype's position
            dtype = kwargs.get("dtype", args[at] if len(args) > at else None)
            return self._op_alloc(node, f"np.{tail}", args[0] if args else None, dtype)
        if tail in ("zeros_like", "ones_like", "empty_like", "full_like"):
            ref = args[0] if args else None
            dtype = resolve_dtype(kwargs.get("dtype"))
            if isinstance(ref, TensorVal):
                return TensorVal(ref.shape, dtype or ref.dtype)
            return TensorVal(None, dtype)
        if tail in ("asarray", "ascontiguousarray", "array"):
            dtype = kwargs.get("dtype", args[1] if len(args) > 1 else None)
            return self._op_asarray(node, tail, args[0] if args else None, dtype)
        if tail == "arange":
            dtype = resolve_dtype(kwargs.get("dtype")) or "int64"
            if args and isinstance(args[0], int) and len(args) == 1:
                return TensorVal((args[0],), dtype)
            return TensorVal(None, dtype)
        if tail == "dtype" and args:
            resolved = resolve_dtype(args[0])
            return DTypeVal(resolved) if resolved else TOP
        if tail in _ELEMENTWISE_NUMPY:
            return self._op_exp(node, f"np.{tail}", args[0] if args else None)
        if tail in ("maximum", "minimum"):
            if len(args) == 2:
                return self._elementwise(node, f"np.{tail}", args[0], args[1])
            return TOP
        if tail == "where":
            if len(args) == 3:
                return self._where(node, "np.where", args[0], args[1], args[2])
            return TOP
        if tail == "matmul" or tail == "dot":
            if len(args) == 2:
                return self._check_matmul(node, f"np.{tail}", args[0], args[1])
            return TOP
        if tail == "prod" and args and isinstance(args[0], TupleVal):
            return _int_product(args[0])
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
    def backend_call(self, node: ast.Call, method: str, call: CallArgs) -> Any:
        operands = bind_op(method, node, call)
        if operands is None:
            return TOP
        handler = _BACKEND_HANDLERS.get(method)
        # Operands arrive positionally, in the row's protocol order.
        result = (
            TOP if handler is None
            else handler(
                self, node, f"backend.{method}", *(op.value for op in operands.values())
            )
        )
        self.on_op(node, method, operands)
        return result

    def on_op(self, node: ast.Call, method: str, operands: Dict[str, Operand]) -> None:
        """A backend call that fits its op-table row was just interpreted."""

    def _op_alloc(self, node: ast.AST, op: str, shape: Any, dtype: Any) -> TensorVal:
        resolved = resolve_dtype(dtype)
        self._note_zone_dtype(node, resolved, op)
        return TensorVal(self._shape_from_val(shape), resolved)

    def _op_asarray(self, node: ast.AST, op: str, a: Any, dtype: Any) -> TensorVal:
        resolved = resolve_dtype(dtype)
        if isinstance(a, TensorVal):
            return TensorVal(a.shape, resolved or a.dtype, a.int_values)
        if isinstance(a, TupleVal):
            return self._tensor_from_literal(a, resolved)
        return TensorVal(None, resolved)

    def _op_exp(self, node: ast.AST, op: str, a: Any) -> Any:
        if isinstance(a, TensorVal):
            self._note_operands(node, op, a)
            return TensorVal(a.shape, a.dtype)
        return TOP

    def _where(self, node: ast.AST, op: str, cond: Any, a: Any, b: Any) -> TensorVal:
        result = self._elementwise(node, "where", a, b)
        if isinstance(cond, TensorVal) and cond.shape is not None and result.shape is not None:
            merged, conflict = broadcast_shapes(cond.shape, result.shape)
            if conflict:
                self.emit(
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
    def tensor_method(
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
        inferred = [i for i, d in enumerate(dims_in) if isinstance(d, int) and d == -1]
        if len(inferred) > 1:
            return TensorVal(None, base.dtype)
        new_dims: List[Dim] = [
            d if isinstance(d, (int, SymDim)) and i not in inferred else None
            for i, d in enumerate(dims_in)
        ]
        old_total = dim_product(base.shape) if base.shape is not None else None
        # Product of the explicit dims (None unless all are concrete).
        rest = dim_product(tuple(d for i, d in enumerate(new_dims) if i not in inferred))
        if old_total is None or rest is None:
            pass
        elif not inferred and rest != old_total:
            self.emit(
                "reshape-elements",
                node,
                f"reshape from {format_shape(base.shape)} "
                f"({old_total} elements) to "
                f"{format_shape(tuple(new_dims))} ({rest} "
                "elements)",
                "the reshape target must preserve the element count",
            )
            return TensorVal(None, base.dtype)
        elif inferred and rest > 0:
            if old_total % rest != 0:
                self.emit(
                    "reshape-elements",
                    node,
                    f"reshape from {format_shape(base.shape)} "
                    f"({old_total} elements) cannot infer -1: {old_total} "
                    f"is not divisible by {rest}",
                    "the explicit reshape dims must divide the element count",
                )
                return TensorVal(None, base.dtype)
            new_dims[inferred[0]] = old_total // rest
        return TensorVal(tuple(new_dims), base.dtype, base.int_values)

    # -- kernel op checks ----------------------------------------------
    def _check_matmul(self, node: ast.AST, op: str, a: Any, b: Any) -> TensorVal:
        self._note_operands(node, op, a, b)
        if not (isinstance(a, TensorVal) and isinstance(b, TensorVal)):
            tensors = [v for v in (a, b) if isinstance(v, TensorVal)]
            return TensorVal(None, promote_dtypes(*(t.dtype for t in tensors)))
        dtype = promote_dtypes(a.dtype, b.dtype)
        if a.shape is None or b.shape is None:
            return TensorVal(None, dtype)
        if len(a.shape) == 0 or len(b.shape) == 0:
            self.emit(
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
            self.emit(
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
                self.emit(
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
        self, node: ast.AST, op: str, a: Any, other: Any, groups: Any
    ) -> TensorVal:
        """``gather_matmul(a, table, groups)`` / ``matmul_segment_sum(a, b, groups)``.

        ``a`` is ``(L, M, K)``; the table is ``(T, K, N)`` and yields
        ``(L, M, N)``, ``b`` is ``(L, N, K)`` and yields one ``(M, N)``
        block per distinct id (a count only the run knows).
        """
        self._note_operands(node, op, a, other)
        tensors = [v for v in (a, other) if isinstance(v, TensorVal)]
        dtype = promote_dtypes(*(t.dtype for t in tensors))
        if len(tensors) < 2 or any(
            t.shape is None or len(t.shape) != 3 for t in tensors
        ):
            return TensorVal(None, dtype)
        gathers = op == "backend.gather_matmul"
        contracted = other.shape[1] if gathers else other.shape[2]
        if dims_conflict(a.shape[2], contracted):
            self.emit(
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

    @staticmethod
    def _index_facts(indices: Any) -> Tuple[Optional[Tuple[int, ...]], Optional[Tuple[Dim, ...]]]:
        """Constant values and shape of an index operand (either may be None)."""
        if isinstance(indices, TensorVal):
            return indices.int_values, indices.shape
        if isinstance(indices, TupleVal) and all(
            isinstance(item, int) for item in indices.items
        ):
            return tuple(indices.items), (len(indices.items),)
        return None, None

    def _check_gather(self, node: ast.AST, op: str, table: Any, indices: Any) -> Any:
        index_values, index_shape = self._index_facts(indices)
        table_val = table if isinstance(table, TensorVal) else TensorVal()
        rows = table_val.shape[0] if table_val.shape else None
        for value in index_values or ():
            if value < 0:
                self.emit(
                    "gather-index",
                    node,
                    f"gather_rows with constant negative index {value} "
                    "(row tables are never addressed from the end)",
                    "use non-negative row ids; negative indices wrap "
                    "silently and read the wrong row",
                )
                break
            if isinstance(rows, int) and value >= rows:
                self.emit(
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
        self, node: ast.AST, op: str, target: Any, indices: Any, values: Any
    ) -> None:
        self._note_operands(node, op, target, values)
        index_values, index_shape = self._index_facts(indices)
        index_len = (
            index_shape[0]
            if index_shape is not None and len(index_shape) == 1
            and isinstance(index_shape[0], int)
            else None
        )
        target_val = target if isinstance(target, TensorVal) else TensorVal()
        values_val = values if isinstance(values, TensorVal) else TensorVal()
        rows = target_val.shape[0] if target_val.shape else None
        for value in index_values or ():
            if value < 0 or (isinstance(rows, int) and value >= rows):
                self.emit(
                    "gather-index",
                    node,
                    f"scatter_add_rows with constant index {value} out "
                    "of range for the target table"
                    + (f" ({rows} rows)" if isinstance(rows, int) else ""),
                    "indices must satisfy 0 <= idx < target.shape[0]",
                )
                break
        if target_val.shape is None or not values_val.shape:
            return
        if index_len is not None and dims_conflict(values_val.shape[0], index_len):
            self.emit(
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
                    self.emit(
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
            return tuple(
                item if isinstance(item, (int, SymDim)) else None
                for item in value.items
            )
        return None


# One transfer function per modelled row of the op table, called as
# ``handler(interp, node, "backend.<op>", *operands)`` with the operands
# bound by OpSpec.bind.  A backend op without an entry evaluates to TOP.
_BACKEND_HANDLERS: Dict[str, Callable[..., Any]] = {
    "zeros": ShapeInterpreter._op_alloc,
    "ones": ShapeInterpreter._op_alloc,
    "empty": ShapeInterpreter._op_alloc,
    "full": lambda self, node, op, shape, fill_value, dtype: self._op_alloc(
        node, op, shape, dtype
    ),
    "asarray": ShapeInterpreter._op_asarray,
    "matmul": ShapeInterpreter._check_matmul,
    "gather_matmul": ShapeInterpreter._check_segment_gemm,
    "matmul_segment_sum": ShapeInterpreter._check_segment_gemm,
    "gather_rows": ShapeInterpreter._check_gather,
    "scatter_add_rows": lambda self, node, op, target, indices, values, scale: (
        self._check_scatter(node, op, target, indices, values)
    ),
    "exp": ShapeInterpreter._op_exp,
    "maximum": ShapeInterpreter._elementwise,
    "multiply": ShapeInterpreter._elementwise,
    "where": ShapeInterpreter._where,
    "axpy": lambda self, node, op, target, values, scale: self._elementwise(
        node, op, target, values
    ),
}


def interpret_module(ctx: RuleContext) -> List[Finding]:
    """Run the abstract interpreter over one parsed module."""
    return ShapeInterpreter(ctx).run_module()
