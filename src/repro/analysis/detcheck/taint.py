"""The determinism-taint lattice and function summaries.

The abstract value tracked for every expression is deliberately small —
detcheck follows shapecheck's one-sided soundness posture (findings
only): an *unknown* value is untainted and unordered facts never arise
from unknowns, so the analyzer can only under-report, never invent a
finding from ignorance.

:class:`Value` carries four independent fact families:

* **source taints** — a set of :class:`~.catalog.SourceKind` tags with
  the line/detail of the originating expression (entropy RNG, wall
  clock, environment, address identity);
* **container shape** — ``'dict' | 'set' | 'list' | 'sorted' |
  'queue' | None``; enough to decide whether iterating the value has a
  canonical order;
* **float provability** — ``is_float`` (the value itself) and
  ``value_is_float`` (a dict's values), used to gate DET002 so integer
  counters summed over dicts stay clean;
* **seam facts** — ``unordered`` (the value was produced by iterating
  an unordered container; intraprocedural only, never summarized) and
  ``from_queue`` / ``queue_shared`` (the DET006 ownership markers).

:class:`FunctionSummary` is what crosses function boundaries: which
source kinds the return value carries, which parameter positions flow
to the return, the return's container shape, and which parameter
positions land in a written checkpoint payload.  Summaries are frozen
and compared for equality by the fixpoint driver.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Set, Tuple

from repro.analysis.detcheck.catalog import SourceKind

__all__ = [
    "Taint",
    "Value",
    "FunctionSummary",
    "annotation_value",
]


@dataclass(frozen=True)
class Taint:
    """One source fact: what kind, where it entered, what it was."""

    kind: SourceKind
    line: int
    detail: str


@dataclass
class Value:
    """Abstract value for one expression / variable binding."""

    taints: Set[Taint] = field(default_factory=set)
    container: Optional[str] = None
    is_float: bool = False
    value_is_float: bool = False
    unordered: bool = False
    from_queue: bool = False
    queue_shared: bool = False
    param_deps: Set[int] = field(default_factory=set)

    @property
    def kinds(self) -> Set[SourceKind]:
        return {t.kind for t in self.taints}

    def clone(self) -> "Value":
        return Value(
            set(self.taints), self.container, self.is_float, self.value_is_float,
            self.unordered, self.from_queue, self.queue_shared, set(self.param_deps),
        )

    def merge(self, other: "Value") -> "Value":
        """Join two values (used at control-flow merges)."""
        return Value(
            taints=self.taints | other.taints,
            container=self.container
            if self.container == other.container
            else None,
            is_float=self.is_float or other.is_float,
            value_is_float=self.value_is_float or other.value_is_float,
            unordered=self.unordered or other.unordered,
            from_queue=self.from_queue or other.from_queue,
            queue_shared=self.queue_shared or other.queue_shared,
            param_deps=self.param_deps | other.param_deps,
        )

    @staticmethod
    def flows(values: "Iterable[Value]") -> "Value":
        """Only the source taints and parameter dependencies of ``values``."""
        out = Value()
        for value in values:
            out.taints |= value.taints
            out.param_deps |= value.param_deps
        return out

    @staticmethod
    def combine(values: "Tuple[Value, ...]") -> "Value":
        """Dataflow-combine operands of an expression.

        Taints, float-ness, unorderedness and parameter dependencies
        union; container shape does not survive combination (``a + b``
        of two dicts is not usefully a dict for ordering purposes).
        """
        out = Value()
        for value in values:
            out.taints |= value.taints
            out.is_float = out.is_float or value.is_float
            out.unordered = out.unordered or value.unordered
            out.param_deps |= value.param_deps
        return out


@dataclass(frozen=True)
class FunctionSummary:
    """Flow facts for one function, as seen from a call site.

    Parameter positions are caller-side: ``self`` is stripped for
    methods, so position 0 is the first explicit argument.
    """

    returns: FrozenSet[SourceKind] = frozenset()
    param_flow: FrozenSet[int] = frozenset()
    returns_container: Optional[str] = None
    returns_float: bool = False
    checkpoint_sink_params: FrozenSet[int] = frozenset()

    def merge(self, other: "FunctionSummary") -> "FunctionSummary":
        return FunctionSummary(
            returns=self.returns | other.returns,
            param_flow=self.param_flow | other.param_flow,
            returns_container=self.returns_container
            if self.returns_container == other.returns_container
            else None,
            returns_float=self.returns_float or other.returns_float,
            checkpoint_sink_params=self.checkpoint_sink_params
            | other.checkpoint_sink_params,
        )



def _annotation_text(node: ast.expr) -> str:
    """Flatten an annotation AST to a best-effort dotted string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return ""


def annotation_value(node: Optional[ast.expr]) -> Value:
    """Abstract value implied by a type annotation.

    ``Dict[str, float]`` / ``Mapping[...]`` give a dict container (with
    ``value_is_float`` when the value type mentions ``float``);
    ``Set``/``FrozenSet`` give a set; ``List``/``Sequence``/``Tuple``
    give a list; anything whose head ends in ``Queue`` is a queue
    endpoint; a bare ``float`` marks the value float.  Unknown
    annotations yield the untainted unknown value.
    """
    value = Value()
    if node is None:
        return value
    text = _annotation_text(node)
    if not text:
        return value
    head = text.split("[", 1)[0].strip()
    tail = text.split("[", 1)[1] if "[" in text else ""
    short = head.rsplit(".", 1)[-1]
    if short in ("Dict", "dict", "Mapping", "MutableMapping", "OrderedDict"):
        value.container = "dict"
        parts = tail.rsplit("]", 1)[0].split(",", 1)
        if len(parts) == 2 and "float" in parts[1]:
            value.value_is_float = True
    elif short in ("Set", "set", "FrozenSet", "frozenset", "AbstractSet"):
        value.container = "set"
    elif short in ("List", "list", "Sequence", "Tuple", "tuple", "Iterable"):
        value.container = "list"
    elif short.endswith("Queue"):
        value.container = "queue"
    elif short == "float":
        value.is_float = True
    return value
