"""The one walker under shapecheck, perfcheck and detcheck."""

import ast

from repro.analysis import detcheck_source, shapecheck_source
from repro.analysis.detcheck.interp import FunctionInterpreter
from repro.analysis.perfcheck.interp import PerfInterpreter
from repro.analysis.shapecheck.interp import ShapeInterpreter
from repro.analysis.walker import CallArgs, Walker, assigned_names, bind_op

PRELUDE = """
import numpy as np
from repro.backend import get_backend, ZONE_MLP
bk = get_backend()
a = bk.zeros((8, 16), dtype=np.float32)
w = bk.zeros((32, 4), dtype=np.float32)
"""


def _rules(source):
    return [f.rule_id for f in shapecheck_source(PRELUDE + source).findings]


def test_every_domain_walks_with_the_walkers_dispatch():
    for domain in (ShapeInterpreter, PerfInterpreter, FunctionInterpreter):
        assert issubclass(domain, Walker)
        for method in ("exec_stmt", "eval", "run_branches", "join", "call_args"):
            assert method not in vars(domain), (domain, method)
    assert (ShapeInterpreter.LOOP, ShapeInterpreter.TRY) == ("widen", "branches")
    assert (FunctionInterpreter.LOOP, FunctionInterpreter.TRY) == ("join", "sequence")
    assert not FunctionInterpreter.WALKS_DEFS


def test_branch_conditions_are_checked():
    assert _rules("if bk.matmul(a, w).sum() > 0:\n    pass\n") == ["SHP004"]


def test_a_finding_reached_twice_is_reported_once():
    # `finally` runs after the body, the handler and the else arm alike.
    src = (
        "try:\n    pass\nexcept ValueError:\n    pass\nelse:\n    pass\n"
        "finally:\n    bk.matmul(a, w)\n"
    )
    assert _rules(src) == ["SHP004"]


def test_a_nested_def_does_not_run_in_the_enclosing_zone():
    mixed = (
        "with bk.zone(ZONE_MLP):\n"
        "    x = bk.zeros((4,), dtype=np.float32)\n"
        "    y = bk.zeros((4,), dtype=np.float64)\n"
    )
    assert _rules(mixed) == ["SHP006"]
    nested = mixed.replace("    y = ", "    def helper():\n        return ")
    assert _rules(nested) == []


def test_detcheck_walks_async_loops():
    src = (
        "from typing import Dict\n\n"
        "async def total(parts: Dict[str, float]) -> float:\n"
        "    out = 0.0\n"
        "    async for name in parts:\n"
        "        out += parts[name]\n"
        "    return out\n"
    )
    assert [(f.rule_id, f.line) for f in detcheck_source(src).findings] == [("DET002", 6)]


def test_backend_operands_bind_once_with_their_expressions():
    node = ast.parse("bk.scatter_add_rows(t, idx, values=v)").body[0].value
    call = CallArgs(["T", "I"], False, [("values", "V")], None)
    operands = bind_op("scatter_add_rows", node, call)
    assert [op.value for op in operands.values()] == ["T", "I", "V", 1.0]
    assert [ast.unparse(op.expr) for op in list(operands.values())[:3]] == ["t", "idx", "v"]
    assert operands["scale"].expr is None
    assert bind_op("scatter_add_rows", node, call._replace(starred=True)) is None
    assert bind_op("not_an_op", node, call) is None


def test_assigned_names_cover_attributes_and_subscripts():
    loop = ast.parse("for i in r:\n    x = 1\n    s.y = 2\n    z[i] = 3\n").body[0]
    assert assigned_names(loop) == {"i", "x", "s.y", "z"}
