"""The walker: the statement and expression dispatcher under detcheck."""

import ast
from pathlib import Path

from repro.analysis import detcheck_source
from repro.analysis.detcheck.interp import FunctionInterpreter
from repro.analysis.rules import build_context
from repro.analysis.walker import Walker

ACCUMULATE = (
    "from typing import Dict\n\n"
    "def total(parts: Dict[str, float]) -> float:\n"
    "    out = 0.0\n"
    "    for name in parts:\n"
    "        out += parts[name]\n"
    "    return out\n"
)


def _hits(source, rel=None):
    return [(f.rule_id, f.line) for f in detcheck_source(source, rel=rel).findings]


def test_every_domain_walks_with_the_walkers_dispatch():
    assert issubclass(FunctionInterpreter, Walker)
    for method in ("exec_stmt", "eval", "run_branches", "join", "call_args"):
        assert method not in vars(FunctionInterpreter), method
    for retired in ("LOOP", "TRY", "WALKS_DEFS", "TOP", "run_module", "havoc", "zone_of"):
        assert not hasattr(Walker, retired), retired


def test_branch_conditions_are_checked():
    src = (
        "import time\n\n"
        "def late(started: float) -> bool:\n"
        "    if time.monotonic() - started > 0.002:\n"
        "        return True\n"
        "    return False\n"
    )
    assert _hits(src, rel="repro/serving/late.py") == [("DET005", 4)]


def test_a_finding_reached_twice_is_reported_once():
    # The loop body is walked twice, each pass joined with the pre-loop state.
    assert _hits(ACCUMULATE) == [("DET002", 6)]


def test_a_nested_def_does_not_run_in_the_enclosing_function():
    # The base class implements no hook, so walking either body would raise.
    source = "def inner():\n    return compute()\n\nclass Box:\n    size = compute()\n"
    walker = Walker(build_context(Path("m.py"), "m.py", source), {})
    walker.run_body(ast.parse(source).body, {})
    assert walker.env == {} and walker.findings == []


def test_detcheck_walks_async_loops():
    src = ACCUMULATE.replace("def total", "async def total").replace("for", "async for")
    assert _hits(src) == [("DET002", 6)]
