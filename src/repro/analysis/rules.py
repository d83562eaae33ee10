"""Repo-specific lint rules (the ``reprolint`` rule catalog).

Rules are small objects satisfying the :class:`Rule` protocol; the
module-level :data:`RULE_REGISTRY` is what the linter iterates.  Each
rule inspects one parsed module through a :class:`RuleContext` and
yields :class:`~repro.analysis.findings.Finding` records.

The catalog enforces the invariants the reproduction's correctness
story rests on:

``unseeded-rng`` (REP001, error)
    All randomness flows through :mod:`repro.utils.rng`.  Calling
    ``np.random.default_rng()`` with no seed, or any legacy global
    ``np.random.*`` sampler, silently breaks bit-reproducibility.
``wall-clock`` (REP002, error)
    ``system/``, ``serving/`` and ``embeddings/`` are SimClock-only
    zones: simulated time must come from the event loop, never from
    ``time.time()``/``time.perf_counter()``, or traces stop being
    deterministic.  (Measurement harnesses opt out per line with a
    ``# reprolint: disable=wall-clock`` pragma.)
``implicit-dtype`` (REP003, error)
    Kernel modules (``embeddings/``, ``nn/``, ``sharding/``) must
    allocate with an explicit ``dtype``: numpy's float64 default has
    bitten every mixed-precision port of this code, and implicit dtypes
    make the Table-III memory accounting wrong.  The same rule flags a
    hard-coded float64 (``dtype=np.float64``, ``.astype(np.float64)``)
    there and in ``models/`` and ``serving/``: the model's dtype comes
    from ``DLRMConfig.dtype``, so a literal float64 is an upcast.  A
    site that is float64 on purpose carries a pragma saying why.
``direct-numpy-in-kernel-zone`` (REP005, error)
    Hot-path contractions (``np.matmul``/``np.einsum``/``np.dot``)
    must route through the active :mod:`repro.backend` so FLOP
    instrumentation, plan caching, and accelerated backends see every
    kernel.  The reference :class:`NumpyBackend` is the one module
    allowed to call them, via a ``disable-file`` pragma.
``silent-except`` (REP006, error)
    Kernel and system zones must not hide failures: a bare
    ``except:`` catches ``KeyboardInterrupt``/``SystemExit`` along
    with everything else, and a handler whose body is only
    ``pass``/``...`` swallows the exception without a trace.  The
    resilience layer's whole contract is that faults are *detected*
    and *recovered*, never silently eaten — a swallowed exception in
    these zones is indistinguishable from the dropped-gradient fault
    the chaos suite injects.
``hot-loop-alloc`` (REP007, error)
    An array allocation inside a loop inside a ``with bk.zone(...)``
    block whose arguments name nothing the loop assigns re-allocates
    the same buffer every iteration: hoist it out of the loop.
``unknown-pragma`` (REP008, error)
    A ``# reprolint: disable=`` pragma must name a rule of ``lint`` or
    ``detcheck`` (by id or name) or ``all``: a pragma that outlived its
    rule suppresses nothing and reads as if it did.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Protocol, Set, Tuple

from repro.analysis.findings import Finding, Severity, finding

__all__ = [
    "Rule",
    "RuleContext",
    "RULE_REGISTRY",
    "register",
    "UnseededRngRule",
    "WallClockRule",
    "ImplicitDtypeRule",
    "DirectNumpyRule",
    "SilentExceptRule",
    "HotLoopAllocRule",
    "UnknownPragmaRule",
    "PRAGMA",
    "assigned_names",
    "SIMCLOCK_ZONES",
    "KERNEL_ZONES",
    "FLOAT64_ZONES",
    "BACKEND_ROUTED_ZONES",
    "EXCEPTION_ZONES",
    "RNG_EXEMPT_FILES",
    "LEGACY_SAMPLERS",
    "WALL_CLOCK_CALLS",
]

# Module prefixes (posix, rooted at the package dir) where simulated
# time is the only legal clock.
SIMCLOCK_ZONES: Tuple[str, ...] = (
    "repro/system/",
    "repro/serving/",
    "repro/embeddings/",
    "repro/resilience/",
    "repro/sharding/",
)

# Module prefixes holding numeric kernels: allocations need explicit
# dtypes.
KERNEL_ZONES: Tuple[str, ...] = (
    "repro/embeddings/",
    "repro/nn/",
    "repro/sharding/",
)

# Module prefixes where a hard-coded float64 is an upcast of the
# model's dtype (REP003).
FLOAT64_ZONES: Tuple[str, ...] = KERNEL_ZONES + (
    "repro/models/",
    "repro/serving/",
)

# Module prefixes whose contractions are routed through repro.backend:
# direct np.matmul/einsum/dot calls there bypass instrumentation and
# plan caching.  The reference NumpyBackend opts out per file.
BACKEND_ROUTED_ZONES: Tuple[str, ...] = KERNEL_ZONES + (
    "repro/system/",
    "repro/serving/",
    "repro/backend/",
)

# Module prefixes where exceptions must never be silently swallowed:
# the numeric kernels plus every zone with fault-detection duties.
EXCEPTION_ZONES: Tuple[str, ...] = (
    "repro/embeddings/",
    "repro/nn/",
    "repro/system/",
    "repro/serving/",
    "repro/resilience/",
    "repro/sharding/",
)

# The one module allowed to touch numpy's RNG constructors directly.
RNG_EXEMPT_FILES: Tuple[str, ...] = ("repro/utils/rng.py",)


@dataclass
class RuleContext:
    """Everything a rule may look at for one module.

    Attributes
    ----------
    path:
        The file as given on the command line (used in findings).
    rel:
        Posix path rooted at the ``repro`` package dir
        (``repro/system/pipeline.py``); zone checks key off this.
    tree:
        Parsed AST of the module.
    source:
        Raw text (for ``ast.get_source_segment``).
    aliases:
        Import-alias map: local name -> absolute dotted target
        (``np`` -> ``numpy``, ``pc`` -> ``time.perf_counter``).
    """

    path: str
    rel: str
    tree: ast.Module
    source: str
    aliases: Dict[str, str] = field(default_factory=dict)

    def in_zone(self, prefixes: Tuple[str, ...]) -> bool:
        return self.rel.startswith(prefixes)

    def resolve_call(self, node: ast.expr) -> Optional[str]:
        """Absolute dotted name of a call target, or None.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` given ``import numpy as np``; a
        bare ``perf_counter`` resolves through a
        ``from time import perf_counter`` alias.
        """
        parts: List[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        parts.append(cursor.id)
        parts.reverse()
        head, rest = parts[0], parts[1:]
        target = self.aliases.get(head, head)
        return ".".join([target, *rest]) if rest else target


def build_context(path: Path, rel: str, source: str) -> RuleContext:
    """Parse one module and pre-compute its import-alias map."""
    tree = ast.parse(source, filename=str(path))
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return RuleContext(
        path=str(path), rel=rel, tree=tree, source=source, aliases=aliases
    )


class Rule(Protocol):
    """One pluggable lint rule."""

    id: str
    name: str
    severity: Severity
    description: str

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        ...


RULE_REGISTRY: Dict[str, "Rule"] = {}


def register(rule: "Rule") -> "Rule":
    """Add a rule instance to the global registry (name must be unique)."""
    if rule.name in RULE_REGISTRY:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    RULE_REGISTRY[rule.name] = rule
    return rule


def _calls(ctx: RuleContext) -> Iterator[Tuple[ast.Call, Optional[str]]]:
    """Every call in the module with its resolved dotted target."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            yield node, ctx.resolve_call(node.func)


# ---------------------------------------------------------------------------
# REP001 — unseeded / global RNG
# ---------------------------------------------------------------------------

#: numpy's legacy global-state RNG functions (``np.random.<name>``).
LEGACY_SAMPLERS = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "choice", "shuffle", "permutation", "uniform", "normal",
        "standard_normal", "binomial", "poisson", "exponential",
        "get_state", "set_state",
    }
)


class UnseededRngRule:
    """All randomness must flow through ``repro.utils.rng``."""

    id = "REP001"
    name = "unseeded-rng"
    severity = Severity.ERROR
    description = (
        "no unseeded default_rng() or legacy global np.random.* outside "
        "utils/rng.py"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if ctx.rel in RNG_EXEMPT_FILES:
            return
        for node, target in _calls(ctx):
            if target is None or not target.startswith("numpy.random."):
                continue
            tail = target.rsplit(".", 1)[1]
            if tail == "default_rng" and not node.args and not node.keywords:
                yield finding(
                    self,
                    ctx.path,
                    node,
                    "unseeded np.random.default_rng() is nondeterministic",
                    'use repro.utils.rng.ensure_rng with an int seed, or '
                    'seed="entropy" for an explicit opt-in',
                )
            elif tail in LEGACY_SAMPLERS:
                yield finding(
                    self,
                    ctx.path,
                    node,
                    f"legacy global np.random.{tail}() mutates shared "
                    "process state",
                    "draw from a repro.utils.rng.ensure_rng(seed) Generator",
                )


# ---------------------------------------------------------------------------
# REP002 — wall clock inside SimClock zones
# ---------------------------------------------------------------------------

WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)


class WallClockRule:
    """SimClock-only zones must not read the host clock."""

    id = "REP002"
    name = "wall-clock"
    severity = Severity.ERROR
    description = (
        "no time.time()/time.perf_counter() in system/, serving/, "
        "embeddings/ (SimClock-only zones)"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if not ctx.in_zone(SIMCLOCK_ZONES):
            return
        for node, target in _calls(ctx):
            if target in WALL_CLOCK_CALLS:
                yield finding(
                    self,
                    ctx.path,
                    node,
                    f"{target}() reads the host clock inside a "
                    "SimClock-only zone",
                    "take timestamps from the Simulator/SimClock event "
                    "loop; measurement harnesses may disable per line",
                )


# ---------------------------------------------------------------------------
# REP003 — allocations without an explicit dtype in kernel modules
# ---------------------------------------------------------------------------

_ALLOCATORS = frozenset(
    {"numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full"}
)


def _hard_coded_dtypes(node: ast.Call) -> Iterator[ast.expr]:
    """The dtype expressions a call spells out: ``dtype=`` and ``.astype(x)``."""
    for kw in node.keywords:
        if kw.arg == "dtype":
            yield kw.value
    if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
        yield from node.args[:1]


class ImplicitDtypeRule:
    """Kernel allocations must name their dtype, and never a literal float64."""

    id = "REP003"
    name = "implicit-dtype"
    severity = Severity.ERROR
    description = (
        "np.zeros/ones/empty/full in embeddings/, nn/ and sharding/ must "
        "pass an explicit dtype, and there and in models/ and serving/ it "
        "must not be a hard-coded float64"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        kernel = ctx.in_zone(KERNEL_ZONES)
        if not (kernel or ctx.in_zone(FLOAT64_ZONES)):
            return
        for node, target in _calls(ctx):
            for value in _hard_coded_dtypes(node):
                if ctx.resolve_call(value) == "numpy.float64":
                    yield finding(
                        self,
                        ctx.path,
                        value,
                        "hard-coded float64 where the model's dtype belongs",
                        "use the model's or the array's own dtype; a site "
                        "that is float64 on purpose takes a "
                        "'# reprolint: disable=REP003 (why)' pragma",
                    )
            if not kernel or target not in _ALLOCATORS:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            short = target.rsplit(".", 1)[1]
            yield finding(
                self,
                ctx.path,
                node,
                f"np.{short}() without an explicit dtype in a kernel module",
                "pass the intended dtype explicitly",
            )


# ---------------------------------------------------------------------------
# REP005 — direct numpy contractions in backend-routed zones
# ---------------------------------------------------------------------------

_CONTRACTIONS = frozenset({"numpy.matmul", "numpy.einsum", "numpy.dot"})


class DirectNumpyRule:
    """Hot-path contractions must go through the active backend."""

    id = "REP005"
    name = "direct-numpy-in-kernel-zone"
    severity = Severity.ERROR
    description = (
        "no direct np.matmul/np.einsum/np.dot in backend-routed zones; "
        "call get_backend().matmul/einsum so instrumentation and plan "
        "caching see the kernel"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if not ctx.in_zone(BACKEND_ROUTED_ZONES):
            return
        for node, target in _calls(ctx):
            if target not in _CONTRACTIONS:
                continue
            short = target.rsplit(".", 1)[1]
            yield finding(
                self,
                ctx.path,
                node,
                f"direct np.{short}() bypasses the repro.backend layer",
                "route through get_backend().matmul/einsum (the reference "
                "NumpyBackend itself opts out with a disable-file pragma)",
            )


# ---------------------------------------------------------------------------
# REP006 — bare / silently-swallowed exceptions in kernel+system zones
# ---------------------------------------------------------------------------


def _is_swallowed(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing observable at all."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            # A docstring or bare `...` — still silent.
            continue
        return False
    return True


class SilentExceptRule:
    """Fault-detecting zones must not hide exceptions."""

    id = "REP006"
    name = "silent-except"
    severity = Severity.ERROR
    description = (
        "no bare `except:` and no pass-only exception handlers in "
        "kernel and system zones; recover, re-raise, or record — "
        "never swallow"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        if not ctx.in_zone(EXCEPTION_ZONES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield finding(
                    self,
                    ctx.path,
                    node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt "
                    "and hides the failure's type",
                    "name the exception(s) you can actually handle, or "
                    "`except Exception` + re-raise after cleanup",
                )
                continue
            if _is_swallowed(node):
                segment = ast.get_source_segment(ctx.source, node.type) or ""
                yield finding(
                    self,
                    ctx.path,
                    node,
                    f"exception handler for {segment.strip() or 'Exception'} "
                    "silently swallows the failure",
                    "handle it, re-raise it, or record it (e.g. a metrics "
                    "counter); silent drops mask injected and real faults "
                    "alike",
                )


# ---------------------------------------------------------------------------
# REP007 — loop-invariant allocations inside a kernel-zone loop
# ---------------------------------------------------------------------------

_LOOP_ALLOCS = frozenset({"zeros", "ones", "empty", "full"})
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def assigned_names(node: ast.AST) -> Set[str]:
    """Every name ``node`` may store to: ``x``, ``x.attr`` and the ``x`` of ``x[i]``."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if not isinstance(getattr(child, "ctx", None), ast.Store):
            continue
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
            names.add(f"{child.value.id}.{child.attr}")
        elif isinstance(child, ast.Subscript) and isinstance(child.value, ast.Name):
            names.add(child.value.id)
    return names


def _opens_zone(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr == "zone"
    )


class HotLoopAllocRule:
    """A buffer that does not depend on the loop is allocated once, before it."""

    id = "REP007"
    name = "hot-loop-alloc"
    severity = Severity.ERROR
    description = (
        "no loop-invariant zeros/ones/empty/full allocation inside a loop "
        "in a `with bk.zone(...)` block; hoist the buffer"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        return self._scan(ctx, ctx.tree, None, ())

    def _scan(
        self, ctx: RuleContext, node: ast.AST, zone: Optional[ast.expr],
        loops: Tuple[ast.stmt, ...],
    ) -> Iterator[Finding]:
        if isinstance(node, _SCOPES):
            zone, loops = None, ()  # a nested def runs where it is called
        elif (
            isinstance(node, ast.Call) and zone is not None and loops
            and isinstance(node.func, ast.Attribute) and node.func.attr in _LOOP_ALLOCS
        ):
            loaded = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if not loaded & set().union(*map(assigned_names, loops)):
                yield finding(
                    self, ctx.path, node,
                    f"{ast.unparse(node.func)}() allocates a loop-invariant buffer "
                    f"on every iteration inside {ast.unparse(zone)}",
                    "hoist the allocation out of the loop and reuse the buffer",
                )
        body_zone, body_loops = zone, loops  # what a loop's or with's body runs in
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            body_loops = (*loops, node)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            opened = [item.context_expr for item in node.items if _opens_zone(item.context_expr)]
            body_zone = opened[0] if opened else zone
        for field_name, value in ast.iter_fields(node):
            in_body = field_name == "body"
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from self._scan(
                        ctx, child, body_zone if in_body else zone,
                        body_loops if in_body else loops,
                    )


# ---------------------------------------------------------------------------
# REP008 — pragmas that name no rule
# ---------------------------------------------------------------------------

#: A per-line (``disable=``) or whole-module (``disable-file=``) pragma.
PRAGMA = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\- ]+)"
)


class UnknownPragmaRule:
    """A suppression pragma names a rule that exists."""

    id = "REP008"
    name = "unknown-pragma"
    severity = Severity.ERROR
    description = (
        "every `# reprolint: disable=` pragma names a lint or detcheck "
        "rule (id or name) or `all`"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        from repro.analysis.detcheck.catalog import DET_RULES  # it imports this module

        known = {"all"} | {
            key for rule in (*RULE_REGISTRY.values(), *DET_RULES.values())
            for key in (rule.id, rule.name)
        }
        for lineno, line in enumerate(ctx.source.splitlines(), start=1):
            match = PRAGMA.search(line)
            if match is None:
                continue
            for name in match.group(2).split(","):
                if name.strip() and name.strip() not in known:
                    yield finding(
                        self, ctx.path, (lineno, match.start()),
                        f"pragma names {name.strip()!r}, which is no lint or "
                        "detcheck rule: it suppresses nothing",
                        "delete the pragma, or name the rule by its id or name",
                    )


register(UnseededRngRule())
register(WallClockRule())
register(ImplicitDtypeRule())
register(DirectNumpyRule())
register(SilentExceptRule())
register(HotLoopAllocRule())
register(UnknownPragmaRule())
