"""The detcheck catalogs: sources, sinks, zones, and the DET rule table.

Everything the taint engine treats as special is declared here, in one
place, so the analysis itself stays mechanism and the policy stays
data.  Three catalogs:

* **Sources** — expressions whose value is not a pure function of the
  program's seeded inputs: entropy-seeded RNG constructors, wall-clock
  reads, environment lookups, and address/hash identity.  Iteration
  order over ``dict``/``set`` is the fourth source family, but it is
  positional (a property of a loop, not a call) and handled by the
  interpreter directly.
* **Sinks** — places where a nondeterministic value stops being a
  local curiosity and becomes a broken invariant: checkpoint payloads
  (``state_arrays`` returns, ``CheckpointStore.save`` /
  ``np.savez*`` arguments), the parameter-server apply path, and
  placement-plan construction.
* **Zones** — module prefixes (shared with :mod:`repro.analysis.rules`)
  where the escape rules DET004/DET005 apply.

The DET rule table is a :class:`~repro.analysis.findings.RuleInfo`
catalog, like every analyzer's, so the SARIF emitter and the CLI treat
them uniformly.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Tuple

from repro.analysis.findings import RuleInfo, Severity, rule_catalog
from repro.analysis.rules import (  # the calls REP001 / REP002 ban
    EXCEPTION_ZONES,
    LEGACY_SAMPLERS,
    SIMCLOCK_ZONES,
    WALL_CLOCK_CALLS,
)

__all__ = [
    "SourceKind",
    "DET_RULES",
    "ENTROPY_RNG_CALLS",
    "WALL_CLOCK_CALLS",
    "ENV_CALLS",
    "ADDRESS_CALLS",
    "PAYLOAD_FUNCTION_NAMES",
    "PAYLOAD_WRITER_CALLS",
    "STATE_SINK_METHODS",
    "PLACEMENT_CONSTRUCTORS",
    "ORDER_INSENSITIVE_REDUCERS",
    "ORDER_SENSITIVE_COMBINERS",
    "COPY_CALLS",
    "RNG_COERCERS",
    "DETERMINISM_ZONES",
    "SIMCLOCK_DECISION_ZONES",
    "SOURCE_LABEL",
]


class SourceKind(enum.Enum):
    """Families of nondeterminism a value can carry."""

    ENTROPY_RNG = "entropy-rng"
    WALL_CLOCK = "wall-clock"
    ENV = "environment"
    ADDRESS = "address"


#: Human label used in finding messages, keyed by source kind.
SOURCE_LABEL: Dict[SourceKind, str] = {
    SourceKind.ENTROPY_RNG: "entropy-seeded RNG",
    SourceKind.WALL_CLOCK: "wall-clock read",
    SourceKind.ENV: "environment lookup",
    SourceKind.ADDRESS: "address/hash identity",
}


# ---------------------------------------------------------------------------
# source catalogs (resolved dotted call names)
# ---------------------------------------------------------------------------

ENTROPY_RNG_CALLS: FrozenSet[str] = frozenset(
    {f"numpy.random.{name}" for name in LEGACY_SAMPLERS}
    | {"os.urandom", "secrets.token_bytes", "secrets.token_hex",
       "secrets.randbits", "uuid.uuid1", "uuid.uuid4"}
    | {f"random.{name}" for name in (
        "random", "randint", "randrange", "choice", "shuffle", "uniform", "gauss")}
)
# ``numpy.random.default_rng`` is entropy-seeded only when called with
# no arguments; the interpreter checks the argument list itself.


ENV_CALLS: FrozenSet[str] = frozenset({"os.getenv", "os.environ.get"})
#: Attribute reads treated as environment sources.
ENV_ATTRS: FrozenSet[str] = frozenset({"os.environ", "os.environb"})

ADDRESS_CALLS: FrozenSet[str] = frozenset({"id", "hash", "object.__hash__"})

#: The sanctioned RNG coercers (repro.utils.rng): their return value is
#: entropy-tainted exactly when the *seed argument* is the literal
#: ``"entropy"`` (or itself tainted); any other seed is deterministic.
#: Generic summaries would have to say "maybe", so they are special-
#: cased at the call site instead.
RNG_COERCERS: FrozenSet[str] = frozenset(
    {"repro.utils.rng.ensure_rng", "repro.utils.rng.spawn_rngs", "ensure_rng",
     "spawn_rngs"}
)

# ---------------------------------------------------------------------------
# sink catalogs
# ---------------------------------------------------------------------------

#: Functions whose *return value* is a checkpoint payload: whatever
#: flows into the returned mapping will be serialized and compared
#: bitwise by the recovery invariants.
PAYLOAD_FUNCTION_NAMES: FrozenSet[str] = frozenset(
    {"state_arrays", "capture_trainer_arrays"}
)

#: Calls that write a payload to disk.  Any function calling one of
#: these is itself treated as a payload-constructing context, and every
#: argument position is a CHECKPOINT sink.
PAYLOAD_WRITER_CALLS: FrozenSet[str] = frozenset(
    {"numpy.savez", "numpy.savez_compressed", "numpy.save"}
)

#: Method names whose arguments land in parameter-server state (the
#: apply path) — name-matched because the PS tier is duck-typed.
STATE_SINK_METHODS: FrozenSet[str] = frozenset(
    {"apply_gradients", "step_rows", "load_state_arrays"}
)

#: Constructors assembling table plans — every policy in
#: ``repro.embeddings.planner`` returns these two; tainted arguments
#: mean the table placement itself becomes seed/host dependent.
PLACEMENT_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"repro.embeddings.planner.TablePlan", "repro.embeddings.planner.ModelPlan",
     "TablePlan", "ModelPlan"}
)

# ---------------------------------------------------------------------------
# ordering catalogs
# ---------------------------------------------------------------------------

#: Reducers that are insensitive to operand order (exact, not just
#: approximately): summing through these launders an unordered
#: iteration.  ``math.fsum`` is correctly rounded; ``len``/``min``/
#: ``max``/``any``/``all`` are order-free by construction.
ORDER_INSENSITIVE_REDUCERS: FrozenSet[str] = frozenset(
    {"math.fsum", "len", "min", "max", "any", "all", "frozenset", "set",
     "sorted", "numpy.bincount"}
)

#: Array combiners whose output layout follows operand order — feeding
#: them an unordered-iteration product is DET003.
ORDER_SENSITIVE_COMBINERS: FrozenSet[str] = frozenset(
    {"numpy.concatenate", "numpy.stack", "numpy.vstack", "numpy.hstack",
     "numpy.column_stack"}
)

#: Calls that produce an owned copy (clear the DET006 seam marker).
COPY_CALLS: FrozenSet[str] = frozenset(
    {"numpy.copy", "numpy.array", "numpy.asarray", "copy.copy",
     "copy.deepcopy"}
)

# ---------------------------------------------------------------------------
# zones
# ---------------------------------------------------------------------------

#: Where DET004 applies: an entropy RNG escaping a helper into any of
#: the kernel/system modules breaks the bitwise story of that zone.
DETERMINISM_ZONES: Tuple[str, ...] = EXCEPTION_ZONES

#: Where DET005 applies: SimClock-only zones must not branch on wall
#: time, even when the read happens in a helper module elsewhere.
SIMCLOCK_DECISION_ZONES: Tuple[str, ...] = SIMCLOCK_ZONES


# ---------------------------------------------------------------------------
# the DET rule table
# ---------------------------------------------------------------------------


DET_RULES: Dict[str, RuleInfo] = rule_catalog(
    RuleInfo(
        "DET001",
        "tainted-state",
        Severity.ERROR,
        "a nondeterministic source (entropy RNG, wall clock, "
        "environment, address identity) flows into checkpointed "
        "state, the PS apply path, or a placement plan",
    ),
    RuleInfo(
        "DET002",
        "unordered-float-accum",
        Severity.ERROR,
        "iteration over a dict/set feeds a float accumulation, so "
        "the sum depends on insertion/hash order; iterate "
        "sorted(...) or reduce with math.fsum",
    ),
    RuleInfo(
        "DET003",
        "unordered-reduction",
        Severity.ERROR,
        "a checkpoint payload or array combination is assembled "
        "from unordered dict/set iteration; canonicalize with "
        "sorted(...) so shard/table reductions are byte-stable",
    ),
    RuleInfo(
        "DET004",
        "entropy-rng-escape",
        Severity.ERROR,
        "an entropy-seeded RNG constructed in a helper escapes "
        "through its return value into a kernel/system zone",
    ),
    RuleInfo(
        "DET005",
        "wall-clock-decision",
        Severity.ERROR,
        "a wall-clock reading (possibly via a helper) influences a "
        "branch decision inside a SimClock-only zone",
    ),
    RuleInfo(
        "DET006",
        "queue-seam-mutation",
        Severity.ERROR,
        "an array received from (or handed to) a bounded queue is "
        "mutated in place without a copy, racing the other side "
        "of the ownership seam",
    ),
)
