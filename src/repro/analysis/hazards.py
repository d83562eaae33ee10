"""Pipeline read/write trace schema and RAW/WAR hazard analysis.

The pipelined PS trainer (paper §V, Figure 9) gathers host embedding
rows for batch ``i + Q`` *before* the gradients of batches
``i..i+Q-1`` reach host memory.  Without the §V-B life-cycle-managed
embedding cache that is a read-after-write hazard: the worker trains
on rows that are missing in-flight updates (Figure 10a).  This module
turns that argument into a mechanical check:

* instrumented pipeline components (:mod:`repro.analysis.shims`)
  record one :class:`RowEvent` per embedding-row access with a
  *simulated timestamp* — a deterministic logical clock that ticks
  once per pipeline operation, so traces are bit-identical across
  runs;
* :func:`analyze_trace` replays the event log per ``(table, row)``
  and reports every program-order/memory-order inversion, classified
  RAW or WAR, together with whether the embedding cache *repaired* it
  (a cache hit served the fresh value, so no stale data was consumed).

A clean pipelined run (LC management on) must analyze to **zero**
unrepaired hazards; the fault-injection run (``use_cache=False``)
must surface the paper's raw conflict.  Both facts are asserted in
``tests/analysis/test_hazards.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.findings import Finding, RuleInfo, Severity, finding, rule_catalog

__all__ = [
    "EventKind",
    "RowEvent",
    "TraceRecorder",
    "Hazard",
    "HazardReport",
    "HAZARD_RULES",
    "analyze_trace",
    "hazard_findings",
]


class EventKind(enum.Enum):
    """What happened to an embedding row (or queue slot)."""

    GATHER = "gather"  # server read host memory for a prefetch
    CONSUME = "consume"  # worker consumed the (possibly synced) rows
    UPDATE = "update"  # worker produced fresh row values (write intent)
    APPLY = "apply"  # server applied gradients to host memory (write)
    SYNC_HIT = "sync_hit"  # cache replaced a stale prefetched row
    SYNC_MISS = "sync_miss"  # cache had no entry for a prefetched row
    CACHE_PUT = "cache_put"  # LC cache stored/refreshed a row
    CACHE_DEC = "cache_dec"  # LC decremented (grad batch drained)
    CACHE_EVICT = "cache_evict"  # LC reached zero, row evicted
    QUEUE_PUT = "queue_put"  # bounded-queue enqueue (stage-tagged)
    QUEUE_GET = "queue_get"  # bounded-queue dequeue (stage-tagged)


# Event kinds that address a concrete (table, row) pair.
_ROW_KINDS = frozenset(EventKind) - {EventKind.QUEUE_PUT, EventKind.QUEUE_GET}


@dataclass(frozen=True)
class RowEvent:
    """One trace record.

    Attributes
    ----------
    time:
        Simulated timestamp: the logical-clock value of the pipeline
        operation that produced the event.  All rows touched by one
        vectorized operation share a timestamp; distinct operations
        never do.
    kind:
        :class:`EventKind`.
    stage:
        Pipeline stage tag (``server_gather``, ``worker_train``,
        ``server_apply``, ``cache``, or a queue name).  Maps onto the
        paper's life-cycle discussion — see DESIGN.md §7.
    table:
        Host-table position in the model (``-1`` for queue events).
    row:
        Embedding-row id (``-1`` for queue events).
    batch:
        Batch id the operation belongs to (``-1`` when not
        attributable, e.g. generic queue traffic).
    """

    time: int
    kind: EventKind
    stage: str
    table: int = -1
    row: int = -1
    batch: int = -1


class TraceRecorder:
    """Deterministic event log with a logical clock.

    ``tick`` advances simulated time by one; ``record_rows`` stamps a
    whole vector of rows with the current instant.  Because the clock
    only advances when the (single-threaded, deterministic) pipeline
    performs an operation, identical runs produce identical traces.
    """

    def __init__(self) -> None:
        self.events: List[RowEvent] = []
        self._clock = 0

    @property
    def now(self) -> int:
        return self._clock

    def tick(self) -> int:
        """Advance simulated time; returns the new timestamp."""
        self._clock += 1
        return self._clock

    def record(
        self,
        kind: EventKind,
        stage: str,
        table: int = -1,
        row: int = -1,
        batch: int = -1,
    ) -> None:
        """Append one event at the current simulated time."""
        self.events.append(RowEvent(self._clock, kind, stage, table, row, batch))

    def record_rows(
        self,
        kind: EventKind,
        stage: str,
        table: int,
        rows: Iterable[int],
        batch: int,
    ) -> None:
        """Append one event per row, all at the current instant."""
        for row in rows:
            self.record(kind, stage, table=table, row=int(row), batch=batch)

    def clear(self) -> None:
        self.events.clear()
        self._clock = 0


@dataclass(frozen=True)
class Hazard:
    """One program-order/memory-order inversion on an embedding row.

    ``kind == "RAW"``: reader batch ``reader_batch`` gathered row
    ``row`` from host memory at ``read_time``, *before* the write of
    earlier batch ``writer_batch`` landed at ``write_time`` — the
    reader missed an update it depends on.  ``repaired`` is True when
    a cache sync served the fresh value to the reader anyway.

    ``kind == "WAR"``: the write of a *later* batch landed before an
    earlier batch's gather — the reader observed the future.
    """

    kind: str
    table: int
    row: int
    writer_batch: int
    reader_batch: int
    write_time: int
    read_time: int
    repaired: bool

    def describe(self) -> str:
        fixed = " (repaired by LC cache)" if self.repaired else ""
        return (
            f"{self.kind} table={self.table} row={self.row}: batch "
            f"{self.reader_batch} gathered at t={self.read_time} vs "
            f"batch {self.writer_batch} write at t={self.write_time}{fixed}"
        )


@dataclass
class HazardReport:
    """Analysis outcome over one recorded trace."""

    hazards: List[Hazard] = field(default_factory=list)
    repaired: List[Hazard] = field(default_factory=list)
    events_analyzed: int = 0
    rows_tracked: int = 0

    @property
    def raw_hazards(self) -> List[Hazard]:
        return [h for h in self.hazards if h.kind == "RAW"]

    @property
    def war_hazards(self) -> List[Hazard]:
        return [h for h in self.hazards if h.kind == "WAR"]

    @property
    def clean(self) -> bool:
        return not self.hazards

    def hot_rows(self, top: int = 5) -> List[Tuple[int, int, int]]:
        """``(table, row, hazard_count)`` for the worst offenders."""
        counts: Dict[Tuple[int, int], int] = {}
        for hazard in self.hazards:
            key = (hazard.table, hazard.row)
            counts[key] = counts.get(key, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(t, r, n) for (t, r), n in ranked[:top]]

    def summary(self) -> str:
        lines = [
            f"events analyzed : {self.events_analyzed}",
            f"rows tracked    : {self.rows_tracked}",
            f"RAW hazards     : {len(self.raw_hazards)}",
            f"WAR hazards     : {len(self.war_hazards)}",
            f"repaired        : {len(self.repaired)} "
            "(stale gathers healed by the LC cache)",
        ]
        for table, row, count in self.hot_rows():
            lines.append(f"  hot row table={table} row={row}: {count} hazard(s)")
        return "\n".join(lines)


def analyze_trace(events: Sequence[RowEvent]) -> HazardReport:
    """Detect RAW/WAR hazards in a recorded pipeline trace.

    For every ``(table, row)`` pair the analyzer collects the host
    *reads* (``GATHER``, tagged with the reading batch) and host
    *writes* (``APPLY``, tagged with the writing batch), plus the
    cache repairs (``SYNC_HIT``) observed by each reader.  Program
    order says batch ``j``'s write must be visible to batch ``i``'s
    read whenever ``j < i``; the trace violates that whenever the
    gather's timestamp precedes the apply's timestamp:

    * ``j < i`` and ``t_gather(i) < t_apply(j)`` → **RAW** — reader
      ``i`` missed writer ``j``'s update;
    * ``j > i`` and ``t_apply(j) < t_gather(i)`` → **WAR** — reader
      ``i`` observed a write from its future.

    A RAW inversion whose reader also has a ``SYNC_HIT`` on the same
    row *after* the gather is recorded as repaired (the §V-B cache
    served the fresh value), not as a hazard.  Output ordering is
    deterministic: sorted by (table, row, reader, writer).
    """
    reads: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    writes: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    repairs: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for event in events:
        if event.kind not in _ROW_KINDS:
            continue
        key = (event.table, event.row)
        if event.kind is EventKind.GATHER:
            reads.setdefault(key, []).append((event.time, event.batch))
        elif event.kind is EventKind.APPLY:
            writes.setdefault(key, []).append((event.time, event.batch))
        elif event.kind is EventKind.SYNC_HIT:
            repairs.setdefault(key, []).append((event.time, event.batch))

    report = HazardReport(
        events_analyzed=len(events),
        rows_tracked=len(set(reads) | set(writes)),
    )
    for key in sorted(set(reads) & set(writes)):
        table, row = key
        row_repairs = repairs.get(key, [])
        for read_time, reader in reads[key]:
            repaired = any(
                sync_batch == reader and sync_time >= read_time
                for sync_time, sync_batch in row_repairs
            )
            for write_time, writer in writes[key]:
                if writer < reader and read_time < write_time:
                    kind, healed = "RAW", repaired
                elif writer > reader and write_time < read_time:
                    kind, healed = "WAR", False
                else:
                    continue
                hazard = Hazard(
                    kind, table, row, writer, reader, write_time, read_time, healed
                )
                (report.repaired if healed else report.hazards).append(hazard)

    def _order(h: Hazard) -> Tuple[int, int, int, int]:
        return (h.table, h.row, h.reader_batch, h.writer_batch)

    report.hazards.sort(key=_order)
    report.repaired.sort(key=_order)
    return report


# ---------------------------------------------------------------------------
# Finding/SARIF bridge
# ---------------------------------------------------------------------------


HAZARD_RULES: Dict[str, RuleInfo] = rule_catalog(
    RuleInfo(
        "HAZ001",
        "raw-hazard",
        Severity.ERROR,
        "a batch gathered an embedding row before an earlier "
        "batch's gradient landed (paper Fig. 10a), and the LC "
        "cache did not repair the stale read",
    ),
    RuleInfo(
        "HAZ002",
        "war-hazard",
        Severity.ERROR,
        "a later batch's write landed before an earlier batch's "
        "gather — the reader observed its future",
    ),
)


def hazard_findings(
    report: HazardReport, trace_path: str = "trace://pipeline"
) -> List[Finding]:
    """Render unrepaired hazards as :class:`Finding` records.

    Hazards live in a logical-clock trace, not a file, so ``path`` is
    the synthetic trace URI and ``line`` is the reader's gather
    timestamp — the instant the stale value was observed.
    """
    return [
        finding(
            HAZARD_RULES["raw-hazard" if hazard.kind == "RAW" else "war-hazard"],
            trace_path,
            (hazard.read_time, 0),
            hazard.describe(),
            "enable LC cache management so prefetched rows "
            "are synced before consumption",
        )
        for hazard in report.hazards
    ]
