"""Deterministic online-inference subsystem (serving side of EL-Rec).

Request generation (:mod:`~repro.serving.requests`), dynamic
micro-batching (:mod:`~repro.serving.batcher`), the served model view
and its cost model (:mod:`~repro.serving.server`), SLO metrics and
trace export (:mod:`~repro.serving.metrics`), training→serving
snapshots (:mod:`~repro.serving.snapshot`), and the one serving event
loop — N replicas (a single server is N=1), per-replica fault domains,
health-aware routing, degradation ladder, rolling hot-swap — in
:mod:`~repro.serving.fleet`, :mod:`~repro.serving.router`, and
:mod:`~repro.serving.health`.
"""

import importlib
from typing import Any

from repro.serving.batcher import BatchingPolicy, MicroBatch, MicroBatcher
from repro.serving.health import (
    HealthMonitor,
    HealthStatus,
    ProbeConfig,
    ReplicaHealth,
)
from repro.serving.metrics import (
    RequestResult,
    ServedBatch,
    ServingMetrics,
    SLOReport,
    export_serving_trace,
    serving_trace_events,
)
from repro.serving.requests import (
    InferenceRequest,
    RequestGenerator,
    coalesce_requests,
    hot_rows_from_trace,
)
from repro.serving.server import (
    ServiceTimeModel,
    ServingModel,
    replay_batches,
)
from repro.serving.snapshot import ModelSnapshot

#: Fleet and router symbols resolve lazily (PEP 562):
#: :mod:`repro.serving.fleet` pulls in the resilience layer (breakers,
#: fault injection, retry policies) whose own modules import serving
#: primitives — importing it eagerly here would close an import cycle.
_LAZY_EXPORTS = {
    "AutoscaleEvent": "repro.serving.fleet",
    "AutoscalePolicy": "repro.serving.fleet",
    "BatchingQueue": "repro.serving.fleet",
    "FleetBatch": "repro.serving.fleet",
    "FleetConfig": "repro.serving.fleet",
    "FleetOutcome": "repro.serving.fleet",
    "ReplicaExecutor": "repro.serving.fleet",
    "ReplicaReport": "repro.serving.fleet",
    "ReplicaState": "repro.serving.fleet",
    "ServingFleet": "repro.serving.fleet",
    "SwapReport": "repro.serving.fleet",
    "AdmissionConfig": "repro.serving.router",
    "FleetRouter": "repro.serving.router",
    "RedirectDecision": "repro.serving.router",
    "RedirectRecord": "repro.serving.router",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value

__all__ = [
    "BatchingPolicy",
    "MicroBatch",
    "MicroBatcher",
    "AutoscaleEvent",
    "AutoscalePolicy",
    "BatchingQueue",
    "FleetBatch",
    "FleetConfig",
    "FleetOutcome",
    "ReplicaExecutor",
    "ReplicaReport",
    "ReplicaState",
    "ServingFleet",
    "SwapReport",
    "HealthMonitor",
    "HealthStatus",
    "ProbeConfig",
    "ReplicaHealth",
    "AdmissionConfig",
    "FleetRouter",
    "RedirectDecision",
    "RedirectRecord",
    "RequestResult",
    "ServedBatch",
    "ServingMetrics",
    "SLOReport",
    "export_serving_trace",
    "serving_trace_events",
    "InferenceRequest",
    "RequestGenerator",
    "coalesce_requests",
    "hot_rows_from_trace",
    "ServiceTimeModel",
    "ServingModel",
    "replay_batches",
    "ModelSnapshot",
]
