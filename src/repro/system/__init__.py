"""Training-system substrate (paper §V).

EL-Rec's system layer is a parameter-server design over a hierarchical
memory: TT tables replicated in GPU HBM, overflow embedding tables in
host memory, a prefetch queue and a gradient queue between them, and a
3-stage training pipeline whose RAW conflict is resolved by the
embedding cache.

Because this reproduction runs on one host, the system layer has two
personalities:

* **functional** — :mod:`repro.system.pipeline` executes *real
  numerics* through the PS architecture (the server is
  :class:`~repro.sharding.server.ShardedParameterServer`, the worker's
  host-backed bags live in :mod:`repro.system.parameter_server`),
  letting tests prove the paper's correctness claim (pipeline +
  embedding cache is bit-identical to sequential training, while
  naive prefetching trains on stale rows);
* **timed** — :mod:`repro.system.devices` calibrates a roofline cost
  model against this host's measured kernel throughput and scales it
  to published GPU specs (V100 / T4), and
  :func:`repro.system.pipeline.pipeline_schedule` computes pipelined
  makespans with the functional trainer's prefetch depth (the one §V
  timing model); the framework baselines in :mod:`repro.frameworks`
  build the paper's end-to-end figures on top.  The discrete-event
  :class:`~repro.system.simclock.Simulator` is the serving fleet's
  clock.
"""

from repro.system.devices import (
    CPU_HOST,
    DeviceSpec,
    HostProfile,
    KernelCostModel,
    TESLA_T4,
    TESLA_V100,
    calibrate_host,
)
from repro.system.queues import BoundedQueue
from repro.system.parameter_server import HostBackedEmbeddingBag
from repro.system.pipeline import (
    PipelinedPSTrainer,
    SequentialPSTrainer,
    pipeline_schedule,
)
from repro.system.multi_gpu import (
    DataParallelTrainer,
    all2all_time,
    allgather_time,
    ring_allreduce_time,
)
from repro.system.simclock import Simulator

__all__ = [
    "DeviceSpec",
    "HostProfile",
    "KernelCostModel",
    "calibrate_host",
    "CPU_HOST",
    "TESLA_V100",
    "TESLA_T4",
    "BoundedQueue",
    "HostBackedEmbeddingBag",
    "SequentialPSTrainer",
    "PipelinedPSTrainer",
    "pipeline_schedule",
    "DataParallelTrainer",
    "ring_allreduce_time",
    "Simulator",
    "all2all_time",
    "allgather_time",
]
