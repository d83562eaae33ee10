"""Sharded parameter-server tier.

EL-Rec's PS-pipelined training (paper §V) assumes one host-resident
parameter server.  This package scales that tier out to ``N`` simulated
devices while preserving the repo's foundation invariant — bitwise
determinism:

* :mod:`repro.sharding.partitioner` — deterministic mod-N row routing
  between global ids and per-shard blocks.
* :mod:`repro.sharding.server` — the
  :class:`~repro.sharding.server.ShardedParameterServer`, a drop-in
  for :class:`~repro.system.parameter_server.HostParameterServer` with
  per-shard-link byte accounting and exactly-once gradient counters.
* :mod:`repro.sharding.compression` — optional top-k error-feedback
  gradient compression and int8 pull quantization on the PS links
  (both off by default; the default path is bitwise).
* :mod:`repro.sharding.trainer` — glue that plans a placement
  (:func:`repro.embeddings.planner.plan_fixed_fraction`, whose
  worker/server split does not move with ``N``) and assembles the
  standard pipelined PS trainer on the sharded tier.

With compression off, ``N``-shard training is bit-identical to the
single-table baseline for any ``N`` — the property the quickcheck
sharded-equivalence gate and ``tests/sharding`` pin.
"""

from repro.sharding.compression import (
    COMPRESSION_MODES,
    CompressedPush,
    LinkCompressionConfig,
    PullQuantizer,
    TopKErrorFeedback,
)
from repro.sharding.partitioner import ShardPartitioner
from repro.sharding.server import LinkStats, ShardedParameterServer
from repro.sharding.trainer import (
    ShardedTrainerSetup,
    build_sharded_ps_trainer,
)

__all__ = [
    "ShardPartitioner",
    "ShardedParameterServer",
    "LinkStats",
    "LinkCompressionConfig",
    "COMPRESSION_MODES",
    "CompressedPush",
    "TopKErrorFeedback",
    "PullQuantizer",
    "ShardedTrainerSetup",
    "build_sharded_ps_trainer",
]
