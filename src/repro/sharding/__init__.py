"""The parameter-server tier.

EL-Rec's PS-pipelined training (paper §V) keeps the overflow tables in
host memory behind one CPU parameter server.  This package holds that
server and simulates sharding it across ``N`` devices while preserving
the repo's foundation invariant — bitwise determinism:

* :mod:`repro.sharding.partitioner` — deterministic mod-N row routing
  between global ids and shards.
* :mod:`repro.sharding.server` — the
  :class:`~repro.sharding.server.ShardedParameterServer`: one array per
  table, with per-shard-link byte accounting and exactly-once gradient
  counters (``num_shards=1`` by default).
* :mod:`repro.sharding.compression` — optional top-k error-feedback
  gradient compression and int8 pull quantization on the PS links
  (both off by default; the default path is bitwise).
* :mod:`repro.sharding.trainer` — glue that plans a placement
  (:func:`repro.embeddings.planner.plan_fixed_fraction`, whose
  worker/server split does not move with ``N``) and assembles the
  standard pipelined PS trainer on the sharded tier.

A shard is the strided view ``table[s::N]`` of one array, so with
compression off ``N``-shard training is bit-identical to 1-shard
training for any ``N`` — the property the quickcheck sharded gate and
``tests/sharding`` pin.
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
