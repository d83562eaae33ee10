"""End-to-end framework strategy models (paper §VI baselines).

Each module re-implements one published framework's *strategy* —
parameter placement, kernel choice, and communication pattern — on the
shared substrate:

* :class:`DlrmPS` — Facebook DLRM in CPU+GPU mode [23]: embeddings in
  host memory, CPU-side sparse ops, synchronous value/gradient
  transfers every iteration.
* :class:`FAE` — hot embeddings cached in HBM; hot batches train fully
  on GPU, cold batches fall back to the CPU path [24].
* :class:`TTRec` — TT-compressed tables in HBM with naive TT kernels
  (no reuse, per-occurrence backward, unfused update) [20].
* :class:`ELRec` — the paper: Eff-TT kernels, optional index
  reordering, pipeline + embedding cache for host-resident overflow.
* :class:`HugeCTR` — model-parallel row-wise sharding with all-to-all
  exchanges [18].
* :class:`TorchRec` — column-wise sharding with allgather assembly [40].

All frameworks consume one :class:`WorkloadProfile` — *measured* host
times for the MLP and dense-embedding kernels, analytic FLOP counts for
the TT kernels — and one :class:`~repro.system.devices.DeviceSpec`, so
relative results depend only on strategy.
"""

from repro.frameworks.base import (
    Framework,
    TimeBreakdown,
    WorkloadProfile,
)
from repro.frameworks.dlrm_ps import DlrmPS
from repro.frameworks.fae import FAE
from repro.frameworks.tt_rec import TTRec
from repro.frameworks.el_rec import ELRec
from repro.frameworks.hugectr import HugeCTR
from repro.frameworks.torchrec import TorchRec

ALL_FRAMEWORKS = (DlrmPS, FAE, TTRec, ELRec, HugeCTR, TorchRec)

__all__ = [
    "WorkloadProfile",
    "TimeBreakdown",
    "Framework",
    "DlrmPS",
    "FAE",
    "TTRec",
    "ELRec",
    "HugeCTR",
    "TorchRec",
    "ALL_FRAMEWORKS",
]
