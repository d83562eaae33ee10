"""Canned hazard-detection experiment (fault injection included).

Builds the same tiny DLRM + parameter-server pipeline the test suite
uses, attaches a :class:`~repro.analysis.hazards.HazardProbe`, trains,
and returns the analyzed :class:`~repro.analysis.hazards.HazardReport`.

Two modes:

* ``inject_fault=False`` (default) — life-cycle cache management on;
  the report must be hazard-free (every stale gather is repaired).
* ``inject_fault=True`` — LC management disabled, reproducing the
  naive prefetching of paper Figure 10(a); the report must surface
  RAW hazards on hot rows.

Exposed on the CLI as ``python -m repro hazards [--inject]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.hazards import HazardProbe, HazardReport
from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.sharding.trainer import build_sharded_ps_trainer
from repro.system.pipeline import TrainLog
from repro.utils.validation import check_positive

__all__ = ["HazardExperimentResult", "run_hazard_experiment"]


@dataclass
class HazardExperimentResult:
    """Everything a caller needs to judge one instrumented run."""

    report: HazardReport
    train_log: TrainLog
    num_batches: int
    inject_fault: bool

    def summary(self) -> str:
        mode = (
            "FAULT INJECTION (LC management disabled)"
            if self.inject_fault
            else "default pipeline (LC management on)"
        )
        lines = [
            f"mode            : {mode}",
            f"batches trained : {self.num_batches}",
            self.report.summary(),
        ]
        if self.inject_fault:
            lines.append(
                f"stale rows seen : {self.train_log.stale_rows_consumed} "
                "(trainer-side diagnostic, corroborates the detector)"
            )
        else:
            lines.append(
                f"cache hits      : {self.train_log.cache_hits} "
                "(each one a stale gather the LC cache repaired)"
            )
        return "\n".join(lines)


def _harness(seed: int) -> Tuple[DLRMConfig, List[int], SyntheticClickLog]:
    """Small DLRM config over a scaled Criteo-like schema, its two
    largest tables (the ones the harness keeps behind the server), and
    the click log."""
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=64, seed=seed)
    cfg = DLRMConfig.from_dataset(
        spec,
        embedding_dim=8,
        backend=EmbeddingBackend.EFF_TT,
        tt_rank=8,
        tt_threshold_rows=100,
        bottom_mlp=(16,),
        top_mlp=(16,),
    )
    rows = list(cfg.table_rows)
    two_largest = sorted(range(len(rows)), key=lambda t: -rows[t])[:2]
    return cfg, two_largest, log


def run_hazard_experiment(
    inject_fault: bool = False,
    num_batches: int = 16,
    prefetch_depth: int = 3,
    grad_queue_depth: int = 2,
    lr: float = 0.05,
    seed: int = 0,
) -> HazardExperimentResult:
    """Train an instrumented pipeline and analyze its row trace.

    ``inject_fault=True`` disables the §V-B cache (LC management), the
    exact failure mode the paper's Figure 10(a) illustrates; the
    detector must then flag RAW hazards.  All inputs are seeded, so
    repeated runs produce identical traces and identical reports.
    """
    check_positive(num_batches, "num_batches")
    cfg, two_largest, log = _harness(seed)
    probe = HazardProbe()
    trainer = build_sharded_ps_trainer(
        cfg,
        host_positions=two_largest,
        probe=probe,
        lr=lr,
        prefetch_depth=prefetch_depth,
        grad_queue_depth=grad_queue_depth,
        use_cache=not inject_fault,
    ).trainer
    train_log = trainer.train(log, num_batches)
    return HazardExperimentResult(
        report=probe.report(),
        train_log=train_log,
        num_batches=num_batches,
        inject_fault=inject_fault,
    )
