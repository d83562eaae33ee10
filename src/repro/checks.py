"""The gates this reproduction is judged by, as named checks.

A gate is a zero-argument function returning one :class:`Check`;
:func:`registry` lists them in ``repro quickcheck`` order: one training
line per embedding strategy, the execution backends (``backend``,
``numsan``), ``serving``, recovery (``chaos``, ``fleet``, ``resume``),
``sharded``, ``compress``, and the two static analyzers.
``repro quickcheck`` and ``repro analyze`` print checks through
:func:`format_check`, ``repro chaos`` reports its invariants as
:class:`Check` records, and ``tests/test_checks.py`` runs every gate and
shows each execution gate red under a seeded mutant.

:mod:`repro.serving`, :mod:`repro.resilience`, :mod:`repro.sharding`
and :mod:`repro.analysis` are imported where they are used, because
:mod:`repro.resilience` imports this module.
"""

from __future__ import annotations

import functools
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.backend import (
    ZONE_EFFTT_FORWARD,
    InstrumentedBackend,
    SanitizerBackend,
    use_backend,
)
from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import DatasetSpec, criteo_kaggle_like
from repro.embeddings import build_bags, plan_under_budget
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.tt_embedding import TTEmbeddingBag
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, table_seeds
from repro.reorder import profile_tables

__all__ = [
    "AUTO_TUNED_LOSS_RTOL",
    "COMPRESSED_LOSS_RTOL",
    "EFF_TT_GRAD_RTOL",
    "PACKAGE_DIR",
    "Analyzer",
    "Check",
    "Gate",
    "analyzers",
    "format_check",
    "hazard_check",
    "lint_check",
    "planned_model",
    "registry",
    "run_serving",
    "small_config",
]

#: The installed ``repro`` package: what the analyzer gates scan.
PACKAGE_DIR = Path(__file__).resolve().parent

#: Top-k error-feedback plus int8 pulls may move the final loss of the
#: short ``sharded`` gate run by at most this relative amount
#: (DESIGN.md §11).
COMPRESSED_LOSS_RTOL = 5e-2

#: Eff-TT's core gradients may differ from the TT-Rec chain's by at most
#: this much of their largest entry, at float64 (DESIGN.md §8's
#: tolerance contract for the segment-GEMM kernels).
EFF_TT_GRAD_RTOL = 1e-10

#: An auto-tuned model under half the dense budget may move the final
#: loss of the short ``compress`` gate run by at most this relative
#: amount versus the dense reference (DESIGN.md §13.5).
AUTO_TUNED_LOSS_RTOL = 0.15


@dataclass(frozen=True)
class Check:
    """One verified invariant.

    ``detail`` is the evidence: its first line is the summary, any
    further lines explain a failure.
    """

    name: str
    ok: bool
    detail: str = ""


Gate = Callable[[], Check]


def format_check(check: Check) -> str:
    """``name     summary  [ok]``, then the detail's further lines."""
    summary, *evidence = check.detail.split("\n")
    status = "ok" if check.ok else "FAILED"
    return "\n".join([f"{check.name:8s} {summary}  [{status}]", *evidence])


def _detail(summary: str, evidence: List[str]) -> str:
    return "\n".join([summary, *(f"  {line}" for line in evidence)])


def small_config(
    spec: DatasetSpec, backend: EmbeddingBackend, **extra: Any
) -> DLRMConfig:
    """The tiny DLRM every gate trains: dim 8, TT rank 8, 16-wide MLPs."""
    return DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=backend, tt_rank=8,
        bottom_mlp=(16,), top_mlp=(16,), **extra,
    )


def planned_model(cfg, stats, budget_bytes: int, strategy: str, seed: int):
    """``(model, plan)`` for ``--compress-strategy`` / ``--memory-budget-mb``.

    The bags take the child RNGs ``DLRM(cfg, seed)`` would have given
    them, so a plan that picks the config's backend for every table
    reproduces the uncompressed model exactly.
    """
    plan = plan_under_budget(
        stats, cfg.embedding_dim, budget_bytes, strategy=strategy
    )
    bags = build_bags(plan, table_seeds(seed, cfg.num_tables), cfg.dtype)
    return DLRM(cfg, seed=seed, embedding_bags=bags), plan


def run_serving(
    spec: DatasetSpec,
    model: DLRM,
    num_requests: int,
    seed: int,
    rate: float = 2000.0,
    workers: int = 2,
    max_batch_size: int = 16,
    max_wait: float = 2e-3,
    hot_coverage: float = 0.1,
    train_steps: int = 0,
    replicas: int = 1,
    autoscale_ceiling: Optional[int] = None,
):
    """Serve ``model`` to generated traffic in one fleet simulation.

    ``workers`` is each replica's in-flight depth; ``autoscale_ceiling``
    turns on SLO-headroom autoscaling up to that many replicas.  With
    ``train_steps`` the model trains past its v0 snapshot and the result
    is hot-swapped in mid-stream.  Returns the fleet outcome and the
    snapshots it served, by version.
    """
    from repro.serving import (
        AdmissionConfig,
        AutoscalePolicy,
        BatchingPolicy,
        FleetConfig,
        ModelSnapshot,
        RequestGenerator,
        ServingFleet,
    )

    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    generator = RequestGenerator(spec, rate=rate, seed=seed)
    requests = generator.generate(num_requests)
    snapshots = {0: ModelSnapshot.from_model(model, version=0)}
    hot_rows = {
        t: generator.hot_rows(t, hot_coverage)
        for t in range(spec.num_sparse)
    }
    fleet = ServingFleet(
        snapshots[0],
        hot_rows=hot_rows,
        config=FleetConfig(
            num_replicas=replicas,
            batching=BatchingPolicy(
                max_batch_size=max_batch_size, max_wait=max_wait,
                queue_capacity=max(512, max_batch_size),
            ),
            admission=AdmissionConfig(max_in_flight=workers),
            autoscale=(
                AutoscalePolicy(min_replicas=1, max_replicas=autoscale_ceiling)
                if autoscale_ceiling is not None else None
            ),
        ),
    )
    if train_steps > 0:
        # Every replica serves its own materialized copy, so training
        # here never touches a served array.
        log = SyntheticClickLog(spec, batch_size=64, seed=seed)
        for i in range(train_steps):
            model.train_step(log.batch(i), lr=0.1)
        snapshots[1] = ModelSnapshot.from_model(model, version=1)
        midpoint = requests[len(requests) // 2].arrival_time
        fleet.schedule_swap(midpoint, snapshots[1])
    return fleet.run(requests), snapshots


# -- execution gates --------------------------------------------------------


def _quickcheck_log() -> Tuple[DatasetSpec, SyntheticClickLog]:
    spec = criteo_kaggle_like(scale=3e-5)
    return spec, SyntheticClickLog(spec, batch_size=128, seed=0)


def train_check(backend: EmbeddingBackend, steps: int) -> Check:
    """One embedding strategy trains ``steps`` steps and its loss falls."""
    spec, log = _quickcheck_log()
    model = DLRM(small_config(spec, backend), seed=0)
    losses = [model.train_step(log.batch(i), lr=0.1).loss for i in range(steps)]
    return Check(
        backend.value, losses[-1] < losses[0],
        f"loss {losses[0]:.4f} -> {losses[-1]:.4f}",
    )


def _eff_tt_gradient_gap() -> float:
    """How far Eff-TT's core gradients are from the TT-Rec chain's.

    Every Eff-TT table of the float64 gate model takes the quickcheck
    batch and one random output gradient; a TT-Rec bag holding the same
    cores takes the same, and the gap is the largest difference between
    their dense core gradients over the largest entry.
    """
    spec, log = _quickcheck_log()
    config = small_config(spec, EmbeddingBackend.EFF_TT, dtype="float64")
    model = DLRM(config, seed=0)
    batch = log.batch(0)
    rng = np.random.default_rng(0)
    gap = 0.0
    for bag, idx, offsets in zip(
        model.embedding_bags, batch.sparse_indices, batch.sparse_offsets
    ):
        if not isinstance(bag, EffTTEmbeddingBag):
            continue
        reference = TTEmbeddingBag(
            bag.num_embeddings, bag.embedding_dim, dtype=bag.dtype,
            row_shape=bag.spec.row_shape, col_shape=bag.spec.col_shape,
            tt_rank=bag.spec.ranks,
        )
        reference.load_state_arrays(bag.state_arrays())
        grad = rng.standard_normal((batch.batch_size, bag.embedding_dim))
        for table in (bag, reference):
            table.forward(idx, offsets)
            table.backward(grad)
        pending = bag.pop_pending_update()
        for k, expected in enumerate(reference._pop_pending()):
            actual = np.zeros_like(expected)
            np.add.at(actual, pending["tt_idx"][k], pending["slice_grads"][k])
            error = np.abs(actual - expected).max() / np.abs(expected).max()
            gap = max(gap, float(error))
    return gap


def eff_tt_check(steps: int) -> Check:
    """Eff-TT trains, and its gradients are the TT-Rec chain's."""
    trained = train_check(EmbeddingBackend.EFF_TT, steps)
    gap = _eff_tt_gradient_gap()
    return Check(
        trained.name, trained.ok and gap <= EFF_TT_GRAD_RTOL,
        f"{trained.detail}, core grads vs TT-Rec {gap:.1e} "
        f"(bound {EFF_TT_GRAD_RTOL:.0e})",
    )


def _eff_tt_losses(backend: Any) -> List[float]:
    """Five Eff-TT training losses with ``backend`` executing every kernel."""
    spec, log = _quickcheck_log()
    with use_backend(backend):
        model = DLRM(small_config(spec, EmbeddingBackend.EFF_TT), seed=0)
        return [model.train_step(log.batch(i), lr=0.1).loss for i in range(5)]


def backend_check() -> Check:
    """The instrumented backend is bitwise numpy and counts the Eff-TT zone."""
    instrumented = InstrumentedBackend()
    same = _eff_tt_losses("numpy") == _eff_tt_losses(instrumented)
    forward = instrumented.zone_stats.get(ZONE_EFFTT_FORWARD)
    counted = forward is not None and forward.flops > 0
    evidence = [] if same else ["losses differ"]
    if not counted:
        evidence.append(f"no {ZONE_EFFTT_FORWARD} FLOPs counted")
    return Check(
        "backend", same and counted,
        _detail("numpy == instrumented over 5 steps", evidence),
    )


def numsan_check() -> Check:
    """The sanitizer is bitwise numpy and traps nothing on clean data."""
    sanitizer = SanitizerBackend(mode="record")
    same = _eff_tt_losses("numpy") == _eff_tt_losses(sanitizer)
    traps = sanitizer.traps
    return Check(
        "numsan", same and not traps,
        _detail(
            f"numpy == sanitizer over 5 steps, {len(traps)} trap(s)",
            [trap.format() for trap in traps],
        ),
    )


def serving_check() -> Check:
    """Every request accounted for, and every prediction the model's to 1e-12.

    Not bit for bit: hot rows are rebuilt from the cores.
    """
    spec, _ = _quickcheck_log()
    num_requests = 300
    outcome, snapshots = run_serving(
        spec, DLRM(small_config(spec, EmbeddingBackend.EFF_TT), seed=0),
        num_requests=num_requests, seed=0,
    )
    report = outcome.report
    plain = {version: s.materialize() for version, s in snapshots.items()}
    worst = max(
        (
            float(np.max(np.abs(
                served.predictions
                - plain[served.model_version].predict_proba(served.batch)
            )))
            for served in outcome.served_batches
        ),
        default=0.0,
    )
    report_ok = (
        report.offered == num_requests
        and outcome.unaccounted == 0
        and report.completed > 0
        and report.latency_p99 >= report.latency_p50 > 0.0
        and 0.0 <= report.cache_hit_rate <= 1.0
    )
    return Check(
        "serving", report_ok and worst <= 1e-12,
        _detail(
            f"{report.completed}/{report.offered} requests, "
            f"p99 {report.latency_p99 * 1e3:.2f} ms, "
            f"hit rate {report.cache_hit_rate:.1%}, "
            f"max |p - model| {worst:.1e}",
            [] if report_ok else ["inconsistent SLO report"],
        ),
    )


def _red(checks: List[Check]) -> List[str]:
    return [f"{check.name}: {check.detail}" for check in checks if not check.ok]


def chaos_check() -> Check:
    """Every invariant of :func:`~repro.resilience.chaos.run_chaos` holds
    under the smoke fault plan."""
    from repro.resilience import FAULT_PLANS, ChaosHarnessConfig, run_chaos

    with tempfile.TemporaryDirectory() as scratch:
        outcome = run_chaos(FAULT_PLANS["smoke"], scratch, ChaosHarnessConfig())
    rec = outcome.recovery
    return Check(
        "chaos", outcome.passed,
        _detail(
            f"plan 'smoke': {len(rec.losses) if rec else 0} steps, "
            f"{rec.restarts if rec else 0} restarts",
            _red(outcome.checks),
        ),
    )


def fleet_check() -> Check:
    """Killing one of two replicas mid-traffic changes no delivered prediction."""
    from repro.resilience import run_fleet_chaos

    outcome = run_fleet_chaos("fleet-smoke")
    return Check(
        "fleet", outcome.passed,
        _detail(
            "2-replica kill-one chaos smoke is bitwise", _red(outcome.checks)
        ),
    )


def resume_check() -> Check:
    """Chunked training through the snapshot store equals one run, bitwise."""
    from repro.resilience import resume_determinism_check

    with tempfile.TemporaryDirectory() as scratch:
        ok = resume_determinism_check(scratch)
    return Check("resume", ok, "snapshot -> restore is bitwise")


def sharded_check() -> Check:
    """2-shard PS training is bitwise 1-shard; compressed links stay bounded."""
    from repro.sharding import LinkCompressionConfig, build_sharded_ps_trainer

    num_batches = 10
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=32, seed=0)
    cfg = small_config(spec, EmbeddingBackend.EFF_TT, tt_threshold_rows=100)
    rows = list(cfg.table_rows)
    positions = sorted(range(len(rows)), key=lambda t: -rows[t])[:2]

    def run(num_shards, compression=None):
        setup = build_sharded_ps_trainer(
            cfg, num_shards=num_shards, compression=compression,
            host_positions=positions,
        )
        losses = [
            float(x) for x in setup.trainer.train(log, num_batches).losses
        ]
        return losses, setup.server

    base_losses, base_server = run(1)
    shard_losses, shard_server = run(2)
    bitwise = base_losses == shard_losses and all(
        np.array_equal(a, b)
        for a, b in zip(base_server.tables, shard_server.tables)
    )

    comp_losses, comp_server = run(
        2, LinkCompressionConfig(mode="both", topk_fraction=0.25)
    )
    rel = abs(comp_losses[-1] - base_losses[-1]) / abs(base_losses[-1])
    ratio = comp_server.link_stats.compression_ratio
    return Check(
        "sharded", bitwise and rel <= COMPRESSED_LOSS_RTOL and ratio > 1.0,
        f"2-shard == 1-shard bitwise: {bitwise}; compressed final-loss "
        f"drift {rel:.2e} (bound {COMPRESSED_LOSS_RTOL:g}), "
        f"wire ratio {ratio:.2f}x",
    )


def compress_check() -> Check:
    """Hash, ROBE and PQ train run-to-run bitwise; auto at half the dense
    budget fits it, learns, and ends near dense."""
    steps = 8
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=32, seed=0)

    def train(model):
        return [model.train_step(log.batch(i), lr=0.1).loss for i in range(steps)]

    def run(backend):
        return train(DLRM(small_config(spec, backend), seed=0))

    compressed = (EmbeddingBackend.HASH, EmbeddingBackend.ROBE, EmbeddingBackend.PQ)
    deterministic = all(run(backend) == run(backend) for backend in compressed)

    dense_losses = run(EmbeddingBackend.DENSE)
    cfg = small_config(spec, EmbeddingBackend.DENSE)
    stats = profile_tables(log, 4)
    dense_total = (
        sum(st.num_rows for st in stats) * cfg.embedding_dim * cfg.dtype.itemsize
    )
    budget = max(1, dense_total // 2)
    model, _ = planned_model(cfg, stats, budget, "auto", 0)
    auto_losses = train(model)
    realized = sum(bag.memory_bytes() for bag in model.embedding_bags)
    drift = abs(auto_losses[-1] - dense_losses[-1]) / abs(dense_losses[-1])
    bounded = drift <= AUTO_TUNED_LOSS_RTOL and auto_losses[-1] < auto_losses[0]
    return Check(
        "compress", deterministic and realized <= budget and bounded,
        f"strategies deterministic: {deterministic}; auto at half "
        f"budget: {realized:,}/{budget:,} B, final-loss drift "
        f"{drift:.2e} (bound {AUTO_TUNED_LOSS_RTOL:g})",
    )


# -- static gates -----------------------------------------------------------


class Analyzer(NamedTuple):
    """One static analyzer: its gate name, CLI subcommand and SARIF identity."""

    name: str  # gate name on the quickcheck/analyze lines
    command: str  # CLI subcommand
    tool: str  # SARIF driver name
    rules: Mapping[str, Any]  # rule registry
    runner: Callable[..., Any]  # (paths, select=None) -> LintResult
    help: str
    paths_help: str
    id_prefix: str  # rule-id family named in the --select help


def analyzers() -> Tuple[Analyzer, ...]:
    from repro.analysis import DET_RULES, RULE_REGISTRY, detcheck_paths, lint_paths

    return (
        Analyzer(
            "lint", "lint", "reprolint", RULE_REGISTRY, lint_paths,
            "run reprolint, the repo-specific static analyzer",
            "files or directories to lint", "REP",
        ),
        Analyzer(
            "det", "detcheck", "detcheck", DET_RULES, detcheck_paths,
            "run the interprocedural determinism-taint analyzer",
            "files or directories to check as one program", "DET",
        ),
    )


def lint_check(name: str, result) -> Check:
    """One analyzer's ``LintResult`` as a check: red on any error finding."""
    return Check(
        name, result.ok,
        _detail(
            f"{result.files_scanned} files, {len(result.errors)} errors, "
            f"{len(result.warnings)} warnings",
            [finding.format() for finding in result.errors],
        ),
    )


def hazard_check(report) -> Check:
    """A pipeline hazard report as a check: red on any unrepaired hazard."""
    return Check(
        "hazards", report.clean,
        _detail(
            f"{report.events_analyzed} events, {len(report.hazards)} "
            f"unrepaired, {len(report.repaired)} repaired",
            [hazard.describe() for hazard in report.hazards],
        ),
    )


def _analyzer_check(analyzer: Analyzer) -> Check:
    return lint_check(analyzer.name, analyzer.runner([PACKAGE_DIR]))


def registry(steps: int = 20) -> Dict[str, Gate]:
    """Every gate by name, in quickcheck order; ``steps`` per training line."""
    gates: Dict[str, Gate] = {
        backend.value: functools.partial(train_check, backend, steps)
        for backend in EmbeddingBackend
    }
    gates[EmbeddingBackend.EFF_TT.value] = functools.partial(eff_tt_check, steps)
    gates.update(
        backend=backend_check,
        numsan=numsan_check,
        serving=serving_check,
        chaos=chaos_check,
        fleet=fleet_check,
        resume=resume_check,
        sharded=sharded_check,
        compress=compress_check,
    )
    for analyzer in analyzers():
        gates[analyzer.name] = functools.partial(_analyzer_check, analyzer)
    return gates
