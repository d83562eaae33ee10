"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the host calibration and device cost-model summary.
``datasets``
    Print the Table II dataset schemas.
``compression``
    Print the Table III compression summary.
``train``
    Train a small DLRM for a few steps on a synthetic click log;
    ``--backend instrumented`` additionally prints the per-zone
    FLOP/byte table and contraction-plan-cache statistics.
``bench``
    Run a fixed training + serving workload and report per-kernel-zone
    costs — the execution-backend counterpart of ``figures`` (counts,
    not wall-clock).  Requires ``--backend instrumented`` to produce
    the zone table; with ``numpy`` it reports only throughput-neutral
    plan-cache stats.
``quickcheck``
    Train a tiny DLRM on every backend and report losses, verify the
    numpy, instrumented, and sanitizer execution backends agree bit
    for bit (with zero numsan traps), run a few hundred requests
    through the serving loop, then run the static analyzers (reprolint,
    shapecheck, detcheck, perfcheck) — a fast smoke test that the whole
    stack works on this machine.
``lint``
    Run ``reprolint`` — the repo-specific AST linter (seeded RNG only,
    SimClock-only zones, explicit kernel dtypes, batch-loop perf
    advisories) — over the given paths.  Exits 1 on error-level
    findings.  ``--format json``/``--format sarif`` emit
    machine-readable reports for CI.
``shapecheck``
    Run the static shape/dtype abstract interpreter over the given
    paths: matmul/gather/scatter/reshape shape propagation, TT-core
    chain shapes from ``TTSpec`` metadata, and the
    one-float-dtype-per-kernel-zone policy.  Same exit codes
    and output formats as ``lint``.
``hazards``
    Train an instrumented pipelined-PS run and analyze its
    per-embedding-row read/write trace for RAW/WAR hazards;
    ``--inject`` disables §V-B life-cycle cache management to
    demonstrate the detector catching the paper's raw conflict.
``serve``
    Simulate the online serving subsystem: Poisson/Zipf traffic,
    dynamic micro-batching, hot-row caches, an optional mid-stream
    training→serving hot swap, and an SLO report.
``figures``
    Regenerate every paper table/figure by invoking the benchmark
    builders (several minutes; results also land in
    ``benchmarks/results/`` when run via pytest).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

__all__ = ["main"]


def _install_backend(name: str) -> bool:
    """Install the requested execution backend; False on failure.

    Prints an actionable message (rather than a traceback) when the
    torch backend is requested in an environment without PyTorch.
    """
    from repro.backend import BackendUnavailableError, set_backend

    try:
        set_backend(name)
    except BackendUnavailableError as exc:
        print(f"backend '{name}' unavailable: {exc}", file=sys.stderr)
        return False
    return True


def _print_backend_report() -> bool:
    """Print what the active backend's observers report, if it has any."""
    from repro.backend import Interposer, get_backend

    backend = get_backend()
    if not isinstance(backend, Interposer):
        return False
    print()
    print(backend.report())
    return True


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    from repro.backend import BACKEND_NAMES

    parser.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default="numpy",
        help="execution backend for all hot-path kernels (instrumented "
        "counts FLOPs/bytes per kernel zone; sanitizer traps NaN/Inf, "
        "bad gather indices, and dtype drift; torch requires PyTorch)",
    )


def _add_compression_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--compress-strategy",
        choices=["none", "dense", "tt", "hash", "robe", "pq", "auto"],
        default="none",
        help="size the embedding tables with the memory-budget "
        "compression planner: one fixed strategy for every table, or "
        "'auto' to pick per table from the measured statistics; "
        "requires --memory-budget-mb",
    )
    parser.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="global embedding byte budget the compression planner "
        "bisects against (realized memory never exceeds it when a "
        "feasible plan exists)",
    )


def _cmd_info(_: argparse.Namespace) -> int:
    from repro.system.devices import (
        TESLA_T4,
        TESLA_V100,
        calibrate_host,
    )

    profile = calibrate_host()
    print("host calibration:")
    print(f"  large-GEMM throughput : {profile.gemm_gflops:10.1f} GFLOP/s")
    print(f"  batched-GEMM (TT)     : {profile.batched_gemm_gflops:10.1f} GFLOP/s")
    print(f"  gather bandwidth      : {profile.gather_gbps:10.1f} GB/s")
    for device in (TESLA_V100, TESLA_T4):
        print(f"device {device.name}:")
        print(f"  effective GEMM        : {device.effective_gflops:10.1f} GFLOP/s")
        print(
            f"  effective batched GEMM: "
            f"{device.effective_batched_gflops:10.1f} GFLOP/s"
        )
        print(f"  HBM / PCIe / P2P      : {device.hbm_bytes / 1e9:.0f} GB / "
              f"{device.h2d_gbps:.0f} GB/s / {device.p2p_gbps:.0f} GB/s")
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    from repro.bench.harness import format_table
    from repro.data.datasets import DATASET_FACTORIES

    rows = []
    for factory in DATASET_FACTORIES.values():
        spec = factory()
        info = spec.describe()
        rows.append(
            [
                info["dataset"],
                info["days"],
                f"{info['samples']:,}",
                info["dense_features"],
                info["sparse_features"],
                f"{info['total_rows']:,}",
            ]
        )
    print(
        format_table(
            ["dataset", "days", "samples", "dense", "sparse", "total rows"],
            rows,
            title="Dataset schemas (paper Table II, full scale)",
        )
    )
    return 0


def _cmd_compression(_: argparse.Namespace) -> int:
    import importlib.util
    from pathlib import Path

    bench = Path(__file__).resolve().parents[2] / "benchmarks"
    spec = importlib.util.spec_from_file_location(
        "bench_table3", bench / "bench_table3_compression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    print(module.build_table3())
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.backend import get_backend, get_plan_cache
    from repro.data.dataloader import SyntheticClickLog
    from repro.data.datasets import DATASET_FACTORIES
    from repro.models.config import DLRMConfig, EmbeddingBackend
    from repro.models.dlrm import DLRM

    if not _install_backend(args.backend):
        return 2
    spec = DATASET_FACTORIES[args.dataset](scale=args.scale)
    log = SyntheticClickLog(spec, batch_size=args.batch_size, seed=args.seed)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=args.embedding_dim,
        backend=EmbeddingBackend(args.embedding_backend),
        tt_rank=args.tt_rank, bottom_mlp=(16,), top_mlp=(16,),
    )
    if args.shards >= 1:
        return _train_sharded(args, spec, log, cfg)
    if args.compress_strategy != "none":
        return _train_compressed(args, spec, log, cfg)
    model = DLRM(cfg, seed=args.seed)
    plan_cache = get_plan_cache()
    losses = [
        model.train_step(log.batch(i), lr=args.lr).loss
        for i in range(args.steps)
    ]
    print(
        f"trained {args.steps} steps on {args.dataset} "
        f"({get_backend().name} backend): "
        f"loss {losses[0]:.4f} -> {losses[-1]:.4f}"
    )
    stats = plan_cache.stats
    print(
        f"plan cache: {stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['entries']} entries"
    )
    _print_backend_report()
    return 0 if losses[-1] < losses[0] else 1


def _train_sharded(args: argparse.Namespace, spec, log, cfg) -> int:
    """``repro train --shards N``: the sharded-PS pipelined path.

    Profiles a training-data prefix into measured per-table
    :class:`~repro.reorder.stats.TableStats`, plans a placement, and
    trains through the pipelined trainer on an N-shard parameter
    server, reporting the placement decision table and per-link PS
    traffic.  With ``--compress none`` (the default) the loss
    trajectory is bitwise-independent of N.
    """
    from repro.backend import get_backend
    from repro.reorder import profile_tables
    from repro.sharding import LinkCompressionConfig, build_sharded_ps_trainer

    if args.compress_strategy in ("auto", "dense"):
        print(
            f"--compress-strategy {args.compress_strategy} is not "
            "supported with --shards (the placement planner picks "
            "one compressed on-device form); pick hash, robe, or pq",
            file=sys.stderr,
        )
        return 2
    setup = build_sharded_ps_trainer(
        cfg,
        num_shards=args.shards,
        compression=LinkCompressionConfig(
            mode=args.compress, topk_fraction=args.topk_fraction
        ),
        stats=profile_tables(log, max(1, min(args.steps, 8))),
        compress_strategy=(
            "tt" if args.compress_strategy == "none"
            else args.compress_strategy
        ),
        device_budget_bytes=args.device_budget_mb * 1_000_000,
        lr=args.lr,
    )
    print(f"placement plan ({args.shards} shard(s)):")
    print(setup.plan.format_table())
    print(
        f"server tables at positions {setup.host_positions} "
        f"behind {args.shards}-shard PS, compression '{args.compress}'"
    )
    result = setup.trainer.train(log, args.steps)
    losses = [float(x) for x in result.losses]
    print(
        f"trained {args.steps} steps on {args.dataset} "
        f"({get_backend().name} backend, {args.shards} shard(s)): "
        f"loss {losses[0]:.4f} -> {losses[-1]:.4f}"
    )
    link = setup.server.link_stats.summary()
    print(
        f"PS links: pull {link['pull_wire_bytes']:,}B / "
        f"push {link['push_wire_bytes']:,}B on wire "
        f"(raw {link['pull_raw_bytes'] + link['push_raw_bytes']:,}B, "
        f"ratio {link['compression_ratio']:.2f}x)"
    )
    print(
        f"exactly-once: {setup.server.update_count} updates, "
        f"per-shard applies {setup.server.shard_apply_counts.tolist()}"
    )
    _print_backend_report()
    return 0 if losses[-1] < losses[0] else 1


def _train_compressed(args: argparse.Namespace, spec, log, cfg) -> int:
    """``repro train --compress-strategy S --memory-budget-mb B``.

    Profiles a training-data prefix into measured per-table stats, runs
    the memory-budget auto-tuner
    (:func:`~repro.embeddings.planner.plan_under_budget`), builds the
    planned bags, and trains the DLRM on them end-to-end, reporting the
    realized embedding footprint against the budget.
    """
    from repro.backend import get_backend
    from repro.reorder import profile_tables

    if args.memory_budget_mb is None:
        print(
            "--compress-strategy requires --memory-budget-mb (the "
            "planner sizes every table against that byte budget)",
            file=sys.stderr,
        )
        return 2
    model, plan = _planned_model(
        cfg,
        profile_tables(log, max(1, min(args.steps, 8))),
        int(args.memory_budget_mb * 1_000_000),
        args.compress_strategy,
        args.seed,
    )
    budget = plan.budget_bytes
    print(
        f"compression plan ('{args.compress_strategy}', "
        f"budget {args.memory_budget_mb:g} MB):"
    )
    print(plan.format_table())
    losses = [
        model.train_step(log.batch(i), lr=args.lr).loss
        for i in range(args.steps)
    ]
    realized = sum(bag.memory_bytes() for bag in model.embedding_bags)
    print(
        f"trained {args.steps} steps on {args.dataset} "
        f"({get_backend().name} backend, '{args.compress_strategy}' "
        f"embeddings): loss {losses[0]:.4f} -> {losses[-1]:.4f}"
    )
    within = realized <= budget
    print(
        f"embedding memory: {realized / 1e6:.2f} MB realized of "
        f"{budget / 1e6:.2f} MB budget "
        f"({'within' if within else 'OVER'}; dense would be "
        f"{plan.dense_bytes / 1e6:.2f} MB)"
    )
    if not plan.feasible:
        print(
            "warning: no parameterization fits the budget — the plan "
            "is the minimal configuration per table",
        )
    _print_backend_report()
    return 0 if losses[-1] < losses[0] and (within or not plan.feasible) else 1


def _planned_model(cfg, stats, budget_bytes: int, strategy: str, seed: int):
    """``(model, plan)`` for ``--compress-strategy`` / ``--memory-budget-mb``.

    The bags take the child RNGs ``DLRM(cfg, seed)`` would have given
    them, so a plan that picks the config's backend for every table
    reproduces the uncompressed model exactly.
    """
    from repro.embeddings import build_bags, plan_under_budget
    from repro.models.dlrm import DLRM, table_seeds

    plan = plan_under_budget(
        stats, cfg.embedding_dim, budget_bytes, strategy=strategy
    )
    bags = build_bags(plan, table_seeds(seed, cfg.num_tables))
    return DLRM(cfg, seed=seed, embedding_bags=bags), plan


def _plan_summary(strategy: str, plan) -> str:
    """One-line size-vs-budget summary of a compression plan."""
    return (
        f"embeddings: '{strategy}' plan, "
        f"{plan.device_bytes / 1e6:.2f} MB of "
        f"{plan.budget_bytes / 1e6:.2f} MB budget"
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.backend import get_backend, get_plan_cache
    from repro.data.dataloader import SyntheticClickLog
    from repro.data.datasets import DATASET_FACTORIES
    from repro.models.config import DLRMConfig, EmbeddingBackend
    from repro.models.dlrm import DLRM

    if not _install_backend(args.backend):
        return 2
    spec = DATASET_FACTORIES[args.dataset](scale=args.scale)
    log = SyntheticClickLog(spec, batch_size=args.batch_size, seed=args.seed)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=args.embedding_dim,
        backend=EmbeddingBackend.EFF_TT, tt_rank=args.tt_rank,
        bottom_mlp=(16,), top_mlp=(16,),
    )
    if args.compress_strategy != "none":
        from repro.reorder import profile_tables

        if args.memory_budget_mb is None:
            print(
                "--compress-strategy requires --memory-budget-mb",
                file=sys.stderr,
            )
            return 2
        model, comp_plan = _planned_model(
            cfg,
            profile_tables(log, 4),
            int(args.memory_budget_mb * 1_000_000),
            args.compress_strategy,
            args.seed,
        )
        print(_plan_summary(args.compress_strategy, comp_plan))
    else:
        model = DLRM(cfg, seed=args.seed)
    plan_cache = get_plan_cache()
    hits0, misses0 = plan_cache.hits, plan_cache.misses
    for i in range(args.steps):
        model.train_step(log.batch(i), lr=0.1)
    outcome, _ = _run_serving(
        spec, num_requests=args.requests, rate=2000.0, workers=2,
        max_batch_size=16, max_wait=2e-3, hot_coverage=0.1,
        train_steps=0, seed=args.seed,
    )
    print(
        f"workload: {args.steps} Eff-TT training steps "
        f"(batch {args.batch_size}) + {outcome.report.completed} served "
        f"requests on {args.dataset} [{get_backend().name} backend]"
    )
    print(
        f"plan cache: {plan_cache.hits - hits0} hits, "
        f"{plan_cache.misses - misses0} misses, "
        f"{plan_cache.stats['entries']} entries"
    )
    if not _print_backend_report():
        print(
            "(use --backend instrumented for the per-kernel-zone "
            "FLOP/byte table)"
        )
    return 0


def _cmd_quickcheck(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.data.dataloader import SyntheticClickLog
    from repro.data.datasets import criteo_kaggle_like
    from repro.models.config import DLRMConfig, EmbeddingBackend
    from repro.models.dlrm import DLRM

    spec = criteo_kaggle_like(scale=3e-5)
    log = SyntheticClickLog(spec, batch_size=128, seed=0)
    ok = True
    for backend in EmbeddingBackend:
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=backend, tt_rank=8,
            bottom_mlp=(16,), top_mlp=(16,),
        )
        model = DLRM(cfg, seed=0)
        losses = [
            model.train_step(log.batch(i), lr=0.1).loss
            for i in range(args.steps)
        ]
        learned = losses[-1] < losses[0]
        ok = ok and learned
        status = "ok" if learned else "FAILED (loss did not decrease)"
        print(
            f"{backend.value:8s} loss {losses[0]:.4f} -> {losses[-1]:.4f}  "
            f"[{status}]"
        )

    # Execution-backend equivalence: the same Eff-TT training run must
    # be bit-identical under the numpy and instrumented backends, and
    # the instrumented run must actually see the hot kernel zones.
    from repro.backend import InstrumentedBackend, SanitizerBackend, use_backend

    eq_cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        bottom_mlp=(16,), top_mlp=(16,),
    )

    def _losses_under(backend):
        with use_backend(backend):
            eq_model = DLRM(eq_cfg, seed=0)
            return [
                eq_model.train_step(log.batch(i), lr=0.1).loss
                for i in range(5)
            ]

    instrumented = InstrumentedBackend()
    reference_losses = _losses_under("numpy")
    backend_ok = reference_losses == _losses_under(instrumented) and (
        instrumented.zone_stats.get("efftt_forward") is not None
        and instrumented.zone_stats["efftt_forward"].flops > 0
    )
    ok = ok and backend_ok
    status = "ok" if backend_ok else "FAILED (backends disagree)"
    print(f"backend  numpy == instrumented over 5 steps  [{status}]")

    # numsan gate: the sanitizer must be bit-identical to the reference
    # backend on the same workload *and* observe zero traps — a trap on
    # clean training data is a sanitizer false positive.
    sanitizer = SanitizerBackend(mode="record")
    sanitizer_ok = (
        reference_losses == _losses_under(sanitizer) and not sanitizer.traps
    )
    ok = ok and sanitizer_ok
    status = "ok" if sanitizer_ok else "FAILED (sanitizer diverged or trapped)"
    print(
        f"numsan   numpy == sanitizer over 5 steps, "
        f"{len(sanitizer.traps)} trap(s)  [{status}]"
    )
    if sanitizer.traps:
        for trap in sanitizer.traps:
            print(f"  {trap.format()}")

    # Serving smoke: a few hundred simulated requests through the full
    # micro-batching loop, sanity-checking the SLO report, and every
    # served prediction against the plain model on its recorded batch
    # (hot rows are rebuilt, so equal to 1e-12, not bit for bit).
    serving_outcome, snapshots = _run_serving(
        spec, num_requests=300, rate=2000.0, workers=2,
        max_batch_size=16, max_wait=2e-3, hot_coverage=0.1,
        train_steps=0, seed=0,
    )
    report = serving_outcome.report
    plain = {version: s.materialize() for version, s in snapshots.items()}
    worst = max(
        (
            float(np.max(np.abs(
                served.predictions
                - plain[served.model_version].predict_proba(served.batch)
            )))
            for served in serving_outcome.served_batches
        ),
        default=0.0,
    )
    report_ok = (
        report.completed + report.rejected == report.offered
        and report.completed > 0
        and report.latency_p99 >= report.latency_p50 > 0.0
        and 0.0 <= report.cache_hit_rate <= 1.0
    )
    serving_ok = report_ok and worst <= 1e-12
    ok = ok and serving_ok
    status = (
        "ok" if serving_ok
        else "FAILED (inconsistent SLO report)" if not report_ok
        else "FAILED (served predictions differ from the model)"
    )
    print(
        f"serving  {report.completed}/{report.offered} requests, "
        f"p99 {report.latency_p99 * 1e3:.2f} ms, "
        f"hit rate {report.cache_hit_rate:.1%}, "
        f"max |p - model| {worst:.1e}  [{status}]"
    )

    # Chaos gate: the smoke fault plan (stage crash, corrupted
    # checkpoint, H2D failure, dropped gradient entry, serving
    # slowdown) must recover to the bitwise reference trajectory with
    # every invariant green.
    import tempfile

    from repro.resilience import FAULT_PLANS, ChaosHarnessConfig, run_chaos

    with tempfile.TemporaryDirectory() as scratch:
        chaos_outcome = run_chaos(
            FAULT_PLANS["smoke"], scratch, ChaosHarnessConfig()
        )
    chaos_ok = chaos_outcome.passed
    ok = ok and chaos_ok
    rec = chaos_outcome.recovery
    status = "ok" if chaos_ok else "FAILED (invariant violated)"
    print(
        f"chaos    plan 'smoke': {len(rec.losses) if rec else 0} steps, "
        f"{rec.restarts if rec else 0} restarts  [{status}]"
    )
    if not chaos_ok:
        for check in chaos_outcome.checks:
            if not check.ok:
                print(f"  {check.name}: {check.detail}")

    # Fleet gate: a 2-replica chaos smoke — killing one replica
    # mid-traffic must deliver bitwise-identical predictions for every
    # non-shed request versus the fault-free fleet run.
    from repro.resilience import run_fleet_chaos

    fleet_outcome = run_fleet_chaos("fleet-smoke")
    fleet_ok = fleet_outcome.passed
    ok = ok and fleet_ok
    status = "ok" if fleet_ok else "FAILED (fleet invariant violated)"
    print(f"fleet    2-replica kill-one chaos smoke is bitwise  [{status}]")
    if not fleet_ok:
        for check in fleet_outcome.checks:
            if not check.ok:
                print(f"  {check.name}: {check.detail}")

    # Resume-determinism gate: kill-free chunked training through the
    # snapshot store must be bitwise-identical to one uninterrupted
    # run — the invariant every crash recovery above relies on.
    from repro.resilience import resume_determinism_check

    with tempfile.TemporaryDirectory() as scratch:
        resume_ok = resume_determinism_check(scratch)
    ok = ok and resume_ok
    status = "ok" if resume_ok else "FAILED (trajectories diverged)"
    print(f"resume   snapshot -> restore is bitwise  [{status}]")

    # Sharded-equivalence gate: with link compression off, training on
    # a 2-shard parameter server must be bitwise-identical to the
    # 1-shard run; with compression on, the final loss must stay within
    # the documented accuracy bound (DESIGN.md §11).
    sharded_ok, sharded_detail = _sharded_equivalence_gate()
    ok = ok and sharded_ok
    status = "ok" if sharded_ok else "FAILED (sharding changed the math)"
    print(f"sharded  {sharded_detail}  [{status}]")

    # Compression-equivalence gate: every compression strategy must
    # train run-to-run bitwise-deterministically, and an auto-tuned
    # model under a halved budget must stay within the documented loss
    # tolerance of the dense reference while respecting the budget.
    comp_ok, comp_detail = _compression_equivalence_gate()
    ok = ok and comp_ok
    status = "ok" if comp_ok else "FAILED (compression broke training)"
    print(f"compress {comp_detail}  [{status}]")

    # Static checks: the four analyzers over the installed package.
    for analyzer in _analyzers():
        result = analyzer.runner(_analysis_paths())
        ok = ok and result.ok
        _report_static_gate(analyzer.name, result)
    return 0 if ok else 1


# Accuracy bound for the compression-on quickcheck gate: top-k
# error-feedback plus int8 pulls may move the final loss of the short
# gate run by at most this relative amount (DESIGN.md §11 documents the
# bound; tests/sharding pins it too).
_COMPRESSED_LOSS_RTOL = 5e-2


def _sharded_equivalence_gate() -> tuple:
    """(ok, detail) for the quickcheck sharded-PS gate."""
    from repro.data.dataloader import SyntheticClickLog
    from repro.data.datasets import criteo_kaggle_like
    from repro.models.config import DLRMConfig, EmbeddingBackend
    from repro.sharding import LinkCompressionConfig, build_sharded_ps_trainer

    num_batches = 10
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=32, seed=0)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        tt_threshold_rows=100, bottom_mlp=(16,), top_mlp=(16,),
    )
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
    import numpy as np

    base_state = base_server.state_arrays()
    shard_view = {
        t: np.asarray(shard_server.tables[t])
        for t in range(shard_server.num_tables)
    }
    bitwise = base_losses == shard_losses and all(
        np.array_equal(base_state[f"table{t}/shard0"], shard_view[t])
        for t in range(shard_server.num_tables)
    )

    comp_losses, comp_server = run(
        2, LinkCompressionConfig(mode="both", topk_fraction=0.25)
    )
    rel = abs(comp_losses[-1] - base_losses[-1]) / abs(base_losses[-1])
    bounded = rel <= _COMPRESSED_LOSS_RTOL
    shrunk = comp_server.link_stats.compression_ratio > 1.0
    detail = (
        f"2-shard == 1-shard bitwise: {bitwise}; compressed final-loss "
        f"drift {rel:.2e} (bound {_COMPRESSED_LOSS_RTOL:g}), "
        f"wire ratio {comp_server.link_stats.compression_ratio:.2f}x"
    )
    return bitwise and bounded and shrunk, detail


# Loss tolerance for the compression-equivalence quickcheck gate: an
# auto-tuned model under half the dense budget may move the final loss
# of the short gate run by at most this relative amount vs the dense
# reference (DESIGN.md §13 documents the bound).
_AUTO_TUNED_LOSS_RTOL = 0.15


def _compression_equivalence_gate() -> tuple:
    """(ok, detail) for the quickcheck compressed-embedding gate."""
    from repro.data.dataloader import SyntheticClickLog
    from repro.data.datasets import criteo_kaggle_like
    from repro.models.config import DLRMConfig, EmbeddingBackend
    from repro.models.dlrm import DLRM
    from repro.reorder import profile_tables

    steps = 8
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=32, seed=0)

    def run(backend):
        cfg = DLRMConfig.from_dataset(
            spec, embedding_dim=8, backend=backend, tt_rank=8,
            bottom_mlp=(16,), top_mlp=(16,),
        )
        model = DLRM(cfg, seed=0)
        return [
            model.train_step(log.batch(i), lr=0.1).loss
            for i in range(steps)
        ]

    deterministic = all(
        run(backend) == run(backend)
        for backend in (
            EmbeddingBackend.HASH,
            EmbeddingBackend.ROBE,
            EmbeddingBackend.PQ,
        )
    )

    dense_losses = run(EmbeddingBackend.DENSE)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.DENSE, tt_rank=8,
        bottom_mlp=(16,), top_mlp=(16,),
    )
    stats = profile_tables(log, 4)
    dense_total = sum(st.num_rows for st in stats) * cfg.embedding_dim * 8
    budget = max(1, dense_total // 2)
    model, _ = _planned_model(cfg, stats, budget, "auto", 0)
    auto_losses = [
        model.train_step(log.batch(i), lr=0.1).loss for i in range(steps)
    ]
    realized = sum(bag.memory_bytes() for bag in model.embedding_bags)
    within = realized <= budget
    drift = abs(auto_losses[-1] - dense_losses[-1]) / abs(dense_losses[-1])
    bounded = drift <= _AUTO_TUNED_LOSS_RTOL and auto_losses[-1] < auto_losses[0]
    detail = (
        f"strategies deterministic: {deterministic}; auto at half "
        f"budget: {realized:,}/{budget:,} B, final-loss drift "
        f"{drift:.2e} (bound {_AUTO_TUNED_LOSS_RTOL:g})"
    )
    return deterministic and within and bounded, detail


def _run_serving(
    spec,
    num_requests: int,
    rate: float,
    workers: int,
    max_batch_size: int,
    max_wait: float,
    hot_coverage: float,
    train_steps: int,
    seed: int,
    compress_strategy: str = "none",
    memory_budget_mb: Optional[float] = None,
    replicas: int = 1,
    autoscale_ceiling: Optional[int] = None,
):
    """Build a model + traffic and run one serving simulation.

    ``workers`` is each replica's in-flight depth; ``autoscale_ceiling``
    turns on SLO-headroom autoscaling up to that many replicas.  With
    ``compress_strategy`` set, the served embedding tables are built
    from an auto-tuner plan over analytic table statistics (hot caches
    then sit on top of whatever strategy each table got).  Returns the
    fleet outcome and the snapshots it served, by version.
    """
    from repro.data.dataloader import SyntheticClickLog
    from repro.models.config import DLRMConfig, EmbeddingBackend
    from repro.models.dlrm import DLRM
    from repro.serving import (
        AdmissionConfig,
        AutoscalePolicy,
        BatchingPolicy,
        FleetConfig,
        ModelSnapshot,
        RequestGenerator,
        ServingFleet,
    )

    generator = RequestGenerator(spec, rate=rate, seed=seed)
    requests = generator.generate(num_requests)
    config = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        bottom_mlp=(16,), top_mlp=(16,),
    )
    if compress_strategy != "none":
        from repro.reorder import analytic_table_stats

        if memory_budget_mb is None:
            raise ValueError(
                "--compress-strategy requires --memory-budget-mb"
            )
        model, comp_plan = _planned_model(
            config,
            analytic_table_stats(list(config.table_rows)),
            int(memory_budget_mb * 1_000_000),
            compress_strategy,
            seed,
        )
        print(_plan_summary(compress_strategy, comp_plan))
    else:
        model = DLRM(config, seed=seed)
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
        # Train past the v0 snapshot, then hot-swap the improved model
        # in mid-stream (every replica runs on its own materialized
        # copy, so training here never touches a served array).
        log = SyntheticClickLog(spec, batch_size=64, seed=seed)
        for i in range(train_steps):
            model.train_step(log.batch(i), lr=0.1)
        snapshots[1] = ModelSnapshot.from_model(model, version=1)
        midpoint = requests[len(requests) // 2].arrival_time
        fleet.schedule_swap(midpoint, snapshots[1])
    return fleet.run(requests), snapshots


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.data.datasets import DATASET_FACTORIES
    from repro.serving import export_serving_trace

    if not _install_backend(args.backend):
        return 2
    if args.compress_strategy != "none" and args.memory_budget_mb is None:
        print(
            "--compress-strategy requires --memory-budget-mb",
            file=sys.stderr,
        )
        return 2
    factory = DATASET_FACTORIES[args.dataset]
    spec = factory(scale=args.scale)
    outcome, _ = _run_serving(
        spec,
        num_requests=args.requests,
        rate=args.rate,
        workers=args.workers,
        max_batch_size=args.max_batch_size,
        max_wait=args.max_wait,
        hot_coverage=args.hot_coverage,
        train_steps=args.train_steps,
        seed=args.seed,
        compress_strategy=args.compress_strategy,
        memory_budget_mb=args.memory_budget_mb,
        replicas=args.replicas,
        autoscale_ceiling=args.max_replicas if args.autoscale else None,
    )
    print(outcome.report.format())
    installs = [t for swap in outcome.swaps for _, t in swap.replica_times]
    if installs:
        swaps = ", ".join(f"{t * 1e3:.1f} ms" for t in installs)
        print(f"hot swaps at: {swaps} (final model v{outcome.final_version})")
    print()
    print("fleet:")
    for rep in outcome.replicas:
        extras = []
        if rep.crash_time is not None:
            extras.append(f"crashed at {rep.crash_time * 1e3:.1f} ms")
        if rep.fallback_batches:
            extras.append(f"{rep.fallback_batches} fallback batches")
        suffix = f"  ({', '.join(extras)})" if extras else ""
        print(
            f"  replica {rep.replica_id}: {rep.final_state.value:8s} "
            f"v{rep.final_version}  {rep.batches_served} batches / "
            f"{rep.requests_served} requests, breaker "
            f"{rep.final_breaker_state.value}{suffix}"
        )
    for swap in outcome.swaps:
        state = "complete" if swap.completed else "INCOMPLETE"
        print(
            f"  rolling swap -> v{swap.version}: {state}, "
            f"{len(swap.replica_times)} installs, min live "
            f"{swap.min_live_observed} (floor {swap.min_live_floor}), "
            f"{swap.dropped_in_flight} dropped in flight"
        )
    for event in outcome.autoscale_events:
        print(
            f"  autoscale {event.action} replica {event.replica_id} at "
            f"{event.time * 1e3:.1f} ms (signal "
            f"{event.signal * 1e3:.2f} ms, {event.live_after} live)"
        )
    if outcome.redirects or outcome.shed_ids:
        print(f"  {len(outcome.redirects)} redirects, "
              f"{len(outcome.shed_ids)} requests shed")
    if args.trace:
        count = export_serving_trace(
            args.trace, outcome.served_batches, installs
        )
        print(f"wrote {count} trace events to {args.trace}")
    _print_backend_report()
    return 0


class _Analyzer(NamedTuple):
    """One static analyzer: its CLI subcommand, gate line and SARIF identity."""

    name: str  # gate label on the quickcheck/analyze lines
    command: str  # CLI subcommand
    tool: str  # SARIF driver name
    rules: Mapping[str, Any]  # rule registry
    runner: Callable[..., Any]  # (paths, select=None) -> LintResult
    help: str
    paths_help: str
    id_prefix: str  # rule-id family named in the --select help


def _analyzers() -> Tuple[_Analyzer, ...]:
    from repro.analysis import (
        DET_RULES,
        PERF_RULES,
        RULE_REGISTRY,
        SHAPE_RULES,
        detcheck_paths,
        lint_paths,
        perfcheck_paths,
        shapecheck_paths,
    )

    return (
        _Analyzer(
            "lint", "lint", "reprolint", RULE_REGISTRY, lint_paths,
            "run reprolint, the repo-specific static analyzer",
            "files or directories to lint", "REP",
        ),
        _Analyzer(
            "shape", "shapecheck", "shapecheck", SHAPE_RULES, shapecheck_paths,
            "run the static shape/dtype abstract interpreter",
            "files or directories to check", "SHP",
        ),
        _Analyzer(
            "det", "detcheck", "detcheck", DET_RULES, detcheck_paths,
            "run the interprocedural determinism-taint analyzer",
            "files or directories to check as one program", "DET",
        ),
        _Analyzer(
            "perf", "perfcheck", "perfcheck", PERF_RULES, perfcheck_paths,
            "run the static kernel-zone cost analyzer",
            "files or directories to check", "PERF",
        ),
    )


def _analysis_paths(given: Sequence[str] = ()) -> list:
    """The paths given on the command line, else the installed package."""
    from pathlib import Path

    if given:
        return [Path(p) for p in given]
    return [Path(__file__).resolve().parent]


def _report_static_gate(name: str, result) -> None:
    """Print one analyzer's quickcheck/analyze line (+ its errors)."""
    status = "ok" if result.ok else "FAILED (error-level findings)"
    print(
        f"{name:8s} {result.files_scanned} files, "
        f"{len(result.errors)} errors, "
        f"{len(result.warnings)} warnings  [{status}]"
    )
    if not result.ok:
        for finding in result.errors:
            print(f"  {finding.format()}")


def _cmd_analyzer(args: argparse.Namespace) -> int:
    """``repro lint|shapecheck|detcheck|perfcheck``."""
    from repro.analysis import format_findings, result_to_sarif

    analyzer: _Analyzer = args.analyzer
    paths = _analysis_paths(args.paths)
    try:
        result = analyzer.runner(paths, select=args.select or None)
    except (FileNotFoundError, KeyError) as exc:
        print(f"{analyzer.command}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(result.to_json())
    elif args.format == "sarif":
        print(result_to_sarif(result, analyzer.tool, analyzer.rules.values()))
    else:
        print(format_findings(result))
    return 0 if result.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Umbrella gate: lint + shapecheck + detcheck + perfcheck + hazards."""
    from repro.analysis import (
        HAZARD_RULES,
        LintResult,
        hazard_findings,
        results_to_sarif_bundle,
        run_hazard_experiment,
    )

    paths = _analysis_paths(args.paths)
    sarif = getattr(args, "format", "text") == "sarif"
    ok = True
    sarif_runs = []
    for analyzer in _analyzers():
        try:
            result = analyzer.runner(paths)
        except FileNotFoundError as exc:
            print(f"{analyzer.name}: {exc}", file=sys.stderr)
            return 2
        ok = ok and result.ok
        if sarif:
            sarif_runs.append((result, analyzer.tool, analyzer.rules.values()))
        else:
            _report_static_gate(analyzer.name, result)

    hazard_result = run_hazard_experiment(inject_fault=False)
    hazards_ok = hazard_result.report.clean
    ok = ok and hazards_ok
    if sarif:
        hazard_lint = LintResult(
            findings=hazard_findings(hazard_result.report), files_scanned=0
        )
        sarif_runs.append((hazard_lint, "hazards", HAZARD_RULES.values()))
        print(results_to_sarif_bundle(sarif_runs))
        return 0 if ok else 1
    status = "ok" if hazards_ok else "FAILED (unrepaired hazards)"
    print(
        f"hazards  {hazard_result.report.events_analyzed} events, "
        f"{len(hazard_result.report.hazards)} unrepaired, "
        f"{len(hazard_result.report.repaired)} repaired  [{status}]"
    )
    if not hazards_ok:
        for hazard in hazard_result.report.hazards:
            print(f"  {hazard.describe()}")
    return 0 if ok else 1


def _cmd_hazards(args: argparse.Namespace) -> int:
    from repro.analysis import (
        HAZARD_RULES,
        LintResult,
        hazard_findings,
        result_to_sarif,
        run_hazard_experiment,
    )

    result = run_hazard_experiment(
        inject_fault=args.inject,
        num_batches=args.batches,
        prefetch_depth=args.prefetch_depth,
        grad_queue_depth=args.grad_queue_depth,
        seed=args.seed,
    )
    if args.format in ("json", "sarif"):
        findings = hazard_findings(result.report)
        lint_result = LintResult(
            findings=findings,
            files_scanned=0,
        )
        if args.format == "json":
            print(lint_result.to_json())
        else:
            print(
                result_to_sarif(lint_result, "hazards", HAZARD_RULES.values())
            )
    else:
        print(result.summary())
    if args.inject:
        # Fault injection *must* be caught; a silent detector is a bug.
        caught = len(result.report.raw_hazards) >= 1
        if args.format == "text":
            print(
                "detector caught the injected RAW conflict"
                if caught
                else "DETECTOR FAILED: injected conflict went unnoticed"
            )
        return 0 if caught else 1
    return 0 if result.report.clean else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.resilience import (
        FAULT_PLANS,
        FLEET_CHAOS_PLANS,
        ChaosHarnessConfig,
        FleetChaosConfig,
        run_chaos,
        run_fleet_chaos,
    )
    from repro.resilience.faults import FaultPlan

    if args.plan in FLEET_CHAOS_PLANS:
        outcome = run_fleet_chaos(
            args.plan,
            FleetChaosConfig(
                num_replicas=args.replicas,
                num_requests=args.requests,
            ),
        )
        print(outcome.format())
        return 0 if outcome.passed else 1
    if args.plan == "random":
        plan = FaultPlan.random(
            f"random-{args.seed}", seed=args.seed,
            num_faults=args.num_faults, max_step=args.batches,
        )
    else:
        plan = FAULT_PLANS[args.plan]
    config = ChaosHarnessConfig(
        num_batches=args.batches,
        checkpoint_interval=args.checkpoint_interval,
        num_requests=args.requests,
        max_restarts=args.max_restarts,
        num_shards=args.shards,
    )
    if args.checkpoint_dir is not None:
        outcome = run_chaos(plan, args.checkpoint_dir, config)
    else:
        with tempfile.TemporaryDirectory() as scratch:
            outcome = run_chaos(plan, scratch, config)
    print(outcome.format())
    return 0 if outcome.passed else 1


def _cmd_figures(_: argparse.Namespace) -> int:
    import importlib.util
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.exists():
        print(
            "benchmarks/ directory not found (installed package without "
            "the repository); clone the repo to regenerate figures",
            file=sys.stderr,
        )
        return 1
    sys.path.insert(0, str(bench_dir))
    failures = 0
    for path in sorted(bench_dir.glob("bench_*.py")):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)  # type: ignore[union-attr]
            builders = [
                name for name in dir(module) if name.startswith("build_")
            ]
            for name in builders:
                print(getattr(module, name)())
                print()
        except Exception as exc:  # pragma: no cover - CLI robustness
            failures += 1
            print(f"[{path.name}] failed: {exc}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EL-Rec reproduction command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="host calibration + device summary")
    sub.add_parser("datasets", help="Table II dataset schemas")
    sub.add_parser("compression", help="Table III compression summary")
    quick = sub.add_parser("quickcheck", help="fast end-to-end smoke test")
    quick.add_argument("--steps", type=int, default=20)
    train = sub.add_parser(
        "train", help="train a small DLRM on a synthetic click log"
    )
    train.add_argument(
        "--dataset", choices=["avazu", "criteo-kaggle", "criteo-tb"],
        default="criteo-kaggle",
    )
    train.add_argument("--scale", type=float, default=3e-5)
    train.add_argument("--steps", type=int, default=20)
    train.add_argument("--batch-size", type=int, default=128)
    train.add_argument("--embedding-dim", type=int, default=8)
    train.add_argument("--tt-rank", type=int, default=8)
    train.add_argument(
        "--embedding-backend",
        choices=["dense", "tt", "eff_tt", "hash", "robe", "pq"],
        default="eff_tt",
        help="embedding-table representation (distinct from --backend, "
        "which picks the kernel execution layer)",
    )
    train.add_argument("--lr", type=float, default=0.1)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--shards", type=int, default=0,
        help="train through a sharded parameter server with this many "
        "simulated devices (0 = plain local training); with "
        "--compress none the loss trajectory is bitwise-independent "
        "of the shard count",
    )
    train.add_argument(
        "--compress", choices=["none", "topk", "quant", "both"],
        default="none",
        help="PS-link compression: top-k error-feedback gradient "
        "pushes and/or int8-quantized row pulls (requires --shards)",
    )
    train.add_argument(
        "--topk-fraction", type=float, default=0.1,
        help="fraction of unique rows sent per step under --compress "
        "topk/both",
    )
    train.add_argument(
        "--device-budget-mb", type=int, default=1,
        help="per-device memory budget for the placement planner "
        "(sharded path only)",
    )
    _add_compression_flags(train)
    _add_backend_flag(train)
    bench = sub.add_parser(
        "bench", help="per-kernel-zone cost report for a fixed workload"
    )
    bench.add_argument(
        "--dataset", choices=["avazu", "criteo-kaggle", "criteo-tb"],
        default="criteo-kaggle",
    )
    bench.add_argument("--scale", type=float, default=3e-5)
    bench.add_argument("--steps", type=int, default=10)
    bench.add_argument("--batch-size", type=int, default=128)
    bench.add_argument("--embedding-dim", type=int, default=8)
    bench.add_argument("--tt-rank", type=int, default=8)
    bench.add_argument("--requests", type=int, default=200)
    bench.add_argument("--seed", type=int, default=0)
    _add_compression_flags(bench)
    _add_backend_flag(bench)
    sub.add_parser("figures", help="regenerate every paper table/figure")
    analyzers = _analyzers()
    for analyzer in analyzers:
        checker = sub.add_parser(analyzer.command, help=analyzer.help)
        checker.set_defaults(analyzer=analyzer)
        checker.add_argument(
            "paths", nargs="*",
            help=f"{analyzer.paths_help} (default: the installed "
            "repro package)",
        )
        checker.add_argument(
            "--select", action="append", metavar="RULE",
            help="only run the named rule (symbolic name or "
            f"{analyzer.id_prefix}nnn id); repeatable",
        )
        checker.add_argument(
            "--format", choices=["text", "json", "sarif"], default="text",
        )
    analyze = sub.add_parser(
        "analyze",
        help="umbrella gate: lint + shapecheck + detcheck + perfcheck "
        "+ hazards, nonzero exit if any gate fails",
    )
    analyze.add_argument(
        "paths", nargs="*",
        help="files or directories for the static gates (default: the "
        "installed repro package)",
    )
    analyze.add_argument(
        "--format", choices=["text", "sarif"], default="text",
        help="sarif merges every gate's findings into one SARIF 2.1.0 "
        "bundle with one run per tool",
    )
    hazards = sub.add_parser(
        "hazards", help="trace a pipelined run and detect RAW/WAR hazards"
    )
    hazards.add_argument(
        "--inject", action="store_true",
        help="disable LC cache management (paper Fig. 10a fault) and "
        "verify the detector catches the resulting RAW conflict",
    )
    hazards.add_argument("--batches", type=int, default=16)
    hazards.add_argument("--prefetch-depth", type=int, default=3)
    hazards.add_argument("--grad-queue-depth", type=int, default=2)
    hazards.add_argument("--seed", type=int, default=0)
    hazards.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="emit unrepaired hazards as findings (line = gather "
        "timestamp in the logical-clock trace)",
    )
    serve = sub.add_parser(
        "serve", help="simulate the online serving subsystem"
    )
    serve.add_argument(
        "--dataset", choices=["avazu", "criteo-kaggle", "criteo-tb"],
        default="criteo-kaggle",
    )
    serve.add_argument("--scale", type=float, default=3e-5)
    serve.add_argument("--requests", type=int, default=2000)
    serve.add_argument(
        "--rate", type=float, default=2000.0,
        help="mean arrival rate, requests/second",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="batches each replica may have in flight at once",
    )
    serve.add_argument(
        "--replicas", type=int, default=1,
        help="serving replicas, each its own fault domain",
    )
    serve.add_argument(
        "--autoscale", action="store_true",
        help="enable SLO-headroom autoscaling",
    )
    serve.add_argument(
        "--max-replicas", type=int, default=8,
        help="autoscaling ceiling for --autoscale",
    )
    serve.add_argument("--max-batch-size", type=int, default=32)
    serve.add_argument(
        "--max-wait", type=float, default=2e-3,
        help="micro-batching wait budget, seconds",
    )
    serve.add_argument(
        "--hot-coverage", type=float, default=0.1,
        help="fraction of each table's rows materialized in the hot cache",
    )
    serve.add_argument(
        "--train-steps", type=int, default=20,
        help="train this many steps past the initial snapshot and "
        "hot-swap the result in mid-stream (0 disables the swap)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--trace", type=str, default=None,
        help="write a Chrome trace of the serving timeline here",
    )
    _add_compression_flags(serve)
    _add_backend_flag(serve)
    chaos = sub.add_parser(
        "chaos",
        help="run train/serve under a fault plan and check recovery "
        "invariants",
    )
    chaos.add_argument(
        "--plan",
        choices=["none", "smoke", "stage-sweep", "torn-checkpoint",
                 "serve-degrade", "random", "fleet-smoke",
                 "fleet-replica-sweep"],
        default="smoke",
        help="named fault plan ('random' derives one from --seed; "
        "'fleet-*' plans exercise the replicated serving fleet)",
    )
    chaos.add_argument(
        "--replicas", type=int, default=2,
        help="fleet size for the fleet-* plans",
    )
    chaos.add_argument("--batches", type=int, default=18)
    chaos.add_argument("--checkpoint-interval", type=int, default=4)
    chaos.add_argument("--requests", type=int, default=600)
    chaos.add_argument("--max-restarts", type=int, default=8)
    chaos.add_argument("--num-faults", type=int, default=3,
                       help="fault count for --plan random")
    chaos.add_argument(
        "--shards", type=int, default=0,
        help="run the harness on a sharded parameter server with this "
        "many shards (0 = one shard, bitwise the single host server); "
        "recovery invariants must hold either way",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--checkpoint-dir", type=str, default=None,
        help="keep snapshots here instead of a temporary directory",
    )

    args = parser.parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "datasets": _cmd_datasets,
        "compression": _cmd_compression,
        "quickcheck": _cmd_quickcheck,
        "train": _cmd_train,
        "bench": _cmd_bench,
        "figures": _cmd_figures,
        "serve": _cmd_serve,
        **{analyzer.command: _cmd_analyzer for analyzer in analyzers},
        "analyze": _cmd_analyze,
        "hazards": _cmd_hazards,
        "chaos": _cmd_chaos,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
