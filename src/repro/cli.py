"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info`` / ``datasets`` / ``compression``
    Host calibration and device cost model; the Table II dataset
    schemas; the Table III compression summary.
``train``
    Train a small DLRM on a synthetic click log: locally, through an
    N-shard parameter server (``--shards``), or on planner-sized
    compressed tables (``--compress-strategy``).
``bench``
    A fixed training + serving workload; with ``--backend
    instrumented``, its FLOP/byte cost per kernel zone.
``quickcheck``
    One line per gate of :func:`repro.checks.registry`: the six
    embedding strategies train, the execution backends agree bit for
    bit, serving, recovery, sharding and compression hold their
    invariants, and the static analyzers find no error.
``lint`` / ``detcheck``
    One static analyzer (repo lint rules, determinism taint) over the
    given paths; exit 1 on error-level findings, ``--format
    json|sarif`` for CI.
``analyze``
    Both analyzers plus a clean-run hazard trace, one exit code.
``hazards``
    Trace a pipelined-PS run for RAW/WAR hazards on embedding rows;
    ``--inject`` disables §V-B life-cycle cache management to show the
    detector catching the paper's conflict.
``serve``
    Simulate the serving fleet: Poisson/Zipf traffic, micro-batching,
    hot-row caches, an optional mid-stream hot swap, an SLO report.
``chaos``
    Train and serve under a named fault plan; check the recovery
    invariants.
``figures``
    Regenerate every paper table/figure from ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import runpy
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro import checks

__all__ = ["main"]

#: The repository's benchmark modules; absent from an installed package.
_BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

#: ``train`` options only the sharded path reads, with their defaults.
_SHARDED_ONLY = {"compress": "none", "topk_fraction": 0.1, "device_budget_mb": 1}
#: ``serve --max-replicas`` default; any other value needs ``--autoscale``.
_AUTOSCALE_CEILING = 8


def _usage_error(args: argparse.Namespace) -> Optional[str]:
    """What makes a parsed command line unrunnable, if anything."""
    strategy = getattr(args, "compress_strategy", "none")
    if args.command == "train":
        if args.shards >= 1:
            if strategy in ("auto", "dense"):
                return (
                    f"--compress-strategy {strategy} is not supported with "
                    "--shards (the placement planner picks one compressed "
                    "on-device form); pick hash, robe, or pq"
                )
            return None
        ignored = [
            "--" + name.replace("_", "-")
            for name, default in _SHARDED_ONLY.items()
            if getattr(args, name) != default
        ]
        if ignored:
            return f"{', '.join(ignored)} only take effect with --shards"
    at_least_one = {
        "hazards": ("batches", "prefetch_depth", "grad_queue_depth"),
        "chaos": (
            "shards", "batches", "checkpoint_interval", "requests", "replicas",
        ),
        "bench": ("requests",),
        "serve": ("requests", "replicas", "workers", "max_batch_size"),
    }
    for name in at_least_one.get(args.command, ()):
        value = getattr(args, name)
        if value < 1:
            return f"--{name.replace('_', '-')} must be >= 1, got {value}"
    if args.command == "chaos" and args.plan == "random" and args.batches < 2:
        return f"--plan random needs --batches >= 2, got {args.batches}"
    if args.command == "serve":
        for name, value, ok, rule in (
            ("rate", args.rate, args.rate > 0, "> 0"),
            ("scale", args.scale, args.scale > 0, "> 0"),
            ("max-wait", args.max_wait, args.max_wait >= 0, ">= 0"),
            ("train-steps", args.train_steps, args.train_steps >= 0, ">= 0"),
        ):
            if not ok:
                return f"--{name} must be {rule}, got {value:g}"
        if args.max_replicas != _AUTOSCALE_CEILING and not args.autoscale:
            return "--max-replicas only takes effect with --autoscale"
        if not 0.0 <= args.hot_coverage <= 1.0:
            return f"--hot-coverage must be in [0, 1], got {args.hot_coverage:g}"
    if strategy != "none" and args.memory_budget_mb is None:
        return (
            "--compress-strategy requires --memory-budget-mb (the planner "
            "sizes every table against that byte budget)"
        )
    return None


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
        "bad gather indices, and dtype drift)",
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


def _budgeted_model(args: argparse.Namespace, cfg, stats):
    """``DLRM(cfg)``, or the planner's model under ``--compress-strategy``.

    ``stats`` is called for the per-table statistics only when a plan
    is made.
    """
    from repro.models.dlrm import DLRM

    if args.compress_strategy == "none":
        return DLRM(cfg, seed=args.seed)
    model, plan = checks.planned_model(
        cfg, stats(), int(args.memory_budget_mb * 1_000_000),
        args.compress_strategy, args.seed,
    )
    print(
        f"embeddings: '{args.compress_strategy}' plan, "
        f"{plan.device_bytes / 1e6:.2f} MB of "
        f"{plan.budget_bytes / 1e6:.2f} MB budget"
    )
    return model


def _cmd_info(_: argparse.Namespace) -> int:
    from repro.system.devices import (
        TESLA_T4,
        TESLA_V100,
        calibrate_host,
    )

    profile = calibrate_host()
    print("host calibration:")
    print(f"  large-GEMM throughput : {profile.gemm_gflops:10.1f} GFLOP/s")
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


def _bench_files(pattern: str) -> Optional[List[Path]]:
    """The repository's ``benchmarks/<pattern>`` modules, made importable.

    None, said on stderr, when there is no repository around the package.
    """
    if not _BENCH_DIR.is_dir():
        print(
            "benchmarks/ directory not found (installed package without "
            "the repository); clone the repo to regenerate figures",
            file=sys.stderr,
        )
        return None
    if str(_BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(_BENCH_DIR))  # the modules import its conftest
    return sorted(_BENCH_DIR.glob(pattern))


def _cmd_compression(_: argparse.Namespace) -> int:
    paths = _bench_files("bench_table3_compression.py")
    if paths is None:
        return 1
    print(runpy.run_path(str(paths[0]))["build_table3"]())
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.backend import get_backend, get_plan_cache, set_backend
    from repro.data.dataloader import SyntheticClickLog
    from repro.data.datasets import DATASET_FACTORIES
    from repro.models.config import DLRMConfig, EmbeddingBackend
    from repro.models.dlrm import DLRM

    set_backend(args.backend)
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

    model, plan = checks.planned_model(
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


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.backend import get_backend, get_plan_cache, set_backend
    from repro.data.dataloader import SyntheticClickLog
    from repro.data.datasets import DATASET_FACTORIES
    from repro.models.config import DLRMConfig, EmbeddingBackend
    from repro.models.dlrm import DLRM
    from repro.reorder import profile_tables

    set_backend(args.backend)
    spec = DATASET_FACTORIES[args.dataset](scale=args.scale)
    log = SyntheticClickLog(spec, batch_size=args.batch_size, seed=args.seed)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=args.embedding_dim,
        backend=EmbeddingBackend.EFF_TT, tt_rank=args.tt_rank,
        bottom_mlp=(16,), top_mlp=(16,),
    )
    model = _budgeted_model(args, cfg, lambda: profile_tables(log, 4))
    plan_cache = get_plan_cache()
    hits0, misses0 = plan_cache.hits, plan_cache.misses
    for i in range(args.steps):
        model.train_step(log.batch(i), lr=0.1)
    outcome, _ = checks.run_serving(
        spec,
        DLRM(checks.small_config(spec, EmbeddingBackend.EFF_TT), seed=args.seed),
        num_requests=args.requests, seed=args.seed,
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
    ok = True
    for gate in checks.registry(args.steps).values():
        check = gate()
        print(checks.format_check(check))
        ok = ok and check.ok
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.backend import set_backend
    from repro.data.datasets import DATASET_FACTORIES
    from repro.models.config import EmbeddingBackend
    from repro.reorder import analytic_table_stats
    from repro.serving import export_serving_trace

    set_backend(args.backend)
    spec = DATASET_FACTORIES[args.dataset](scale=args.scale)
    cfg = checks.small_config(spec, EmbeddingBackend.EFF_TT)
    outcome, _ = checks.run_serving(
        spec,
        _budgeted_model(
            args, cfg, lambda: analytic_table_stats(list(cfg.table_rows))
        ),
        num_requests=args.requests,
        rate=args.rate,
        workers=args.workers,
        max_batch_size=args.max_batch_size,
        max_wait=args.max_wait,
        hot_coverage=args.hot_coverage,
        train_steps=args.train_steps,
        seed=args.seed,
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


def _analysis_paths(given: Sequence[str]) -> List[Path]:
    """The paths given on the command line, else the installed package."""
    return [Path(p) for p in given] or [checks.PACKAGE_DIR]


def _cmd_analyzer(args: argparse.Namespace) -> int:
    """``repro lint|detcheck``."""
    from repro.analysis import format_findings, result_to_sarif

    analyzer: checks.Analyzer = args.analyzer
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
    """Umbrella gate: lint + detcheck + hazards."""
    from repro.analysis import (
        HAZARD_RULES,
        LintResult,
        hazard_findings,
        results_to_sarif_bundle,
        run_hazard_experiment,
    )

    paths = _analysis_paths(args.paths)
    sarif = args.format == "sarif"
    ok = True
    sarif_runs = []
    for analyzer in checks.analyzers():
        try:
            result = analyzer.runner(paths)
        except FileNotFoundError as exc:
            print(f"{analyzer.name}: {exc}", file=sys.stderr)
            return 2
        ok = ok and result.ok
        if sarif:
            sarif_runs.append((result, analyzer.tool, analyzer.rules.values()))
        else:
            print(checks.format_check(checks.lint_check(analyzer.name, result)))

    report = run_hazard_experiment(inject_fault=False).report
    ok = ok and report.clean
    if sarif:
        hazard_lint = LintResult(findings=hazard_findings(report), files_scanned=0)
        sarif_runs.append((hazard_lint, "hazards", HAZARD_RULES.values()))
        print(results_to_sarif_bundle(sarif_runs))
    else:
        print(checks.format_check(checks.hazard_check(report)))
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
    paths = _bench_files("bench_*.py")
    if paths is None:
        return 1
    failures = 0
    for path in paths:
        try:
            namespace = runpy.run_path(str(path))
            for builder in sorted(namespace):
                if builder.startswith("build_"):
                    print(namespace[builder]())
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
        default=_SHARDED_ONLY["compress"],
        help="PS-link compression: top-k error-feedback gradient "
        "pushes and/or int8-quantized row pulls (requires --shards)",
    )
    train.add_argument(
        "--topk-fraction", type=float,
        default=_SHARDED_ONLY["topk_fraction"],
        help="fraction of unique rows sent per step under --compress "
        "topk/both (requires --shards)",
    )
    train.add_argument(
        "--device-budget-mb", type=int,
        default=_SHARDED_ONLY["device_budget_mb"],
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
    analyzers = checks.analyzers()
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
        help="umbrella gate: lint + detcheck + hazards, nonzero exit if "
        "any gate fails",
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
        "--max-replicas", type=int, default=_AUTOSCALE_CEILING,
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
        "--shards", type=int, default=1,
        help="shards of the parameter server behind the harness's host "
        "tables; recovery invariants must hold for any count",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--checkpoint-dir", type=str, default=None,
        help="keep snapshots here instead of a temporary directory",
    )

    args = parser.parse_args(argv)
    error = _usage_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
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
