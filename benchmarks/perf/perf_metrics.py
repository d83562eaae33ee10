"""Metric catalogue of the perf ledger: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root lists exactly ``END_TO_END``
and ``PER_LAYER`` (the smoke test checks the two agree).  ``kind`` says
where a number comes from:

* ``cpu`` — CPU seconds of the single benchmark thread, expressed
  relative to the host-speed reference timed beside it (see README,
  "What the clock is");
* ``rawcpu`` — CPU seconds as the kernel reports them;
* ``wall`` — ``time.perf_counter`` seconds;
* ``mem`` — peak resident set of the workload's interpreter;
* ``count`` — an exact count or a ratio of exact counts; it repeats
  bit for bit for a given seed and op count;
* ``sim`` — SimClock time composed from ``ServiceTimeModel``; it says
  nothing about how fast the code runs.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Tuple

__all__ = [
    "Metric",
    "END_TO_END",
    "LEDGER_END_TO_END",
    "PER_LAYER",
    "ZONES",
    "exact_names",
    "quartiles",
]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    kind: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only; per-layer metrics carry no bound).
    bound: float = 0.0


#: The contract's end-to-end metrics: every workload reports all four.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "cpu", 0.25),
    Metric("op_ms_p50", "ms", "lower", "cpu", 0.15),
    Metric("samples_per_s", "1/s", "higher", "cpu", 0.15),
    Metric("peak_rss_mb", "MB", "lower", "mem", 0.20),
)

#: End-to-end numbers the ledger file adds.  They are 0 on a healthy
#: run (``fail_ratio``) or exist on some workloads only, so the
#: contract's metric list cannot hold them; ``compare.py`` judges them
#: with the bounds below (``fail_ratio``: any increase regresses).
LEDGER_END_TO_END: Tuple[Metric, ...] = (
    Metric("fail_ratio", "ratio", "lower", "count", 0.0),
    Metric("final_loss", "loss", "lower", "count", 0.01),
    Metric("sim_p99_ms", "ms", "lower", "sim", 0.01),
)

#: Kernel zones whose counted FLOPs / bytes the ledger carries.
ZONES: Tuple[str, ...] = (
    "efftt_forward",
    "efftt_backward",
    "fused_update",
    "tt_reconstruct",
    "mlp",
    "interaction",
    "optimizer",
    "lc_cache",
    "ps_gather",
    "ps_apply",
    "shard_route",
    "serving_lookup",
)


def _per_layer() -> Tuple[Metric, ...]:
    m = Metric
    metrics: List[Metric] = [
        # -- run: the traced run as a whole ----------------------------
        m("run.op_ms_p75", "ms", "lower", "cpu"),
        m("run.op_ms_max", "ms", "lower", "cpu"),
        m("run.op_raw_ms_p50", "ms", "lower", "rawcpu"),
        m("run.op_wall_ms_p50", "ms", "lower", "wall"),
        m("run.host_slowdown", "ratio", "lower", "rawcpu"),
        m("run.steal_ratio", "ratio", "lower", "wall"),
        m("run.wall_s", "s", "lower", "wall"),
        m("run.ops", "count", "higher", "count"),
        m("run.warmup_s", "s", "lower", "cpu"),
        m("run.trace_overhead_ratio", "ratio", "lower", "cpu"),
        m("run.trace_loss_absdiff", "abs", "lower", "count"),
        m("run.named_coverage_ratio", "ratio", "higher", "cpu"),
        # -- data ------------------------------------------------------
        m("data.batch_ms", "ms", "lower", "cpu"),
        m("data.batch_calls_per_step", "count", "lower", "count"),
        m("data.reqgen_s", "s", "lower", "cpu"),
        # -- embeddings ------------------------------------------------
        m("embeddings.fwd_ms", "ms", "lower", "cpu"),
        m("embeddings.bwd_ms", "ms", "lower", "cpu"),
        m("embeddings.step_ms", "ms", "lower", "cpu"),
        m("embeddings.reuse.full_row_ratio", "ratio", "higher", "count"),
        m("embeddings.reuse.prefix_ratio", "ratio", "higher", "count"),
        m("embeddings.reuse.gemm_saved_ratio", "ratio", "higher", "count"),
        m("embeddings.unique_ratio", "ratio", "lower", "count"),
        m("embeddings.param_mb", "MB", "lower", "count"),
        m("embeddings.cache.sync_ms", "ms", "lower", "cpu"),
        m("embeddings.cache.hit_ratio", "ratio", "higher", "count"),
        m("embeddings.hotrow.hit_ratio", "ratio", "higher", "count"),
        m("embeddings.hotrow.build_ms", "ms", "lower", "cpu"),
        # -- nn --------------------------------------------------------
        m("nn.mlp_fwd_ms", "ms", "lower", "cpu"),
        m("nn.mlp_bwd_ms", "ms", "lower", "cpu"),
        m("nn.interaction_fwd_ms", "ms", "lower", "cpu"),
        m("nn.interaction_bwd_ms", "ms", "lower", "cpu"),
        m("nn.loss_ms", "ms", "lower", "cpu"),
        m("nn.optim_ms", "ms", "lower", "cpu"),
        # -- models ----------------------------------------------------
        m("models.train_step_ms", "ms", "lower", "cpu"),
        m("models.self_ms", "ms", "lower", "cpu"),
        m("models.snapshot_ms", "ms", "lower", "cpu"),
        m("models.materialize_ms", "ms", "lower", "cpu"),
        m("models.final_loss", "loss", "lower", "count"),
        # -- sharding --------------------------------------------------
        m("sharding.gather_ms", "ms", "lower", "cpu"),
        m("sharding.apply_ms", "ms", "lower", "cpu"),
        m("sharding.pull_mb_per_step", "MB", "lower", "count"),
        m("sharding.push_mb_per_step", "MB", "lower", "count"),
        m("sharding.wire_ratio", "ratio", "higher", "count"),
        m("sharding.shard_imbalance", "ratio", "lower", "count"),
        # -- system ----------------------------------------------------
        m("system.queue_ms", "ms", "lower", "cpu"),
        m("system.pipeline_self_ms", "ms", "lower", "cpu"),
        # -- serving ---------------------------------------------------
        m("serving.predict_ms_per_batch", "ms", "lower", "cpu"),
        m("serving.predict_share", "ratio", "lower", "cpu"),
        m("serving.startup_ms", "ms", "lower", "cpu"),
        m("serving.loop_ms_per_window", "ms", "lower", "cpu"),
        m("serving.batches_per_window", "count", "lower", "count"),
        m("serving.mean_batch_size", "count", "higher", "count"),
        m("serving.max_queue_depth", "count", "lower", "count"),
        m("serving.redirects", "count", "lower", "count"),
        m("serving.shed", "count", "lower", "count"),
        m("serving.sim_p50_ms", "ms", "lower", "sim"),
        m("serving.sim_p99_ms", "ms", "lower", "sim"),
        m("serving.sim_rps", "1/s", "higher", "sim"),
        m("serving.swap_ms", "ms", "lower", "cpu"),
        m("serving.swap_dropped", "count", "lower", "count"),
    ]
    # -- backend: counted under InstrumentedBackend, per op ------------
    for zone in ZONES:
        metrics.append(m(f"backend.{zone}.gflop", "GFLOP", "lower", "count"))
        metrics.append(m(f"backend.{zone}.mbytes", "MB", "lower", "count"))
    metrics += [
        m("backend.calls", "count", "lower", "count"),
        m("backend.plan_cache.hit_ratio", "ratio", "higher", "count"),
        # counted FLOPs over traced seconds: set against host.gemm_gflops
        m("embeddings.fwd_gflops_per_s", "GFLOP/s", "higher", "cpu"),
        m("embeddings.bwd_gflops_per_s", "GFLOP/s", "higher", "cpu"),
        m("nn.mlp_gflops_per_s", "GFLOP/s", "higher", "cpu"),
        m("nn.interaction_gflops_per_s", "GFLOP/s", "higher", "cpu"),
    ]
    return tuple(metrics)


PER_LAYER: Tuple[Metric, ...] = _per_layer()


def exact_names() -> List[str]:
    """Per-layer metrics that must repeat exactly for a fixed seed."""
    return [m.name for m in PER_LAYER if m.kind in ("count", "sim")]


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles the way the contract's driver takes them."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return {"median": ordered[0], "q1": ordered[0], "q3": ordered[0]}
    q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3}
