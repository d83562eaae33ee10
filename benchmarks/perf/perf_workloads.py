"""The four workloads of the perf ledger.

Each workload builds its system from public constructors, runs one
*op* at a time (the unit the runner times), verifies what the ops
produced, and knows which public methods to wrap for the traced run.
``--seed`` reaches only :class:`SyntheticClickLog` /
:class:`RequestGenerator`; the program under test sees generated
inputs, never the seed.  Model seeds are fixed.

An op index is also a position in the input stream: training op ``i``
consumes batch ``i`` (``ps_pipeline``: batches ``4i..4i+3``), serving
op ``i`` consumes request window ``i``.  Ops ``0..warmup_ops-1`` warm
up; the timed ops follow.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like, criteo_tb_like
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.reuse_buffer import build_reuse_plan
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM
from repro.nn.optim import SGD
from repro.serving import (
    BatchingPolicy,
    FleetConfig,
    ModelSnapshot,
    RequestGenerator,
    ServingFleet,
    ServingModel,
    replay_batches,
)
from repro.sharding.compression import LinkCompressionConfig
from repro.sharding.trainer import build_sharded_ps_trainer
from repro.system.pipeline import SequentialPSTrainer
from repro.system.queues import BoundedQueue

from perf_tracer import Tracer

__all__ = ["Shape", "FULL", "SMOKE", "MIN_OPS", "Workload", "WORKLOADS"]

LR = 0.05
MODEL_SEED = 7
#: Fewest timed ops a run may have.  ISSUE 11 asked for 20; the
#: contract's cap (92 runs in 3420 s) leaves room for 10 on this box.
MIN_OPS = 10


@dataclasses.dataclass(frozen=True)
class Shape:
    """Problem sizes; only ``--smoke`` departs from :data:`FULL`."""

    scale: float
    batch: int
    dim: int
    rank: int
    big_mlp: Tuple[int, ...]
    window: int  #: requests per ``fleet.run``


FULL = Shape(scale=2e-3, batch=2048, dim=64, rank=32, big_mlp=(512, 256), window=2000)
SMOKE = Shape(scale=3e-5, batch=128, dim=8, rank=4, big_mlp=(32, 16), window=200)


def _cpu_ms(fn) -> Tuple[object, float]:
    start = time.process_time()
    out = fn()
    return out, (time.process_time() - start) * 1e3


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    why = ""
    warmup_ops = 0
    #: Timed ops of a full ledger run (ISSUE 11's counts).
    full_ops = 0
    #: Roughly what one op cost when the benchmark was defined.  Only
    #: ever used to turn ``--seconds`` into a fixed op count, so it must
    #: not follow the code's speed: the count is the same on every commit.
    nominal_op_s = 1.0
    steps_per_op = 1
    #: Per-layer metric that receives the op span's self time, if any.
    root_self_metric: Optional[str] = None

    def __init__(
        self, seed: int, shape: Shape, total_ops: int, fault: Optional[str] = None
    ) -> None:
        self.seed = seed
        self.shape = shape
        self.total_ops = total_ops
        self.fault = fault
        #: op index -> one float summarising what the op produced (last
        #: loss, or the sum of a window's predictions).
        self.signatures: Dict[int, float] = {}
        self.problems: List[str] = []
        self.counts: Counter = Counter()

    def _count_rows(self, index_arrays: Sequence[np.ndarray]) -> None:
        """Tally lookups and distinct rows (for ``embeddings.unique_ratio``)."""
        for idx in index_arrays:
            self.counts["occurrences"] += idx.size
            self.counts["unique_rows"] += int(np.unique(idx).size)

    # -- hooks ---------------------------------------------------------
    @property
    def samples_per_op(self) -> int:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int, tracer: Tracer) -> None:
        raise NotImplementedError

    def check_op(self, i: int) -> None:
        """Untimed per-op verification (default: none)."""

    def observe(self, i: int) -> None:
        """Untimed exact counts on op ``i``'s inputs (traced run only)."""

    def verify(self, timed: Sequence[int]) -> Tuple[int, int]:
        """Return ``(attempted, failed)``; append to ``self.problems``."""
        raise NotImplementedError

    def twin(self) -> "Workload":
        """An independent copy in the same state (for the traced run)."""
        return copy.deepcopy(self)

    def install(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def extra_traced(self, tracer: Tracer, i: int) -> Dict[str, float]:
        """Extra traced measurements after the traced ops (op index ``i``)."""
        return {}

    def layer_metrics(self, traced: Sequence[int]) -> Dict[str, float]:
        """Workload-specific per-layer numbers (exact counts mostly)."""
        return {}

    def ledger_end_to_end(self, timed: Sequence[int]) -> Dict[str, float]:
        """``final_loss`` / ``sim_p99_ms`` for the ledger file."""
        return {}


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
def _wrap_model(tracer: Tracer, model: DLRM, bag_steps: bool) -> None:
    """Span every layer call ``DLRM.forward/backward`` makes."""
    for mlp in (model.bottom_mlp, model.top_mlp):
        tracer.wrap(mlp, "forward", "nn.mlp_fwd")
        tracer.wrap(mlp, "backward", "nn.mlp_bwd")
    tracer.wrap(model.interaction, "forward", "nn.interaction_fwd")
    tracer.wrap(model.interaction, "backward", "nn.interaction_bwd")
    tracer.wrap(model.loss_fn, "forward", "nn.loss")
    tracer.wrap(model.loss_fn, "backward", "nn.loss")
    for bag in model.embedding_bags:
        tracer.wrap(bag, "forward", "embeddings.fwd")
        tracer.wrap(bag, "backward", "embeddings.bwd")
        if bag_steps:
            tracer.wrap(bag, "step", "embeddings.step")
    # The optimizer object is built inside apply_gradients, so the
    # class is the only place to reach it from outside.
    tracer.wrap(SGD, "step", "nn.optim")


def _check_losses(
    workload: Workload, losses: Sequence[float], before: float, after: float
) -> int:
    """Count non-finite losses; require training to have lowered the loss.

    ``before`` is the untrained model's loss on batch 0 and ``after`` the
    trained model's loss on the same batch.  Comparing the last step's
    loss with the first's instead would compare two different batches,
    and at ``--smoke`` sizes batch noise is larger than eight steps of
    learning.
    """
    failed = sum(1 for loss in losses if not math.isfinite(loss))
    if not after < before:
        workload.problems.append(
            f"loss on the first batch did not fall: {before!r} -> {after!r}"
        )
    return failed


class _TrainDLRM(Workload):
    """``DLRM.train_step(log.batch(i))`` on criteo-kaggle-like data."""

    warmup_ops = 5
    backend = EmbeddingBackend.EFF_TT

    @property
    def samples_per_op(self) -> int:
        return self.shape.batch

    def _mlp(self) -> Tuple[int, ...]:
        raise NotImplementedError

    def build(self) -> None:
        spec = criteo_kaggle_like(scale=self.shape.scale)
        self.log = SyntheticClickLog(
            spec, batch_size=self.shape.batch, seed=self.seed
        )
        config = DLRMConfig.from_dataset(
            spec,
            embedding_dim=self.shape.dim,
            backend=self.backend,
            tt_rank=self.shape.rank,
            bottom_mlp=self._mlp(),
            top_mlp=self._mlp(),
        )
        self.model = DLRM(config, seed=MODEL_SEED)

    def run_op(self, i: int, tracer: Tracer) -> None:
        with tracer.span("data.batch"):
            batch = self.log.batch(i)
        with tracer.span("models.train_step"):
            result = self.model.train_step(batch, LR)
        loss = result.loss
        if self.fault == "nan_loss" and i == self.warmup_ops:
            loss = float("nan")
        self.signatures[i] = loss
        self._last_batch = batch

    def observe(self, i: int) -> None:
        self._count_rows(self._last_batch.sparse_indices)
        for bag, idx in zip(
            self.model.embedding_bags, self._last_batch.sparse_indices
        ):
            if isinstance(bag, EffTTEmbeddingBag):
                plan = build_reuse_plan(idx, bag.spec.row_shape)
                self.counts["tt_occurrences"] += plan.naive_gemm_count()
                self.counts["tt_unique_rows"] += plan.num_unique_rows
                self.counts["tt_gemms"] += plan.gemm_count()

    def verify(self, timed: Sequence[int]) -> Tuple[int, int]:
        losses = [self.signatures[i] for i in timed]
        first = self.log.batch(0)
        after = self.model.loss_fn.forward(self.model.forward(first), first.labels)
        return len(losses), _check_losses(self, losses, self.signatures[0], after)

    def install(self, tracer: Tracer) -> None:
        _wrap_model(tracer, self.model, bag_steps=True)

    def layer_metrics(self, traced: Sequence[int]) -> Dict[str, float]:
        c = self.counts
        out = {
            "embeddings.unique_ratio": c["unique_rows"] / c["occurrences"],
            "embeddings.param_mb": self.model.embedding_nbytes() / 1e6,
            "models.final_loss": self.signatures[traced[-1]],
        }
        if c["tt_gemms"]:
            out.update(
                {
                    "embeddings.reuse.full_row_ratio": c["tt_occurrences"]
                    / c["tt_unique_rows"],
                    "embeddings.reuse.prefix_ratio": c["tt_unique_rows"]
                    / c["tt_gemms"],
                    "embeddings.reuse.gemm_saved_ratio": 1.0
                    - c["tt_gemms"] / c["tt_occurrences"],
                }
            )
        return out

    def ledger_end_to_end(self, timed: Sequence[int]) -> Dict[str, float]:
        return {"final_loss": self.signatures[timed[-1]]}


class TrainEffTT(_TrainDLRM):
    name = "train_efftt"
    why = (
        "all 26 tables Eff-TT with tiny MLPs: Eff-TT forward/backward/fused "
        "update do most of the step, so every TT optimisation must show here"
    )
    full_ops = 60
    nominal_op_s = 0.57

    def _mlp(self) -> Tuple[int, ...]:
        return (16,)


class TrainDenseMLP(_TrainDLRM):
    name = "train_dense_mlp"
    why = (
        "same data, dense tables and (512, 256) MLPs: Eff-TT is bypassed, nn "
        "GEMMs + interaction and the dense gather/segment-sum bag path dominate"
    )
    full_ops = 80
    nominal_op_s = 0.45
    backend = EmbeddingBackend.DENSE

    def _mlp(self) -> Tuple[int, ...]:
        return self.shape.big_mlp


# ----------------------------------------------------------------------
# parameter-server pipeline
# ----------------------------------------------------------------------
class PSPipeline(Workload):
    """``PipelinedPSTrainer.train`` chunks over a 4-shard server."""

    name = "ps_pipeline"
    why = (
        "every lookup goes PS gather -> LC cache -> host-backed bag -> PS "
        "apply on 4 shards: system/sharding/cache at their busiest, Eff-TT idle"
    )
    warmup_ops = 2
    full_ops = 24
    nominal_op_s = 1.0
    steps_per_op = 4
    root_self_metric = "system.pipeline_self_ms"
    #: Steps a SequentialPSTrainer twin must reproduce bit for bit;
    #: they are the warm-up ops, so every run checks them.
    twin_steps = 8

    @property
    def samples_per_op(self) -> int:
        return self.shape.batch * self.steps_per_op

    def _new_setup(self):
        return build_sharded_ps_trainer(
            self.config,
            num_shards=4,
            compression=LinkCompressionConfig(mode="none"),
            host_positions=range(self.config.num_tables),
            lr=LR,
            prefetch_depth=4,
            grad_queue_depth=2,
            use_cache=True,
        )

    def build(self) -> None:
        spec = criteo_tb_like(scale=self.shape.scale)
        self.log = SyntheticClickLog(
            spec, batch_size=self.shape.batch, seed=self.seed
        )
        self.config = DLRMConfig.from_dataset(
            spec,
            embedding_dim=self.shape.dim,
            backend=EmbeddingBackend.DENSE,
            tt_rank=self.shape.rank,
        )
        self.trainer = self._new_setup().trainer
        self.step_losses: Dict[int, float] = {}
        self._link_after: Dict[int, Dict[str, np.ndarray]] = {}

    def run_op(self, i: int, tracer: Tracer) -> None:
        start = i * self.steps_per_op
        result = self.trainer.train(self.log, self.steps_per_op, start=start)
        losses = list(result.losses)
        if self.fault == "nan_loss" and i == self.warmup_ops:
            losses[-1] = float("nan")
        for offset, loss in enumerate(losses):
            self.step_losses[start + offset] = loss
        self.signatures[i] = losses[-1]
        self.counts[("hits", i)] = result.cache_hits
        self.counts[("misses", i)] = result.cache_misses
        link = self.trainer.server.link_stats
        #: cumulative per-shard link bytes once op i is done
        self._link_after[i] = {
            name: getattr(link, name).copy()
            for name in ("pull_raw", "pull_wire", "push_raw", "push_wire")
        }

    def observe(self, i: int) -> None:
        for step in range(i * self.steps_per_op, (i + 1) * self.steps_per_op):
            self._count_rows(self.log.batch(step).sparse_indices)

    def verify(self, timed: Sequence[int]) -> Tuple[int, int]:
        losses = [
            self.step_losses[s]
            for i in timed
            for s in range(i * self.steps_per_op, (i + 1) * self.steps_per_op)
        ]
        first = self.log.batch(0)
        model, server = self.trainer.model, self.trainer.server
        for pos, server_idx in self.trainer.host_table_map.items():
            rows = server.gather(server_idx, first.sparse_indices[pos])
            model.embedding_bags[pos].load_rows(rows.unique_indices, rows.rows)
        after = model.loss_fn.forward(model.forward(first), first.labels)
        failed = _check_losses(self, losses, self.step_losses[0], after)
        setup = self._new_setup()
        twin = SequentialPSTrainer(
            setup.model, setup.server, setup.host_table_map, lr=LR
        )
        twin_losses = list(twin.train(self.log, self.twin_steps).losses)
        if self.fault == "twin_drift":
            twin_losses[-1] = np.nextafter(twin_losses[-1], 1.0)
        ours = [self.step_losses[s] for s in range(self.twin_steps)]
        if ours != twin_losses:
            self.problems.append(
                f"pipelined losses differ from the sequential twin on the "
                f"first {self.twin_steps} steps: {ours} vs {twin_losses}"
            )
        return len(losses), failed

    def install(self, tracer: Tracer) -> None:
        trainer = self.trainer
        _wrap_model(tracer, trainer.model, bag_steps=False)
        tracer.wrap(self.log, "batch", "data.batch")
        tracer.wrap(trainer.server, "gather", "sharding.gather")
        tracer.wrap(trainer.server, "apply_gradients", "sharding.apply")
        for cache in trainer.caches.values():
            for attr in ("synchronize", "put", "decrement"):
                tracer.wrap(cache, attr, "embeddings.cache")
        # train() builds its queues per call; reach them through the class.
        tracer.wrap(BoundedQueue, "put", "system.queue")
        tracer.wrap(BoundedQueue, "get", "system.queue")

    def layer_metrics(self, traced: Sequence[int]) -> Dict[str, float]:
        before, after = self._link_after[traced[0] - 1], self._link_after[traced[-1]]
        delta = {name: after[name] - before[name] for name in after}
        steps = len(traced) * self.steps_per_op
        wire = delta["pull_wire"] + delta["push_wire"]
        raw = delta["pull_raw"] + delta["push_raw"]
        hits = sum(self.counts[("hits", i)] for i in traced)
        misses = sum(self.counts[("misses", i)] for i in traced)
        c = self.counts
        return {
            "embeddings.unique_ratio": c["unique_rows"] / c["occurrences"],
            "embeddings.param_mb": self.trainer.server.nbytes() / 1e6,
            "embeddings.cache.hit_ratio": hits / (hits + misses),
            "models.final_loss": self.signatures[traced[-1]],
            "sharding.pull_mb_per_step": float(delta["pull_wire"].sum()) / steps / 1e6,
            "sharding.push_mb_per_step": float(delta["push_wire"].sum()) / steps / 1e6,
            "sharding.wire_ratio": float(raw.sum()) / float(wire.sum()),
            "sharding.shard_imbalance": float(wire.max()) / float(wire.mean()),
        }

    def ledger_end_to_end(self, timed: Sequence[int]) -> Dict[str, float]:
        return {"final_loss": self.signatures[timed[-1]]}


# ----------------------------------------------------------------------
# serving fleet
# ----------------------------------------------------------------------
class ServeFleet(Workload):
    """``ServingFleet.run`` over windows of an open-loop request stream.

    Open loop: Poisson arrivals at 8000 requests per second of SimClock
    time, Zipf row popularity.  Arrival times are simulated, so the
    generator is never late; ``fleet.run`` replays a window as fast as
    the code allows and that CPU time is what the op measures.
    """

    name = "serve_fleet"
    why = (
        "the Eff-TT tables read-only (tt_reconstruct + hot-row cache, "
        "micro-batches of ~17) behind batcher/router/event loop on 4 replicas"
    )
    warmup_ops = 2
    full_ops = 24
    nominal_op_s = 1.45
    root_self_metric = "serving.loop_ms_per_window"
    rate = 8000.0
    replicas = 4
    hot_coverage = 0.1

    @property
    def samples_per_op(self) -> int:
        return self.shape.window

    def _config(self) -> FleetConfig:
        return FleetConfig(
            num_replicas=self.replicas,
            batching=BatchingPolicy(max_batch_size=64, max_wait=2e-3),
        )

    def build(self) -> None:
        spec = criteo_kaggle_like(scale=self.shape.scale)
        self.config = DLRMConfig.from_dataset(
            spec,
            embedding_dim=self.shape.dim,
            backend=EmbeddingBackend.EFF_TT,
            tt_rank=self.shape.rank,
            bottom_mlp=(16,),
            top_mlp=(16,),
        )
        self.setup_ms: Dict[str, float] = {}
        model = DLRM(self.config, seed=MODEL_SEED)
        self.snapshot, self.setup_ms["models.snapshot_ms"] = _cpu_ms(
            lambda: ModelSnapshot.from_model(model, version=0)
        )
        generator = RequestGenerator(spec, rate=self.rate, seed=self.seed)
        requests, reqgen_ms = _cpu_ms(
            lambda: generator.generate(self.total_ops * self.shape.window)
        )
        self.setup_ms["data.reqgen_s"] = reqgen_ms / 1e3
        # Each fleet.run starts a fresh SimClock at 0, so a window's
        # arrivals are rebased to start where the previous one ended.
        self.windows = []
        base = 0.0
        for k in range(self.total_ops):
            window = requests[k * self.shape.window : (k + 1) * self.shape.window]
            self.windows.append(
                [
                    dataclasses.replace(r, arrival_time=r.arrival_time - base)
                    for r in window
                ]
            )
            base = window[-1].arrival_time
        self.hot_rows = {
            t: generator.hot_rows(t, self.hot_coverage)
            for t in range(spec.num_sparse)
        }
        self.fleet = ServingFleet(
            self.snapshot, hot_rows=self.hot_rows, config=self._config()
        )
        restored, self.setup_ms["models.materialize_ms"] = _cpu_ms(
            self.snapshot.materialize
        )
        #: A ServingModel the fleet never touched: the replay oracle.
        self.reference = ServingModel(restored, hot_rows=self.hot_rows)
        self.failed: Dict[int, int] = {}
        self.reports: Dict[int, object] = {}

    def twin(self) -> "Workload":
        return self  # fleet.run builds fresh replicas on every call

    def run_op(self, i: int, tracer: Tracer) -> None:
        outcome = self.fleet.run(self.windows[i])
        self._outcome = outcome
        self.reports[i] = outcome.report
        self.signatures[i] = math.fsum(r.prediction for r in outcome.results)

    def _check_accounting(self, outcome, offered: int, results) -> None:
        accounted = (
            len(results) + len(outcome.rejected_ids) + len(outcome.shed_ids)
        )
        if accounted != offered:
            self.problems.append(
                f"completed + rejected + shed = {accounted}, offered {offered}"
            )

    def check_op(self, i: int) -> None:
        outcome = self._outcome
        results = list(outcome.results)
        if self.fault == "dropped_request" and i == self.warmup_ops:
            results.pop()
        predictions = {r.request_id: r.prediction for r in results}
        if self.fault == "perturbed_prediction" and i == self.warmup_ops:
            victim = results[0].request_id
            predictions[victim] = np.nextafter(predictions[victim], 2.0)
        self._check_accounting(outcome, len(self.windows[i]), results)
        replayed = replay_batches(self.reference, outcome.served_batches)
        bad = {
            r.request_id for r in self.windows[i]
            if r.request_id not in predictions
        }
        bad.update(
            rid for rid, p in replayed.items() if predictions.get(rid) != p
        )
        self.failed[i] = len(bad)
        stats = self.counts
        stats[("redirects", i)] = len(outcome.redirects)
        stats[("lost", i)] = len(outcome.rejected_ids) + len(outcome.shed_ids)
        stats[("hot", i)] = sum(b.hot_lookups for b in outcome.served_batches)
        stats[("cold", i)] = sum(b.cold_lookups for b in outcome.served_batches)

    def observe(self, i: int) -> None:
        for served in self._outcome.served_batches:
            self._count_rows(served.batch.sparse_indices)

    def verify(self, timed: Sequence[int]) -> Tuple[int, int]:
        attempted = sum(len(self.windows[i]) for i in timed)
        return attempted, sum(self.failed[i] for i in timed)

    def install(self, tracer: Tracer) -> None:
        # Replicas are built inside fleet.run, so spans go on the classes.
        tracer.wrap(ModelSnapshot, "materialize", "models.materialize")
        tracer.wrap(ServingModel, "__init__", "embeddings.hotrow.build")
        tracer.wrap(ServingModel, "predict_proba", "serving.predict")

    def extra_traced(self, tracer: Tracer, i: int) -> Dict[str, float]:
        # Start-up: a run that serves one request is replica construction.
        probe = [dataclasses.replace(self.windows[0][0], arrival_time=1e-4)]
        startups = [_cpu_ms(lambda: self.fleet.run(probe))[1] for _ in range(3)]
        # One rolling swap to a v1 snapshot, mid-window, on its own fleet.
        window = self.windows[i]
        v1 = ModelSnapshot.from_model(
            DLRM(self.config, seed=MODEL_SEED + 2), version=1
        )
        fleet = ServingFleet(
            self.snapshot, hot_rows=self.hot_rows, config=self._config()
        )
        fleet.schedule_swap(window[len(window) // 2].arrival_time, v1)
        with tracer.op(i, "run.op_swap"):
            outcome = fleet.run(window)
        self._check_accounting(outcome, len(window), outcome.results)
        swap = outcome.swaps[0] if outcome.swaps else None
        if swap is None or not swap.completed:
            self.problems.append("rolling swap did not complete")
        # The window's last `replicas` model builds are the swap's installs.
        install_s = sum(
            sum(tracer.durations(name, op=i)[-self.replicas :])
            for name in ("models.materialize", "embeddings.hotrow.build")
        )
        return {
            "serving.startup_ms": float(np.median(startups)),
            "serving.swap_ms": install_s * 1e3,
            "serving.swap_dropped": float(
                sum(s.dropped_in_flight for s in outcome.swaps)
            ),
        }

    def layer_metrics(self, traced: Sequence[int]) -> Dict[str, float]:
        c = self.counts
        reports = [self.reports[i] for i in traced]
        batches = sum(r.num_batches for r in reports)
        hot = sum(c[("hot", i)] for i in traced)
        cold = sum(c[("cold", i)] for i in traced)
        last = reports[-1]
        out = {
            "embeddings.unique_ratio": c["unique_rows"] / c["occurrences"],
            "embeddings.param_mb": self.reference.model.embedding_nbytes() / 1e6,
            "embeddings.hotrow.hit_ratio": hot / (hot + cold) if hot + cold else 0.0,
            "serving.batches_per_window": batches / len(reports),
            "serving.mean_batch_size": sum(r.completed for r in reports) / batches,
            "serving.max_queue_depth": float(max(r.max_queue_depth for r in reports)),
            "serving.redirects": float(sum(c[("redirects", i)] for i in traced)),
            "serving.shed": float(sum(c[("lost", i)] for i in traced)),
            "serving.sim_p50_ms": last.latency_p50 * 1e3,
            "serving.sim_p99_ms": last.latency_p99 * 1e3,
            "serving.sim_rps": last.throughput_rps,
        }
        out.update(self.setup_ms)
        return out

    def ledger_end_to_end(self, timed: Sequence[int]) -> Dict[str, float]:
        return {"sim_p99_ms": self.reports[timed[-1]].latency_p99 * 1e3}


WORKLOADS = {
    cls.name: cls for cls in (TrainEffTT, TrainDenseMLP, PSPipeline, ServeFleet)
}
