"""Figure 16: pipeline training system throughput.

Setup (paper §VI-C): the largest embedding table is Eff-TT-compressed
into GPU HBM; the remaining tables stay in host memory behind the
parameter server.  Compares DLRM (everything host-resident, no
overlap), EL-Rec (Sequential) (prefetch queue length 1), and EL-Rec
(Pipeline).

Also exercises the *functional* pipelined trainer to confirm the
embedding cache keeps pipelined training numerically identical to
sequential training while the timing model credits the overlap.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import emit, run_once
from repro.bench.harness import format_table
from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.frameworks import DlrmPS, ELRec
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, build_embedding_bag
from repro.system.devices import TESLA_V100
from repro.sharding import ShardedParameterServer
from repro.system.parameter_server import HostBackedEmbeddingBag
from repro.system.pipeline import PipelinedPSTrainer, SequentialPSTrainer

HOST_FRACTION = 0.6  # share of embedding work served from host memory
PREFETCH_DEPTH = 4


def build_fig16(cost_model, workload_profiles) -> str:
    rows = []
    for name, profile in workload_profiles.items():
        dlrm = DlrmPS(cost_model).iteration_time(profile, TESLA_V100)
        el = ELRec(cost_model)
        seq = el.pipelined_iteration_time(
            profile, TESLA_V100, HOST_FRACTION, pipelined=False
        )
        pipe = el.pipelined_iteration_time(
            profile, TESLA_V100, HOST_FRACTION, prefetch_depth=PREFETCH_DEPTH
        )
        base = dlrm.total
        for label, bd in (
            ("DLRM", dlrm),
            ("EL-Rec (Sequential)", seq),
            ("EL-Rec (Pipeline)", pipe),
        ):
            rows.append(
                [
                    name,
                    label,
                    round(bd.total * 1e3, 3),
                    round(base / bd.total, 2),
                ]
            )
    return format_table(
        ["dataset", "configuration", "iter ms", "speedup vs DLRM"],
        rows,
        title=(
            "Figure 16: pipeline training throughput (largest table "
            "Eff-TT on GPU, remaining tables in host memory)"
        ),
    )


def _functional_setup():
    spec = criteo_kaggle_like(scale=2e-5)
    log = SyntheticClickLog(spec, batch_size=64, seed=0)
    cfg = DLRMConfig.from_dataset(
        spec, embedding_dim=8, backend=EmbeddingBackend.EFF_TT, tt_rank=8,
        tt_threshold_rows=100, bottom_mlp=(16,), top_mlp=(16,),
    )
    rows = list(cfg.table_rows)
    # largest table on GPU as Eff-TT, the next two largest on the host
    order = sorted(range(len(rows)), key=lambda t: -rows[t])
    host_positions = order[1:3]
    host_map = {p: i for i, p in enumerate(host_positions)}
    bags = []
    for t, r in enumerate(rows):
        if t in host_map:
            bags.append(HostBackedEmbeddingBag(r, cfg.embedding_dim))
        else:
            bags.append(
                build_embedding_bag(
                    cfg.backend_for_table(t), r, cfg.embedding_dim,
                    cfg.tt_rank, seed=(300 + t),
                )
            )
    model = DLRM(cfg, seed=5, embedding_bags=bags)
    server = ShardedParameterServer(
        [rows[p] for p in host_positions], cfg.embedding_dim, lr=0.05, seed=1
    )
    return log, model, server, host_map


def test_fig16_functional_pipeline_step(benchmark):
    log, model, server, host_map = _functional_setup()
    trainer = PipelinedPSTrainer(
        model, server, host_map, lr=0.05,
        prefetch_depth=PREFETCH_DEPTH, grad_queue_depth=2, use_cache=True,
    )
    state = {"i": 0}

    def train_window():
        result = trainer.train(log, 4, start=state["i"])
        state["i"] += 4
        return result

    result = benchmark(train_window)
    assert len(result.losses) == 4


def test_fig16_shapes(benchmark, cost_model, workload_profiles):
    emit("fig16_pipeline", run_once(benchmark, lambda: build_fig16(cost_model, workload_profiles)))
    for name, profile in workload_profiles.items():
        el = ELRec(cost_model)
        dlrm = DlrmPS(cost_model).iteration_time(profile, TESLA_V100)
        seq = el.pipelined_iteration_time(
            profile, TESLA_V100, HOST_FRACTION, pipelined=False
        )
        pipe = el.pipelined_iteration_time(
            profile, TESLA_V100, HOST_FRACTION, prefetch_depth=PREFETCH_DEPTH
        )
        # paper: pipeline ~2.44x over DLRM, ~1.3x over sequential
        assert pipe.total < seq.total, name
        assert pipe.total < dlrm.total, name


def test_fig16_cache_preserves_numerics(benchmark):
    run_once(benchmark, lambda: None)
    log, model, server, host_map = _functional_setup()
    pipe = PipelinedPSTrainer(
        model, server, host_map, lr=0.05,
        prefetch_depth=PREFETCH_DEPTH, grad_queue_depth=2, use_cache=True,
    )
    r_pipe = pipe.train(log, 12)

    log2, model2, server2, host_map2 = _functional_setup()
    seq = SequentialPSTrainer(model2, server2, host_map2, lr=0.05)
    r_seq = seq.train(log2, 12)
    np.testing.assert_array_equal(r_pipe.losses, r_seq.losses)
    for a, b in zip(server.tables, server2.tables):
        np.testing.assert_array_equal(a, b)


if __name__ == "__main__":
    from repro.bench.harness import measure_workload
    from repro.data.datasets import avazu_like, criteo_tb_like
    from repro.system.devices import KernelCostModel

    profiles = {
        spec.name: measure_workload(spec, batch_size=2048, embedding_dim=32,
                                    tt_rank=32)
        for spec in (
            avazu_like(scale=2e-3),
            criteo_kaggle_like(scale=2e-3),
            criteo_tb_like(scale=2e-3),
        )
    }
    print(build_fig16(KernelCostModel(), profiles))
