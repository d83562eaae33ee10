"""Tests for the benchmark harness."""

import time

import numpy as np
import pytest

from repro.bench.harness import (
    format_series,
    format_table,
    measure_workload,
)
from repro.data.dataloader import SyntheticClickLog
from repro.data.datasets import criteo_kaggle_like
from repro.models.config import EmbeddingBackend
from repro.models.dlrm import build_embedding_bag


class TestMeasureWorkload:
    @pytest.fixture(scope="class")
    def profile(self):
        # Large enough that kernel compute dominates per-batch planning
        # overhead (at degenerate scales the reuse-plan bookkeeping is
        # the only cost and the comparison is noise).
        spec = criteo_kaggle_like(scale=5e-4)
        return measure_workload(
            spec, batch_size=1024, embedding_dim=16, tt_rank=16, repeats=2
        )

    def test_all_times_positive(self, profile):
        for attr in ("host_mlp_time", "host_dense_emb_time"):
            assert getattr(profile, attr) > 0, attr

    def test_efftt_faster_than_ttrec(self):
        """The paper's kernel claim, measured on the real substrate.

        ``measure_workload`` prices the TT kernels by FLOP count, so the
        wall-clock comparison is made here on the same workload: the
        compressed tables of one batch, forward, then backward + update.
        """
        spec = criteo_kaggle_like(scale=5e-4)
        batch_size, dim, rank = 1024, 16, 16
        batch = SyntheticClickLog(spec, batch_size=batch_size, seed=0).batch(0)
        threshold = max(1, int(1_000_000 * spec.scale))
        tt_ids = [
            i for i, t in enumerate(spec.tables) if t.num_rows > threshold
        ]
        grads = np.random.default_rng(1).standard_normal((batch_size, dim))

        def build(backend):
            return [
                build_embedding_bag(
                    backend, spec.tables[i].num_rows, dim, rank,
                    seed=(0, 3, i),
                )
                for i in tt_ids
            ]

        def step_times(bags):
            start = time.perf_counter()
            for bag, i in zip(bags, tt_ids):
                bag.forward(batch.sparse_indices[i], batch.sparse_offsets[i])
            mid = time.perf_counter()
            for bag in bags:
                bag.backward(grads)
                bag.step(0.01)
            return mid - start, time.perf_counter() - mid

        # Alternate the backends step by step, so a load spike on the
        # host lands on both alike; the first step of each is warmup.
        tt_bags = build(EmbeddingBackend.TT)
        eff_bags = build(EmbeddingBackend.EFF_TT)
        tt_steps, eff_steps = [], []
        for _ in range(8):
            tt_steps.append(step_times(tt_bags))
            eff_steps.append(step_times(eff_bags))
        tt_fwd, tt_bwd = np.median(tt_steps[1:], axis=0)
        eff_fwd, eff_bwd = np.median(eff_steps[1:], axis=0)
        assert eff_bwd < tt_bwd
        assert eff_fwd < tt_fwd

    def test_efftt_flops_below_ttrec(self, profile):
        """Reuse and aggregation cut the FLOPs the figures are priced on."""
        assert 0 < profile.efftt_gflops_fwd < profile.tt_gflops_fwd
        assert 0 < profile.efftt_gflops_bwd < profile.tt_gflops_bwd

    def test_metadata(self, profile):
        assert profile.name == "criteo-kaggle"
        assert profile.batch_size == 1024
        assert profile.indices_per_batch == 1024 * 26
        assert profile.tt_param_bytes > 0


class TestFormatters:
    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", 1.0], ["longer", 2.5]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_format_table_numbers(self):
        out = format_table(["x"], [[1234.5678], [0.000012], [0.5]])
        assert "1.235e+03" in out
        assert "1.200e-05" in out
        assert "0.5" in out

    def test_format_series(self):
        out = format_series(
            "Fig", "batch", [512, 1024], {"a": [1.0, 2.0], "b": [3.0, 4.0]}
        )
        lines = out.splitlines()
        assert lines[0] == "Fig"
        assert "batch" in lines[1]
        # title + header + separator + one row per x value
        assert len(lines) == 5

    def test_empty_rows(self):
        out = format_table(["h1", "h2"], [])
        assert "h1" in out
