"""Figures 11, 12, 13, 16 and Table I composed from pinned inputs.

The framework models are arithmetic over one ``HostProfile`` and the
``WorkloadProfile``s they are given; with both fixed, every figure's
text is fixed.  ``fixtures/figures_parent.txt`` holds that text as the
bench modules' ``build_*`` functions composed it before the models lost
their scaled-host-time pricing of TT kernels (that commit's
``WorkloadProfile`` also required four host TT-kernel times, which were
passed as 1.0 there and which no figure read).  It is never
regenerated: a change to how a figure is composed must keep it.

Run as a script this prints the text.  The bench modules import
``benchmarks/conftest.py``, so the test runs the script in a subprocess.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).parent / "fixtures" / "figures_parent.txt"

# Profiles as ``measure_workload`` (batch 2048, dim 32, rank 32) and
# ``bench_fig13_large_table._measure_profile`` recorded them on one
# host, rounded.
PROFILES = {
    "avazu": dict(
        batch_size=2048, embedding_dim=32, indices_per_batch=40960,
        table_rows=(3, 3, 9, 15, 3, 17, 3, 3, 5372, 13458, 16, 3, 3, 5,
                    3, 3, 3, 3, 3, 3),
        host_mlp_time=0.0466, host_dense_emb_time=0.0113,
        tt_kernel_launches=16, efftt_kernel_launches=6,
        tt_param_bytes=733312,
        tt_gflops_fwd=0.1426, tt_gflops_bwd=0.1607,
        efftt_gflops_fwd=0.0260, efftt_gflops_bwd=0.0558,
    ),
    "criteo-kaggle": dict(
        batch_size=2048, embedding_dim=32, indices_per_batch=53248,
        table_rows=(3, 3, 20262, 4405, 3, 3, 25, 3, 3, 186, 11, 16703, 6,
                    3, 29, 10922, 3, 11, 4, 3, 14093, 3, 3, 572, 3, 285),
        host_mlp_time=0.0658, host_dense_emb_time=0.0116,
        tt_kernel_launches=40, efftt_kernel_launches=15,
        tt_param_bytes=2140032,
        tt_gflops_fwd=0.3565, tt_gflops_bwd=0.4017,
        efftt_gflops_fwd=0.0742, efftt_gflops_bwd=0.1439,
    ),
    "criteo-tb": dict(
        batch_size=2048, embedding_dim=32, indices_per_batch=53248,
        table_rows=(98241, 96, 42, 18, 49, 3, 17, 3, 3, 94912, 7275, 993,
                    3, 5, 29, 3, 3, 3, 3, 98476, 63158, 97700, 1443, 31,
                    3, 3),
        host_mlp_time=0.0571, host_dense_emb_time=0.0147,
        tt_kernel_launches=48, efftt_kernel_launches=18,
        tt_param_bytes=4572544,
        tt_gflops_fwd=0.4278, tt_gflops_bwd=0.4821,
        efftt_gflops_fwd=0.1687, efftt_gflops_bwd=0.2533,
    ),
}
LARGE_TABLE = dict(
    batch_size=4096, embedding_dim=128, indices_per_batch=4096,
    table_rows=(40_000_000,),
    host_mlp_time=1e-9, host_dense_emb_time=0.0070,
    tt_kernel_launches=8, efftt_kernel_launches=3,
    tt_param_bytes=23463936,
    tt_gflops_fwd=1.1409, tt_gflops_bwd=1.2803,
    efftt_gflops_fwd=0.6886, efftt_gflops_bwd=0.7770,
)


def compose() -> str:
    """Every composed figure's text, from the pinned host and profiles."""
    import bench_fig11_end_to_end
    import bench_fig12_multi_gpu
    import bench_fig13_large_table
    import bench_fig16_pipeline
    import bench_table1_framework_matrix

    from repro.frameworks import WorkloadProfile
    from repro.system.devices import HostProfile, KernelCostModel

    cost = KernelCostModel(HostProfile(gemm_gflops=60.0, gather_gbps=8.0))
    profiles = {
        name: WorkloadProfile(name=name, **fields)
        for name, fields in PROFILES.items()
    }
    large = WorkloadProfile(name="40M-table", **LARGE_TABLE)
    return "\n\n".join([
        bench_fig11_end_to_end.build_fig11(cost, profiles),
        bench_fig12_multi_gpu.build_fig12(cost, profiles),
        bench_fig13_large_table.build_fig13(cost, large),
        bench_fig16_pipeline.build_fig16(cost, profiles),
        bench_table1_framework_matrix.build_table1(cost),
    ]) + "\n"


def test_composed_figures_match_the_parent_fixture():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    rebuilt = subprocess.run(
        [sys.executable, str(Path(__file__))],
        cwd=REPO, env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert rebuilt == FIXTURE.read_text()


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "benchmarks"))
    sys.stdout.write(compose())
