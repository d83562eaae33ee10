"""Smoke test of the perf ledger (``PYTHONPATH=src pytest benchmarks/perf``).

Outside tier-1 ``testpaths`` on purpose: it spawns the runner a dozen
times.  ``run.py --smoke`` shrinks every shape (scale 3e-5, batch 128,
dim 8, 3 ops), so this checks plumbing, naming, determinism and that
the output checks can fail — not speed.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import perf_metrics  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ("train_efftt", "train_dense_mlp", "ps_pipeline", "serve_fleet")
TRAINING = WORKLOADS[:3]


def _ledger(path) -> dict:
    done = subprocess.run(
        RUN + ["--smoke", "--seed", "3", "--out", str(path)],
        cwd=REPO, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    return _ledger(out / "a.json"), _ledger(out / "b.json"), out


def test_benchmark_json_lists_the_catalogue():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in perf_metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in perf_metrics.PER_LAYER
    ]
    assert bench["paths"] == ["benchmarks/perf"]


def test_every_metric_is_emitted_for_every_workload(ledgers):
    first, _, _ = ledgers
    assert sorted(first["workloads"]) == sorted(WORKLOADS)
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for workload, entry in first["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, entry["problems"]
        assert set(entry["per_layer"]) == {m.name for m in perf_metrics.PER_LAYER}
        expected = {m.name for m in perf_metrics.END_TO_END} | {"fail_ratio"}
        expected.add("final_loss" if workload in TRAINING else "sim_p99_ms")
        assert set(entry["end_to_end"]) == expected
        for name in list(entry["per_layer"]) + list(entry["end_to_end"]):
            assert name_ok.match(name), name
        for metric in perf_metrics.END_TO_END:
            assert entry["end_to_end"][metric.name]["median"] > 0
        assert entry["end_to_end"]["fail_ratio"]["median"] == 0
    for key in ("git_sha", "git_dirty", "python", "numpy", "blas", "cpu_model",
                "nproc", "blas_threads", "seed", "host.gemm_gflops",
                "host.gather_gbps"):
        assert key in first["fingerprint"]


def test_exact_metrics_repeat_bit_for_bit(ledgers):
    first, second, _ = ledgers
    for workload in WORKLOADS:
        a, b = first["workloads"][workload], second["workloads"][workload]
        for name in perf_metrics.exact_names():
            assert a["per_layer"][name]["value"] == b["per_layer"][name]["value"], (
                workload, name)
        for name in ("final_loss", "sim_p99_ms"):
            if name in a["end_to_end"]:
                assert a["end_to_end"][name]["runs"] == b["end_to_end"][name]["runs"]
        assert a["per_layer"]["run.trace_loss_absdiff"]["value"] == 0.0


def test_spans_add_up(ledgers):
    """Per op, the self times of all spans sum to the op span's duration."""
    _, _, out = ledgers
    for workload in WORKLOADS:
        with open(out / f"a.spans.{workload}.json") as handle:
            dump = json.load(handle)
        assert dump["fields"] == list(("id", "parent", "name", "op",
                                       "wall_start", "wall_end", "cpu_s"))
        children = {}
        for sid, parent, _, _, _, _, cpu in dump["spans"]:
            children[parent] = children.get(parent, 0.0) + cpu
        roots = [s for s in dump["spans"] if s[1] == -1]
        assert len(roots) >= 3
        for root in roots:
            members = [s for s in dump["spans"] if s[3] == root[3]]
            self_sum = sum(s[6] - children.get(s[0], 0.0) for s in members)
            # the dump keeps nanoseconds, so allow one per span of rounding
            assert self_sum == pytest.approx(root[6], abs=1e-9 * len(members))
            assert all(s[4] <= s[5] for s in members)


@pytest.mark.parametrize(
    "workload,fault",
    [
        ("train_efftt", "nan_loss"),
        ("ps_pipeline", "twin_drift"),
        ("serve_fleet", "dropped_request"),
        ("serve_fleet", "perturbed_prediction"),
    ],
)
def test_output_checks_go_red_on_a_planted_fault(workload, fault):
    done = subprocess.run(
        RUN + ["--workload", workload, "--smoke", "--seed", "3", "--fault", fault],
        cwd=REPO, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


def _entry(runs, better="lower", bound=0.1):
    return {"unit": "ms", "better": better, "bound": bound, "runs": runs,
            **perf_metrics.quartiles(list(runs))}


def test_compare_verdicts():
    steady = _entry([100.0, 101.0, 99.0, 100.5, 99.5])
    assert compare.verdict("op_ms_p50", steady, steady, 0.1)[0] == "within bound"
    slower = _entry([150.0, 151.0, 149.0, 150.5, 149.5])
    assert compare.verdict("op_ms_p50", steady, slower, 0.1)[0] == "regressed"
    assert compare.verdict("op_ms_p50", slower, steady, 0.1)[0] == "improved"
    noisy = _entry([80.0, 120.0, 100.0, 90.0, 110.0])
    assert compare.verdict("op_ms_p50", noisy, noisy, 0.1)[0] == "unresolved"
    clean = _entry([0.0], better="lower", bound=0.0)
    failing = _entry([0.01], better="lower", bound=0.0)
    assert compare.verdict("fail_ratio", clean, failing, 0.0)[0] == "regressed"
    assert compare.verdict("fail_ratio", clean, clean, 0.0)[0] == "within bound"


def test_compare_exit_status(ledgers, tmp_path):
    first, _, out = ledgers
    assert compare.main([str(out / "a.json"), str(out / "a.json")]) == 0
    worse = copy.deepcopy(first)
    metric = worse["workloads"]["train_efftt"]["end_to_end"]["op_ms_p50"]
    metric["runs"] = [2.0 * x for x in metric["runs"]]
    metric.update(perf_metrics.quartiles(metric["runs"]))
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse))
    assert compare.main([str(out / "a.json"), str(path)]) == 1
