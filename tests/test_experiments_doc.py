"""Committed artifacts that prose and ledgers quote must stay in step."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _fig11_results():
    """``(device, dataset, framework) -> speedup`` as printed in the results file."""
    lines = (REPO / "benchmarks/results/fig11_end_to_end.txt").read_text().splitlines()
    cells = [[c.strip() for c in line.split("|")] for line in lines[3:] if line.strip()]
    return {(dev, ds, fw): speedup for dev, ds, fw, _ms, speedup in cells}


def _fig11_doc_table():
    text = (REPO / "EXPERIMENTS.md").read_text()
    section = text.split("## Figure 11", 1)[1].split("\n## ", 1)[0]
    rows = [
        [c.strip().strip("*") for c in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|") and not set(line) <= set("|-: ")
    ]
    header, body = rows[0], rows[1:]
    assert header[:2] == ["device", "dataset"]
    return header[2:], body


def test_fig11_table_is_the_results_file():
    results = _fig11_results()
    frameworks, body = _fig11_doc_table()
    assert len(body) == len({key[:2] for key in results})  # every device x dataset
    for device, dataset, *speedups in body:
        for framework, quoted in zip(frameworks, speedups):
            assert quoted == results[(device, dataset, framework)], (
                f"EXPERIMENTS.md Figure 11 quotes {quoted} for {device}/{dataset}/"
                f"{framework}; benchmarks/results/fig11_end_to_end.txt has "
                f"{results[(device, dataset, framework)]}"
            )


def _results_rows(name):
    """Body rows of a ``format_series`` results file, cells stripped."""
    lines = (REPO / f"benchmarks/results/{name}.txt").read_text().splitlines()
    return [[c.strip() for c in line.split("|")] for line in lines[3:] if line.strip()]


def _doc_rows(heading):
    """Body rows of the first table under an EXPERIMENTS.md heading."""
    text = (REPO / "EXPERIMENTS.md").read_text()
    section = text.split(f"## {heading}", 1)[1].split("\n## ", 1)[0]
    return [
        [c.strip() for c in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|") and not set(line) <= set("|-: ")
    ][1:]


@pytest.mark.parametrize(
    "heading, name",
    [
        ("Figure 17 — Eff-TT lookup latency", "fig17_lookup"),
        ("Figure 18 — Eff-TT backward latency", "fig18_backward"),
    ],
    ids=["fig17", "fig18"],
)
def test_kernel_figure_tables_are_the_results_files(heading, name):
    assert _doc_rows(heading) == _results_rows(name), (
        f"EXPERIMENTS.md '{heading}' differs from benchmarks/results/{name}.txt"
    )


def test_serving_slo_tables_are_the_results_files():
    """Both SLO sweeps run on SimClock, so a rebuild prints the committed text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    rebuilt = subprocess.run(
        [sys.executable, "benchmarks/bench_serving_slo.py"],
        cwd=REPO, env=env, capture_output=True, text=True, check=True,
    ).stdout
    committed = "".join(
        (REPO / f"benchmarks/results/{name}.txt").read_text()
        for name in ("serving_slo", "fleet_slo")
    )
    assert rebuilt == committed, (
        "benchmarks/results/serving_slo.txt + fleet_slo.txt differ from "
        "`python benchmarks/bench_serving_slo.py`; regenerate them"
    )


LEDGERS = sorted(REPO.glob("BENCH_*.json"))


def test_a_ledger_is_committed_for_this_round():
    assert LEDGERS, "ROADMAP standing rule: every PR commits BENCH_<pr>.json"


@pytest.mark.parametrize("path", LEDGERS, ids=lambda p: p.name)
def test_ledger_is_complete(path):
    """Four workloads x four end-to-end metrics, and where it was measured."""
    assert re.fullmatch(r"BENCH_\d+\.json", path.name)
    ledger = json.loads(path.read_text())
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    fingerprint = ledger["fingerprint"]
    for key in ("git_sha", "python", "numpy", "blas", "cpu_model", "nproc"):
        assert fingerprint.get(key) not in (None, ""), key
    assert fingerprint["host.gemm_gflops"] > 0
    assert fingerprint["host.gather_gbps"] > 0
    for workload in (w["name"] for w in declared["workloads"]):
        entry = ledger["workloads"][workload]
        assert entry["correct"] and entry["failed"] == 0, workload
        for metric in (m["name"] for m in declared["end_to_end"]):
            stats = entry["end_to_end"][metric]
            assert stats["median"] > 0 and len(stats["runs"]) >= 3, (workload, metric)
