"""Smoke tests for the ``python -m repro`` CLI."""

import json
import sys
from pathlib import Path

import pytest

from repro import checks, cli
from repro.cli import main


def _stub_registry(monkeypatch, *stubs):
    """Replace the gate registry by ``stubs``; returns the steps it was asked for."""
    asked = []

    def registry(steps):
        asked.append(steps)
        return {stub.name: (lambda stub=stub: stub) for stub in stubs}

    monkeypatch.setattr(checks, "registry", registry)
    return asked


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "host calibration" in out
        assert "V100" in out and "T4" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "criteo-tb" in out
        assert "45,840,617" in out  # Criteo Kaggle samples

    def test_quickcheck(self, capsys, monkeypatch):
        # The real gates run once each in tests/test_checks.py; this
        # drives the loop over stand-ins.
        asked = _stub_registry(
            monkeypatch,
            checks.Check("first", True, "one"),
            checks.Check("second", True, "two"),
        )
        assert main(["quickcheck", "--steps", "5"]) == 0
        assert asked == [5]
        assert capsys.readouterr().out == (
            "first    one  [ok]\n"
            "second   two  [ok]\n"
        )

    def test_quickcheck_runs_every_gate_and_fails_on_a_red_one(
        self, capsys, monkeypatch
    ):
        _stub_registry(
            monkeypatch,
            checks.Check("red", False, "summary\n  why it failed"),
            checks.Check("green", True, "after"),
        )
        assert main(["quickcheck"]) == 1
        assert capsys.readouterr().out == (
            "red      summary  [FAILED]\n"
            "  why it failed\n"
            "green    after  [ok]\n"
        )

    def test_train(self, capsys):
        assert main(["train", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "numpy backend" in out
        assert "plan cache" in out

    def test_train_instrumented_prints_zone_table(self, capsys):
        assert main(
            ["train", "--steps", "3", "--backend", "instrumented"]
        ) == 0
        out = capsys.readouterr().out
        assert "efftt_forward" in out
        assert "fused_update" in out

    def test_train_dense_embedding_backend(self, capsys):
        assert main(
            ["train", "--steps", "3", "--embedding-backend", "dense"]
        ) == 0

    def test_train_sharded(self, capsys):
        assert main(["train", "--steps", "6", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "placement plan" in out
        assert "2-shard PS" in out
        assert "PS links:" in out
        assert "exactly-once:" in out

    def test_train_sharded_loss_is_shard_count_invariant(self, capsys):
        assert main(["train", "--steps", "6", "--shards", "1"]) == 0
        one = capsys.readouterr().out
        assert main(["train", "--steps", "6", "--shards", "4"]) == 0
        four = capsys.readouterr().out

        def final_loss(out):
            line = next(ln for ln in out.splitlines() if "loss" in ln)
            return line.split("loss", 1)[1]

        assert final_loss(one) == final_loss(four)

    def test_train_sharded_compressed(self, capsys):
        assert main(
            [
                "train", "--steps", "6", "--shards", "2",
                "--compress", "both", "--topk-fraction", "0.25",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "compression 'both'" in out
        # Compressed links must report real savings (ratio > 1).
        ratio = float(out.split("ratio ", 1)[1].split("x")[0])
        assert ratio > 1.0

    def test_chaos_sharded(self, capsys):
        rc = main([
            "chaos", "--plan", "none", "--shards", "2",
            "--batches", "8", "--checkpoint-interval", "4",
            "--requests", "200",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out

    def test_chaos_rejects_zero_shards(self, capsys):
        assert main(["chaos", "--plan", "none", "--shards", "0"]) == 2
        assert "--shards must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hazards", "--batches", "0"], "--batches must be >= 1, got 0"),
            (["hazards", "--batches", "-3"], "--batches must be >= 1, got -3"),
            (["hazards", "--inject", "--batches", "0"],
             "--batches must be >= 1, got 0"),
            (["hazards", "--prefetch-depth", "0"],
             "--prefetch-depth must be >= 1, got 0"),
            (["hazards", "--grad-queue-depth", "0"],
             "--grad-queue-depth must be >= 1, got 0"),
            (["chaos", "--batches", "0"], "--batches must be >= 1, got 0"),
            (["chaos", "--checkpoint-interval", "0"],
             "--checkpoint-interval must be >= 1, got 0"),
            (["chaos", "--plan", "random", "--batches", "1"],
             "--plan random needs --batches >= 2, got 1"),
        ],
    )
    def test_unrunnable_hazards_and_chaos_spans_are_usage_errors(
        self, capsys, argv, message
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--requests", "0"], "--requests must be >= 1, got 0"),
            (["serve", "--requests", "-5"], "--requests must be >= 1, got -5"),
            (["serve", "--rate", "0"], "--rate must be > 0, got 0"),
            (["serve", "--replicas", "0"], "--replicas must be >= 1, got 0"),
            (["serve", "--workers", "0"], "--workers must be >= 1, got 0"),
            (["serve", "--max-batch-size", "0"],
             "--max-batch-size must be >= 1, got 0"),
            (["serve", "--max-wait", "-1"], "--max-wait must be >= 0, got -1"),
            (["serve", "--scale", "0"], "--scale must be > 0, got 0"),
            (["serve", "--train-steps", "-1"], "--train-steps must be >= 0, got -1"),
            (["bench", "--requests", "0"], "--requests must be >= 1, got 0"),
            (["chaos", "--plan", "fleet-smoke", "--requests", "0"],
             "--requests must be >= 1, got 0"),
            (["chaos", "--plan", "serve-degrade", "--requests", "0"],
             "--requests must be >= 1, got 0"),
            (["chaos", "--plan", "fleet-smoke", "--replicas", "0"],
             "--replicas must be >= 1, got 0"),
        ],
    )
    def test_unrunnable_serving_values_are_usage_errors(
        self, capsys, argv, message
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""

    def test_run_serving_rejects_an_empty_stream(self):
        from repro.data.datasets import criteo_kaggle_like
        from repro.models.config import EmbeddingBackend
        from repro.models.dlrm import DLRM

        spec = criteo_kaggle_like(scale=3e-5)
        model = DLRM(checks.small_config(spec, EmbeddingBackend.EFF_TT), seed=0)
        with pytest.raises(ValueError, match="num_requests must be >= 1, got 0"):
            checks.run_serving(spec, model, num_requests=0, seed=0, train_steps=2)

    def test_bench_instrumented(self, capsys):
        assert main(
            [
                "bench", "--steps", "2", "--requests", "40",
                "--backend", "instrumented",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "zone" in out and "gflops" in out
        assert "serving_lookup" in out
        assert "plan cache" in out

    def test_bench_numpy_suggests_instrumented(self, capsys):
        assert main(["bench", "--steps", "2", "--requests", "40"]) == 0
        out = capsys.readouterr().out
        assert "--backend instrumented" in out

    @pytest.mark.parametrize("command", ["train", "bench", "serve"])
    def test_compress_strategy_requires_a_budget(self, capsys, command):
        assert main([command, "--compress-strategy", "hash"]) == 2
        err = capsys.readouterr().err
        assert "--compress-strategy requires --memory-budget-mb" in err

    @pytest.mark.parametrize(
        "flags",
        [["--compress", "both"], ["--topk-fraction", "0.25"],
         ["--device-budget-mb", "4"]],
    )
    def test_sharded_only_train_flags_require_shards(self, capsys, flags):
        assert main(["train", "--steps", "2", *flags]) == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "--shards" in err

    def test_serve_max_replicas_requires_autoscale(self, capsys):
        assert main(["serve", "--max-replicas", "4"]) == 2
        err = capsys.readouterr().err
        assert "--max-replicas only takes effect with --autoscale" in err

    @pytest.mark.parametrize("coverage", ["1.5", "-0.1"])
    def test_serve_rejects_hot_coverage_outside_unit_interval(
        self, capsys, coverage
    ):
        assert main(["serve", "--hot-coverage", coverage]) == 2
        err = capsys.readouterr().err
        assert f"--hot-coverage must be in [0, 1], got {coverage}" in err

    def test_sharded_train_rejects_per_table_strategies(self, capsys):
        assert main(
            ["train", "--shards", "2", "--compress-strategy", "auto"]
        ) == 2
        assert "pick hash, robe, or pq" in capsys.readouterr().err

    def test_compression_table(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))
        assert main(["compression"]) == 0
        assert "Table III" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["compression", "figures"])
    def test_bench_commands_without_the_repository(
        self, capsys, monkeypatch, tmp_path, command
    ):
        monkeypatch.setattr(cli, "_BENCH_DIR", tmp_path / "benchmarks")
        assert main([command]) == 1
        assert "benchmarks/ directory not found" in capsys.readouterr().err

    def test_serve_instrumented_backend(self, capsys):
        assert main(
            [
                "serve", "--requests", "60", "--train-steps", "0",
                "--backend", "instrumented",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "serving_lookup" in out

    def test_serve(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            [
                "serve", "--requests", "120", "--train-steps", "3",
                "--trace", str(trace),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Serving SLO report" in out
        assert "latency_p99_ms" in out
        assert "hot swaps at" in out
        assert trace.exists()

    def test_serve_replicas_honours_every_serving_flag(self, capsys, tmp_path):
        # One serving path: --replicas must not drop the compression
        # plan, the worker depth, the trace, or the backend report.
        import json

        trace = tmp_path / "trace.json"
        common = [
            "serve", "--requests", "200", "--train-steps", "3",
            "--replicas", "2", "--compress-strategy", "hash",
            "--memory-budget-mb", "0.05",
        ]
        assert main(
            common + [
                "--workers", "2", "--trace", str(trace),
                "--backend", "instrumented",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "embeddings: 'hash' plan" in out
        assert "hash_lookup" in out  # backend report over the hash bags
        assert "replica 1:" in out
        events = json.loads(trace.read_text())["traceEvents"]
        assert f"wrote {len(events)} trace events to {trace}" in out
        assert any(e["ph"] == "X" for e in events)
        # both replicas installed the mid-stream snapshot
        assert sum(e["name"] == "hot swap" for e in events) == 2

        def p99_under_burst(workers):
            assert main(
                common + ["--rate", "60000", "--workers", workers]
            ) == 0
            out = capsys.readouterr().out
            (line,) = [
                ln for ln in out.splitlines() if "latency_p99_ms" in ln
            ]
            return float(line.split("|")[1])

        assert p99_under_burst("4") < p99_under_burst("1")

    def test_serve_without_swap(self, capsys):
        assert main(["serve", "--requests", "80", "--train-steps", "0"]) == 0
        out = capsys.readouterr().out
        assert "num_swaps" in out
        assert "hot swaps at" not in out

    def test_lint_shipped_tree_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_flags_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "nn" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nx = np.zeros((2, 2))\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "implicit-dtype" in out

    def test_lint_json_format(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert '"findings"' in out

    def test_lint_missing_path_errors(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "nope")]) == 2

    def test_lint_sarif_format(self, capsys):
        assert main(["lint", "--format", "sarif"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["tool"]["driver"]["name"] == "reprolint"

    def test_train_sanitizer_backend(self, capsys):
        assert main(["train", "--steps", "3", "--backend", "sanitizer"]) == 0
        out = capsys.readouterr().out
        assert "numsan: no traps" in out

    def test_hazards_clean(self, capsys):
        assert main(["hazards", "--batches", "6"]) == 0
        out = capsys.readouterr().out
        assert "RAW hazards     : 0" in out

    def test_hazards_inject(self, capsys):
        assert main(["hazards", "--inject", "--batches", "6"]) == 0
        out = capsys.readouterr().out
        assert "FAULT INJECTION" in out
        assert "detector caught the injected RAW conflict" in out

    def test_detcheck_shipped_tree_clean(self, capsys):
        assert main(["detcheck"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_detcheck_flags_corpus(self, capsys):
        corpus = (
            Path(__file__).resolve().parent / "analysis" / "corpus" / "det"
        )
        assert main(["detcheck", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert "DET" in out

    def test_detcheck_sarif_format(self, capsys):
        assert main(["detcheck", "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        driver = payload["runs"][0]["tool"]["driver"]
        assert driver["name"] == "detcheck"
        assert {r["id"] for r in driver["rules"]} >= {"DET001", "DET005"}

    def test_detcheck_select_unknown_rule(self, capsys):
        assert main(["detcheck", "--select", "bogus"]) == 2

    def test_detcheck_missing_path_errors(self, capsys, tmp_path):
        assert main(["detcheck", str(tmp_path / "nope")]) == 2

    def test_hazards_sarif_format(self, capsys):
        assert main(["hazards", "--batches", "6", "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        driver = payload["runs"][0]["tool"]["driver"]
        assert driver["name"] == "hazards"
        assert payload["runs"][0]["results"] == []

    def test_hazards_inject_sarif_reports_conflicts(self, capsys):
        assert (
            main(
                ["hazards", "--inject", "--batches", "6", "--format", "sarif"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        results = payload["runs"][0]["results"]
        assert results and all(
            r["ruleId"].startswith("HAZ") for r in results
        )

    @pytest.mark.parametrize("command", ["lint", "detcheck"])
    @pytest.mark.parametrize("case", ["select-bogus", "missing-path", "json", "sarif"])
    def test_analyzer_command_contract(self, capsys, tmp_path, command, case):
        argv = {
            "select-bogus": ["--select", "bogus"],
            "missing-path": [str(tmp_path / "nope")],
            "json": ["--format", "json"],
            "sarif": ["--format", "sarif"],
        }[case]
        assert main([command, *argv]) == (0 if case in ("json", "sarif") else 2)
        out = capsys.readouterr().out
        if case == "json":
            payload = json.loads(out)
            assert payload["findings"] == [] and payload["files_scanned"] > 80
        elif case == "sarif":
            driver = json.loads(out)["runs"][0]["tool"]["driver"]
            assert driver["name"] == {"lint": "reprolint"}.get(command, command)

    @pytest.mark.parametrize("retired", ["shapecheck", "perfcheck"])
    def test_retired_analyzer_commands_are_gone(self, retired):
        with pytest.raises(SystemExit):
            main([retired])

    def test_analyze_shipped_tree_clean(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        for gate in ("lint", "det", "hazard"):
            assert gate in out
        assert "shape" not in out and "perf" not in out

    def test_analyze_flags_bad_tree(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from typing import Dict\n"
            "\n"
            "def total(parts: Dict[str, float]) -> float:\n"
            "    out = 0.0\n"
            "    for name in parts:\n"
            "        out += parts[name]\n"
            "    return out\n"
        )
        assert main(["analyze", str(tmp_path)]) == 1

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])
