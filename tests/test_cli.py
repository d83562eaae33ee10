"""Smoke tests for the ``python -m repro`` CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main


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

    def test_quickcheck(self, capsys):
        assert main(["quickcheck", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "eff_tt" in out
        assert "serving" in out  # serving smoke rides along
        assert "numpy == instrumented" in out  # backend equivalence gate
        assert "numpy == sanitizer" in out  # numsan equivalence gate
        assert "0 trap(s)" in out
        assert "shape" in out  # static shapecheck gate
        assert "det" in out  # determinism-taint gate
        assert "FAILED" not in out

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

    def test_torch_backend_unavailable_message(self, capsys):
        from repro.backend import torch_available

        if torch_available():
            pytest.skip("torch is installed")
        assert main(["train", "--steps", "2", "--backend", "torch"]) == 2
        err = capsys.readouterr().err
        assert "backend 'torch' unavailable" in err
        assert "--backend numpy" in err

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

    def test_shapecheck_shipped_tree_clean(self, capsys):
        assert main(["shapecheck"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_shapecheck_flags_corpus(self, capsys):
        corpus = Path(__file__).resolve().parent / "analysis" / "corpus"
        assert main(["shapecheck", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert "SHP" in out

    def test_shapecheck_json_format(self, capsys):
        assert main(["shapecheck", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["files_scanned"] > 80

    def test_shapecheck_sarif_format(self, capsys):
        assert main(["shapecheck", "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        driver = payload["runs"][0]["tool"]["driver"]
        assert driver["name"] == "shapecheck"
        assert {r["id"] for r in driver["rules"]} >= {"SHP004", "SHP008"}

    def test_shapecheck_select_unknown_rule(self, capsys):
        assert main(["shapecheck", "--select", "bogus"]) == 2

    def test_shapecheck_missing_path_errors(self, capsys, tmp_path):
        assert main(["shapecheck", str(tmp_path / "nope")]) == 2

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
        assert {r["id"] for r in driver["rules"]} >= {"DET001", "DET006"}

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

    def test_analyze_shipped_tree_clean(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        for gate in ("lint", "shape", "det", "hazard"):
            assert gate in out

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
