#!/usr/bin/env python3
"""Compare two perf ledgers: ``compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change.  For every
workload and end-to-end metric it prints both medians, the change as a
share of ``A``, the run-to-run spread, the bound, and a verdict:

``improved``
    better than ``A`` by more than the bound;
``within bound``
    no worse than ``A`` by more than the bound;
``regressed``
    worse than ``A`` by more than the bound (``fail_ratio``: any rise);
``unresolved``
    the spread between runs of one ledger (interquartile range over the
    median) is wider than the bound, so the medians cannot be told
    apart — unless every run of one side beats every run of the other.

Bounds come from ``BENCHMARK.json`` where it lists the metric and from
the ledger itself otherwise (``final_loss``, ``sim_p99_ms``).  Exit
status 1 when anything regressed, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def _spread(entry: Dict[str, Any]) -> float:
    median = entry["median"]
    return abs(entry["q3"] - entry["q1"]) / abs(median) if median else 0.0


def verdict(
    name: str, base: Dict[str, Any], new: Dict[str, Any], bound: float
) -> Tuple[str, float, float]:
    """Return ``(verdict, worse_by, spread)``; ``worse_by`` is a share of base."""
    a, b = base["median"], new["median"]
    lower_is_better = base["better"] == "lower"
    if name == "fail_ratio":
        return ("regressed" if b > a else "within bound"), b - a, 0.0
    worse_by = ((b - a) if lower_is_better else (a - b)) / abs(a) if a else 0.0
    spread = max(_spread(base), _spread(new))
    if spread > bound:
        runs_a, runs_b = base["runs"], new["runs"]
        if lower_is_better:
            runs_a, runs_b = [-x for x in runs_a], [-x for x in runs_b]
        if min(runs_b) > max(runs_a):
            return "improved", worse_by, spread
        if max(runs_b) < min(runs_a):
            return "regressed", worse_by, spread
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "regressed", worse_by, spread
    if worse_by < -bound:
        return "improved", worse_by, spread
    return "within bound", worse_by, spread


def compare(
    base: Dict[str, Any], new: Dict[str, Any], bounds: Dict[str, float]
) -> Tuple[List[str], bool]:
    """Render one line per (workload, metric); report whether any regressed."""
    lines: List[str] = []
    regressed = False
    for workload, entry_a in base["workloads"].items():
        entry_b = new["workloads"].get(workload)
        if entry_b is None:
            lines.append(f"{workload}: missing from the second ledger")
            regressed = True
            continue
        for name, metric_a in entry_a["end_to_end"].items():
            metric_b = entry_b["end_to_end"].get(name)
            if metric_b is None:
                lines.append(f"{workload} {name}: missing from the second ledger")
                regressed = True
                continue
            bound = bounds.get(name, metric_a["bound"])
            outcome, worse_by, spread = verdict(name, metric_a, metric_b, bound)
            regressed = regressed or outcome == "regressed"
            unit = metric_a["unit"]
            lines.append(
                f"{workload:<16} {name:<14} "
                f"A={metric_a['median']:.6g}{unit} (n={len(metric_a['runs'])}) "
                f"B={metric_b['median']:.6g}{unit} (n={len(metric_b['runs'])}) "
                f"worse by {worse_by * 100:+.2f}% of A  "
                f"spread {spread * 100:.2f}%  bound {bound * 100:.0f}%  "
                f"-> {outcome}"
            )
    return lines, regressed


def load_bounds(path: str) -> Dict[str, float]:
    with open(path) as handle:
        return {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="ledger of the parent commit (A)")
    parser.add_argument("new", help="ledger of the change (B)")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json holding the bounds")
    args = parser.parse_args(argv)
    try:
        with open(args.base) as handle:
            base = json.load(handle)
        with open(args.new) as handle:
            new = json.load(handle)
        bounds = load_bounds(args.benchmark)
    except (OSError, ValueError, KeyError) as error:
        sys.stderr.write(f"compare: {error}\n")
        return 2
    for side, ledger in (("A", base), ("B", new)):
        mark = ledger["fingerprint"]
        print(
            f"{side}: {mark['git_sha'][:12]}{' (dirty)' if mark['git_dirty'] else ''} "
            f"seed {mark['seed']}  gemm {mark['host.gemm_gflops']:.1f} GFLOP/s  "
            f"gather {mark['host.gather_gbps']:.2f} GB/s"
        )
    lines, regressed = compare(base, new, bounds)
    print("\n".join(lines))
    print("RESULT: regressed" if regressed else "RESULT: no regression")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
