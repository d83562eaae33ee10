"""Self-check: the shipped tree passes its own determinism analyzer.

detcheck is one-sided (findings only on *provable* determinism
violations), so the repo must ship with zero findings — any hit here
is either a real reproducibility bug or an analyzer false positive,
and both block the tree.  The five true positives the first run found
(unsorted checkpoint/CRC iteration, naive float totals, unsorted
residual export) were fixed in the same change that added the checker;
``tests/sharding/test_order_invariance.py`` pins those fixes.
"""

from pathlib import Path

import repro
from repro.analysis.detcheck import detcheck_paths

PKG = Path(repro.__file__).resolve().parent


def test_shipped_tree_detchecks_clean():
    result = detcheck_paths([PKG])
    formatted = "\n".join(f.format() for f in result.findings)
    assert result.findings == [], f"detcheck findings:\n{formatted}"
    assert result.files_scanned > 80


def test_self_check_covers_the_state_plumbing():
    # The analyzer must actually visit the checkpoint/sharding state
    # paths the DET rules exist for, not skip them.
    targets = [
        PKG / "resilience" / "checkpoint.py",
        PKG / "models" / "serialization.py",
        PKG / "sharding" / "server.py",
        PKG / "embeddings" / "planner.py",
        PKG / "frameworks" / "base.py",
    ]
    result = detcheck_paths(targets)
    assert result.files_scanned == len(targets)
    assert result.findings == []
