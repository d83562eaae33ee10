"""Strict-mode typecheck gate for the annotated modules.

:data:`MYPY_STRICT_MODULES` names the modules held to ``mypy --strict``;
``pyproject.toml``'s strict override must name the same set.  The mypy
run itself is skipped when mypy is not installed — the container image
for CI may not ship it; the annotations themselves are still exercised
at runtime by the rest of the suite.
"""

import importlib.util
import subprocess
import sys
import tomllib
from pathlib import Path
from typing import List

import pytest

import repro

REPO_ROOT = Path(repro.__file__).resolve().parents[2]

# In the form pyproject.toml's [[tool.mypy.overrides]] spells them.
MYPY_STRICT_MODULES = (
    "repro.system.queues",
    "repro.embeddings.cache",
    "repro.embeddings.protocol",
    "repro.embeddings.base",
    "repro.embeddings.registry",
    "repro.embeddings.dense",
    "repro.embeddings.tt_embedding",
    "repro.embeddings.eff_tt_embedding",
    "repro.embeddings.hash_embedding",
    "repro.embeddings.robe_embedding",
    "repro.embeddings.pq_embedding",
    "repro.embeddings.planner",
    "repro.utils.factorize",
    "repro.analysis.*",
    "repro.backend.protocol",
    "repro.backend.plan_cache",
    "repro.backend.numpy_backend",
    "repro.backend.interposer",
    "repro.backend.counter",
    "repro.backend.numsan",
    "repro.sharding.*",
    "repro.serving.*",
    "repro.resilience.checkpoint",
    "repro.resilience.circuit",
    "repro.resilience.degradation",
)


def mypy_strict_targets() -> List[str]:
    """Filesystem paths of :data:`MYPY_STRICT_MODULES` (``pkg.*`` = the directory)."""
    src = REPO_ROOT / "src"
    return [
        str(src.joinpath(*module[:-2].split(".")))
        if module.endswith(".*")
        else str(src.joinpath(*module.split(".")).with_suffix(".py"))
        for module in MYPY_STRICT_MODULES
    ]


def test_strict_list_matches_pyproject_overrides():
    config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text("utf-8"))
    (override,) = [
        entry for entry in config["tool"]["mypy"]["overrides"] if entry.get("strict")
    ]
    assert sorted(override["module"]) == sorted(MYPY_STRICT_MODULES)
    assert len(set(MYPY_STRICT_MODULES)) == len(MYPY_STRICT_MODULES)


def test_strict_targets_exist_and_cover_the_interposer():
    targets = [Path(t) for t in mypy_strict_targets()]
    assert all(t.exists() for t in targets), [t for t in targets if not t.exists()]
    names = {t.name for t in targets}
    assert {"interposer.py", "counter.py", "numsan.py", "analysis"} <= names


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None, reason="mypy not installed"
)
def test_strict_modules_typecheck():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", *mypy_strict_targets()],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stdout
