"""Writer of ``pipeline_pins.json``: what the pipelined PS trainer's two
harnesses produced before the trainer reported its own queue and cache
traffic.

Ran once at commit 9cc04cb, the parent of the change that deleted the
recording queue/cache subclasses and the faulty queue, against a
checkout of that commit:

    PYTHONPATH=<parent>/src python make_pipeline_pins.py pipeline_pins.json

Regenerated once since, when the fleet-wide serving slowdown site was
folded into a slowdown of replica 0: the smoke plan's description line
``slowdown  @ serve      ...`` became ``slowdown  @ replica[0] ...``
and nothing else moved.

It pins two things:

* the hazard detector's event trace for ``run_hazard_experiment`` with
  and without the injected fault, and with both queues one deep (the
  life cycle short enough that the cache evicts): the event count and
  a sha256 over ``repr`` of the list of ``(time, kind value, stage,
  table, row, batch)`` tuples, in recorded order;
* the ``ChaosOutcome.format()`` text of the ``none``, ``smoke``,
  ``stage-sweep`` and ``torn-checkpoint`` plans and of
  ``FaultPlan.random`` seeds 0-2 (3 faults over the 18-step harness,
  as ``repro chaos --plan random`` draws them).

``tests/system/test_pipeline_pins.py`` recomputes both and compares.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from typing import Dict, List

CHAOS_PLANS = ("none", "smoke", "stage-sweep", "torn-checkpoint")
RANDOM_SEEDS = (0, 1, 2)


#: ``run_hazard_experiment`` arguments of each pinned trace.
HAZARD_RUNS: Dict[str, Dict[str, object]] = {
    "clean": {"inject_fault": False},
    "inject": {"inject_fault": True},
    "evicting": {"prefetch_depth": 1, "grad_queue_depth": 1},
}


def hazard_trace(**kwargs: object) -> Dict[str, object]:
    """``{"events": n, "sha256": hex}`` of one hazard experiment's trace.

    The trace is read off the one :class:`TraceRecorder` the experiment
    builds, whatever object owns it.
    """
    from repro.analysis import hazards
    from repro.analysis.experiment import run_hazard_experiment

    recorders: List[hazards.TraceRecorder] = []
    init = hazards.TraceRecorder.__init__

    def capture(self: hazards.TraceRecorder) -> None:
        init(self)
        recorders.append(self)

    hazards.TraceRecorder.__init__ = capture  # type: ignore[method-assign]
    try:
        run_hazard_experiment(**kwargs)  # type: ignore[arg-type]
    finally:
        hazards.TraceRecorder.__init__ = init  # type: ignore[method-assign]
    (recorder,) = recorders
    rows = [
        (e.time, e.kind.value, e.stage, e.table, e.row, e.batch)
        for e in recorder.events
    ]
    return {
        "events": len(rows),
        "sha256": hashlib.sha256(repr(rows).encode()).hexdigest(),
    }


def chaos_texts() -> Dict[str, List[str]]:
    """``{plan name: ChaosOutcome.format() lines}`` for every pinned plan."""
    from repro.resilience import FAULT_PLANS, ChaosHarnessConfig, run_chaos
    from repro.resilience.faults import FaultPlan

    config = ChaosHarnessConfig()
    plans = [FAULT_PLANS[name] for name in CHAOS_PLANS] + [
        FaultPlan.random(
            f"random-{seed}", seed=seed, num_faults=3,
            max_step=config.num_batches,
        )
        for seed in RANDOM_SEEDS
    ]
    texts: Dict[str, List[str]] = {}
    for plan in plans:
        with tempfile.TemporaryDirectory() as scratch:
            texts[plan.name] = run_chaos(plan, scratch, config).format().split("\n")
    return texts


def main(out_path: str) -> None:
    pins = {
        "hazard_traces": {
            name: hazard_trace(**kwargs) for name, kwargs in HAZARD_RUNS.items()
        },
        "chaos": chaos_texts(),
    }
    with open(out_path, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
