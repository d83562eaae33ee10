"""The pipelined PS trainer's hazard trace and chaos story, pinned.

``fixtures/pipeline_pins.json`` was written by
``fixtures/make_pipeline_pins.py`` at the commit before the trainer
reported its own queue and cache traffic (when recording and faulty
subclasses of the queue and cache observed it instead).  Every event the
hazard detector records, its timestamp and its order, and every line a
chaos plan prints must be what they were then.
"""

import json
from pathlib import Path

import pytest

from tests.system.fixtures.make_pipeline_pins import (
    CHAOS_PLANS,
    HAZARD_RUNS,
    RANDOM_SEEDS,
    chaos_texts,
    hazard_trace,
)

PINS = json.loads((Path(__file__).parent / "fixtures" / "pipeline_pins.json").read_text())


def test_pins_cover_both_traces_and_every_plan():
    assert PINS["hazard_traces"]["clean"]["events"] == 7351
    assert PINS["hazard_traces"]["inject"]["events"] == 4228
    assert sorted(PINS["hazard_traces"]) == sorted(HAZARD_RUNS)
    assert sorted(PINS["chaos"]) == sorted(
        list(CHAOS_PLANS) + [f"random-{seed}" for seed in RANDOM_SEEDS]
    )


@pytest.mark.parametrize("run", sorted(HAZARD_RUNS))
def test_hazard_trace_is_the_parents(run):
    assert hazard_trace(**HAZARD_RUNS[run]) == PINS["hazard_traces"][run]


def test_chaos_text_is_the_parents():
    assert chaos_texts() == PINS["chaos"]
