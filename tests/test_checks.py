"""The gate registry: every gate green once, every execution gate red
under a seeded mutant.

``test_gate_is_green`` is where tier-1 runs the real gates
(``test_cli.py::test_quickcheck`` drives the quickcheck loop over
stand-ins).  Each mutant is a monkeypatch that breaks the one behaviour
its gate guards, and must turn that gate's :class:`~repro.checks.Check`
red rather than raise.  The analyzer gates are shown red by their seeded
corpora under ``tests/analysis/corpus``.
"""

import itertools

import numpy as np
import pytest

from repro import checks
from repro.backend import CostCounter, NumpyBackend
from repro.backend.groups import RowGroups
from repro.embeddings.hash_embedding import HashEmbeddingBag
from repro.embeddings.inference import _TTChain
from repro.embeddings.reuse_buffer import ReusePlan
from repro.nn.loss import BCEWithLogitsLoss
from repro.resilience.supervisor import PipelineSupervisor
from repro.serving.fleet import _FleetRun
from repro.serving.server import ServingModel
from repro.sharding.server import LinkStats, ShardedParameterServer

GATES = checks.registry(steps=5)


@pytest.mark.parametrize("name", list(GATES))
def test_gate_is_green(name):
    check = GATES[name]()
    assert check.name == name
    assert check.ok, checks.format_check(check)


def test_registry_is_quickchecks_sixteen_lines_in_order():
    assert list(GATES) == [
        "dense", "tt", "eff_tt", "hash", "robe", "pq",
        "backend", "numsan", "serving", "chaos", "fleet", "resume",
        "sharded", "compress", "lint", "det",
    ]


def test_format_check_puts_the_status_after_the_summary():
    assert checks.format_check(checks.Check("serving", True, "300/300")) == (
        "serving  300/300  [ok]"
    )
    assert checks.format_check(
        checks.Check("compress", False, "drift 1.0\n  why")
    ) == "compress drift 1.0  [FAILED]\n  why"


def _training_ascends(monkeypatch):
    backward = BCEWithLogitsLoss.backward
    monkeypatch.setattr(BCEWithLogitsLoss, "backward", lambda self: -backward(self))


def _prefix_sum_keeps_first_row(monkeypatch):
    # The Eff-TT backward sums each unique row's gradient into its
    # prefix; a record whose groups hold one row each keeps only the
    # prefix's first row.  The forward and the last core are untouched.
    prefix_sum = ReusePlan.prefix_sum.func

    def first_row_only(self):
        groups = prefix_sum(self)
        return RowGroups(
            groups.order[groups.starts], groups.ids, np.arange(groups.num_groups)
        )

    monkeypatch.setattr(ReusePlan, "prefix_sum", property(first_row_only))


def _counter_records_nothing(monkeypatch):
    monkeypatch.setattr(CostCounter, "after", lambda self, *call: None)


def _nan_leaks_out_of_relu(monkeypatch):
    maximum = NumpyBackend.maximum

    def leaky(self, a, b):
        out = maximum(self, a, b)
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(NumpyBackend, "maximum", leaky)


def _dense_arm_gathers_the_next_row(monkeypatch):
    dense_inputs = ServingModel._dense_inputs

    def shifted(self, batch):
        (idx, bounds), *rest = dense_inputs(self, batch)
        rows = self._dense_arms[0][1].num_embeddings
        return [((idx + 1) % rows, bounds), *rest]

    monkeypatch.setattr(ServingModel, "_dense_inputs", shifted)


def _fleet_loses_a_result(monkeypatch):
    complete = _FleetRun.complete
    lost = []

    def lossy(self, replica, token):
        complete(self, replica, token)
        if self.results and not lost:
            lost.append(self.results.pop())

    monkeypatch.setattr(_FleetRun, "complete", lossy)


def _fused_chain_reads_the_neighbours_slices(monkeypatch):
    rows = _TTChain.rows

    def shifted(self, slots, idx):
        # Slot s offsets its digits by slot s-1's offset: the slices of
        # the table before it in the stacked cores (slot 0 keeps its own).
        own = self._offsets
        self._offsets = np.concatenate([own[:, :1], own[:, :-1]], axis=1)
        try:
            return rows(self, slots, idx)
        finally:
            self._offsets = own

    monkeypatch.setattr(_TTChain, "rows", shifted)


def _supervisor_skips_a_replay(monkeypatch):
    rollback = PipelineSupervisor._rollback

    def resume_one_late(self, report):
        step, arrays = rollback(self, report)
        return step + 1, arrays

    monkeypatch.setattr(PipelineSupervisor, "_rollback", resume_one_late)


def _fleet_drops_a_redirect(monkeypatch):
    def forget(self, fleet_batch, from_replica):
        self.outstanding -= fleet_batch.size

    monkeypatch.setattr(_FleetRun, "_redirect", forget)


def _restore_skips_a_table(monkeypatch):
    load = ShardedParameterServer.load_state_arrays

    def keep_table0(self, arrays):
        fresh = {
            key: block.copy()
            for key, block in self.state_arrays().items()
            if key.startswith("table0/")
        }
        load(self, {**arrays, **fresh})

    monkeypatch.setattr(ShardedParameterServer, "load_state_arrays", keep_table0)


def _links_meter_wire_as_raw(monkeypatch):
    charge = LinkStats.charge

    def raw_on_the_wire(self, direction, raw, wire):
        charge(self, direction, raw, raw)

    monkeypatch.setattr(LinkStats, "charge", raw_on_the_wire)


def _hash_bag_reseeds_per_call(monkeypatch):
    lookup = HashEmbeddingBag._lookup
    seeds = itertools.count(1)

    def reseeded(self, idx):
        return lookup(self, (idx + next(seeds)) % self.num_embeddings)

    monkeypatch.setattr(HashEmbeddingBag, "_lookup", reseeded)


MUTANTS = {
    "eff_tt": _training_ascends,
    "eff_tt/prefix_sum": _prefix_sum_keeps_first_row,
    "backend": _counter_records_nothing,
    "numsan": _nan_leaks_out_of_relu,
    "serving": _dense_arm_gathers_the_next_row,
    "chaos": _supervisor_skips_a_replay,
    "fleet": _fleet_drops_a_redirect,
    "resume": _restore_skips_a_table,
    "sharded": _links_meter_wire_as_raw,
    "compress": _hash_bag_reseeds_per_call,
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_turns_its_gate_red(monkeypatch, name):
    # A key names its gate, then "/" and the mutant where a gate has two.
    gate = name.split("/")[0]
    MUTANTS[name](monkeypatch)
    check = GATES[gate]()
    assert check.name == gate
    assert not check.ok, checks.format_check(check)


def test_a_prefix_sum_that_drops_rows_turns_only_eff_tt_red(monkeypatch):
    # The loss still falls under this mutant; only the gradient
    # comparison sees it.  The analyzer gates read the source files, which
    # a monkeypatch does not reach, so only the execution gates run.
    _prefix_sum_keeps_first_row(monkeypatch)
    static = {analyzer.name for analyzer in checks.analyzers()}
    red = {}
    for name, gate in GATES.items():
        if name not in static:
            check = gate()
            if not check.ok:
                red[name] = checks.format_check(check)
    assert list(red) == ["eff_tt"], red
    assert "loss" in red["eff_tt"] and "core grads vs TT-Rec" in red["eff_tt"]


def test_a_lost_result_turns_serving_red(monkeypatch):
    # The report's offered is completed + rejected, so only the count
    # of generated requests can show a result that went missing.
    _fleet_loses_a_result(monkeypatch)
    check = GATES["serving"]()
    assert not check.ok, checks.format_check(check)
    assert "299/299 requests" in check.detail


def test_a_fused_chain_reading_its_neighbours_slices_turns_serving_red(
    monkeypatch,
):
    # The gate's model keeps four Eff-TT arms of one core signature, so
    # their cold rows come off one chain over the stacked cores; the
    # gate compares every prediction with the plain model's, not only
    # with a replay that would share the fault.
    _fused_chain_reads_the_neighbours_slices(monkeypatch)
    check = GATES["serving"]()
    assert not check.ok, checks.format_check(check)
    assert "300/300 requests" in check.detail
    assert "max |p - model| 0.0e+00" not in check.detail
