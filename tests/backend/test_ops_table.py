"""The op table cannot drift from the backends, and its cost column can fail.

``repro.backend.ops.OPS`` is the one place an ``ArrayBackend`` op is
declared for the interposer, the cost counter and the sanitizer.
These tests pin the table to the protocol and the real backends'
signatures, and show that the check standing in for the deleted
calibration gate — instrumented counters vs the analytic FLOP model — goes red when
one row's formula is wrong.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.backend import (
    OPS,
    ZONE_EFFTT_FORWARD,
    ZONE_TT_FORWARD,
    ArrayBackend,
    InstrumentedBackend,
    Interposer,
    NumpyBackend,
    use_backend,
)
from repro.embeddings.eff_tt_embedding import EffTTEmbeddingBag
from repro.embeddings.flops import (
    CONTRACTION_OPS,
    efftt_forward_flops,
    measured_zone_flops,
    tt_forward_flops,
)
from repro.embeddings.tt_core import row_index_to_tt
from repro.embeddings.tt_embedding import TTEmbeddingBag, tt_chain_forward

def _public_methods(cls):
    return {
        name
        for name, member in vars(cls).items()
        if callable(member) and not name.startswith("_")
    }


class TestTableMatchesTheBackends:
    def test_one_row_per_protocol_method_in_protocol_order(self):
        protocol_ops = [
            name
            for name, member in vars(ArrayBackend).items()
            if callable(member) and not name.startswith("_") and name != "zone"
        ]
        assert list(OPS) == protocol_ops
        assert all(OPS[name].name == name for name in OPS)

    @pytest.mark.parametrize("backend", [ArrayBackend, NumpyBackend, Interposer])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_signature_matches_the_row(self, backend, op):
        spec = OPS[op]
        params = list(inspect.signature(getattr(backend, op)).parameters.values())
        assert params[0].name == "self"
        assert tuple(p.name for p in params[1:]) == spec.params
        assert {
            p.name: p.default for p in params[1:] if p.default is not p.empty
        } == dict(spec.defaults)
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)

    def test_every_backend_implements_every_row(self):
        for backend in (NumpyBackend, Interposer):
            assert _public_methods(backend) >= set(OPS), backend

    def test_roles_name_declared_parameters(self):
        for spec in OPS.values():
            named = {path.split(".")[0] for path, _ in spec.index_roles}
            named |= {table for _, table in spec.index_roles}
            named |= set(spec.finite_inputs) | set(spec.drift_operands)
            named |= {spec.in_place} - {None}
            named |= set(spec.defaults)
            assert named <= set(spec.params), spec.name

    def test_contraction_family_is_what_the_flop_model_sums(self):
        assert CONTRACTION_OPS == ("matmul", "gather_matmul", "matmul_segment_sum")

    def test_bind_is_pythons_call_rule(self):
        scatter = OPS["scatter_add_rows"]
        assert scatter.bind(("t", "i"), {"values": "v"}) == {
            "target": "t", "indices": "i", "values": "v", "scale": 1.0
        }
        for args, kwargs in ((("t",), {}), (("t", "i", "v", 1.0, 2), {}), (("t", "i", "v"), {"lr": 1})):
            with pytest.raises(TypeError):
                scatter.bind(args, kwargs)

    def test_interposer_fills_defaults_however_the_caller_spelled_them(self):
        seen = []

        class Spy:
            label = "spy"

            def before(self, zone, op, args):
                seen.append((op, len(args)))

            def after(self, zone, op, args, out):
                pass

        bk = Interposer(observers=[Spy()])
        bk.scatter_add_rows(
            np.zeros((4, 2)), values=np.ones((1, 2)), indices=np.array([1])
        )
        bk.asarray([1.0])
        assert seen == [("scatter_add_rows", 4), ("asarray", 2)]
        with pytest.raises(TypeError):
            bk.matmul(np.ones((2, 2)))


def _efftt_forward_counts():
    bag = EffTTEmbeddingBag(1000, 8, tt_rank=4, seed=0)
    idx = np.random.default_rng(2).integers(0, 1000, size=64)
    inst = InstrumentedBackend()
    with use_backend(inst):
        bag.forward(idx, np.arange(idx.size))
    plan = bag.last_plan
    return measured_zone_flops(inst, ZONE_EFFTT_FORWARD), efftt_forward_flops(
        bag.tt.spec, plan.num_unique_prefixes, plan.num_unique_rows
    )


def _tt_forward_counts():
    bag = TTEmbeddingBag(1000, 8, tt_rank=4, seed=0)
    idx = np.random.default_rng(1).integers(0, 1000, size=37)
    inst = InstrumentedBackend()
    with use_backend(inst):
        tt_chain_forward(bag.tt.cores, row_index_to_tt(idx, bag.tt.spec.row_shape))
    return measured_zone_flops(inst, ZONE_TT_FORWARD), tt_forward_flops(
        bag.tt.spec, num_items=idx.size
    )


class TestTheRemainingGateCanFail:
    """Seeded mutant: a wrong cost formula turns the cross-check red."""

    CASES = [("gather_matmul", _efftt_forward_counts), ("matmul", _tt_forward_counts)]

    @pytest.mark.parametrize("op, counts", CASES)
    def test_the_shipped_table_agrees_with_the_analytic_model(self, op, counts):
        measured, analytic = counts()
        assert measured == analytic > 0

    @pytest.mark.parametrize("op, counts", CASES)
    def test_a_doubled_formula_is_caught(self, monkeypatch, op, counts):
        row = OPS[op]

        def doubled(out, *args):
            flops, nbytes = row.cost(out, *args)
            return 2 * flops, nbytes

        monkeypatch.setitem(OPS, op, dataclasses.replace(row, cost=doubled))
        measured, analytic = counts()
        assert measured != analytic
