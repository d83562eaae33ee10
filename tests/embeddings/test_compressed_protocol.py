"""The shared bag surface (``EmbeddingBagBase``) across every registered bag."""

import io

import numpy as np
import pytest

from repro.backend import InstrumentedBackend, use_backend
from repro.embeddings import base
from repro.embeddings.inference import HotRowCachedLookup
from repro.embeddings.planner import (
    STRATEGY_KINDS,
    build_bags,
    plan_under_budget,
)
from repro.embeddings.protocol import CompressionSpec
from repro.embeddings.registry import (
    BAG_CLASSES,
    bag_class,
    build_bag_from_spec,
)
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM, build_embedding_bag
from repro.models.serialization import load_checkpoint, save_checkpoint
from repro.reorder.stats import TableStats
from repro.system.parameter_server import HostBackedEmbeddingBag

ROWS, DIM = 300, 8


def make_bag(kind, rows=ROWS, dim=DIM, seed=0, **keywords):
    """One bag of a registered kind, small TT rank where it has one."""
    cls = BAG_CLASSES[kind]
    knobs = {"tt_rank": 4} if "tt_rank" in cls.config_knobs else {}
    return cls(rows, dim, seed=seed, **knobs, **keywords)


def make_bags():
    return [make_bag(kind, seed=i) for i, kind in enumerate(BAG_CLASSES)]


def train_once(bag, seed=0):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, ROWS, size=32).astype(np.int64)
    off = np.arange(0, 33, 4, dtype=np.int64)
    out = bag.forward(idx, off)
    bag.backward(np.ones_like(out))
    bag.step(lr=0.05)
    return out


class TestProtocolConformance:
    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_isinstance(self, bag):
        # Serving, checkpointing and placement type against the shared
        # shell, so every registered kind must inherit it.
        assert isinstance(bag, base.EmbeddingBagBase)

    def test_non_bag_rejected(self):
        # The serving lookup takes bags only; anything else is refused
        # before a row is built.
        with pytest.raises(TypeError, match="compressed table"):
            HotRowCachedLookup(object(), np.arange(3))

    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_version_counts_updates(self, bag):
        assert bag.version == 0
        train_once(bag)
        assert bag.version == 1
        train_once(bag)
        assert bag.version == 2

    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_memory_bytes_matches_state(self, bag):
        state = bag.state_arrays()
        assert bag.memory_bytes() >= sum(a.nbytes for a in state.values())
        assert bag.memory_bytes() > 0

    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_state_arrays_are_live(self, bag):
        # The contract: state_arrays() returns the trainable arrays
        # themselves, so training changes what a caller sees.
        before = {k: v.copy() for k, v in bag.state_arrays().items()}
        train_once(bag)
        after = bag.state_arrays()
        assert before.keys() == after.keys()
        assert any(
            not np.array_equal(before[k], after[k]) for k in before
        )

    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_state_roundtrip_bitwise(self, bag):
        train_once(bag)
        saved = {k: v.copy() for k, v in bag.state_arrays().items()}
        train_once(bag, seed=9)  # diverge
        bag.load_state_arrays(saved)
        for name, value in bag.state_arrays().items():
            np.testing.assert_array_equal(value, saved[name])

    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_load_bumps_version(self, bag):
        saved = {k: v.copy() for k, v in bag.state_arrays().items()}
        v0 = bag.version
        bag.load_state_arrays(saved)
        assert bag.version > v0

    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_load_validates_before_writing(self, bag):
        arrays = {k: v.copy() for k, v in bag.state_arrays().items()}
        before = {k: v.copy() for k, v in arrays.items()}
        last = sorted(arrays)[-1]
        arrays = {k: v + 1 for k, v in arrays.items()}
        arrays[last] = np.zeros((1, 1, 1, 1, 1))
        with pytest.raises(ValueError, match=last):
            bag.load_state_arrays(arrays)
        for name, value in bag.state_arrays().items():
            np.testing.assert_array_equal(value, before[name])
        assert bag.version == 0

    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_reconstruct_rows_pure(self, bag):
        idx = np.array([0, 5, ROWS - 1], dtype=np.int64)
        first = bag.reconstruct_rows(idx)
        assert first.shape == (3, DIM)
        np.testing.assert_array_equal(first, bag.reconstruct_rows(idx))
        assert bag.version == 0  # reading reconstructs, never updates

    @pytest.mark.parametrize("kind", list(BAG_CLASSES))
    @pytest.mark.parametrize("bad", [-1, 10, 11])
    def test_reconstruct_rows_rejects_out_of_range(self, kind, bad):
        # 10 rows: numpy would wrap -1 to the last row, and a TT table
        # pads to 12+ rows, so row 11 exists in the cores.
        bag = make_bag(kind, rows=10)
        backend = InstrumentedBackend()
        with use_backend(backend):
            with pytest.raises(ValueError):
                bag.reconstruct_rows(np.array([3, bad]))
        assert backend.totals().calls == 0  # rejected before any gather

    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_forward_pools_reconstructed_rows(self, bag):
        idx = np.array([1, 7, 2, 2], dtype=np.int64)
        off = np.array([0, 2], dtype=np.int64)
        pooled = bag.forward(idx, off)
        rows = bag.reconstruct_rows(idx)
        np.testing.assert_allclose(pooled[0], rows[0] + rows[1], atol=1e-12)
        np.testing.assert_allclose(pooled[1], rows[2] + rows[3], atol=1e-12)

    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_call_order_guards(self, bag):
        with pytest.raises(RuntimeError, match="before forward"):
            bag.backward(np.zeros((1, DIM)))
        with pytest.raises(RuntimeError, match="before backward"):
            bag.step(0.1)
        bag.forward(np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(ValueError, match="grad_output shape"):
            bag.backward(np.zeros((3, DIM)))
        bag.backward(np.zeros((2, DIM)))
        with pytest.raises(RuntimeError, match="before forward"):
            bag.backward(np.zeros((2, DIM)))  # one backward per forward
        bag.step(0.1)
        with pytest.raises(RuntimeError, match="before backward"):
            bag.step(0.1)

    @pytest.mark.parametrize("kind", list(BAG_CLASSES))
    @pytest.mark.parametrize("num_bags", [1, 3])
    def test_all_empty_batch_is_a_no_op_update(self, kind, num_bags):
        # normalize_offsets documents empty bags as legal, so a batch
        # made only of them is too: zeros out, nothing to update.
        bag = make_bag(kind)
        before = {k: v.copy() for k, v in bag.state_arrays().items()}
        empty = np.array([], dtype=np.int64)
        # boundary-form offsets: num_bags + 1 zeros fence num_bags empty bags
        out = bag.forward(empty, np.zeros(num_bags + 1, dtype=np.int64))
        np.testing.assert_array_equal(out, np.zeros((num_bags, DIM)))
        assert bag.reconstruct_rows(empty).shape == (0, DIM)
        bag.backward(np.ones_like(out))
        bag.step(lr=0.5)
        assert bag.version == 1
        for name, value in bag.state_arrays().items():
            np.testing.assert_array_equal(value, before[name], err_msg=name)


ALL_KINDS = [*BAG_CLASSES, "host"]
BAG_DTYPES = [
    (kind, dtype)
    for kind in ALL_KINDS
    for dtype in (np.float64, np.float32)
    if not (kind == "host" and dtype is np.float32)  # host rows are float64
]


def make_any_bag(kind, dtype=np.float64, seed=0):
    """A registered bag, or a host-backed one with every row loaded."""
    if kind == "host":
        bag = HostBackedEmbeddingBag(ROWS, DIM)
        rows = np.random.default_rng(seed).standard_normal((ROWS, DIM))
        bag.load_rows(np.arange(ROWS, dtype=np.int64), rows)
        return bag
    return make_bag(kind, seed=seed, dtype=dtype)


def arrays_of(value):
    """Every array inside a pending update (tuple / list / dict nests)."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = [value[k] for k in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in arrays_of(item)]
    return []


def lifecycle(bag, idx, offsets, grad):
    """forward / backward / step; returns (output, copy of the pending update)."""
    out = bag.forward(idx, offsets)
    bag.backward(grad)
    pending = [a.copy() for a in arrays_of(bag._pending)]
    if bag.kind != "host":  # host tables are updated by the server
        bag.step(lr=0.05)
    return out, pending


def assert_same_bits(left, right):
    assert len(left) == len(right)
    for got, want in zip(left, right):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class PoolingSpy:
    """Counts the shell's pooling / expansion calls (not the codecs' own)."""

    def __init__(self, monkeypatch):
        self.pooled = self.expanded = 0
        real_sum, real_expand = base.segment_sum, base.expand_bag_ids

        def spy_sum(values, boundaries):
            self.pooled += 1
            return real_sum(values, boundaries)

        def spy_expand(boundaries):
            self.expanded += 1
            return real_expand(boundaries)

        monkeypatch.setattr(base, "segment_sum", spy_sum)
        monkeypatch.setattr(base, "expand_bag_ids", spy_expand)


class TestBagsOfOne:
    """Pooling factor 1 skips pooling and expansion, bit for bit.

    The reference is the general path run on the same batch: a twin bag
    for which the detection is switched off (``bag_boundaries`` always
    returns boundaries), i.e. ``segment_sum`` over the codec's rows and
    a gather by ``expand_bag_ids``.
    """

    L = 24

    def _batch(self, dtype):
        rng = np.random.default_rng(3)
        # duplicates on purpose: rows 5 and 17 occur three times each
        idx = rng.integers(0, ROWS, size=self.L).astype(np.int64)
        idx[[0, 7, 9]] = 5
        idx[[2, 3, 20]] = 17
        grad = rng.standard_normal((self.L, DIM)).astype(dtype)
        return idx, grad

    @staticmethod
    def _general_path(monkeypatch):
        def always_boundaries(offsets, num_indices):
            if offsets is None:
                offsets = np.arange(num_indices + 1, dtype=np.int64)
            return base.normalize_offsets(offsets, num_indices)

        monkeypatch.setattr(base, "bag_boundaries", always_boundaries)

    OFFSETS = {
        "none": lambda n: None,
        "boundaries": lambda n: np.arange(n + 1, dtype=np.int64),
        "pytorch": lambda n: np.arange(n, dtype=np.int64),
    }

    @pytest.mark.parametrize("form", sorted(OFFSETS))
    @pytest.mark.parametrize(
        "kind, dtype", BAG_DTYPES, ids=lambda v: getattr(v, "__name__", v)
    )
    def test_identity_path_equals_general_path(self, kind, dtype, form, monkeypatch):
        idx, grad = self._batch(dtype)
        offsets = self.OFFSETS[form](self.L)
        fast, twin = make_any_bag(kind, dtype), make_any_bag(kind, dtype)

        spy = PoolingSpy(monkeypatch)
        out, pending = lifecycle(fast, idx, offsets, grad)
        assert (spy.pooled, spy.expanded) == (0, 0)

        with monkeypatch.context() as patch:
            self._general_path(patch)
            ref_out, ref_pending = lifecycle(twin, idx, offsets, grad)
        assert (spy.pooled, spy.expanded) == (1, 1)

        assert out.dtype == ref_out.dtype
        np.testing.assert_array_equal(out, ref_out)
        assert_same_bits(pending, ref_pending)
        assert fast.version == twin.version
        assert fast.state_arrays().keys() == twin.state_arrays().keys()
        for name, value in fast.state_arrays().items():
            np.testing.assert_array_equal(
                value, twin.state_arrays()[name], err_msg=name
            )

    @pytest.mark.parametrize(
        "offsets",
        [
            # 23 bags over 24 indices: bag 4 holds two
            np.delete(np.arange(25), 5),
            # 25 bags over 24 indices: bag 10 is empty
            np.insert(np.arange(25), 10, 10),
            # 24 bags over 24 indices, but not one each
            np.array([0, 0, *range(2, 25)]),
        ],
        ids=["bag_of_two", "empty_bag", "empty_and_two"],
    )
    @pytest.mark.parametrize(
        "kind, dtype", BAG_DTYPES, ids=lambda v: getattr(v, "__name__", v)
    )
    def test_other_offsets_take_the_general_path(
        self, kind, dtype, offsets, monkeypatch
    ):
        idx, _ = self._batch(dtype)
        offsets = offsets.astype(np.int64)
        num_bags = offsets.size - 1
        grad = np.random.default_rng(4).standard_normal((num_bags, DIM)).astype(dtype)
        pooled, twin = make_any_bag(kind, dtype), make_any_bag(kind, dtype)

        spy = PoolingSpy(monkeypatch)
        out, pending = lifecycle(pooled, idx, offsets, grad)
        assert (spy.pooled, spy.expanded) == (1, 1)

        # the same update, spelled with bags of one: rows pooled by hand,
        # the bag gradient expanded to one row per occurrence by hand
        rows, ref_pending = lifecycle(
            twin, idx, None, grad[base.expand_bag_ids(offsets)]
        )
        np.testing.assert_array_equal(out, base.segment_sum(rows, offsets))
        assert_same_bits(pending, ref_pending)
        for name, value in pooled.state_arrays().items():
            np.testing.assert_array_equal(
                value, twin.state_arrays()[name], err_msg=name
            )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_returned_rows_do_not_alias_parameters(self, kind):
        bag = make_any_bag(kind)
        idx, _ = self._batch(np.float64)
        out = bag.forward(idx)
        owned = [*bag.state_arrays().values()]
        if kind == "host":
            owned.append(bag._loaded_rows)
        for array in owned:
            assert not np.shares_memory(out, array)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_popped_update_survives_the_next_step(self, kind):
        # The PS gradient queue holds a popped update across steps, so
        # nothing in it may be a scratch buffer the bag writes again.
        bag = make_any_bag(kind)
        idx, grad = self._batch(np.float64)
        bag.forward(idx)
        bag.backward(grad)
        pop = getattr(bag, "pop_row_gradients", bag._pop_pending)
        held = arrays_of(pop())
        assert held
        snapshot = [a.copy() for a in held]
        bag.forward(idx[::-1].copy())
        bag.backward(grad * 3.0)
        assert_same_bits(held, snapshot)


class TestGradientsMatchFiniteDifferences:
    """``backward`` + ``step`` against central differences of ``forward``."""

    FD_ROWS, FD_DIM = 40, 4
    # bags: [3, 3, 7] (duplicate inside), [] (empty), [7, 1] (duplicate
    # across bags), [3] (again), [0, 39, 39]
    INDICES = np.array([3, 3, 7, 7, 1, 3, 0, 39, 39], dtype=np.int64)
    OFFSETS = np.array([0, 3, 3, 5, 6, 9], dtype=np.int64)

    def _loss(self, bag, weights):
        return float((bag.forward(self.INDICES, self.OFFSETS) * weights).sum())

    def _analytic(self, bag, weights):
        """Parameter gradients read off one lr=1 SGD step, then undone."""
        before = {k: v.copy() for k, v in bag.state_arrays().items()}
        bag.forward(self.INDICES, self.OFFSETS)
        bag.backward(weights)
        bag.step(lr=1.0)
        grads = {
            k: before[k] - v
            for k, v in bag.state_arrays().items()
            if v.dtype.kind == "f"
        }
        bag.load_state_arrays(before)
        return grads

    def _check_against_central_differences(self, bag, label):
        weights = np.random.default_rng(5).standard_normal(
            (self.OFFSETS.size - 1, bag.embedding_dim)
        )
        analytic = self._analytic(bag, weights)
        assert analytic and any(np.abs(g).max() > 0 for g in analytic.values())
        eps = 1e-6
        for name, grad in analytic.items():
            flat = bag.state_arrays()[name].reshape(-1)  # live view
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                plus = self._loss(bag, weights)
                flat[i] = orig - eps
                minus = self._loss(bag, weights)
                flat[i] = orig
                numeric[i] = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(
                grad.reshape(-1), numeric, rtol=1e-5, atol=1e-7,
                err_msg=f"{label}/{name}",
            )

    @pytest.mark.parametrize("kind", list(BAG_CLASSES))
    def test_every_float_parameter(self, kind):
        bag = make_bag(
            kind, rows=self.FD_ROWS, dim=self.FD_DIM, seed=11, dtype=np.float64
        )
        self._check_against_central_differences(bag, kind)

    # The TT pair at every chain length the kernels are generic in: 2
    # cores (no reuse-buffer GEMM at all), the paper's 3, and 4 (two
    # buffer GEMM levels and a relayout between them, both ways).
    TT_DIM = 8
    TT_CORES = (2, 3, 4)

    def _tt_pair_bag(self, kind, num_cores, seed, **kwargs):
        return bag_class(kind)(
            self.FD_ROWS, self.TT_DIM, tt_rank=4, num_cores=num_cores,
            seed=seed, **kwargs,
        )

    @pytest.mark.parametrize("num_cores", TT_CORES)
    @pytest.mark.parametrize("kind", ["tt", "eff_tt"])
    def test_tt_pair_at_every_core_count(self, kind, num_cores):
        bag = self._tt_pair_bag(kind, num_cores, seed=11, dtype=np.float64)
        self._check_against_central_differences(bag, f"{kind}/d={num_cores}")

    @pytest.mark.parametrize(
        "dtype, tol",
        [
            (np.float64, dict(rtol=1e-10, atol=1e-12)),
            (np.float32, dict(rtol=1e-4, atol=1e-6)),
        ],
        ids=["float64", "float32"],
    )
    @pytest.mark.parametrize("num_cores", TT_CORES)
    @pytest.mark.parametrize(
        "toggles",
        [
            dict(enable_reuse=r, enable_grad_aggregation=g, enable_fused_update=f)
            for r in (True, False) for g in (True, False) for f in (True, False)
        ],
        ids=lambda t: "".join(str(int(v)) for v in t.values()),
    )
    def test_eff_tt_matches_tt_rec_reference(self, toggles, num_cores, dtype, tol):
        # TT-Rec semantics are the oracle for the TT pair: same cores,
        # same batch, same update, whatever Eff-TT optimization is on.
        # With reuse and aggregation both off Eff-TT *is* the TT-Rec
        # arithmetic; on the segment-GEMM kernels the reduction order
        # over duplicate slices differs, hence a tolerance (DESIGN.md).
        reference = self._tt_pair_bag("tt", num_cores, seed=11, dtype=dtype)
        eff = self._tt_pair_bag("eff_tt", num_cores, seed=99, dtype=dtype, **toggles)
        eff.load_state_arrays(reference.state_arrays())
        weights = np.random.default_rng(5).standard_normal(
            (self.OFFSETS.size - 1, self.TT_DIM)
        )
        expected = self._analytic(reference, weights)
        actual = self._analytic(eff, weights)
        assert expected.keys() == actual.keys()
        for name in expected:
            assert actual[name].dtype == dtype
            if not (toggles["enable_reuse"] or toggles["enable_grad_aggregation"]):
                np.testing.assert_array_equal(actual[name], expected[name])
            np.testing.assert_allclose(actual[name], expected[name], **tol)


class TestRegistryCompleteness:
    """Every strategy name used anywhere resolves through one table."""

    def test_every_model_backend_is_registered(self):
        assert {b.value for b in EmbeddingBackend} == set(BAG_CLASSES)
        for backend in EmbeddingBackend:
            bag = build_embedding_bag(backend, ROWS, DIM, 4, seed=0)
            assert type(bag) is BAG_CLASSES[backend.value]

    def test_every_planner_strategy_is_registered(self):
        stats = [TableStats.from_spec(0, 5000, 1.05)]
        for strategy, kind in STRATEGY_KINDS.items():
            if strategy == "dense":
                continue  # never forced; covered by the backend test
            plan = plan_under_budget(stats, DIM, 5000 * DIM, strategy=strategy)
            (bag,) = build_bags(plan, [0])
            assert type(bag) is BAG_CLASSES[kind]
            assert bag.compression_spec().kind == kind
        # the planner's "tt" is the paper's table, not the TT-Rec one
        assert STRATEGY_KINDS["tt"] == "eff_tt"

    @pytest.mark.parametrize("kind", list(BAG_CLASSES))
    def test_checkpoint_kind_tag_resolves(self, kind):
        cfg = DLRMConfig(
            num_dense=2, table_rows=(ROWS,), embedding_dim=DIM,
            bottom_mlp=(4,), top_mlp=(4,), backend=EmbeddingBackend.DENSE,
        )
        model = DLRM(cfg, seed=0, embedding_bags=[make_bag(kind, seed=3)])
        buffer = io.BytesIO()
        save_checkpoint(model, buffer)
        with np.load(io.BytesIO(buffer.getvalue()), allow_pickle=True) as npz:
            assert str(npz["bag0/kind"][0]) == kind
        buffer.seek(0)
        restored = load_checkpoint(buffer).embedding_bags[0]
        assert type(restored) is BAG_CLASSES[kind]

    @pytest.mark.parametrize("kind", list(BAG_CLASSES))
    def test_spec_rebuilds_a_bag_that_accepts_the_state(self, kind):
        bag = make_bag(kind, seed=3)
        train_once(bag)
        clone = build_bag_from_spec(bag.compression_spec(), seed=77)
        assert type(clone) is type(bag)
        assert clone.compression_spec() == bag.compression_spec()
        clone.load_state_arrays(bag.state_arrays())
        for name, value in bag.state_arrays().items():
            np.testing.assert_array_equal(clone.state_arrays()[name], value)
        idx = np.array([0, 5, ROWS - 1], dtype=np.int64)
        np.testing.assert_array_equal(
            clone.reconstruct_rows(idx), bag.reconstruct_rows(idx)
        )

    def test_unknown_kind_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown embedding kind"):
            bag_class("nope")


class TestCompressionSpec:
    def test_kinds(self):
        kinds = {
            type(b).__name__: b.compression_spec().kind for b in make_bags()
        }
        assert kinds == {
            "DenseEmbeddingBag": "dense",
            "TTEmbeddingBag": "tt",
            "EffTTEmbeddingBag": "eff_tt",
            "HashEmbeddingBag": "hash",
            "RobeEmbeddingBag": "robe",
            "PQEmbeddingBag": "pq",
        }

    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_spec_shape_metadata(self, bag):
        spec = bag.compression_spec()
        assert spec.num_embeddings == ROWS
        assert spec.embedding_dim == DIM

    @pytest.mark.parametrize("bag", make_bags(), ids=lambda b: type(b).__name__)
    def test_json_roundtrip(self, bag):
        spec = bag.compression_spec()
        assert CompressionSpec.from_json(spec.to_json()) == spec

    def test_params_canonical_order(self):
        a = CompressionSpec.create("hash", 10, 4, {"b": 1, "a": 2})
        b = CompressionSpec.create("hash", 10, 4, {"a": 2, "b": 1})
        assert a == b
        assert a.to_json() == b.to_json()
