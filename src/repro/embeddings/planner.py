"""The table planner: one decision per embedding table (paper §V-A).

Every table of a model ends up in one of three places — compressed in
device HBM, dense in device HBM, or dense behind the parameter server —
and this module is the only place that decides which.

**Data model.**  A :class:`TablePlan` names the table, the registry
``kind`` of the bag that will hold it (:data:`SERVER_KIND` when its
rows live behind the PS tier), the constructor ``params`` the policy
searched, its device / server bytes and the ``reason``.  A
:class:`ModelPlan` is the tuple of them plus what they were planned
against (budget, device count, dim, dtype) and the totals.

**Bytes contract.**  :func:`table_bytes` delegates to the bag class's
own ``estimate_bytes``, so a worker table's ``device_bytes`` *is* the
``memory_bytes()`` of the bag :func:`build_bags` builds from the entry
(at the plan's ``dtype_bytes``: every policy plans at the one
:data:`~repro.backend.DEFAULT_DTYPE` the bags train at, fp32, which is
also Table III's accounting).

**Policies** — three functions over
:class:`~repro.reorder.stats.TableStats`, each kept because a caller
needs its particular guarantee:

* :func:`plan_hbm_pack` — the paper's rule and Table III's accounting
  (fp32): Eff-TT above a row threshold, pack smallest-first into HBM,
  spill the rest to the server.
* :func:`plan_fixed_fraction` — every table judged alone against fixed
  fractions of the per-device budget, so the worker/server split never
  moves with the device count; that is what keeps N-shard training
  bitwise equal to 1-shard (``repro train --shards``).
* :func:`plan_under_budget` — Hetu's ``_get_rank`` shape: bisect one
  global compression rate, search each table's parameters under
  ``dense_bytes * rate``; the only policy that guarantees the *total*
  fits a byte budget (``--compress-strategy`` / ``--memory-budget-mb``).

HugeCTR's all-tables-row-sharded layout consults no statistics and
builds no bags; :func:`row_shard_device_bytes` is its whole plan.

**Seed convention.**  :func:`build_bags` takes one seed per table and
never derives them; callers that want the bags ``DLRM(cfg, seed)``
would have built pass :func:`repro.models.dlrm.table_seeds`.

Plans are pure integer/float arithmetic over stats sorted by
``table_idx``: bitwise deterministic and independent of input order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.backend.protocol import DEFAULT_DTYPE, DTypeLike
from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.hash_embedding import default_hash_buckets
from repro.embeddings.pq_embedding import default_pq_codes, default_pq_subspaces
from repro.embeddings.protocol import SpecParamValue
from repro.embeddings.registry import bag_class, build_bag
from repro.embeddings.robe_embedding import default_robe_size
from repro.reorder.stats import TableStats
from repro.utils.factorize import ceil_balanced_factors
from repro.utils.rng import RngLike

__all__ = [
    "SERVER_KIND",
    "STRATEGY_KINDS",
    "TablePlan",
    "ModelPlan",
    "table_bytes",
    "row_shard_device_bytes",
    "binary_search_max",
    "plan_hbm_pack",
    "plan_fixed_fraction",
    "plan_under_budget",
    "build_bags",
]

#: ``TablePlan.kind`` of a table whose rows live behind the parameter
#: server (the ``kind`` of the parameter-less worker-side view).
SERVER_KIND = "host"

#: ``--compress-strategy`` names -> the registry kind they build (the
#: planner's ``tt`` is the paper's Eff-TT table, not the TT-Rec one).
STRATEGY_KINDS: Dict[str, str] = {
    "dense": "dense",
    "tt": "eff_tt",
    "hash": "hash",
    "robe": "robe",
    "pq": "pq",
}

#: Every policy sizes the bags at the dtype they train at (fp32, as
#: the paper trains and Table III accounts).
_DTYPE_BYTES = DEFAULT_DTYPE.itemsize

# plan_fixed_fraction: each rule compares one table against a fixed
# share of the whole per-device budget, never a running remainder.
#: Dense bytes (or a hot set) within this share stay on the device.
_DENSE_FRACTION = 0.05
#: A compressed form within this share stays on the device.
_COMPRESSED_FRACTION = 0.10
#: A mod-N shard block within this share is row-sharded, else host.
_SHARD_FRACTION = 0.50
#: Below this cardinality compression is not worth the lookup compute.
_COMPRESS_MIN_ROWS = 4096

# plan_under_budget
#: TT rank search ceiling (Hetu searches 0..1000; ranks beyond this
#: stop compressing anything trained here).
_MAX_TT_RANK = 512
#: Row count above which PQ's fixed per-row code cost amortizes.
_PQ_ROWS_THRESHOLD = 65536
#: Bisection iterations: 2^-48 rate resolution.
_RATE_ITERS = 48


@dataclass(frozen=True)
class TablePlan:
    """Where one table lives and what it costs there.

    ``device_bytes`` of a server table is what the PS tier keeps in
    device memory for it (a hot-row cache, a mod-N shard block);
    ``server_bytes`` is what stays behind the server.
    """

    table_idx: int
    num_rows: int
    kind: str
    params: Tuple[Tuple[str, SpecParamValue], ...]
    device_bytes: int
    server_bytes: int
    reason: str

    @property
    def on_server(self) -> bool:
        return self.kind == SERVER_KIND

    def param_dict(self) -> Dict[str, SpecParamValue]:
        return dict(self.params)


@dataclass(frozen=True)
class ModelPlan:
    """One :class:`TablePlan` per table plus what they were planned against."""

    policy: str
    tables: Tuple[TablePlan, ...]
    budget_bytes: int
    embedding_dim: int
    dtype_bytes: int
    num_devices: int = 1
    #: the bisected global rate (:func:`plan_under_budget` only)
    rate: Optional[float] = None

    @property
    def device_bytes(self) -> int:
        """Per-device bytes: worker tables replicate, shard blocks add."""
        return sum(t.device_bytes for t in self.tables)

    @property
    def server_bytes(self) -> int:
        return sum(t.server_bytes for t in self.tables)

    @property
    def dense_bytes(self) -> int:
        """What the model would weigh with every table dense."""
        return (
            sum(t.num_rows for t in self.tables)
            * self.embedding_dim
            * self.dtype_bytes
        )

    @property
    def feasible(self) -> bool:
        return self.device_bytes <= self.budget_bytes

    def server_positions(self) -> List[int]:
        """Model positions whose lookups go through the PS tier."""
        return [t.table_idx for t in self.tables if t.on_server]

    def format_table(self) -> str:
        header = (
            f"{'table':>5}  {'rows':>10}  {'kind':<6}  {'device B':>14}  "
            f"{'server B':>14}  params; reason"
        )
        lines = [header, "-" * len(header)]
        for t in self.tables:
            notes = [f"{k}={v}" for k, v in t.params] + [t.reason]
            lines.append(
                f"{t.table_idx:>5}  {t.num_rows:>10}  {t.kind:<6}  "
                f"{t.device_bytes:>14,}  {t.server_bytes:>14,}  "
                + "; ".join(notes)
            )
        lines.append("-" * len(header))
        rate = "" if self.rate is None else f", rate={self.rate:.4g}"
        lines.append(
            f"{self.policy}: device {self.device_bytes:,} B of "
            f"{self.budget_bytes:,} B budget on each of "
            f"{self.num_devices} device(s), server {self.server_bytes:,} B "
            f"(dense {self.dense_bytes:,} B{rate}) -> "
            f"{'feasible' if self.feasible else 'INFEASIBLE'}"
        )
        return "\n".join(lines)


def table_bytes(
    kind: str,
    num_rows: int,
    embedding_dim: int,
    dtype_bytes: int = _DTYPE_BYTES,
    **params: SpecParamValue,
) -> int:
    """``memory_bytes()`` of ``build_bag(kind, ..., **params)``, unbuilt."""
    return bag_class(kind).estimate_bytes(
        num_rows, embedding_dim, dtype_bytes, **params
    )


def row_shard_device_bytes(
    table_rows: Sequence[int],
    num_devices: int,
    embedding_dim: int,
    dtype_bytes: int,
) -> int:
    """Per-device bytes with every table mod-N row-sharded (HugeCTR)."""
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    return sum(
        -(-rows // num_devices) * embedding_dim * dtype_bytes
        for rows in table_rows
    )


def binary_search_max(
    lo: int, hi: int, fits: Callable[[int], bool]
) -> Optional[int]:
    """Largest ``v`` in ``[lo, hi]`` with ``fits(v)``, or ``None``.

    ``fits`` must be monotone (True then False as ``v`` grows) — the
    Hetu ``_get_rank`` search shape.
    """
    if lo > hi or not fits(lo):
        return None
    best = lo
    while lo <= hi:
        mid = (lo + hi) // 2
        if fits(mid):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def _check_inputs(
    stats: Sequence[TableStats], embedding_dim: int, budget_bytes: int
) -> List[TableStats]:
    """Validate, and return the stats in ``table_idx`` order."""
    if budget_bytes < 1:
        raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
    if embedding_dim < 1:
        raise ValueError(f"embedding_dim must be >= 1, got {embedding_dim}")
    ordered = sorted(stats, key=lambda s: s.table_idx)
    if len({s.table_idx for s in ordered}) != len(ordered):
        raise ValueError("duplicate table_idx in stats")
    return ordered


def _worker(
    st: TableStats,
    kind: str,
    embedding_dim: int,
    dtype_bytes: int,
    reason: str,
    **params: SpecParamValue,
) -> TablePlan:
    return TablePlan(
        table_idx=st.table_idx,
        num_rows=st.num_rows,
        kind=kind,
        params=tuple(sorted(params.items())),
        device_bytes=table_bytes(
            kind, st.num_rows, embedding_dim, dtype_bytes, **params
        ),
        server_bytes=0,
        reason=reason,
    )


def _server(
    st: TableStats, device_bytes: int, server_bytes: int, reason: str
) -> TablePlan:
    return TablePlan(
        table_idx=st.table_idx,
        num_rows=st.num_rows,
        kind=SERVER_KIND,
        params=(),
        device_bytes=device_bytes,
        server_bytes=server_bytes,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# policy 1: threshold, pack, spill (paper §V-A)
# ---------------------------------------------------------------------------


def plan_hbm_pack(
    stats: Sequence[TableStats],
    embedding_dim: int,
    budget_bytes: int,
    tt_rank: int = 64,
    tt_threshold_rows: int = 1_000_000,
) -> ModelPlan:
    """The paper's placement, in Table III's fp32 accounting.

    Tables with more than ``tt_threshold_rows`` rows become Eff-TT at
    ``tt_rank``, the rest stay dense; candidates are packed into
    ``budget_bytes`` of HBM smallest-footprint-first, so the most
    tables stay on the device, and whatever does not fit spills dense
    to the server.  A threshold no table exceeds gives the uncompressed
    baselines' placement.
    """
    ordered = _check_inputs(stats, embedding_dim, budget_bytes)
    dtype_bytes = _DTYPE_BYTES
    candidates = [
        _worker(
            st, "eff_tt", embedding_dim, dtype_bytes,
            f"more than {tt_threshold_rows:,} rows: Eff-TT in HBM",
            tt_rank=tt_rank,
        )
        if st.num_rows > tt_threshold_rows
        else _worker(
            st, "dense", embedding_dim, dtype_bytes, "dense in HBM"
        )
        for st in ordered
    ]
    used = 0
    spilled = set()
    for i in sorted(
        range(len(candidates)), key=lambda i: candidates[i].device_bytes
    ):
        if used + candidates[i].device_bytes <= budget_bytes:
            used += candidates[i].device_bytes
        else:
            spilled.add(i)
    return ModelPlan(
        policy="hbm_pack",
        tables=tuple(
            _server(
                st, 0, st.num_rows * embedding_dim * dtype_bytes,
                "HBM is full: dense behind the server",
            )
            if i in spilled
            else candidates[i]
            for i, st in enumerate(ordered)
        ),
        budget_bytes=int(budget_bytes),
        embedding_dim=int(embedding_dim),
        dtype_bytes=dtype_bytes,
    )


# ---------------------------------------------------------------------------
# policy 2: the N-invariant fixed-fraction cascade (RecShard-style)
# ---------------------------------------------------------------------------


def plan_fixed_fraction(
    stats: Sequence[TableStats],
    embedding_dim: int,
    budget_bytes: int,
    num_devices: int = 1,
    tt_rank: int = 8,
    compress_strategy: str = "tt",
    compress_rate: float = 0.25,
) -> ModelPlan:
    """Skew- and size-aware placement whose worker/server split ignores N.

    First match wins, each test against a fixed share of the whole
    per-device ``budget_bytes``: dense within 5 % stays dense on the
    device; at 4,096+ rows, the ``compress_strategy`` form (``tt`` at
    ``tt_rank``; ``hash`` / ``robe`` sized by ``compress_rate``;
    ``pq``) within 10 % stays on the device; a skewed table whose hot
    set fits 5 % is split hot/cold; otherwise the table goes to the
    server, row-sharded if its ``ceil(rows / num_devices)`` block fits
    50 %, else plain host memory.  Only that last boundary moves with
    ``num_devices``, and both of its sides are server-resident.
    """
    ordered = _check_inputs(stats, embedding_dim, budget_bytes)
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if compress_strategy not in STRATEGY_KINDS or compress_strategy == "dense":
        raise ValueError(
            "compress_strategy must be one of "
            f"{sorted(set(STRATEGY_KINDS) - {'dense'})}, "
            f"got {compress_strategy!r}"
        )
    if not 0.0 < compress_rate <= 1.0:
        raise ValueError(
            f"compress_rate must be in (0, 1], got {compress_rate}"
        )
    dtype_bytes = _DTYPE_BYTES

    def decide(st: TableStats) -> TablePlan:
        dense_bytes = st.num_rows * embedding_dim * dtype_bytes
        if dense_bytes <= _DENSE_FRACTION * budget_bytes:
            return _worker(
                st, "dense", embedding_dim, dtype_bytes,
                f"dense {dense_bytes / 1e6:.2f} MB within "
                f"{_DENSE_FRACTION:.0%} of budget",
            )
        if st.num_rows >= _COMPRESS_MIN_ROWS:
            compressed = _compressed_form(
                st, embedding_dim, dtype_bytes, compress_strategy,
                tt_rank, compress_rate, dense_bytes,
            )
            if compressed.device_bytes <= _COMPRESSED_FRACTION * budget_bytes:
                return compressed
        if st.skewed:
            hot_bytes = st.hot_rows * embedding_dim * dtype_bytes
            if hot_bytes <= _DENSE_FRACTION * budget_bytes:
                return _server(
                    st, hot_bytes, dense_bytes - hot_bytes,
                    f"hot {st.hot_fraction:.0%} of rows carries "
                    f"{st.hot_mass:.0%} of accesses",
                )
        per_shard = row_shard_device_bytes(
            [st.num_rows], num_devices, embedding_dim, dtype_bytes
        )
        if per_shard <= _SHARD_FRACTION * budget_bytes:
            return _server(
                st, per_shard, dense_bytes,
                f"mod-{num_devices} shard block {per_shard / 1e6:.2f} MB "
                f"within {_SHARD_FRACTION:.0%} of budget",
            )
        return _server(
            st, 0, dense_bytes,
            f"dense {dense_bytes / 1e9:.2f} GB overflows to host",
        )

    return ModelPlan(
        policy="fixed_fraction",
        tables=tuple(decide(st) for st in ordered),
        budget_bytes=int(budget_bytes),
        embedding_dim=int(embedding_dim),
        dtype_bytes=dtype_bytes,
        num_devices=int(num_devices),
    )


def _compressed_form(
    st: TableStats,
    embedding_dim: int,
    dtype_bytes: int,
    compress_strategy: str,
    tt_rank: int,
    compress_rate: float,
    dense_bytes: int,
) -> TablePlan:
    """The table in :func:`plan_fixed_fraction`'s compressed on-device form."""
    params: Dict[str, SpecParamValue]
    if compress_strategy == "tt":
        params, what = {"tt_rank": tt_rank}, ""
    elif compress_strategy == "hash":
        buckets = default_hash_buckets(st.num_rows, compress_rate)
        params, what = {"num_buckets": buckets}, f"hash to {buckets} buckets"
    elif compress_strategy == "robe":
        size = default_robe_size(st.num_rows, embedding_dim, compress_rate)
        params, what = {"array_size": size}, f"ROBE array of {size} weights"
    else:
        m = default_pq_subspaces(embedding_dim)
        k = default_pq_codes(st.num_rows, m)
        params = {"num_subspaces": m, "num_codes": k}
        what = f"PQ {m}x{k} codebooks"
    entry = _worker(
        st, STRATEGY_KINDS[compress_strategy], embedding_dim, dtype_bytes,
        "", **params,
    )
    dense_mb, mb = dense_bytes / 1e6, entry.device_bytes / 1e6
    return replace(
        entry,
        reason=(
            f"{what} ({mb:.2f} MB of {dense_mb:.2f} MB)"
            if what
            else f"TT rank {tt_rank} compresses {dense_mb:.2f} MB to {mb:.2f} MB"
        ),
    )


# ---------------------------------------------------------------------------
# policy 3: one global rate, bisected until the total fits (Hetu-style)
# ---------------------------------------------------------------------------


def _params_for_target(
    strategy: str,
    num_rows: int,
    embedding_dim: int,
    target_bytes: int,
    dtype_bytes: int,
) -> Dict[str, SpecParamValue]:
    """Largest-parameter configuration of ``strategy`` within target.

    When even the minimal configuration exceeds the target, the minimal
    one is returned (the outer search marks the plan infeasible if the
    total still busts the budget).
    """
    if strategy == "dense":
        return {}
    if strategy == "tt":
        rank = binary_search_max(
            1,
            _MAX_TT_RANK,
            lambda r: table_bytes(
                "eff_tt", num_rows, embedding_dim, dtype_bytes, tt_rank=r
            )
            <= target_bytes,
        )
        return {"tt_rank": 1 if rank is None else rank}
    if strategy == "hash":
        row_bytes = embedding_dim * dtype_bytes
        return {
            "num_buckets": int(max(1, min(num_rows, target_bytes // row_bytes)))
        }
    if strategy == "robe":
        return {
            "array_size": int(
                max(
                    1,
                    min(num_rows * embedding_dim, target_bytes // dtype_bytes),
                )
            )
        }
    # pq: the int32 code table costs num_rows * M * 4 bytes no matter
    # how small the codebooks get, so the search walks M down the
    # divisors of the dim (largest = finest quantization first) and
    # takes the first subspace count whose floor fits the target.
    # Within that M, K^M >= rows already gives every row a distinct
    # code tuple; larger codebooks buy nothing (ceil-cube capacity
    # rule).
    divisors = [
        m
        for m in range(default_pq_subspaces(embedding_dim), 0, -1)
        if embedding_dim % m == 0
    ]
    codebook_row_bytes = embedding_dim * dtype_bytes  # summed over m
    chosen_m, chosen_k = divisors[-1], 1  # minimal fallback
    for m in divisors:
        floor = table_bytes(
            "pq", num_rows, embedding_dim, dtype_bytes,
            num_subspaces=m, num_codes=1,
        )
        if floor > target_bytes:
            continue
        capacity = max(ceil_balanced_factors(num_rows, m))
        chosen_m = m
        chosen_k = max(
            1,
            min(capacity, 1 + (target_bytes - floor) // codebook_row_bytes),
        )
        break
    return {"num_subspaces": chosen_m, "num_codes": int(chosen_k)}


def _choose_strategy(
    st: TableStats, embedding_dim: int, target_bytes: int, dtype_bytes: int
) -> str:
    """``auto``: first match wins.

    Dense if it fits the table's byte target; ``tt`` for a skewed table
    (exact: hot rows never alias); ``hash`` when under half the rows
    were ever seen (dead rows collide harmlessly); ``pq`` from 65,536
    rows if its code table fits (per-row cost is one int32 tuple);
    otherwise ``robe``.
    """
    if st.num_rows * embedding_dim * dtype_bytes <= target_bytes:
        return "dense"
    if st.skewed:
        return "tt"
    if st.unique_fraction < 0.5:
        return "hash"
    if st.num_rows >= _PQ_ROWS_THRESHOLD and table_bytes(
        "pq", st.num_rows, embedding_dim, dtype_bytes,
        num_subspaces=default_pq_subspaces(embedding_dim), num_codes=1,
    ) <= target_bytes:
        return "pq"
    return "robe"


def plan_under_budget(
    stats: Sequence[TableStats],
    embedding_dim: int,
    budget_bytes: int,
    strategy: str = "auto",
) -> ModelPlan:
    """The largest global rate whose plan fits ``budget_bytes`` in total.

    An outer bisection over one compression-rate knob ``r`` — each
    table's byte target is ``dense_bytes * r`` — with an inner per-table
    parameter search (largest TT rank / bucket count / ROBE array /
    PQ codebook within the target).  Footprints are monotone in ``r``,
    so the bisection is sound.  ``strategy`` is ``"auto"`` (per table,
    see :func:`_choose_strategy`) or one :data:`STRATEGY_KINDS` name
    forced on every table.  When even the minimal parameters bust the
    budget the minimal plan is returned with ``feasible == False``.
    """
    if strategy != "auto" and strategy not in STRATEGY_KINDS:
        raise ValueError(
            f"strategy must be 'auto' or one of {tuple(STRATEGY_KINDS)}, "
            f"got {strategy!r}"
        )
    ordered = _check_inputs(stats, embedding_dim, budget_bytes)
    dtype_bytes = _DTYPE_BYTES

    def plan_at(rate: float) -> List[TablePlan]:
        tables = []
        for st in ordered:
            target = int(st.num_rows * embedding_dim * dtype_bytes * rate)
            chosen = (
                _choose_strategy(st, embedding_dim, target, dtype_bytes)
                if strategy == "auto"
                else strategy
            )
            tables.append(
                _worker(
                    st, STRATEGY_KINDS[chosen], embedding_dim, dtype_bytes,
                    f"'{chosen}' within {target:,} B",
                    **_params_for_target(
                        chosen, st.num_rows, embedding_dim, target,
                        dtype_bytes,
                    ),
                )
            )
        return tables

    def total_at(rate: float) -> int:
        return sum(t.device_bytes for t in plan_at(rate))

    if total_at(1.0) <= budget_bytes:
        best_rate = 1.0
    elif total_at(0.0) > budget_bytes:
        best_rate = 0.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(_RATE_ITERS):
            mid = (lo + hi) / 2.0
            if total_at(mid) <= budget_bytes:
                lo = mid
            else:
                hi = mid
        best_rate = lo
    return ModelPlan(
        policy="under_budget",
        tables=tuple(plan_at(best_rate)),
        budget_bytes=int(budget_bytes),
        embedding_dim=int(embedding_dim),
        dtype_bytes=dtype_bytes,
        rate=best_rate,
    )


# ---------------------------------------------------------------------------
# plan -> bags
# ---------------------------------------------------------------------------


def build_bags(
    plan: ModelPlan,
    seeds: Sequence[RngLike],
    dtype: DTypeLike = DEFAULT_DTYPE,
) -> List[EmbeddingBagBase]:
    """The bag list a :class:`~repro.models.dlrm.DLRM` takes, from a plan.

    Worker tables become ``build_bag(kind, rows, dim, seed=seeds[i],
    dtype=dtype, **params)``; server tables become parameter-less
    :class:`~repro.system.parameter_server.HostBackedEmbeddingBag`
    views, numbered behind the server in :meth:`ModelPlan.server_positions`
    order.  ``seeds`` has one entry per table, in plan order; ``dtype``
    is the model's (``DLRMConfig.dtype``).
    """
    # system.parameter_server imports embeddings.base, which runs this
    # package's __init__ (and so this module) first.
    from repro.system.parameter_server import HostBackedEmbeddingBag

    if len(seeds) != len(plan.tables):
        raise ValueError(
            f"expected {len(plan.tables)} seeds, got {len(seeds)}"
        )
    return [
        HostBackedEmbeddingBag(entry.num_rows, plan.embedding_dim, dtype)
        if entry.on_server
        else build_bag(
            entry.kind,
            entry.num_rows,
            plan.embedding_dim,
            seed=seed,
            dtype=dtype,
            **entry.param_dict(),
        )
        for entry, seed in zip(plan.tables, seeds)
    ]
