"""Deterministic online-traffic generator for the serving subsystem.

Production recommendation traffic has two defining statistics the
paper leans on: *arrival* times follow a Poisson process (independent
users) and *content* follows the power-law access skew of Figure 4a.
:class:`RequestGenerator` reproduces both deterministically — the same
seed always yields the same timestamped request stream — so serving
experiments are bit-reproducible end to end, like the training
pipeline.

Each :class:`InferenceRequest` is one user's scoring call: a dense
feature vector plus one multi-hot index bag per sparse feature, i.e.
exactly one row of a training :class:`~repro.data.dataloader.Batch`
minus the label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataloader import Batch
from repro.data.datasets import DatasetSpec
from repro.data.synthetic import ZipfSampler
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

__all__ = [
    "InferenceRequest",
    "RequestGenerator",
    "coalesce_requests",
    "hot_rows_from_trace",
]


@dataclass(frozen=True)
class InferenceRequest:
    """One timestamped scoring request.

    Attributes
    ----------
    request_id:
        Position in the arrival stream (unique, increasing).
    arrival_time:
        Simulated arrival timestamp in seconds.
    dense:
        ``(num_dense,)`` numerical features.
    sparse_indices:
        One index bag per sparse feature (each a small 1-D array).
    """

    request_id: int
    arrival_time: float
    dense: np.ndarray
    sparse_indices: Tuple[np.ndarray, ...]

    @property
    def num_tables(self) -> int:
        return len(self.sparse_indices)


def coalesce_requests(requests: Sequence[InferenceRequest]) -> Batch:
    """Concatenate requests into one inference :class:`Batch`.

    Requests keep their order (FIFO within a micro-batch); labels are
    zeros since serving has none.  All requests must agree on table
    count — they come from one generator.

    Every table is built in one pass: one concatenation of all bags in
    request order, one ``(n, T)`` bag-length array, and one gather that
    regroups the ids table by table.  A micro-batch is a few hundred
    ids, so the cost is per call, not per id.  Each table's indices and
    offsets are views of one id array and one ``(T, n + 1)`` offsets
    array; both are read-only, so a recorded batch cannot change under
    a replay.
    """
    if not requests:
        raise ValueError("cannot coalesce zero requests")
    num_tables = requests[0].num_tables
    if any(r.num_tables != num_tables for r in requests):
        raise ValueError("requests disagree on sparse-feature count")
    dense = np.array([r.dense for r in requests])
    bags = [bag for r in requests for bag in r.sparse_indices]
    lengths = np.fromiter(map(len, bags), dtype=np.int64, count=len(bags))
    # Bag (r, t) starts at request_starts[r, t] in the request-major
    # concatenation; read table-major, bag (t, r) starts at
    # table_starts[t, r].  Each id moves by its bag's difference.
    request_starts = (np.cumsum(lengths) - lengths).reshape(-1, num_tables)
    by_table = lengths.reshape(-1, num_tables).T.ravel()
    table_starts = np.cumsum(by_table) - by_table
    shift = np.repeat(request_starts.T.ravel() - table_starts, by_table)
    ids = np.concatenate(bags)[shift + np.arange(shift.size)]
    offsets = np.zeros((num_tables, len(requests) + 1), dtype=np.int64)
    np.cumsum(by_table.reshape(num_tables, -1), axis=1, out=offsets[:, 1:])
    ids.setflags(write=False)
    offsets.setflags(write=False)
    return Batch(
        dense=dense,
        sparse_indices=np.split(ids, np.cumsum(offsets[:-1, -1])),
        sparse_offsets=list(offsets),
        labels=np.zeros(len(requests)),
        batch_id=requests[0].request_id,
    )


def hot_rows_from_trace(
    index_arrays: Sequence[np.ndarray], num_rows: int, count: int
) -> np.ndarray:
    """The ``count`` most frequently accessed rows of an observed trace.

    The profiling-pass alternative to :meth:`ZipfSampler.top_rows` for
    real traffic where the popularity permutation is unknown.  Ties
    break toward lower row ids (deterministic).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    counts = np.zeros(num_rows, dtype=np.int64)
    for arr in index_arrays:
        np.add.at(counts, np.asarray(arr, dtype=np.int64), 1)
    count = min(count, num_rows)
    if count == 0:
        return np.array([], dtype=np.int64)
    # stable sort on (-count, row_id): most frequent first, ties by id
    order = np.argsort(-counts, kind="stable")
    return np.sort(order[:count].astype(np.int64))


class RequestGenerator:
    """Poisson-arrival, Zipf-content request stream for a dataset schema.

    Parameters
    ----------
    spec:
        Dataset schema (tables provide cardinalities, bag sizes, and
        per-table skew exponents).
    rate:
        Mean arrival rate in requests/second (Poisson process:
        exponential inter-arrival times).
    seed:
        Master seed; the stream is a pure function of (spec, rate, seed).

    Examples
    --------
    >>> from repro.data.datasets import criteo_kaggle_like
    >>> gen = RequestGenerator(criteo_kaggle_like(scale=3e-5), rate=100.0)
    >>> reqs = gen.generate(5)
    >>> [r.request_id for r in reqs]
    [0, 1, 2, 3, 4]
    >>> reqs[0].arrival_time < reqs[-1].arrival_time
    True
    """

    def __init__(
        self,
        spec: DatasetSpec,
        rate: float,
        seed: int = 0,
    ) -> None:
        check_positive(rate, "rate")
        self.spec = spec
        self.rate = float(rate)
        self.seed = int(seed)
        self.samplers = [
            ZipfSampler(
                table.num_rows, alpha=table.alpha, scatter=True,
                seed=(seed, t),
            )
            for t, table in enumerate(spec.tables)
        ]

    @property
    def num_tables(self) -> int:
        return len(self.samplers)

    def generate(
        self, num_requests: int, start_time: float = 0.0
    ) -> List[InferenceRequest]:
        """Materialize the first ``num_requests`` requests of the stream."""
        if num_requests < 0:
            raise ValueError(
                f"num_requests must be >= 0, got {num_requests}"
            )
        rng = ensure_rng((self.seed, 0xA881))
        gaps = rng.exponential(1.0 / self.rate, size=num_requests)
        arrivals = start_time + np.cumsum(gaps)
        requests: List[InferenceRequest] = []
        for i in range(num_requests):
            dense = rng.normal(0.0, 1.0, size=self.spec.num_dense)
            bags = tuple(
                sampler.sample(table.bag_size, rng)
                for table, sampler in zip(self.spec.tables, self.samplers)
            )
            requests.append(
                InferenceRequest(
                    request_id=i,
                    arrival_time=float(arrivals[i]),
                    dense=dense,
                    sparse_indices=bags,
                )
            )
        return requests

    def hot_rows(
        self, table_idx: int, coverage: float
    ) -> Optional[np.ndarray]:
        """Top rows covering a fraction of the table (cache fill oracle).

        ``coverage`` is the fraction of *rows* materialized (the knob
        the serving bench sweeps); thanks to the Zipf skew a small row
        fraction covers a much larger access fraction.
        """
        if not 0.0 <= coverage <= 1.0:
            raise ValueError(
                f"coverage must be in [0, 1], got {coverage}"
            )
        sampler = self.samplers[table_idx]
        return sampler.top_rows(int(sampler.num_rows * coverage))
