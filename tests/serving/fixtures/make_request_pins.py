"""Writer of ``request_pins.json``: the request streams and micro-batches
serving produced while a request still held one array per table.

Ran once at commit dac04ce, the parent of the change that stores a
request's ids as one row, against a checkout of that commit:

    PYTHONPATH=<parent>/src python make_request_pins.py request_pins.json

Each pinned stream is ``RequestGenerator(spec, 8000, seed).generate(n)``
and is pinned twice:

* ``requests``: a sha256 over every request's id, arrival time, dense
  features and each table's ids, in stream order;
* ``batches``: a sha256 over the :func:`coalesce_requests` batch of
  every window in :data:`WINDOWS` (consecutive, cycling through the
  sizes): batch id, dense block, and each table's ids and offsets.

Every array is hashed with its dtype and shape, so a format change
that keeps the values but not their representation still shows.
``tests/serving/test_request_pins.py`` recomputes both and compares.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from typing import Dict, Iterator, List

import numpy as np

RATE = 8000.0
NUM_REQUESTS = 3000
#: Micro-batch sizes, cycled over each stream.
WINDOWS = (1, 17, 5, 64, 2, 33)
STREAMS = {
    "criteo_kaggle": {"scale": 2e-3, "multi_hot": False, "seed": 35},
    "multi_hot": {"scale": 2e-3, "multi_hot": True, "seed": 36},
}


def stream(name: str) -> List[object]:
    """The pinned stream ``name``: kaggle tables, bags of 1-3 if multi-hot."""
    from repro.data.datasets import criteo_kaggle_like
    from repro.serving.requests import RequestGenerator

    params = STREAMS[name]
    spec = criteo_kaggle_like(scale=params["scale"])
    if params["multi_hot"]:
        spec = dataclasses.replace(
            spec,
            tables=tuple(
                dataclasses.replace(table, bag_size=1 + t % 3)
                for t, table in enumerate(spec.tables)
            ),
        )
    generator = RequestGenerator(spec, RATE, seed=params["seed"])
    return generator.generate(NUM_REQUESTS)


def _update(digest: "hashlib._Hash", array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def windows(requests: List[object]) -> Iterator[List[object]]:
    start, k = 0, 0
    while start < len(requests):
        size = WINDOWS[k % len(WINDOWS)]
        yield requests[start : start + size]
        start, k = start + size, k + 1


def request_digest(requests: List[object]) -> str:
    digest = hashlib.sha256()
    for r in requests:
        digest.update(f"{r.request_id}:{r.arrival_time!r}".encode())
        _update(digest, r.dense)
        for bag in r.sparse_indices:
            _update(digest, bag)
    return digest.hexdigest()


def batch_digest(requests: List[object]) -> str:
    from repro.serving.requests import coalesce_requests

    digest = hashlib.sha256()
    for window in windows(requests):
        batch = coalesce_requests(window)
        digest.update(f"{batch.batch_id}".encode())
        _update(digest, batch.dense)
        _update(digest, batch.labels)
        for idx, off in zip(batch.sparse_indices, batch.sparse_offsets):
            _update(digest, idx)
            _update(digest, off)
    return digest.hexdigest()


def pins() -> Dict[str, Dict[str, str]]:
    out = {}
    for name in STREAMS:
        requests = stream(name)
        out[name] = {
            "requests": request_digest(requests),
            "batches": batch_digest(requests),
        }
    return out


def main(out_path: str) -> None:
    with open(out_path, "w") as fh:
        json.dump(pins(), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
