"""Training→serving model handoff (snapshot + hot swap).

A :class:`ModelSnapshot` is an immutable byte string holding a full
checkpoint (:mod:`repro.models.serialization`): config, MLP
parameters, and every embedding bag's state with its concrete kind.
Freezing the snapshot as *bytes* rather than live arrays makes the
handoff protocol trivially safe: the trainer can keep mutating its
model the instant the snapshot is taken, and every ``materialize()``
call yields an independent model that nobody else can touch.  npz
stores every array at its own dtype and the config records the model's
(format v5), so a materialized model is at the snapshotted one's dtype
and its predictions are bit-identical to it.

Serving does not need independence, it needs the bytes once:
:meth:`ModelSnapshot.serving_model` materializes a snapshot a single
time per hot-row map, marks every array read-only, and hands that one
:class:`~repro.serving.server.ServingModel` to every caller (replica,
fleet run, swap install, fallback).  Serving keeps no per-call state
on it, so sharing it is safe; it is held by the snapshot object and
goes away with it.

:meth:`ModelSnapshot.from_trainer` bridges the parameter-server
topology to the serving one: host-resident tables (which own no local
weights) are materialized from the server's current state into plain
dense bags, so the snapshot is self-contained — a serving process
needs no parameter server.
"""

from __future__ import annotations

import io
from typing import Any, Dict, List, Optional, Tuple

from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.protocol import CompressionSpec
from repro.embeddings.registry import build_bag_from_spec
from repro.models.dlrm import DLRM
from repro.models.serialization import load_checkpoint, save_checkpoint
from repro.serving.server import HotRowMap, ServingModel, hot_rows_key

__all__ = ["ModelSnapshot"]


class ModelSnapshot:
    """Immutable, self-contained model state for serving handoff.

    Parameters
    ----------
    payload:
        Raw npz checkpoint bytes (as written by ``save_checkpoint``).
    version:
        Monotonic handoff version; the serving side stamps it onto
        every prediction made by this model.
    """

    def __init__(self, payload: bytes, version: int = 0) -> None:
        if not payload:
            raise ValueError("snapshot payload must be non-empty")
        self._payload = bytes(payload)
        self.version = int(version)
        #: The frozen serving state per hot-row map contents; lives and
        #: dies with the snapshot.
        self._serving: Dict[Tuple[Any, ...], ServingModel] = {}

    # -- capture -------------------------------------------------------
    @classmethod
    def from_model(cls, model: DLRM, version: int = 0) -> "ModelSnapshot":
        """Snapshot a standalone model (no parameter server)."""
        buffer = io.BytesIO()
        save_checkpoint(model, buffer)
        return cls(buffer.getvalue(), version=version)

    @classmethod
    def from_trainer(cls, trainer: Any, version: int = 0) -> "ModelSnapshot":
        """Snapshot a PS trainer's current model for serving.

        Host-resident tables are materialized from the parameter
        server's current weights into dense bags; local (TT / dense)
        bags are captured as-is.  Take the snapshot *between* ``train``
        calls — the trainers drain their gradient queues on return, so
        the host state is consistent there.
        """
        model = trainer.model
        bags: List[EmbeddingBagBase] = []
        for t, bag in enumerate(model.embedding_bags):
            server_idx = trainer.host_table_map.get(t)
            if server_idx is None:
                bags.append(bag)
                continue
            dense = build_bag_from_spec(
                CompressionSpec.create(
                    "dense", bag.num_embeddings, bag.embedding_dim
                ),
                dtype=model.config.dtype,
            )
            dense.load_state_arrays(
                {"weight": trainer.server.tables[server_idx]}
            )
            bags.append(dense)
        # Assemble a standalone model sharing the trainer's arrays;
        # save_checkpoint only reads them, and the npz copy freezes the
        # state, so the trainer may resume immediately afterwards.
        standalone = DLRM(model.config, seed=0, embedding_bags=bags)
        for (_, src), (_, dst) in zip(
            model.named_parameters(), standalone.named_parameters()
        ):
            dst.data = src.data
        return cls.from_model(standalone, version=version)

    # -- restore -------------------------------------------------------
    def materialize(self) -> DLRM:
        """Rebuild an independent model from the frozen bytes."""
        return load_checkpoint(io.BytesIO(self._payload))

    def serving_model(self, hot_rows: Optional[HotRowMap]) -> ServingModel:
        """This snapshot's one frozen serving model for ``hot_rows``.

        The first call for a hot-row map (by contents) decodes the
        bytes and reconstructs the hot-row tables once, then marks every
        array read-only; that call and every later one for equal
        contents return the same :class:`ServingModel` object.
        Replicas, fleet runs, swap installs and fallbacks of one
        snapshot therefore share one copy of the immutable state.
        """
        key = hot_rows_key(hot_rows)
        shared = self._serving.get(key)
        if shared is None:
            shared = ServingModel(
                self.materialize(), hot_rows=hot_rows, version=self.version
            )
            shared.freeze()
            self._serving[key] = shared
        return shared

    # -- persistence ---------------------------------------------------
    def save(self, path: str) -> None:
        """Write the snapshot; the file is a standard .npz checkpoint."""
        with open(path, "wb") as handle:
            handle.write(self._payload)

    @classmethod
    def load(cls, path: str, version: int = 0) -> "ModelSnapshot":
        with open(path, "rb") as handle:
            return cls(handle.read(), version=version)

    @property
    def nbytes(self) -> int:
        return len(self._payload)

    def __repr__(self) -> str:
        return (
            f"ModelSnapshot(version={self.version}, "
            f"nbytes={self.nbytes})"
        )
