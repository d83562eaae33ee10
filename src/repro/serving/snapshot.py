"""Training→serving model handoff (snapshot + hot swap).

A :class:`ModelSnapshot` is an immutable byte string holding a full
format-v2 checkpoint (:mod:`repro.models.serialization`): config, MLP
parameters, and every embedding bag's state with its concrete kind.
Freezing the snapshot as *bytes* rather than live arrays makes the
handoff protocol trivially safe: the trainer can keep mutating its
model the instant the snapshot is taken, and every ``materialize()``
call yields an independent model that nobody else can touch.  npz
round-trips float64 losslessly, so a materialized model's predictions
are bit-identical to the snapshotted one's.

:meth:`ModelSnapshot.from_trainer` bridges the parameter-server
topology to the serving one: host-resident tables (which own no local
weights) are materialized from the server's current state into plain
dense bags, so the snapshot is self-contained — a serving process
needs no parameter server.
"""

from __future__ import annotations

import io
from typing import Any, List

from repro.embeddings.base import EmbeddingBagBase
from repro.embeddings.protocol import CompressionSpec
from repro.embeddings.registry import build_bag_from_spec
from repro.models.dlrm import DLRM
from repro.models.serialization import load_checkpoint, save_checkpoint

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
                )
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
