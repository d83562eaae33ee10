"""Crash-consistent trainer snapshots: atomic, checksummed, replayable.

The recovery contract (DESIGN.md §10) rests on one observation: the PS
trainers are Markov in their array state.  The worker's SGD carries no
momentum, the default EffTT optimizer is plain SGD, and
``SyntheticClickLog.batch(i)`` is deterministic random access — so a
trainer rebuilt from ``(model params, TT cores, dense bag weights,
server tables)`` at step *k* and trained on batches ``[k, n)`` produces
the **bitwise-identical** loss trajectory of an uninterrupted run.
This module captures exactly that array set.

Crash consistency comes from write-then-rename: a snapshot is staged to
``ckpt-<step>.npz.tmp`` and published with :func:`os.replace`, which is
atomic on POSIX.  A crash mid-write leaves a ``.tmp`` orphan that the
store never reads; a crash *after* publish leaves a complete archive.
Corruption that slips past the filesystem (flipped bytes at rest) is
caught at load time by the per-array CRC32 manifest embedded in the
archive, and :meth:`CheckpointStore.load_latest` falls back to the
newest snapshot that still verifies.

Torn and corrupted writes can also be *injected* on a
:class:`~repro.resilience.faults.FaultInjector`'s cue, which is how the
chaos suite proves the fallback path actually works.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.models.serialization import CheckpointCorruptError, entry_crc32
from repro.resilience.faults import FaultInjector, FaultKind
from repro.system.pipeline import _PSTrainerBase

__all__ = [
    "TrainerState",
    "CheckpointStore",
    "NoCheckpointError",
    "capture_trainer_arrays",
    "restore_trainer_arrays",
]

_STATE_VERSION = 1
_MANIFEST_KEY = "__manifest__"


class NoCheckpointError(RuntimeError):
    """The store holds no loadable snapshot (none written, or all bad)."""


@dataclass(frozen=True)
class TrainerState:
    """One verified snapshot: the step it was taken at plus its arrays."""

    step: int
    arrays: Dict[str, np.ndarray]


def capture_trainer_arrays(trainer: _PSTrainerBase) -> Dict[str, np.ndarray]:
    """Copy every array that determines the trainer's future.

    Covers dense MLP parameters (``param/<name>``), local embedding
    bags (each bag's ``state_arrays()`` under ``bag<t>/<name>`` — the
    :class:`~repro.embeddings.base.EmbeddingBagBase` surface:
    ``bag<t>/weight`` for dense/hash, ``bag<t>/core<k>`` plus optional
    ``bag<t>/adagrad<k>`` for TT, codebooks + codes for PQ), and the
    parameter server's state under a ``server/`` prefix, as named by
    the server's own ``state_arrays()`` — ``server/table<t>/shard<s>``
    for each shard's rows, plus ``server/ef<t>`` error-feedback
    residuals when top-k compression is on.  Host-backed bags own nothing
    local — their rows are a view into the server — so their
    ``state_arrays()`` is empty.
    """
    arrays: Dict[str, np.ndarray] = {}
    for name, param in trainer.model.named_parameters():
        arrays[f"param/{name}"] = np.array(param.data, copy=True)
    for t, bag in enumerate(trainer.model.embedding_bags):
        for name, value in sorted(bag.state_arrays().items()):
            arrays[f"bag{t}/{name}"] = np.array(value, copy=True)
    for name, array in sorted(trainer.server.state_arrays().items()):
        arrays[f"server/{name}"] = np.array(array, copy=True)
    return arrays


def restore_trainer_arrays(
    trainer: _PSTrainerBase, arrays: Dict[str, np.ndarray]
) -> None:
    """Load a captured array set into a freshly built trainer, in place.

    The trainer must be structurally identical to the one captured
    (same config, same host-table placement); every array is shape-
    checked before anything is written so a mismatch cannot leave the
    trainer half-restored.
    """
    writes: List[Tuple[np.ndarray, np.ndarray]] = []

    def stage(key: str, target: np.ndarray) -> None:
        if key not in arrays:
            raise KeyError(f"snapshot missing array {key!r}")
        stored = arrays[key]
        if stored.shape != target.shape:
            raise ValueError(
                f"snapshot array {key!r} shape mismatch: "
                f"{stored.shape} vs {target.shape}"
            )
        writes.append((target, np.asarray(stored, dtype=target.dtype)))

    for name, param in trainer.model.named_parameters():
        stage(f"param/{name}", param.data)
    for t, bag in enumerate(trainer.model.embedding_bags):
        # state_arrays() returns the live arrays, so staging them
        # writes the restored state in place.
        for name, value in sorted(bag.state_arrays().items()):
            stage(f"bag{t}/{name}", value)
    # The server validates its own arrays (shape-check before any
    # write), so staging model/bag arrays first then handing the
    # ``server/`` subset over keeps the all-or-nothing property.
    server_arrays = {}
    for name in trainer.server.state_arrays():
        key = f"server/{name}"
        if key not in arrays:
            raise KeyError(f"snapshot missing array {key!r}")
        server_arrays[name] = arrays[key]
    trainer.server.load_state_arrays(server_arrays)

    for target, stored in writes:
        target[...] = stored


class CheckpointStore:
    """Directory of atomic, CRC-checked ``ckpt-<step>.npz`` snapshots.

    Parameters
    ----------
    root:
        Directory for the snapshots (created if absent).
    keep_last:
        Retain at most this many *committed* snapshots; older ones are
        pruned after each successful save.  Keeping several is what
        makes corrupt-fallback possible.
    injector:
        Optional fault injector; when the plan schedules a TORN or
        CORRUPT checkpoint fault at the step being saved, the write is
        sabotaged accordingly.
    """

    def __init__(
        self,
        root: str,
        keep_last: int = 3,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.root = root
        self.keep_last = int(keep_last)
        self.injector = injector
        os.makedirs(root, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def _path(self, step: int) -> str:
        return os.path.join(self.root, f"ckpt-{step:08d}.npz")

    def steps(self) -> List[int]:
        """Steps of every *committed* snapshot, ascending."""
        out = []
        for name in os.listdir(self.root):
            if name.startswith("ckpt-") and name.endswith(".npz"):
                out.append(int(name[len("ckpt-"):-len(".npz")]))
        return sorted(out)

    # -- write ----------------------------------------------------------
    def save(self, step: int, arrays: Dict[str, np.ndarray]) -> bool:
        """Atomically publish a snapshot for ``step``.

        Returns ``True`` when a complete snapshot was committed, and
        ``False`` when an injected TORN fault left only a truncated
        ``.tmp`` behind (the crash-mid-write scenario).  An injected
        CORRUPT fault commits the rename and *then* flips a payload
        byte — the at-rest bit-rot scenario the CRC manifest exists to
        catch.
        """
        fault = None
        if self.injector is not None:
            fault = self.injector.checkpoint_fault(step)

        path = self._path(step)
        tmp = path + ".tmp"
        manifest = {
            "version": _STATE_VERSION,
            "step": int(step),
            "crc": {
                name: entry_crc32(arr)
                for name, arr in sorted(arrays.items())
            },
        }
        payload = dict(sorted(arrays.items()))
        payload[_MANIFEST_KEY] = np.array([json.dumps(manifest)], dtype=object)
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **payload)

        if fault is not None and fault.kind is FaultKind.TORN:
            # Crash mid-write: truncate the staged file and never
            # rename.  The committed store is untouched.
            with open(tmp, "r+b") as fh:
                fh.truncate(max(1, os.path.getsize(tmp) // 2))
            return False

        os.replace(tmp, path)

        if fault is not None and fault.kind is FaultKind.CORRUPT:
            # Bit-rot after commit: flip one byte inside the payload
            # region (past the zip local-file headers) so the archive
            # still opens but an entry fails its CRC.
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.seek(size // 2)
                byte = fh.read(1)
                fh.seek(size // 2)
                fh.write(bytes([byte[0] ^ 0xFF]))

        self.prune()
        return True

    def prune(self) -> None:
        """Drop committed snapshots beyond ``keep_last`` (oldest first)."""
        steps = self.steps()
        for step in steps[: max(0, len(steps) - self.keep_last)]:
            os.remove(self._path(step))

    # -- read -----------------------------------------------------------
    def load(self, step: int) -> TrainerState:
        """Load and CRC-verify the snapshot committed at ``step``.

        Raises :class:`CheckpointCorruptError` on any integrity
        failure and :class:`NoCheckpointError` when no snapshot for
        ``step`` exists.
        """
        path = self._path(step)
        if not os.path.exists(path):
            raise NoCheckpointError(f"no snapshot for step {step} in {self.root}")
        try:
            archive = np.load(path, allow_pickle=True)
        except Exception as exc:
            raise CheckpointCorruptError(
                f"snapshot {path!r} unreadable "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        with archive as npz:
            try:
                manifest = json.loads(str(npz[_MANIFEST_KEY][0]))
            except Exception as exc:
                raise CheckpointCorruptError(
                    f"snapshot {path!r} has a damaged manifest"
                ) from exc
            if manifest.get("version") != _STATE_VERSION:
                raise CheckpointCorruptError(
                    f"snapshot {path!r} has unsupported version "
                    f"{manifest.get('version')!r}"
                )
            crc_map = manifest.get("crc", {})
            arrays: Dict[str, np.ndarray] = {}
            names = [n for n in npz.files if n != _MANIFEST_KEY]
            if sorted(names) != sorted(crc_map):
                raise CheckpointCorruptError(
                    f"snapshot {path!r} entries do not match its manifest"
                )
            for name in names:
                try:
                    value = npz[name]
                except Exception as exc:
                    raise CheckpointCorruptError(
                        f"snapshot {path!r} entry {name!r} failed to "
                        f"decode ({type(exc).__name__})"
                    ) from exc
                actual = entry_crc32(value)
                if actual != int(crc_map[name]):
                    raise CheckpointCorruptError(
                        f"snapshot {path!r} entry {name!r} failed its "
                        f"CRC32 check"
                    )
                arrays[name] = value
        return TrainerState(step=int(manifest["step"]), arrays=arrays)

    def load_latest(self) -> Tuple[TrainerState, List[int]]:
        """Newest snapshot that verifies, plus the steps skipped as bad.

        Walks committed snapshots newest-first; corrupt ones are
        recorded and skipped.  Raises :class:`NoCheckpointError` when
        nothing verifies.
        """
        skipped: List[int] = []
        for step in reversed(self.steps()):
            try:
                return self.load(step), skipped
            except CheckpointCorruptError:
                skipped.append(step)
        raise NoCheckpointError(
            f"no verifiable snapshot in {self.root} "
            f"(corrupt: {skipped or 'none'})"
        )
