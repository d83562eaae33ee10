"""Checkpoint save/load for DLRM models.

Serializes a model to a single ``.npz`` archive: the config as JSON,
every dense parameter, and every embedding bag's state (dense weights
or TT cores with their spec).  Deliberately framework-free so
checkpoints are portable and inspectable with plain NumPy.

Since format version 2 each bag also records its concrete *kind*
(``dense`` / ``tt`` / ``eff_tt``), so a checkpoint restores the exact
bag types even when they differ from what the config's
threshold rule would construct — the case for serving snapshots, where
host-resident parameter-server tables are materialized into local
dense bags (:mod:`repro.serving.snapshot`).  Version-1 checkpoints
(no kind tags) still load: a bag stored as cores is the config's TT
kind, one stored as a weight is dense, whatever rule picked them.

Format version 3 adds an integrity manifest: a ``__crc__`` entry
holding a per-array CRC32 map.  :func:`load_checkpoint` verifies every
entry against it and converts *any* low-level archive failure — a
truncated zip, a flipped byte, a missing member — into a
:class:`CheckpointCorruptError` with an actionable message, instead of
surfacing a raw numpy/zipfile traceback.  Older versions (no CRC map)
still load; they simply skip the per-array verification.

Format version 4 extends the kind tags to the compressed-embedding
zoo (``hash`` / ``robe`` / ``pq``): those bags store a ``bag{t}/spec``
JSON entry (their :class:`~repro.embeddings.protocol.CompressionSpec`,
including hash constants) plus their ``state_arrays()`` under
``bag{t}/{name}``, and restore bitwise through
:func:`~repro.embeddings.registry.build_bag_from_spec`.  The dense/TT
entry layout is unchanged from v3, so pre-existing checkpoints load
byte-for-byte identically.  Every kind and format restores the same
way: recover the bag's spec (the JSON entry, the TT shape arrays, or
nothing for dense), build it through the registry, then
``load_state_arrays``.

Format version 5 records the model's ``dtype`` in the config JSON, and
every parameter and bag is restored at it.  Earlier files carry no
``dtype``: they were written by float64 models and load at float64, so
they still restore bit for bit.

Host-backed bags (parameter-server tables) own no local state; their
weights live in the server and must be checkpointed there — attempting
to save a model containing one raises.
"""

from __future__ import annotations

import io
import json
import zipfile
import zlib
from typing import Dict, Union

import numpy as np

from repro.embeddings.protocol import CompressionSpec
from repro.embeddings.registry import BAG_CLASSES, build_bag_from_spec
from repro.models.config import DLRMConfig, EmbeddingBackend
from repro.models.dlrm import DLRM

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointCorruptError",
    "entry_crc32",
]

_FORMAT_VERSION = 5
_READABLE_VERSIONS = (1, 2, 3, 4, 5)
#: The dtype of a model written before format v5 recorded one.
_LEGACY_DTYPE = "float64"
#: Archive members excluded from the CRC map (the map itself).
_UNCHECKED_ENTRIES = ("__crc__",)


class CheckpointCorruptError(RuntimeError):
    """A checkpoint archive is truncated, tampered with, or unreadable.

    Raised instead of the underlying ``zipfile``/``numpy``/``json``
    error so callers (the parameter-server supervisor, the serving
    hot-swap path) can treat "this snapshot is bad, fall back to an
    older one" as a single well-defined condition.
    """


def entry_crc32(value: np.ndarray) -> int:
    """Stable CRC32 of one archive entry.

    Numeric arrays hash their raw little-endian bytes; object arrays
    (the JSON metadata strings and bag-kind tags) hash their string
    contents, since ``tobytes`` on an object array would hash pointer
    values.
    """
    arr = np.asarray(value)
    if arr.dtype == object:
        payload = "\x00".join(str(item) for item in arr.reshape(-1))
        return zlib.crc32(payload.encode("utf-8"))
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


#: Kinds whose spec is stored as one JSON entry (v4).  Dense needs no
#: spec and the TT kinds keep their v2/v3 layout (three shape arrays
#: plus the cores), so pre-existing checkpoints stay byte-stable.
_SPEC_KINDS = ("hash", "robe", "pq")
_TT_KINDS = ("tt", "eff_tt")


def _config_to_json(config: DLRMConfig) -> str:
    return json.dumps(
        {
            "num_dense": config.num_dense,
            "table_rows": list(config.table_rows),
            "embedding_dim": config.embedding_dim,
            "bottom_mlp": list(config.bottom_mlp),
            "top_mlp": list(config.top_mlp),
            "backend": config.backend.value,
            "tt_rank": config.tt_rank,
            "tt_threshold_rows": config.tt_threshold_rows,
            "compress_rate": config.compress_rate,
            "dtype": config.dtype.name,
        }
    )


def _config_from_json(payload: str) -> DLRMConfig:
    raw = json.loads(payload)
    return DLRMConfig(
        num_dense=raw["num_dense"],
        table_rows=tuple(raw["table_rows"]),
        embedding_dim=raw["embedding_dim"],
        bottom_mlp=tuple(raw["bottom_mlp"]),
        top_mlp=tuple(raw["top_mlp"]),
        backend=EmbeddingBackend(raw["backend"]),
        tt_rank=raw["tt_rank"],
        tt_threshold_rows=raw["tt_threshold_rows"],
        # Absent in checkpoints written before format v4.
        compress_rate=raw.get("compress_rate", 0.25),
        # Absent before format v5, whose writers were all float64.
        dtype=raw.get("dtype", _LEGACY_DTYPE),
    )


def save_checkpoint(model: DLRM, path: Union[str, "io.IOBase"]) -> None:
    """Write the model's config and all parameters to ``path`` (.npz)."""
    arrays: Dict[str, np.ndarray] = {
        "__meta__": np.array(
            [json.dumps({"version": _FORMAT_VERSION})], dtype=object
        ),
        "__config__": np.array([_config_to_json(model.config)], dtype=object),
    }
    for name, param in model.named_parameters():
        arrays[f"param/{name}"] = param.data
    for t, bag in enumerate(model.embedding_bags):
        kind = bag.compression_spec().kind
        if kind not in BAG_CLASSES:
            raise TypeError(
                f"bag {t} ({type(bag).__name__}) has no local parameters "
                "to checkpoint; persist its parameter-server state instead"
            )
        arrays[f"bag{t}/kind"] = np.array([kind], dtype=object)
        if kind in _TT_KINDS:
            spec = bag.spec
            arrays[f"bag{t}/row_shape"] = np.asarray(spec.row_shape)
            arrays[f"bag{t}/col_shape"] = np.asarray(spec.col_shape)
            arrays[f"bag{t}/ranks"] = np.asarray(spec.ranks)
            # cores only: optimizer state is not part of a model
            # checkpoint (a restored Eff-TT bag trains with sgd)
            for k, core in enumerate(bag.tt.cores):
                arrays[f"bag{t}/core{k}"] = core
            continue
        if kind in _SPEC_KINDS:
            arrays[f"bag{t}/spec"] = np.array(
                [bag.compression_spec().to_json()], dtype=object
            )
        for name, value in sorted(bag.state_arrays().items()):
            arrays[f"bag{t}/{name}"] = value
    crc_map = {
        name: entry_crc32(value) for name, value in sorted(arrays.items())
    }
    arrays["__crc__"] = np.array([json.dumps(crc_map)], dtype=object)
    np.savez_compressed(path, **arrays)


def _restore_bag(archive, t: int, kind: str, config: DLRMConfig):
    """Build a bag of an explicit kind from its stored state."""
    rows, dim = config.table_rows[t], config.embedding_dim
    if kind in _SPEC_KINDS:
        try:
            spec = CompressionSpec.from_json(str(archive[f"bag{t}/spec"][0]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"bag {t} spec entry is unreadable: {exc}"
            ) from exc
        if spec.kind != kind or (spec.num_embeddings, spec.embedding_dim) != (
            rows,
            dim,
        ):
            raise ValueError(
                f"bag {t} spec {spec.kind!r} "
                f"({spec.num_embeddings}, {spec.embedding_dim}) does not "
                f"match kind {kind!r} ({rows}, {dim})"
            )
    elif kind in _TT_KINDS:
        spec = CompressionSpec.create(
            kind,
            rows,
            dim,
            {
                "row_shape": tuple(int(m) for m in archive[f"bag{t}/row_shape"]),
                "col_shape": tuple(int(n) for n in archive[f"bag{t}/col_shape"]),
                "tt_rank": tuple(int(r) for r in archive[f"bag{t}/ranks"]),
            },
        )
    elif kind == "dense":
        spec = CompressionSpec.create(kind, rows, dim)
    else:
        raise ValueError(f"bag {t} has unknown kind {kind!r}")
    bag = build_bag_from_spec(spec, seed=0, dtype=config.dtype)
    try:
        bag.load_state_arrays(
            {
                name: archive[f"bag{t}/{name}"]
                for name in sorted(bag.state_arrays())
            }
        )
    except ValueError as exc:
        raise ValueError(f"bag {t} state mismatch: {exc}") from exc
    return bag


class _VerifiedReader:
    """Read-side view of an open ``.npz`` archive with integrity checks.

    Every entry fetched through ``[]`` is CRC32-verified against the v3
    ``__crc__`` manifest (when present), and low-level decode failures
    (zlib errors on a flipped byte, truncated members, bad pickles in
    the object-dtype metadata) surface as :class:`CheckpointCorruptError`
    rather than whatever numpy/zipfile happened to raise.  ``KeyError``
    for a genuinely absent member still propagates — a *missing*
    parameter is a semantic mismatch, not archive corruption.
    """

    def __init__(self, archive: "np.lib.npyio.NpzFile") -> None:
        self._archive = archive
        self._crc: Dict[str, int] | None = None
        if "__crc__" in archive.files:
            raw = self._decode("__crc__")
            try:
                self._crc = {
                    str(k): int(v) for k, v in json.loads(str(raw[0])).items()
                }
            except (json.JSONDecodeError, IndexError, AttributeError,
                    TypeError, ValueError) as exc:
                raise CheckpointCorruptError(
                    f"checkpoint CRC manifest is unreadable: {exc}"
                ) from exc

    def _decode(self, key: str) -> np.ndarray:
        try:
            return self._archive[key]
        except KeyError:
            raise
        except Exception as exc:  # zlib.error, BadZipFile, UnpicklingError
            raise CheckpointCorruptError(
                f"checkpoint entry {key!r} failed to decode "
                f"({type(exc).__name__}: {exc}); the archive is likely "
                "truncated or corrupted"
            ) from exc

    def __contains__(self, key: str) -> bool:
        return key in self._archive.files

    def __getitem__(self, key: str) -> np.ndarray:
        value = self._decode(key)
        if self._crc is not None and key not in _UNCHECKED_ENTRIES:
            expected = self._crc.get(key)
            if expected is None:
                raise CheckpointCorruptError(
                    f"checkpoint entry {key!r} is absent from the CRC "
                    "manifest; the archive was tampered with or mis-written"
                )
            actual = entry_crc32(value)
            if actual != expected:
                raise CheckpointCorruptError(
                    f"checkpoint entry {key!r} failed its CRC32 check "
                    f"(manifest {expected:#010x}, computed {actual:#010x})"
                )
        return value


def load_checkpoint(path) -> DLRM:
    """Rebuild a DLRM (config + parameters) from a checkpoint.

    Raises :class:`CheckpointCorruptError` when the archive is
    truncated, has flipped bytes, or carries a damaged manifest.
    """
    try:
        raw_archive = np.load(path, allow_pickle=True)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise CheckpointCorruptError(
            f"checkpoint archive unreadable ({type(exc).__name__}: {exc})"
        ) from exc
    with raw_archive as npz:
        archive = _VerifiedReader(npz)
        try:
            meta = json.loads(str(archive["__meta__"][0]))
            version = meta.get("version")
        except KeyError as exc:
            raise CheckpointCorruptError(
                "checkpoint has no __meta__ entry; not a repro checkpoint "
                "or the archive lost members"
            ) from exc
        except (json.JSONDecodeError, AttributeError) as exc:
            raise CheckpointCorruptError(
                f"checkpoint metadata is unreadable: {exc}"
            ) from exc
        if version not in _READABLE_VERSIONS:
            raise ValueError(
                f"unsupported checkpoint version {version!r}"
            )
        config = _config_from_json(str(archive["__config__"][0]))
        bags = []
        for t in range(config.num_tables):
            kind_key = f"bag{t}/kind"
            if kind_key in archive:
                # v2: the stored kind is authoritative — rebuild the bag
                # exactly as checkpointed (it may differ from what the
                # config's threshold rule constructs, and TT-SVD warm
                # starts may have achieved lower ranks than requested).
                kind = str(archive[kind_key][0])
            else:
                # v1 carries no tags, and the rule that picked the kind
                # is the writer's, not today's backend_for_table: the
                # stored arrays say which bag they are (v1 predates the
                # zoo, so cores are the config's TT kind).
                kind = (
                    config.backend.value
                    if f"bag{t}/core0" in archive
                    else "dense"
                )
            bags.append(_restore_bag(archive, t, kind, config))
        # Each bag is built once, from its stored kind and spec, and
        # handed in; the model constructs only its MLPs.
        model = DLRM(config, seed=0, embedding_bags=bags)
        for name, param in model.named_parameters():
            key = f"param/{name}"
            if key not in archive:
                raise KeyError(f"checkpoint missing parameter {name!r}")
            stored = archive[key]
            if stored.shape != param.data.shape:
                raise ValueError(
                    f"parameter {name!r} shape mismatch: checkpoint "
                    f"{stored.shape} vs model {param.data.shape}"
                )
            param.data = np.asarray(stored, dtype=param.data.dtype)
        return model
