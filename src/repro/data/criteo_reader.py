"""Reader for the Criteo click-log TSV format.

The reproduction trains on synthetic streams, but users with the real
Criteo Kaggle / Terabyte files (or Avazu exported to the same layout)
can feed them directly: each line is

``label \\t I1 ... I13 \\t C1 ... C26``

with integer (possibly empty/negative) dense features and 8-hex-digit
categorical hashes; empty fields are missing values.  The reader
yields :class:`~repro.data.dataloader.Batch` objects after applying the
:mod:`repro.data.preprocess` transforms, exactly the NVTabular role in
the paper's setup (§VI-A).
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from repro.data.dataloader import Batch
from repro.data.preprocess import CategoryEncoder, DenseNormalizer
from repro.utils.validation import check_positive

__all__ = ["CriteoTSVReader", "parse_criteo_lines"]


def _open(source: Union[str, Path, TextIO]) -> TextIO:
    if hasattr(source, "read"):
        return source  # type: ignore[return-value]
    path = Path(source)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"))
    return open(path, "r")


def parse_criteo_lines(
    lines: Sequence[str],
    num_dense: int = 13,
    num_sparse: int = 26,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Parse raw TSV lines into ``(labels, dense, sparse_columns)``.

    Missing dense fields become 0 (clamped later by the log transform);
    missing categorical fields become the sentinel token ``0`` (which
    the frequency-threshold encoder maps to OOV anyway).  Categorical
    hex strings parse as base-16 integers.

    Raises
    ------
    ValueError
        On a line with the wrong field count.
    """
    num_fields = 1 + num_dense + num_sparse
    # Data stays float64; the model casts a batch to its dtype once, on intake.
    labels = np.empty(len(lines), dtype=np.float64)
    dense = np.zeros((len(lines), num_dense), dtype=np.float64)
    sparse = np.zeros((len(lines), num_sparse), dtype=np.int64)
    for row, line in enumerate(lines):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != num_fields:
            raise ValueError(
                f"line {row}: expected {num_fields} tab-separated fields, "
                f"got {len(fields)}"
            )
        labels[row] = float(fields[0])
        for j in range(num_dense):
            value = fields[1 + j]
            dense[row, j] = float(value) if value else 0.0
        for j in range(num_sparse):
            token = fields[1 + num_dense + j]
            sparse[row, j] = int(token, 16) if token else 0
    return labels, dense, [sparse[:, j] for j in range(num_sparse)]


class CriteoTSVReader:
    """Streaming Criteo reader with fitted preprocessing.

    Two-phase use mirroring NVTabular: :meth:`fit` scans a sample of
    the file to build per-feature vocabularies and dense statistics;
    :meth:`batches` then streams encoded :class:`Batch` objects.

    Parameters
    ----------
    num_dense, num_sparse:
        Schema (13/26 for Criteo; pass 1/20 for Avazu-format exports).
    min_frequency:
        Categorify frequency threshold (the paper's preprocessing).
    max_cardinality:
        Optional per-feature vocabulary cap.
    """

    def __init__(
        self,
        num_dense: int = 13,
        num_sparse: int = 26,
        min_frequency: int = 2,
        max_cardinality: Optional[int] = None,
    ) -> None:
        check_positive(num_dense, "num_dense")
        check_positive(num_sparse, "num_sparse")
        self.num_dense = int(num_dense)
        self.num_sparse = int(num_sparse)
        self.encoders = [
            CategoryEncoder(
                min_frequency=min_frequency, max_cardinality=max_cardinality
            )
            for _ in range(self.num_sparse)
        ]
        self.normalizer = DenseNormalizer()
        self._fitted = False

    # -- phase 1 ---------------------------------------------------------
    def fit(
        self,
        source: Union[str, Path, TextIO],
        max_lines: Optional[int] = None,
        chunk_lines: int = 8192,
    ) -> "CriteoTSVReader":
        """Scan (a prefix of) the file and fit the transforms."""
        handle = _open(source)
        seen = 0
        while True:
            chunk = []
            for line in handle:
                chunk.append(line)
                seen += 1
                if len(chunk) >= chunk_lines or (
                    max_lines is not None and seen >= max_lines
                ):
                    break
            if not chunk:
                break
            _, dense, sparse_cols = parse_criteo_lines(
                chunk, self.num_dense, self.num_sparse
            )
            self.normalizer.partial_fit(dense)
            for enc, col in zip(self.encoders, sparse_cols):
                enc.partial_fit(col)
            if max_lines is not None and seen >= max_lines:
                break
        self.normalizer.finalize()
        for enc in self.encoders:
            enc.finalize()
        self._fitted = True
        return self

    @property
    def cardinalities(self) -> List[int]:
        """Encoded vocabulary size per sparse feature (incl. OOV)."""
        if not self._fitted:
            raise RuntimeError("reader not fitted; call fit() first")
        return [enc.cardinality for enc in self.encoders]

    # -- phase 2 ---------------------------------------------------------
    def encode_lines(self, lines: Sequence[str], batch_id: int = 0) -> Batch:
        """Encode raw TSV lines into one training batch."""
        if not self._fitted:
            raise RuntimeError("reader not fitted; call fit() first")
        labels, dense, sparse_cols = parse_criteo_lines(
            lines, self.num_dense, self.num_sparse
        )
        batch_size = len(lines)
        offsets = np.arange(batch_size + 1, dtype=np.int64)
        return Batch(
            dense=self.normalizer.transform(dense),
            sparse_indices=[
                enc.transform(col)
                for enc, col in zip(self.encoders, sparse_cols)
            ],
            sparse_offsets=[offsets] * self.num_sparse,
            labels=labels,
            batch_id=batch_id,
        )

    def batches(
        self,
        source: Union[str, Path, TextIO],
        batch_size: int = 4096,
        drop_last: bool = True,
    ) -> Iterator[Batch]:
        """Stream encoded batches from a TSV file."""
        check_positive(batch_size, "batch_size")
        handle = _open(source)
        buffer: List[str] = []
        batch_id = 0
        for line in handle:
            buffer.append(line)
            if len(buffer) == batch_size:
                yield self.encode_lines(buffer, batch_id)
                batch_id += 1
                buffer = []
        if buffer and not drop_last:
            yield self.encode_lines(buffer, batch_id)
