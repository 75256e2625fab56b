"""Compressor interface and payload byte-accounting.

A compressor turns a dense vector into a :class:`Payload` — the thing that
actually crosses the (simulated) wire.  Payload subtypes know their own
wire size, which is how the library reproduces the paper's traffic
numbers:

* :class:`SharedMaskPayload` — the paper's scheme: the mask is derived
  from a coordinator seed on *both* sides, so only the ``≈N/c`` surviving
  values travel; **no index overhead** (Section II-B).
* :class:`IndexedPayload` — Top-k-style: values *and* their indices
  travel (used by TopK-PSGD and DCD-PSGD).

Payloads preserve the numeric dtype of the values they carry:
``to_dense`` materializes in the source dtype (a float32 payload must not
silently re-inflate into float64 and double the memory traffic the
simulation is modelling).

Matrix-level API
----------------
Since the parameter arena stores the whole cluster as one ``(n, N)``
replica matrix, compression can run **per round instead of per worker**:
:meth:`Compressor.compress_matrix` takes the matrix and returns a
:class:`BatchPayload` — one payload per row, plus (for the vectorized
implementations) the batched value/index arrays so decompression and
error feedback stay matrix-shaped.  The base implementation loops over
rows calling :meth:`Compressor.compress`, so every compressor supports
the batched API; the concrete compressors override it with single-pass
vectorized selection that is element-for-element identical to the
per-row path (see ``tests/test_compression_batched.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

#: Bytes per uncompressed scalar.  The paper's systems exchange fp32
#: tensors, so traffic accounting uses 4 bytes/value regardless of the
#: simulation dtype (float64 is simulation-only precision; the float32
#: path makes compute match the accounting).
BYTES_PER_VALUE = 4
#: Bytes per transmitted index (uint32 covers all model sizes used here).
BYTES_PER_INDEX = 4


class Payload:
    """Base class for anything sent between peers."""

    def num_bytes(self) -> int:
        raise NotImplementedError

    def to_dense(self, size: int) -> np.ndarray:
        """Materialize as a dense vector of length ``size``.

        The result is in the payload's own dtype — decompression must not
        up-cast (a float32 round re-inflated to float64 would double the
        modelled memory traffic).
        """
        raise NotImplementedError


@dataclass
class SharedMaskPayload(Payload):
    """Masked values only — receiver regenerates the mask from the seed.

    ``indices`` are carried in-object for simulation convenience but do
    NOT count toward wire size: both end-points derive them from the
    shared seed (Algorithm 2, lines 6-7).
    """

    values: np.ndarray
    indices: np.ndarray
    mask_seed: int

    def num_bytes(self) -> int:
        return self.values.size * BYTES_PER_VALUE

    def to_dense(self, size: int) -> np.ndarray:
        dense = np.zeros(size, dtype=self.values.dtype)
        dense[self.indices] = self.values
        return dense


@dataclass
class IndexedPayload(Payload):
    """Sparse values with explicit indices (Top-k style)."""

    values: np.ndarray
    indices: np.ndarray

    def num_bytes(self) -> int:
        return self.values.size * BYTES_PER_VALUE + self.indices.size * BYTES_PER_INDEX

    def to_dense(self, size: int) -> np.ndarray:
        dense = np.zeros(size, dtype=self.values.dtype)
        dense[self.indices] = self.values
        return dense


@dataclass
class BatchPayload(Payload):
    """One communication round's payloads for every row of a matrix.

    Produced by :meth:`Compressor.compress_matrix`.  Row ``i``'s payload
    (``batch[i]``) is exactly what per-row ``compress`` would have built
    for ``matrix[i]`` — same values, indices and wire bytes — so callers
    that meter or ship individual payloads keep working unchanged.

    The vectorized compressors additionally attach the batched arrays:

    ``values``
        ``(n, k)`` value matrix whose rows back the per-row payloads
        (views — no per-row copies).
    ``indices``
        A shared ``(k,)`` index vector for shared-mask batches, or an
        ``(n, k)`` per-row index matrix for top-k batches.

    When both are present :meth:`to_dense` scatters the whole batch in
    one vectorized operation; otherwise it stacks the per-row payloads.
    """

    payloads: List[Payload]
    values: Optional[np.ndarray] = None
    indices: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.payloads)

    def __iter__(self) -> Iterator[Payload]:
        return iter(self.payloads)

    def __getitem__(self, index: int) -> Payload:
        return self.payloads[index]

    def num_bytes(self) -> int:
        """Total wire bytes across all rows."""
        return sum(payload.num_bytes() for payload in self.payloads)

    def row_bytes(self) -> List[int]:
        """Wire bytes per row (what each worker actually sends)."""
        return [payload.num_bytes() for payload in self.payloads]

    def to_dense(self, size: int) -> np.ndarray:
        """Materialize the whole batch as an ``(n, size)`` matrix.

        Row ``i`` equals ``self[i].to_dense(size)`` exactly; the batched
        arrays (when present) make this one scatter instead of ``n``.
        """
        if self.values is not None:
            dense = np.zeros((len(self.payloads), size), dtype=self.values.dtype)
            if self.indices.ndim == 1:
                dense[:, self.indices] = self.values
            else:
                np.put_along_axis(dense, self.indices, self.values, axis=1)
            return dense
        return np.stack(
            [payload.to_dense(size) for payload in self.payloads]
        ) if self.payloads else np.zeros((0, size))


def check_matrix(matrix: np.ndarray) -> np.ndarray:
    """Validate a ``(n, N)`` batch input (no copy for conforming arrays)."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D (n, N) matrix, got shape {matrix.shape}")
    return matrix


def record_batch_metrics(matrix: np.ndarray, batch: BatchPayload) -> None:
    """Account one round's compression savings in the metrics registry.

    ``compression.bytes_dense`` is what the round would have shipped
    uncompressed (``n·N`` values at wire width); ``bytes_wire`` is what
    the batch actually weighs; ``bytes_saved`` their difference.  No-op
    (one attribute read) when telemetry is off, and never touches the
    payloads' numeric content.
    """
    from repro import obs

    registry = obs.metrics()
    if registry is None:
        return
    dense = int(matrix.size) * BYTES_PER_VALUE
    wire = int(batch.num_bytes())
    registry.inc("compression.bytes_dense", float(dense))
    registry.inc("compression.bytes_wire", float(wire))
    registry.inc("compression.bytes_saved", float(dense - wire))


class Compressor:
    """Interface: ``compress`` a vector into a payload.

    ``ratio`` is the paper's ``c``: the expected dense/compressed size
    factor (1 = no compression).
    """

    @property
    def ratio(self) -> float:
        raise NotImplementedError

    def compress(self, vector: np.ndarray, round_index: int = 0) -> Payload:
        raise NotImplementedError

    def compress_matrix(
        self, matrix: np.ndarray, round_index: int = 0
    ) -> BatchPayload:
        """Compress every row of ``matrix`` for one round.

        Base implementation: loop over rows via :meth:`compress`
        (backward compatible for any third-party compressor).  Stateful
        compressors (RNG-driven selection) consume their streams in row
        order, so the loop and the vectorized overrides are
        interchangeable.
        """
        matrix = check_matrix(matrix)
        batch = BatchPayload(
            payloads=[self.compress(row, round_index) for row in matrix]
        )
        record_batch_metrics(matrix, batch)
        return batch
