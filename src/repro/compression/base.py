"""Payloads and their byte-accounting.

A compressor turns each row of a replica matrix into a :class:`Payload` —
the thing that actually crosses the (simulated) wire.  Payload subtypes
know their own wire size, which is how the library reproduces the
paper's traffic numbers:

* :class:`SharedMaskPayload` — the paper's scheme: the mask is derived
  from a coordinator seed on *both* sides, so only the ``≈N/c`` surviving
  values travel; **no index overhead** (Section II-B).
* :class:`IndexedPayload` — Top-k-style: values *and* their indices
  travel (used by TopK-PSGD and DCD-PSGD).

Since the parameter arena stores the whole cluster as one ``(n, N)``
replica matrix, compression runs **per round instead of per worker**:
the compressors take the matrix and return a :class:`BatchPayload` — one
payload per row plus the batched value/index arrays, so decompression and
error feedback stay matrix-shaped and keep the source dtype (a float32
round must not re-inflate into float64 and double the memory traffic the
simulation is modelling).  Each row equals, element for element, what
the per-row compressors of ``tests/reference/compressors.py`` build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

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


@dataclass
class IndexedPayload(Payload):
    """Sparse values with explicit indices (Top-k style)."""

    values: np.ndarray
    indices: np.ndarray

    def num_bytes(self) -> int:
        return self.values.size * BYTES_PER_VALUE + self.indices.size * BYTES_PER_INDEX


@dataclass
class BatchPayload(Payload):
    """One communication round's payloads for every row of a matrix.

    Row ``i``'s payload (``batch[i]``) is exactly what a per-row
    compressor would have built for ``matrix[i]`` — same values, indices
    and wire bytes — and is backed by the batched arrays:

    ``values``
        ``(n, k)`` value matrix whose rows back the per-row payloads
        (views — no per-row copies).
    ``indices``
        A shared ``(k,)`` index vector for shared-mask batches, or an
        ``(n, k)`` per-row index matrix for top-k batches.
    """

    payloads: List[Payload]
    values: np.ndarray
    indices: np.ndarray

    def __getitem__(self, index: int) -> Payload:
        return self.payloads[index]

    def num_bytes(self) -> int:
        """Total wire bytes across all rows."""
        return sum(payload.num_bytes() for payload in self.payloads)

    def row_bytes(self) -> List[int]:
        """Wire bytes per row (what each worker actually sends)."""
        return [payload.num_bytes() for payload in self.payloads]

    def to_dense(self, size: int) -> np.ndarray:
        """Materialize the whole batch as an ``(n, size)`` matrix, in the
        values' dtype: one scatter of the batched arrays."""
        dense = np.zeros((len(self.payloads), size), dtype=self.values.dtype)
        if self.indices.ndim == 1:
            dense[:, self.indices] = self.values
        else:
            np.put_along_axis(dense, self.indices, self.values, axis=1)
        return dense

    def dense_mean(self, size: int) -> np.ndarray:
        """``to_dense(size).mean(axis=0)`` bit for bit, without the ``(n,
        size)`` matrix: the all-reduce of a sparse round.

        NumPy sums axis 0 of an ``(n, size > 1)`` matrix as a row-order
        fold, where an unsent cell adds ``+0.0``.  So folding each row's
        values at its indices into ``+0.0`` in row order, then dividing
        as ``np.mean`` does, is exact when every sent value is finite and
        non-zero: no ``-0.0`` accumulator, no two NaNs whose sum's sign
        NumPy leaves to the code path.  Other batches, and ``size == 1``
        (summed pairwise), take the dense fold.
        """
        sent = self.values
        if (size < 2
                or not (sent.all() and np.isfinite(sent).all())):
            return self.to_dense(size).mean(axis=0)
        total = np.zeros(size, dtype=sent.dtype)
        shared = self.indices.ndim == 1
        for row, values in enumerate(sent):
            total[self.indices if shared else self.indices[row]] += values
        return np.true_divide(
            total, np.intp(len(self.payloads)), out=total, casting="unsafe"
        )


def check_compression_ratio(ratio: float) -> float:
    """The paper's ``c`` as a float; anything not ``>= 1`` (NaN
    included) raises, naming the value."""
    if not ratio >= 1:
        raise ValueError(f"compression_ratio must be >= 1, got {ratio}")
    return float(ratio)


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

