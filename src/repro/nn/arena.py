"""Zero-copy parameter arena: all worker replicas in one matrix.

The distributed algorithms treat the cluster state as the paper's matrix
``X = [x₁, …, xₙ] ∈ R^{n×N}``.  Historically each worker's model stored
its layers as separate arrays, so every round-trip through the flat
representation (`get_flat_params`/`set_flat_params`) concatenated and
re-split ``N`` floats per worker — pure memory traffic the real systems
never pay.

:class:`ParameterArena` stores the matrix *directly*: worker ``p``'s
replica is row ``p`` of one contiguous ``(n, N)`` array (float64 by
default, float32 via the ``dtype`` argument), and each layer's
:class:`~repro.nn.module.Parameter` ``data``/``grad`` becomes a reshaped
**view** into that row.  Consequences:

* ``get_flat_params`` is the row itself (zero-copy), ``set_flat_params``
  is one memcpy;
* gossip mixing, consensus reductions and all-reduce averaging become
  single vectorized matrix operations over ``arena.data`` /
  ``arena.grads`` (see the arena fast paths in ``repro.algorithms``);
* the replica matrix is also the natural input to the **matrix-level
  compression API** (:mod:`repro.compression`):
  per-round mask/top-k selection runs once over ``arena.data`` or
  ``arena.grads`` instead of once per worker vector;
* layer-wise forward/backward is untouched — layers keep operating on
  their (now view-backed) ``Parameter`` arrays.

At float64 numerics are bit-identical to the per-model layout: the same
values flow through the same elementwise operations, only the storage
layout and copy count change.  A float32 arena halves replica memory and
memory traffic (matching the fp32 tensors the measured systems exchange)
at the cost of reduced precision.  The distributed algorithms always
run on an arena (``DistributedAlgorithm.setup`` adopts workers that are
not rows of one yet); models outside any algorithm keep their plain
per-layer storage.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.module import Module
from repro.utils.dtypes import DTypeLike, resolve_dtype


class ParameterArena:
    """Contiguous ``(num_workers, model_size)`` parameter + gradient store.

    Attributes
    ----------
    data:
        The replica matrix ``X``; row ``p`` is worker ``p``'s flat model.
    grads:
        Same layout for accumulated gradients (the matrix ``G`` used by
        gradient-averaging algorithms).
    """

    def __init__(
        self, num_workers: int, model_size: int, dtype: DTypeLike = None
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if model_size < 0:
            raise ValueError(f"model_size must be >= 0, got {model_size}")
        self.num_workers = int(num_workers)
        self.model_size = int(model_size)
        self.dtype = resolve_dtype(dtype)
        self.data = np.zeros((num_workers, model_size), dtype=self.dtype)
        self.grads = np.zeros((num_workers, model_size), dtype=self.dtype)
        self._models: List[Optional[Module]] = [None] * num_workers

    # ------------------------------------------------------------------
    # model adoption
    # ------------------------------------------------------------------
    @classmethod
    def adopt_models(
        cls, models: Sequence[Module], dtype: DTypeLike = None
    ) -> "ParameterArena":
        """Build an arena sized for ``models`` and adopt each in rank order.

        ``dtype`` defaults to the models' own dtype; passing an explicit
        one makes the arena authoritative — adoption copies every
        parameter into the arena rows, casting once, so the bound views
        (and therefore the models) take the arena's dtype.
        """
        if not models:
            raise ValueError("need at least one model")
        if dtype is None:
            dtype = models[0].dtype
        arena = cls(len(models), models[0].num_parameters(), dtype=dtype)
        for rank, model in enumerate(models):
            arena.adopt(rank, model)
        return arena

    def adopt(self, rank: int, model: Module) -> None:
        """Move ``model``'s parameters into row ``rank``.

        Current values are copied in once; afterwards every
        ``Parameter.data`` / ``Parameter.grad`` of the model is a reshaped
        view of ``self.data[rank]`` / ``self.grads[rank]``, and the
        model's flat-vector API is zero-copy row access.
        """
        if not 0 <= rank < self.num_workers:
            raise ValueError(f"rank {rank} out of range [0, {self.num_workers})")
        if self._models[rank] is not None:
            raise ValueError(f"row {rank} already adopted a model")
        if model._arena is not None:
            raise ValueError("model is already bound to an arena")
        if model.num_parameters() != self.model_size:
            raise ValueError(
                f"model has {model.num_parameters()} parameters but arena "
                f"rows hold {self.model_size}"
            )
        row = self.data[rank]
        grad_row = self.grads[rank]
        for param, spec in zip(model.parameters(), model.flat_specs()):
            param.bind_views(
                row[spec.offset : spec.end].reshape(spec.shape),
                grad_row[spec.offset : spec.end].reshape(spec.shape),
            )
        model._flat_view = row
        model._flat_grad_view = grad_row
        model._arena = self
        model._arena_rank = rank
        self._models[rank] = model

    def model(self, rank: int) -> Optional[Module]:
        return self._models[rank]

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------

    def broadcast_row(self, source: int) -> None:
        """Overwrite every replica with row ``source`` (initial sync)."""
        self.data[...] = self.data[source]

    # ------------------------------------------------------------------
    # matrix reductions (the paper's consensus quantities)
    # ------------------------------------------------------------------
    def mean_model(self) -> np.ndarray:
        """``X̄ = X·1/n`` as one reduction (fresh array)."""
        return fold_mean(self.data)

    def consensus_distance(self) -> float:
        """``(1/n)Σᵢ‖xᵢ − x̄‖²``, one row block at a time."""
        return consensus_fold(self.data)[1]

    def mix(self, gossip: np.ndarray) -> None:
        """Apply one gossip step ``X ← W·X`` in a single matmul."""
        gossip = np.asarray(gossip, dtype=self.dtype)
        if gossip.shape != (self.num_workers, self.num_workers):
            raise ValueError(
                f"gossip matrix is {gossip.shape}, expected "
                f"({self.num_workers}, {self.num_workers})"
            )
        self.data[...] = gossip @ self.data


#: Byte budget of one row block of :func:`consensus_fold`: the most its
#: ``(rows, N)`` temporaries hold at once, never a copy of every row.
FOLD_BLOCK_BYTES = 1 << 20

#: Client rows for the fold: a ``(n, N)`` matrix, or a list of ``(N,)``
#: rows that live apart (a sharded arena's slots and writeback store).
Rows = Union[np.ndarray, List[np.ndarray]]


def _blocks(rows: Rows, itemsize: Optional[int] = None):
    """``rows`` as ``(k, N)`` arrays of at most :data:`FOLD_BLOCK_BYTES`
    at ``itemsize`` bytes a value (default: the rows'); a list's rows are
    copied together one block at a time."""
    if len(rows) == 0:
        return
    width = rows[0].size
    itemsize = itemsize or rows[0].itemsize
    size = max(1, FOLD_BLOCK_BYTES // (max(1, width) * itemsize))
    for start in range(0, len(rows), size):
        block = rows[start : start + size]
        if not isinstance(block, np.ndarray):
            # One flat copy: np.stack costs about four times as much a row.
            block = np.concatenate(block).reshape(len(block), width)
        yield block


def fold_mean(
    rows: Rows,
    cold: Optional[np.ndarray] = None,
    cold_count: int = 0,
    dtype: DTypeLike = None,
) -> np.ndarray:
    """Pass 1 of :func:`consensus_fold`: ``(Σᵢ xᵢ + cold_count·cold) / n``
    over ``n = len(rows) + cold_count`` clients, summed in ``dtype``
    (default: the rows' own).

    A matrix is one reduction down its rows, so its mean is
    ``rows.mean(axis=0)`` bit for bit; a list is summed block by block."""
    count = len(rows) + cold_count
    if count == 0:
        raise ValueError("no rows to average")
    if isinstance(rows, np.ndarray):
        total = rows.sum(axis=0, dtype=dtype)
    else:
        total = sum(
            (block.sum(axis=0, dtype=dtype) for block in _blocks(rows)), 0.0
        )
    if cold_count:
        total = total + cold_count * np.asarray(cold, dtype=dtype)
    return total / count


def consensus_fold(
    rows: Rows,
    center: Optional[np.ndarray] = None,
    cold: Optional[np.ndarray] = None,
    cold_count: int = 0,
    dtype: DTypeLike = None,
) -> Tuple[np.ndarray, float]:
    """``(x̄, (1/n) Σᵢ ‖xᵢ − x̄‖²)`` over ``n = len(rows) + cold_count``
    clients — the consensus distance Theorem 1 bounds — holding at most one
    row block of temporaries.

    ``cold_count`` further clients all sit at ``cold`` (a sharded arena's
    never-touched clients) and cost O(N).  Pass 1 is :func:`fold_mean`.
    Pass 2 writes each row's ``‖xᵢ − x̄‖²`` into a per-row vector one block
    at a time, through one reused block buffer, so a matrix's distance is
    ``np.mean(np.sum((X − x̄) ** 2, axis=1))`` bit for bit.  A given
    ``center`` replaces ``x̄`` and skips pass 1.  No clients: distance 0.
    """
    if center is None:
        center = fold_mean(rows, cold, cold_count, dtype)
    count = len(rows) + cold_count
    if count == 0:
        return center, 0.0
    diff_type = np.result_type(rows[0], center) if len(rows) else center.dtype
    per_row, at, buffer = np.empty(len(rows), diff_type), 0, None
    for block in _blocks(rows, center.itemsize):
        buffer = np.empty(block.shape, diff_type) if buffer is None else buffer
        diff = np.subtract(block, center, out=buffer[: len(block)])
        np.add.reduce(np.square(diff, out=diff), axis=1, out=per_row[at:at + len(block)])
        at += len(block)
    total = per_row.sum()
    if cold_count:
        total = total + cold_count * np.square(cold - center).sum()
    return center, float(total / count)


def shared_arena(models: Sequence[Module]) -> Optional[ParameterArena]:
    """The arena backing all of ``models`` at ranks ``0..n-1``, or ``None``.

    Matrix-level rounds index ``arena.data`` by worker rank, which is
    only sound when every worker is a distinct row of one arena, in rank
    order (:func:`repro.sim.trainer.bind_arena` adopts or rejects the
    rest).
    """
    if not models:
        return None
    arena = models[0]._arena
    if arena is None or arena.num_workers != len(models):
        return None
    for rank, model in enumerate(models):
        if model._arena is not arena or model._arena_rank != rank:
            return None
    return arena
