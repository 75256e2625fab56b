"""Thread-parallel execution of independent worker blocks.

The hot paths this module serves all share one structure: an ``(n, N)``
matrix partitioned into **independent row blocks** — cluster blocks of
the :class:`~repro.sim.cluster.ClusterTrainer`, row blocks of the
batched top-k selection, row blocks of the fused update/mix passes.
NumPy releases the GIL inside its ufunc loops, GEMM kernels and
partition/sort kernels, so running those blocks on a small thread pool
scales with cores without multiprocessing's serialization cost.

Two invariants keep the parallel path *bit-identical* to the
single-threaded one, and both are the caller's contract:

1. **Fixed partition** — the block boundaries must depend only on the
   workload (model size, block-byte budget), never on the thread count.
   Every block then runs the same kernels on the same operands whether
   it executes on one thread or eight.
2. **Disjoint writes** — blocks may read shared state but must write
   only their own rows/slots.  Reductions that are order-sensitive
   (float accumulation) must happen on the caller's thread, in block
   order, after :func:`parallel_map` returns.

The thread count resolves as: explicit :func:`set_num_threads` override
> ``REPRO_NUM_THREADS`` environment variable > 1 (serial — threading is
strictly opt-in).  At 1 thread (or a single work item) the map runs
inline with no pool, no queue and no closure overhead, so the default
configuration is exactly the historical code path.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro import obs

T = TypeVar("T")
R = TypeVar("R")

_ENV_VAR = "REPRO_NUM_THREADS"

_override: Optional[int] = None
_pool: Optional[ThreadPoolExecutor] = None
_pool_size: int = 0
_pool_lock = threading.Lock()
#: Re-entrancy marker: parallel_map called from inside a pool worker
#: (nested parallel sections) degrades to inline execution instead of
#: deadlocking on its own pool.
_in_worker = threading.local()


def _env_threads() -> int:
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{_ENV_VAR} must be >= 1, got {value}")
    return value


def num_threads() -> int:
    """The currently configured worker-thread count (>= 1)."""
    if _override is not None:
        return _override
    return _env_threads()


def set_num_threads(count: Optional[int]) -> None:
    """Override the thread count (``None`` restores the env/default).

    This is the programmatic face of ``REPRO_NUM_THREADS`` — the CLI's
    ``--num-threads`` and the preset plumbing land here.  Changing the
    count never changes numerics (see the module invariants); it only
    changes how many independent blocks run concurrently.
    """
    global _override
    if count is not None:
        count = int(count)
        if count < 1:
            raise ValueError(f"num_threads must be >= 1, got {count}")
    _override = count


def _get_pool(size: int) -> ThreadPoolExecutor:
    """The shared pool, rebuilt only when the requested size grows."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < size:
            if _pool is not None:
                _pool.shutdown(wait=True)
            _pool = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix="repro-block"
            )
            _pool_size = size
        return _pool


def parallel_map(
    fn: Callable[[T], R], items: Sequence[T], phase: Optional[str] = None
) -> List[R]:
    """``[fn(item) for item in items]``, blocks run concurrently.

    Results come back in ``items`` order.  Runs inline (no pool) when
    the configured thread count is 1, when there is at most one item,
    or when called from inside a pool worker (nested sections); one item
    without a telemetry span is just ``[fn(item)]``.  Any exception
    from ``fn`` propagates to the caller.

    ``phase`` names an optional telemetry span: with a recorder
    installed (:mod:`repro.obs`) each item's execution is timed on the
    thread that ran it, so pool-dispatched blocks attribute their time
    to the correct wall-time lane.  ``None`` (or telemetry off) adds
    nothing to the call.
    """
    if len(items) == 1 and (phase is None or not obs.enabled()):
        return [fn(items[0])]
    items = list(items)
    if phase is not None and obs.enabled():
        block_fn = fn

        def fn(item: T) -> R:  # noqa: F811 — instrumented shadow
            with obs.phase(phase):
                return block_fn(item)

    threads = num_threads()
    if (
        threads <= 1
        or len(items) <= 1
        or getattr(_in_worker, "active", False)
    ):
        return [fn(item) for item in items]
    pool = _get_pool(min(threads, len(items)))

    def run(item: T) -> R:
        _in_worker.active = True
        try:
            return fn(item)
        finally:
            _in_worker.active = False

    # list() drains the iterator so worker exceptions surface here, in
    # submission order.
    return list(pool.map(run, items))


def block_ranges(total: int, block: int) -> List[Tuple[int, int]]:
    """``[(start, stop), ...]`` covering ``range(total)`` in fixed blocks.

    The partition depends only on ``total`` and ``block`` — never on the
    thread count — which is invariant (1) above: callers derive
    ``block`` from the workload (e.g. a byte budget over the row size)
    so serial and parallel runs execute identical block kernels.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    return [
        (start, min(start + block, total)) for start in range(0, total, block)
    ]
