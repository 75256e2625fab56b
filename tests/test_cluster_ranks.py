"""Properties of the trainer's rank paths and the one-row closed forms.

For n in [2, 9], a drawn rank set — one row, a contiguous run, every
worker, a sorted or an unsorted non-contiguous subset — and drawn SGD
hyperparameters and dtype, :meth:`ClusterTrainer.batched_steps` must
equal the per-worker loop that :func:`reference.per_model.per_worker_compute`
puts in its place, bit for bit: stepped rows, gradients, velocity, losses,
``steps_taken`` and every loader's RNG state.  Rows outside the set stay
exactly as they were.  One row and contiguous runs take the zero-copy
slice path, the rest the index path; both must agree with the loop.

Two closed forms are checked against the formulas they replaced, which
are reproduced here: ``HeterogeneousCompute.step_time`` without jitter
(no per-call Generator) and the loss head's mean (``np.add.reduce`` and
``np.mean``'s own division instead of ``np.mean``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SAPSPSGD
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork
from repro.nn import MLP
from repro.nn.batched import BatchedCrossEntropyLoss
from repro.sim import ExperimentConfig, HeterogeneousCompute, make_workers

from reference.per_model import per_worker_compute
from tests.reference.per_worker import PerWorkerTrainer, flat_velocity


@st.composite
def rank_sets(draw):
    """``(n, ranks)``: one of the five shapes a rank set takes."""
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["one", "run", "all", "sorted", "unsorted"]))
    if kind == "one":
        return n, [draw(st.integers(0, n - 1))]
    if kind == "run":
        start = draw(st.integers(0, n - 1))
        return n, list(range(start, draw(st.integers(start + 1, n))))
    if kind == "all":
        return n, list(range(n))
    ranks = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n,
                          unique=True))
    return n, sorted(ranks) if kind == "sorted" else ranks


hyperparameters = st.fixed_dictionaries({
    "momentum": st.sampled_from([0.0, 0.5, 0.9]),
    "weight_decay": st.sampled_from([0.0, 1e-3]),
    "nesterov": st.booleans(),
    "lr": st.sampled_from([0.05, 0.2]),
    "dtype": st.sampled_from(["float64", "float32"]),
})


def _algorithm(n: int, hyper: dict, loop: bool) -> SAPSPSGD:
    """SAPS-PSGD set up on n MLP workers; ``loop`` swaps its trainer for
    the per-worker one."""
    full = make_blobs(num_samples=16 * n, num_classes=3, num_features=6, rng=2)
    config = ExperimentConfig(
        batch_size=4, lr=hyper["lr"], momentum=hyper["momentum"],
        weight_decay=hyper["weight_decay"], seed=2, dtype=hyper["dtype"],
    )
    workers = make_workers(
        lambda: MLP(6, [5], 3, rng=2, dtype=hyper["dtype"]),
        partition_iid(full, n, rng=2), config,
    )
    for worker in workers:
        worker.optimizer.nesterov = hyper["nesterov"] and hyper["momentum"] > 0
    algorithm = SAPSPSGD()
    if loop:
        per_worker_compute(algorithm)
    algorithm.setup(workers, SimulatedNetwork(n), rng=0)
    return algorithm


def _rng_state(worker):
    return worker.loader._rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(rank_sets(), hyperparameters, st.integers(1, 3))
def test_step_equals_the_per_worker_loop(rank_set, hyper, steps):
    n, ranks = rank_set
    batched = _algorithm(n, hyper, loop=False)
    loop = _algorithm(n, hyper, loop=True)
    trainer = batched.cluster_trainer
    assert isinstance(loop.cluster_trainer, PerWorkerTrainer)
    before_data = batched.arena.data.copy()
    before_grads = batched.arena.grads.copy()
    before_rng = [_rng_state(worker) for worker in batched.workers]

    for _ in range(steps):
        got = trainer.batched_steps(1, ranks)[:, 0]
        want = loop.cluster_trainer.batched_steps(1, ranks)[:, 0]
        assert got.tobytes() == want.tobytes()

    stepped = np.zeros(n, dtype=bool)
    stepped[ranks] = True
    for arena in ("data", "grads"):
        assert (
            getattr(batched.arena, arena)[stepped].tobytes()
            == getattr(loop.arena, arena)[stepped].tobytes()
        )
    assert batched.arena.data[~stepped].tobytes() == before_data[~stepped].tobytes()
    assert (
        batched.arena.grads[~stepped].tobytes()
        == before_grads[~stepped].tobytes()
    )
    for rank in range(n):
        worker, reference = batched.workers[rank], loop.workers[rank]
        assert worker.steps_taken == reference.steps_taken
        assert worker.last_loss == reference.last_loss
        assert _rng_state(worker) == _rng_state(reference)
        if not stepped[rank]:
            assert worker.steps_taken == 0
            assert _rng_state(worker) == before_rng[rank]
        if hyper["momentum"]:
            row = trainer._velocity[rank]
            expected = flat_velocity(reference)
            assert row.tobytes() == expected.tobytes()


#: (momentum, weight decay, nesterov) of each optimizer the update replays.
OPTIMIZERS = {
    "sgd": (0.0, 0.0, False),
    "momentum": (0.9, 0.0, False),
    "nesterov": (0.9, 0.0, True),
    "weight decay": (0.0, 1e-3, False),
    "all three": (0.5, 1e-3, True),
}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 9), st.sampled_from(["slice", "sorted", "unsorted"]),
    st.sampled_from(sorted(OPTIMIZERS)), st.sampled_from(["float64", "float32"]),
    st.integers(1, 2), st.data(),
)
def test_chunked_update_equals_the_per_worker_loop(n, kind, optimizer, dtype, steps, data):
    """The optimizer update runs a chunk of ``UPDATE_CHUNK_BYTES`` at a
    time; drawn here from under one row (N straddles a chunk) to over n
    rows, never a multiple of a row, it must leave the per-worker loop's
    rows, velocity and losses bit for bit, on slice (a contiguous run),
    sorted-index and unsorted-index rows."""
    momentum, weight_decay, nesterov = OPTIMIZERS[optimizer]
    hyper = {"momentum": momentum, "weight_decay": weight_decay,
             "nesterov": nesterov, "lr": 0.2, "dtype": dtype}
    if kind == "slice":
        start = data.draw(st.integers(0, n - 1))
        ranks = list(range(start, data.draw(st.integers(start + 1, n))))
    else:
        ranks = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n,
                                   unique=True).filter(lambda r: max(r) - min(r) >= len(r)))
        ranks = sorted(ranks) if kind == "sorted" else ranks
    batched, loop = _algorithm(n, hyper, loop=False), _algorithm(n, hyper, loop=True)
    for algorithm in (batched, loop):  # each chunk must take its own rows' rates
        for worker in algorithm.workers:
            worker.optimizer.lr = 0.05 * (1 + worker.rank)
    trainer = batched.cluster_trainer
    row_bytes = batched.arena.data[0].nbytes
    trainer.UPDATE_CHUNK_BYTES = data.draw(st.integers(1, (n + 1) * row_bytes - 1).filter(
        lambda size: size % row_bytes))
    # A run (every row included) takes the view path, the rest the index path.
    assert isinstance(trainer._normalize_ranks(ranks), np.ndarray) == (kind != "slice")
    for _ in range(steps):
        got = trainer.batched_steps(1, ranks)[:, 0]
        assert got.tobytes() == loop.cluster_trainer.batched_steps(1, ranks)[:, 0].tobytes()
    assert batched.arena.data.tobytes() == loop.arena.data.tobytes()
    for rank in ranks if momentum else ():
        assert trainer._velocity[rank].tobytes() == flat_velocity(loop.workers[rank]).tobytes()


def _parent_step_time(model, round_index, rank, steps):
    """The step time as computed before the jitter-free shortcut."""
    jitter_rng = np.random.default_rng(
        (round_index * 1_000_003 + rank) & 0x7FFFFFFF
    )
    factor = np.exp(jitter_rng.normal(0.0, model.jitter))
    return float(model.worker_means[rank] * factor * steps)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 64), st.floats(1e-3, 10.0), st.floats(1.0, 50.0),
    st.integers(0, 2**31), st.data(),
)
def test_jitter_free_step_time_is_the_jittered_formula(
    num_workers, mean, spread, seed, data
):
    model = HeterogeneousCompute(
        num_workers, mean_step_time=mean, spread=spread, jitter=0.0, rng=seed
    )
    round_index = data.draw(st.integers(0, 10**7))
    rank = data.draw(st.integers(0, num_workers - 1))
    steps = data.draw(st.integers(1, 1000))
    got = model.step_time(round_index, rank, steps)
    assert got == _parent_step_time(model, round_index, rank, steps)


def _parent_loss(logits, labels):
    """The loss head as computed with the ``np.max`` / ``np.sum`` /
    ``np.mean`` wrappers."""
    workers, batch, _ = logits.shape
    shifted = logits - np.max(logits, axis=2, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = np.sum(exp, axis=2, keepdims=True)
    worker_idx = np.arange(workers)[:, None]
    batch_idx = np.arange(batch)[None, :]
    log_lik = shifted[worker_idx, batch_idx, labels] - np.log(sum_exp[..., 0])
    losses = -log_lik.mean(axis=1)
    grad = exp / sum_exp
    grad[worker_idx, batch_idx, labels] -= 1.0
    return losses.astype(np.float64), grad / batch


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 40), st.integers(2, 12),
    st.sampled_from(["float64", "float32"]), st.floats(1e-3, 80.0),
    st.integers(0, 2**32 - 1),
)
def test_loss_head_mean_is_np_mean(workers, batch, classes, dtype, scale, seed):
    rng = np.random.default_rng(seed)
    logits = (rng.standard_normal((workers, batch, classes)) * scale).astype(dtype)
    labels = rng.integers(0, classes, size=(workers, batch))
    losses, grad = BatchedCrossEntropyLoss()(logits, labels)
    want_losses, want_grad = _parent_loss(logits, labels)
    assert losses.tobytes() == want_losses.tobytes()
    assert grad.tobytes() == want_grad.tobytes()
