"""Batched kernels: one local-SGD step for *all* workers as matrix ops.

The cluster state is the paper's matrix ``X ∈ R^{n×N}`` living in a
:class:`~repro.nn.arena.ParameterArena`.  The per-worker training loop
runs every layer's forward/backward once per worker — n numpy dispatches
per layer per step, which at n ≥ 128 costs more than the math itself.
This module stacks the worker axis into the kernels:

* :class:`BatchedLinear` binds the ``(n, out, in)`` weight (and
  ``(n, out)`` bias) **views** into the arena — each worker's weight is a
  reshaped slice of its row, so the stack is zero-copy by construction —
  and evaluates the per-worker affine maps as the single contraction
  ``einsum('nbi,noi->nbo')``.  The contraction is realized with stacked
  BLAS (:func:`numpy.matmul` over the leading worker axis) rather than a
  C einsum loop: each worker slice then goes through the *same* GEMM
  kernel the per-worker path uses, which keeps the batched step
  bit-identical to the loop instead of merely close.
* :class:`BatchedConv2d` stacks the im2col transform **once per cluster
  block** (workers folded into the image axis — one gather instead of n)
  and then runs the per-worker GEMMs over the ``(n, out_c, in_c·kh·kw)``
  weight **views** into the arena, exactly the operands
  :class:`~repro.nn.layers.Conv2d`'s im2col path feeds its per-worker
  GEMM — so the batched convolution is bit-identical to the loop.
* :class:`BatchedMaxPool2d` / :class:`BatchedGlobalAvgPool2d` /
  :class:`BatchedFlatten` run the pooling/reshape layers over the
  stacked worker axis (pure gather/reduce ops — shape-blind), reading
  NCHW or channels-last memory in place and handing gradients back in
  the forward input's layout.  They are the only implementation of
  ``MaxPool2d`` and ``Flatten``; the per-worker passes the parity tests
  run are ``tests/reference/per_worker.py``.
* :class:`BatchedReLU` is the element-wise activation over
  ``(n, B, d)`` stacks (shape-blind, so parity with the per-worker layer
  is exact).
* :class:`BatchedCrossEntropyLoss` fuses softmax + NLL over
  ``(n, B, C)`` logits and returns the ``(n,)`` vector of per-worker
  mean losses plus the stacked gradient.
* :func:`build_batched_model` walks an arena's adopted models and
  compiles them into a :class:`BatchedSequential` when every layer has a
  batched kernel — Linear / Conv2d / pooling / Flatten chains with ReLU
  activations, which covers the MLP family *and* the TinyCNN / MnistCNN
  / Cifar10CNN conv presets.  Architectures without batched kernels (batch norm,
  residual wiring) return ``None`` and the caller keeps the per-worker
  loop.

Every kernel also exposes ``forward_vector(vector, inputs)``: a plain
2-D forward pass with parameters sliced from one flat vector.  This is
how the consensus (average) model is evaluated without copying it into a
borrowed worker replica first.

All gradient writes go straight into ``arena.grads`` through the bound
views, so downstream consumers (all-reduce averaging, batched
compression, error feedback) see exactly what the per-worker backward
passes would have produced.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.nn import functional as F
from repro.nn.activations import ReLU
from repro.nn.arena import ParameterArena
from repro.nn.layers import Conv2d, Flatten, GlobalAvgPool2d, Linear, MaxPool2d
from repro.nn.module import Module, Sequential
from repro.utils.flat import ParamSpec


class BatchedKernel:
    """One layer evaluated for all workers at once.

    ``forward``/``backward`` operate on ``(n, B, ...)`` stacks (or
    ``(m, B, ...)`` when ``rows`` restricts the step to a subset of
    worker rows); ``forward_vector`` is the single-model eval-mode pass
    used for consensus evaluation.
    """

    def forward(
        self, inputs: np.ndarray, rows=None
    ) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad_output: np.ndarray, rows=None, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Consume the cached forward state, write parameter gradients,
        and return the gradient wrt the stacked inputs — or ``None`` when
        ``need_input_grad`` is false (the chain's first kernel: nobody
        consumes its input gradient, so the work is skipped)."""
        raise NotImplementedError

    def forward_vector(self, vector: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _arena_views(arena: ParameterArena, spec: Optional[ParamSpec], shape=None):
    """Zero-copy ``(params, grads)`` views of ``spec``'s arena columns,
    ``(n,) + shape`` (default ``spec.shape``); ``(None, None)`` without."""
    if spec is None:
        return None, None
    columns = slice(spec.offset, spec.end)
    shape = (arena.num_workers,) + tuple(spec.shape if shape is None else shape)
    return arena.data[:, columns].reshape(shape), arena.grads[:, columns].reshape(shape)


class BatchedLinear(BatchedKernel):
    """All workers' ``y = x Wᵀ + b`` as one stacked contraction.

    ``weights``/``weight_grads`` are ``(n, out, in)`` strided views into
    the arena's parameter/gradient matrices (zero-copy: a row slice of a
    contiguous row reshapes without copying), so forward reads the live
    replicas and backward writes straight into ``arena.grads``.
    """

    def __init__(
        self,
        arena: ParameterArena,
        weight_spec: ParamSpec,
        bias_spec: Optional[ParamSpec] = None,
    ) -> None:
        self.weight_spec = weight_spec
        self.bias_spec = bias_spec
        self.weights, self.weight_grads = _arena_views(arena, weight_spec)
        self.biases, self.bias_grads = _arena_views(arena, bias_spec)
        self._inputs: Optional[np.ndarray] = None
        self._used_weights: Optional[np.ndarray] = None

    def forward(
        self, inputs: np.ndarray, rows=None
    ) -> np.ndarray:
        # ``rows`` selects worker rows: None (all), a slice (zero-copy
        # view — how the trainer blocks the cluster through cache), or
        # an index array (gathers a copy — the participation-subset path).
        weights = self.weights if rows is None else self.weights[rows]
        self._inputs = inputs
        self._used_weights = weights
        # einsum('nbi,noi->nbo') via stacked BLAS: each worker slice is
        # the same contiguous (B, in) @ (in, out) GEMM the per-worker
        # layer runs, so results match it bit for bit.
        output = np.matmul(inputs, weights.swapaxes(1, 2))
        if self.biases is not None:
            biases = self.biases if rows is None else self.biases[rows]
            output += biases[:, None, :]
        return output

    def backward(
        self, grad_output: np.ndarray, rows=None, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._inputs is None or self._used_weights is None:
            raise RuntimeError("backward called before forward")
        # einsum('nbo,nbi->noi'): the per-worker grad_outᵀ @ input GEMMs.
        # Gradient views are *overwritten*, not accumulated: the kernel
        # chain visits each parameter exactly once per step, so the write
        # equals zero-then-accumulate while skipping the (n, N) zero fill
        # and a weight-matrix-sized temporary — at n = 1024 that is most
        # of the backward's memory traffic.  Slices write straight into
        # the arena views; index arrays need the gather/scatter copy.
        if rows is None or isinstance(rows, slice):
            target = self.weight_grads if rows is None else self.weight_grads[rows]
            np.matmul(grad_output.swapaxes(1, 2), self._inputs, out=target)
        else:
            self.weight_grads[rows] = np.matmul(
                grad_output.swapaxes(1, 2), self._inputs
            )
        if self.bias_grads is not None:
            if rows is None or isinstance(rows, slice):
                target = self.bias_grads if rows is None else self.bias_grads[rows]
                np.add.reduce(grad_output, axis=1, out=target)
            else:
                self.bias_grads[rows] = grad_output.sum(axis=1)
        if not need_input_grad:
            return None
        # einsum('nbo,noi->nbi'): grad wrt the stacked inputs.
        return np.matmul(grad_output, self._used_weights)

    def forward_vector(self, vector: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        spec = self.weight_spec
        weight = vector[spec.offset : spec.end].reshape(spec.shape)
        output = inputs @ weight.T
        if self.bias_spec is not None:
            output += vector[self.bias_spec.offset : self.bias_spec.end]
        return output


class BatchedReLU(BatchedKernel):
    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(
        self, inputs: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        self._mask = inputs > 0
        return inputs * self._mask

    def backward(
        self, grad_output: np.ndarray, rows=None, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        if not need_input_grad:
            return None
        return grad_output * self._mask

    def forward_vector(self, vector: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        return inputs * (inputs > 0)


class _WindowKernel(BatchedKernel):
    """Shared geometry of the sliding-window kernels (conv and pooling):
    the output size and the worker-into-image fold live here once, so
    the train and eval paths of every window kernel stay in sync."""

    kernel_size: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int] = (0, 0)

    def _output_hw(self, height: int, width: int) -> Tuple[int, int]:
        return F.output_hw(
            (height, width), self.kernel_size, self.stride, self.padding
        )

    @staticmethod
    def _images(inputs: np.ndarray) -> np.ndarray:
        """``(n, B, c, h, w) → (n·B, c, h, w)``: a view for NCHW and for
        NHWC memory alike (the merged axes are the two outermost)."""
        return inputs.reshape((-1,) + inputs.shape[2:])


class BatchedConv2d(_WindowKernel):
    """All workers' im2col convolutions as one gather + stacked GEMMs.

    The im2col rearrangement depends only on the *inputs*, so it runs
    once for the whole worker block (workers folded into the image
    axis); the per-worker weight matrices are ``(n, out_c, in_c·kh·kw)``
    strided views into the arena, and the stacked :func:`numpy.matmul`
    routes each worker's slice through the same GEMM kernel
    :class:`~repro.nn.layers.Conv2d` uses on the same operands — the
    batched convolution is therefore bit-identical to the loop, and
    backward writes weight/bias gradients straight into ``arena.grads``.

    The output is an NCHW view of channels-last memory, and so is the
    input gradient (``col2im`` with ``channels_last``): a ``grad_output``
    that comes back through a ReLU or a max-pool in that layout reshapes
    into the GEMM's ``(n, B·oh·ow, out_c)`` matrix as a view.

    The stacked patch matrix (``(n, B·oh·ow, C·kh·kw)``, cached through
    backward) is the dominant transient of the conv path; the
    :class:`~repro.sim.cluster.ClusterTrainer` folds its footprint into
    the cluster-block byte budget
    (``_workspace_bytes_per_worker``/``_block_rows``), so blocks shrink
    until one block's weights *and* its im2col workspace fit the budget
    together — the full-cluster tensor is never materialized at once.
    Child spans: ``compute.conv.gather`` / ``.gemm`` / ``.scatter``.
    """

    def __init__(
        self,
        arena: ParameterArena,
        weight_spec: ParamSpec,
        bias_spec: Optional[ParamSpec],
        kernel_size: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> None:
        self.weight_spec = weight_spec
        self.bias_spec = bias_spec
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        out_channels = weight_spec.shape[0]
        self.out_channels = out_channels
        # Each worker's (out_c, in_c, kh, kw) weight flattened to the
        # (out_c, in_c·kh·kw) GEMM matrix the per-worker layer builds.
        self.weights, self.weight_grads = _arena_views(
            arena, weight_spec, (out_channels, weight_spec.size // out_channels)
        )
        self.biases, self.bias_grads = _arena_views(arena, bias_spec)
        self._cols: Optional[np.ndarray] = None
        self._used_weights: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(
        self, inputs: np.ndarray, rows=None
    ) -> np.ndarray:
        weights = self.weights if rows is None else self.weights[rows]
        count, batch, channels, height, width = inputs.shape
        out_h, out_w = self._output_hw(height, width)
        # One gather for the whole block, reshaped so each worker's slice
        # is exactly the (B·oh·ow, c·kh·kw) patch matrix its per-worker
        # layer would have built.
        with obs.phase("compute.conv.gather"):
            cols = F.im2col(
                self._images(inputs), self.kernel_size, self.stride,
                self.padding,
            ).reshape(count, batch * out_h * out_w, -1)
        self._cols = cols
        self._used_weights = weights
        self._input_shape = inputs.shape
        # einsum('nmk,nok->nmo') via stacked BLAS — per-worker
        # cols @ weight_matrix.T, bit for bit.
        with obs.phase("compute.conv.gemm"):
            output = np.matmul(cols, weights.swapaxes(1, 2))
            if self.biases is not None:
                biases = self.biases if rows is None else self.biases[rows]
                output += biases[:, None, :]
        return output.reshape(
            count, batch, out_h, out_w, self.out_channels
        ).transpose(0, 1, 4, 2, 3)

    def backward(
        self, grad_output: np.ndarray, rows=None, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        count, batch, channels, height, width = self._input_shape
        grad_matrix = grad_output.transpose(0, 1, 3, 4, 2).reshape(
            count, -1, self.out_channels
        )
        with obs.phase("compute.conv.gemm"):
            # einsum('nmo,nmk->nok'): the per-worker grad_matrixᵀ @ cols,
            # overwritten into the arena views as in BatchedLinear.
            if rows is None or isinstance(rows, slice):
                target = (
                    self.weight_grads if rows is None else self.weight_grads[rows]
                )
                np.matmul(grad_matrix.swapaxes(1, 2), self._cols, out=target)
            else:
                self.weight_grads[rows] = np.matmul(
                    grad_matrix.swapaxes(1, 2), self._cols
                )
            if self.bias_grads is not None:
                if rows is None or isinstance(rows, slice):
                    target = (
                        self.bias_grads if rows is None else self.bias_grads[rows]
                    )
                    np.add.reduce(grad_matrix, axis=1, out=target)
                else:
                    self.bias_grads[rows] = grad_matrix.sum(axis=1)
            if not need_input_grad:
                return None
            grad_cols = np.matmul(grad_matrix, self._used_weights)
        with obs.phase("compute.conv.scatter"):
            folded = F.col2im(
                grad_cols.reshape(-1, grad_cols.shape[2]),
                (count * batch, channels, height, width),
                self.kernel_size, self.stride, self.padding,
                channels_last=True,
            )
        return folded.reshape(self._input_shape)

    def forward_vector(self, vector: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        spec = self.weight_spec
        weight_matrix = vector[spec.offset : spec.end].reshape(
            self.out_channels, -1
        )
        batch, _, height, width = inputs.shape
        out_h, out_w = self._output_hw(height, width)
        with obs.phase("compute.conv.gather"):
            cols = F.im2col(inputs, self.kernel_size, self.stride, self.padding)
        with obs.phase("compute.conv.gemm"):
            output = cols @ weight_matrix.T
            if self.bias_spec is not None:
                output += vector[self.bias_spec.offset : self.bias_spec.end]
        return output.reshape(batch, out_h, out_w, self.out_channels).transpose(
            0, 3, 1, 2
        )


class BatchedMaxPool2d(_WindowKernel):
    """Max pooling over ``(n, B, c, h, w)`` stacks with argmax routing:
    workers and channels fold into the rows of
    :func:`~repro.nn.functional.max_pool`, the function the per-worker
    :class:`~repro.nn.layers.MaxPool2d` runs too (parity by sharing)."""

    def __init__(
        self,
        kernel_size: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> None:
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._argmax: Optional[np.ndarray] = None
        self._layout: Optional[str] = None
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(
        self, inputs: np.ndarray, rows=None
    ) -> np.ndarray:
        images = self._images(inputs)
        output, self._argmax, self._layout = F.max_pool(
            images, self.kernel_size, self.stride, self.padding
        )
        self._input_shape = inputs.shape
        return output.reshape(inputs.shape[:2] + output.shape[1:])

    def backward(
        self, grad_output: np.ndarray, rows=None, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._argmax is None:
            raise RuntimeError("backward called before forward")
        if not need_input_grad:
            return None
        count, batch = self._input_shape[:2]
        grad = F.max_pool_backward(
            grad_output, self._argmax,
            (count * batch,) + self._input_shape[2:], self._layout,
            self.kernel_size, self.stride, self.padding,
        )
        return grad.reshape(self._input_shape)

    def forward_vector(self, vector: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        return F.max_pool(inputs, self.kernel_size, self.stride, self.padding)[0]


class BatchedGlobalAvgPool2d(BatchedKernel):
    """Spatial mean over stacks: ``(n, B, c, h, w) → (n, B, c)``."""

    def __init__(self) -> None:
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(
        self, inputs: np.ndarray, rows=None
    ) -> np.ndarray:
        self._input_shape = inputs.shape
        return inputs.mean(axis=(3, 4))

    def backward(
        self, grad_output: np.ndarray, rows=None, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        if not need_input_grad:
            return None
        height, width = self._input_shape[3:]
        scale = 1.0 / (height * width)
        return np.broadcast_to(
            (grad_output * scale)[..., None, None], self._input_shape
        )

    def forward_vector(self, vector: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        return inputs.mean(axis=(2, 3))


class BatchedFlatten(BatchedKernel):
    """Flatten all non-(worker, batch) dimensions."""

    def __init__(self) -> None:
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(
        self, inputs: np.ndarray, rows=None
    ) -> np.ndarray:
        self._input_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], inputs.shape[1], -1)

    def backward(
        self, grad_output: np.ndarray, rows=None, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if not need_input_grad:
            return None
        return grad_output.reshape(self._input_shape)

    def forward_vector(self, vector: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        return inputs.reshape(inputs.shape[0], -1)


class BatchedCrossEntropyLoss:
    """Softmax cross-entropy over ``(n, B, C)`` logits, per-worker mean.

    Returns ``(losses, grad)`` where ``losses`` is the ``(n,)`` float64
    vector of per-worker mean losses (each entry exactly the value the
    per-worker :class:`~repro.nn.losses.CrossEntropyLoss` would return —
    computed in the logits dtype, widened exactly) and ``grad`` already
    carries the ``1/B`` factor, ready for the batched backward pass.
    """

    def __init__(self) -> None:
        self._idx_cache: Optional[Tuple[int, int, np.ndarray, np.ndarray]] = None

    def __call__(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if logits.ndim != 3:
            raise ValueError(
                f"logits must be (workers, batch, classes), got {logits.shape}"
            )
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != logits.shape[:2]:
            raise ValueError(
                f"labels shape {labels.shape} does not match logits "
                f"{logits.shape[:2]}"
            )
        num_workers, batch, _ = logits.shape
        # np.max / np.sum / np.mean's own ufunc reductions, called direct.
        shifted = logits - np.maximum.reduce(logits, axis=2, keepdims=True)
        exp = np.exp(shifted)
        sum_exp = np.add.reduce(exp, axis=2, keepdims=True)
        cache = self._idx_cache
        if cache is None or cache[0] != num_workers or cache[1] != batch:
            cache = (
                num_workers,
                batch,
                np.arange(num_workers)[:, None],
                np.arange(batch)[None, :],
            )
            self._idx_cache = cache
        worker_idx, batch_idx = cache[2], cache[3]
        log_lik = shifted[worker_idx, batch_idx, labels] - np.log(sum_exp[..., 0])
        # np.mean's division too (float32: a float64 loop, then a cast).
        total = np.add.reduce(log_lik, axis=1)
        losses = -np.true_divide(
            total, np.intp(batch), out=total, casting="unsafe"
        )
        grad = exp / sum_exp
        grad[worker_idx, batch_idx, labels] -= 1.0
        return losses.astype(np.float64), grad / batch


class BatchedSequential:
    """The whole cluster's forward/backward as one kernel chain.

    With telemetry on, each kernel call is an :func:`repro.obs.phase`
    span named after its plan kind (``compute.conv``, ``compute.relu``,
    …).  With it off the training passes skip spans outright: a one-row
    step (the event engine's unit) is ~100 µs, where no-op spans show.
    """

    def __init__(
        self, kernels: Sequence[BatchedKernel], num_workers: int,
        kinds: Sequence[str],
    ) -> None:
        self.kernels: List[BatchedKernel] = list(kernels)
        self.num_workers = num_workers
        self.phases = [f"compute.{kind}" for kind in kinds]

    def forward(
        self, inputs: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        out = inputs
        if not obs.enabled():
            for kernel in self.kernels:
                out = kernel.forward(out, rows)
            return out
        for kernel, phase in zip(self.kernels, self.phases):
            with obs.phase(phase):
                out = kernel.forward(out, rows)
        return out

    def backward(
        self, grad_output: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Backprop the stacked loss gradient, **overwriting** every
        parameter's gradient view for the stepped rows (each parameter
        receives exactly one write per pass, so no prior zeroing of the
        grad rows is needed).  The first kernel's input gradient has no
        consumer and is skipped; this method therefore returns ``None``.
        """
        grad = grad_output
        last = len(self.kernels) - 1
        if not obs.enabled():
            for index in range(last, -1, -1):
                grad = self.kernels[index].backward(grad, rows, index > 0)
            return grad
        for index in range(last, -1, -1):
            with obs.phase(self.phases[index]):
                grad = self.kernels[index].backward(grad, rows, index > 0)
        return grad

    def forward_vector(self, vector: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Eval-mode forward of one flat model vector.

        No *training* state is mutated: parameters, gradients, backward
        caches and RNG streams are untouched."""
        out = inputs
        for kernel, phase in zip(self.kernels, self.phases):
            with obs.phase(phase):
                out = kernel.forward_vector(vector, out)
        return out


def _layer_plan(model: Module) -> Optional[List[tuple]]:
    """The batched-kernel recipe for ``model``, or ``None`` if any layer
    (or the container itself) has no exact batched counterpart."""
    if not isinstance(model, Sequential):
        return None
    # The batched pass replays layers strictly in sequence; a subclass
    # overriding forward/backward (residual wiring, custom routing)
    # would not be replayed faithfully.
    if (
        type(model).forward is not Sequential.forward
        or type(model).backward is not Sequential.backward
    ):
        return None
    if model._parameters:
        return None
    specs = iter(model.flat_specs())
    plan: List[tuple] = []
    try:
        for layer in model.layers:
            if type(layer) is Linear:
                weight_spec = next(specs)
                bias_spec = next(specs) if layer.bias is not None else None
                plan.append(("linear", weight_spec, bias_spec))
            elif type(layer) is Conv2d:
                weight_spec = next(specs)
                bias_spec = next(specs) if layer.bias is not None else None
                plan.append((
                    "conv", weight_spec, bias_spec,
                    layer.kernel_size, layer.stride, layer.padding,
                ))
            elif type(layer) is MaxPool2d:
                plan.append((
                    "maxpool", layer.kernel_size, layer.stride, layer.padding
                ))
            elif type(layer) is GlobalAvgPool2d:
                plan.append(("gap",))
            elif type(layer) is Flatten:
                plan.append(("flatten",))
            elif type(layer) is ReLU:
                plan.append(("relu",))
            else:
                # Batch norm's running statistics, among others, have no
                # exact batched counterpart.
                return None
    except StopIteration:  # pragma: no cover - layout bug guard
        return None
    return plan


def build_batched_model(arena: ParameterArena) -> Optional[BatchedSequential]:
    """Compile the arena's adopted models into a :class:`BatchedSequential`.

    Returns ``None`` when any row has no adopted model, when any layer
    lacks an exact batched kernel, or when the adopted models do not all
    share one layer plan — the caller then keeps the per-worker loop.
    """
    models = [arena.model(rank) for rank in range(arena.num_workers)]
    if any(model is None for model in models):
        return None
    plans = [_layer_plan(model) for model in models]
    reference = plans[0]
    if reference is None or any(plan != reference for plan in plans[1:]):
        return None
    kernels: List[BatchedKernel] = []
    for entry in reference:
        kind = entry[0]
        if kind == "linear":
            kernels.append(BatchedLinear(arena, entry[1], entry[2]))
        elif kind == "conv":
            kernels.append(BatchedConv2d(arena, *entry[1:]))
        elif kind == "maxpool":
            kernels.append(BatchedMaxPool2d(*entry[1:]))
        elif kind == "gap":
            kernels.append(BatchedGlobalAvgPool2d())
        elif kind == "flatten":
            kernels.append(BatchedFlatten())
        else:
            kernels.append(BatchedReLU())
    return BatchedSequential(
        kernels, arena.num_workers, [entry[0] for entry in reference]
    )
