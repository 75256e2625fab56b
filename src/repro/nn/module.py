"""Module/Parameter base classes for the numpy neural-network substrate.

The framework uses explicit layer-wise backpropagation: every
:class:`Module` implements ``forward`` (caching what it needs) and
``backward`` (consuming the cached activations and accumulating parameter
gradients).  This is simpler and faster in numpy than a full autograd tape,
and it is all the paper's workloads require.

Distributed algorithms view a model as a flat vector ``x ∈ R^N`` via
:meth:`Module.get_flat_params` / :meth:`Module.set_flat_params`, matching
the paper's notation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.utils.dtypes import DEFAULT_DTYPE, DTypeLike, resolve_dtype
from repro.utils.flat import ParamSpec, param_specs


class Parameter:
    """A trainable array with an accumulated gradient.

    Attributes
    ----------
    data:
        The parameter values (float32 or float64 ndarray; ``dtype``
        selects which, defaulting to float64).  When the parameter is
        *arena-backed* (see :class:`repro.nn.arena.ParameterArena`) this
        is a reshaped view into the arena's contiguous row, and it must
        only ever be mutated in place — rebinding would silently detach
        the parameter from its worker's row.
    grad:
        Accumulated gradient of the same shape, or ``None`` before the
        first backward pass.
    name:
        Dotted path assigned when the owning module is registered; useful
        in error messages and tests.
    """

    def __init__(self, data: np.ndarray, dtype: DTypeLike = None) -> None:
        self.data = np.asarray(data, dtype=resolve_dtype(dtype))
        self.grad: Optional[np.ndarray] = None
        self.name = ""
        #: True once :meth:`bind_views` rebound storage into an arena row.
        self.arena_backed = False
        self._grad_view: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return self.data.size

    def bind_views(self, data_view: np.ndarray, grad_view: np.ndarray) -> None:
        """Move storage into arena views, preserving current values.

        ``grad`` keeps its ``None``-until-backward semantics: the grad
        view is installed lazily by :meth:`Module.zero_grad` /
        :meth:`accumulate_grad` so optimizers can still skip untouched
        parameters.
        """
        if data_view.shape != self.data.shape:
            raise ValueError(
                f"view shape {data_view.shape} != parameter shape "
                f"{self.data.shape} for {self.name!r}"
            )
        data_view[...] = self.data
        self.data = data_view
        self._grad_view = grad_view
        if self.grad is not None:
            grad_view[...] = self.grad
            self.grad = grad_view
        self.arena_backed = True

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the accumulator (lazily allocating it)."""
        if self.grad is None:
            if self._grad_view is not None:
                self._grad_view.fill(0.0)
                self.grad = self._grad_view
            else:
                self.grad = np.zeros_like(self.data)
        self.grad += grad


class Module:
    """Base class for all layers and models.

    Subclasses register parameters with :meth:`register_parameter` and
    sub-modules with :meth:`register_module`, then implement
    :meth:`forward` and :meth:`backward`.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True
        # Arena bindings (set by ParameterArena.adopt on the root module):
        # contiguous flat views of all parameters / gradients.
        self._flat_view: Optional[np.ndarray] = None
        self._flat_grad_view: Optional[np.ndarray] = None
        self._arena = None
        self._arena_rank: Optional[int] = None

    # ------------------------------------------------------------------
    # registration and traversal
    # ------------------------------------------------------------------
    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        if name in self._parameters:
            raise ValueError(f"duplicate parameter name {name!r}")
        param.name = name if not param.name else param.name
        self._parameters[name] = param
        return param

    def register_module(self, name: str, module: "Module") -> "Module":
        if name in self._modules:
            raise ValueError(f"duplicate module name {name!r}")
        self._modules[name] = module
        return module

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its children, in stable order."""
        params = list(self._parameters.values())
        for child in self._modules.values():
            params.extend(child.parameters())
        return params

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters (the paper's ``N``)."""
        return sum(p.size for p in self.parameters())

    @property
    def dtype(self) -> np.dtype:
        """The model's numeric dtype (first parameter's; float64 when
        parameter-free).  All parameters of one model share a dtype by
        construction — layers thread one ``dtype`` argument through — and
        arena adoption re-homogenizes them if they ever diverge."""
        for param in self.parameters():
            return param.data.dtype
        return DEFAULT_DTYPE

    # ------------------------------------------------------------------
    # train/eval mode and gradient management
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        if self._flat_grad_view is not None:
            # One fill over the contiguous grad row instead of one fill
            # per layer.
            self._flat_grad_view.fill(0.0)
            for param in self.parameters():
                param.grad = param._grad_view
            return
        for param in self.parameters():
            param.grad = np.zeros_like(param.data)

    # ------------------------------------------------------------------
    # forward / backward interface
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # flat-vector interface used by the distributed algorithms
    # ------------------------------------------------------------------
    def flat_specs(self) -> List[ParamSpec]:
        return param_specs([p.data for p in self.parameters()])

    def get_flat_params(self) -> np.ndarray:
        """Model as a single vector ``x ∈ R^N``.

        Arena-backed models return the **live row view** (zero-copy):
        mutating the result mutates the model, and vice versa.  Callers
        that need an independent snapshot must ``.copy()``.  Plain models
        return a fresh concatenated copy, as before.
        """
        if self._flat_view is not None:
            return self._flat_view
        return np.concatenate([p.data.reshape(-1) for p in self.parameters()])

    def set_flat_params(self, vector: np.ndarray) -> None:
        """Load the model from a flat vector produced by a peer.

        Arena-backed models copy into the row (one memcpy, layer views
        stay bound); plain models rebind each ``Parameter.data``.
        """
        if self._flat_view is not None:
            vector = np.asarray(vector, dtype=self._flat_view.dtype)
            if vector.size != self._flat_view.size:
                raise ValueError(
                    f"vector has {vector.size} elements but model "
                    f"has {self._flat_view.size}"
                )
            self._flat_view[...] = vector.reshape(-1)
            return
        vector = np.asarray(vector)
        if vector.size != self.num_parameters():
            raise ValueError(
                f"vector has {vector.size} elements but model "
                f"has {self.num_parameters()}"
            )
        for param, spec in zip(self.parameters(), self.flat_specs()):
            array = vector[spec.offset : spec.end].reshape(spec.shape)
            if param.arena_backed:
                # E.g. a submodule of an adopted model: the root holds the
                # flat view, but rebinding here would detach the layer
                # from its arena row — write through instead.
                param.data[...] = array
            else:
                # A fresh copy that keeps the parameter dtype (a float64
                # peer vector loaded into a float32 model stays float32).
                param.data = array.astype(param.data.dtype)


class Sequential(Module):
    """Chain of modules applied in order; backward runs in reverse."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers: List[Module] = []
        for index, layer in enumerate(layers):
            self.layers.append(layer)
            self.register_module(f"layer{index}", layer)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = inputs
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


class Identity(Module):
    """No-op module (useful as a placeholder shortcut branch)."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return inputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output
