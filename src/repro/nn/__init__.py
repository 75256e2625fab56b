"""Pure-numpy neural-network substrate.

Layer-wise backprop framework with the layers, losses, optimizers and
models the paper's evaluation needs.  The bridge to the distributed
algorithms is the flat-vector API on :class:`Module`
(:meth:`~repro.nn.module.Module.get_flat_params` /
:meth:`~repro.nn.module.Module.set_flat_params`).
"""

from repro.nn.models import MLP, Cifar10CNN, MnistCNN, ResNet20, TinyCNN

__all__ = [
    "MLP",
    "TinyCNN",
    "MnistCNN",
    "Cifar10CNN",
    "ResNet20",
]
