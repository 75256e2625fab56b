"""Paper presets: Table II's experimental settings, ready to run.

Each preset carries the paper's exact hyperparameters (model, batch size,
learning rate, epochs — Table II) plus the *scaled stand-in* workload our
simulator runs by default (synthetic data at the same tensor shapes, with
round counts sized for minutes not days).  ``instantiate_preset`` builds
partitions/validation/model-factory/config from either flavour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.data import (
    Dataset,
    make_synthetic_images,
    partition_iid,
    synthetic_cifar10,
    synthetic_mnist,
)
from repro.nn import Cifar10CNN, MnistCNN, ResNet20, TinyCNN
from repro.nn.module import Module
from repro.sim.engine import ExperimentConfig


@dataclass(frozen=True)
class PaperSetting:
    """One row of the paper's Table II."""

    model_name: str
    num_params: int  # as reported by the paper
    batch_size: int
    lr: float
    epochs: int
    dataset: str


#: Table II, verbatim.
TABLE2_SETTINGS: Dict[str, PaperSetting] = {
    "mnist-cnn": PaperSetting(
        model_name="MNIST-CNN", num_params=6_653_628,
        batch_size=50, lr=0.05, epochs=100, dataset="MNIST",
    ),
    "cifar10-cnn": PaperSetting(
        model_name="CIFAR10-CNN", num_params=7_025_886,
        batch_size=100, lr=0.04, epochs=320, dataset="CIFAR10",
    ),
    "resnet-20": PaperSetting(
        model_name="ResNet-20", num_params=269_722,
        batch_size=64, lr=0.1, epochs=160, dataset="CIFAR10",
    ),
}

#: Table IV's target accuracies (fractions).
TABLE4_TARGETS: Dict[str, float] = {
    "mnist-cnn": 0.96,
    "cifar10-cnn": 0.67,
    "resnet-20": 0.75,
}


@dataclass
class Preset:
    """A runnable experiment preset."""

    name: str
    paper: PaperSetting
    model_factory: Callable[..., Module]
    dataset_factory: Callable[..., Dataset]
    scaled_rounds: int
    scaled_batch_size: int
    scaled_lr: float


PRESETS: Dict[str, Preset] = {
    "mnist-cnn": Preset(
        name="mnist-cnn",
        paper=TABLE2_SETTINGS["mnist-cnn"],
        model_factory=MnistCNN,
        dataset_factory=lambda num_samples, rng=None: synthetic_mnist(
            num_samples, rng=rng
        ),
        scaled_rounds=150,
        scaled_batch_size=16,
        scaled_lr=0.05,
    ),
    "cifar10-cnn": Preset(
        name="cifar10-cnn",
        paper=TABLE2_SETTINGS["cifar10-cnn"],
        model_factory=Cifar10CNN,
        dataset_factory=lambda num_samples, rng=None: synthetic_cifar10(
            num_samples, rng=rng
        ),
        scaled_rounds=200,
        scaled_batch_size=16,
        scaled_lr=0.04,
    ),
    "resnet-20": Preset(
        name="resnet-20",
        paper=TABLE2_SETTINGS["resnet-20"],
        model_factory=ResNet20,
        dataset_factory=lambda num_samples, rng=None: synthetic_cifar10(
            num_samples, rng=rng
        ),
        scaled_rounds=160,
        scaled_batch_size=16,
        scaled_lr=0.1,
    ),
}


def instantiate_preset(
    name: str,
    num_workers: int,
    fast: bool = True,
    samples_per_worker: int = 40,
    validation_samples: int = 200,
    seed: int = 0,
    dtype: str = "float64",
) -> Tuple[List[Dataset], Dataset, Callable[[], Module], ExperimentConfig]:
    """Build (partitions, validation, model_factory, config) for a preset.

    ``fast=True`` (default) swaps the full model for a shape-compatible
    scaled model (:class:`TinyCNN`/:class:`MLP`) and a smaller synthetic
    dataset, so the preset runs in seconds.  ``fast=False`` uses the
    paper's full architecture on the full-shape synthetic dataset —
    slow in pure numpy, intended for smoke-scale runs.  The TinyCNN
    scale tiers and the full :class:`MnistCNN`/:class:`Cifar10CNN`
    architectures all compile onto the batched cluster engine
    (:meth:`repro.sim.ClusterTrainer.build`), so local compute runs
    loop-free; :class:`ResNet20` (batch norm, residual wiring) keeps the
    per-worker loop.

    ``dtype`` selects the training precision (``"float64"`` default,
    ``"float32"`` for the reduced-precision path); it flows into both the
    model factory and ``ExperimentConfig.dtype``.

    The preset is the Table II workload and nothing else: the config
    carries its rounds, batch size, learning rate and evaluation cadence.
    Anything a run adds on top (``local_steps``, ``arena``) goes in with
    :func:`dataclasses.replace`; engine, algorithm, faults and
    participation are the caller's to build.
    """
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    preset = PRESETS[name]
    total = samples_per_worker * num_workers + validation_samples

    if fast:
        if name == "mnist-cnn":
            dataset = make_synthetic_images(
                total, num_classes=10, channels=1, size=10, noise=0.1, rng=seed
            )
            model_factory = lambda: TinyCNN(
                in_channels=1, image_size=10, num_classes=10, width=8,
                rng=seed, dtype=dtype,
            )
        elif name == "cifar10-cnn":
            dataset = make_synthetic_images(
                total, num_classes=10, channels=3, size=10, noise=0.1, rng=seed
            )
            model_factory = lambda: TinyCNN(
                in_channels=3, image_size=10, num_classes=10, width=8,
                rng=seed, dtype=dtype,
            )
        else:  # resnet-20 stand-in: wider tiny CNN
            dataset = make_synthetic_images(
                total, num_classes=10, channels=3, size=10, noise=0.1, rng=seed
            )
            model_factory = lambda: TinyCNN(
                in_channels=3, image_size=10, num_classes=10, width=12,
                rng=seed, dtype=dtype,
            )
        rounds = max(preset.scaled_rounds // 2, 40)
    else:
        dataset = preset.dataset_factory(total, rng=seed)
        model_factory = lambda: preset.model_factory(rng=seed, dtype=dtype)
        rounds = preset.scaled_rounds

    fraction = (total - validation_samples) / total
    train, validation = dataset.split(fraction=fraction, rng=seed)
    partitions = partition_iid(train, num_workers, rng=seed)
    config = ExperimentConfig(
        rounds=rounds,
        batch_size=preset.scaled_batch_size,
        lr=preset.scaled_lr,
        eval_every=max(rounds // 10, 1),
        seed=seed,
        dtype=dtype,
    )
    return partitions, validation, model_factory, config
