"""Numerical gradient checking: finite-difference verification of a
module's backward pass, for the layer and model tests.

    from tests.gradcheck import check_gradients
    report = check_gradients(MyLayer(...), example_input)
    assert report.passed, report.summary()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.nn.module import Module
from repro.utils.rng import SeedLike, as_generator


def named_parameters(module: Module, prefix: str = ""):
    """``(dotted name, parameter)`` pairs of ``module`` and its children,
    in :meth:`~repro.nn.module.Module.parameters` order."""
    for name, param in module._parameters.items():
        yield f"{prefix}{name}", param
    for child_name, child in module._modules.items():
        yield from named_parameters(child, prefix=f"{prefix}{child_name}.")


def numerical_gradient(
    objective: Callable[[], float], array: np.ndarray, epsilon: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar ``objective`` with respect
    to ``array`` (mutated in place during probing, restored after)."""
    gradient = np.zeros_like(array, dtype=np.float64)
    flat = array.ravel()
    grad_flat = gradient.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = objective()
        flat[index] = original - epsilon
        lower = objective()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2.0 * epsilon)
    return gradient


@dataclass
class GradCheckEntry:
    """Result for one tensor (the input or one parameter)."""

    name: str
    max_abs_error: float
    max_rel_error: float
    passed: bool


@dataclass
class GradCheckReport:
    """All per-tensor results of one check."""

    entries: List[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def summary(self) -> str:
        lines = []
        for entry in self.entries:
            status = "ok" if entry.passed else "FAIL"
            lines.append(
                f"{status:4s} {entry.name}: max|Δ|={entry.max_abs_error:.3e} "
                f"max rel={entry.max_rel_error:.3e}"
            )
        return "\n".join(lines)


def _compare(
    name: str, analytic: np.ndarray, numeric: np.ndarray,
    atol: float, rtol: float,
) -> GradCheckEntry:
    abs_error = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(numeric), 1e-12)
    rel_error = abs_error / scale
    passed = bool(np.all(abs_error <= atol + rtol * np.abs(numeric)))
    return GradCheckEntry(
        name=name,
        max_abs_error=float(abs_error.max()) if abs_error.size else 0.0,
        max_rel_error=float(rel_error.max()) if rel_error.size else 0.0,
        passed=passed,
    )


def check_gradients(
    module: Module,
    inputs: np.ndarray,
    atol: float = 1e-6,
    rtol: float = 1e-4,
    epsilon: float = 1e-6,
    rng: SeedLike = 0,
) -> GradCheckReport:
    """Verify ``module.backward`` against central differences.

    A random upstream gradient defines the scalar objective
    ``sum(forward(x) * upstream)``; the module's input gradient and every
    parameter gradient are compared to finite differences.

    Notes: run in ``train()`` mode only if the module is deterministic
    (gradcheck through dropout's random mask will fail by construction —
    call ``module.eval()`` first); avoid inputs sitting exactly on a ReLU
    or max-pool tie.
    """
    inputs = np.array(inputs, dtype=np.float64)
    generator = as_generator(rng)
    output = module.forward(inputs)
    upstream = generator.normal(size=output.shape)

    def objective() -> float:
        return float(np.sum(module.forward(inputs) * upstream))

    report = GradCheckReport()

    module.zero_grad()
    module.forward(inputs)
    analytic_input = module.backward(upstream)
    numeric_input = numerical_gradient(objective, inputs, epsilon)
    report.entries.append(
        _compare("input", analytic_input, numeric_input, atol, rtol)
    )

    for name, param in named_parameters(module):
        module.zero_grad()
        module.forward(inputs)
        module.backward(upstream)
        analytic = param.grad.copy()
        numeric = numerical_gradient(objective, param.data, epsilon)
        report.entries.append(_compare(name, analytic, numeric, atol, rtol))
    return report
