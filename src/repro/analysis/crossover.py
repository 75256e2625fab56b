"""Accuracy-vs-cost frontiers.

The reproduction question for Figs. 4/6 is "who leads, over how much of
the budget range".  Curves are compared by monotone step interpolation of
accuracy-at-cost (accuracy at a budget = best accuracy recorded at or
under that cost).  The cost is worker traffic (MB), Fig. 4's axis.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.sim.engine import ExperimentResult


def accuracy_at_cost(result: ExperimentResult, budget: float) -> Optional[float]:
    """Best validation accuracy achieved within a traffic budget, or None
    if even the first snapshot exceeds the budget."""
    best: Optional[float] = None
    for record in result.history:
        if record.worker_traffic_mb <= budget:
            value = record.val_accuracy
            best = value if best is None else max(best, value)
    return best


def dominance_summary(
    results: Dict[str, ExperimentResult],
    resolution: int = 100,
) -> Dict[str, float]:
    """Fraction of the (log-spaced) budget range each algorithm leads.

    A value of 1.0 for SAPS-PSGD means it dominates the whole frontier —
    the strongest form of the paper's Fig. 4 claim.
    """
    costs = [
        record.worker_traffic_mb
        for result in results.values()
        for record in result.history
        if record.worker_traffic_mb > 0
    ]
    if not costs:
        return {name: 0.0 for name in results}
    low, high = min(costs), max(costs)
    grid = (
        np.logspace(np.log10(low), np.log10(high), resolution)
        if low < high
        else np.array([low])
    )
    wins = {name: 0 for name in results}
    decided = 0
    for budget in grid:
        scored = {
            name: accuracy_at_cost(result, budget) or 0.0
            for name, result in results.items()
        }
        best = max(scored.values())
        if best <= 0:
            continue
        leaders = [name for name, value in scored.items() if value == best]
        decided += 1
        for name in leaders:
            wins[name] += 1 / len(leaders)
    if decided == 0:
        return {name: 0.0 for name in results}
    return {name: wins[name] / decided for name in results}
