"""Table I's analytic communication-cost model.

Costs are in *values transmitted* (multiply by 4 for bytes), exactly the
units of the paper's Table I.  Each entry also carries the table's three
feature flags: sparsification support ("SP."), client-bandwidth awareness
("C.B.") and robustness to network dynamics ("R.").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class CostModel:
    """One row of Table I."""

    algorithm: str
    server_cost: Optional[float]  # None renders as "-" (no server)
    worker_cost: float
    supports_sparsification: bool
    considers_bandwidth: bool
    robust_to_dynamics: bool


def table1_costs(
    model_size: float,
    num_workers: int,
    rounds: int,
    compression_ratio: float = 100.0,
) -> List[CostModel]:
    """Evaluate every Table I row for concrete ``(N, n, T, c)``, with the
    paper's other settings: TopK-PSGD at ``c = 1000``, DCD-PSGD at
    ``c = 4`` and ``n_p = 2`` ring neighbours.

    Formulas are the table's, verbatim:

    =============  ================  ==================
    Algorithm      Server cost       Worker cost
    =============  ================  ==================
    PS-PSGD        ``2NnT``          ``2NT``
    PSGD           —                 ``2NT``
    TopK-PSGD      —                 ``2n(N/c)T``
    FedAvg         ``2NnT``          ``2NT``
    S-FedAvg       ``(N+2N/c)nT``    ``(N+2N/c)T``
    D-PSGD         ``N``             ``4·n_p·N·T``
    DCD-PSGD       ``N``             ``4·n_p·(N/c)·T``
    SAPS-PSGD      ``N``             ``2(N/c)T``
    =============  ================  ==================
    """
    if model_size <= 0 or num_workers <= 0 or rounds <= 0:
        raise ValueError("model_size, num_workers and rounds must be positive")
    n, big_n, t = num_workers, float(model_size), rounds
    c_saps, c_topk, c_dcd, np_ = compression_ratio, 1000.0, 4.0, 2
    return [
        CostModel("PS-PSGD", 2 * big_n * n * t, 2 * big_n * t, False, False, False),
        CostModel("PSGD (all-reduce)", None, 2 * big_n * t, False, False, False),
        CostModel(
            "TopK-PSGD", None, 2 * n * (big_n / c_topk) * t, True, False, False
        ),
        CostModel("FedAvg", 2 * big_n * n * t, 2 * big_n * t, False, False, False),
        CostModel(
            "S-FedAvg",
            (big_n + 2 * big_n / c_saps) * n * t,
            (big_n + 2 * big_n / c_saps) * t,
            True,
            False,
            False,
        ),
        CostModel("D-PSGD", big_n, 4 * np_ * big_n * t, False, False, False),
        CostModel(
            "DCD-PSGD", big_n, 4 * np_ * (big_n / c_dcd) * t, True, False, False
        ),
        CostModel(
            "SAPS-PSGD", big_n, 2 * (big_n / c_saps) * t, True, True, True
        ),
    ]


def worker_cost_ranking(costs: List[CostModel]) -> List[str]:
    """Algorithm names sorted by ascending worker cost — the paper's
    headline ordering (SAPS-PSGD must come first)."""
    return [cost.algorithm for cost in sorted(costs, key=lambda c: c.worker_cost)]


def cost_models_by_name(costs: List[CostModel]) -> Dict[str, CostModel]:
    return {cost.algorithm: cost for cost in costs}
