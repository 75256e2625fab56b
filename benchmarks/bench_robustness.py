"""Robustness benches: the Table I "R." column, measured.

Not a paper figure, but the paper's central qualitative claim about
network dynamics ("workers may join/leave the training randomly ...
DCD-PSGD requires that the network topology should keep unchanged").
Two benches:

* churn: SAPS-PSGD with adaptive matching vs fixed-ring pairing, same
  sparsification, workers crashing and recovering under a seeded
  MTTF/MTTR fault plan — accuracy compared;
* drift: adaptive selection fed periodically re-estimated bandwidths vs
  a selector stuck with the round-0 snapshot, on drifting ground truth.
"""

import numpy as np

from repro.algorithms import SAPSPSGD
from repro.analysis import render_table
from repro.core.gossip import AdaptivePeerSelector
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.network.estimation import BandwidthEstimator, DriftingBandwidth
from repro.network.metrics import utilized_bandwidth_per_round
from repro.sim import ExperimentConfig, FaultPlan, run_experiment
from benchmarks.conftest import write_output

NUM_WORKERS = 12
ROUNDS = 120


def test_robustness_to_churn():
    full = make_blobs(num_samples=70 * NUM_WORKERS + 300, rng=41)
    train, validation = full.split(fraction=0.85, rng=41)
    partitions = partition_iid(train, NUM_WORKERS, rng=41)
    config = ExperimentConfig(
        rounds=ROUNDS, batch_size=16, lr=0.1, eval_every=20, seed=41
    )
    factory = lambda: __import__("repro").nn.MLP(32, [32], 10, rng=41)

    # One round per simulated second: up ~1/0.15 rounds, down ~1/0.4.
    plan = FaultPlan.from_rates(
        NUM_WORKERS, mttf=1 / 0.15, mttr=1 / 0.4, horizon=ROUNDS, seed=9,
        min_up=4,
    )

    def sweep():
        outcomes = {}
        for name, selector in [("adaptive", "adaptive"), ("fixed ring", "ring")]:
            algorithm = SAPSPSGD(
                compression_ratio=20.0, selector=selector, fault_plan=plan,
                base_seed=41,
            )
            result = run_experiment(
                algorithm, partitions, validation, factory, config,
                SimulatedNetwork(NUM_WORKERS),
            )
            outcomes[name] = result
        rows = [
            [
                name,
                round(100 * result.final_accuracy, 2),
                round(result.history[-1].worker_traffic_mb, 4),
            ]
            for name, result in outcomes.items()
        ]
        text = render_table(
            ["pairing", "final acc [%]", "traffic [MB]"],
            rows,
            title=(
                "Robustness — SAPS under a rate fault plan "
                "(MTTF 6.7 rounds, MTTR 2.5 rounds)"
            ),
        )
        return text, outcomes

    text, outcomes = sweep()
    write_output("robustness_churn.txt", text)

    # Both still converge (single-peer gossip is churn-tolerant), and
    # the adaptive policy is at least as good as the brittle fixed ring.
    assert outcomes["adaptive"].final_accuracy > 0.8
    assert (
        outcomes["adaptive"].final_accuracy
        >= outcomes["fixed ring"].final_accuracy - 0.05
    )


def test_robustness_to_bandwidth_drift():
    def sweep():
        truth = DriftingBandwidth(
            random_uniform_bandwidth(NUM_WORKERS, rng=5), drift=0.08, rng=5
        )
        estimator = BandwidthEstimator(
            NUM_WORKERS, smoothing=0.5, measurement_noise=0.1, rng=6
        )
        estimator.survey(truth.at(0))
        stale = AdaptivePeerSelector(truth.at(0), connectivity_gap=20, rng=7)
        fresh = AdaptivePeerSelector(
            estimator.estimate(), connectivity_gap=20, rng=7
        )
        stale_bw, fresh_bw = [], []
        for t in range(300):
            current = truth.at(t)
            if t > 0 and t % 25 == 0:
                estimator.survey(current)
                fresh = AdaptivePeerSelector(
                    estimator.estimate(), connectivity_gap=20, rng=7 + t
                )
            stale_bw.append(
                utilized_bandwidth_per_round(stale.select(t).matching, current)
            )
            fresh_bw.append(
                utilized_bandwidth_per_round(fresh.select(t).matching, current)
            )
        rows = [
            ["round-0 snapshot", round(float(np.mean(stale_bw)), 4)],
            ["periodic re-estimation", round(float(np.mean(fresh_bw)), 4)],
        ]
        text = render_table(
            ["bandwidth source", "mean true bottleneck [MB/s]"],
            rows,
            title="Robustness — selection quality under 8%/round bandwidth drift",
        )
        return text, float(np.mean(stale_bw)), float(np.mean(fresh_bw))

    text, stale_mean, fresh_mean = sweep()
    write_output("robustness_drift.txt", text)
    # Re-estimation must beat the stale snapshot once truth has drifted.
    assert fresh_mean > stale_mean


def test_churn_availability_model():
    """Sanity-bench the churn substrate itself: the up-fraction of a
    rate-drawn fault plan matches mttf / (mttf + mttr) across
    parameterizations."""
    workers, horizon = 16, 400.0

    def up_fraction(plan):
        down = sum(
            min(end, horizon) - start
            for rank in range(workers)
            for start, end in plan.down_intervals(rank)
        )
        return 1.0 - down / (workers * horizon)

    def sweep():
        rows = []
        for mttf, mttr in [(20.0, 2.0), (5.0, 2.5), (10 / 3, 10 / 3)]:
            plan = FaultPlan.from_rates(
                workers, mttf=mttf, mttr=mttr, horizon=horizon, seed=11,
                min_up=1,
            )
            measured = up_fraction(plan)
            expected = mttf / (mttf + mttr)
            rows.append(
                [round(mttf, 2), round(mttr, 2), round(expected, 3),
                 round(measured, 3)]
            )
        text = render_table(
            ["MTTF", "MTTR", "stationary (theory)", "measured"],
            rows, title="Fault-plan availability calibration",
        )
        return text, rows

    text, rows = sweep()
    write_output("robustness_churn_model.txt", text)
    for _, _, expected, measured in rows:
        assert abs(measured - expected) < 0.08
