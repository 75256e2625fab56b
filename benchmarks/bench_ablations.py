"""Ablations of SAPS-PSGD's design choices.

Not in the paper's evaluation, but each probes a decision the paper makes:

* compression ratio ``c`` vs convergence and traffic;
* ``T_thres`` (RC-edge gap) vs utilized bandwidth and consensus rate ρ;
* ``B_thres`` vs matching quality and fallback frequency;
* shared mask (paper) vs independent per-worker masks;
* adaptive vs random vs fixed-ring peer selection at equal traffic.
"""

import numpy as np

from repro.algorithms import SAPSPSGD
from repro.analysis import render_table
from repro.core.gossip import AdaptivePeerSelector
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.network.metrics import utilized_bandwidth_per_round
from repro.sim import ExperimentConfig, run_experiment
from repro.theory import consensus_factor, estimate_rho
from benchmarks.conftest import write_output


def run_saps(workload, bandwidth, rounds, seed=100, **saps_kwargs):
    partitions, validation, factory = workload
    config = ExperimentConfig(
        rounds=rounds, batch_size=16, lr=0.1, eval_every=max(rounds // 10, 1),
        seed=seed,
    )
    network = SimulatedNetwork(len(partitions), bandwidth=bandwidth)
    algorithm = SAPSPSGD(base_seed=seed, **saps_kwargs)
    result = run_experiment(
        algorithm, partitions, validation, factory, config, network
    )
    return algorithm, result


def test_ablation_compression_ratio(mlp_workload, bandwidth_32):
    """c sweep: traffic falls linearly with c; accuracy degrades slowly
    until consensus stalls — the trade-off behind the paper's c=100."""

    def sweep():
        rows = []
        outcomes = {}
        for c in [1.0, 10.0, 100.0, 1000.0]:
            _, result = run_saps(
                mlp_workload, bandwidth_32, rounds=120, compression_ratio=c
            )
            outcomes[c] = result
            rows.append(
                [
                    int(c),
                    round(100 * result.final_accuracy, 2),
                    round(result.history[-1].worker_traffic_mb, 5),
                    round(result.history[-1].consensus_distance, 5),
                ]
            )
        text = render_table(
            ["c", "final acc [%]", "traffic [MB]", "consensus dist"],
            rows, title="Ablation — compression ratio sweep (SAPS-PSGD)",
        )
        return text, outcomes

    text, outcomes = sweep()
    write_output("ablation_compression.txt", text)

    # Traffic scales ~1/c.
    t1 = outcomes[1.0].history[-1].worker_traffic_mb
    t100 = outcomes[100.0].history[-1].worker_traffic_mb
    assert t1 / t100 > 50
    # Dense exchange reaches at least the accuracy of heavy sparsification.
    assert outcomes[1.0].final_accuracy >= outcomes[1000.0].final_accuracy - 0.02
    # Consensus distance grows with c (Lemma 2's factor → 1).
    assert (
        outcomes[1000.0].history[-1].consensus_distance
        > outcomes[1.0].history[-1].consensus_distance
    )


def test_ablation_connectivity_gap():
    """T_thres sweep on the selector alone: a larger gap leaves more
    rounds for bandwidth-preferring matchings (higher utilized bandwidth)
    but slows information spreading (larger ρ of E[WᵀW])."""
    bandwidth = random_uniform_bandwidth(16, rng=3)

    def sweep():
        rows = []
        stats = {}
        for gap in [2, 8, 32]:
            selector = AdaptivePeerSelector(
                bandwidth, connectivity_gap=gap, rng=5
            )
            utilized = []
            fallbacks = 0
            gossips = []
            for t in range(300):
                result = selector.select(t)
                utilized.append(
                    utilized_bandwidth_per_round(result.matching, bandwidth)
                )
                fallbacks += int(result.used_fallback)
                gossips.append(result.gossip)
            rho = estimate_rho(lambda t: gossips[t % len(gossips)], 300)
            stats[gap] = {
                "bandwidth": float(np.mean(utilized)),
                "fallback_fraction": fallbacks / 300,
                "rho": rho,
            }
            rows.append(
                [gap, round(stats[gap]["bandwidth"], 4),
                 round(stats[gap]["fallback_fraction"], 3),
                 round(rho, 4)]
            )
        text = render_table(
            ["T_thres", "mean util. MB/s", "fallback frac", "rho(E[WtW])"],
            rows, title="Ablation — connectivity gap (T_thres) sweep",
        )
        return text, stats

    text, stats = sweep()
    write_output("ablation_tthres.txt", text)

    # More frequent reconnection (small gap) = more fallback rounds.
    assert stats[2]["fallback_fraction"] > stats[32]["fallback_fraction"]
    # Larger gap lets the selector exploit bandwidth more.
    assert stats[32]["bandwidth"] >= stats[2]["bandwidth"]
    # All settings keep Assumption 3 (rho < 1).
    for gap_stats in stats.values():
        assert gap_stats["rho"] < 1.0


def test_ablation_bandwidth_threshold():
    """B_thres sweep: a higher threshold yields better matched links until
    the filtered graph gets too sparse to match within B*."""
    bandwidth = random_uniform_bandwidth(16, rng=11)
    off_diag = bandwidth[~np.eye(16, dtype=bool)]

    def sweep():
        rows = []
        stats = {}
        for percentile in [25, 50, 90]:
            threshold = float(np.percentile(off_diag, percentile))
            selector = AdaptivePeerSelector(
                bandwidth, bandwidth_threshold=threshold,
                connectivity_gap=20, rng=5,
            )
            utilized = []
            second_pass = 0
            for t in range(300):
                result = selector.select(t)
                utilized.append(
                    utilized_bandwidth_per_round(result.matching, bandwidth)
                )
                second_pass += result.second_pass_pairs
            stats[percentile] = {
                "bandwidth": float(np.mean(utilized)),
                "second_pass": second_pass,
            }
            rows.append(
                [percentile, round(threshold, 3),
                 round(stats[percentile]["bandwidth"], 4), second_pass]
            )
        text = render_table(
            ["B_thres pctile", "threshold MB/s", "mean util. MB/s",
             "2nd-pass pairs"],
            rows, title="Ablation — bandwidth threshold (B_thres) sweep",
        )
        return text, stats

    text, stats = sweep()
    write_output("ablation_bthres.txt", text)
    # Stricter filtering needs the bandwidth-blind second pass more often.
    assert stats[90]["second_pass"] >= stats[25]["second_pass"]


def test_ablation_selector_policy(mlp_workload, bandwidth_32):
    """Adaptive vs random vs fixed-ring at identical traffic: the policies
    move the *time* axis, not the traffic axis."""

    def sweep():
        rows = []
        outcomes = {}
        for selector in ["adaptive", "random", "ring"]:
            algorithm, result = run_saps(
                mlp_workload, bandwidth_32, rounds=120,
                compression_ratio=20.0, selector=selector,
            )
            outcomes[selector] = (algorithm, result)
            rows.append(
                [
                    selector,
                    round(100 * result.final_accuracy, 2),
                    round(result.history[-1].worker_traffic_mb, 5),
                    round(result.history[-1].comm_time_s, 4),
                    round(float(np.mean(algorithm.round_bandwidths)), 4),
                ]
            )
        text = render_table(
            ["selector", "final acc [%]", "traffic [MB]", "time [s]",
             "mean util. MB/s"],
            rows, title="Ablation — peer-selection policy",
        )
        return text, outcomes

    text, outcomes = sweep()
    write_output("ablation_selector.txt", text)

    traffic = {
        name: result.history[-1].worker_traffic_mb
        for name, (_, result) in outcomes.items()
    }
    times = {
        name: result.history[-1].comm_time_s
        for name, (_, result) in outcomes.items()
    }
    # Same sparsification → same traffic (within rounding).
    assert max(traffic.values()) / min(traffic.values()) < 1.05
    # Adaptive selection wins on time.
    assert times["adaptive"] == min(times.values())


def test_ablation_local_steps(mlp_workload, bandwidth_32):
    """Local-steps extension: more SGD steps between exchanges reduce the
    exchanges needed to a target (FedAvg's trick grafted onto SAPS), at
    the price of larger consensus distance."""

    def sweep():
        rows = []
        outcomes = {}
        for steps in [1, 2, 4, 8]:
            _, result = run_saps(
                mlp_workload, bandwidth_32, rounds=120 // steps,
                compression_ratio=20.0, local_steps=steps,
            )
            outcomes[steps] = result
            rows.append(
                [
                    steps,
                    120 // steps,
                    round(100 * result.final_accuracy, 2),
                    round(result.history[-1].worker_traffic_mb, 5),
                    round(result.history[-1].consensus_distance, 5),
                ]
            )
        text = render_table(
            ["local steps", "rounds", "final acc [%]", "traffic [MB]",
             "consensus dist"],
            rows,
            title="Ablation — local SGD steps per exchange (equal total steps)",
        )
        return text, outcomes

    text, outcomes = sweep()
    write_output("ablation_local_steps.txt", text)

    # Fewer exchanges -> proportionally less traffic at equal SGD steps.
    t1 = outcomes[1].history[-1].worker_traffic_mb
    t8 = outcomes[8].history[-1].worker_traffic_mb
    assert t1 / t8 > 4.0
    # Accuracy should not collapse at moderate local steps.
    assert outcomes[2].final_accuracy >= outcomes[1].final_accuracy - 0.1


def test_ablation_shared_vs_independent_mask(mlp_workload, bandwidth_32):
    """The paper's shared-seed mask vs independent per-worker masks.

    With independent masks the two sides of an exchange select different
    coordinates, so a plain 'average what you received' update is no
    longer a doubly-stochastic mixing — pair means drift and consensus
    degrades.  We quantify the gap.
    """
    from repro.sim import make_workers
    from repro.compression.random_mask import generate_mask
    from repro.utils.rng import derive_seed

    partitions, validation, factory = mlp_workload

    class IndependentMaskSAPS(SAPSPSGD):
        name = "SAPS-independent-mask"

        def run_round(self, round_index):
            plan = self._plan(round_index)
            losses = self.cluster_trainer.batched_steps(1)
            rows = self.arena.data
            for a, b in plan.matching:
                mask_a = generate_mask(
                    self.model_size, self.compression_ratio,
                    derive_seed(self.base_seed, "ind", round_index, a),
                )
                mask_b = generate_mask(
                    self.model_size, self.compression_ratio,
                    derive_seed(self.base_seed, "ind", round_index, b),
                )
                params_a, params_b = rows[a].copy(), rows[b].copy()
                # Each side averages the coordinates *it received*.
                rows[a, mask_b] = 0.5 * (params_a[mask_b] + params_b[mask_b])
                rows[b, mask_a] = 0.5 * (params_b[mask_a] + params_a[mask_a])
            if self.coordinator is not None:
                self.coordinator.notify_round_end(np.arange(self.num_workers))
            self.network.finish_round()
            return float(np.mean(losses))

    def sweep():
        config = ExperimentConfig(
            rounds=120, batch_size=16, lr=0.1, eval_every=12, seed=100
        )
        outcomes = {}
        for name, algorithm in {
            "shared (paper)": SAPSPSGD(compression_ratio=20.0, base_seed=100),
            "independent": IndependentMaskSAPS(
                compression_ratio=20.0, base_seed=100
            ),
        }.items():
            network = SimulatedNetwork(len(partitions), bandwidth=bandwidth_32)
            outcomes[name] = run_experiment(
                algorithm, partitions, validation, factory, config, network
            )
        rows = [
            [
                name,
                round(100 * result.final_accuracy, 2),
                round(result.history[-1].consensus_distance, 5),
            ]
            for name, result in outcomes.items()
        ]
        text = render_table(
            ["mask scheme", "final acc [%]", "consensus dist"],
            rows, title="Ablation — shared vs independent random masks",
        )
        return text, outcomes

    text, outcomes = sweep()
    write_output("ablation_mask_scheme.txt", text)

    shared = outcomes["shared (paper)"]
    independent = outcomes["independent"]
    # The shared scheme must not lose to the independent one.
    assert shared.final_accuracy >= independent.final_accuracy - 0.05
