"""Command-line experiment runner.

Run a single algorithm or the full 7-algorithm comparison from the shell:

    python -m repro.cli run --algorithm saps-psgd --workers 8 --rounds 60
    python -m repro.cli compare --workers 8 --rounds 100 --non-iid
    python -m repro.cli table1 --model-size 6653628 --workers 32
    python -m repro.cli rho --workers 16

Every subcommand prints paper-style tables; ``--output FILE`` also writes
the trajectories as JSON (``repro.analysis.io`` format), on either
``--engine``.

``run`` builds everything its flags describe before the first round; a
bad value exits as ``configuration error: <message>``.  A flag that sets
an algorithm attribute needs an algorithm whose constructor takes it.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import replace
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from repro.algorithms import (
    AsyncDPSGD,
    AsyncFedAvg,
    AsyncGossip,
    DCDPSGD,
    DPSGD,
    FedAvg,
    PSGD,
    SAPSPSGD,
    SparseFedAvg,
    TopKPSGD,
)
from repro.analysis import (
    costs_at_target,
    pick_common_target,
    render_resilience_summary,
    render_table,
    render_worker_resilience,
    render_worker_timeline,
    resilience_summary,
    table1_costs,
    worker_resilience_table,
    worker_timeline,
)
from repro.analysis.io import save_comparison, save_result
from repro.core.gossip import AdaptivePeerSelector, RandomPeerSelector
from repro.data import make_blobs, partition_dirichlet, partition_iid
from repro.network import (
    SimulatedNetwork,
    fig1_environment,
    random_uniform_bandwidth,
)
from repro.nn import MLP
from repro.sim import (
    ConstantCompute,
    ExperimentConfig,
    ExperimentResult,
    HeterogeneousCompute,
    SuiteSettings,
    parse_population,
    run_comparison,
    run_event_experiment,
    run_experiment,
)
from repro.theory import consensus_factor, estimate_rho
from repro.utils.validation import check_positive

#: Each ``--algorithm``'s constructor with the common flags bound; the
#: availability flags add their own arguments when it is called.
ALGORITHM_FACTORIES = {
    "psgd": lambda args: PSGD,
    "topk-psgd": lambda args: partial(TopKPSGD, args.compression),
    "fedavg": lambda args: FedAvg,
    "s-fedavg": lambda args: partial(SparseFedAvg, compression_ratio=args.compression),
    "d-psgd": lambda args: DPSGD,
    "dcd-psgd": lambda args: partial(DCDPSGD, min(args.compression, 4.0)),
    "saps-psgd": lambda args: partial(
        SAPSPSGD, compression_ratio=args.compression, base_seed=args.seed,
        connectivity_gap=args.connectivity_gap,
    ),
}

#: Asynchronous counterparts used by ``--engine event`` (algorithms
#: without one keep their synchronous rounds; the round loop's clock
#: then also carries the compute model).
ASYNC_FACTORIES = {
    "saps-psgd": lambda args: partial(
        AsyncGossip, compression_ratio=args.compression, base_seed=args.seed,
    ),
    "d-psgd": lambda args: AsyncDPSGD,
    "fedavg": lambda args: AsyncFedAvg,
}

#: The algorithm attributes each availability flag sets, which the
#: constructor must take.  An asynchronous variant reads the population
#: and the fault plan off the event engine, so only sampling reaches it.
FLAG_ATTRIBUTES = {
    "--participation sampled": ("sample_size",),
    "--population-model": ("population",),
    "--fault-plan": ("fault_plan",),
}


def _build_workload(args):
    """Dataset, partitions, validation split and model factory."""
    samples = args.samples_per_worker * args.workers + args.validation_samples
    full = make_blobs(num_samples=samples, num_classes=10, num_features=32, rng=args.seed)
    fraction = (samples - args.validation_samples) / samples
    train, validation = full.split(fraction=fraction, rng=args.seed)
    if args.non_iid:
        partitions = partition_dirichlet(
            train, args.workers, alpha=args.dirichlet_alpha, rng=args.seed,
            min_samples=args.batch_size,
        )
    else:
        partitions = partition_iid(train, args.workers, rng=args.seed)
    factory = lambda: MLP(32, [32], 10, rng=args.seed, dtype=args.dtype)
    return partitions, validation, factory


def _build_bandwidth(args) -> Optional[np.ndarray]:
    if args.bandwidth == "none":
        return None
    if args.bandwidth == "fig1":
        matrix = fig1_environment()
        if args.workers != matrix.shape[0]:
            raise ValueError(
                f"--bandwidth fig1 requires --workers {matrix.shape[0]}"
            )
        return matrix
    return random_uniform_bandwidth(args.workers, rng=args.seed)


def _config(args) -> ExperimentConfig:
    return ExperimentConfig(
        rounds=args.rounds,
        batch_size=args.batch_size,
        lr=args.lr,
        eval_every=args.eval_every,
        seed=args.seed,
        dtype=args.dtype,
        local_steps=args.local_steps,
    )


def _configured(build: Callable, *args):
    """Run one build step.  A ``ValueError`` there is a bad flag value
    and exits as ``configuration error: <message>``; one raised later,
    inside a training round, keeps its traceback."""
    try:
        return build(*args)
    except ValueError as error:
        raise SystemExit(f"configuration error: {error}")


def _parse_fault_plan(args, horizon: float):
    """Parse ``--fault-plan`` into a :class:`FaultPlan` (None when unset
    or empty — the bit-identical fault-free path)."""
    from repro.sim.faults import FaultPlan

    plan = FaultPlan.parse(
        args.fault_plan, args.workers, horizon=horizon, seed=args.seed
    )
    if plan is not None and plan.is_empty:
        return None
    return plan


def _takes(args, key: str, flag: str) -> bool:
    """Whether ``--algorithm key`` on ``--engine`` has what ``flag`` sets."""
    if args.engine == "event" and key in ASYNC_FACTORIES:
        if flag != "--participation sampled":
            return True
        constructor = ASYNC_FACTORIES[key](args)
    else:
        constructor = ALGORITHM_FACTORIES[key](args)
    parameters = inspect.signature(constructor).parameters
    return all(name in parameters for name in FLAG_ATTRIBUTES[flag])


def _check_flags(args, given: dict) -> None:
    """Reject an availability flag ``--algorithm`` cannot take, naming
    the algorithm keys that take it on this engine."""
    for flag, attributes in FLAG_ATTRIBUTES.items():
        if not given[flag] or _takes(args, args.algorithm, flag):
            continue
        takers = [k for k in sorted(ALGORITHM_FACTORIES) if _takes(args, k, flag)]
        needs = "an algorithm with " + " and ".join(attributes)
        if flag != "--participation sampled":
            needs += ", or an asynchronous variant on --engine event"
        raise ValueError(
            f"{flag} needs {needs}: on the {args.engine} engine that is "
            f"{', '.join(takers)}, not --algorithm {args.algorithm}"
        )


def _history_table(result, simulated: bool) -> str:
    """One trajectory table for either engine; ``simulated`` adds the
    event-engine columns (cumulative local steps, mean staleness)."""
    headers = ["round", "train loss", "val acc [%]", "traffic [MB]", "time [s]"]
    rows = [
        [
            record.round_index,
            round(record.train_loss, 4),
            round(100 * record.val_accuracy, 2),
            round(record.worker_traffic_mb, 5),
            round(record.time_s, 4),
        ]
        for record in result.history
    ]
    if simulated:
        headers += ["local steps", "staleness"]
        for row, record in zip(rows, result.history):
            row += [record.local_steps, round(record.mean_staleness, 2)]
    return render_table(
        headers,
        rows,
        title=f"{result.algorithm} "
        + ("simulated-time trajectory" if simulated else "trajectory"),
    )


def _build_compute_model(args):
    """Compute-time model for the event engine: constant by default,
    heterogeneous (log-uniform worker means) when ``--compute-spread``
    exceeds 1."""
    if args.compute_spread > 1.0:
        return HeterogeneousCompute(
            args.workers,
            mean_step_time=args.compute_time,
            spread=args.compute_spread,
            rng=args.seed,
        )
    return ConstantCompute(args.compute_time)


def _build_run(args) -> Callable[[], ExperimentResult]:
    """Everything the ``run`` flags describe, built before the first
    round; returns the run itself.  A synchronous algorithm takes its
    sampling, population and fault plan through its
    constructor; an asynchronous variant takes only its sample size, and
    the event engine the rest."""
    if args.workers < 2:
        raise ValueError(f"--workers must be at least 2, got {args.workers}")
    check_positive(args.exchange_timeout, "--exchange-timeout")
    if args.preset:
        from repro.presets import instantiate_preset

        partitions, validation, factory, config = instantiate_preset(
            args.preset,
            num_workers=args.workers,
            fast=not args.full_model,
            samples_per_worker=args.samples_per_worker,
            validation_samples=args.validation_samples,
            seed=args.seed,
            dtype=args.dtype,
        )
        config = replace(config, local_steps=args.local_steps)
    else:
        partitions, validation, factory = _build_workload(args)
        config = _config(args)
    bandwidth = _build_bandwidth(args)
    network = SimulatedNetwork(args.workers, bandwidth=bandwidth)
    population = parse_population(args.population_model, args.workers, seed=args.seed)
    sampled = args.participation == "sampled"
    if sampled != (args.sample_size is not None):
        raise ValueError("--participation sampled and --sample-size K go together")
    event = args.engine == "event"
    compute_model = _build_compute_model(args) if event else None
    asynchronous = event and args.algorithm in ASYNC_FACTORIES
    if asynchronous:
        check_positive(args.sim_time, "--sim-time")
        if args.algorithm == "d-psgd" and args.local_steps > 1:
            raise ValueError(
                f"--local-steps {args.local_steps}: d-psgd on --engine event "
                "(AD-PSGD) takes one gradient per cycle; use --local-steps 1"
            )
        if args.checkpoint_every is not None:
            check_positive(args.checkpoint_every, "--checkpoint-every")
    plan = _parse_fault_plan(
        args,
        horizon=args.sim_time if asynchronous else args.rounds * args.round_duration,
    )
    _check_flags(args, {
        "--participation sampled": sampled,
        "--population-model": population is not None,
        "--fault-plan": plan is not None,
    })
    factories = ASYNC_FACTORIES if asynchronous else ALGORITHM_FACTORIES
    constructor = factories[args.algorithm](args)
    wiring = {"sample_size": args.sample_size} if sampled else {}
    data = (partitions, validation, factory, config, network)

    if asynchronous:
        exchange_policy = recovery = None
        if plan is not None:
            from repro.resilience import ExchangePolicy, make_recovery_policy

            exchange_policy = ExchangePolicy(
                timeout=args.exchange_timeout,
                max_retries=args.max_retries,
                seed=args.seed,
            )
            recovery = make_recovery_policy(
                args.recovery, checkpoint_interval=args.checkpoint_interval
            )
        return partial(
            run_event_experiment, constructor(**wiring), *data,
            compute_model=compute_model, duration=args.sim_time,
            checkpoint_every=args.checkpoint_every, fault_plan=plan,
            exchange_policy=exchange_policy, recovery=recovery,
            population=population,
        )

    if sampled or population is not None:
        wiring.update(population=population, round_duration=args.round_duration)
    if plan is not None:
        # The plan the event engine executes, read over each round's
        # window [rΔ, rΔ + Δ).
        wiring.update(fault_plan=plan, round_duration=args.round_duration)
    return partial(
        run_experiment, constructor(**wiring), *data, compute_model=compute_model
    )


def cmd_run(args) -> int:
    run = _configured(_build_run, args)
    if args.preset:
        print(f"Preset: {args.preset} (fast={not args.full_model})")
    result = run()
    print(_history_table(result, simulated=args.engine == "event"))
    if result.resilience is not None:
        print()
        print(render_resilience_summary(resilience_summary(result.resilience)))
        print()
        print(
            render_worker_resilience(
                worker_resilience_table(result.resilience, result.horizon)
            )
        )
    if result.trace is not None and result.horizon > 0:
        print()
        print(render_worker_timeline(worker_timeline(result.trace, result.horizon)))
    if args.output:
        path = save_result(result, args.output)
        print(f"\nSaved trajectory to {path}")
    return 0


def cmd_compare(args) -> int:
    config = _configured(_config, args)
    partitions, validation, factory = _build_workload(args)
    bandwidth = _configured(_build_bandwidth, args)
    settings = SuiteSettings(
        saps_compression=args.compression,
        sfedavg_compression=args.compression,
        topk_compression=max(args.compression * 5, 10.0),
        connectivity_gap=args.connectivity_gap,
        base_seed=args.seed,
    )
    results = run_comparison(
        partitions, validation, factory, config,
        bandwidth=bandwidth, settings=settings,
        local_steps=args.local_steps if args.local_steps > 1 else None,
    )
    rows = [
        [
            name,
            round(100 * result.final_accuracy, 2),
            round(result.history[-1].worker_traffic_mb, 5),
            round(result.history[-1].comm_time_s, 4),
        ]
        for name, result in results.items()
    ]
    print(
        render_table(
            ["Algorithm", "final acc [%]", "traffic [MB]", "time [s]"],
            rows, title="Comparison summary",
        )
    )
    target = pick_common_target(results, fraction_of_best=args.target_fraction)
    target_rows = [
        [
            row.algorithm,
            None if row.traffic_mb is None else round(row.traffic_mb, 5),
            None if row.time_seconds is None else round(row.time_seconds, 4),
        ]
        for row in costs_at_target(results, target)
    ]
    print(
        "\n"
        + render_table(
            ["Algorithm", "traffic to target [MB]", "time to target [s]"],
            target_rows,
            title=f"Cost to reach {100 * target:.1f}% accuracy",
        )
    )
    if args.output:
        path = save_comparison(results, args.output)
        print(f"\nSaved all trajectories to {path}")
    return 0


def cmd_table1(args) -> int:
    costs = table1_costs(
        model_size=args.model_size,
        num_workers=args.workers,
        rounds=args.rounds,
        compression_ratio=args.compression,
    )
    rows = [
        [c.algorithm, c.server_cost, c.worker_cost,
         c.supports_sparsification, c.considers_bandwidth, c.robust_to_dynamics]
        for c in costs
    ]
    print(
        render_table(
            ["Algorithm", "Server cost", "Worker cost", "SP.", "C.B.", "R."],
            rows, title="Table I — analytic communication cost (values)",
        )
    )
    return 0


def cmd_rho(args) -> int:
    bandwidth = _configured(_build_bandwidth, args)
    if bandwidth is None:
        bandwidth = random_uniform_bandwidth(args.workers, rng=args.seed)
    rows = []
    adaptive = AdaptivePeerSelector(
        bandwidth, connectivity_gap=args.connectivity_gap, rng=args.seed
    )
    random_sel = RandomPeerSelector(args.workers, rng=args.seed)
    for name, selector in [("adaptive", adaptive), ("random", random_sel)]:
        rho = estimate_rho(
            lambda t: selector.select(t).gossip, num_samples=args.rho_samples
        )
        rows.append(
            [name, round(rho, 4),
             round(consensus_factor(args.compression, rho), 6)]
        )
    print(
        render_table(
            ["selector", "rho", f"q+p*rho^2 (c={args.compression:g})"],
            rows, title="Assumption 3 diagnostics",
        )
    )
    return 0


def _load_comparison_input(path: str):
    """The comparison saved at ``path``; a missing file, or one of another
    kind, exits as ``input error: <path>: <message>``."""
    from repro.analysis.io import load_comparison

    try:
        return load_comparison(path)
    except FileNotFoundError:
        problem = "no such file"
    except (OSError, ValueError) as error:
        problem = str(error)
    raise SystemExit(
        f"input error: {path}: {problem}; expected a comparison saved by `compare --output`"
    )


def cmd_report(args) -> int:
    from repro.analysis.report import comparison_report

    results = _load_comparison_input(args.input)
    report = comparison_report(
        results,
        title=args.title,
        target_accuracy=args.target,
        target_fraction=args.target_fraction,
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(report + "\n")
        print(f"Wrote report to {args.output}")
    else:
        print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SAPS-PSGD reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workers", type=int, default=8)
        p.add_argument("--rounds", type=int, default=60)
        p.add_argument("--batch-size", type=int, default=16)
        p.add_argument("--lr", type=float, default=0.1)
        p.add_argument("--eval-every", type=int, default=10)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--compression", type=float, default=100.0)
        p.add_argument("--connectivity-gap", type=int, default=20)
        p.add_argument(
            "--bandwidth", choices=["random", "fig1", "none"], default="random"
        )
        p.add_argument(
            "--dtype",
            choices=["float32", "float64"],
            default="float64",
            help="numeric dtype of the training substrate (float64 is "
            "bit-identical to historical runs; float32 halves memory "
            "traffic, matching the measured systems' fp32 tensors)",
        )
        p.add_argument(
            "--num-threads",
            type=int,
            default=None,
            help="worker threads for the block-parallel hot paths "
            "(cluster blocks, fused mixing, batched top-k, consensus "
            "eval); default: the REPRO_NUM_THREADS environment variable, "
            "else 1.  Never changes numerics — any thread count produces "
            "bit-identical results",
        )
        p.add_argument(
            "--local-steps",
            type=int,
            default=1,
            help="local SGD steps per communication round (paper: 1); "
            "applies to algorithms with a local phase (SAPS-PSGD here)",
        )
        p.add_argument("--non-iid", action="store_true")
        p.add_argument("--dirichlet-alpha", type=float, default=0.5)
        p.add_argument("--samples-per-worker", type=int, default=60)
        p.add_argument("--validation-samples", type=int, default=200)
        p.add_argument("--output", type=str, default=None)
        p.add_argument(
            "--obs", choices=["off", "metrics", "trace"], default="off",
            help="telemetry: 'metrics' records counters/histograms, "
            "'trace' additionally captures a Chrome trace of phase spans "
            "(wall-time lanes per thread, simulated-time lanes per "
            "worker).  Never changes numerics — 'off' (default) is the "
            "zero-overhead null recorder",
        )
        p.add_argument(
            "--metrics-out", type=str, default=None,
            help="write the recorded metrics snapshot as JSON "
            "(implies --obs metrics)",
        )
        p.add_argument(
            "--trace-out", type=str, default=None,
            help="write the recorded Chrome trace-event JSON — load in "
            "chrome://tracing or Perfetto (implies --obs trace)",
        )

    run_p = sub.add_parser("run", help="run one algorithm")
    run_p.add_argument(
        "--algorithm", choices=sorted(ALGORITHM_FACTORIES), default="saps-psgd"
    )
    run_p.add_argument(
        "--preset",
        choices=["mnist-cnn", "cifar10-cnn", "resnet-20"],
        default=None,
        help=(
            "use a Table II preset workload instead of blobs (the conv "
            "presets ride the batched cluster engine, loop-free)"
        ),
    )
    run_p.add_argument(
        "--full-model",
        action="store_true",
        help="with --preset: use the paper's full architecture (slow)",
    )
    run_p.add_argument(
        "--engine",
        choices=["sync", "event"],
        default="sync",
        help="execution engine: 'sync' runs round-synchronous barriers "
        "(default, bit-identical to historical runs); 'event' runs the "
        "asynchronous variants of saps-psgd/d-psgd/fedavg on the "
        "discrete-event engine, and gives the other algorithms' "
        "synchronous rounds a compute model and the simulated-time table",
    )
    run_p.add_argument(
        "--sim-time", type=float, default=30.0,
        help="event engine: simulated seconds to run (async variants)",
    )
    run_p.add_argument(
        "--checkpoint-every", type=float, default=None,
        help="event engine: simulated seconds between metric checkpoints "
        "(default: sim-time / 10)",
    )
    run_p.add_argument(
        "--compute-time", type=float, default=0.05,
        help="event engine: mean seconds per local step",
    )
    run_p.add_argument(
        "--compute-spread", type=float, default=1.0,
        help="event engine: straggler spread (1 = constant compute; "
        ">1 draws per-worker means log-uniform over [t/s, t*s])",
    )
    run_p.add_argument(
        "--fault-plan", type=str, default=None,
        help="fault injection: scripted events "
        "('crash:1@3.0,recover:1@8.0,link_down:0-2@1.0,link_up:0-2@4.0') "
        "or seeded exponentials ('mttf=20,mttr=5'); 'none' or empty "
        "disables (bit-identical to a fault-free run).  Timed semantics "
        "on --engine event; read over each round's window on sync",
    )
    run_p.add_argument(
        "--exchange-timeout", type=float, default=5.0,
        help="faults: per-exchange deadline in simulated seconds before "
        "the survivor backs off and retries",
    )
    run_p.add_argument(
        "--max-retries", type=int, default=3,
        help="faults: backoff retries before an exchange is abandoned "
        "(the re-match path)",
    )
    run_p.add_argument(
        "--recovery", choices=["checkpoint", "peer", "cold"],
        default="checkpoint",
        help="faults: what a recovering worker restarts from — its last "
        "periodic snapshot, a live neighbor's model, or the initial "
        "broadcast model",
    )
    run_p.add_argument(
        "--checkpoint-interval", type=float, default=1.0,
        help="faults: simulated seconds between recovery snapshots "
        "(checkpoint recovery only)",
    )
    run_p.add_argument(
        "--round-duration", type=float, default=1.0,
        help="sync engine: simulated seconds one round spans, the window "
        "--fault-plan is read over and the clock of --population-model",
    )
    run_p.add_argument(
        "--participation", choices=["full", "sampled"], default="full",
        help="client participation: 'full' (classic — every worker, or "
        "FedAvg's fraction-C draw) or 'sampled' (exactly --sample-size "
        "clients per round; on --engine event, a K-seat in-flight pool). "
        "Supported by the fedavg family",
    )
    run_p.add_argument(
        "--sample-size", type=int, default=None,
        help="participants per round with --participation sampled",
    )
    run_p.add_argument(
        "--population-model", type=str, default=None,
        help="client availability as an arrival process: "
        "'renewal:up=60,down=30' (exponential up/down times, seconds), or "
        "'always' / 'none' (every client up: the default, any algorithm).  "
        "Sampling draws from the currently-up clients; on --engine event, "
        "every async variant gates its cycles on it",
    )
    common(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run the 7-algorithm comparison")
    common(cmp_p)
    cmp_p.add_argument("--target-fraction", type=float, default=0.85)
    cmp_p.set_defaults(func=cmd_compare)

    t1_p = sub.add_parser("table1", help="print the analytic Table I")
    t1_p.add_argument("--model-size", type=float, default=6_653_628)
    t1_p.add_argument("--workers", type=int, default=32)
    t1_p.add_argument("--rounds", type=int, default=1000)
    t1_p.add_argument("--compression", type=float, default=100.0)
    t1_p.set_defaults(func=cmd_table1)

    rho_p = sub.add_parser("rho", help="estimate Assumption 3's rho")
    common(rho_p)
    rho_p.add_argument("--rho-samples", type=int, default=200)
    rho_p.set_defaults(func=cmd_rho)

    report_p = sub.add_parser(
        "report", help="render a markdown report from a saved comparison"
    )
    report_p.add_argument("input", help="comparison JSON from `compare --output`")
    report_p.add_argument("--output", default=None, help="markdown file to write")
    report_p.add_argument("--title", default="Algorithm comparison")
    report_p.add_argument("--target", type=float, default=None)
    report_p.add_argument("--target-fraction", type=float, default=0.85)
    report_p.set_defaults(func=cmd_report)

    return parser


def _resolve_obs_mode(args) -> str:
    """Effective telemetry mode: output paths imply the mode they need."""
    mode = getattr(args, "obs", "off")
    if getattr(args, "trace_out", None):
        mode = "trace"
    elif getattr(args, "metrics_out", None) and mode == "off":
        mode = "metrics"
    return mode


def _finish_obs(args, mode: str) -> None:
    """Write requested telemetry outputs and print the run profile."""
    import json

    from repro import obs

    recorder = obs.recorder()
    registry = recorder.registry
    if registry is None:
        return
    snapshot = registry.snapshot()
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        with open(metrics_out, "w") as handle:
            json.dump(snapshot, handle, indent=2)
        print(f"\nWrote metrics snapshot to {metrics_out}")
    trace_out = getattr(args, "trace_out", None)
    if trace_out and recorder.trace is not None:
        recorder.trace.write(trace_out)
        print(f"Wrote Chrome trace to {trace_out} (open in chrome://tracing)")
    from repro.analysis import render_obs_report

    print()
    print(render_obs_report(snapshot))


def main(argv: Optional[List[str]] = None) -> int:
    from repro.utils import parallel

    args = build_parser().parse_args(argv)
    # Global: every block-parallel hot path reads the same knob, so the
    # caller's override is put back however the command ends.
    caller_threads = parallel._override
    try:
        if getattr(args, "num_threads", None) is not None:
            _configured(parallel.set_num_threads, args.num_threads)
        obs_mode = _resolve_obs_mode(args)
        if obs_mode == "off":
            return args.func(args)
        from repro import obs

        obs.start(obs_mode)
        try:
            status = args.func(args)
            _finish_obs(args, obs_mode)
            return status
        finally:
            obs.stop()
    finally:
        parallel.set_num_threads(caller_threads)


if __name__ == "__main__":
    sys.exit(main())
