"""Tests for result serialization (analysis.io) and the CLI."""

import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.analysis.io import (
    RETIRED_CONFIG_KEYS,
    load_comparison,
    load_result,
    result_from_dict,
    result_to_dict,
    save_comparison,
    save_result,
)
from repro.cli import main
from repro.sim.engine import ExperimentConfig, ExperimentResult, RoundRecord
from repro.utils import parallel

#: A small workload for CLI runs that must not train.
SMALL = ["--workers", "4", "--samples-per-worker", "20", "--validation-samples", "20"]

#: The ``--algorithm`` keys that take each availability flag on each
#: engine — what the CLI accepted when a hand-kept table decided it
#: (every one of the 42 cells probed), and what README.md's table says.
SUPPORT = {
    "--participation sampled": {
        "sync": {"fedavg", "s-fedavg", "saps-psgd"},
        "event": {"fedavg", "s-fedavg"},
    },
    "--population-model": {
        "sync": {"fedavg", "s-fedavg", "saps-psgd"},
        "event": {"d-psgd", "fedavg", "s-fedavg", "saps-psgd"},
    },
    "--fault-plan": {
        "sync": {"saps-psgd"},
        "event": {"d-psgd", "fedavg", "saps-psgd"},
    },
}

FLAG_ARGV = {
    "--participation sampled": ["--participation", "sampled", "--sample-size", "2"],
    "--population-model": ["--population-model", "renewal:up=60,down=30"],
    "--fault-plan": ["--fault-plan", "crash:1@0.5"],
}

#: argv -> what the ``configuration error`` message must name.
BAD_FLAGS = [
    ("--population-model tidal", "population model 'tidal'"),
    ("--participation sampled", "--sample-size"),
    ("--sample-size 3", "--participation sampled"),
    ("--participation sampled --sample-size 0", "sample_size"),
    ("--exchange-timeout 0", "--exchange-timeout"),
    ("--local-steps 0", "local_steps"),
    # AD-PSGD takes one gradient a cycle; more steps were billed, never run.
    ("--algorithm d-psgd --engine event --local-steps 3", "--local-steps 3: d-psgd"),
    ("--rounds 0", "rounds"),
    ("--bandwidth fig1 --workers 8", "--bandwidth fig1"),
    ("--fault-plan crash:99@1", "fault event names worker 99"),
    ("--fault-plan bogus", "fault event 'bogus'"),
    ("--engine event --fault-plan mttf=x,mttr=1", "fault-plan parameter mttf"),
    ("--engine event --fault-plan crash:1@0.5 --max-retries -1", "max_retries"),
    (
        "--engine event --fault-plan crash:1@0.5 --checkpoint-interval 0",
        "checkpoint interval",
    ),
    ("--fault-plan crash:1@0.5 --round-duration 0", "round_duration"),
    ("--engine event --sim-time 0", "--sim-time"),
    ("--engine event --checkpoint-every 0", "--checkpoint-every"),
    ("--engine event --compute-time -1", "seconds_per_step"),
    (
        "--population-model renewal:up=60,down=30 --round-duration 0",
        "round_duration",
    ),
    ("--workers 1", "--workers"),
    ("--batch-size 0", "batch_size"),
    ("--compression 0.5", "compression_ratio"),
    # NaN < 1 is False: these once reached round 0 and died there.
    ("--algorithm topk-psgd --compression nan", "compression_ratio must be >= 1, got nan"),
    ("--algorithm dcd-psgd --compression nan", "compression_ratio must be >= 1, got nan"),
    ("--algorithm s-fedavg --compression nan", "compression_ratio must be >= 1, got nan"),
    # A non-finite duration once ignored the plan (NaN windows overlap
    # nothing) or never finished (0 * inf is a NaN draw time; an
    # infinite horizon draws faults forever).
    ("--fault-plan crash:1@0 --round-duration nan", "round_duration must be positive and finite, got nan"),
    (
        "--population-model renewal:up=2,down=1 --round-duration inf",
        "round_duration must be positive and finite, got inf",
    ),
    ("--engine event --sim-time inf", "--sim-time must be positive and finite, got inf"),
    (
        "--engine event --fault-plan mttf=2,mttr=1 --sim-time inf",
        "--sim-time must be positive and finite, got inf",
    ),
    # NaN <= 0 is False: a NaN mean once ran with nobody ever up.
    ("--population-model renewal:up=nan", "mean_up must be positive and finite, got nan"),
    (
        "--population-model renewal:up=60,down=inf",
        "mean_down must be positive and finite, got inf",
    ),
    ("--num-threads 0", "num_threads"),
    ("--connectivity-gap 0", "connectivity_gap must be >= 1, got 0"),
    ("--lr -1", "lr must"),
    # NaN <= 0 is False: these once trained, printing nan losses.
    ("--lr nan", "lr must be positive and finite, got nan"),
    ("--lr inf", "lr must be positive and finite, got inf"),
]


def make_result(name="SAPS-PSGD"):
    result = ExperimentResult(name, ExperimentConfig(rounds=5, seed=3))
    for i in range(3):
        result.history.append(
            RoundRecord(
                round_index=i,
                train_loss=1.0 / (i + 1),
                val_loss=2.0 / (i + 1),
                val_accuracy=0.3 * (i + 1),
                worker_traffic_mb=0.1 * i,
                server_traffic_mb=0.0,
                comm_time_s=0.2 * i,
                consensus_distance=0.01,
            )
        )
    return result


class TestResultIO:
    def test_round_trip_in_memory(self):
        result = make_result()
        back = result_from_dict(result_to_dict(result))
        assert back.algorithm == result.algorithm
        assert back.config == result.config
        assert back.history == result.history

    def test_round_trip_on_disk(self, tmp_path):
        result = make_result()
        path = save_result(result, tmp_path / "nested" / "run.json")
        assert path.exists()
        back = load_result(path)
        assert back.history == result.history

    def test_comparison_round_trip(self, tmp_path):
        results = {"a": make_result("a"), "b": make_result("b")}
        path = save_comparison(results, tmp_path / "cmp.json")
        back = load_comparison(path)
        assert set(back) == {"a", "b"}
        assert back["a"].history == results["a"].history

    def test_version_check(self):
        payload = result_to_dict(make_result())
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            result_from_dict(payload)

    def test_loads_trajectory_saved_before_retired_config_keys(self):
        # Written by `repro.cli run --output` at the commit before
        # `use_arena` and `scheduler` left ExperimentConfig; it also
        # carries the seven fields no loop read.
        path = Path(__file__).parent / "fixtures" / "result_before_pr14.json"
        saved = json.loads(path.read_text())["config"]
        never_read = {
            "engine", "fault_plan", "exchange_timeout", "recovery",
            "participation", "sample_size", "population",
        }
        assert {"use_arena", "scheduler"} | never_read <= set(saved)
        back = load_result(path)
        assert set(saved) - set(asdict(back.config)) == set(RETIRED_CONFIG_KEYS)
        assert back.algorithm == "SAPS-PSGD"
        assert len(back.history) == 3
        assert (back.config.rounds, back.config.eval_every) == (4, 2)
        # The sync clock was saved as `total_time_s`; it loads as time_s.
        saved_history = json.loads(path.read_text())["history"]
        assert "time_s" not in saved_history[-1]
        assert [r.time_s for r in back.history] == [
            r["total_time_s"] for r in saved_history
        ]
        assert back.horizon == back.history[-1].time_s > 0
        # And it round-trips through today's writer.
        assert result_from_dict(result_to_dict(back)) == back

    def test_bare_event_run_without_config_round_trips(self):
        result = make_result()
        result.config = None  # what EventEngine.run returns on its own
        assert result_from_dict(result_to_dict(result)) == result

    def test_json_is_plain(self, tmp_path):
        path = save_result(make_result(), tmp_path / "run.json")
        payload = json.loads(path.read_text())
        assert payload["algorithm"] == "SAPS-PSGD"
        assert isinstance(payload["history"], list)


class TestCLI:
    def test_run_saps(self, capsys, tmp_path):
        code = main(
            [
                "run", "--algorithm", "saps-psgd", "--workers", "4",
                "--rounds", "10", "--eval-every", "5", "--compression", "10",
                "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SAPS-PSGD trajectory" in out
        assert (tmp_path / "out.json").exists()
        back = load_result(tmp_path / "out.json")
        assert back.algorithm == "SAPS-PSGD"

    def test_event_engine_sync_algorithm(self, capsys, tmp_path):
        """`--engine event` with an algorithm that has no async variant:
        the one round loop plus a compute model, the simulated-time
        table, and `--output` like any other run."""
        code = main(
            [
                "run", "--algorithm", "psgd", "--engine", "event",
                "--workers", "4", "--rounds", "6", "--eval-every", "3",
                "--compute-time", "0.05",
                "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PSGD simulated-time trajectory" in out
        assert "local steps" in out
        assert "Saved trajectory" in out
        back = load_result(tmp_path / "out.json")
        assert [r.round_index for r in back.history] == [-1, 2, 5]
        last = back.history[-1]
        assert last.compute_time_s == pytest.approx(6 * 0.05)
        assert last.comm_time_s > 0
        assert last.time_s == last.comm_time_s + last.compute_time_s
        assert last.local_steps == 6 * 4
        # No telemetry, no per-worker trace: no timeline table.
        assert "Per-worker timeline" not in out

    def test_event_engine_sync_algorithm_rejects_fault_plan(self):
        with pytest.raises(SystemExit, match="asynchronous variant"):
            main(
                [
                    "run", "--algorithm", "psgd", "--engine", "event",
                    "--workers", "4", "--rounds", "2",
                    "--fault-plan", "crash:1@0.5",
                ]
            )

    def test_event_engine_async_variant_output_round_trips(
        self, capsys, tmp_path
    ):
        code = main(
            [
                "run", "--algorithm", "d-psgd", "--engine", "event",
                "--workers", "4", "--sim-time", "1.0",
                "--checkpoint-every", "0.5",
                "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated-time trajectory" in out
        assert "Per-worker timeline" in out
        back = load_result(tmp_path / "out.json")
        assert [r.time_s for r in back.history] == [0.0, 0.5, 1.0]
        assert back.horizon == 1.0
        assert back.total_local_steps == back.history[-1].local_steps > 0
        assert back.history[-1].mean_staleness >= 0
        assert back.history[-1].comm_time_s == 0.0

    def test_num_threads_is_the_commands_not_the_callers(self, capsys):
        """``--num-threads`` holds for one command: the override in force
        before ``main`` is back after it, also when the command fails."""
        before = parallel.num_threads()
        assert main(["run", *SMALL, "--rounds", "1", "--num-threads", "3"]) == 0
        assert parallel.num_threads() == before
        parallel.set_num_threads(2)
        try:
            with pytest.raises(SystemExit):
                main(["run", *SMALL, "--rounds", "0", "--num-threads", "3"])
            assert parallel.num_threads() == 2
        finally:
            parallel.set_num_threads(None)

    def test_run_each_algorithm(self, capsys):
        for name in ["psgd", "fedavg", "d-psgd"]:
            code = main(
                [
                    "run", "--algorithm", name, "--workers", "4",
                    "--rounds", "4", "--eval-every", "2", "--compression", "5",
                ]
            )
            assert code == 0

    def test_compare(self, capsys, tmp_path):
        code = main(
            [
                "compare", "--workers", "4", "--rounds", "20",
                "--eval-every", "5", "--compression", "10",
                "--output", str(tmp_path / "cmp.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Comparison summary" in out
        assert "Cost to reach" in out
        back = load_comparison(tmp_path / "cmp.json")
        assert "SAPS-PSGD" in back

    def test_run_and_compare_pass_connectivity_gap_and_seed(self, monkeypatch):
        argv = [*SMALL, "--connectivity-gap", "3", "--seed", "7"]
        run = cli._build_run(cli.build_parser().parse_args(["run", *argv]))
        algorithm = run.args[0]
        assert (algorithm.connectivity_gap, algorithm.base_seed) == (3, 7)

        class Captured(Exception):
            pass

        def capture(*args, settings, **kwargs):
            raise Captured(settings)

        monkeypatch.setattr(cli, "run_comparison", capture)
        with pytest.raises(Captured) as captured:
            main(["compare", *argv])
        settings = captured.value.args[0]
        assert (settings.connectivity_gap, settings.base_seed) == (3, 7)

    def test_compare_non_iid(self, capsys):
        code = main(
            [
                "compare", "--workers", "4", "--rounds", "10",
                "--eval-every", "5", "--compression", "10", "--non-iid",
                "--samples-per-worker", "80",
            ]
        )
        assert code == 0

    def test_table1(self, capsys):
        code = main(["table1", "--workers", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SAPS-PSGD" in out
        assert "Table I" in out

    def test_rho(self, capsys):
        code = main(["rho", "--workers", "8", "--rho-samples", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Assumption 3" in out
        assert "adaptive" in out

    def test_run_with_preset(self, capsys):
        code = main(
            [
                "run", "--preset", "mnist-cnn", "--workers", "4",
                "--compression", "10", "--samples-per-worker", "20",
                "--validation-samples", "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Preset: mnist-cnn" in out
        assert "SAPS-PSGD trajectory" in out

    def test_fig1_requires_14_workers(self):
        with pytest.raises(SystemExit):
            main(["run", "--bandwidth", "fig1", "--workers", "8", "--rounds", "4"])

    def test_fig1_environment_runs(self, capsys):
        code = main(
            [
                "run", "--bandwidth", "fig1", "--workers", "14",
                "--rounds", "4", "--eval-every", "2", "--compression", "10",
            ]
        )
        assert code == 0


def _trains(*args, **kwargs):
    raise AssertionError("a rejected configuration reached the training loop")


class TestRunConfiguration:
    """Every bad ``run`` flag value exits before the first round, and the
    sampled / population / fault-plan support of each algorithm is read
    off the algorithms themselves."""

    @pytest.mark.parametrize("argv, names", BAD_FLAGS, ids=[r[0] for r in BAD_FLAGS])
    def test_bad_flag_exits_naming_it(self, monkeypatch, argv, names):
        monkeypatch.setattr(cli, "run_experiment", _trains)
        monkeypatch.setattr(cli, "run_event_experiment", _trains)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", *SMALL, *argv.split()])
        message = str(exit_info.value)
        assert message.startswith("configuration error: ")
        assert names in message

    def test_bad_compare_flag_exits_naming_it(self, monkeypatch):
        monkeypatch.setattr(cli, "run_comparison", _trains)
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", *SMALL, "--lr", "0"])
        assert str(exit_info.value).startswith("configuration error: lr must")

    def test_error_inside_a_round_keeps_its_traceback(self, monkeypatch):
        def fails_in_round(*args, **kwargs):
            raise ValueError("raised by a training round")

        monkeypatch.setattr(cli, "run_experiment", fails_in_round)
        with pytest.raises(ValueError, match="training round"):
            main(["run", *SMALL])

    @pytest.mark.parametrize("engine", ["sync", "event"])
    @pytest.mark.parametrize("flag", sorted(SUPPORT))
    def test_support_rule_equals_the_table(self, flag, engine):
        for key in sorted(cli.ALGORITHM_FACTORIES):
            args = cli.build_parser().parse_args(
                ["run", "--algorithm", key, "--engine", engine, *SMALL,
                 *FLAG_ARGV[flag]]
            )
            if key in SUPPORT[flag][engine]:
                assert callable(cli._build_run(args)), key
                continue
            with pytest.raises(ValueError) as error:
                cli._build_run(args)
            message = str(error.value)
            takers = ", ".join(sorted(SUPPORT[flag][engine]))
            assert message.startswith(f"{flag} needs"), message
            assert f"on the {engine} engine that is {takers}," in message
            assert message.endswith(f"not --algorithm {key}")

    def test_population_model_always_is_no_population(self, tmp_path, capsys):
        """Every client always up is every family's default: ``always``
        parses to no population, so any algorithm takes it and the run is
        the run without it."""
        args = cli.build_parser().parse_args(
            ["run", "--algorithm", "d-psgd", *SMALL, "--population-model", "always"]
        )
        assert callable(cli._build_run(args))
        saved = {}
        for flag in ([], ["--population-model", "always"]):
            path = tmp_path / f"run{len(flag)}.json"
            assert main(["run", "--algorithm", "saps-psgd", *SMALL, "--rounds", "4",
                         "--eval-every", "2", *flag, "--output", str(path)]) == 0
            saved[bool(flag)] = path.read_bytes()
        assert saved[True] == saved[False]

    def test_readme_support_table_is_the_rule(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = {}
        for line in readme.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].strip("`") in SUPPORT:
                sync, event = (set(re.findall(r"`([\w-]+)`", c)) for c in cells[1:])
                rows[cells[0].strip("`")] = {"sync": sync, "event": event}
        assert rows == SUPPORT


class TestCLIReport:
    def test_report_from_saved_comparison(self, capsys, tmp_path):
        comparison_path = tmp_path / "cmp.json"
        code = main(
            [
                "compare", "--workers", "4", "--rounds", "15",
                "--eval-every", "5", "--compression", "10",
                "--output", str(comparison_path),
            ]
        )
        assert code == 0
        capsys.readouterr()

        report_path = tmp_path / "report.md"
        code = main(
            [
                "report", str(comparison_path),
                "--output", str(report_path), "--title", "CLI test",
            ]
        )
        assert code == 0
        text = report_path.read_text()
        assert text.startswith("# CLI test")
        assert "SAPS-PSGD" in text

    def test_report_to_stdout(self, capsys, tmp_path):
        comparison_path = tmp_path / "cmp.json"
        main(
            [
                "compare", "--workers", "4", "--rounds", "10",
                "--eval-every", "5", "--compression", "10",
                "--output", str(comparison_path),
            ]
        )
        capsys.readouterr()
        code = main(["report", str(comparison_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "## Final accuracy" in out

    @pytest.mark.parametrize("kind", ["run output", "missing"])
    def test_report_on_a_file_that_is_no_comparison_names_it(self, tmp_path, kind):
        path = tmp_path / "run.json"
        if kind == "run output":
            save_result(make_result(), path)  # what `repro run --output` writes
        with pytest.raises(SystemExit) as exit_info:
            main(["report", str(path)])
        problem = "not a comparison: it has no 'results'" if kind == "run output" else "no such file"
        assert str(exit_info.value) == (
            f"input error: {path}: {problem}; expected a comparison saved by `compare --output`"
        )
