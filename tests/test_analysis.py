"""Tests for the analysis package: Table I model, Table IV extraction,
rendering."""

import numpy as np
import pytest

from repro.analysis.traffic import CostModel
from repro.analysis.targets import TargetCost
from repro.analysis import (
    cost_models_by_name,
    costs_at_target,
    pick_common_target,
    render_ascii_plot,
    render_series,
    render_table,
    table1_costs,
    worker_cost_ranking,
)
from repro.analysis.tables import format_value
from repro.sim.engine import ExperimentConfig, ExperimentResult, RoundRecord


def make_result(name, accuracies, traffics, times):
    result = ExperimentResult(name, ExperimentConfig(rounds=1))
    for i, (acc, traffic, time_s) in enumerate(zip(accuracies, traffics, times)):
        result.history.append(
            RoundRecord(i, 1.0, 1.0, acc, traffic, 0.0, time_s, 0.0)
        )
    return result


class TestTable1:
    def test_saps_has_lowest_worker_cost(self):
        costs = table1_costs(model_size=1e6, num_workers=32, rounds=1000)
        assert worker_cost_ranking(costs)[0] == "SAPS-PSGD"

    def test_paper_formulas(self):
        n, big_n, t = 32, 1e6, 100
        by_name = cost_models_by_name(
            table1_costs(big_n, n, t, compression_ratio=100)
        )
        assert by_name["PS-PSGD"].server_cost == 2 * big_n * n * t
        assert by_name["PSGD (all-reduce)"].server_cost is None
        assert by_name["PSGD (all-reduce)"].worker_cost == 2 * big_n * t
        assert by_name["TopK-PSGD"].worker_cost == 2 * n * (big_n / 1000) * t
        assert by_name["S-FedAvg"].worker_cost == (big_n + 2 * big_n / 100) * t
        assert by_name["D-PSGD"].server_cost == big_n
        assert by_name["D-PSGD"].worker_cost == 4 * 2 * big_n * t
        assert by_name["DCD-PSGD"].worker_cost == 4 * 2 * (big_n / 4) * t
        assert by_name["SAPS-PSGD"].worker_cost == 2 * (big_n / 100) * t

    def test_feature_flags(self):
        by_name = cost_models_by_name(table1_costs(1e6, 32, 100))
        saps = by_name["SAPS-PSGD"]
        assert saps.supports_sparsification
        assert saps.considers_bandwidth
        assert saps.robust_to_dynamics
        # The paper's table: only SAPS has C.B. and R.
        others = [c for c in by_name.values() if c.algorithm != "SAPS-PSGD"]
        assert not any(c.considers_bandwidth for c in others)
        assert not any(c.robust_to_dynamics for c in others)

    def test_decentralized_server_is_single_model(self):
        by_name = cost_models_by_name(table1_costs(1e6, 32, 100))
        for name in ["D-PSGD", "DCD-PSGD", "SAPS-PSGD"]:
            assert by_name[name].server_cost == 1e6

    def test_validation(self):
        with pytest.raises(ValueError):
            table1_costs(0, 32, 100)


class TestTargets:
    def test_extraction(self):
        results = {
            "fast": make_result("fast", [0.2, 0.95], [1.0, 2.0], [5.0, 10.0]),
            "slow": make_result("slow", [0.2, 0.5, 0.95], [1, 10, 100], [5, 50, 500]),
            "never": make_result("never", [0.2, 0.3], [1.0, 2.0], [5.0, 10.0]),
        }
        rows = {row.algorithm: row for row in costs_at_target(results, 0.9)}
        assert rows["fast"].reached and rows["fast"].traffic_mb == 2.0
        assert rows["fast"].time_seconds == 10.0
        assert rows["slow"].traffic_mb == 100
        assert not rows["never"].reached
        assert rows["never"].traffic_mb is None

    def test_target_validation(self):
        with pytest.raises(ValueError):
            costs_at_target({}, 1.5)

    def test_pick_common_target(self):
        results = {
            "a": make_result("a", [0.5, 0.9], [1, 2], [1, 2]),
            "b": make_result("b", [0.4, 0.6], [1, 2], [1, 2]),
        }
        target = pick_common_target(results, fraction_of_best=0.9)
        assert target == pytest.approx(0.6 * 0.9)

    def test_pick_common_target_empty(self):
        with pytest.raises(ValueError):
            pick_common_target({})


class TestRendering:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(3) == "3"
        assert format_value(float("nan")) == "nan"
        assert format_value(0.5) == "0.500"
        assert "e" in format_value(1e9)

    def test_render_table_alignment(self):
        table = render_table(
            ["name", "value"], [["a", 1], ["longer", 22]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5
        # All rows equal width.
        assert len(set(len(line) for line in lines[1:])) == 1

    def test_render_series_downsamples(self):
        xs = list(range(100))
        ys = list(range(100))
        text = render_series("curve", xs, ys)
        assert text.count("(") <= 22
        assert "curve" in text

    def test_render_series_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series("x", [1, 2], [1])

    def test_render_ascii_plot(self):
        text = render_ascii_plot(
            {"a": ([1, 2, 3], [1, 4, 9]), "b": ([1, 2, 3], [9, 4, 1])}
        )
        assert "o=a" in text and "x=b" in text
        assert "|" in text

    def test_render_ascii_plot_logx(self):
        text = render_ascii_plot({"a": ([1, 10, 100], [1, 2, 3])}, logx=True)
        assert "log10(x)" in text

    def test_render_ascii_plot_empty(self):
        assert render_ascii_plot({}) == "(empty plot)"
