"""Persist experiment results to JSON and load them back.

The benchmark harness and CLI write trajectories to disk so runs can be
compared across configurations/machines without rerunning the simulator.
What is saved is the trajectory — algorithm, config, run totals and
every :class:`~repro.sim.engine.RoundRecord`, from either engine; a
run's in-memory diagnostics (worker trace, per-round barrier lists,
staleness log, resilience stats) are not.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Union

from repro.sim.engine import ExperimentConfig, ExperimentResult, RoundRecord

FORMAT_VERSION = 1

#: ``ExperimentConfig`` fields saved files may still carry, dropped on
#: load: ``use_arena``, ``scheduler`` and ``arena`` chose between
#: bit-identical twins; the other seven were recorded but never read by a
#: loop.
RETIRED_CONFIG_KEYS = (
    "use_arena", "scheduler", "arena", "engine", "fault_plan",
    "exchange_timeout", "recovery", "participation", "sample_size",
    "population",
)


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-serializable dict of one trajectory."""
    return {
        "format_version": FORMAT_VERSION,
        "algorithm": result.algorithm,
        "config": None if result.config is None else asdict(result.config),
        "total_local_steps": result.total_local_steps,
        "events_processed": result.events_processed,
        "history": [asdict(record) for record in result.history],
    }


def result_from_dict(payload: dict) -> ExperimentResult:
    """Inverse of :func:`result_to_dict` (validates the format version)."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    config = payload["config"]
    if config is not None:
        config = ExperimentConfig(
            **{k: v for k, v in config.items() if k not in RETIRED_CONFIG_KEYS}
        )
    result = ExperimentResult(
        algorithm=payload["algorithm"],
        config=config,
        total_local_steps=payload.get("total_local_steps", 0),
        events_processed=payload.get("events_processed", 0),
    )
    for record in payload["history"]:
        record = dict(record)
        if "total_time_s" in record:
            # Saved before the sync clock took the event engine's name.
            record["time_s"] = record.pop("total_time_s")
        result.history.append(RoundRecord(**record))
    return result


def save_result(result: ExperimentResult, path: Union[str, Path]) -> Path:
    """Write one trajectory as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_dict(result), indent=2))
    return path


def load_result(path: Union[str, Path]) -> ExperimentResult:
    """Read one trajectory back."""
    return result_from_dict(json.loads(Path(path).read_text()))


def save_comparison(
    results: Dict[str, ExperimentResult], path: Union[str, Path]
) -> Path:
    """Write a {algorithm: trajectory} mapping as one JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": FORMAT_VERSION,
        "results": {name: result_to_dict(r) for name, r in results.items()},
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_comparison(path: Union[str, Path]) -> Dict[str, ExperimentResult]:
    """Inverse of :func:`save_comparison`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported comparison format version")
    return {
        name: result_from_dict(entry)
        for name, entry in payload["results"].items()
    }
