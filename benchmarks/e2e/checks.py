"""The correctness checks behind ``ok_share``, implemented once.

A check is a named boolean about one repeat (:func:`repeat_checks`) or
about all repeats of one workload together (:func:`set_checks`).
``ok_share`` is passed ÷ attempted over both kinds; the runner lists
every check by name.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: A learning workload must end at least this far above its target, so
#: the crossing is not the horizon in disguise.
FINAL_MARGIN = 0.03


def crossing(
    evals: Sequence[Sequence[float]], target: float
) -> Optional[Tuple[int, float, float]]:
    """Where validation accuracy first reaches ``target``.

    ``evals`` rows are ``(sim_time_s, traffic_mb, accuracy, val_loss)``.
    Returns the index of the first evaluation point at or above the
    target and the simulated time and traffic there, linearly
    interpolated between that point and the one before it, so the result
    is not quantised to the evaluation grid.  ``None`` if never reached.
    """
    for index, (time_s, traffic, accuracy, _) in enumerate(evals):
        if accuracy >= target:
            if index == 0:
                return index, time_s, traffic
            before_t, before_mb, before_acc, _ = evals[index - 1]
            share = (target - before_acc) / (accuracy - before_acc)
            return (
                index,
                before_t + share * (time_s - before_t),
                before_mb + share * (traffic - before_mb),
            )
    return None


def repeat_checks(workload, record: dict) -> Dict[str, bool]:
    """Checks on one repeat; a repeat that died attempts only ``completed``."""
    if "error" in record:
        return {"completed": False}
    checks = {
        "completed": True,
        "losses_finite": record["losses_finite"],
        "steps_as_declared": (
            record["steps"] > 0
            if record["declared_steps"] is None
            else record["steps"] == record["declared_steps"]
        ),
        "bytes_sent_eq_received": (
            record["bytes_sent"] == record["bytes_received"] > 0
        ),
    }
    if workload.learning and not record["smoke"]:
        evals = record["evals"]
        crossed = crossing(evals, workload.target)
        checks["target_crossed_inside"] = (
            crossed is not None and 0 < crossed[0] < len(evals) - 1
        )
        checks["final_above_target"] = (
            evals[-1][2] >= workload.target + FINAL_MARGIN
        )
    counters = record["counters"]
    if "nn.sharded.resident_bytes_per_enrolled" in counters:
        checks["resident_below_dense"] = (
            counters["nn.sharded.resident_bytes_per_enrolled"]
            < counters["nn.sharded.dense_bytes_per_enrolled"]
        )
    if record["traced"]:
        checks["wrappers_restored"] = record["trace"]["leaked"] == []
    return checks


def set_checks(records: List[dict]) -> Dict[str, bool]:
    """Checks across the repeats of one workload (traced ones included:
    the wrappers must not perturb numerics or RNG streams)."""
    done = [r for r in records if "error" not in r]
    if len(done) < 2:
        return {}
    first = done[0]
    return {
        "digest_equal_across_repeats": all(
            r["digest"] == first["digest"] for r in done
        ),
        "counts_equal_across_repeats": all(
            r["steps"] == first["steps"] and r["counters"] == first["counters"]
            for r in done
        ),
    }
