"""Output checks applied to every call's export.

``problems`` returns the accounting invariants an export breaks (on any
seed); ``reference_problems`` compares its economic totals with the values
pinned in ``reference.json`` for :data:`~bench_workloads.DEFAULT_SEED`, at
a relative tolerance that lets ulp-level reorderings pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from bench_workloads import WORKLOADS

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Relative tolerance of the reference and accounting comparisons.
REL_TOL = 1e-9


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(scale, 1.0)


def _numbers(value):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield float(value)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)


def _run_problems(data: dict) -> list[str]:
    found = []
    revenue = data["network_charging_revenue"]
    operating = data["network_operating_cost"]
    voll = data["network_voll_cost"]
    profit = data["network_profit"]
    if not _close(profit, revenue - operating - voll, abs(revenue) + abs(operating) + voll):
        found.append(
            f"profit {profit!r} != revenue - operating - VoLL "
            f"({revenue!r} - {operating!r} - {voll!r})"
        )
    per_hub = data["profit_per_hub"]
    if len(per_hub) != data["n_hubs"]:
        found.append(f"{len(per_hub)} per-hub profits for {data['n_hubs']} hubs")
    if not _close(math.fsum(per_hub), profit, sum(abs(p) for p in per_hub)):
        found.append(f"per-hub profits sum to {math.fsum(per_hub)!r}, not {profit!r}")
    voll_rate = data["spec"]["run"]["voll_per_kwh"]
    unserved = data["network_unserved_kwh"]
    if not _close(voll, voll_rate * unserved, voll):
        found.append(f"VoLL cost {voll!r} != {voll_rate} x {unserved!r} kWh")
    for key in (
        "network_charging_revenue",
        "network_voll_cost",
        "network_unserved_kwh",
        "import_shortfall_kwh",
        "blackout_slots",
        "congested_feeder_slots",
        "feeder_import_kwh",
        "feeder_shortfall_kwh",
        "feeder_peak_import_kw",
    ):
        if any(v < 0 for v in _numbers(data[key])):
            found.append(f"{key} has a negative entry")
    return found


def _pricing_problems(data: dict) -> list[str]:
    found = []
    table = data["per_method"]
    if set(table) != set(data["methods"]):
        found.append(f"per-method rows {sorted(table)} != methods {data['methods']}")
    for name, row in table.items():
        if row["discounted_hub_slots"] < 0 or row["unserved_kwh"] < 0:
            found.append(f"{name}: negative discounted slots or unserved energy")
    if table.get("none", {}).get("discounted_hub_slots", 0) != 0:
        found.append("the no-discount method discounted some hub-slots")
    return found


def _train_problems(data: dict) -> list[str]:
    found = []
    if len(data["training_curve"]) != data["train_episodes"]:
        found.append(
            f"{len(data['training_curve'])} curve points for "
            f"{data['train_episodes']} training episodes"
        )
    for key in ("untrained_per_hub", "trained_per_hub"):
        if len(data[key]) != data["n_hubs"]:
            found.append(f"{key} has {len(data[key])} entries for {data['n_hubs']} hubs")
    if data["final_entropy"] < 0 or not 0 <= data["final_clip_fraction"] <= 1:
        found.append("final entropy or clip fraction out of range")
    return found


_CHECKS = {"run": _run_problems, "pricing": _pricing_problems, "train": _train_problems}


def problems(name: str, data: dict) -> list[str]:
    """Accounting invariants ``data`` breaks; empty when the export is sound."""
    found = [
        f"non-finite value in {key}"
        for key, value in data.items()
        if key != "spec" and any(not math.isfinite(v) for v in _numbers(value))
    ]
    return found + _CHECKS[WORKLOADS[name].entry](data)


def totals(name: str, data: dict) -> dict[str, float]:
    """The economic totals pinned in the reference file."""
    entry = WORKLOADS[name].entry
    if entry == "run":
        keys = (
            "network_profit",
            "network_operating_cost",
            "network_charging_revenue",
            "network_voll_cost",
            "network_unserved_kwh",
            "import_shortfall_kwh",
        )
        return {key: float(data[key]) for key in keys}
    if entry == "pricing":
        return {
            f"{method}.{key}": float(row[key])
            for method, row in data["per_method"].items()
            for key in ("network_profit", "avg_daily_reward_per_hub", "unserved_kwh")
        }
    keys = (
        "untrained_mean_reward",
        "trained_mean_reward",
        "untrained_greedy_mean_reward",
        "trained_greedy_mean_reward",
    )
    return {key: float(data[key]) for key in keys}


def load_reference() -> dict[str, dict[str, float]]:
    return json.loads(REFERENCE_PATH.read_text())


def write_reference(name: str, data: dict) -> None:
    """Pin ``name``'s totals (from a default-seed export) in the reference."""
    pinned = load_reference() if REFERENCE_PATH.exists() else {}
    pinned[name] = totals(name, data)
    REFERENCE_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def reference_problems(name: str, data: dict, reference: dict) -> list[str]:
    """Totals that differ from the pinned reference by more than REL_TOL."""
    pinned = reference.get(name)
    if pinned is None:
        return [f"no reference totals for {name}"]
    measured = totals(name, data)
    if set(measured) != set(pinned):
        return [f"reference keys {sorted(pinned)} != measured {sorted(measured)}"]
    return [
        f"{key}: {measured[key]!r} != reference {pinned[key]!r}"
        for key in sorted(pinned)
        if not math.isclose(measured[key], pinned[key], rel_tol=REL_TOL, abs_tol=REL_TOL)
    ]
