"""Experiment registry: one entry per paper table/figure plus ablations."""

from __future__ import annotations

import inspect
from typing import Callable

from ..errors import ExperimentError
from . import (
    ablations,
    fig1_overlap,
    fig2_renewables,
    fig3_charging_freq,
    fig4_degradation,
    fig5_rtp_traffic,
    fig11_strata,
    fig12_periods,
    fig13_hub_rewards,
    fleet_grid,
    fleet_price,
    fleet_sim,
    table2_ect_price,
    table3_hub_daily,
    train_fleet,
)
from .base import ExperimentResult

#: Experiment id → runner.
RUNNERS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1_overlap.run,
    "fig2": fig2_renewables.run,
    "fig3": fig3_charging_freq.run,
    "fig4": fig4_degradation.run,
    "fig5": fig5_rtp_traffic.run,
    "fig11": fig11_strata.run,
    "fig12": fig12_periods.run,
    "fig13": fig13_hub_rewards.run,
    "table2": table2_ect_price.run,
    "table3": table3_hub_daily.run,
    "abl-sched": ablations.run_schedulers,
    "abl-cbp": ablations.run_cbp_sweep,
    "abl-loss": ablations.run_loss_forms,
    "fleet": fleet_sim.run,
    "fleet-grid": fleet_grid.run,
    "fleet-price": fleet_price.run,
    "train-fleet": train_fleet.run,
}


def available_experiments() -> list[str]:
    """All registered experiment ids."""
    return sorted(RUNNERS)


def run_experiment(
    experiment_id: str,
    *,
    scale: float = 1.0,
    seed: int = 0,
    jobs: int | None = None,
    telemetry=None,
) -> ExperimentResult:
    """Run one experiment by id.

    ``jobs`` requests process-parallel execution for sweep-style
    experiments (currently ``fleet-grid``); passing it to a runner that
    cannot parallelize raises instead of silently running serially.
    ``telemetry`` (a :class:`~repro.telemetry.session.Telemetry`) is
    forwarded the same way — only runners built on the telemetry-aware
    ``api`` entry points accept it.
    """
    if experiment_id not in RUNNERS:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(available_experiments())}"
        )
    runner = RUNNERS[experiment_id]
    kwargs: dict[str, object] = {"scale": scale, "seed": seed}
    for name, value in (("jobs", jobs), ("telemetry", telemetry)):
        if value is None:
            continue
        if name not in inspect.signature(runner).parameters:
            raise ExperimentError(
                f"experiment {experiment_id!r} does not support --{name}"
            )
        kwargs[name] = value
    return runner(**kwargs)
