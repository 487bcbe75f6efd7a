"""Fleet assembly: from ``default_fleet`` scenarios to a batched engine.

Bridges the per-hub scenario layer (:mod:`repro.hub.scenario`) and the
struct-of-arrays engine: stack N :class:`~repro.hub.scenario.HubScenario`
traces + configs into :class:`FleetParams` / :class:`FleetInputs`, resolve
charging occupancy from the generative strata model, and optionally sample
per-hub blackout masks — yielding city-scale fleets ready to batch-step.
Whole fleets are built from a spec with ``repro.api.build``, whose
compiler (:mod:`repro.spec.compiler`) calls these helpers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import FleetError
from ..hub.scenario import HubScenario
from .grid import FeederGroup
from .inputs import FleetInputs
from .params import FleetParams
from .simulation import FleetSimulation


def fleet_params_from_scenarios(scenarios: Sequence[HubScenario]) -> FleetParams:
    """Stack the scenarios' hub configs into engine parameter arrays."""
    if not scenarios:
        raise FleetError("a fleet needs at least one scenario")
    return FleetParams.from_hub_configs([s.hub_config for s in scenarios])


def fleet_inputs_from_scenarios(
    scenarios: Sequence[HubScenario],
    occupied: np.ndarray,
    discount: np.ndarray,
    *,
    outage: np.ndarray | None = None,
) -> FleetInputs:
    """Stack the scenarios' traces once occupancy/discounts are decided.

    ``occupied`` / ``discount`` / ``outage`` accept either one row per hub
    (``(n_hubs, horizon)``) or a single shared ``(horizon,)`` trace that is
    broadcast to every hub.
    """
    if not scenarios:
        raise FleetError("a fleet needs at least one scenario")
    horizons = {s.n_hours for s in scenarios}
    if len(horizons) != 1:
        raise FleetError(
            f"all scenarios must share one horizon, got {sorted(horizons)}"
        )
    n_hubs, horizon = len(scenarios), horizons.pop()

    def rows(values: np.ndarray, dtype) -> np.ndarray:
        arr = np.asarray(values, dtype=dtype)
        if arr.ndim == 1:
            arr = np.broadcast_to(arr, (n_hubs, horizon)).copy()
        if arr.shape != (n_hubs, horizon):
            raise FleetError(
                f"per-hub trace must have shape ({n_hubs}, {horizon}), "
                f"got {arr.shape}"
            )
        return arr

    return FleetInputs(
        load_rate=np.stack([s.load_rate for s in scenarios]),
        rtp_kwh=np.stack([s.rtp_kwh for s in scenarios]),
        pv_power_kw=np.stack([s.pv_power_kw for s in scenarios]),
        wt_power_kw=np.stack([s.wt_power_kw for s in scenarios]),
        occupied=rows(occupied, int),
        discount=rows(discount, float),
        outage=None if outage is None else rows(outage, bool),
    )


def fleet_simulation_from_scenarios(
    scenarios: Sequence[HubScenario],
    occupied: np.ndarray,
    discount: np.ndarray,
    *,
    outage: np.ndarray | None = None,
    initial_soc_fraction: float | np.ndarray = 0.5,
    feeders: FeederGroup | None = None,
    voll_per_kwh: float = 0.0,
    storage: str = "dense",
    window: int | None = None,
    backend: str = "numpy",
) -> FleetSimulation:
    """Convenience: params + inputs + engine in one call.

    ``storage``/``window`` select the cost-book layout (see
    :class:`~repro.fleet.costs.FleetCostBook`): ``"windowed"`` folds
    slots into running aggregates over a bounded ring so book memory
    stops scaling with the horizon. ``backend`` picks the engine's
    battery kernel (see :mod:`repro.backend`).
    """
    return FleetSimulation(
        fleet_params_from_scenarios(scenarios),
        fleet_inputs_from_scenarios(scenarios, occupied, discount, outage=outage),
        initial_soc_fraction=initial_soc_fraction,
        feeders=feeders,
        voll_per_kwh=voll_per_kwh,
        storage=storage,
        window=window,
        backend=backend,
    )
