"""``repro.fleet`` — batch-step hundreds of ECT-Hubs at once.

The paper's Fig. 6 vision is a *network* of base-station-centric hubs;
this subsystem simulates that network as struct-of-arrays state instead of
N Python objects. :class:`FleetSimulation` advances all hubs per slot with
vectorized power-balance / ledger / blackout arithmetic that is
numerically equivalent (atol ≤ 1e-9, enforced by tests) to N independent
:class:`~repro.hub.simulation.HubSimulation` runs, and
:class:`FleetCostBook` aggregates Eqs. 8–12 per hub and network-wide.

Layout
------
``params`` / ``inputs``
    Struct-of-arrays equipment parameters and exogenous traces.
``simulation``
    The batched slot-stepping engine (fused per-slot kernel).
``planes``
    Precomputed ``(n_hubs, horizon)`` planes of every action-independent
    slot quantity — the cache the fused kernel and the congestion-aware
    schedulers read instead of rebuilding per-slot state.
``costs``
    Fleet-level cost book (per-hub arrays + network totals).
``schedulers``
    Vectorized idle / random / rule-based / greedy-renewable baselines —
    the policies every scheduling study runs — action-equivalent to the
    ``HubSimulation`` reference policies in :mod:`repro.rl.schedulers`
    (rule-based/greedy additionally back off charges under feeder
    congestion).
``grid``
    Shared-grid coupling: :class:`FeederGroup` assigns hubs to feeders
    with finite per-slot import capacity; contention is resolved by
    proportional or priority-ordered curtailment.
``builder``
    Assembly from :func:`~repro.synth.catalog.default_fleet` scenarios.
"""

from .builder import (
    fleet_inputs_from_scenarios,
    fleet_params_from_scenarios,
    fleet_simulation_from_scenarios,
)
from .costs import FleetCostBook
from .grid import ALLOCATION_POLICIES, FeederGroup
from .inputs import FleetInputs, SlotTraces
from .params import FleetParams
from .planes import SlotPlanes
from .schedulers import (
    FLEET_SCHEDULERS,
    FleetGreedyRenewableScheduler,
    FleetIdleScheduler,
    FleetRandomScheduler,
    FleetRuleBasedScheduler,
    FleetScheduler,
    make_fleet_scheduler,
)
from .simulation import FleetSimulation

__all__ = [
    "ALLOCATION_POLICIES",
    "FLEET_SCHEDULERS",
    "FeederGroup",
    "FleetCostBook",
    "FleetGreedyRenewableScheduler",
    "FleetIdleScheduler",
    "FleetInputs",
    "FleetParams",
    "FleetRandomScheduler",
    "FleetRuleBasedScheduler",
    "FleetScheduler",
    "FleetSimulation",
    "SlotPlanes",
    "SlotTraces",
    "fleet_inputs_from_scenarios",
    "fleet_params_from_scenarios",
    "fleet_simulation_from_scenarios",
    "make_fleet_scheduler",
]
