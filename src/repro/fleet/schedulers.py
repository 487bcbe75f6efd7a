"""Vectorized battery schedulers over :class:`FleetSimulation` states.

These are the baselines every scheduling study runs (``fleet``, the
``abl-sched`` / ``abl-cbp`` ablations at ``n_hubs=1``). Each is the
batched twin of one ``HubSimulation`` reference policy in
:mod:`repro.rl.schedulers` and produces **identical per-hub actions**
given identical inputs/seeds, which is what lets the equivalence tests
compare whole scheduled runs between the two engines:

* :class:`FleetIdleScheduler` ↔ ``IdleScheduler``
* :class:`FleetRandomScheduler` ↔ ``RandomScheduler`` (per-hub streams;
  NumPy bulk draws reproduce repeated single draws bit-for-bit)
* :class:`FleetRuleBasedScheduler` ↔ ``RuleBasedScheduler``
* :class:`FleetGreedyRenewableScheduler` ↔ ``GreedyRenewableScheduler``

The protocol is ``scheduler(sim) -> (n_hubs,) actions`` plus an optional
``reset(sim)`` hook that :meth:`FleetSimulation.run` invokes once.

Rule-based and greedy are **congestion-aware**: before committing to a
charge they consult :meth:`FleetSimulation.available_import_kw` — the
per-hub fair share of remaining feeder capacity — and fall back to IDLE
where the battery's extra import would not fit. On an uncoupled fleet the
signal is infinite, so the actions stay identical to the reference policies.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..energy.battery import CHARGE, DISCHARGE, IDLE
from ..errors import ConfigError, FleetError
from ..rng import RngFactory
from .simulation import FleetSimulation


def _quantile_rows(values: np.ndarray, q: float) -> np.ndarray:
    """Per-row quantile of a 2-D ``(n_hubs, horizon)`` block.

    Axis-vectorized; numpy's per-row results are bit-identical to
    separate ``np.quantile(row)`` calls (the scheduler threshold contract
    the scalar-equivalence suite relies on).
    """
    return np.quantile(values, q, axis=1)


class FleetScheduler:
    """Base class: a batched policy over :class:`FleetSimulation` states."""

    name: str = "fleet-scheduler"

    def __call__(self, sim: FleetSimulation) -> np.ndarray:
        raise NotImplementedError

    def reset(self, sim: FleetSimulation) -> None:
        """Hook for per-run state (thresholds, pre-drawn actions)."""


def suppress_infeasible_charges(
    sim: FleetSimulation, actions: np.ndarray
) -> np.ndarray:
    """Turn CHARGE into IDLE where the feeder headroom cannot carry it.

    A hub's charge adds ``charge_rate_kw`` of bus load; what on-site
    renewable surplus cannot cover must be imported. Where that extra
    import exceeds the hub's fair share of remaining feeder capacity
    (:meth:`FleetSimulation.available_import_kw`), the charge is dropped.
    Free no-op on uncoupled fleets, so the PR-1 scheduler throughput and
    action streams are untouched there.
    """
    if sim.feeders.is_unlimited:
        return actions
    available = sim.available_import_kw()
    # Both the headroom signal and the on-site surplus come from the
    # engine's SlotPlanes cache — nothing is rebuilt per step.
    onsite_surplus = sim.planes.onsite_surplus_kw[:, sim.t]
    extra_import = np.maximum(sim.params.charge_rate_kw - onsite_surplus, 0.0)
    return np.where(
        (actions == CHARGE) & (extra_import > available), IDLE, actions
    )


class FleetIdleScheduler(FleetScheduler):
    """Never use any battery."""

    name = "idle"

    def __call__(self, sim: FleetSimulation) -> np.ndarray:
        return np.zeros(sim.n_hubs, dtype=int)


class FleetRandomScheduler(FleetScheduler):
    """Uniform random action per hub per slot, one RNG stream per hub.

    Sequences are pre-drawn per hub at :meth:`reset`; because NumPy's
    ``Generator.integers`` yields the same values whether drawn in bulk or
    one at a time, hub *i* receives exactly the actions the scalar
    ``RandomScheduler`` would draw from the same stream.
    """

    name = "random"

    def __init__(self, rngs: Sequence[np.random.Generator]) -> None:
        if not rngs:
            raise ConfigError("FleetRandomScheduler needs at least one stream")
        self._rngs = list(rngs)
        self._actions: np.ndarray | None = None

    @classmethod
    def from_factory(
        cls,
        factory: RngFactory,
        n_hubs: int,
        *,
        prefix: str = "fleet/random",
        hub_ids: Sequence[int] | None = None,
    ) -> "FleetRandomScheduler":
        """One named sub-stream per hub, stable under fleet-size changes.

        ``hub_ids`` overrides the stream indices — a sharded run passes
        each hub's *global* index so shard hub *i* draws exactly the
        stream the unsharded fleet would give it (``{prefix}/{hub_id}``).
        """
        if hub_ids is None:
            return cls(list(factory.substreams(prefix, n_hubs)))
        if len(hub_ids) != n_hubs:
            raise ConfigError(
                f"{len(hub_ids)} hub_ids for {n_hubs} hubs"
            )
        return cls(
            [factory.stream(f"{prefix}/{int(hub_id)}") for hub_id in hub_ids]
        )

    def reset(self, sim: FleetSimulation) -> None:
        if len(self._rngs) != sim.n_hubs:
            raise FleetError(
                f"{len(self._rngs)} random streams for {sim.n_hubs} hubs"
            )
        self._actions = np.stack(
            [rng.integers(-1, 2, size=sim.horizon) for rng in self._rngs]
        )

    def __call__(self, sim: FleetSimulation) -> np.ndarray:
        if self._actions is None:
            self.reset(sim)
        return self._actions[:, sim.t]


class FleetRuleBasedScheduler(FleetScheduler):
    """Charge below each hub's cheap-price quantile, discharge above the
    expensive one — the batched peak/off-peak heuristic.

    Thresholds are computed per hub over that hub's own full price trace
    (exactly like the scalar rule), so every hub adapts to its own price
    level.
    """

    name = "rule-based"

    def __init__(
        self,
        *,
        cheap_quantile: float = 0.3,
        expensive_quantile: float = 0.7,
        congestion_aware: bool = True,
    ) -> None:
        if not 0.0 < cheap_quantile < expensive_quantile < 1.0:
            raise ConfigError(
                "quantiles must satisfy 0 < cheap < expensive < 1, got "
                f"({cheap_quantile}, {expensive_quantile})"
            )
        self.cheap_quantile = cheap_quantile
        self.expensive_quantile = expensive_quantile
        self.congestion_aware = congestion_aware
        self._cheap: np.ndarray | None = None
        self._expensive: np.ndarray | None = None

    def reset(self, sim: FleetSimulation) -> None:
        # One axis-vectorized quantile per threshold, bit-identical to N
        # separate np.quantile(row) calls, so thresholds still match the
        # scalar scheduler's exactly (the engine equivalence suite
        # compares whole scheduled runs).
        prices = sim.inputs.rtp_kwh
        self._cheap = _quantile_rows(prices, self.cheap_quantile)
        self._expensive = _quantile_rows(prices, self.expensive_quantile)

    def __call__(self, sim: FleetSimulation) -> np.ndarray:
        if self._cheap is None or self._expensive is None:
            self.reset(sim)
        price = sim.inputs.rtp_kwh[:, sim.t]
        actions = np.where(
            price <= self._cheap,
            CHARGE,
            np.where(price >= self._expensive, DISCHARGE, IDLE),
        )
        if self.congestion_aware:
            actions = suppress_infeasible_charges(sim, actions)
        return actions


class FleetGreedyRenewableScheduler(FleetScheduler):
    """Store renewable surplus; discharge during each hub's expensive slots."""

    name = "greedy-renewable"

    def __init__(
        self, *, expensive_quantile: float = 0.75, congestion_aware: bool = True
    ) -> None:
        if not 0.0 < expensive_quantile < 1.0:
            raise ConfigError(
                f"expensive_quantile must be in (0, 1), got {expensive_quantile}"
            )
        self.expensive_quantile = expensive_quantile
        self.congestion_aware = congestion_aware
        self._threshold: np.ndarray | None = None

    def reset(self, sim: FleetSimulation) -> None:
        # Axis-vectorized like the rule-based thresholds (bit-identical
        # per row to separate np.quantile calls).
        self._threshold = _quantile_rows(
            sim.inputs.rtp_kwh, self.expensive_quantile
        )

    def __call__(self, sim: FleetSimulation) -> np.ndarray:
        if self._threshold is None:
            self.reset(sim)
        t = sim.t
        renewables = sim.inputs.pv_power_kw[:, t] + sim.inputs.wt_power_kw[:, t]
        bs_load = sim.planes.p_bs_kw[:, t]
        actions = np.where(
            renewables > bs_load,
            CHARGE,
            np.where(sim.inputs.rtp_kwh[:, t] >= self._threshold, DISCHARGE, IDLE),
        )
        if self.congestion_aware:
            actions = suppress_infeasible_charges(sim, actions)
        return actions


#: Scheduler-name registry used by the fleet experiment / CLI.
FLEET_SCHEDULERS = (
    FleetIdleScheduler.name,
    FleetRandomScheduler.name,
    FleetRuleBasedScheduler.name,
    FleetGreedyRenewableScheduler.name,
)


def make_fleet_scheduler(
    name: str,
    *,
    n_hubs: int,
    rng_factory: RngFactory | None = None,
    congestion_aware: bool = True,
    cheap_quantile: float | None = None,
    expensive_quantile: float | None = None,
    hub_ids: Sequence[int] | None = None,
) -> FleetScheduler:
    """Instantiate a fleet scheduler by name (random needs a factory).

    Quantiles left ``None`` use each scheduler class's own defaults; a
    quantile the named scheduler does not consume raises
    :class:`ConfigError` instead of being silently dropped. ``hub_ids``
    carries each hub's global index into the random scheduler's stream
    names (sharded runs); the deterministic schedulers ignore it — their
    per-hub state is row-local already.
    """

    def reject_unused(allowed: tuple[str, ...]) -> None:
        supplied = {
            "cheap_quantile": cheap_quantile,
            "expensive_quantile": expensive_quantile,
        }
        unused = [
            label
            for label, value in supplied.items()
            if value is not None and label not in allowed
        ]
        if unused:
            raise ConfigError(
                f"scheduler {name!r} does not take {', '.join(unused)}"
            )

    if name == FleetIdleScheduler.name:
        reject_unused(())
        return FleetIdleScheduler()
    if name == FleetRandomScheduler.name:
        reject_unused(())
        factory = rng_factory or RngFactory(seed=0)
        return FleetRandomScheduler.from_factory(factory, n_hubs, hub_ids=hub_ids)
    if name == FleetRuleBasedScheduler.name:
        kwargs = {}
        if cheap_quantile is not None:
            kwargs["cheap_quantile"] = cheap_quantile
        if expensive_quantile is not None:
            kwargs["expensive_quantile"] = expensive_quantile
        return FleetRuleBasedScheduler(congestion_aware=congestion_aware, **kwargs)
    if name == FleetGreedyRenewableScheduler.name:
        reject_unused(("expensive_quantile",))
        kwargs = {}
        if expensive_quantile is not None:
            kwargs["expensive_quantile"] = expensive_quantile
        return FleetGreedyRenewableScheduler(
            congestion_aware=congestion_aware, **kwargs
        )
    raise FleetError(
        f"unknown fleet scheduler {name!r}; available: {', '.join(FLEET_SCHEDULERS)}"
    )
