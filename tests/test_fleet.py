"""Tests for the vectorized fleet engine (repro.fleet).

The centrepiece is the property-style equivalence suite: a batched
:class:`FleetSimulation` run must agree with N independent scalar
:class:`HubSimulation` runs within atol 1e-9 for every shared scheduler,
including blackout slots. Also covers the struct-of-arrays containers, the
shared NaN/inf trace validation, blackout edge cases on both engines, and
the fleet CLI/experiment plumbing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import api
from repro.cli import main
from repro.energy.battery import BatteryConfig, CHARGE, DISCHARGE, IDLE
from repro.errors import ConfigError, DataError, FleetError
from repro.fleet import (
    FeederGroup,
    FleetInputs,
    FleetParams,
    FleetSimulation,
    FleetGreedyRenewableScheduler,
    FleetIdleScheduler,
    FleetRandomScheduler,
    FleetRuleBasedScheduler,
    fleet_simulation_from_scenarios,
    make_fleet_scheduler,
)
from repro.hub.hub import HubConfig
from repro.hub.simulation import HubInputs, HubSimulation
from repro.rl.schedulers import (
    GreedyRenewableScheduler,
    IdleScheduler,
    RandomScheduler,
    RuleBasedScheduler,
)
from repro.rng import RngFactory

ATOL = 1e-9


def small_hub_config(**battery_kwargs) -> HubConfig:
    """A hub with a small battery so SoC bounds are reached quickly."""
    battery = BatteryConfig(
        capacity_kwh=10.0,
        charge_rate_kw=5.0,
        discharge_rate_kw=5.0,
        **battery_kwargs,
    )
    return HubConfig(battery=battery, n_base_stations=2, pv=None)


def flat_inputs(
    horizon: int = 6,
    *,
    outage: np.ndarray | None = None,
    occupied: np.ndarray | None = None,
) -> HubInputs:
    """Deterministic traces: constant BS idle load, no renewables."""
    return HubInputs(
        load_rate=np.zeros(horizon),
        rtp_kwh=np.full(horizon, 0.1),
        pv_power_kw=np.zeros(horizon),
        wt_power_kw=np.zeros(horizon),
        occupied=np.zeros(horizon, dtype=int) if occupied is None else occupied,
        discount=np.zeros(horizon),
        outage=outage,
    )


# --------------------------------------------------------------------- #
# Trace validation (shared by both engines)                              #
# --------------------------------------------------------------------- #


class TestTraceValidation:
    def test_hub_inputs_reject_nan(self):
        load = np.zeros(4)
        load[2] = np.nan
        with pytest.raises(DataError, match="NaN"):
            HubInputs(
                load_rate=load,
                rtp_kwh=np.zeros(4),
                pv_power_kw=np.zeros(4),
                wt_power_kw=np.zeros(4),
                occupied=np.zeros(4, dtype=int),
                discount=np.zeros(4),
            )

    def test_hub_inputs_reject_inf(self):
        rtp = np.zeros(4)
        rtp[0] = np.inf
        with pytest.raises(DataError, match="NaN or inf"):
            HubInputs(
                load_rate=np.zeros(4),
                rtp_kwh=rtp,
                pv_power_kw=np.zeros(4),
                wt_power_kw=np.zeros(4),
                occupied=np.zeros(4, dtype=int),
                discount=np.zeros(4),
            )

    def test_fleet_inputs_reject_nan(self):
        pv = np.zeros((2, 4))
        pv[1, 3] = np.nan
        with pytest.raises(DataError, match="pv_power_kw"):
            FleetInputs(
                load_rate=np.zeros((2, 4)),
                rtp_kwh=np.zeros((2, 4)),
                pv_power_kw=pv,
                wt_power_kw=np.zeros((2, 4)),
                occupied=np.zeros((2, 4), dtype=int),
                discount=np.zeros((2, 4)),
            )

    def test_fleet_inputs_range_checks(self):
        with pytest.raises(DataError, match="load_rate"):
            FleetInputs(
                load_rate=np.full((2, 4), 1.5),
                rtp_kwh=np.zeros((2, 4)),
                pv_power_kw=np.zeros((2, 4)),
                wt_power_kw=np.zeros((2, 4)),
                occupied=np.zeros((2, 4), dtype=int),
                discount=np.zeros((2, 4)),
            )

    def test_fleet_inputs_must_be_2d(self):
        with pytest.raises(FleetError, match="2-D"):
            FleetInputs(
                load_rate=np.zeros(4),
                rtp_kwh=np.zeros(4),
                pv_power_kw=np.zeros(4),
                wt_power_kw=np.zeros(4),
                occupied=np.zeros(4, dtype=int),
                discount=np.zeros(4),
            )


# --------------------------------------------------------------------- #
# Containers                                                             #
# --------------------------------------------------------------------- #


class TestContainers:
    def test_stack_and_hub_round_trip(self):
        rows = [flat_inputs(5), flat_inputs(5, outage=np.array([0, 1, 0, 0, 1], dtype=bool))]
        fleet = FleetInputs.from_hub_inputs(rows)
        assert fleet.n_hubs == 2 and fleet.horizon == 5
        back = fleet.hub(1)
        np.testing.assert_array_equal(back.outage, rows[1].outage)
        np.testing.assert_array_equal(fleet.outage_mask()[0], np.zeros(5, dtype=bool))

    def test_stack_rejects_mixed_horizons(self):
        with pytest.raises(FleetError, match="horizon"):
            FleetInputs.from_hub_inputs([flat_inputs(5), flat_inputs(6)])

    def test_params_from_configs(self):
        params = FleetParams.from_hub_configs([small_hub_config(), HubConfig()])
        assert params.n_hubs == 2
        assert params.capacity_kwh[0] == 10.0
        assert params.paper_exact.dtype == bool

    def test_params_reject_mixed_dt(self):
        with pytest.raises(FleetError, match="slot length"):
            FleetParams.from_hub_configs([HubConfig(), HubConfig(dt_h=0.5)])

    def test_simulation_rejects_mismatched_shapes(self):
        params = FleetParams.from_hub_configs([small_hub_config()])
        fleet = FleetInputs.from_hub_inputs([flat_inputs(4), flat_inputs(4)])
        with pytest.raises(FleetError, match="hubs"):
            FleetSimulation(params, fleet)

    def test_bad_initial_soc_rejected(self):
        params = FleetParams.from_hub_configs([small_hub_config()])
        fleet = FleetInputs.from_hub_inputs([flat_inputs(4)])
        with pytest.raises(ConfigError):
            FleetSimulation(params, fleet, initial_soc_fraction=1.5)


# --------------------------------------------------------------------- #
# Equivalence: batched engine == N independent scalar engines            #
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fleet_case():
    """≥10 hubs x ≥7 days with outages, shared by every scheduler check."""
    compiled = api.build(
        api.resolve_spec("fleet-default").with_overrides(
            {"fleet.n_hubs": 10, "run.days": 7, "run.seed": 3,
             "blackout.outage_probability_per_hour": 0.01}
        )
    )
    scenarios, sim = compiled.scenarios, compiled.simulation
    assert sim.inputs.outage is not None and sim.inputs.outage.any()
    return scenarios, sim


def run_scalar_fleet(scenarios, fleet_inputs, scheduler_for):
    """N independent HubSimulation runs over the same stacked traces."""
    books = []
    for index, scenario in enumerate(scenarios):
        sim = HubSimulation(scenario.build_hub(), fleet_inputs.hub(index))
        sim.run(scheduler_for(index))
        books.append(sim.book)
    return books


def assert_books_match(fleet_book, scalar_books):
    """Totals, per-slot ledgers, and daily rewards agree within ATOL."""
    for name, scalar_value in (
        ("operating_cost_per_hub", [b.operating_cost for b in scalar_books]),
        ("charging_revenue_per_hub", [b.charging_revenue for b in scalar_books]),
        ("profit_per_hub", [b.profit for b in scalar_books]),
        ("grid_energy_per_hub_kwh", [b.total_grid_energy_kwh for b in scalar_books]),
        ("curtailed_per_hub_kwh", [b.total_curtailed_kwh for b in scalar_books]),
        ("unserved_per_hub_kwh", [b.total_unserved_kwh for b in scalar_books]),
    ):
        np.testing.assert_allclose(
            getattr(fleet_book, name), scalar_value, rtol=0, atol=ATOL, err_msg=name
        )
    np.testing.assert_allclose(
        fleet_book.daily_rewards(),
        [b.daily_rewards() for b in scalar_books],
        rtol=0,
        atol=ATOL,
    )
    # Slot-level spot check: actions and SoC trajectories line up exactly.
    for index, book in enumerate(scalar_books):
        np.testing.assert_array_equal(
            fleet_book.action[index], [l.action for l in book.ledgers]
        )
        np.testing.assert_allclose(
            fleet_book.soc_kwh[index],
            [l.soc_kwh for l in book.ledgers],
            rtol=0,
            atol=ATOL,
        )


class TestEquivalence:
    def test_idle(self, fleet_case):
        scenarios, sim = fleet_case
        sim.reset()
        fleet_book = sim.run(FleetIdleScheduler())
        scalar = run_scalar_fleet(scenarios, sim.inputs, lambda i: IdleScheduler())
        assert_books_match(fleet_book, scalar)

    def test_rule_based(self, fleet_case):
        scenarios, sim = fleet_case
        sim.reset()
        fleet_book = sim.run(FleetRuleBasedScheduler())
        scalar = run_scalar_fleet(scenarios, sim.inputs, lambda i: RuleBasedScheduler())
        assert_books_match(fleet_book, scalar)
        # Both branches of the rule fired somewhere in the fleet.
        assert (fleet_book.action == CHARGE).any()
        assert (fleet_book.action == DISCHARGE).any()

    def test_random_shared_seeds(self, fleet_case):
        scenarios, sim = fleet_case
        sim.reset()
        fleet_book = sim.run(
            FleetRandomScheduler.from_factory(RngFactory(seed=11), sim.n_hubs)
        )
        scalar = run_scalar_fleet(
            scenarios,
            sim.inputs,
            lambda i: RandomScheduler(RngFactory(seed=11).stream(f"fleet/random/{i}")),
        )
        assert_books_match(fleet_book, scalar)

    def test_greedy_renewable(self, fleet_case):
        scenarios, sim = fleet_case
        sim.reset()
        fleet_book = sim.run(FleetGreedyRenewableScheduler())
        scalar = run_scalar_fleet(
            scenarios, sim.inputs, lambda i: GreedyRenewableScheduler()
        )
        assert_books_match(fleet_book, scalar)

    def test_paper_exact_battery_convention(self):
        configs = [
            small_hub_config(paper_exact=True),
            small_hub_config(paper_exact=True),
        ]
        outage = np.zeros(24, dtype=bool)
        outage[5:8] = True
        rows = [flat_inputs(24, outage=outage), flat_inputs(24)]
        fleet = FleetInputs.from_hub_inputs(rows)
        sim = FleetSimulation(FleetParams.from_hub_configs(configs), fleet)
        fleet_book = sim.run(FleetRuleBasedScheduler())
        from repro.hub.hub import EctHub

        scalar = []
        for index, config in enumerate(configs):
            one = HubSimulation(EctHub(config), fleet.hub(index))
            one.run(RuleBasedScheduler())
            scalar.append(one.book)
        assert_books_match(fleet_book, scalar)


# --------------------------------------------------------------------- #
# Blackout edge cases, exercised on BOTH engines                         #
# --------------------------------------------------------------------- #


def engines_for(config: HubConfig, inputs: HubInputs, *, soc: float = 0.5):
    """(scalar sim, fleet sim) over identical single-hub state."""
    from repro.hub.hub import EctHub

    scalar = HubSimulation(EctHub(config), inputs, initial_soc_fraction=soc)
    fleet = FleetSimulation(
        FleetParams.from_hub_configs([config]),
        FleetInputs.from_hub_inputs([inputs]),
        initial_soc_fraction=soc,
    )
    return scalar, fleet


class TestBlackoutEdges:
    def test_blackout_on_slot_zero(self):
        config = small_hub_config()
        outage = np.zeros(4, dtype=bool)
        outage[0] = True
        scalar, fleet = engines_for(config, flat_inputs(4, outage=outage))

        ledger = scalar.step(CHARGE)
        columns = fleet.step(np.array([CHARGE]))
        # The scheduled charge is overridden; the reserve carries the BS.
        assert ledger.blackout and ledger.action == IDLE
        assert ledger.p_grid_kw == 0.0 and ledger.revenue == 0.0
        assert columns["action"][0] == IDLE
        assert columns["p_grid_kw"][0] == 0.0
        np.testing.assert_allclose(
            columns["soc_kwh"][0], ledger.soc_kwh, rtol=0, atol=ATOL
        )
        assert ledger.soc_kwh < 5.0  # battery dipped to serve the BS

    def test_back_to_back_outages_drain_then_recover(self):
        config = small_hub_config()
        outage = np.zeros(6, dtype=bool)
        outage[1:4] = True  # three consecutive dark slots
        inputs = flat_inputs(6, outage=outage, occupied=np.ones(6, dtype=int))
        scalar, fleet = engines_for(config, inputs, soc=1.0)
        scalar.run(IdleScheduler())
        fleet_book = fleet.run(FleetIdleScheduler())

        socs = [l.soc_kwh for l in scalar.book.ledgers]
        assert socs[0] > socs[1] > socs[2] > socs[3]  # monotone drain when dark
        # Charging and grid import are suspended during every outage slot.
        for t, ledger in enumerate(scalar.book.ledgers):
            if outage[t]:
                assert ledger.revenue == 0.0
                assert ledger.p_cs_kw == 0.0 and ledger.p_grid_kw == 0.0
        np.testing.assert_allclose(
            fleet_book.soc_kwh[0], socs, rtol=0, atol=ATOL
        )
        np.testing.assert_array_equal(fleet_book.blackout[0], outage)

    def test_emergency_reserve_exhaustion_reports_unserved(self):
        # Tiny battery + long outage: the Eq. 6 reserve empties and the
        # remaining BS demand is booked as unserved energy.
        config = small_hub_config(soc_min_fraction=0.05)
        outage = np.ones(8, dtype=bool)
        scalar, fleet = engines_for(config, flat_inputs(8, outage=outage), soc=0.2)
        scalar.run(IdleScheduler())
        fleet_book = fleet.run(FleetIdleScheduler())

        assert scalar.book.total_unserved_kwh > 0.0
        assert scalar.book.ledgers[-1].soc_kwh == pytest.approx(0.0, abs=1e-12)
        assert fleet_book.soc_kwh[0, -1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(
            fleet_book.unserved_per_hub_kwh[0],
            scalar.book.total_unserved_kwh,
            rtol=0,
            atol=ATOL,
        )
        # Battery never goes negative on either engine.
        assert min(l.soc_kwh for l in scalar.book.ledgers) >= 0.0
        assert fleet_book.soc_kwh.min() >= 0.0


# --------------------------------------------------------------------- #
# Fleet cost book + engine surface                                       #
# --------------------------------------------------------------------- #


class TestFleetBook:
    def test_network_totals_are_hub_sums(self, fleet_case):
        _, sim = fleet_case
        sim.reset()
        book = sim.run(FleetRuleBasedScheduler())
        assert book.profit == pytest.approx(book.profit_per_hub.sum())
        assert book.operating_cost == pytest.approx(book.operating_cost_per_hub.sum())
        assert book.daily_rewards().shape == (sim.n_hubs, 7)

    def test_hub_book_reconstruction(self, fleet_case):
        _, sim = fleet_case
        sim.reset()
        book = sim.run(FleetIdleScheduler())
        hub0 = book.hub_book(0)
        assert len(hub0) == sim.horizon
        assert hub0.profit == pytest.approx(book.profit_per_hub[0])

    def test_step_guards(self):
        params = FleetParams.from_hub_configs([small_hub_config()])
        sim = FleetSimulation(params, FleetInputs.from_hub_inputs([flat_inputs(2)]))
        with pytest.raises(FleetError, match="shape"):
            sim.step(np.zeros(3, dtype=int))
        with pytest.raises(FleetError, match="-1, 0, or 1"):
            sim.step(np.array([5]))
        sim.step(np.array([IDLE]))
        sim.step(np.array([IDLE]))
        assert sim.done
        with pytest.raises(FleetError, match="exhausted"):
            sim.step(np.array([IDLE]))

    def test_reset_restores_initial_state(self, fleet_case):
        _, sim = fleet_case
        sim.reset()
        first = sim.run(FleetRuleBasedScheduler()).profit
        sim.reset()
        second = sim.run(FleetRuleBasedScheduler()).profit
        assert first == second


class TestSchedulerFactory:
    def test_names(self):
        for name in ("idle", "random", "rule-based", "greedy-renewable"):
            sched = make_fleet_scheduler(name, n_hubs=3)
            assert sched.name == name
        with pytest.raises(FleetError, match="unknown fleet scheduler"):
            make_fleet_scheduler("dp-oracle", n_hubs=3)


# --------------------------------------------------------------------- #
# Experiment + CLI plumbing                                              #
# --------------------------------------------------------------------- #


class TestFleetExperimentCli:
    def test_fleet_experiment_runs(self):
        from repro.experiments import run_experiment

        result = run_experiment("fleet", scale=0.2)
        assert result.data["n_hubs"] >= 4
        assert len(result.data["profit_per_hub"]) == result.data["n_hubs"]
        # data must stay deterministic (diffable via --out); timing is
        # reported in the rendered lines only.
        assert "hub_slots_per_sec" not in result.data
        again = run_experiment("fleet", scale=0.2)
        assert result.to_json_dict() == again.to_json_dict()

    def test_cli_fleet_with_out(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        assert (
            main(
                [
                    "fleet",
                    "--set", "fleet.n_hubs=5",
                    "--set", "run.days=7",
                    "--set", "scheduler.name=idle",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert "network profit" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["experiment_id"] == "fleet"
        assert payload["data"]["n_hubs"] == 5
        assert len(payload["data"]["profit_per_hub"]) == 5

    def test_cli_reports_library_errors_cleanly(self, capsys):
        assert main(["fleet", "--set", "fleet.n_hubs=0"]) == 1
        err = capsys.readouterr().err
        assert "n_hubs must be an integer >= 1" in err and "Traceback" not in err

    def test_cli_run_with_out(self, tmp_path, capsys):
        out = tmp_path / "fig5.json"
        assert main(["run", "fig5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["experiment_id"] == "fig5"
        assert "correlation" in payload["data"]


# --------------------------------------------------------------------- #
# Shared-grid coupling: FeederGroup model                                 #
# --------------------------------------------------------------------- #


class TestFeederGroup:
    def test_unlimited_is_passthrough(self):
        feeders = FeederGroup.unlimited(3)
        assert feeders.is_unlimited and feeders.n_feeders == 1
        demand = np.array([4.0, 0.0, 9.5])
        granted, shortfall = feeders.allocate(demand, 0)
        np.testing.assert_array_equal(granted, demand)
        np.testing.assert_array_equal(shortfall, np.zeros(3))
        assert np.isinf(feeders.available_import_kw(demand, 0)).all()

    def test_uniform_round_robin(self):
        feeders = FeederGroup.uniform(5, 2, 100.0)
        np.testing.assert_array_equal(feeders.assignment, [0, 1, 0, 1, 0])
        np.testing.assert_array_equal(feeders.members, [3, 2])
        assert not feeders.is_unlimited

    def test_proportional_allocation(self):
        feeders = FeederGroup(
            assignment=np.array([0, 0, 1]),
            import_capacity_kw=np.array([10.0, np.inf]),
        )
        granted, shortfall = feeders.allocate(np.array([8.0, 8.0, 5.0]), 0)
        np.testing.assert_allclose(granted, [5.0, 5.0, 5.0])
        np.testing.assert_allclose(shortfall, [3.0, 3.0, 0.0])

    def test_priority_allocation(self):
        feeders = FeederGroup(
            assignment=np.zeros(3, dtype=int),
            import_capacity_kw=np.array([7.0]),
            policy="priority",
            priority=np.array([1.0, 3.0, 2.0]),
        )
        granted, shortfall = feeders.allocate(np.array([5.0, 5.0, 5.0]), 0)
        # Highest priority served first, then the next, then nothing left.
        np.testing.assert_allclose(granted, [0.0, 5.0, 2.0])
        np.testing.assert_allclose(shortfall, [5.0, 0.0, 3.0])

    def test_priority_ties_break_by_hub_index(self):
        feeders = FeederGroup(
            assignment=np.zeros(2, dtype=int),
            import_capacity_kw=np.array([4.0]),
            policy="priority",
        )
        granted, _ = feeders.allocate(np.array([3.0, 3.0]), 0)
        np.testing.assert_allclose(granted, [3.0, 1.0])

    def test_per_slot_capacity(self):
        feeders = FeederGroup(
            assignment=np.zeros(1, dtype=int),
            import_capacity_kw=np.array([[10.0, 2.0]]),
        )
        assert feeders.horizon == 2
        np.testing.assert_allclose(feeders.allocate(np.array([3.0]), 0)[0], [3.0])
        np.testing.assert_allclose(feeders.allocate(np.array([3.0]), 1)[0], [2.0])
        with pytest.raises(FleetError, match="horizon"):
            feeders.capacity_at(2)

    def test_available_import_fair_share(self):
        feeders = FeederGroup(
            assignment=np.array([0, 0, 1]),
            import_capacity_kw=np.array([10.0, 1.0]),
        )
        available = feeders.available_import_kw(np.array([4.0, 2.0, 5.0]), 0)
        np.testing.assert_allclose(available, [2.0, 2.0, 0.0])

    def test_validation_errors(self):
        with pytest.raises(FleetError, match="assignment"):
            FeederGroup(
                assignment=np.array([0, 2]),
                import_capacity_kw=np.array([1.0]),
            )
        with pytest.raises(FleetError, match="non-negative"):
            FeederGroup(
                assignment=np.array([0]),
                import_capacity_kw=np.array([-1.0]),
            )
        with pytest.raises(FleetError, match="NaN"):
            FeederGroup(
                assignment=np.array([0]),
                import_capacity_kw=np.array([np.nan]),
            )
        with pytest.raises(FleetError, match="policy"):
            FeederGroup(
                assignment=np.array([0]),
                import_capacity_kw=np.array([1.0]),
                policy="auction",
            )
        with pytest.raises(FleetError, match="priority"):
            FeederGroup(
                assignment=np.array([0, 0]),
                import_capacity_kw=np.array([1.0]),
                policy="priority",
                priority=np.array([1.0, -2.0]),
            )
        with pytest.raises(FleetError, match="empty"):
            FeederGroup.uniform(2, 3, 10.0)

    def test_simulation_rejects_mismatched_feeders(self):
        params = FleetParams.from_hub_configs([small_hub_config()])
        fleet = FleetInputs.from_hub_inputs([flat_inputs(4)])
        with pytest.raises(FleetError, match="feeder group"):
            FleetSimulation(params, fleet, feeders=FeederGroup.unlimited(2))
        with pytest.raises(FleetError, match="capacity horizon"):
            FleetSimulation(
                params,
                fleet,
                feeders=FeederGroup(
                    assignment=np.zeros(1, dtype=int),
                    import_capacity_kw=np.full((1, 3), 5.0),
                ),
            )


# --------------------------------------------------------------------- #
# Coupled engine with unlimited capacity == uncoupled engine              #
# --------------------------------------------------------------------- #


def seeded_fleet_inputs(n_hubs: int, horizon: int, seed: int) -> FleetInputs:
    """Diverse random-but-valid traces, including a few blackout slots."""
    rng = np.random.default_rng(seed)
    return FleetInputs(
        load_rate=rng.uniform(0.0, 1.0, (n_hubs, horizon)),
        rtp_kwh=rng.uniform(0.05, 0.6, (n_hubs, horizon)),
        pv_power_kw=rng.uniform(0.0, 8.0, (n_hubs, horizon)),
        wt_power_kw=rng.uniform(0.0, 5.0, (n_hubs, horizon)),
        occupied=rng.integers(0, 2, (n_hubs, horizon)),
        discount=rng.uniform(0.0, 0.5, (n_hubs, horizon)),
        outage=rng.random((n_hubs, horizon)) < 0.03,
    )


def assert_fleet_books_identical(one, two, atol=ATOL):
    """Every recorded column agrees slot-for-slot."""
    np.testing.assert_array_equal(one.action, two.action)
    np.testing.assert_array_equal(one.blackout, two.blackout)
    for name in one._FLOAT_COLUMNS:
        np.testing.assert_allclose(
            getattr(one, name), getattr(two, name), rtol=0, atol=atol, err_msg=name
        )


def scheduler_by_name(name: str, n_hubs: int):
    if name == "random":
        return FleetRandomScheduler.from_factory(RngFactory(seed=17), n_hubs)
    return make_fleet_scheduler(name, n_hubs=n_hubs)


class TestCoupledUnlimitedEquivalence:
    """Satellite: unlimited-capacity coupling changes nothing, slot-for-slot."""

    N_HUBS = 8
    HORIZON = 72

    @pytest.mark.parametrize("paper_exact", [False, True])
    @pytest.mark.parametrize(
        "scheduler_name", ["idle", "random", "rule-based", "greedy-renewable"]
    )
    def test_matches_uncoupled_slot_for_slot(self, scheduler_name, paper_exact):
        configs = [
            small_hub_config(paper_exact=paper_exact) for _ in range(self.N_HUBS)
        ]
        params = FleetParams.from_hub_configs(configs)
        inputs = seeded_fleet_inputs(self.N_HUBS, self.HORIZON, seed=5)

        uncoupled = FleetSimulation(params, inputs)
        baseline = uncoupled.run(scheduler_by_name(scheduler_name, self.N_HUBS))

        # Finite-but-huge capacity exercises the full allocation path.
        for capacity in (np.inf, 1e12):
            coupled = FleetSimulation(
                params,
                inputs,
                feeders=FeederGroup.uniform(self.N_HUBS, 3, capacity),
            )
            book = coupled.run(scheduler_by_name(scheduler_name, self.N_HUBS))
            assert_fleet_books_identical(baseline, book)
            assert book.total_import_shortfall_kwh == 0.0
            assert book.congested_feeder_slots == 0


# --------------------------------------------------------------------- #
# Congestion behaviour under binding feeder limits                        #
# --------------------------------------------------------------------- #


class TestCongestion:
    @pytest.fixture(scope="class")
    def congested_case(self):
        """A fleet whose 3 feeders are capped at half the uncongested peak."""
        base = api.resolve_spec("fleet-default").with_overrides(
            {"fleet.n_hubs": 12, "run.days": 7, "run.seed": 3,
             "blackout.outage_probability_per_hour": 0.01}
        )
        free = api.build(base).simulation
        free_book = free.run(FleetRuleBasedScheduler())
        peak = float(free_book.feeder_import_kw().max())
        capacity = peak / 3 * 0.5
        sim = api.build(
            base.with_overrides(
                {"grid.n_feeders": 3, "grid.feeder_capacity_kw": capacity}
            )
        ).simulation
        book = sim.run(FleetRuleBasedScheduler())
        return free_book, sim, book, capacity

    def test_congestion_is_booked(self, congested_case):
        free_book, sim, book, capacity = congested_case
        assert book.total_import_shortfall_kwh > 0.0
        assert book.total_unserved_kwh > 0.0
        assert book.congested_feeder_slots > 0
        assert (book.feeder_shortfall_kwh > 0.0).any()
        # The unlimited run records no congestion anywhere.
        assert free_book.total_import_shortfall_kwh == 0.0
        assert free_book.congested_feeder_slots == 0

    def test_feeder_imports_respect_capacity(self, congested_case):
        _, sim, book, capacity = congested_case
        assert (book.feeder_import_kw() <= capacity + 1e-9).all()
        assert (book.feeder_peak_import_kw <= capacity + 1e-9).all()

    def test_energy_balance_closes_under_curtailment(self, congested_case):
        _, sim, book, _ = congested_case
        dt = sim.params.dt_h
        lhs = book.p_grid_kw + book.p_pv_kw + book.p_wt_kw + book.unserved_kwh / dt
        rhs = book.p_bs_kw + book.p_cs_kw + book.p_bp_kw + book.surplus_kw
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)

    def test_grid_cost_prices_granted_import_only(self, congested_case):
        _, sim, book, _ = congested_case
        np.testing.assert_allclose(
            book.grid_cost, book.p_grid_kw * book.rtp_kwh, rtol=0, atol=1e-9
        )

    def test_congestion_aware_scheduler_sheds_charges(self):
        base = api.resolve_spec("fleet-default").with_overrides(
            {"fleet.n_hubs": 12, "run.days": 7, "run.seed": 3,
             "blackout.outage_probability_per_hour": 0.0}
        )
        free = api.build(base).simulation
        peak = float(free.run(FleetRuleBasedScheduler()).feeder_import_kw().max())
        builds = {}
        for aware in (True, False):
            sim = api.build(
                base.with_overrides(
                    {"grid.n_feeders": 3, "grid.feeder_capacity_kw": peak / 3 * 0.8}
                )
            ).simulation
            builds[aware] = sim.run(
                FleetRuleBasedScheduler(congestion_aware=aware)
            )
        aware_book, naive_book = builds[True], builds[False]
        assert (aware_book.action == CHARGE).sum() < (naive_book.action == CHARGE).sum()
        assert (
            aware_book.total_import_shortfall_kwh
            <= naive_book.total_import_shortfall_kwh
        )

    def test_priority_hub_served_first(self):
        # One feeder, two identical hubs, idle batteries, no renewables:
        # each hub demands its BS load every slot; capacity fits 1.5 hubs.
        configs = [small_hub_config(), small_hub_config()]
        params = FleetParams.from_hub_configs(configs)
        inputs = FleetInputs.from_hub_inputs([flat_inputs(6), flat_inputs(6)])
        p_bs = float(params.bs_power_kw(np.zeros(2))[0])
        feeders = FeederGroup(
            assignment=np.zeros(2, dtype=int),
            import_capacity_kw=np.array([1.5 * p_bs]),
            policy="priority",
            priority=np.array([1.0, 10.0]),
        )
        sim = FleetSimulation(params, inputs, feeders=feeders)
        book = sim.run(FleetIdleScheduler())
        np.testing.assert_allclose(book.p_grid_kw[1], np.full(6, p_bs))
        np.testing.assert_allclose(book.p_grid_kw[0], np.full(6, 0.5 * p_bs))

    def test_cli_feeder_flags(self, tmp_path):
        out = tmp_path / "coupled.json"
        assert (
            main(
                [
                    "fleet",
                    "--set", "fleet.n_hubs=6",
                    "--set", "run.days=7",
                    "--set", "grid.n_feeders=2",
                    "--set", "grid.feeder_capacity_kw=120",
                    "--set", "grid.allocation=priority",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["data"]["n_feeders"] == 2
        assert payload["data"]["allocation"] == "priority"
        assert payload["data"]["import_shortfall_kwh"] >= 0.0
        assert len(payload["data"]["feeder_import_kwh"]) == 2

    def test_fleet_grid_experiment_runs(self):
        from repro.experiments import run_experiment

        result = run_experiment("fleet-grid", scale=0.3)
        sweep = result.data["sweep"]
        assert len(sweep) == 4
        # Tightest capacity shows congestion; near-peak shows none.
        assert sweep[-1]["import_shortfall_kwh"] > 0.0
        assert sweep[0]["import_shortfall_kwh"] == 0.0
        again = run_experiment("fleet-grid", scale=0.3)
        assert result.to_json_dict() == again.to_json_dict()
