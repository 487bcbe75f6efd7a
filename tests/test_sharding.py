"""Hub sharding + windowed cost book: byte-identity and planning laws.

The city-scale contract under test has three legs:

* ``api.run(spec, shards=N)`` is an *executor* choice, never a
  *semantics* choice — the ``--out`` export is byte for byte the file
  the unsharded run writes, across feeder coupling, priority
  allocation, blackouts, VoLL, the random scheduler, and the pricing
  loop (randomized over shard counts, seeds, and topologies).
* :func:`~repro.fleet.sharding.plan_shards` is a deterministic,
  feeder-closed partition of the hub index space.
* ``storage="windowed"`` books match dense aggregates to 1e-9 while
  refusing the per-slot surfaces they no longer hold, and merge across
  shards bit-identically to an unsharded windowed run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import api
from repro.cli import main
from repro.errors import ConfigError, FleetError, ParallelError
from repro.experiments.base import write_results_json
from repro.fleet.costs import FleetCostBook
from repro.fleet.grid import FeederGroup
from repro.fleet.sharding import ShardTask, plan_shards, run_shard
from repro.parallel import run_shards_parallel
from repro.spec import get_preset
from repro.spec.scenario import RunSpec, ScenarioSpec


def base_spec(**overrides) -> ScenarioSpec:
    return get_preset("fleet-default").with_overrides(
        {"fleet.n_hubs": 10, "run.days": 2, **overrides}
    )


def export_bytes(result, tmp_path, name) -> bytes:
    path = tmp_path / f"{name}.json"
    write_results_json(result, path)
    return path.read_bytes()


# --------------------------------------------------------------------- #
# plan_shards                                                             #
# --------------------------------------------------------------------- #


def synthetic_feeders(assignment, capacities) -> FeederGroup:
    return FeederGroup(
        assignment=np.asarray(assignment),
        import_capacity_kw=np.asarray(capacities, dtype=float),
        policy="proportional",
    )


class TestPlanShards:
    def test_partitions_exactly_once(self):
        feeders = synthetic_feeders([0, 1, 2, 0, 1, 2, 0], [np.inf, 40.0, np.inf])
        plan = plan_shards(feeders, 3)
        merged = np.concatenate(plan)
        assert sorted(merged.tolist()) == list(range(7))
        assert len(merged) == len(set(merged.tolist()))

    def test_coupled_feeders_stay_whole(self):
        feeders = synthetic_feeders([0, 1, 0, 1, 0, 1], [50.0, 60.0])
        for n_shards in (2, 3, 5):
            plan = plan_shards(feeders, n_shards)
            for members in plan:
                present = set(feeders.assignment[members].tolist())
                for feeder in present:
                    expected = np.flatnonzero(feeders.assignment == feeder)
                    assert set(expected.tolist()) <= set(members.tolist())

    def test_unlimited_hubs_split_freely(self):
        feeders = synthetic_feeders([0] * 8, [np.inf])
        plan = plan_shards(feeders, 4)
        assert len(plan) == 4
        assert sorted(len(p) for p in plan) == [2, 2, 2, 2]

    def test_split_unlimited_false_keeps_feeders_atomic(self):
        feeders = synthetic_feeders([0] * 8, [np.inf])
        plan = plan_shards(feeders, 4, split_unlimited=False)
        assert len(plan) == 1
        assert plan[0].tolist() == list(range(8))

    def test_shards_are_sorted_and_ordered_by_first_hub(self):
        feeders = synthetic_feeders([0, 1, 2, 0, 1, 2], [30.0, 30.0, 30.0])
        plan = plan_shards(feeders, 3)
        for members in plan:
            assert (np.diff(members) > 0).all()
        firsts = [int(p[0]) for p in plan]
        assert firsts == sorted(firsts)

    def test_deterministic(self):
        feeders = synthetic_feeders(
            [0, 1, 2, 3, 0, 1, 2, 3, 0], [np.inf, 25.0, np.inf, 70.0]
        )
        first = plan_shards(feeders, 3)
        second = plan_shards(feeders, 3)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_one_shard_is_everything(self):
        feeders = synthetic_feeders([0, 1, 0, 1], [np.inf, 40.0])
        plan = plan_shards(feeders, 1)
        assert len(plan) == 1
        assert plan[0].tolist() == [0, 1, 2, 3]

    def test_bad_counts_rejected(self):
        feeders = synthetic_feeders([0, 0], [np.inf])
        with pytest.raises(FleetError):
            plan_shards(feeders, 0)
        with pytest.raises(FleetError):
            plan_shards(feeders, True)

    def test_randomized_partition_law(self):
        """Any topology: exact cover, finite-feeder closure, determinism."""
        rng = np.random.default_rng(20240817)
        for _ in range(25):
            n_hubs = int(rng.integers(2, 30))
            n_feeders = int(rng.integers(1, min(n_hubs, 6) + 1))
            assignment = rng.integers(0, n_feeders, size=n_hubs)
            assignment[:n_feeders] = np.arange(n_feeders)  # no empty feeder
            capacities = np.where(
                rng.random(n_feeders) < 0.5, np.inf, rng.uniform(10, 200, n_feeders)
            )
            feeders = synthetic_feeders(assignment, capacities)
            n_shards = int(rng.integers(1, 9))
            plan = plan_shards(feeders, n_shards)
            merged = np.concatenate(plan)
            assert sorted(merged.tolist()) == list(range(n_hubs))
            assert 1 <= len(plan) <= n_shards
            for members in plan:
                for feeder in set(assignment[members].tolist()):
                    if np.isinf(capacities[feeder]):
                        continue
                    expected = np.flatnonzero(assignment == feeder)
                    assert set(expected.tolist()) <= set(members.tolist())


# --------------------------------------------------------------------- #
# FeederGroup.subgroup                                                    #
# --------------------------------------------------------------------- #


class TestSubgroup:
    def test_renumbers_compactly_and_keeps_capacity_rows(self):
        feeders = synthetic_feeders([0, 1, 2, 1, 2], [10.0, 20.0, 30.0])
        sub, feeder_ids = feeders.subgroup(np.array([1, 3, 4]))
        assert feeder_ids.tolist() == [1, 2]
        assert sub.assignment.tolist() == [0, 0, 1]
        assert sub.import_capacity_kw.tolist() == [20.0, 30.0]
        assert sub.n_hubs == 3

    def test_rejects_unsorted_duplicate_or_out_of_range(self):
        feeders = synthetic_feeders([0, 1, 0, 1], [10.0, 20.0])
        for bad in ([2, 1], [1, 1], [3, 4], []):
            with pytest.raises(FleetError):
                feeders.subgroup(np.asarray(bad, dtype=int))


# --------------------------------------------------------------------- #
# Sharded api.run byte-identity                                           #
# --------------------------------------------------------------------- #

SCENARIOS = {
    "uncoupled": {},
    "coupled": {"grid.n_feeders": 3, "grid.feeder_capacity_kw": 250.0},
    "priority-voll": {
        "grid.n_feeders": 2,
        "grid.feeder_capacity_kw": 200.0,
        "grid.allocation": "priority",
        "run.voll_per_kwh": 5.0,
    },
    "random-scheduler": {"scheduler.name": "random"},
    "windowed": {
        "run.storage": "windowed",
        "grid.n_feeders": 3,
        "grid.feeder_capacity_kw": 250.0,
    },
}


class TestShardedByteIdentity:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("n_shards", [2, 7])
    def test_export_matches_unsharded(self, tmp_path, scenario, n_shards):
        spec = base_spec(**SCENARIOS[scenario])
        reference = export_bytes(api.run(spec), tmp_path, "ref")
        sharded = export_bytes(
            api.run(spec, shards=n_shards), tmp_path, f"s{n_shards}"
        )
        assert sharded == reference

    def test_one_shard_matches_too(self, tmp_path):
        spec = base_spec()
        assert export_bytes(api.run(spec, shards=1), tmp_path, "one") == (
            export_bytes(api.run(spec), tmp_path, "ref")
        )

    def test_pricing_run_matches(self, tmp_path):
        spec = base_spec(
            **{
                "pricing.policy": "evening",
                "pricing.train_days": 3,
                "grid.n_feeders": 2,
                "grid.feeder_capacity_kw": 250.0,
            }
        )
        reference = export_bytes(api.run(spec), tmp_path, "ref")
        assert export_bytes(api.run(spec, shards=3), tmp_path, "s3") == reference

    def test_randomized_specs_match(self, tmp_path):
        """Random topology/seed/scheduler: sharded export == unsharded."""
        rng = np.random.default_rng(7)
        schedulers = ("idle", "random", "rule-based", "greedy-renewable")
        for trial in range(4):
            n_hubs = int(rng.integers(5, 14))
            overrides = {
                "fleet.n_hubs": n_hubs,
                "run.seed": int(rng.integers(0, 1000)),
                "scheduler.name": schedulers[int(rng.integers(len(schedulers)))],
                "run.storage": "windowed" if rng.random() < 0.5 else "dense",
            }
            if rng.random() < 0.7:
                overrides["grid.n_feeders"] = int(rng.integers(1, 4))
                overrides["grid.feeder_capacity_kw"] = float(
                    rng.uniform(100, 400)
                )
            spec = base_spec(**overrides)
            n_shards = int(rng.integers(2, 8))
            reference = export_bytes(api.run(spec), tmp_path, f"ref{trial}")
            sharded = export_bytes(
                api.run(spec, shards=n_shards), tmp_path, f"sh{trial}"
            )
            assert sharded == reference, (overrides, n_shards)

    def test_spec_run_shards_knob_drives_sharding(self, tmp_path):
        """run.shards in the spec shards too — and because the spec rides
        inside data["spec"], that export intentionally differs from the
        shards-argument one only in that embedded knob."""
        spec = base_spec()
        via_arg = api.run(spec, shards=2)
        via_knob = api.run(spec.with_overrides({"run.shards": 2}))
        assert via_arg.data["spec"]["run"]["shards"] == 1
        assert via_knob.data["spec"]["run"]["shards"] == 2
        assert via_arg.data["network_profit"] == via_knob.data["network_profit"]
        np.testing.assert_array_equal(
            via_arg.data["profit_per_hub"], via_knob.data["profit_per_hub"]
        )

    def test_cli_shards_flag_export_matches(self, tmp_path):
        argv = [
            "fleet",
            "--preset",
            "fleet-default",
            "--set",
            "fleet.n_hubs=8",
            "--set",
            "run.days=2",
        ]
        plain = tmp_path / "plain.json"
        sharded = tmp_path / "sharded.json"
        assert main([*argv, "--out", str(plain)]) == 0
        assert main([*argv, "--shards", "3", "--out", str(sharded)]) == 0
        assert plain.read_bytes() == sharded.read_bytes()

    def test_shard_telemetry_absorbed_in_order(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        api.run(base_spec(), telemetry=telemetry, shards=3)
        record = telemetry.to_dict()
        assert record["counters"]["shards"] == 3
        assert "shard-compile" in record["phases"]
        assert "shard-step" in record["phases"]
        assert "shard-merge" in record["phases"]

    def test_invalid_shards_rejected(self):
        with pytest.raises(ConfigError):
            api.run(base_spec(), shards=0)


# --------------------------------------------------------------------- #
# run_shard worker unit                                                   #
# --------------------------------------------------------------------- #


class TestRunShard:
    def test_rows_match_unsharded_book(self):
        """Shard rows equal the unsharded book's: plain, priced, windowed.

        The priced task carries the parent's discount rows sliced to the
        shard, as ``api.run(shards=N)`` ships them; a windowed book has no
        per-slot columns, so only its per-hub aggregates are compared.
        """
        idx = np.array([2, 5, 7])
        for overrides in (
            {},
            {"pricing.policy": "evening"},
            {"run.storage": "windowed"},
        ):
            spec = base_spec(**overrides)
            full = api.build(spec)
            full_book = full.execute()
            discount = None if full.pricing is None else full.pricing.discount[idx]
            result = run_shard(
                ShardTask(
                    spec_json=spec.to_json(),
                    hub_indices=idx,
                    shard_index=0,
                    discount_rows=discount,
                )
            )
            for name in (
                "profit_per_hub",
                "operating_cost_per_hub",
                "charging_revenue_per_hub",
                "unserved_per_hub_kwh",
            ):
                np.testing.assert_array_equal(
                    getattr(result.book, name),
                    getattr(full_book, name)[idx],
                    err_msg=f"{overrides}: {name}",
                )
            if spec.run.storage == "dense":
                np.testing.assert_array_equal(
                    result.book.grid_cost[:, :], full_book.grid_cost[idx, :]
                )

    def test_worker_failure_names_the_shard(self):
        spec_json = base_spec().to_json()
        # Hub 99 is out of range for the 10-hub fleet.
        tasks = [
            ShardTask(spec_json=spec_json, hub_indices=np.array(idx), shard_index=i)
            for i, idx in enumerate(([0, 1], [8, 99]))
        ]
        with pytest.raises(ParallelError) as excinfo:
            run_shards_parallel(tasks, 2)
        assert "shard 1 (2 hubs) failed in a worker" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, FleetError)
        trace = excinfo.value.job_traceback
        assert "in subgroup" in trace and "raise FleetError(" in trace


# --------------------------------------------------------------------- #
# Windowed cost book                                                      #
# --------------------------------------------------------------------- #


def run_pair(**overrides):
    spec = base_spec(
        **{"grid.n_feeders": 2, "grid.feeder_capacity_kw": 220.0, **overrides}
    )
    dense = api.build(spec).execute()
    windowed = api.build(spec.with_overrides({"run.storage": "windowed"})).execute()
    return dense, windowed


class TestWindowedBook:
    def test_aggregates_match_dense_to_1e_minus_9(self):
        dense, windowed = run_pair(**{"run.voll_per_kwh": 3.0})
        for name in (
            "profit_per_hub",
            "operating_cost_per_hub",
            "charging_revenue_per_hub",
            "voll_cost_per_hub",
            "unserved_per_hub_kwh",
            "feeder_import_kwh",
            "feeder_shortfall_kwh",
            "feeder_peak_import_kw",
        ):
            np.testing.assert_allclose(
                getattr(windowed, name),
                getattr(dense, name),
                rtol=1e-9,
                atol=1e-9,
                err_msg=name,
            )
        assert windowed.congested_feeder_slots == dense.congested_feeder_slots
        assert windowed.blackout_hub_slots == dense.blackout_hub_slots
        np.testing.assert_allclose(
            windowed.daily_rewards(), dense.daily_rewards(), rtol=1e-9, atol=1e-9
        )

    def test_memory_does_not_scale_with_horizon(self):
        short = api.build(
            base_spec(**{"run.storage": "windowed", "run.days": 2})
        ).simulation.book
        long = api.build(
            base_spec(**{"run.storage": "windowed", "run.days": 8})
        ).simulation.book
        dense_long = api.build(base_spec(**{"run.days": 8})).simulation.book
        # Ring is horizon-independent; only the (n_hubs, n_days) daily
        # fold grows, by a few hundred bytes here.
        assert long.nbytes - short.nbytes < 1024
        assert long.nbytes < 0.25 * dense_long.nbytes

    def test_per_slot_surfaces_refused(self):
        _, windowed = run_pair()
        with pytest.raises(FleetError, match="dense"):
            windowed.hub_book(0)
        with pytest.raises(FleetError, match="dense"):
            windowed.feeder_import_kw()
        with pytest.raises(FleetError, match="dense"):
            _ = windowed.grid_cost
        with pytest.raises(FleetError):
            windowed.daily_rewards(slots_per_day=12)

    def test_recent_serves_the_window(self):
        dense, windowed = run_pair()
        np.testing.assert_array_equal(
            windowed.recent("grid_cost", 12), dense.recent("grid_cost", 12)
        )
        np.testing.assert_array_equal(
            windowed.recent("action", 5), dense.recent("action", 5)
        )
        assert windowed.recent("grid_cost").shape[1] == windowed.window

    def test_windowed_merge_requires_feeder_closure(self):
        spec = base_spec(**{"run.storage": "windowed"})
        full = api.build(spec)
        horizon = full.simulation.horizon
        books, indices = [], []
        # Deliberately split the single unlimited feeder across shards.
        for idx in (np.arange(0, 5), np.arange(5, 10)):
            result = run_shard(
                ShardTask(
                    spec_json=spec.to_json(), hub_indices=idx, shard_index=0
                )
            )
            books.append(result.book)
            indices.append(idx)
        with pytest.raises(FleetError, match="feeder-closed"):
            FleetCostBook.merge_shards(
                books, indices, feeders=full.simulation.feeders
            )
        assert horizon == books[0].horizon


# --------------------------------------------------------------------- #
# RunSpec knobs                                                           #
# --------------------------------------------------------------------- #


class TestRunSpecKnobs:
    def test_defaults(self):
        run = RunSpec()
        assert run.shards == 1
        assert run.storage == "dense"

    def test_round_trip(self):
        spec = base_spec(**{"run.shards": 4, "run.storage": "windowed"})
        again = ScenarioSpec.from_json(spec.to_json())
        assert again.run.shards == 4
        assert again.run.storage == "windowed"

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_invalid_shards_rejected(self, bad):
        with pytest.raises(ConfigError):
            RunSpec(shards=bad)

    @pytest.mark.parametrize("bad", ["sparse", "", None, 3])
    def test_invalid_storage_rejected(self, bad):
        with pytest.raises(ConfigError):
            RunSpec(storage=bad)

    def test_dotted_overrides(self):
        spec = base_spec().with_overrides(
            {"run.shards": 3, "run.storage": "windowed"}
        )
        assert spec.run.shards == 3
        assert spec.run.storage == "windowed"
        payload = json.loads(spec.to_json())
        assert payload["run"]["shards"] == 3
        assert payload["run"]["storage"] == "windowed"
