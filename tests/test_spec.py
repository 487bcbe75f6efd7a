"""Tests for the declarative spec layer: round-trips, overrides, sweeps,
the compiler, presets, the VoLL penalty, and the repro.api facade.

The load-bearing guarantees:

* every preset survives ``to_dict → json → from_dict`` bit-identically
  and still *builds*;
* unknown keys anywhere in a spec payload raise :class:`ConfigError`;
* ``fleet``/``train-fleet``/``price`` without ``--preset`` run their
  default preset, byte-identical to naming it (one run-scale rule);
* a heterogeneous-fleet spec (per-hub battery/feeder overrides) runs
  through ``repro.api.run`` with results reproduced byte-identically from
  its serialized JSON.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import api
from repro.energy.battery import BatteryConfig
from repro.errors import ConfigError
from repro.experiments.base import jsonable
from repro.spec import (
    BlackoutSpec,
    FleetSpec,
    GridSpec,
    HubGroupSpec,
    RunSpec,
    ScenarioSpec,
    SchedulerSpec,
    SweepSpec,
    apply_overrides,
    available_presets,
    build,
    get_preset,
    parse_assignments,
    verify_roundtrips,
)

#: A tiny heterogeneous scenario reused across tests (fast to run).
HETERO_SPEC = ScenarioSpec(
    name="hetero-test",
    fleet=FleetSpec(
        groups=(
            HubGroupSpec(count=2, battery_scale=0.5, feeder=1),
            HubGroupSpec(count=2),
            HubGroupSpec(
                count=2,
                kind="rural",
                battery=BatteryConfig(capacity_kwh=400.0, charge_rate_kw=80.0),
            ),
        )
    ),
    grid=GridSpec(n_feeders=2, feeder_capacity_kw=180.0),
    scheduler=SchedulerSpec(name="rule-based"),
    blackout=BlackoutSpec(outage_probability_per_hour=0.01),
    run=RunSpec(days=3, seed=7, voll_per_kwh=1.5),
)


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("name", available_presets())
    def test_every_preset_round_trips_through_json(self, name):
        spec = get_preset(name)
        rebuilt = ScenarioSpec.from_json(json.dumps(spec.to_dict()))
        assert rebuilt == spec

    def test_verify_roundtrips_reports_all_presets(self):
        assert verify_roundtrips() == available_presets()

    def test_heterogeneous_spec_round_trips(self):
        rebuilt = ScenarioSpec.from_json(HETERO_SPEC.to_json())
        assert rebuilt == HETERO_SPEC
        assert rebuilt.fleet.groups[0].battery_scale == 0.5
        assert isinstance(rebuilt.fleet.groups[2].battery, BatteryConfig)

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "spec.json"
        HETERO_SPEC.save(path)
        assert ScenarioSpec.load(path) == HETERO_SPEC

    def test_sweep_round_trips(self):
        sweep = SweepSpec(
            base=HETERO_SPEC,
            parameters={"run.seed": (0, 1), "grid.feeder_capacity_kw": (100.0, 50.0)},
        )
        rebuilt = SweepSpec.from_dict(
            json.loads(json.dumps(sweep.to_dict()))
        )
        assert rebuilt == sweep


class TestUnknownKeys:
    def test_top_level_unknown_key_raises(self):
        payload = ScenarioSpec().to_dict()
        payload["n_hubs"] = 4
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec.from_dict(payload)

    def test_nested_unknown_key_raises(self):
        payload = ScenarioSpec().to_dict()
        payload["grid"]["feeder_capacity"] = 100.0
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec.from_dict(payload)

    def test_group_level_unknown_key_raises(self):
        payload = json.loads(HETERO_SPEC.to_json())
        payload["fleet"]["groups"][0]["battery_size"] = 2.0
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec.from_dict(payload)


class TestValidation:
    def test_bad_scheduler_name(self):
        with pytest.raises(ConfigError, match="unknown fleet scheduler"):
            SchedulerSpec(name="nope")

    def test_bad_allocation(self):
        with pytest.raises(ConfigError, match="allocation"):
            GridSpec(allocation="first-come")

    def test_profile_requires_capacity(self):
        with pytest.raises(ConfigError, match="capacity_profile"):
            GridSpec(capacity_profile=(1.0, 0.5))

    def test_group_counts_must_match_n_hubs(self):
        with pytest.raises(ConfigError, match="group counts"):
            FleetSpec(n_hubs=5, groups=(HubGroupSpec(count=2),))

    def test_battery_override_exclusivity(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            HubGroupSpec(battery=BatteryConfig(), battery_scale=2.0)

    def test_negative_voll_rejected(self):
        with pytest.raises(ConfigError, match="voll_per_kwh"):
            RunSpec(voll_per_kwh=-1.0)

    def test_non_finite_run_knobs_rejected(self):
        with pytest.raises(ConfigError, match="voll_per_kwh"):
            RunSpec(voll_per_kwh=float("nan"))
        with pytest.raises(ConfigError, match="scale"):
            RunSpec(scale=float("inf"))
        with pytest.raises(ConfigError, match="feeder_capacity_kw"):
            GridSpec(feeder_capacity_kw=float("nan"))

    def test_scalar_costbook_rejects_non_finite_voll(self):
        from repro.errors import ReproError
        from repro.hub.costs import CostBook

        with pytest.raises(ReproError, match="voll_per_kwh"):
            CostBook(voll_per_kwh=float("nan"))

    def test_scheduler_rejects_inapplicable_quantiles(self):
        with pytest.raises(ConfigError, match="does not take"):
            SchedulerSpec(name="idle", expensive_quantile=0.9)
        with pytest.raises(ConfigError, match="does not take"):
            SchedulerSpec(name="greedy-renewable", cheap_quantile=0.1)
        from repro.fleet import make_fleet_scheduler

        with pytest.raises(ConfigError, match="does not take"):
            make_fleet_scheduler("random", n_hubs=2, cheap_quantile=0.1)

    def test_feeder_out_of_range_fails_at_build(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(groups=(HubGroupSpec(count=4, feeder=3),)),
            grid=GridSpec(n_feeders=2),
            run=RunSpec(days=1),
        )
        with pytest.raises(ConfigError, match="feeder 3 out of range"):
            build(spec)


INT_FIELDS = (
    "fleet.groups.0.count fleet.groups.0.n_base_stations fleet.groups.0.feeder "
    "fleet.n_hubs grid.n_feeders blackout.recovery_time_h pricing.train_days "
    "pricing.epochs pricing.batch_size rl.episode_days rl.window_h "
    "rl.train_episodes rl.eval_episodes rl.update_epochs rl.batch_size "
    "run.days run.shards"
).split()


@pytest.mark.parametrize("path", INT_FIELDS)
def test_int_fields_reject_bools_fractions_and_strings(tmp_path, capsys, path):
    """A bool, fraction, string or negative int in an int field is a
    ConfigError naming the field, from ``--set`` and from a spec file
    alike (a fraction would be exported as given but simulated rounded)."""
    from repro.cli import main

    base, bad = tmp_path / "base.json", tmp_path / "bad.json"
    HETERO_SPEC.save(base)
    *parents, leaf = path.split(".")
    for raw, value in (("true", True), ("1.5", 1.5), ("abc", "abc"), ("-1", -1)):
        assert main(["fleet", "--spec", str(base), "--set", f"{path}={raw}"]) == 1
        assert f"{leaf} must be an integer" in capsys.readouterr().err
        payload = node = json.loads(HETERO_SPEC.to_json())
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[leaf] = value
        bad.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=f"{leaf} must be an integer"):
            ScenarioSpec.load(bad)


FLOAT_FIELDS = (
    "fleet.urban_fraction fleet.c_bp_per_slot "
    "blackout.outage_probability_per_hour pricing.discount_level "
    "pricing.budget_fraction pricing.learning_rate "
    "pricing.always_avoidance_threshold pricing.congestion_weight "
    "rl.reward_scale rl.learning_rate rl.weight_decay rl.gamma "
    "rl.gae_lambda rl.clip_epsilon rl.value_coef rl.entropy_coef "
    "rl.max_grad_norm run.scale run.initial_soc_fraction run.voll_per_kwh"
).split()


@pytest.mark.parametrize("path", FLOAT_FIELDS)
def test_float_fields_reject_bools_non_finite_and_strings(capsys, path):
    """A bool, NaN, inf or string in a real-valued field is a ConfigError
    naming the field — never a silent NaN run or a raw comparison
    TypeError — from ``--set`` and from the library alike."""
    from repro.cli import main

    leaf = path.rsplit(".", 1)[-1]
    for value in (True, float("nan"), float("inf"), "fast"):
        with pytest.raises(ConfigError, match=f"{leaf} must be a finite number"):
            get_preset("fleet-price").with_overrides({path: value})
    for raw in ("true", "NaN", "fast"):
        assert main(["price", "--set", f"{path}={raw}"]) == 1
        assert f"{leaf} must be a finite number" in capsys.readouterr().err


class TestOverrides:
    def test_dotted_leaf_override(self):
        spec = ScenarioSpec().with_overrides({"run.seed": 9})
        assert spec.run.seed == 9

    def test_int_widens_to_float(self):
        spec = ScenarioSpec().with_overrides({"run.scale": 2})
        assert spec.run.scale == 2.0 and isinstance(spec.run.scale, float)

    def test_group_index_override(self):
        spec = HETERO_SPEC.with_overrides({"fleet.groups.0.battery_scale": 0.25})
        assert spec.fleet.groups[0].battery_scale == 0.25
        assert HETERO_SPEC.fleet.groups[0].battery_scale == 0.5  # frozen base

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec().with_overrides({"grid.capacity": 1.0})

    def test_bad_index_raises(self):
        with pytest.raises(ConfigError, match="out of range"):
            HETERO_SPEC.with_overrides({"fleet.groups.9.count": 1})

    def test_validation_reruns_on_override(self):
        with pytest.raises(ConfigError, match="n_feeders"):
            ScenarioSpec().with_overrides({"grid.n_feeders": 0})

    def test_dict_payload_rebuilds_nested_config(self):
        """A --set JSON object lands as a real config, not a raw dict."""
        spec = HETERO_SPEC.with_overrides(
            {"fleet.groups.1.battery": {"capacity_kwh": 333.0}}
        )
        group = spec.fleet.groups[1]
        assert isinstance(group.battery, BatteryConfig)
        assert group.battery.capacity_kwh == 333.0
        # The documented invariant survives the override path too.
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert build(spec).simulation.params.capacity_kwh[2] == 333.0

    def test_dict_payload_replaces_whole_group(self):
        spec = HETERO_SPEC.with_overrides(
            {"fleet.groups.1": {"count": 2, "battery_scale": 3.0}}
        )
        assert spec.fleet.groups[1] == HubGroupSpec(count=2, battery_scale=3.0)

    def test_parse_assignments(self):
        overrides = parse_assignments(
            ["run.seed=3", "grid.feeder_capacity_kw=400", "fleet.n_hubs=null",
             "scheduler.name=idle"]
        )
        assert overrides == {
            "run.seed": 3,
            "grid.feeder_capacity_kw": 400,
            "fleet.n_hubs": None,
            "scheduler.name": "idle",
        }

    def test_parse_assignment_requires_equals(self):
        with pytest.raises(ConfigError, match="key.path=value"):
            parse_assignments(["run.seed"])


class TestSweep:
    def test_grid_expansion_order(self):
        sweep = SweepSpec(
            base=ScenarioSpec(run=RunSpec(days=1)),
            parameters={"run.seed": (0, 1), "run.days": (1, 2, 3)},
        )
        assert sweep.n_jobs == 6
        jobs = sweep.jobs()
        assert [job.overrides["run.seed"] for job in jobs] == [0, 0, 0, 1, 1, 1]
        assert jobs[4].spec.run.days == 2 and jobs[4].spec.run.seed == 1

    def test_typo_key_fails_at_construction(self):
        with pytest.raises(ConfigError, match="unknown key"):
            SweepSpec(base=ScenarioSpec(), parameters={"run.sed": (0, 1)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="no values"):
            SweepSpec(base=ScenarioSpec(), parameters={"run.seed": ()})

    def test_run_sweep_tags_results(self):
        sweep = SweepSpec(
            base=ScenarioSpec(
                fleet=FleetSpec(n_hubs=4), run=RunSpec(days=1)
            ),
            parameters={"run.seed": (0, 1)},
        )
        results = api.run_sweep(sweep)
        assert [r.experiment_id for r in results] == ["fleet[0]", "fleet[1]"]
        assert results[1].data["sweep_overrides"] == {"run.seed": 1}
        assert results[0].data["network_profit"] != results[1].data["network_profit"]


class TestCompiler:
    def test_run_scale_applies_to_groups(self):
        spec = HETERO_SPEC.with_overrides({"run.scale": 0.5})
        compiled = build(spec)
        assert compiled.n_hubs == 3  # 1 + 1 + 1 after per-group scaling

    def test_heterogeneous_battery_compilation(self):
        compiled = build(HETERO_SPEC)
        caps = compiled.simulation.params.capacity_kwh
        assert compiled.n_hubs == 6
        # Group 0: half-size packs; group 2: explicit 400 kWh packs.
        assert np.allclose(caps[0:2], caps[2:4] * 0.5)
        assert np.allclose(caps[4:6], 400.0)
        # Group 0 pinned to feeder 1; others round-robined over 2 feeders.
        assert compiled.simulation.feeders.assignment.tolist() == [1, 1, 0, 1, 0, 1]
        # Kind override reaches the generated sites.
        assert [s.site.kind for s in compiled.scenarios[4:6]] == ["rural", "rural"]

    def test_heterogeneous_run_reproduced_from_json(self):
        """Acceptance: serialized spec ⇒ byte-identical results."""
        direct = api.run(HETERO_SPEC)
        replayed = api.run(ScenarioSpec.from_json(HETERO_SPEC.to_json()))
        direct_bytes = json.dumps(jsonable(direct.data), sort_keys=True)
        replayed_bytes = json.dumps(jsonable(replayed.data), sort_keys=True)
        assert direct_bytes == replayed_bytes

    def test_capacity_profile_tiles_over_horizon(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(n_hubs=4),
            grid=GridSpec(
                n_feeders=2,
                feeder_capacity_kw=100.0,
                capacity_profile=(1.0, 0.5),
            ),
            run=RunSpec(days=1),
        )
        feeders = build(spec).simulation.feeders
        assert feeders.import_capacity_kw.shape == (2, 24)
        assert feeders.import_capacity_kw[0, :4].tolist() == [100.0, 50.0, 100.0, 50.0]

    def test_preset_name_accepted_by_api(self):
        compiled = api.build("paper-default")
        assert compiled.n_hubs == 12
        with pytest.raises(ConfigError, match="unknown preset"):
            api.build("no-such-preset")

    def test_scheduler_quantiles_flow_through(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(n_hubs=4),
            scheduler=SchedulerSpec(
                name="rule-based", cheap_quantile=0.1, expensive_quantile=0.9
            ),
            run=RunSpec(days=1),
        )
        scheduler = build(spec).scheduler
        assert scheduler.cheap_quantile == 0.1
        assert scheduler.expensive_quantile == 0.9


class TestVoll:
    def test_voll_charges_unserved_energy(self):
        base = ScenarioSpec(
            fleet=FleetSpec(n_hubs=4),
            blackout=BlackoutSpec(outage_probability_per_hour=0.05),
            run=RunSpec(days=3),
        )
        free = build(base).execute()
        priced = build(base.with_overrides({"run.voll_per_kwh": 2.0})).execute()
        assert free.total_unserved_kwh > 0.0
        assert priced.voll_cost == pytest.approx(2.0 * priced.total_unserved_kwh)
        assert priced.profit == pytest.approx(
            free.profit - 2.0 * free.total_unserved_kwh
        )

    def test_voll_zero_is_the_paper_objective(self):
        book = build(
            ScenarioSpec(fleet=FleetSpec(n_hubs=4), run=RunSpec(days=2))
        ).execute()
        assert book.voll_cost == 0.0
        assert book.profit == pytest.approx(
            book.charging_revenue - book.operating_cost
        )

    def test_daily_rewards_include_voll(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(n_hubs=4),
            blackout=BlackoutSpec(outage_probability_per_hour=0.05),
            run=RunSpec(days=3, voll_per_kwh=2.0),
        )
        book = build(spec).execute()
        assert book.daily_rewards().sum() == pytest.approx(book.profit)

    def test_hub_book_carries_voll(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(n_hubs=4),
            blackout=BlackoutSpec(outage_probability_per_hour=0.05),
            run=RunSpec(days=3, voll_per_kwh=2.0),
        )
        book = build(spec).execute()
        scalar = book.hub_book(0)
        assert scalar.voll_per_kwh == 2.0
        assert scalar.profit == pytest.approx(float(book.profit_per_hub[0]))


class TestCliSpecMode:
    def test_fleet_preset_flag(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--preset", "paper-default", "--set", "run.days=1"]) == 0
        out = capsys.readouterr().out
        assert "scenario=paper-default" in out and "12 hubs x 1 days" in out

    def test_fleet_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "spec.json"
        HETERO_SPEC.with_overrides({"run.days": 1}).save(path)
        assert main(["fleet", "--spec", str(path)]) == 0
        assert "6 hubs x 1 days" in capsys.readouterr().out

    def test_fleet_rejects_spec_plus_preset(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--preset", "a", "--spec", "b.json"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_presets_listing_and_show(self, capsys):
        from repro.cli import main

        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "congested-city" in out and "paper-default" in out
        assert main(["presets", "--show", "congested-city"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert ScenarioSpec.from_dict(shown) == get_preset("congested-city")

    def test_presets_check(self, capsys):
        from repro.cli import main

        assert main(["presets", "--check"]) == 0
        assert "round-trip and compile" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "sweep",
                    "--preset",
                    "paper-default",
                    "--set",
                    "run.days=1",
                    "--set",
                    "fleet.n_hubs=4",
                    "--param",
                    "run.seed=0,1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "2 jobs" in printed
        payload = json.loads(out.read_text())
        assert len(payload) == 2
        assert payload[0]["experiment_id"] == "fleet[0]"
        assert payload[1]["data"]["sweep_overrides"] == {"run.seed": 1}

    def test_sweep_requires_one_source(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--param", "run.seed=0,1"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_sweep_rejects_repeated_param(self, capsys):
        from repro.cli import main

        argv = ["sweep", "--preset", "fleet-default",
                "--param", "run.seed=1,2", "--param", "run.seed=3"]
        assert main(argv) == 1
        assert "--param run.seed is given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("command, preset, extra", [
        ("fleet", "fleet-default", []),
        ("train-fleet", "train-fleet", []),
        ("price", "fleet-price", ["--methods", "none,evening,ours"]),
    ])
    def test_default_preset_matches_explicit_preset(
        self, tmp_path, command, preset, extra
    ):
        """A bare ``--scale`` run is its default preset at that run.scale."""
        from repro.cli import main

        paths = [tmp_path / "bare.json", tmp_path / "explicit.json"]
        for path, named in zip(paths, ([], ["--preset", preset])):
            argv = [command, *named, "--scale", "0.1", *extra, "--out", str(path)]
            assert main(argv) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
