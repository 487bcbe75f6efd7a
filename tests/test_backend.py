"""The battery-kernel backend: registry policy + cross-backend equivalence.

Two contracts live here. The *registry* contract: unknown backend names
fail loudly with the available list, the optional numba backend degrades
to the numpy reference with a logged warning (never a crash), and specs
carry ``run.backend`` through JSON and dotted overrides untouched. The
*equivalence* contract: pinning the numpy backend is the default engine
— running any preset with ``run.backend=numpy`` is **byte-identical** to
the unpinned run, sharded and parallel children re-resolve the parent's
backend from the spec JSON, and every backend that actually resolves on
this machine agrees with the numpy golden run (byte-identical for numpy
itself, atol 1e-9 for jitted backends — exercised for real on the CI leg
that installs numba).
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro import api
from repro.backend import (
    BACKEND_NAMES,
    NumpyOps,
    available_backends,
    get_backend,
)
from repro.backend.numba_backend import HAVE_NUMBA
from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.base import jsonable, write_results_json
from repro.spec import SweepSpec, available_presets, get_preset
from repro.spec.compiler import build
from repro.spec.scenario import BACKENDS, RunSpec, ScenarioSpec
from repro.telemetry import Telemetry


def base_spec(**overrides) -> ScenarioSpec:
    return get_preset("fleet-default").with_overrides(
        {"fleet.n_hubs": 8, "run.days": 2, **overrides}
    )


def export_bytes(result, tmp_path, name) -> bytes:
    path = tmp_path / f"{name}.json"
    write_results_json(result, path)
    return path.read_bytes()


def data_without_spec(result) -> dict:
    """The economics payload alone — the spec echoes the *requested*
    backend, so backend-pinned twins differ there by construction.
    ``jsonable`` is the ``--out`` serializer — comparing its output is
    comparing what the export would say."""
    data = dict(result.data)
    data.pop("spec")
    return jsonable(data)


# --------------------------------------------------------------------- #
# Registry                                                                #
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_default_is_numpy(self):
        ops = get_backend()
        assert isinstance(ops, NumpyOps)
        assert ops.name == "numpy"
        assert ops.jit is False

    def test_resolution_is_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_instances_pass_through(self):
        ops = get_backend("numpy")
        assert get_backend(ops) is ops

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigError, match="unknown array backend 'cupy'"):
            get_backend("cupy")
        with pytest.raises(ConfigError, match="numpy, numba"):
            get_backend("cupy")

    def test_available_backends_always_has_numpy(self):
        names = available_backends()
        assert "numpy" in names
        assert set(names) <= set(BACKEND_NAMES)

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed here")
    def test_missing_numba_falls_back_with_warning(self, capsys):
        """Asking for numba without the package warns and degrades —
        crashing would make ``run.backend`` pins non-portable."""
        ops = get_backend("numba")
        assert ops.name == "numpy"
        assert ops is get_backend("numpy")
        err = capsys.readouterr().err
        assert "[warning]" in err
        assert "numba backend unavailable" in err
        assert "falling back to numpy" in err
        assert "numba" not in available_backends()

    @pytest.mark.skipif(not HAVE_NUMBA, reason="needs the optional numba")
    def test_numba_resolves_when_installed(self):  # pragma: no cover
        ops = get_backend("numba")
        assert ops.name == "numba"
        assert ops.jit is True
        assert "numba" in available_backends()


# --------------------------------------------------------------------- #
# Spec plumbing                                                           #
# --------------------------------------------------------------------- #


class TestSpecBackendField:
    def test_default_backend_is_numpy(self):
        assert RunSpec().backend == "numpy"

    def test_spec_constant_mirrors_registry(self):
        """scenario.BACKENDS is kept engine-import-free; it must never
        drift from the registry's canonical tuple."""
        assert BACKENDS == BACKEND_NAMES

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown run backend 'cupy'"):
            RunSpec(backend="cupy")

    def test_json_round_trip_preserves_backend(self):
        spec = base_spec(**{"run.backend": "numba"})
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.run.backend == "numba"
        assert rebuilt == spec

    def test_dotted_override_sets_backend(self):
        spec = base_spec().with_overrides({"run.backend": "numba"})
        assert spec.run.backend == "numba"

    def test_dotted_override_validates(self):
        with pytest.raises(ConfigError, match="unknown run backend"):
            base_spec().with_overrides({"run.backend": "cupy"})

    def test_every_preset_defaults_to_numpy(self):
        for name in available_presets():
            assert get_preset(name).run.backend == "numpy"

    def test_compiled_engine_reports_resolved_backend(self):
        """A "numba" pin on a numba-less machine *resolves* to numpy:
        the simulation records what actually runs, the spec what was
        asked for."""
        spec = base_spec(**{"run.backend": "numba"})
        compiled = build(spec)
        resolved = get_backend("numba").name
        assert compiled.simulation.backend == resolved
        assert compiled.spec.run.backend == "numba"


# --------------------------------------------------------------------- #
# Cross-backend equivalence                                               #
# --------------------------------------------------------------------- #


def preset_for_equivalence(name: str) -> ScenarioSpec:
    """Every preset, shortened (2 days, 7-day/2-epoch pricing) to stay fast."""
    return get_preset(name).with_overrides(
        {"run.days": 2, "pricing.train_days": 7, "pricing.epochs": 2}
    )


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("preset", available_presets())
    def test_numpy_seam_is_byte_identical(self, tmp_path, preset):
        """Pinning backend="numpy" explicitly IS the default path: the
        golden ``--out`` export must match byte for byte."""
        spec = preset_for_equivalence(preset)
        golden = export_bytes(api.run(spec), tmp_path, "golden")
        pinned = export_bytes(
            api.run(spec.with_overrides({"run.backend": "numpy"})),
            tmp_path,
            "pinned",
        )
        assert pinned == golden

    @pytest.mark.parametrize("preset", available_presets())
    @pytest.mark.parametrize("backend", available_backends())
    def test_available_backends_agree_with_golden(self, preset, backend):
        """Every backend that resolves here reproduces the numpy golden
        run: numpy byte-identically, jitted backends within atol 1e-9.

        Locally this usually covers numpy only; the CI leg that installs
        numba runs the full matrix.
        """
        spec = preset_for_equivalence(preset)
        golden = data_without_spec(api.run(spec))
        other = data_without_spec(
            api.run(spec.with_overrides({"run.backend": backend}))
        )
        assert other.keys() == golden.keys()
        jit = get_backend(backend).jit
        for key, expected in golden.items():
            actual = other[key]
            if isinstance(expected, (list, float, int)) and not isinstance(
                expected, bool
            ):
                if jit:
                    np.testing.assert_allclose(
                        np.asarray(actual, dtype=float),
                        np.asarray(expected, dtype=float),
                        atol=1e-9,
                        rtol=0.0,
                        err_msg=f"{preset}/{backend}: {key}",
                    )
                else:
                    assert actual == expected, f"{preset}/{backend}: {key}"
            else:
                assert actual == expected, f"{preset}/{backend}: {key}"

    def test_numba_pin_falls_back_to_numpy_results(self, tmp_path, capsys):
        """On a numba-less machine a "numba" spec runs the numpy
        reference — economics byte-identical, only the echoed spec
        differs."""
        if HAVE_NUMBA:  # pragma: no cover - exercised on the numba CI leg
            pytest.skip("fallback only happens without numba")
        spec = base_spec()
        golden = api.run(spec)
        pinned = api.run(spec.with_overrides({"run.backend": "numba"}))
        assert "falling back to numpy" in capsys.readouterr().err
        assert data_without_spec(pinned) == data_without_spec(golden)
        assert pinned.data["spec"]["run"]["backend"] == "numba"


# --------------------------------------------------------------------- #
# Inheritance: shards, sweeps, pickling                                   #
# --------------------------------------------------------------------- #


class TestBackendInheritance:
    def test_sharded_run_matches_unsharded_per_backend(self, tmp_path):
        """Shard workers rebuild from the spec JSON, so they re-resolve
        the parent's backend; the merged export stays byte-identical."""
        for backend in available_backends():
            spec = base_spec(**{"run.backend": backend})
            whole = export_bytes(api.run(spec), tmp_path, f"whole-{backend}")
            sharded = export_bytes(
                api.run(spec, shards=2), tmp_path, f"sharded-{backend}"
            )
            assert sharded == whole

    def test_sharded_numba_fallback_matches(self, tmp_path):
        spec = base_spec(**{"run.backend": "numba"})
        whole = export_bytes(api.run(spec), tmp_path, "whole")
        sharded = export_bytes(api.run(spec, shards=2), tmp_path, "sharded")
        assert sharded == whole

    def test_parallel_sweep_inherits_backend(self, tmp_path):
        """Sweep workers compile from spec JSON too — a backend-pinned
        base must come back byte-identical to the serial executor."""
        sweep = SweepSpec(
            base=base_spec(**{"run.backend": "numba"}),
            parameters={"run.seed": (0, 1)},
            name="backend-inherit",
        )
        serial = api.run_sweep(sweep)
        parallel = api.run_sweep(sweep, jobs=2)
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        write_results_json(serial, serial_path)
        write_results_json(parallel, parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        for result in serial:
            assert result.data["spec"]["run"]["backend"] == "numba"

    def test_cost_book_pickle_round_trip(self):
        """Books cross process boundaries (shard merge) by pickle; the
        clone books the same run column for column."""
        book = build(base_spec()).execute()
        clone = pickle.loads(pickle.dumps(book))
        np.testing.assert_array_equal(clone.daily_rewards(), book.daily_rewards())
        for name in ("action", "blackout", *book._FLOAT_COLUMNS):
            np.testing.assert_array_equal(
                getattr(clone, name), getattr(book, name), err_msg=name
            )


# --------------------------------------------------------------------- #
# CLI + telemetry surfaces                                                #
# --------------------------------------------------------------------- #


class TestCliBackendFlag:
    def test_backend_flag_matches_default_export(self, tmp_path):
        argv = [
            "fleet",
            "--preset",
            "paper-default",
            "--set",
            "run.days=2",
            "--set",
            "fleet.n_hubs=4",
        ]
        default_path = tmp_path / "default.json"
        flagged_path = tmp_path / "flagged.json"
        assert main([*argv, "--out", str(default_path)]) == 0
        assert (
            main([*argv, "--backend", "numpy", "--out", str(flagged_path)]) == 0
        )
        assert flagged_path.read_bytes() == default_path.read_bytes()

    def test_backend_flag_is_spec_override_sugar(self, tmp_path):
        """``--backend numba`` must equal ``--set run.backend=numba``."""
        argv = [
            "fleet",
            "--preset",
            "paper-default",
            "--set",
            "run.days=2",
            "--set",
            "fleet.n_hubs=4",
        ]
        flag_path = tmp_path / "flag.json"
        dotted_path = tmp_path / "dotted.json"
        assert main([*argv, "--backend", "numba", "--out", str(flag_path)]) == 0
        assert (
            main(
                [*argv, "--set", "run.backend=numba", "--out", str(dotted_path)]
            )
            == 0
        )
        assert flag_path.read_bytes() == dotted_path.read_bytes()
        doc = json.loads(flag_path.read_text())
        assert doc["data"]["spec"]["run"]["backend"] == "numba"

    def test_backend_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--backend", "cupy"])
        assert "invalid choice" in capsys.readouterr().err


class TestTelemetryBackendStamp:
    def test_meta_records_resolved_backend(self):
        telemetry = Telemetry()
        api.run(base_spec(), telemetry=telemetry)
        assert telemetry.to_dict()["meta"]["backend"] == "numpy"

    def test_numba_fallback_stamps_what_ran(self):
        """The fingerprint records the backend that *executed*, not the
        one the spec asked for."""
        telemetry = Telemetry()
        api.run(base_spec(**{"run.backend": "numba"}), telemetry=telemetry)
        assert telemetry.to_dict()["meta"]["backend"] == get_backend("numba").name

    def test_no_engine_means_no_backend(self):
        assert Telemetry().to_dict()["meta"]["backend"] is None
