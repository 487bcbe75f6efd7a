"""Tests for the experiment registry, fast runners, and the CLI."""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigError, ExperimentError
from repro.experiments import available_experiments, run_experiment
from repro.experiments.base import ExperimentResult, scaled, series_line

ALL_IDS = {
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig11",
    "fig12",
    "fig13",
    "table2",
    "table3",
    "abl-sched",
    "abl-cbp",
    "abl-loss",
    "fleet",
    "fleet-grid",
    "fleet-price",
    "train-fleet",
}


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert set(available_experiments()) == ALL_IDS

    def test_unknown_id_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")


class TestBaseHelpers:
    def test_scaled(self):
        assert scaled(100, 0.5) == 50
        assert scaled(100, 0.001, minimum=3) == 3
        with pytest.raises(ConfigError):
            scaled(100, 0.0)

    def test_series_line_wraps(self):
        lines = series_line("x", range(25), per_line=10)
        assert lines[0] == "x:"
        assert len(lines) == 4

    def test_result_rendering(self):
        result = ExperimentResult("idx", "title", lines=["a", "b"])
        text = result.rendered()
        assert text.splitlines() == ["== idx: title ==", "a", "b"]


class TestFastRunners:
    """Smoke-run the cheap experiments end to end at tiny scale."""

    def test_fig1(self):
        result = run_experiment("fig1", scale=0.2)
        assert result.data["ratio"] > 1.0

    def test_fig2(self):
        result = run_experiment("fig2")
        assert len(result.data["pv_w"]) == 48
        assert max(result.data["total_w"]) > 0

    def test_fig3(self):
        result = run_experiment("fig3", scale=0.05)
        assert len(result.data["counts"]) == 24
        assert result.data["n_sessions"] > 0

    def test_fig4(self):
        result = run_experiment("fig4", scale=0.3)
        assert len(result.data["cells"]) == 2

    def test_fig5(self):
        result = run_experiment("fig5")
        assert result.data["correlation"] > 0.3

    def test_determinism_same_seed(self):
        a = run_experiment("fig5", seed=3)
        b = run_experiment("fig5", seed=3)
        assert a.data["correlation"] == b.data["correlation"]

    def test_different_seed_differs(self):
        a = run_experiment("fig5", seed=3)
        b = run_experiment("fig5", seed=4)
        assert a.data["correlation"] != b.data["correlation"]


class TestSchedulerClaims:
    """abl-sched states its "dp-oracle >= ppo > heuristics" claim as a
    verdict computed from the rows, never as unconditional prose."""

    ROWS = {
        "dp-oracle (bound)": 244.6,
        "greedy-renewable": 231.8,
        "idle": 228.9,
        "ppo (ECT-DRL)": 224.7,
        "random": 213.3,
    }

    def test_ppo_losing_to_a_heuristic_fails_the_claim(self):
        from repro.experiments.ablations import scheduler_claims

        claims, lines = scheduler_claims(self.ROWS)
        assert claims == {"dp-oracle >= ppo": True, "ppo > heuristics": False}
        assert lines == [
            "claim dp-oracle >= ppo: holds (dp-oracle 244.6, ppo 224.7)",
            "claim ppo > heuristics: fails "
            "(ppo 224.7, best heuristic greedy-renewable 231.8)",
        ]

    def test_ppo_above_every_heuristic_holds(self):
        from repro.experiments.ablations import scheduler_claims

        rows = dict(self.ROWS, **{"ppo (ECT-DRL)": 240.0})
        claims, lines = scheduler_claims(rows)
        assert all(claims.values())
        assert lines[1].startswith("claim ppo > heuristics: holds")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig13" in out

    def test_run_fig5(self, capsys):
        assert main(["run", "fig5"]) == 0
        assert "correlation" in capsys.readouterr().out

    def test_run_with_scale_seed(self, capsys):
        assert main(["run", "fig1", "--scale", "0.2", "--seed", "7"]) == 0
        assert "road" in capsys.readouterr().out

    def test_setup_py_installs_the_ect_hub_command(self):
        """``setup.py`` names the package and maps ``ect-hub`` to
        ``repro.cli:main``, read in a subprocess without installing."""
        root = Path(__file__).resolve().parents[1]
        run = functools.partial(subprocess.check_output, cwd=root, text=True)
        assert run([sys.executable, "setup.py", "--name"]).strip() == "ect-hub"
        capture = (
            "import json, runpy, setuptools; kw = {}; "
            "setuptools.setup = lambda **k: kw.update(k); "
            "runpy.run_path('setup.py'); print(json.dumps(kw['entry_points']))"
        )
        (script,) = json.loads(run([sys.executable, "-c", capture]))["console_scripts"]
        name, value = (part.strip() for part in script.split("="))
        assert name == "ect-hub"
        assert EntryPoint(name, value, "console_scripts").load() is main

    def test_bad_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "bogus"])
