"""``train-fleet`` — PPO over the batched fleet environment.

The ROADMAP's fleet-RL item: one parameter-shared ECT-DRL agent trained
on ``(n_hubs,)`` action batches through
:class:`~repro.rl.fleet_env.FleetEnv` (every slot is one network forward
for the whole fleet, every episode one PPO update over the
``episode x hubs`` rollout). The report compares the untrained and
trained policies on identical evaluation episodes and tracks the
training-loop throughput. Exposed on the CLI as ``ect-hub train-fleet``.

The runner is the ``train-fleet`` preset, whose ``rl`` section
(:class:`~repro.spec.scenario.RlSpec`) carries the episode shape and PPO
hyperparameters, with ``run.scale`` and ``run.seed`` applied and
executed by :func:`repro.api.train_fleet`.
"""

from __future__ import annotations

from .base import ExperimentResult


def run(*, scale: float = 1.0, seed: int = 0, telemetry=None) -> ExperimentResult:
    """Train and evaluate fleet PPO on the ``train-fleet`` preset.

    ``scale`` shrinks the fleet, the horizon, and the episode schedule
    together (the compiler's run-scale rule). ``telemetry`` forwards a
    :class:`~repro.telemetry.session.Telemetry` session to
    ``api.train_fleet``.
    """
    # Local import: repro.api pulls experiments.base, so importing it at
    # module level would cycle through the experiment registry.
    from .. import api

    spec = api.resolve_spec("train-fleet", scale=scale, seed=seed)
    return api.train_fleet(spec, telemetry=telemetry)
