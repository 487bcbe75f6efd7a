"""``repro.rl`` — ECT-DRL: PPO battery scheduling plus baselines.

Implements §IV-B of the paper: the Eq. 24 state and the 3-action battery
environment, batched over N hubs on the vectorized engine
(:mod:`.fleet_env`; the paper's one-hub studies run it at ``n_hubs=1``),
the PPO learner with the Eq. 25 clipped surrogate (:mod:`.ppo`) and its
training/evaluation loops (:mod:`.training`), the
:class:`~repro.hub.simulation.HubSimulation` reference policies
(:mod:`.schedulers`; the batched baselines live in
:mod:`repro.fleet.schedulers`), and a clairvoyant DP oracle used by the
ablations (:mod:`.dp_oracle`).
"""

from .buffer import FleetRolloutBuffer
from .dp_oracle import OracleResult, optimal_schedule
from .fleet_env import ACTION_TO_SBP, FEEDER_OBS_CLIP, N_ACTIONS, EnvConfig, FleetEnv
from .networks import ActorCritic
from .ppo import PpoAgent, PpoConfig, UpdateStats
from .schedulers import (
    GreedyRenewableScheduler,
    IdleScheduler,
    RandomScheduler,
    RuleBasedScheduler,
    Scheduler,
)
from .spaces import Box, Discrete
from .training import (
    FleetTrainingHistory,
    evaluate_daily_rewards,
    evaluate_fleet_agent,
    train_fleet_ppo,
)

__all__ = [
    "ACTION_TO_SBP",
    "ActorCritic",
    "Box",
    "Discrete",
    "EnvConfig",
    "FEEDER_OBS_CLIP",
    "FleetEnv",
    "FleetRolloutBuffer",
    "FleetTrainingHistory",
    "GreedyRenewableScheduler",
    "IdleScheduler",
    "N_ACTIONS",
    "OracleResult",
    "PpoAgent",
    "PpoConfig",
    "RandomScheduler",
    "RuleBasedScheduler",
    "Scheduler",
    "UpdateStats",
    "evaluate_daily_rewards",
    "evaluate_fleet_agent",
    "optimal_schedule",
    "train_fleet_ppo",
]
