"""``repro.spec`` — declarative, serializable scenario descriptions.

Scenarios are *data*: a :class:`ScenarioSpec` tree of frozen dataclasses
(fleet composition with per-group overrides, feeder topology, scheduler,
blackout process, run shape) that round-trips through JSON bit-for-bit
and compiles deterministically into the scalar or batched engines.

Layout
------
``scenario``
    The spec tree (``ScenarioSpec`` and its parts) plus dotted-path
    overrides (``apply_overrides`` — the ``--set key=value`` language).
``compiler``
    ``build(spec)`` → :class:`~repro.spec.compiler.CompiledScenario`
    (scenarios, batched engine, scheduler) and the run-scale rule.
``presets``
    Named curated specs (``paper-default``, ``congested-city``, …).
``sweep``
    ``SweepSpec``: base spec × parameter grid → runnable jobs.

The user-facing facade lives in :mod:`repro.api`.
"""

from .compiler import (
    CompiledScenario,
    FleetAssembly,
    build,
    build_fleet_env,
    make_scheduler,
    ppo_config_from_spec,
)
from .presets import PRESETS, available_presets, get_preset, verify_roundtrips
from .scenario import (
    PRICING_POLICIES,
    BlackoutSpec,
    FleetSpec,
    GridSpec,
    HubGroupSpec,
    PricingSpec,
    RlSpec,
    RunSpec,
    ScenarioSpec,
    SchedulerSpec,
    apply_overrides,
    parse_assignments,
    parse_override_value,
)
from .sweep import SweepJob, SweepSpec

__all__ = [
    "PRESETS",
    "PRICING_POLICIES",
    "BlackoutSpec",
    "CompiledScenario",
    "FleetAssembly",
    "FleetSpec",
    "GridSpec",
    "HubGroupSpec",
    "PricingSpec",
    "RlSpec",
    "RunSpec",
    "ScenarioSpec",
    "SchedulerSpec",
    "SweepJob",
    "SweepSpec",
    "apply_overrides",
    "available_presets",
    "build",
    "build_fleet_env",
    "get_preset",
    "make_scheduler",
    "parse_assignments",
    "parse_override_value",
    "ppo_config_from_spec",
    "verify_roundtrips",
]
