"""Outside-in tracing: wrap each layer's public functions from one table.

The traced run installs :data:`HOOKS`, runs the workload, and removes the
hooks again; timed runs never install them. Every wrapped call records a
span ``[name, start, end, parent, run_id, outermost]`` in memory; the
per-layer numbers are derived from those spans afterwards:

* ``calls`` counts a layer's outermost spans (a call into the same layer
  from inside it, such as ``AdamW.step`` reaching ``Adam.step``, is not a
  second call);
* ``busy_s`` sums the durations of those outermost spans;
* ``self_s`` subtracts the time covered by directly nested wrapped spans.

A hook whose module, class or attribute no longer exists is reported as
unmeasured and skipped, so refactoring a layer cannot abort the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One wrap point: ``target`` is ``"func"`` or ``"Class.method"``.

    ``subclasses`` also wraps every subclass that overrides the method
    (schedulers, optimizers, uplift models). ``observe(args, kwargs,
    result)`` returns a value the tracer keeps under the layer's name.
    """

    layer: str
    module: str
    target: str
    subclasses: bool = False
    observe: Callable | None = None


def _observe_assembly(args, kwargs, result):
    # The spec is kept; its fingerprint is computed after the call so the
    # JSON work does not land inside the compile span.
    return args[0] if args else kwargs["spec"]


def _observe_nbytes(args, kwargs, result):
    return int(args[0].nbytes)


HOOKS = (
    Hook("synth.scenario", "repro.hub.scenario", "build_scenario"),
    Hook("synth.weather", "repro.synth.weather", "WeatherGenerator.generate"),
    Hook("synth.traffic", "repro.synth.traffic", "TrafficGenerator.generate"),
    Hook("synth.rtp", "repro.synth.rtp", "RtpGenerator.generate"),
    Hook("synth.strata", "repro.synth.charging", "ChargingBehaviorModel.sample_strata"),
    Hook("synth.charging_log", "repro.synth.charging", "ChargingBehaviorModel.simulate_log"),
    Hook("energy.outage", "repro.energy.grid", "BlackoutModel.sample_outages"),
    Hook("spec.compile", "repro.spec.compiler", "build"),
    Hook("spec.assembly", "repro.spec.compiler", "_assemble_fleet", observe=_observe_assembly),
    Hook("fleet.build", "repro.fleet.builder", "fleet_simulation_from_scenarios"),
    Hook("fleet.planes", "repro.fleet.planes", "SlotPlanes.__init__", observe=_observe_nbytes),
    Hook("fleet.book_init", "repro.fleet.costs", "FleetCostBook.__init__", observe=_observe_nbytes),
    Hook("fleet.step", "repro.fleet.simulation", "FleetSimulation.step"),
    Hook("fleet.reset", "repro.fleet.simulation", "FleetSimulation.reset"),
    Hook("fleet.scheduler", "repro.fleet.schedulers", "FleetScheduler.__call__", subclasses=True),
    Hook("fleet.allocate", "repro.fleet.grid", "FeederGroup.allocate"),
    Hook("fleet.headroom", "repro.fleet.grid", "FeederGroup.available_import_kw"),
    Hook("backend.battery", "repro.backend.numpy_backend", "NumpyOps.resolve_battery"),
    Hook("fleet.book", "repro.fleet.costs", "FleetCostBook.begin_slot"),
    Hook("fleet.book", "repro.fleet.costs", "FleetCostBook.commit_slot"),
    Hook("pricing.compile", "repro.spec.pricing", "compile_pricing"),
    Hook("causal.fit", "repro.causal.ect_price", "EctPriceModel.fit"),
    Hook("causal.fit", "repro.causal.baselines", "UpliftModel.fit", subclasses=True),
    Hook("nn.backward", "repro.nn.autograd", "Tensor.backward"),
    Hook("nn.optim", "repro.nn.optim", "Optimizer.step", subclasses=True),
    Hook("rl.env_step", "repro.rl.fleet_env", "FleetEnv.step"),
    Hook("rl.env_reset", "repro.rl.fleet_env", "FleetEnv.reset"),
    Hook("rl.update", "repro.rl.ppo", "PpoAgent.update"),
    Hook("rl.act", "repro.rl.ppo", "PpoAgent.act_batch"),
    Hook("export", "bench_workloads", "export_text"),
)


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    FIELDS = ("name", "start", "end", "parent", "run_id", "outermost")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.observed: dict[str, list] = defaultdict(list)
        self.run_id = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, layer: str, fn, observe=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            record = [layer, clock(), 0.0, stack[-1] if stack else -1,
                      self.run_id, depth[layer] == 0]
            stack.append(len(spans))
            spans.append(record)
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
                stack.pop()
                record[2] = clock()
            if observe is not None:
                self.observed[layer].append(
                    (self.run_id, observe(args, kwargs, result))
                )
            return result

        return traced

    def summary(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per-layer ``calls``, ``busy_s`` and ``self_s`` for one run."""
        spans = self.spans
        child_time: dict[int, float] = defaultdict(float)
        for record in spans:
            if record[4] == run_id and record[3] >= 0:
                child_time[record[3]] += record[2] - record[1]
        layers: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for index, record in enumerate(spans):
            if record[4] != run_id or not record[5]:
                continue
            duration = record[2] - record[1]
            entry = layers[record[0]]
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child_time.get(index, 0.0)
        return dict(layers)


@dataclass
class Installed:
    """The patches one :func:`install` made, and the hooks it skipped."""

    patches: list[tuple[object, str, object]]
    unmeasured: list[str]

    def remove(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()


def _resolve(hook: Hook):
    """``(owner, attribute name)`` of a hook's target; raises when absent."""
    module = importlib.import_module(hook.module)
    parts = hook.target.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        if name not in owner.__dict__:
            raise AttributeError(f"{hook.target} is not defined on its class")
    else:
        getattr(owner, name)
    return owner, name


def _classes(base: type, with_subclasses: bool) -> list[type]:
    found = [base]
    if with_subclasses:
        pending = list(base.__subclasses__())
        while pending:
            cls = pending.pop()
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


def _wrap_member(tracer: Tracer, hook: Hook, cls: type, name: str):
    raw = cls.__dict__[name]
    if isinstance(raw, (staticmethod, classmethod)):
        return raw, type(raw)(tracer.wrap(hook.layer, raw.__func__, hook.observe))
    return raw, tracer.wrap(hook.layer, raw, hook.observe)


def install(tracer: Tracer, hooks=HOOKS) -> Installed:
    """Wrap every resolvable hook target; list the rest as unmeasured.

    Module-level functions are also replaced under every name another
    loaded module bound them to (``from .x import f as g`` keeps its own
    reference), so a caller cannot bypass the wrapper.
    """
    installed = Installed(patches=[], unmeasured=[])
    for hook in hooks:
        try:
            owner, name = _resolve(hook)
        except (ImportError, AttributeError) as exc:
            installed.unmeasured.append(
                f"{hook.layer} ({hook.module}:{hook.target}: {exc})"
            )
            continue
        if isinstance(owner, type):
            for cls in _classes(owner, hook.subclasses):
                if name in cls.__dict__:
                    original, wrapped = _wrap_member(tracer, hook, cls, name)
                    setattr(cls, name, wrapped)
                    installed.patches.append((cls, name, original))
            continue
        original = getattr(owner, name)
        wrapped = tracer.wrap(hook.layer, original, hook.observe)
        for module in list(sys.modules.values()):
            if module is not owner and not getattr(module, "__name__", "").startswith(
                ("repro", "bench_")
            ):
                continue
            aliases = [k for k, v in vars(module).items() if v is original]
            for alias in aliases:
                setattr(module, alias, wrapped)
                installed.patches.append((module, alias, original))
    return installed
