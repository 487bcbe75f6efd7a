"""Optional numba backend: the battery composite as a JIT per-hub loop.

``numba`` is an *optional* dependency behind a guarded import: when it is
missing, the registry resolves ``"numba"`` to the numpy reference with a
logged warning instead of crashing, so a spec that names the backend
stays runnable everywhere (shard and sweep workers re-resolve in their
own process and fall back the same way).

When numba is present, :class:`NumbaOps` replaces
:meth:`~repro.backend.numpy_backend.NumpyOps.resolve_battery` with an
``@njit`` per-hub scalar loop — the one region of the slot kernel where
fusing ~20 ufunc passes into a single traversal pays. The loop applies
the same operations in the same per-element order as the reference, so
it is held to (and comfortably inside) the repo-wide atol-1e-9
scalar-equivalence bound.
"""

from __future__ import annotations

import numpy as np

from ..energy.battery import CHARGE, DISCHARGE, IDLE
from .numpy_backend import NumpyOps

try:  # pragma: no cover - exercised only where numba is installed
    import numba
except ImportError:  # pragma: no cover - the default in-tree environment
    numba = None

#: Whether the real JIT backend can be constructed in this process.
HAVE_NUMBA = numba is not None


def _battery_kernel(
    soc_max_kwh,
    soc_min_kwh,
    charge_efficiency,
    stored_requested,
    drawn_requested,
    bus_per_drawn,
    dt_h,
    soc_eps,
    soc,
    actions,
    stored,
    drawn,
    bus_charge_kwh,
    bus_discharge_kwh,
    new_soc,
    applied,
    p_bp,
):  # pragma: no cover - compiled and run only under numba
    """Per-hub battery block; the scalar twin of NumpyOps.resolve_battery."""
    n = soc.shape[0]
    for i in range(n):
        # Charge path (BatteryPack._charge).
        headroom = soc_max_kwh[i] - soc[i]
        if headroom < 0.0:
            headroom = 0.0
        stored_i = stored_requested[i]
        if stored_i > headroom + soc_eps:
            stored_i = headroom
        charging = actions[i] == CHARGE and stored_i > 0.0
        if not charging:
            stored_i = 0.0
        bus_charge = stored_i / charge_efficiency[i]

        # Discharge path (BatteryPack._discharge), both conventions.
        available = soc[i] - soc_min_kwh[i]
        if available < 0.0:
            available = 0.0
        drawn_i = drawn_requested[i]
        if drawn_i > available + soc_eps:
            drawn_i = available
        discharging = actions[i] == DISCHARGE and drawn_i > 0.0
        if not discharging:
            drawn_i = 0.0
        bus_discharge = drawn_i * bus_per_drawn[i]

        stored[i] = stored_i
        drawn[i] = drawn_i
        bus_charge_kwh[i] = bus_charge
        bus_discharge_kwh[i] = bus_discharge
        if charging:
            applied[i] = CHARGE
        elif discharging:
            applied[i] = DISCHARGE
        else:
            applied[i] = IDLE
        p_bp[i] = (bus_charge - bus_discharge) / dt_h
        new_soc[i] = soc[i] + stored_i - drawn_i


class NumbaOps(NumpyOps):
    """JIT battery composite in place of the numpy ufunc sequence.

    Constructable only where numba is importable; the registry guards
    this and falls back to :class:`NumpyOps` otherwise.
    """

    name = "numba"
    jit = True

    def __init__(self) -> None:  # pragma: no cover - needs numba
        if not HAVE_NUMBA:
            raise RuntimeError(
                "NumbaOps requires the optional numba package; resolve "
                "backends through repro.backend.get_backend, which falls "
                "back to numpy when numba is missing"
            )
        self._kernel = numba.njit(cache=True)(_battery_kernel)

    def resolve_battery(
        self, kernel, soc, actions, b, applied, p_bp
    ) -> None:  # pragma: no cover - needs numba
        self._kernel(
            kernel.soc_max_kwh,
            kernel.soc_min_kwh,
            kernel.charge_efficiency,
            kernel.stored_requested,
            kernel.drawn_requested,
            kernel.bus_per_drawn,
            kernel.dt_h,
            kernel.soc_eps,
            soc,
            np.ascontiguousarray(actions),
            b.stored,
            b.drawn,
            b.bus_charge_kwh,
            b.bus_discharge_kwh,
            b.new_soc,
            applied,
            p_bp,
        )
