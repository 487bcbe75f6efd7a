"""The reference battery kernel: a fixed numpy ufunc sequence.

:meth:`NumpyOps.resolve_battery` is the fused step's battery block as
in-place ufunc calls on the engine's reusable ``out=`` buffers (no
temporaries, no arithmetic regrouping). It mirrors the scalar
``BatteryPack._charge`` / ``_discharge`` order of operations, and the
preset golden exports pin it byte for byte.
"""

from __future__ import annotations

import numpy as np

from ..energy.battery import CHARGE, DISCHARGE, IDLE
from .base import ArrayOps


class NumpyOps(ArrayOps):
    """Plain-numpy :class:`~repro.backend.base.ArrayOps` (the default)."""

    name = "numpy"
    jit = False

    @staticmethod
    def resolve_battery(kernel, soc, actions, b, applied, p_bp):
        # --- Charge path (BatteryPack._charge): clip the stored energy to
        # the SoC_max headroom; a fully-clipped request degrades to IDLE.
        np.subtract(kernel.soc_max_kwh, soc, out=b.headroom)
        np.maximum(b.headroom, 0.0, out=b.headroom)
        np.add(b.headroom, kernel.soc_eps, out=b.tmp)
        np.greater(kernel.stored_requested, b.tmp, out=b.mask)
        np.copyto(b.stored, kernel.stored_requested)
        np.copyto(b.stored, b.headroom, where=b.mask)
        np.equal(actions, CHARGE, out=b.charging)
        np.greater(b.stored, 0.0, out=b.mask)
        np.logical_and(b.charging, b.mask, out=b.charging)
        np.logical_not(b.charging, out=b.idle_mask)
        np.copyto(b.stored, 0.0, where=b.idle_mask)
        # stored is zero wherever not charging, so the plain divide equals
        # the old where(charging, stored/η, 0) select.
        np.divide(b.stored, kernel.charge_efficiency, out=b.bus_charge_kwh)

        # --- Discharge path (BatteryPack._discharge), both conventions.
        np.subtract(soc, kernel.soc_min_kwh, out=b.available)
        np.maximum(b.available, 0.0, out=b.available)
        np.add(b.available, kernel.soc_eps, out=b.tmp)
        np.greater(kernel.drawn_requested, b.tmp, out=b.mask)
        np.copyto(b.drawn, kernel.drawn_requested)
        np.copyto(b.drawn, b.available, where=b.mask)
        np.equal(actions, DISCHARGE, out=b.discharging)
        np.greater(b.drawn, 0.0, out=b.mask)
        np.logical_and(b.discharging, b.mask, out=b.discharging)
        np.logical_not(b.discharging, out=b.idle_mask)
        np.copyto(b.drawn, 0.0, where=b.idle_mask)
        np.multiply(b.drawn, kernel.bus_per_drawn, out=b.bus_discharge_kwh)

        # Applied action: requested unless the clip degraded it to IDLE.
        np.copyto(applied, IDLE)
        np.copyto(applied, CHARGE, where=b.charging)
        np.copyto(applied, DISCHARGE, where=b.discharging)

        # Battery bus power and the SoC advance.
        np.subtract(b.bus_charge_kwh, b.bus_discharge_kwh, out=p_bp)
        np.divide(p_bp, kernel.dt_h, out=p_bp)
        np.add(soc, b.stored, out=b.new_soc)
        np.subtract(b.new_soc, b.drawn, out=b.new_soc)
