"""Unit conventions and conversions.

The library stores quantities in a single internal convention:

* power in **kW**
* energy in **kWh**
* prices in **$/kWh**
* time in **hours** (slot length ``dt_h`` is carried explicitly)

External feeds use other units — the ENGIE-style real-time price is quoted in
$/MWh (paper Fig. 5 shows a 50–130 $/MWh band) and renewable telemetry in W
(paper Fig. 2) — so conversion helpers live here and raise
:class:`~repro.errors.UnitsError` on invalid magnitudes rather than silently
producing nonsense.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import UnitsError

#: Hours per day, used throughout the slot calendars.
HOURS_PER_DAY = 24

#: kW per MW.
KW_PER_MW = 1000.0

#: W per kW.
W_PER_KW = 1000.0


def mwh_price_to_kwh(price_per_mwh: float) -> float:
    """Convert a $/MWh price quote to $/kWh.

    >>> mwh_price_to_kwh(120.0)
    0.12
    """
    return float(price_per_mwh) / KW_PER_MW


def kwh_price_to_mwh(price_per_kwh: float) -> float:
    """Convert a $/kWh price to the $/MWh convention used by RTP feeds."""
    return float(price_per_kwh) * KW_PER_MW


def watts_to_kw(power_w: float) -> float:
    """Convert watts to kilowatts."""
    return float(power_w) / W_PER_KW


def kw_to_watts(power_kw: float) -> float:
    """Convert kilowatts to watts."""
    return float(power_kw) * W_PER_KW


def energy_kwh(power_kw: float, duration_h: float) -> float:
    """Energy in kWh delivered by ``power_kw`` sustained for ``duration_h``.

    Raises :class:`UnitsError` for a negative duration — negative power is
    legal (battery discharge is signed) but time never runs backwards.
    """
    if duration_h < 0:
        raise UnitsError(f"duration must be non-negative, got {duration_h}")
    return float(power_kw) * float(duration_h)


def require_positive(name: str, value: float) -> float:
    """Validate that ``value`` is strictly positive; return it as float."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise UnitsError(f"{name} must be a positive finite number, got {value}")
    return value


def require_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies in [0, 1]; return it as float."""
    value = float(value)
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise UnitsError(f"{name} must lie in [0, 1], got {value}")
    return value


def require_fractions(name: str, values: Iterable[float]) -> np.ndarray:
    """Validate every element of ``values`` lies in [0, 1]; return an array."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or arr.min() < 0 or arr.max() > 1):
        raise UnitsError(f"every element of {name} must lie in [0, 1]")
    return arr
