"""``repro.backend`` — the one swappable kernel under the fleet engine.

The fused fleet step calls numpy directly except for its battery block,
which it takes from an :class:`~repro.backend.base.ArrayOps` instance
(``resolve_battery``). :func:`get_backend` resolves one by name:

``"numpy"``
    The reference implementation — a fixed in-place ufunc sequence,
    pinned byte for byte by the preset golden exports.
``"numba"``
    Optional JIT backend that fuses the battery block into a compiled
    per-hub loop. Behind a guarded import: without the numba package it
    falls back to numpy with a logged warning.

Selection threads through the whole spine: ``RunSpec.backend`` (JSON
round-trippable, ``--set run.backend=...`` overridable), the spec
compiler, ``api.run``/sweeps/pricing/RL, and shard/sweep workers
(children re-resolve the spec's backend in their own process). The
telemetry run fingerprint records which backend actually executed.
"""

from .base import ArrayOps
from .numpy_backend import NumpyOps
from .registry import BACKEND_NAMES, available_backends, get_backend

__all__ = [
    "ArrayOps",
    "BACKEND_NAMES",
    "NumpyOps",
    "available_backends",
    "get_backend",
]
