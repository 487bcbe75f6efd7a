"""The ``ArrayOps`` seam: the one swappable kernel of the fleet step.

The fused fleet kernel (:mod:`repro.fleet.simulation`), the feeder
allocator, the cost book and the vectorized schedulers call numpy
directly. The one exception is the battery block of the slot step,
:meth:`ArrayOps.resolve_battery`: the charge/discharge/applied-action/SoC
advance sequence, the only region a JIT backend can profitably fuse into
a single per-hub loop. The engine resolves an :class:`ArrayOps` once per
construction (:func:`repro.backend.registry.get_backend`) and calls its
``resolve_battery`` every step; ``RunSpec.backend`` (CLI
``--set run.backend=...``) selects it.

The numpy reference (:class:`~repro.backend.numpy_backend.NumpyOps`) is
held to byte identity (preset golden exports unchanged, test-enforced);
alternative backends are held to the repo-wide atol-1e-9
scalar-equivalence bound.
"""

from __future__ import annotations


class ArrayOps:
    """Abstract battery-kernel provider for the fused fleet step.

    Subclasses set :attr:`name` and provide :meth:`resolve_battery`.
    Instances are stateless and shared (the registry caches one per
    backend name), so implementations must be re-entrant.
    """

    #: Registry name of the backend ("numpy", "numba", ...). For a
    #: fallback-resolved backend this is the backend that actually
    #: executes, not the one requested.
    name: str = "abstract"

    #: Whether the battery composite runs through a JIT-compiled kernel.
    jit: bool = False

    def resolve_battery(self, kernel, soc, actions, b, applied, p_bp) -> None:
        """The battery block of one fused slot step, for all hubs at once.

        Resolves the charge path (``BatteryPack._charge`` headroom clip),
        the discharge path (both efficiency conventions), the applied
        action (requests degraded to IDLE where the clip zeroed them),
        the battery bus power, and the SoC advance.

        ``kernel`` is the engine's precomputed constant namespace
        (``soc_max_kwh``, ``soc_min_kwh``, ``charge_efficiency``,
        ``stored_requested``, ``drawn_requested``, ``bus_per_drawn``,
        ``dt_h``, ``soc_eps``); ``soc``/``actions`` are read-only
        ``(n_hubs,)`` inputs; ``b`` is the engine's reusable buffer
        namespace. On return ``b.stored``, ``b.drawn``,
        ``b.bus_charge_kwh``, ``b.bus_discharge_kwh`` and ``b.new_soc``
        hold the resolved energies, and ``applied`` / ``p_bp`` (cost-book
        column views) are fully written. Implementations must preserve
        the reference's per-element order of operations within atol 1e-9;
        the numpy reference preserves it bit-for-bit.
        """
        raise NotImplementedError
