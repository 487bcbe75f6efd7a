"""``fleet`` — network-scale scheduling over the batched fleet engine.

Beyond the paper's 12-hub evaluation: simulate an arbitrary-size fleet of
heterogeneous urban/rural hubs in one :class:`~repro.fleet.FleetSimulation`
run, reporting per-hub Eq. 12 profit and the network totals the Fig. 6
"hub network" vision implies. Exposed on the CLI as ``ect-hub fleet``
(``--set fleet.n_hubs=200`` for a bigger fleet).

The runner is the ``fleet-default`` preset with ``run.scale`` and
``run.seed`` applied (:func:`repro.api.resolve_spec`), executed by
:func:`repro.api.run` — the same path ``ect-hub fleet`` takes.
"""

from __future__ import annotations

from .base import ExperimentResult


def run(*, scale: float = 1.0, seed: int = 0, telemetry=None) -> ExperimentResult:
    """Batch-simulate the ``fleet-default`` preset at ``scale`` / ``seed``.

    ``telemetry`` forwards a :class:`~repro.telemetry.session.Telemetry`
    session to ``api.run``.
    """
    # Local import: repro.api pulls experiments.base, so importing it at
    # module level would cycle through the experiment registry.
    from .. import api

    spec = api.resolve_spec("fleet-default", scale=scale, seed=seed)
    return api.run(spec, telemetry=telemetry)
