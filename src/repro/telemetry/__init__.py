"""Telemetry: structured run metrics, phase tracing, and profiling hooks.

The observability layer the scaling roadmap reports against. Four small
pieces compose into one session object:

* :class:`~repro.telemetry.metrics.MetricsRegistry` — counters, gauges,
  histograms, timers (near-zero overhead when no session is attached);
* :class:`~repro.telemetry.trace.Tracer` — nested ``compile`` / ``reset``
  / ``step`` / ``sweep-job`` / ``ppo-update`` phase spans exporting to a
  JSON trace and a human-readable summary;
* :mod:`~repro.telemetry.log` — the leveled structured logger behind the
  CLI's ``--verbose`` / ``--quiet`` flags;
* :func:`~repro.telemetry.runinfo.run_metadata` — the environment
  fingerprint stamped onto bench reports and telemetry exports.

Typical use::

    from repro import api
    from repro.telemetry import Telemetry, write_telemetry_json

    tele = Telemetry()
    result = api.run("paper-default", telemetry=tele)
    print("\\n".join(tele.summary_lines()))
    write_telemetry_json(result.telemetry, "trace.json")

or on the CLI: ``ect-hub fleet --set fleet.n_hubs=100 --telemetry
--trace-out trace.json``.
"""

from . import log
from .metrics import HistogramStats, MetricsRegistry
from .runinfo import run_metadata
from .session import (
    Telemetry,
    optional_span,
    telemetry_sidecar_path,
    write_telemetry_json,
)
from .trace import Span, Tracer

__all__ = [
    "HistogramStats",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "log",
    "optional_span",
    "run_metadata",
    "telemetry_sidecar_path",
    "write_telemetry_json",
]
