"""The telemetry session: one object threaded through a whole run.

:class:`Telemetry` ties the two recording surfaces together — a
:class:`~repro.telemetry.metrics.MetricsRegistry` for counters/gauges/
histograms/timers and a :class:`~repro.telemetry.trace.Tracer` for
nested phase spans — plus the per-update RL metric list. ``api.run``,
``api.run_sweep`` and ``api.train_fleet`` accept an optional session;
when one is passed, the completed run's **RunTelemetry record**
(:meth:`Telemetry.to_dict`) is attached to the returned
:class:`~repro.experiments.base.ExperimentResult` as
``result.telemetry`` and can be exported with
:func:`write_telemetry_json`.

The record layout::

    {
      "meta":     {hostname, python/numpy versions, git commit, ...},
      "phases":   {name: {wall_s, cpu_s, count}},   # from trace spans
      "counters": {...}, "gauges": {...},
      "histograms": {...}, "timers": {...},
      "rl":       [per-update metrics],             # training runs only
      "workers":  N,                                # sweep aggregation
      "trace":    [nested span dicts],
    }

Sweeps aggregate per-job records with :meth:`Telemetry.absorb`: counters,
timers and histograms add, each job's trace is grafted under a
``sweep-job`` span, and because jobs are absorbed in index order the
aggregated counters are byte-identical between serial and parallel
executors (test-enforced). Everything except the timings is
deterministic; the JSON therefore separates *what happened* (counters)
from *how long it took* (phases/timers/trace).
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

from .metrics import MetricsRegistry
from .runinfo import run_metadata
from .trace import Tracer


class Telemetry:
    """One run's metrics + trace, and the export/aggregation surface.

    ``include_meta=False`` skips the environment fingerprint — worker
    processes use it so per-job records stay lean and the (cached) git
    lookup runs only in the parent.
    """

    def __init__(self, *, include_meta: bool = True) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.rl_updates: list[dict] = []
        self._include_meta = include_meta
        self._workers = 1
        self._backend: str | None = None

    def span(self, name: str, **fields):
        """Open a phase span (delegates to the tracer)."""
        return self.tracer.span(name, **fields)

    def record_rl_update(self, **metrics: float) -> None:
        """Append one PPO update's diagnostics to the RL metric list."""
        self.rl_updates.append({k: float(v) for k, v in sorted(metrics.items())})

    def set_workers(self, n_workers: int) -> None:
        """Record how many worker processes fed this session's record."""
        self._workers = int(n_workers)

    def set_backend(self, backend: str) -> None:
        """Record the *resolved* array backend this session's run executed
        on (part of the ``meta`` run fingerprint — a "numba" spec that
        fell back to numpy records what actually ran)."""
        self._backend = str(backend)

    # ------------------------------------------------------------------ #
    # Aggregation                                                          #
    # ------------------------------------------------------------------ #

    def absorb(self, record: dict | None, *, label: str, **fields) -> None:
        """Fold a child run's record (e.g. one sweep job) into this session.

        Counters/timers/histograms merge into the session registry, RL
        updates append, and the child's trace is grafted under a new
        ``label`` span. ``None`` records (telemetry-less children) are
        ignored so callers need no guard.
        """
        if record is None:
            return
        self.metrics.merge(record)
        self.rl_updates.extend(record.get("rl", ()))
        self._workers += record.get("workers", 1) - 1
        self.tracer.attach(label, record.get("trace", []), **fields)
        self.metrics.inc(f"{label}s", 1)

    # ------------------------------------------------------------------ #
    # Export                                                               #
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """The RunTelemetry record (JSON-ready, keys sorted)."""
        snapshot = self.metrics.snapshot()
        record = {
            "phases": self.tracer.phase_totals(),
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
            "timers": snapshot["timers"],
            "workers": self._workers,
            "trace": self.tracer.to_list(),
        }
        if self.rl_updates:
            record["rl"] = list(self.rl_updates)
        if self._include_meta:
            record["meta"] = run_metadata(backend=self._backend)
        return record

    def summary_lines(self) -> list[str]:
        """Human-readable run summary: phases, key counters, RL tail."""
        record = self.to_dict()
        lines = ["-- telemetry --"]
        for name, entry in record["phases"].items():
            count = f" x{entry['count']}" if entry["count"] > 1 else ""
            lines.append(
                f"phase {name:<12}{count:>5}  "
                f"{entry['wall_s'] * 1e3:>10,.1f} ms wall  "
                f"{entry['cpu_s'] * 1e3:>10,.1f} ms cpu"
            )
        for name, entry in record["timers"].items():
            lines.append(
                f"timer {name:<12} x{entry['count']:<4} "
                f"{entry['seconds'] * 1e3:>10,.1f} ms"
            )
        for name, value in record["counters"].items():
            rendered = f"{value:,.0f}" if value == int(value) else f"{value:,.3f}"
            lines.append(f"counter {name} = {rendered}")
        for name, value in record["gauges"].items():
            lines.append(f"gauge {name} = {value:,.1f}")
        if self.rl_updates:
            last = self.rl_updates[-1]
            rendered = ", ".join(f"{k}={v:.4g}" for k, v in last.items())
            lines.append(
                f"rl updates {len(self.rl_updates)}; last: {rendered}"
            )
        return lines


def optional_span(telemetry: Telemetry | None, name: str, **fields):
    """``telemetry.span(name, **fields)``, or a no-op context without a session.

    Lets a traced and an untraced run share one code path: the call
    inside the ``with`` block is the same either way.
    """
    if telemetry is None:
        return contextlib.nullcontext()
    return telemetry.span(name, **fields)


def write_telemetry_json(record: dict, path: str | Path) -> Path:
    """Persist a RunTelemetry record (or session dict) as pretty JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def telemetry_sidecar_path(out_path: str | Path) -> Path:
    """The sidecar file a ``--out`` export's telemetry is written to.

    ``results.json`` -> ``results.telemetry.json``; the record stays out
    of the ``--out`` payload itself so those exports remain byte-
    deterministic and diffable across runs.
    """
    out_path = Path(out_path)
    return out_path.with_name(out_path.stem + ".telemetry.json")
