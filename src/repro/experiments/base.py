"""Experiment plumbing: results, scaling, and text rendering.

Every paper artifact (table or figure) has one runner returning an
:class:`ExperimentResult`: machine-readable ``data`` plus human-readable
``lines`` that the benches print. ``scale`` trades fidelity for runtime —
1.0 is the bench default (laptop-CPU friendly); paper-scale settings are
noted per runner in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

# The run-scale rule lives in the spec layer; the runners import it here.
from ..spec.compiler import scaled  # noqa: F401


def jsonable(value: Any) -> Any:
    """Recursively convert experiment ``data`` into JSON-serialisable types.

    NumPy arrays become lists, NumPy scalars become Python scalars; dict
    keys are stringified so e.g. hub-id keys survive the round trip.
    """
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    return value


@dataclass
class ExperimentResult:
    """Output of one experiment runner.

    ``telemetry`` carries the RunTelemetry record (a JSON-ready dict of
    phase timings, counters, and RL metrics) when the run was executed
    with a :class:`~repro.telemetry.session.Telemetry` session attached.
    It is deliberately excluded from :meth:`to_json_dict`: ``--out``
    exports stay byte-deterministic and diffable, and telemetry is
    exported through its own sidecar/trace files instead.
    """

    experiment_id: str
    title: str
    data: dict[str, Any] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    telemetry: dict[str, Any] | None = None

    def rendered(self) -> str:
        """The human-readable report."""
        header = f"== {self.experiment_id}: {self.title} =="
        return "\n".join([header, *self.lines])

    def to_json_dict(self) -> dict[str, Any]:
        """Machine-readable form: id, title, and JSON-safe ``data``."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "data": jsonable(self.data),
        }


def write_results_json(
    results: "ExperimentResult | list[ExperimentResult]", path: str | Path
) -> Path:
    """Persist one or many experiment results as pretty-printed JSON.

    A single result is written as one object; a list as an array. This is
    the ``--out`` backend of the CLI, so experiment ``data`` can be diffed
    across PRs.
    """
    path = Path(path)
    if isinstance(results, ExperimentResult):
        payload: Any = results.to_json_dict()
    else:
        payload = [result.to_json_dict() for result in results]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def series_line(name: str, values, *, per_line: int = 12, fmt: str = "{:.1f}") -> list[str]:
    """Render a numeric series as labelled wrapped text lines."""
    rendered = [fmt.format(float(v)) for v in values]
    lines = [f"{name}:"]
    for start in range(0, len(rendered), per_line):
        lines.append("  " + " ".join(rendered[start : start + per_line]))
    return lines
