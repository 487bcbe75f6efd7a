"""``repro.experiments`` — one runner per paper table/figure + ablations.

``ect-hub list`` prints the experiment index (:data:`.registry.RUNNERS`).
Usage:

>>> from repro.experiments import run_experiment
>>> result = run_experiment("fig5")
>>> print(result.rendered())
"""

from .base import ExperimentResult, scaled, series_line
from .registry import RUNNERS, available_experiments, run_experiment

__all__ = [
    "RUNNERS",
    "ExperimentResult",
    "available_experiments",
    "run_experiment",
    "scaled",
    "series_line",
]
