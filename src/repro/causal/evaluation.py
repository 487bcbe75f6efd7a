"""Table II evaluation: strata counts and the discount reward.

The published Table II pins the metric down exactly: for the
set ``D`` of items a method discounts, with true strata and discount level
``c``,

``Reward(D) = #{Incentive ∈ D} − c · (#{None ∈ D} + #{Always ∈ D})``

i.e. every correctly-incentivised charge is worth 1 and every wasted
discount (on an item that would have charged anyway, or not at all) costs
the discount fraction. This module computes those four columns for any
policy and renders the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from ..synth.charging import Stratum
from .policy import DiscountDecision


@dataclass(frozen=True)
class DiscountOutcome:
    """One Table II cell-group: counts of discounted items per true stratum."""

    method: str
    discount_level: float
    n_none: int
    n_incentive: int
    n_always: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.discount_level < 1.0:
            raise ConfigError(
                f"discount_level must be in [0, 1), got {self.discount_level}"
            )
        if min(self.n_none, self.n_incentive, self.n_always) < 0:
            raise ConfigError("counts must be non-negative")

    @property
    def n_discounted(self) -> int:
        """Total items given the discount."""
        return self.n_none + self.n_incentive + self.n_always

    @property
    def reward(self) -> float:
        """The verified Table II reward formula."""
        return self.n_incentive - self.discount_level * (self.n_none + self.n_always)


def score_decision(
    decision: DiscountDecision,
    true_strata: np.ndarray,
    *,
    method: str,
    discount_level: float,
) -> DiscountOutcome:
    """Score a policy's decisions against the true strata."""
    strata = np.asarray(true_strata, dtype=int)
    if strata.shape != decision.discounted.shape:
        raise DataError(
            f"strata shape {strata.shape} != decisions shape "
            f"{decision.discounted.shape}"
        )
    chosen = strata[decision.discounted]
    return DiscountOutcome(
        method=method,
        discount_level=discount_level,
        n_none=int((chosen == int(Stratum.NONE)).sum()),
        n_incentive=int((chosen == int(Stratum.INCENTIVE)).sum()),
        n_always=int((chosen == int(Stratum.ALWAYS)).sum()),
    )


def render_table(outcomes: list[DiscountOutcome]) -> str:
    """Format outcomes as the paper's Table II layout (text)."""
    if not outcomes:
        return "(no outcomes)"
    levels = sorted({o.discount_level for o in outcomes})
    methods: list[str] = []
    for outcome in outcomes:
        if outcome.method not in methods:
            methods.append(outcome.method)

    lines: list[str] = []
    header = f"{'Method':<8}" + "".join(
        f"| {int(level * 100):>2d}% None  Inc  Alw  Reward " for level in levels
    )
    lines.append(header)
    lines.append("-" * len(header))
    index = {(o.method, o.discount_level): o for o in outcomes}
    for method in methods:
        row = f"{method:<8}"
        for level in levels:
            outcome = index.get((method, level))
            if outcome is None:
                row += "| (missing)".ljust(30)
            else:
                row += (
                    f"| {outcome.n_none:>8d} {outcome.n_incentive:>4d} "
                    f"{outcome.n_always:>4d} {outcome.reward:>7.1f} "
                )
        lines.append(row)
    return "\n".join(lines)
