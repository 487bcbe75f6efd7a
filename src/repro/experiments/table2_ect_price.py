"""Table II — ECT-Price vs OR / IPS / DR at 10–60 % discounts."""

from __future__ import annotations

from ..causal import render_table, score_decision
from .base import ExperimentResult
from .pricing_common import run_pricing_study

#: The paper's six discount levels.
PAPER_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

#: Published rewards for shape comparison (method → level → reward).
PAPER_REWARDS = {
    "OR": {0.1: 5687, 0.2: 5439, 0.3: 5191, 0.4: 4975, 0.5: 4940, 0.6: 4437},
    "IPS": {0.1: 5727, 0.2: 5601, 0.3: 5329, 0.4: 4999, 0.5: 4751, 0.6: 4653},
    "DR": {0.1: 5830, 0.2: 5276, 0.3: 5014, 0.4: 5195, 0.5: 4876, 0.6: 4661},
    "Ours": {0.1: 6195, 0.2: 5963, 0.3: 5734, 0.4: 5462, 0.5: 5384, 0.6: 5072},
}


def run(*, scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Regenerate Table II (counts per stratum + reward, per method/level)."""
    study = run_pricing_study(seed=seed, scale=scale)
    outcomes = []
    for policy in study.policies:
        for level in PAPER_LEVELS:
            decision = policy.decide(
                study.test.station_ids,
                study.test.time_ids,
                discount_level=level,
                budget=study.budget,
            )
            outcomes.append(
                score_decision(
                    decision,
                    study.test.stratum,
                    method=policy.name,
                    discount_level=level,
                )
            )

    rows = {
        (o.method, o.discount_level): {
            "none": o.n_none,
            "incentive": o.n_incentive,
            "always": o.n_always,
            "reward": o.reward,
        }
        for o in outcomes
    }
    lines = render_table(outcomes).splitlines()
    lines.append("")
    lines.append("paper-vs-measured reward (shape check):")
    for method in ("Ours", "OR", "IPS", "DR"):
        measured = " ".join(
            f"{rows[(method, lvl)]['reward']:.0f}" for lvl in PAPER_LEVELS
        )
        paper = " ".join(f"{PAPER_REWARDS[method][lvl]}" for lvl in PAPER_LEVELS)
        lines.append(f"  {method:<5} measured: {measured}")
        lines.append(f"  {method:<5} paper:    {paper}")
    return ExperimentResult(
        experiment_id="table2",
        title="ECT-Price vs uplift baselines (Table II)",
        data={"rows": rows, "budget": study.budget, "n_test": len(study.test)},
        lines=lines,
    )
