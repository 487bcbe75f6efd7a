"""Shared pricing study: train ECT-Price + baselines once, reuse everywhere.

Table II, Fig. 11, and Fig. 12 all consume the same trained models; this
module runs the pipeline once per (seed, scale) and hands the pieces to
each runner.

Protocol (DESIGN.md §5 / EXPERIMENTS.md):

* generator: fleet defaults (12 stations, typed cells, confounded evening-
  heavy logging policy);
* chronological split: ``train_days`` of history, 150 days of evaluation
  (43,200 items → budget 8,424 ≈ the paper's 8,426 at fraction 0.195);
* equal-total-compute: every *method* gets the same total training epochs —
  ECT-Price spends them on one joint model, OR on two, IPS on three, DR on
  four.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..causal import (
    MODELS_PER_METHOD,
    EctPriceConfig,
    EctPriceModel,
    EctPricePolicy,
    NcfConfig,
    PricingDataset,
    UpliftPolicy,
    make_baseline,
    train_test_split_by_day,
)
from ..causal.policy import DiscountPolicy
from ..rng import RngFactory
from ..synth.charging import ChargingBehaviorModel, ChargingConfig
from .base import scaled

#: Share of test items each method may discount (paper: 8,426 of 43,200).
BUDGET_FRACTION = 0.195

#: Total training epochs per method under the equal-compute protocol.
TOTAL_EPOCHS = 30


@dataclass
class PricingStudy:
    """Everything the pricing experiments need."""

    behavior: ChargingBehaviorModel
    train: PricingDataset
    test: PricingDataset
    policies: list[DiscountPolicy]
    ect_price: EctPriceModel
    budget: int


def run_pricing_study(
    *,
    seed: int = 0,
    scale: float = 1.0,
    train_days: int = 60,
    test_days: int = 150,
    charging_config: ChargingConfig | None = None,
) -> PricingStudy:
    """Train all four pricing methods on a fresh synthetic log."""
    factory = RngFactory(seed=seed)
    behavior = ChargingBehaviorModel(charging_config or ChargingConfig(), factory)

    train_days = scaled(train_days, scale, minimum=7)
    test_days = scaled(test_days, scale, minimum=7)
    log = behavior.simulate_log(train_days + test_days)
    train, test = train_test_split_by_day(
        log, n_stations=behavior.config.n_stations, boundary_day=train_days
    )
    budget = int(round(BUDGET_FRACTION * len(test)))

    epochs = scaled(TOTAL_EPOCHS, scale, minimum=2)
    ect_config = EctPriceConfig(epochs=epochs, batch_size=128, learning_rate=0.01)
    ect_price = EctPriceModel(
        behavior.config.n_stations,
        train.n_time_ids,
        ect_config,
        factory.stream("pricing/ours"),
    )
    ect_price.fit(train)
    policies: list[DiscountPolicy] = [EctPricePolicy(ect_price)]

    for name, n_models in MODELS_PER_METHOD.items():
        model = make_baseline(
            name,
            behavior.config.n_stations,
            train.n_time_ids,
            NcfConfig(
                epochs=max(epochs // n_models, 1),
                batch_size=128,
                learning_rate=0.01,
            ),
            factory.stream(f"pricing/{name}"),
        )
        model.fit(train)
        policies.append(UpliftPolicy(model))

    return PricingStudy(
        behavior=behavior,
        train=train,
        test=test,
        policies=policies,
        ect_price=ect_price,
        budget=budget,
    )
