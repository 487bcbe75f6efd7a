"""Shared pricing study: train ECT-Price + baselines on one synthetic log.

Table II, Figs. 11–12, ``abl-loss`` and (through the scheduling study)
Table III and Fig. 13 all start from this study. Each runner calls
:func:`run_pricing_study` itself; a given (seed, scale) always trains the
same models.

Protocol: the :class:`~repro.spec.scenario.PricingSpec` defaults, trained
through :func:`~repro.causal.policy.train_policy` like ``ect-hub price``:

* generator: fleet defaults (12 stations, typed cells, confounded evening-
  heavy logging policy);
* chronological split: ``train_days`` of history, 150 days of evaluation
  (43,200 items → budget 8,424 ≈ the paper's 8,426 at ``budget_fraction``);
* equal-total-compute: every *method* gets the same total training epochs —
  ECT-Price spends them on one joint model, OR on two, IPS on three, DR on
  four.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..causal import (
    EctPriceModel,
    PricingDataset,
    train_policy,
    train_test_split_by_day,
)
from ..causal.policy import DiscountPolicy
from ..rng import RngFactory
from ..spec.scenario import PricingSpec
from ..synth.charging import ChargingBehaviorModel, ChargingConfig
from .base import scaled


@dataclass
class PricingStudy:
    """Everything the pricing experiments need."""

    behavior: ChargingBehaviorModel
    train: PricingDataset
    test: PricingDataset
    policies: list[DiscountPolicy]
    budget: int

    @property
    def ect_price(self) -> EctPriceModel:
        """The trained ECT-Price model (the first policy's)."""
        return self.policies[0].model


def run_pricing_study(
    *,
    seed: int = 0,
    scale: float = 1.0,
    test_days: int = 150,
) -> PricingStudy:
    """Train all four pricing methods on a fresh synthetic log."""
    protocol = PricingSpec()
    factory = RngFactory(seed=seed)
    behavior = ChargingBehaviorModel(ChargingConfig(), factory)

    train_days = scaled(protocol.train_days, scale, minimum=7)
    test_days = scaled(test_days, scale, minimum=7)
    log = behavior.simulate_log(train_days + test_days)
    train, test = train_test_split_by_day(
        log, n_stations=behavior.config.n_stations, boundary_day=train_days
    )
    epochs = scaled(protocol.epochs, scale, minimum=2)
    policies = [
        train_policy(
            method,
            train,
            epochs=epochs,
            batch_size=protocol.batch_size,
            learning_rate=protocol.learning_rate,
            always_avoidance_threshold=protocol.always_avoidance_threshold,
            rng_factory=factory,
        )
        for method in ("ours", "or", "ips", "dr")
    ]
    return PricingStudy(
        behavior=behavior,
        train=train,
        test=test,
        policies=policies,
        budget=int(round(protocol.budget_fraction * len(test))),
    )
