"""``repro.causal`` — ECT-Price and the uplift-modeling baselines.

Implements §IV-A of the paper: the CF-MTL stratification + propensity model
(:mod:`.ect_price`, Eqs. 13–23), the NCF base model and labeler
(:mod:`.ncf`), the OR / IPS / DR baselines (:mod:`.baselines`), discount
policies (:mod:`.policy`), and the verified Table II metric
(:mod:`.evaluation`).
"""

from .baselines import (
    MODELS_PER_METHOD,
    DoublyRobust,
    InversePropensityScoring,
    OutcomeRegression,
    UpliftModel,
    UpliftPrediction,
    make_baseline,
)
from .dataset import (
    PricingDataset,
    dataset_from_log,
    time_ids_for_slots,
    train_test_split_by_day,
)
from .ect_price import EctPriceConfig, EctPriceModel
from .evaluation import DiscountOutcome, render_table, score_decision
from .ncf import NcfConfig, NcfNetwork, NcfRegressor, pretrain_rating_model
from .policy import (
    DiscountDecision,
    DiscountPolicy,
    EctPricePolicy,
    EveningHeuristicPolicy,
    OraclePolicy,
    UpliftPolicy,
    discount_schedule_for_hub,
)
from .strata import (
    Stratum,
    ground_truth_labels,
    heuristic_strata_labels,
    label_agreement,
)

__all__ = [
    "MODELS_PER_METHOD",
    "DiscountDecision",
    "DiscountOutcome",
    "DiscountPolicy",
    "DoublyRobust",
    "EctPriceConfig",
    "EctPriceModel",
    "EctPricePolicy",
    "EveningHeuristicPolicy",
    "InversePropensityScoring",
    "NcfConfig",
    "NcfNetwork",
    "NcfRegressor",
    "OraclePolicy",
    "OutcomeRegression",
    "PricingDataset",
    "Stratum",
    "UpliftModel",
    "UpliftPolicy",
    "UpliftPrediction",
    "dataset_from_log",
    "discount_schedule_for_hub",
    "ground_truth_labels",
    "heuristic_strata_labels",
    "label_agreement",
    "make_baseline",
    "pretrain_rating_model",
    "render_table",
    "score_decision",
    "time_ids_for_slots",
    "train_test_split_by_day",
]
