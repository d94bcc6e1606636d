"""Average versus discounted value of bounded reward sequences.

The package answers one family of questions with verified arithmetic:
given a reward sequence and a summable discount, do the running average
U and the normalized discounted value V settle, and do they agree?
Every inexact quantity is returned as an interval that provably
contains the true value; every limit claim is labeled as finite
evidence, never as a proof.

Modules: discount (weight families and horizon metrics), reward
(sequence families and run structure), value (U, V, and limit scans),
theorems (implication harnesses and counterexample constructions),
corpus (worked pairs, golden checks, randomized identity suites),
cli (command line front end).
"""

from __future__ import annotations

from .discount import (
    DiscountSpec,
    EnclosureAmbiguous,
    UndefinedMetric,
    alternating_zero,
    build_patched,
    cosine_modulated,
    custom,
    effective_horizon,
    finite,
    gamma,
    gamma_iv,
    gamma_tail,
    geometric,
    harmonic_like,
    horizon_ratio,
    power,
    quadratic,
    quasi_horizon,
    spec_from_dict,
    spec_to_dict,
    step_log,
)
from .intervals import IntegerInterval, Interval
from .reward import (
    RewardSpec,
    change_points,
    constant,
    custom_table,
    explicit_change_points,
    exponential_runs,
    lemma1_limits,
    lemma2_limits,
    linear_runs,
    periodic,
    reward_at,
    reward_from_dict,
    reward_to_dict,
)
from .theorems import (
    PremiseFailure,
    SearchBoundExceeded,
    VerificationReport,
    construct_prop1_reward,
    construct_prop2_reward,
    lemma4_diagnostics,
    verify_U_eq_V,
    verify_U_implies_V,
    verify_V_implies_U,
    verify_future_avg,
)
from .value import (
    InconclusiveEnclosure,
    LimitEstimate,
    ValueDetail,
    avg_value,
    avg_value_from,
    disc_value,
    disc_value_detail,
    dyadic_schedule,
    limit_scan,
)

__version__ = "0.1.0"

__all__ = [
    "DiscountSpec",
    "EnclosureAmbiguous",
    "IntegerInterval",
    "InconclusiveEnclosure",
    "Interval",
    "LimitEstimate",
    "PremiseFailure",
    "RewardSpec",
    "SearchBoundExceeded",
    "UndefinedMetric",
    "ValueDetail",
    "VerificationReport",
    "alternating_zero",
    "avg_value",
    "avg_value_from",
    "build_patched",
    "change_points",
    "constant",
    "construct_prop1_reward",
    "construct_prop2_reward",
    "cosine_modulated",
    "custom",
    "custom_table",
    "disc_value",
    "disc_value_detail",
    "dyadic_schedule",
    "effective_horizon",
    "explicit_change_points",
    "exponential_runs",
    "finite",
    "gamma",
    "gamma_iv",
    "gamma_tail",
    "geometric",
    "harmonic_like",
    "horizon_ratio",
    "lemma1_limits",
    "lemma2_limits",
    "lemma4_diagnostics",
    "limit_scan",
    "linear_runs",
    "periodic",
    "power",
    "quadratic",
    "quasi_horizon",
    "reward_at",
    "reward_from_dict",
    "reward_to_dict",
    "spec_from_dict",
    "spec_to_dict",
    "step_log",
    "verify_U_eq_V",
    "verify_U_implies_V",
    "verify_V_implies_U",
    "verify_future_avg",
]
