"""Acceptance-maximizing collective decisions over (rule, outcome) pairs."""

from .core import (
    Decision,
    GenericInstance,
    OracleResult,
    RuleRef,
    SatisfyingSpec,
    SolveReport,
    ValidationError,
    accepts,
    max_accept,
    oracle_max_accept,
    substitute_absolute_disjunctivist,
)
from .adc import (
    AdcAgent,
    AdcInstance,
    adc_to_generic,
    delta_of,
    majority_threshold,
    threshold_family,
    threshold_of,
)
from .amendment import (
    AmendmentInstance,
    AmendmentTrace,
    OneStepReport,
    VotePolicy,
    amend_iterative,
    amend_one_step,
    check_universal_acceptance,
    h_threshold,
    induce_profile,
)
from .bounds import BoundsReport, CLASSES, table1_formula, worst_case_rate

__version__ = "0.1.0"

__all__ = [
    "AdcAgent",
    "AdcInstance",
    "AmendmentInstance",
    "AmendmentTrace",
    "BoundsReport",
    "CLASSES",
    "Decision",
    "GenericInstance",
    "OneStepReport",
    "OracleResult",
    "RuleRef",
    "SatisfyingSpec",
    "SolveReport",
    "ValidationError",
    "VotePolicy",
    "accepts",
    "adc_to_generic",
    "amend_iterative",
    "amend_one_step",
    "check_universal_acceptance",
    "delta_of",
    "h_threshold",
    "induce_profile",
    "majority_threshold",
    "max_accept",
    "oracle_max_accept",
    "substitute_absolute_disjunctivist",
    "table1_formula",
    "threshold_family",
    "threshold_of",
    "worst_case_rate",
]
