"""Exact maximin-share fair division: protocols, impossibility instances, oracles."""

from .core import (
    Allocation,
    BudgetExceeded,
    Instance,
    ItemSet,
    Partition,
    PreconditionViolation,
    SubadditivityViolation,
    guarantee_dominates,
    validate_allocation,
)
from .cuts import CutResult, desired_half, max_desired_half
from .mms import MmsResult, min_value, mms_value, verify_alpha_mms_P, verify_alpha_mms_d
from .oracle import SearchBudget, best_alpha, exists_alpha_mms
from .protocols import (
    ImpossibilityReference,
    ProtocolCertificate,
    cut_and_choose_two,
    disjoint_extension,
    dispatch,
    dispatch_three,
    extend_cut_and_choose,
    four_agents_3344,
    three_agents_322,
    three_agents_431,
    three_agents_422,
    three_agents_521,
    two_types,
)
from .valuations import (
    AdditiveValuation,
    BundleMaxValuation,
    TableValuation,
    ValuationOracle,
    XOSValuation,
    is_monotone,
    is_subadditive,
    is_submodular,
    random_valuation,
    third_transform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
