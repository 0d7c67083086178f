"""Numerical laboratory for probabilistic Josephus elimination games.

Exact survival distributions by dynamic programming, an exhaustive
rational-arithmetic oracle, seeded Monte Carlo simulation, and statistical
checks of the limiting behaviour (concentration, exponential decay bounds,
moment scaling, and a central limit theorem for the unbiased rule).
"""

__version__ = "0.1.0"

from .analysis import (
    CltReport,
    DecayBoundFit,
    MomentTable,
    clt_experiment,
    concentration_mass,
    decay_bound_check,
    decay_params_feasible,
    eta,
    expectation_functional,
    moment_report,
    moment_scaling_check,
    second_moment_sum_check,
    unbiased_decay_check,
)
from .deterministic import (
    generating_series_coefficients,
    survivor_binary_rotation,
    survivor_closed_form,
    survivor_recurrence,
    survivor_sequence,
)
from .distributions import SurvivalDistribution
from .dp import (
    r1_distribution,
    r2_distribution,
    r3_distribution,
)
from .errors import (
    CheckFailure,
    DomainError,
    EnumerationCapError,
    InvalidStateError,
    JosephusError,
)
from .rules import RuleKind, RuleSpec
from .simulate import (
    ProcessState,
    empirical_distribution,
    initial_state,
    oracle_distribution,
    sample_survivor,
    step,
)

__all__ = [
    "__version__",
    "CltReport",
    "DecayBoundFit",
    "MomentTable",
    "SurvivalDistribution",
    "RuleKind",
    "RuleSpec",
    "ProcessState",
    "JosephusError",
    "DomainError",
    "EnumerationCapError",
    "InvalidStateError",
    "CheckFailure",
    "survivor_recurrence",
    "survivor_closed_form",
    "survivor_binary_rotation",
    "survivor_sequence",
    "generating_series_coefficients",
    "r1_distribution",
    "r2_distribution",
    "r3_distribution",
    "initial_state",
    "step",
    "oracle_distribution",
    "sample_survivor",
    "empirical_distribution",
    "expectation_functional",
    "eta",
    "concentration_mass",
    "moment_report",
    "decay_params_feasible",
    "decay_bound_check",
    "unbiased_decay_check",
    "moment_scaling_check",
    "second_moment_sum_check",
    "clt_experiment",
]
