"""Exact asymptotic series for time-delay statistics of absorbing chaotic cavities.

The package computes, in exact rational-function arithmetic, the three
asymptotic expansions (large channel number, weak absorption, strong
absorption) of Schur moments, trace moments and Wigner-time-delay cumulants
of the absorption time-delay operator of a chaotic cavity with broken
time-reversal symmetry.

Public API
----------
- :class:`Partition`, a validated tuple of parts, and the combinatorial
  primitives in :mod:`delaymoments.partitions`; `enumerate_partitions`
  returns a cached tuple
- :class:`Polynomial`, :class:`RationalFunction`, :class:`TruncatedSeries`
- :func:`reflection_schur_moment`, :func:`delay_schur_moment`
- :func:`power_sum_moment`, :func:`wigner_moment`, :func:`cumulant`,
  :func:`variance`, :func:`validate_conjectures`
- :class:`Check` and :class:`CheckResult`, shared by the reference checks
  and the conjecture validators
- the `delaymoments` command line tool (see :mod:`delaymoments.cli`)
"""

from .algebra import (
    COEFF_SYMBOL,
    SYM_G,
    SYM_M,
    VAR_GAMMA,
    VAR_INV_GAMMA,
    VAR_INV_M,
    VARIABLES,
    PoleError,
    Polynomial,
    RationalFunction,
    SeriesOrderError,
    TruncatedSeries,
    VariableMismatchError,
)
from .engine import (
    InternalConsistencyError,
    binomial_determinant,
    delay_schur_moment,
    geometric_determinant,
    reflection_schur_moment,
    rising_factorial,
)
from .partitions import (
    ContainmentError,
    Partition,
    WeightMismatchError,
    class_size,
    contains,
    content_product,
    dimension,
    durfee,
    enumerate_partitions,
    subpartitions,
)
from .stats import (
    Check,
    CheckResult,
    RegimeRequest,
    StatisticRequest,
    compute_statistic,
    cumulant,
    power_sum_moment,
    validate_conjectures,
    variance,
    wigner_moment,
)

__version__ = "0.1.0"

__all__ = [
    "COEFF_SYMBOL", "SYM_G", "SYM_M",
    "VAR_GAMMA", "VAR_INV_GAMMA", "VAR_INV_M", "VARIABLES",
    "ContainmentError", "InternalConsistencyError",
    "PoleError", "SeriesOrderError", "VariableMismatchError",
    "WeightMismatchError",
    "Partition", "Polynomial", "RationalFunction", "TruncatedSeries",
    "RegimeRequest", "StatisticRequest", "Check", "CheckResult",
    "binomial_determinant", "class_size",
    "compute_statistic", "contains", "content_product", "cumulant",
    "delay_schur_moment", "dimension", "durfee",
    "enumerate_partitions", "geometric_determinant",
    "power_sum_moment", "reflection_schur_moment", "rising_factorial",
    "subpartitions", "validate_conjectures", "variance", "wigner_moment",
    "__version__",
]
