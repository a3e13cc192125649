"""The package's limits: the default grid resolution, the enumeration budgets
and the auxiliary cardinality cap, and the exceptions raised when an input
breaks an invariant or a budget.

This module imports nothing, so the command line can build its options and
catch these errors before a command body loads numpy and the library.
"""

DEFAULT_RESOLUTION = 0.05
DEFAULT_BUDGET = 5_000_000
MAX_AUX_CARD = 12
DEFAULT_CODEBOOK_SYMBOL_BUDGET = 1 << 22
DEFAULT_Z_SEQUENCE_BUDGET = 1 << 20
DEFAULT_COMBO_BUDGET = 1 << 16


class InvalidDistribution(ValueError):
    """A malformed input: a probability array that violates an invariant, or a bad scalar."""


class NegativeEntry(InvalidDistribution):
    """A probability entry is below zero."""


class SumNotOne(InvalidDistribution):
    """Probabilities do not sum to one within tolerance."""


class DimensionMismatch(InvalidDistribution):
    """Operand shapes or alphabet sizes are incompatible."""


class BudgetExceeded(RuntimeError):
    """A configured enumeration or memory budget would be exceeded."""
