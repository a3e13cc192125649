"""Secrecy rate regions and finite-blocklength coding experiments for
broadcast channels with two legitimate receivers and an eavesdropper.

Importing the package loads none of its modules: each public name, and each
module named in ``_EXPORTS``, is imported on first access (PEP 562), so
``bccsec --help`` does not pay for numpy.
"""

import importlib

# Each module and the public names it defines.
_EXPORTS = {
    "limits": ("BudgetExceeded", "DimensionMismatch", "InvalidDistribution", "NegativeEntry",
               "SumNotOne"),
    "channels": ("DegradednessReport", "DiscreteChannel", "Pmf", "cascade",
                 "check_stochastic_degraded"),
    "coding": ("BinningCodebook", "CodeParams", "EquivocationReport", "SuperpositionCodebook",
               "TrialResult", "build_double_binning", "build_superposition", "decode_rx1",
               "decode_rx2", "encode_double_binning", "encode_superposition",
               "exact_equivocation", "run_error_experiment", "transmit"),
    "information": ("mutual_information",),
    "regions": ("GaussianParams", "RatePoint", "RegionFrontier", "capacity_fn",
                "degraded_rate_pair", "degraded_rate_terms", "degraded_region_inner",
                "gaussian_region_point", "general_inner_bound", "general_rate_corners",
                "general_rate_terms", "simplex_grid", "upper_right_hull",
                "wiretap_secrecy_capacity"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
