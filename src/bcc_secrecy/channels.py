"""Finite-alphabet probability primitives.

Alphabets are index sets ``0..k-1``.  Probability vectors and channel
matrices (a broadcast channel is kept as its three marginal matrices) are
stored as read-only float64 arrays and validated on construction: entries
must be nonnegative and sums must equal 1 within ``SUM_TOL``.  Everything
here is a pure function of its inputs, so values can be shared freely.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-9
DEGRADED_TOL = 1e-7
# Entry types that _check_numbers accepts; bool, an int subclass, is excluded there.
_REAL = (int, float, np.integer, np.floating)


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


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    if not mask.any():
        return None
    return tuple(int(v) for v in np.argwhere(mask)[0])


def _position(idx: tuple[int, ...]) -> str:
    if len(idx) == 2:
        return f"row {idx[0]}, column {idx[1]}"
    return f"index {idx[0] if len(idx) == 1 else idx}"


def _check_numbers(value, what: str) -> np.ndarray:
    """`value` as a float64 array if it holds only real numbers; never coerced.

    An ndarray is judged by its dtype, integer or floating, and is not
    copied when it is float64 already.  Anything else is judged entry by
    entry: Python and numpy ints and floats pass; bools, strings, None,
    ragged rows, complex values and ints beyond the float range do not.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iuf":
            return np.asarray(value, dtype=np.float64)
        raise InvalidDistribution(f"{what} must be an array of numbers, got dtype {value.dtype}")
    try:
        cells = np.array(value, dtype=object)
        if all(isinstance(c, _REAL) and not isinstance(c, bool) for c in cells.flat):
            return cells.astype(np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidDistribution(f"{what} must be an array of numbers, got {value!r}")


def _check_sizes(got, expected, what: str) -> None:
    """Raise DimensionMismatch naming both sides unless `got` equals `expected`."""
    if got != expected:
        raise DimensionMismatch(f"{what}: got {got}, expected {expected}")


def _check_stochastic(value, ndim: int, lead: int, what: str, part: str = "row") -> np.ndarray:
    """A new float64 array of `value`, once it is a nonempty `ndim`-axis stochastic array.

    The first `lead` axes index the slices (lead 0: one pmf).  Raises on the
    first non-finite or negative entry, or slice not summing to 1, naming
    the array, the offending index or the slice (`part`).  Signs are checked
    before sums, so -1e-12 is rejected even when the sum is within tolerance.
    """
    arr = np.array(_check_numbers(value, what))
    if arr.ndim != ndim or arr.size == 0:
        shape = arr.shape
        raise DimensionMismatch(f"{what} must have {ndim} axes and be nonempty, got shape {shape}")
    idx = _first(~np.isfinite(arr))
    if idx is not None:
        raise InvalidDistribution(f"non-finite entry in {what} at {_position(idx)}")
    idx = _first(arr < 0.0)
    if idx is not None:
        raise NegativeEntry(f"entry {float(arr[idx])!r} at {_position(idx)} of {what} is negative")
    sums = np.atleast_1d(arr.reshape(arr.shape[:lead] + (-1,)).sum(axis=-1))
    idx = _first(np.abs(sums - 1.0) > SUM_TOL)
    if idx is not None:
        where = f"{part} {idx[0] if lead == 1 else idx} of {what}" if lead else what
        raise SumNotOne(f"{where} sums to {float(sums[idx])!r}, expected 1 within {SUM_TOL}")
    return arr


def _check_integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """`value` if it is an int, not a bool, within [low, high]; never coerced.

    numpy integers are rejected too: checked parameters end up in JSON.
    """
    sign = {0: "nonnegative", 1: "positive"}.get(low) if high is None else None
    if isinstance(value, bool) or not isinstance(value, int):
        kind = f"a {sign} integer" if sign else "an integer"
        raise InvalidDistribution(f"{name} must be {kind}, got {value!r}")
    if low is not None and not (low <= value and (high is None or value <= high)):
        rule = f"lie in [{low}, {high}]" if high is not None else f"be {sign or f'at least {low}'}"
        raise InvalidDistribution(f"{name} must {rule}, got {value!r}")
    return value


def _check_finite(value, name: str, low=None, high=None, strict: bool = False) -> float:
    """`value` as a float if it is a finite int or float, not a bool, in range (_check_range)."""
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    # The comparison is False for NaN, for infinities and for integers beyond the float range.
    if not (numeric and abs(value) <= sys.float_info.max):
        raise InvalidDistribution(f"{name} must be a finite number, got {value!r}")
    if low is not None:
        _check_range(np.array(float(value)), name, low, high, strict)
    return float(value)


def _check_range(values, name: str, low, high=None, strict=False, finite=False) -> np.ndarray:
    """`values` by _check_numbers, once all lie in [low, high], or (low, high] if `strict`.

    No bound is set above when `high` is None.  NaN is always outside, and
    infinities are too when `finite`.  One comparison runs per bound.
    """
    values = _check_numbers(values, name)
    inside = values > low if strict else values >= low
    if high is not None or finite:
        inside &= values <= (sys.float_info.max if high is None else high)
    if inside.all():
        return values
    bad = float(values.flat[inside.argmin()])
    if finite and not np.isfinite(bad):
        raise InvalidDistribution(f"non-finite {name}, got {bad!r}")
    sign = f"{'above' if strict else 'at least'} {low}"
    sign = {0: "positive" if strict else "nonnegative"}.get(low, sign)
    rule = f"lie in {'(' if strict else '['}{low}, {high}]" if high is not None else f"be {sign}"
    raise InvalidDistribution(f"{name} must {rule}, got {bad!r}")


def _check_symbols(values, k: int, what: str, alphabet: str = "") -> np.ndarray:
    """`values` as int64, once each is an integer in [0, k); never truncated."""
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise InvalidDistribution(f"{what} must be integers, got dtype {values.dtype}")
    if values.size and not (0 <= values.min() and values.max() < k):
        raise InvalidDistribution(f"{what} outside {alphabet}[0, {k})")
    return values.astype(np.int64, copy=False)


def _count_text(count: int) -> str:
    """`count` in digits below 10**15, else as 2^k or its three leading digits and exponent.

    Large counts are never converted whole or through float, so a count
    of any size prints in a few characters.
    """
    if count < 10**15:
        return str(count)
    if count & (count - 1) == 0:
        return f"2^{count.bit_length() - 1}"
    exponent = int(math.log10(count))  # log10 of a huge int may be one off
    exponent += (10 ** (exponent + 1) <= count) - (10**exponent > count)
    lead = count // 10 ** (exponent - 2)
    return f"{lead // 100}.{lead % 100:02d}e{exponent}"


def _check_budget(total: int, budget: int, what: str, *counts: int) -> None:
    """Raise BudgetExceeded when `total` exceeds `budget`, before anything is allocated.

    The message is `what` with each `{}` filled by the next of `counts`,
    then the budget, all in _count_text's short form.
    """
    if total > _check_integer(budget, "budget", 0):
        described = what.format(*map(_count_text, counts))
        raise BudgetExceeded(f"{described} exceed budget {_count_text(budget)}")


def _check_shared_input(*channels: DiscreteChannel) -> int:
    """The input alphabet size that all `channels` share; DimensionMismatch if they differ."""
    sizes = [ch.input_size for ch in channels]
    _check_sizes(sizes, sizes[:1] * len(sizes), "channels disagree on the input alphabet")
    return sizes[0]


def _freeze(obj, name, arr):
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        _freeze(self, "probs", _check_stochastic(self.probs, 1, 0, "pmf"))

    @property
    def alphabet_size(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def uniform(cls, k: int) -> "Pmf":
        _check_integer(k, "alphabet size", 1)
        return cls(np.full(k, 1.0 / k))


@dataclass(frozen=True, eq=False)
class DiscreteChannel:
    """Row-stochastic transition matrix P(output | input), indexed [input][output]."""

    matrix: np.ndarray

    def __post_init__(self):
        _freeze(self, "matrix", _check_stochastic(self.matrix, 2, 1, "channel matrix"))

    @property
    def input_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def output_size(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def binary_symmetric(cls, crossover: float) -> "DiscreteChannel":
        p = _check_finite(crossover, "crossover probability", 0, 1)
        return cls(np.array([[1.0 - p, p], [p, 1.0 - p]]))


@dataclass(frozen=True)
class DegradednessReport:
    """Outcome of a stochastic-degradedness search.

    `residual` is the max-norm reconstruction error of the best intermediate
    found; `feasible` means it is within DEGRADED_TOL.  `intermediate` is the
    recovered row-stochastic matrix (None only if the solver failed outright).
    """

    feasible: bool
    residual: float
    intermediate: DiscreteChannel | None


def cascade(first: DiscreteChannel, second: DiscreteChannel) -> DiscreteChannel:
    """Compose two channels in series (matrix product, row-stochastic)."""
    _check_sizes(second.input_size, first.output_size, "cascade: second inputs vs first outputs")
    return DiscreteChannel(first.matrix @ second.matrix)


def check_stochastic_degraded(
    stronger: DiscreteChannel, weaker: DiscreteChannel
) -> DegradednessReport:
    """Search for a row-stochastic M with stronger . M ~ weaker.

    The search is a linear program: minimize t subject to
    |(stronger @ M - weaker)[x, j]| <= t for all entries, M >= 0, and unit
    row sums.  The optimum t is the smallest achievable max-norm residual,
    so feasibility (residual <= DEGRADED_TOL) is decided exactly up to solver
    tolerance.  The feasible set can be a polytope; one point of it is
    returned, with no uniqueness claim.
    """
    from scipy.optimize import linprog  # deferred: the import costs more than most commands

    _check_shared_input(stronger, weaker)
    a = stronger.matrix
    b = weaker.matrix
    n_mid = stronger.output_size
    n_out = weaker.output_size
    n_var = n_mid * n_out + 1  # vec(M) row-major, then the residual bound t

    cost = np.zeros(n_var)
    cost[-1] = 1.0

    # (stronger @ M)[x, j] = sum_i a[x, i] M[i, j]; kron picks column j of every row.
    g = np.kron(a, np.eye(n_out))
    ones = np.ones((g.shape[0], 1))
    a_ub = np.vstack([np.hstack([g, -ones]), np.hstack([-g, -ones])])
    b_ub = np.concatenate([b.ravel(), -b.ravel()])

    a_eq = np.zeros((n_mid, n_var))
    for i in range(n_mid):
        a_eq[i, i * n_out : (i + 1) * n_out] = 1.0
    b_eq = np.ones(n_mid)

    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    if not res.success:
        return DegradednessReport(feasible=False, residual=float("inf"), intermediate=None)

    m = np.clip(res.x[:-1].reshape(n_mid, n_out), 0.0, None)
    m /= m.sum(axis=1, keepdims=True)
    residual = float(np.max(np.abs(a @ m - b)))
    return DegradednessReport(
        feasible=residual <= DEGRADED_TOL,
        residual=residual,
        intermediate=DiscreteChannel(m),
    )
