"""Finite-alphabet probability primitives.

Alphabets are index sets ``0..k-1``.  Probability vectors and channel
matrices are stored as read-only float64 arrays and validated on
construction: entries must be nonnegative and sums must equal 1 within
``SUM_TOL``.  Everything here is a pure function of its inputs, so values
can be shared freely across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-9
DEGRADED_TOL = 1e-7


class InvalidDistribution(ValueError):
    """A probability vector, matrix, or tensor violates an invariant."""


class NegativeEntry(InvalidDistribution):
    """A probability entry is below zero."""


class SumNotOne(InvalidDistribution):
    """Probabilities do not sum to one within tolerance."""


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


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


def _check_stochastic(arr: np.ndarray, lead: int, what: str, part: str = "row") -> None:
    """Raise on the first non-finite or negative entry, or slice not summing to 1.

    The first `lead` axes index the slices (lead 0: one pmf).  Messages name
    the array, the offending index or the slice (`part`).  Signs are checked
    before sums, so -1e-12 is rejected even when the sum is within tolerance.
    """
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


def validate_pmf(probs) -> None:
    """Check the pmf invariants, raising on the first violation.

    Raises NegativeEntry or SumNotOne naming the offending index or total.
    """
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidDistribution(f"expected a nonempty 1-d vector, got shape {arr.shape}")
    _check_stochastic(arr, 0, "pmf")


def _freeze(obj, name, arr):
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        validate_pmf(arr)
        _freeze(self, "probs", arr)

    @property
    def alphabet_size(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def uniform(cls, k: int) -> "Pmf":
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def point_mass(cls, k: int, index: int) -> "Pmf":
        probs = np.zeros(k)
        probs[index] = 1.0
        return cls(probs)


@dataclass(frozen=True)
class DiscreteChannel:
    """Row-stochastic transition matrix P(output | input), indexed [input][output]."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidDistribution(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
        _check_stochastic(arr, 1, "channel matrix")
        _freeze(self, "matrix", arr)

    @property
    def input_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def output_size(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def identity(cls, k: int) -> "DiscreteChannel":
        return cls(np.eye(k))

    @classmethod
    def binary_symmetric(cls, crossover: float) -> "DiscreteChannel":
        p = float(crossover)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"crossover probability {p!r} outside [0, 1]")
        return cls(np.array([[1.0 - p, p], [p, 1.0 - p]]))

    @classmethod
    def constant_rows(cls, row, n_inputs: int) -> "DiscreteChannel":
        """Channel whose output ignores the input (every row equals `row`)."""
        r = np.asarray(row, dtype=np.float64)
        return cls(np.tile(r, (n_inputs, 1)))


@dataclass(frozen=True)
class BroadcastChannel:
    """One-input, three-output channel P(y1, y2, z | x) as a rank-4 tensor."""

    joint: np.ndarray

    def __post_init__(self):
        arr = np.array(self.joint, dtype=np.float64)
        if arr.ndim != 4 or arr.size == 0:
            raise InvalidDistribution(f"expected a rank-4 tensor, got shape {arr.shape}")
        _check_stochastic(arr, 1, "broadcast tensor", part="slice for input")
        _freeze(self, "joint", arr)

    @property
    def input_size(self) -> int:
        return self.joint.shape[0]

    @classmethod
    def from_marginals(
        cls, py1x: DiscreteChannel, py2x: DiscreteChannel, pzx: DiscreteChannel
    ) -> "BroadcastChannel":
        """Product tensor P(y1|x) P(y2|x) P(z|x) with the given marginals."""
        if not (py1x.input_size == py2x.input_size == pzx.input_size):
            raise DimensionMismatch("marginal channels disagree on the input alphabet")
        joint = np.einsum("xa,xb,xc->xabc", py1x.matrix, py2x.matrix, pzx.matrix)
        return cls(joint)


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
    if first.output_size != second.input_size:
        raise DimensionMismatch(
            f"cannot cascade: first has {first.output_size} outputs, "
            f"second expects {second.input_size} inputs"
        )
    return DiscreteChannel(first.matrix @ second.matrix)


_MARGINAL_AXES = {"y1": (2, 3), "y2": (1, 3), "z": (1, 2)}


def marginal_channel(bcc: BroadcastChannel, which: str) -> DiscreteChannel:
    """Extract the single-receiver marginal P(y1|x), P(y2|x), or P(z|x)."""
    key = which.lower()
    if key not in _MARGINAL_AXES:
        raise ValueError(f"which must be one of 'y1', 'y2', 'z'; got {which!r}")
    return DiscreteChannel(bcc.joint.sum(axis=_MARGINAL_AXES[key]))


def check_stochastic_degraded(
    stronger: DiscreteChannel, weaker: DiscreteChannel, tol: float = DEGRADED_TOL
) -> DegradednessReport:
    """Search for a row-stochastic M with stronger . M ~ weaker.

    The search is a linear program: minimize t subject to
    |(stronger @ M - weaker)[x, j]| <= t for all entries, M >= 0, and unit
    row sums.  The optimum t is the smallest achievable max-norm residual,
    so feasibility (residual <= tol) is decided exactly up to solver
    tolerance.  The feasible set can be a polytope; one point of it is
    returned, with no uniqueness claim.
    """
    from scipy.optimize import linprog  # deferred: the import costs more than most commands

    if stronger.input_size != weaker.input_size:
        raise DimensionMismatch(
            f"channels disagree on the input alphabet: "
            f"{stronger.input_size} vs {weaker.input_size}"
        )
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
        feasible=residual <= tol,
        residual=residual,
        intermediate=DiscreteChannel(m),
    )
