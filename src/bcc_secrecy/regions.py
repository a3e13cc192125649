"""Achievable secrecy-rate regions for two-receiver broadcast channels.

Three computations are provided, all in bits per channel use:

* ``general_inner_bound``: the double-binning inner bound for arbitrary
  discrete channels, driven by a pair of auxiliary variables (V1, V2).
  Each auxiliary candidate yields a pentagon {r1 <= A, r2 <= B,
  r1 + r2 <= S}; its two dominant corners are collected and hulled.
* ``degraded_region_inner``: the layered (cloud/satellite) region for
  degraded channels, driven by a single auxiliary U.
* ``gaussian_region_point`` / ``gaussian_region_sweep``: the closed-form
  power-split region for the additive-Gaussian family, parameterized by
  the fraction ``alpha`` of power spent on the first receiver's layer.

Auxiliary distributions are searched on an explicit simplex grid: every
probability vector whose entries are integer multiples of the resolution
step.  The search is exhaustive and reproducible; its accuracy is
grid-limited and candidate counts are capped by an explicit budget rather
than silently truncated.  Both region searches share one search loop:
the budget is checked before any grid is built, each outer-grid step's
candidates go through a running Pareto filter, and one hull runs on the
survivors.  Candidates are independent, so the result does not depend on
evaluation order.

Negative values of the rate formulas are clamped to zero pointwise: a
negative bound just means that candidate contributes nothing in that
coordinate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .channels import BudgetExceeded, DimensionMismatch, DiscreteChannel, Pmf, validate_pmf
from .information import entropy_last_axis

DEFAULT_RESOLUTION = 0.05
DEFAULT_BUDGET = 5_000_000
MAX_AUX_CARD = 12


class RatePoint(NamedTuple):
    """An achievable rate pair, bits per channel use."""

    r1: float
    r2: float


@dataclass(frozen=True)
class RegionFrontier:
    """Pareto-maximal boundary of a rate region, sorted by r1 ascending.

    When ``hulled`` is true the points, together with the origin and the
    axis feet (max r1, 0) and (0, max r2), are in convex position: the
    region is their convex hull, closed downward (time sharing included).
    """

    points: list[RatePoint]
    hulled: bool

    def as_array(self) -> np.ndarray:
        return np.array([[p.r1, p.r2] for p in self.points], dtype=np.float64)

    @property
    def max_r1(self) -> float:
        return max(p.r1 for p in self.points)

    @property
    def max_r2(self) -> float:
        return max(p.r2 for p in self.points)


@dataclass(frozen=True)
class GaussianParams:
    """Average power constraint and the three noise variances, weakest last."""

    power: float
    n1: float
    n2: float
    n3: float

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError(f"power must be positive, got {self.power!r}")
        if not 0 < self.n1 <= self.n2 <= self.n3:
            raise ValueError(
                f"noise variances must satisfy 0 < n1 <= n2 <= n3, "
                f"got ({self.n1!r}, {self.n2!r}, {self.n3!r})"
            )


@dataclass(frozen=True)
class AuxGridSpec:
    """Grid over auxiliary distributions.

    Cardinalities default to the channel input alphabet size when None.
    ``resolution`` must be the reciprocal of a positive integer; the grid
    holds every probability vector with entries on that lattice.  When
    ``deterministic_x`` is set, the map from auxiliaries to the channel
    input ranges over deterministic functions only (any stochastic map is
    a convex combination reachable by enlarging the auxiliaries).
    """

    u_card: int | None = None
    v1_card: int | None = None
    v2_card: int | None = None
    resolution: float = DEFAULT_RESOLUTION
    deterministic_x: bool = True

    def __post_init__(self):
        if not 0.0 < self.resolution <= 1.0:
            raise ValueError(f"resolution must lie in (0, 1], got {self.resolution!r}")
        steps = round(1.0 / self.resolution)
        if steps < 1 or abs(1.0 / self.resolution - steps) > 1e-9:
            raise ValueError(f"resolution must be 1/k for integer k, got {self.resolution!r}")
        for name in ("u_card", "v1_card", "v2_card"):
            card = getattr(self, name)
            if card is not None and not 1 <= card <= MAX_AUX_CARD:
                raise ValueError(f"{name} must lie in [1, {MAX_AUX_CARD}], got {card!r}")

    @property
    def steps(self) -> int:
        return round(1.0 / self.resolution)


def capacity_fn(snr: float | np.ndarray) -> float | np.ndarray:
    """Gaussian capacity 0.5 * log2(1 + snr), bits per use, elementwise on an array.

    Logs are math.log2 per element; np.log2 can differ in the last ulp.
    """
    values = np.asarray(snr, dtype=np.float64)
    if np.any(values < 0):
        raise ValueError(f"snr must be nonnegative, got {float(values[values < 0][0])!r}")
    caps = np.array([0.5 * math.log2(1.0 + s) for s in values.ravel().tolist()])
    return float(caps[0]) if values.ndim == 0 else caps.reshape(values.shape)


def gaussian_region_point(g: GaussianParams, alpha: float | np.ndarray) -> RatePoint:
    """Rate pair for power split alpha (first layer) vs 1 - alpha (second).

    Given an array of alphas, r1 and r2 are arrays of the same shape, each
    element equal to the scalar result.  r1 is evaluated as
    C(aP/N1) - C(aP/N3); the power-split identity
    C(aP/N) + C((1-a)P/(aP+N)) = C(P/N) shows this equals the three-term
    form C(aP/N1) + C((1-a)P/(aP+N3)) - C(P/N3).  The difference form is
    monotone in the noise ordering, so both coordinates are nonnegative in
    floating point without clamping.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    outside = ~((alpha >= 0.0) & (alpha <= 1.0))
    if np.any(outside):
        raise ValueError(f"alpha must lie in [0, 1], got {float(alpha[outside][0])!r}")
    p = g.power
    r1 = capacity_fn(alpha * p / g.n1) - capacity_fn(alpha * p / g.n3)
    r2 = capacity_fn((1.0 - alpha) * p / (alpha * p + g.n2)) - capacity_fn(
        (1.0 - alpha) * p / (alpha * p + g.n3)
    )
    return RatePoint(r1, r2)


def gaussian_region_sweep(g: GaussianParams, num_alphas: int = 101) -> RegionFrontier:
    """Evaluate the closed form on a uniform alpha grid and Pareto-filter.

    The grid {0, 1/(k-1), ..., 1} always contains both endpoints.  No
    convex hull is applied (the closed-form frontier is already concave).
    """
    if num_alphas < 2:
        raise ValueError(f"num_alphas must be at least 2, got {num_alphas!r}")
    points = np.column_stack(gaussian_region_point(g, np.linspace(0.0, 1.0, num_alphas)))
    front = _pareto(points)
    return RegionFrontier(points=[RatePoint(float(x), float(y)) for x, y in front], hulled=False)


def _pareto(arr: np.ndarray) -> np.ndarray:
    """Deduplicated Pareto-maximal points, sorted by r1 ascending.

    Visiting rows r1 descending (ties: r2 descending), keep each row whose
    r2 strictly exceeds every r2 before it.
    """
    arr = np.asarray(arr, dtype=np.float64)
    desc = arr[np.lexsort((arr[:, 1], arr[:, 0]))[::-1]]
    prior_best = np.maximum.accumulate(np.concatenate(([-np.inf], desc[:, 1])))[:-1]
    return desc[desc[:, 1] > prior_best][::-1]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _rate_points(points) -> np.ndarray:
    """Candidate rate pairs as an (N, 2) array, rejecting non-finite or negative ones."""
    arr = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite rate point")
    if np.any(arr < 0.0):
        raise ValueError("rate points must be nonnegative")
    return arr


def upper_right_hull(points: Sequence[RatePoint] | np.ndarray) -> RegionFrontier:
    """Pareto-maximal vertices of the convex hull of the points and (0, 0).

    Only the Pareto staircase can hold them: one monotone chain runs over
    it r1 descending, then the origin, which is dropped at the end.
    """
    arr = _rate_points(points)
    if arr.size == 0:
        raise ValueError("empty point set")
    origin = [0.0, 0.0]
    chain: list[list[float]] = []
    for p in _pareto(np.vstack([arr, origin]))[::-1].tolist() + [origin]:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return RegionFrontier(points=[RatePoint(x, y) for x, y in chain[-2::-1]], hulled=True)


def _check_budget(n_outer: int, n_inner: int, budget: int) -> None:
    total = n_outer * n_inner
    if total > budget:
        raise BudgetExceeded(
            f"grid too large: {n_outer} x {n_inner} = {total} candidates exceed budget {budget}"
        )


def _search(n_outer: int, n_inner: int, budget: int, chunks: Iterator) -> RegionFrontier:
    """Hull over the rate pairs that `chunks` yields, after one budget check.

    `chunks` is a generator, so its grids are built only after the check
    passes.  The running Pareto staircase is all the final hull needs.
    """
    _check_budget(n_outer, n_inner, budget)
    front = np.zeros((1, 2))
    for points in chunks:
        front = _pareto(np.vstack([front, _rate_points(points)]))
    return upper_right_hull(front)


def simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All pmfs over `dim` outcomes with entries that are multiples of 1/steps."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim!r}")
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps!r}")
    rows = list(_compositions(steps, dim))
    return np.array(rows, dtype=np.float64) / steps


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def _simplex_count(dim: int, steps: int) -> int:
    return math.comb(steps + dim - 1, dim - 1)


def _row_product(rows: np.ndarray, n_inputs: int) -> np.ndarray:
    """Every conditional P(out | in) whose rows are drawn from `rows`."""
    g = len(rows)
    idx = np.indices((g,) * n_inputs).reshape(n_inputs, -1).T
    return rows[idx]


def _check_shared_input(*channels: DiscreteChannel) -> int:
    sizes = {ch.input_size for ch in channels}
    if len(sizes) != 1:
        raise DimensionMismatch(f"channels disagree on the input alphabet: {sorted(sizes)}")
    return sizes.pop()


def _mi_from_joint(joint: np.ndarray) -> np.ndarray:
    """I(A;B) = H(A) + H(B) - H(A,B) for batched 2-d joints (..., a, b)."""
    ha = entropy_last_axis(joint.sum(axis=-1))
    hb = entropy_last_axis(joint.sum(axis=-2))
    hab = entropy_last_axis(joint.reshape(joint.shape[:-2] + (-1,)))
    return ha + hb - hab


def _mi_rows(pu, rows, h_rows):
    """I(U;Y) per candidate from P(y|u) rows (C, U, Y) and their entropies (C, U)."""
    return entropy_last_axis(np.einsum("u,cuy->cy", pu, rows)) - np.einsum("u,cu->c", pu, h_rows)


def _degraded_rows(pxu_batch, my1, my2, mz):
    """The terms of the layered kernel that do not depend on P(u).

    For (C, U, X) conditionals: P(y2|u) (C, U, Y2) and, per (candidate, u),
    H(Y2|U=u), H(Z|U=u) and I(X;Y1|U=u).
    """
    uy2 = pxu_batch @ my2
    i_xy1_rows = entropy_last_axis(pxu_batch @ my1) - pxu_batch @ entropy_last_axis(my1)
    return uy2, entropy_last_axis(uy2), entropy_last_axis(pxu_batch @ mz), i_xy1_rows


def _degraded_rate_arrays(pu, pxu_batch, mz, rows):
    """Clamped (r1, r2) pairs (C, 2) for one cloud distribution pu (U,).

    r1 = I(X;Y1|U) + I(U;Z) - I(X;Z),  r2 = I(U;Y2) - I(U;Z).
    """
    uy2, h_uy2, h_uz, i_xy1_rows = rows
    px = np.einsum("u,cux->cx", pu, pxu_batch)
    h_z = entropy_last_axis(px @ mz)
    i_xz = h_z - px @ entropy_last_axis(mz)
    i_uz = h_z - np.einsum("u,cu->c", pu, h_uz)
    i_uy2 = _mi_rows(pu, uy2, h_uy2)
    i_xy1_u = np.einsum("u,cu->c", pu, i_xy1_rows)
    r1 = np.maximum(i_xy1_u + i_uz - i_xz, 0.0)
    r2 = np.maximum(i_uy2 - i_uz, 0.0)
    return np.column_stack([r1, r2])


def degraded_rate_pair(
    pu: Pmf,
    pxu: DiscreteChannel,
    py1x: DiscreteChannel,
    py2x: DiscreteChannel,
    pzx: DiscreteChannel,
) -> RatePoint:
    """Clamped rate pair contributed by one (P(u), P(x|u)) candidate."""
    _check_shared_input(py1x, py2x, pzx)
    if pu.alphabet_size != pxu.input_size:
        raise DimensionMismatch("cloud distribution does not match the conditional's input")
    if pxu.output_size != py1x.input_size:
        raise DimensionMismatch("conditional output does not match the channel input")
    batch = pxu.matrix[None]
    rows = _degraded_rows(batch, py1x.matrix, py2x.matrix, pzx.matrix)
    return RatePoint(*_degraded_rate_arrays(pu.probs, batch, pzx.matrix, rows)[0].tolist())


def degraded_region_inner(
    py1x: DiscreteChannel,
    py2x: DiscreteChannel,
    pzx: DiscreteChannel,
    grid: AuxGridSpec = AuxGridSpec(),
    budget: int = DEFAULT_BUDGET,
) -> RegionFrontier:
    """Layered-scheme region: hull over gridded (P(u), P(x|u)) candidates."""
    nx = _check_shared_input(py1x, py2x, pzx)
    u_card = grid.u_card if grid.u_card is not None else nx
    steps = grid.steps

    def chunks():
        pxu_batch = _row_product(simplex_grid(nx, steps), u_card)
        rows = _degraded_rows(pxu_batch, py1x.matrix, py2x.matrix, pzx.matrix)
        for pu in simplex_grid(u_card, steps):
            yield _degraded_rate_arrays(pu, pxu_batch, pzx.matrix, rows)

    n_cond = _simplex_count(nx, steps) ** u_card
    return _search(_simplex_count(u_card, steps), n_cond, budget, chunks())


def _general_corner_arrays(joint_batch, xmap, my1, my2, mz):
    """Pentagon corner points for a batch of (V1, V2) joints under one x-map.

    joint_batch: (C, V1, V2); xmap: (V1, V2, X).  Bounds per candidate:
    A = I(V1;Y1) - I(V1;Z), B = I(V2;Y2) - I(V2;Z),
    S = I(V1;Y1) + I(V2;Y2) - I(V1,V2;Z) - I(V1;V2), each clamped at 0.
    """
    t_y1 = np.einsum("vwx,xy->vwy", xmap, my1)
    t_y2 = np.einsum("vwx,xy->vwy", xmap, my2)
    t_z = np.einsum("vwx,xz->vwz", xmap, mz)
    p_v1y1 = np.einsum("cvw,vwy->cvy", joint_batch, t_y1)
    p_v2y2 = np.einsum("cvw,vwy->cwy", joint_batch, t_y2)
    p_vvz = np.einsum("cvw,vwz->cvwz", joint_batch, t_z)
    c, v1, v2, nz = p_vvz.shape
    i_v1y1 = _mi_from_joint(p_v1y1)
    i_v2y2 = _mi_from_joint(p_v2y2)
    i_v12z = _mi_from_joint(p_vvz.reshape(c, v1 * v2, nz))
    i_v1z = _mi_from_joint(p_vvz.sum(axis=2))
    i_v2z = _mi_from_joint(p_vvz.sum(axis=1))
    i_v1v2 = _mi_from_joint(joint_batch)
    a = np.maximum(i_v1y1 - i_v1z, 0.0)
    b = np.maximum(i_v2y2 - i_v2z, 0.0)
    s = np.maximum(i_v1y1 + i_v2y2 - i_v12z - i_v1v2, 0.0)
    r1a = np.minimum(a, s)
    r2a = np.minimum(b, s - r1a)
    r2b = np.minimum(b, s)
    r1b = np.minimum(a, s - r2b)
    return np.vstack([np.column_stack([r1a, r2a]), np.column_stack([r1b, r2b])])


def general_rate_corners(
    joint_v1v2: np.ndarray,
    x_given_pair: np.ndarray,
    py1x: DiscreteChannel,
    py2x: DiscreteChannel,
    pzx: DiscreteChannel,
) -> tuple[RatePoint, RatePoint]:
    """Dominant pentagon corners for one (P(v1,v2), P(x|v1,v2)) candidate."""
    _check_shared_input(py1x, py2x, pzx)
    joint = np.asarray(joint_v1v2, dtype=np.float64)
    xmap = np.asarray(x_given_pair, dtype=np.float64)
    validate_pmf(joint.ravel())
    if xmap.shape[:2] != joint.shape or xmap.shape[2] != py1x.input_size:
        raise DimensionMismatch(
            f"x-map shape {xmap.shape} does not match joint {joint.shape} "
            f"and input alphabet {py1x.input_size}"
        )
    corners = _general_corner_arrays(joint[None], xmap, py1x.matrix, py2x.matrix, pzx.matrix)
    first, second = corners.tolist()
    return RatePoint(*first), RatePoint(*second)


def general_inner_bound(
    py1x: DiscreteChannel,
    py2x: DiscreteChannel,
    pzx: DiscreteChannel,
    grid: AuxGridSpec = AuxGridSpec(),
    budget: int = DEFAULT_BUDGET,
) -> RegionFrontier:
    """Double-binning inner bound: hull over gridded auxiliary pairs.

    Joints P(v1, v2) range over the simplex grid on the product alphabet;
    the input map P(x|v1, v2) ranges over deterministic functions, or over
    gridded rows when grid.deterministic_x is false.
    """
    nx = _check_shared_input(py1x, py2x, pzx)
    v1 = grid.v1_card if grid.v1_card is not None else nx
    v2 = grid.v2_card if grid.v2_card is not None else nx
    steps = grid.steps
    # A deterministic map picks a one-hot row for every (v1, v2) pair.
    n_rows = nx if grid.deterministic_x else _simplex_count(nx, steps)

    def chunks():
        joint_batch = simplex_grid(v1 * v2, steps).reshape(-1, v1, v2)
        x_rows = np.eye(nx) if grid.deterministic_x else simplex_grid(nx, steps)
        for pick in itertools.product(range(n_rows), repeat=v1 * v2):
            xmap = x_rows[list(pick)].reshape(v1, v2, nx)
            yield _general_corner_arrays(joint_batch, xmap, py1x.matrix, py2x.matrix, pzx.matrix)

    return _search(_simplex_count(v1 * v2, steps), n_rows ** (v1 * v2), budget, chunks())


def wiretap_secrecy_capacity(
    main: DiscreteChannel,
    eve: DiscreteChannel,
    grid: AuxGridSpec = AuxGridSpec(),
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Grid maximum of I(V;Y) - I(V;Z) over P(v) and P(x|v), clamped at 0.

    P(x|v) rows range over the full simplex grid, which contains every
    one-hot row; in particular the identity embedding V = X is always a
    candidate, so for degraded pairs the grid attains the single-letter
    optimum whenever the optimal input distribution lies on the grid.
    """
    nx = _check_shared_input(main, eve)
    v_card = grid.v1_card if grid.v1_card is not None else nx
    steps = grid.steps
    _check_budget(_simplex_count(v_card, steps), _simplex_count(nx, steps) ** v_card, budget)
    cond = _row_product(simplex_grid(nx, steps), v_card)
    t_y = cond @ main.matrix
    t_z = cond @ eve.matrix
    h_y_rows = entropy_last_axis(t_y)
    h_z_rows = entropy_last_axis(t_z)
    best = 0.0
    for pv in simplex_grid(v_card, steps):
        gain = _mi_rows(pv, t_y, h_y_rows) - _mi_rows(pv, t_z, h_z_rows)
        best = max(best, float(np.max(gain)))
    return best
