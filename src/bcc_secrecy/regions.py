"""Achievable secrecy-rate regions for two-receiver broadcast channels.

Four computations are provided, all in bits per channel use:

* ``general_inner_bound``: the double-binning inner bound for arbitrary
  discrete channels, driven by a pair of auxiliary variables (V1, V2).
  Each auxiliary candidate yields a pentagon {r1 <= A, r2 <= B,
  r1 + r2 <= S}; its two dominant corners are collected and hulled.
* ``degraded_region_inner``: the layered (cloud/satellite) region for
  degraded channels, driven by a single auxiliary U.  Its rates split per
  letter (Csiszar-Korner), so per-row tables bound every candidate, and
  only candidates that can reach the Pareto staircase are evaluated: the
  frontier is the full grid search's, bit for bit.
* ``gaussian_region_point``: the closed-form power-split region for the
  additive-Gaussian family, parameterized by the fraction ``alpha`` of
  power spent on the first receiver's layer.
* ``wiretap_secrecy_capacity``: max I(V;Y) - I(V;Z), evaluated as
  max_p [phi(p) - vex phi(p)] with phi(q) = H(qW_Y) - H(qW_Z): one lower
  convex hull over the gridded rows P(x|v), so P(v) and |V| need no grid.

Auxiliary distributions are searched on an explicit simplex grid: every
probability vector whose entries are integer multiples of the resolution
step.  Each search takes the grid values it reads as keywords, checked
before its budget: ``resolution`` (1/k) and its auxiliary cardinalities
(default |X|).  The search is exhaustive and reproducible; its accuracy is
grid-limited and candidate counts are capped by an explicit budget rather
than silently truncated.  Both region searches share one search loop:
the budget is checked before any grid is built, each outer-grid step's
candidates are reduced to their Pareto staircase, and one hull runs on
the union of those.  Candidates are independent, so the result depends
neither on evaluation order nor on how the grid is split into steps.

Each region kernel computes the per-letter terms of a batch of
candidates (one candidate's, unclamped: ``degraded_rate_terms`` and
``general_rate_terms``), then combines them into rates.  Each
candidate's rates are computed row by row, whatever else its batch holds,
which lets the degraded search evaluate its survivors alone.  Negative values
of the rate formulas are clamped to zero pointwise: a negative bound just
means that candidate contributes nothing in that coordinate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .channels import DiscreteChannel, InvalidDistribution, Pmf, _check_budget, _check_finite
from .channels import _check_integer, _check_numbers, _check_range, _check_shared_input
from .channels import _check_sizes, _check_stochastic
from .information import entropy_last_axis

DEFAULT_RESOLUTION = 0.05
DEFAULT_BUDGET = 5_000_000
MAX_AUX_CARD = 12
# A lower facet of the wiretap envelope has a value component of
# -1/sqrt(1 + |slope|^2) in its unit normal.  Differences of entropies on a
# 1/k grid have slopes of a few times log2(k |Y| |Z|) at most, so that
# component lies far below -1e-9; the vertical faces over the simplex's
# edges (|X| >= 3) come out of Qhull as +-1e-17 and must not count.
LOWER_FACET_TOL = 1e-9
# float64 cells of one (points x facets) block of the envelope: 1 MiB.
ENVELOPE_BLOCK_CELLS = 1 << 17
# A degraded candidate's rates, bounded from per-row tables, differ from
# the kernel's by round-off, about 1e-15.  A candidate is skipped only when
# a kernel point exceeds its bound by this margin in both coordinates (or
# another bound of its step by twice it), so it is strictly dominated and
# can hold no point of the exact Pareto staircase.
PRUNE_MARGIN = 1e-9
# r1 buckets of the dominance test: a bound is tested only against points
# in higher buckets, so finer buckets send fewer candidates to the kernel
# and build a longer table per P(u) step.
PRUNE_BUCKETS = 4096
# Candidates bounded and scored at a time, in slices of a P(u) step's
# first row, so that a large step (|U| = 1 has one, of every grid row)
# holds a few MiB of arrays at once.
DEGRADED_BLOCK = 1 << 15


class RatePoint(NamedTuple):
    """An achievable rate pair, bits per channel use."""

    r1: float
    r2: float


@dataclass(frozen=True)
class RegionFrontier:
    """Pareto-maximal boundary of a rate region, sorted by r1 ascending.

    The points, together with the origin and the axis feet (max r1, 0) and
    (0, max r2), are in convex position: the region is their convex hull,
    closed downward (time sharing included).
    """

    points: list[RatePoint]


@dataclass(frozen=True)
class GaussianParams:
    """Average power constraint and the three noise variances, weakest last."""

    power: float
    n1: float
    n2: float
    n3: float

    def __post_init__(self):
        _check_finite(self.power, "power", 0, strict=True)
        noise = tuple(_check_finite(getattr(self, name), name) for name in ("n1", "n2", "n3"))
        if not 0 < noise[0] <= noise[1] <= noise[2]:
            raise InvalidDistribution(f"noise variances must satisfy 0 < n1 <= n2 <= n3, got {noise}")
        # Every SNR of the closed form is at most power / n1, and every sum
        # alpha * power + n2 or alpha * power + n3 at most power + n3.
        _check_finite(self.power / noise[0], "largest SNR power / n1")
        _check_finite(self.power + noise[2], "power + n3")


def capacity_fn(snr: float | np.ndarray) -> float | np.ndarray:
    """Gaussian capacity 0.5 * log2(1 + snr), bits per use, elementwise on an array.

    Logs are math.log2 per element; np.log2 can differ in the last ulp.
    Halving is exact, so it is done after, in place.
    """
    values = _check_range(snr, "snr", 0)
    caps = np.fromiter(map(math.log2, (1.0 + values).ravel().tolist()), np.float64)
    caps *= 0.5
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
    alpha = _check_range(alpha, "alpha", 0, 1)
    p = g.power
    r1 = capacity_fn(alpha * p / g.n1) - capacity_fn(alpha * p / g.n3)
    r2 = capacity_fn((1.0 - alpha) * p / (alpha * p + g.n2)) - capacity_fn(
        (1.0 - alpha) * p / (alpha * p + g.n3)
    )
    return RatePoint(r1, r2)


def _pareto(points) -> np.ndarray:
    """Deduplicated Pareto-maximal rate pairs, sorted by r1 ascending.

    Rejects non-finite or negative pairs.  Visiting rows r1 descending, keep
    each row whose r2 strictly exceeds every r2 before it; of kept rows with
    equal r1, the last has the largest r2.  Only comparisons are made, so the
    staircase of a union is the staircase of its parts' staircases.
    """
    arr = _check_range(points, "rate points", 0, finite=True).reshape(-1, 2)
    desc = arr[np.argsort(arr[:, 0])[::-1]]
    prior_best = np.maximum.accumulate(np.concatenate(([-np.inf], desc[:, 1])))[:-1]
    kept = desc[desc[:, 1] > prior_best]
    return np.delete(kept, np.flatnonzero(kept[:-1, 0] == kept[1:, 0]), axis=0)[::-1]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def upper_right_hull(points: Sequence[RatePoint] | np.ndarray) -> RegionFrontier:
    """Pareto-maximal vertices of the convex hull of the points and (0, 0).

    Only the Pareto staircase can hold them: one monotone chain runs over
    it r1 descending, then the origin, which is dropped at the end.
    """
    if np.size(points) == 0:
        raise InvalidDistribution("empty point set")
    chain: list[list[float]] = []
    for p in _pareto(points)[::-1].tolist() + [[0.0, 0.0]]:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return RegionFrontier(points=[RatePoint(x, y) for x, y in chain[-2::-1]])


def _grid_steps(resolution: float) -> int:
    """k for a resolution of 1/k, the step of every auxiliary grid."""
    resolution = _check_finite(resolution, "resolution", 0, 1, strict=True)
    inverse = 1.0 / resolution  # inf for the smallest subnormals
    steps = round(inverse) if inverse < math.inf else 0
    if abs(inverse - steps) > 1e-9:
        raise InvalidDistribution(f"resolution must be 1/k for integer k, got {resolution!r}")
    return steps


def _search(n_outer: int, n_inner: int, budget: int, chunks: Iterator) -> RegionFrontier:
    """Hull over the rate pairs that `chunks` yields, after one budget check.

    `chunks` is a generator, so its grids are built only after the check
    passes.  Each chunk is reduced to its Pareto staircase as it arrives,
    and one hull runs on the union of those, so the frontier does not
    depend on how the grid is chunked.
    """
    total = n_outer * n_inner
    _check_budget(total, budget, "grid too large: {} x {} = {} candidates", n_outer, n_inner, total)
    return upper_right_hull(np.vstack([_pareto(points) for points in chunks]))


def simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All pmfs over `dim` outcomes with entries that are multiples of 1/steps."""
    _check_integer(dim, "dim", 1)
    _check_integer(steps, "steps", 1)
    return _compositions(dim, steps) / steps


def _compositions(parts: int, total: int) -> np.ndarray:
    """Every split of `total` into `parts` nonnegative integers, lexicographic order.

    Stars and bars: the parts are the gaps between `parts - 1` bars placed
    in `total + parts - 1` slots, and bar positions taken in lexicographic
    order give the splits in lexicographic order.  `combinations` copies its
    pool of slots, which is never longer than the output for two parts or
    more; one part needs no pool.
    """
    if parts == 1:
        return np.array([[total]])
    slots = total + parts - 1
    rows = _simplex_count(parts, total)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64,
        count=rows * (parts - 1),
    ).reshape(rows, parts - 1)
    edges = np.hstack([np.full((rows, 1), -1), bars, np.full((rows, 1), slots)])
    return np.diff(edges, axis=1) - 1


def _composition_blocks(parts: int, total: int, block: int) -> Iterator[np.ndarray]:
    """The rows of _compositions(parts, total) in order, at most `block` at a time.

    Memory stays proportional to `block`: a split with too many rows recurses
    on its first part, and two parts run as ranges of the first.
    """
    if _simplex_count(parts, total) <= block:
        yield _compositions(parts, total)
    elif parts == 2:
        for start in range(0, total + 1, block):
            first = np.arange(start, min(start + block, total + 1))
            yield np.column_stack([first, total - first])
    else:
        for first in range(total + 1):
            for rest in _composition_blocks(parts - 1, total - first, block):
                yield np.column_stack([np.full(len(rest), first), rest])


def _simplex_count(dim: int, steps: int) -> int:
    return math.comb(steps + dim - 1, dim - 1)


def _mi_from_joint(joint: np.ndarray) -> np.ndarray:
    """I(A;B) = H(A) + H(B) - H(A,B) for batched 2-d joints (..., a, b)."""
    ha = entropy_last_axis(joint.sum(axis=-1))
    hb = entropy_last_axis(joint.sum(axis=-2))
    hab = entropy_last_axis(joint.reshape(joint.shape[:-2] + (-1,)))
    return ha + hb - hab


def _degraded_rows(pxu_batch, my1, my2, mz):
    """The terms of the layered kernel that do not depend on P(u).

    For (C, U, X) conditionals: P(y2|u) (C, U, Y2) and, per (candidate, u),
    H(Y2|U=u), H(Z|U=u) and I(X;Y1|U=u).
    """
    uy2 = pxu_batch @ my2
    i_xy1_rows = entropy_last_axis(pxu_batch @ my1) - pxu_batch @ entropy_last_axis(my1)
    return uy2, entropy_last_axis(uy2), entropy_last_axis(pxu_batch @ mz), i_xy1_rows


def _degraded_terms(pu, pxu_batch, mz, rows) -> dict[str, np.ndarray]:
    """The layered region's terms (C,) each, for one cloud distribution pu (U,)."""
    uy2, h_uy2, h_uz, i_xy1_rows = rows
    px = np.einsum("u,cux->cx", pu, pxu_batch)
    h_z = entropy_last_axis(px @ mz)
    h_y2 = entropy_last_axis(np.einsum("u,cuy->cy", pu, uy2))
    return {
        "i_x_z": h_z - px @ entropy_last_axis(mz),
        "i_u_z": h_z - np.einsum("u,cu->c", pu, h_uz),
        "i_u_y2": h_y2 - np.einsum("u,cu->c", pu, h_uy2),
        "i_x_y1_given_u": np.einsum("u,cu->c", pu, i_xy1_rows),
    }


def _degraded_rates(t) -> np.ndarray:
    """Clamped (r1, r2) pairs (C, 2): I(X;Y1|U) + I(U;Z) - I(X;Z) and I(U;Y2) - I(U;Z)."""
    r1 = np.maximum(t["i_x_y1_given_u"] + t["i_u_z"] - t["i_x_z"], 0.0)
    r2 = np.maximum(t["i_u_y2"] - t["i_u_z"], 0.0)
    return np.column_stack([r1, r2])


def degraded_rate_terms(
    pu: Pmf,
    pxu: DiscreteChannel,
    py1x: DiscreteChannel,
    py2x: DiscreteChannel,
    pzx: DiscreteChannel,
) -> dict[str, float]:
    """Unclamped i_x_y1_given_u, i_u_y2, i_u_z, i_x_z of one (P(u), P(x|u)) candidate."""
    _check_shared_input(py1x, py2x, pzx)
    _check_sizes(pxu.input_size, pu.alphabet_size, "conditional inputs vs cloud alphabet")
    _check_sizes(pxu.output_size, py1x.input_size, "conditional outputs vs channel inputs")
    batch = pxu.matrix[None]
    rows = _degraded_rows(batch, py1x.matrix, py2x.matrix, pzx.matrix)
    terms = _degraded_terms(pu.probs, batch, pzx.matrix, rows)
    return {key: float(value[0]) for key, value in terms.items()}


def degraded_rate_pair(
    pu: Pmf,
    pxu: DiscreteChannel,
    py1x: DiscreteChannel,
    py2x: DiscreteChannel,
    pzx: DiscreteChannel,
) -> RatePoint:
    """Clamped rate pair contributed by one (P(u), P(x|u)) candidate."""
    return RatePoint(*_degraded_rates(degraded_rate_terms(pu, pxu, py1x, py2x, pzx))[0].tolist())


def _comb_plus(x, m: int):
    """C(x + m, m), exact, elementwise for integer arrays."""
    c = 1
    for j in range(1, m + 1):
        c = c * (x + j) // j
    return c


def _lex_rank(parts, total: int) -> np.ndarray:
    """Rank of each composition of `total` in _compositions order.

    `parts` holds all parts but the last, as integer arrays.  The splits
    before one whose first part is n number sum_{j<n} C(total - j + m - 1,
    m - 1) = C(total + m, m) - C(total - n + m, m), m the parts after the
    first; the rest ranks the same way.
    """
    rank, rest = 0, total
    for position, part in enumerate(parts):
        after = len(parts) - position
        rank = rank + _comb_plus(rest, after) - _comb_plus(rest - part, after)
        rest = rest - part
    return rank


def _dominated(t1: np.ndarray, t2: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask of the targets (t1, t2) that some row of `points` reaches in r1 and exceeds in r2.

    Targets are finite or -inf, t1 nonnegative if finite.  r1 above 0 is cut
    into PRUNE_BUCKETS buckets, and a point counts only for targets in
    lower buckets than its own (t1 = -inf lies below them all).  Rounding a
    product by a positive scale is monotone, so a lower bucket means a
    smaller r1: the test is exact where it says yes and only misses targets
    that share a point's bucket.
    """
    top = points[:, 0].max(initial=0.0)
    scale = PRUNE_BUCKETS / top if top > 0.0 else 0.0
    own = np.minimum((np.maximum(points[:, 0], 0.0) * scale).astype(np.intp), PRUNE_BUCKETS)
    bucket = np.minimum((np.maximum(t1, 0.0) * scale).astype(np.intp), PRUNE_BUCKETS)
    bucket[t1 < 0.0] = -1
    # Buckets in descending order after a -inf slot: the running maximum at
    # PRUNE_BUCKETS - j is the largest r2 among points above bucket j.
    best = np.full(PRUNE_BUCKETS + 2, -np.inf)
    np.maximum.at(best, PRUNE_BUCKETS + 1 - own, points[:, 1])
    return np.maximum.accumulate(best)[PRUNE_BUCKETS - bucket] > t2


def _degraded_tables(steps: int, fine: int, u_card: int, my1, my2, mz):
    """Grid rows, the kernel's row terms and the rate-bound tables of the degraded search.

    A row's kernel terms come from its own values at its own position, so
    one batch with every row at every position gives them for every
    candidate; they are indexed by row * u_card + position.  The tables
    are psi1 and phi2 on the rows and phi2 on the grid of P(x) of step
    1/fine, with the integer rows `counts`.
    """
    counts = _compositions(len(my1), steps)
    batch = (counts / steps)[:, None].repeat(u_card, axis=1)
    rows = batch[:, 0]
    row_terms = _degraded_rows(batch, my1, my2, mz)
    _, h_uy2, h_uz, i_xy1_rows = (terms[:, 0] for terms in row_terms)
    phi2 = h_uy2 - h_uz
    psi1 = i_xy1_rows - h_uz + rows @ entropy_last_axis(mz)
    phi2_px = phi2 if fine == steps else _wiretap_phi(_compositions(len(my1), fine) / fine, my2, mz)
    flat = [terms.reshape(len(rows) * u_card, *terms.shape[2:]) for terms in row_terms]
    return rows, flat, (steps, fine, counts, psi1, phi2, phi2_px)


def _degraded_bounds(weights, axes, tables) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped (r1, r2) bounds of the candidates of P(u) = weights / steps.

    The candidates put row axes[u][i] at position u, for every index tuple
    in C order.  r1 = sum_u P(u) psi1(q_u); r2 = phi2(p) - sum_u P(u)
    phi2(q_u), where p = P(x) has numerators sum_u weights[u] counts[q_u]
    over steps^2, or counts[q_0] over steps for one row: the rank of
    those numerators indexes the table of phi2 on the P(x) grid.
    """
    steps, fine, counts, psi1, phi2, phi2_px = tables
    pu = weights / steps

    def outer(coefficients, table):
        """sum_u coefficients[u] * table[row_u] for every candidate, flat."""
        total = 0
        for c, axis in zip(coefficients, axes):
            total = np.add.outer(total, c * table[axis])
        return total.ravel()

    mix = weights * fine // (steps * steps)
    numerators = [outer(mix, counts[:, t]) for t in range(counts.shape[1] - 1)]
    return outer(pu, psi1), phi2_px[_lex_rank(numerators, fine)] - outer(pu, phi2)


def _degraded_survivors(weights, axes, tables, staircase) -> np.ndarray:
    """Row indices (S, U) of the candidates that can reach the exact staircase.

    A candidate is dropped when a point of `staircase` beats its bound by
    PRUNE_MARGIN in both coordinates, or the bound with the largest
    r1 + r2 among the candidates (which is kept) beats it by twice that.
    A coordinate bounded below -PRUNE_MARGIN is exactly 0 in the kernel,
    which every point reaches.
    """
    r1, r2 = _degraded_bounds(weights, axes, tables)
    b1, b2 = np.maximum(r1, 0.0), np.maximum(r2, 0.0)
    lead = np.argmax(b1 + b2)
    known = np.vstack([staircase - PRUNE_MARGIN, np.array([b1[lead], b2[lead]]) - 2 * PRUNE_MARGIN])
    t1 = np.where(r1 < -PRUNE_MARGIN, -np.inf, b1)
    t2 = np.where(r2 < -PRUNE_MARGIN, -np.inf, b2)
    dropped = _dominated(t1, t2, known)
    dropped[lead] = False
    kept = np.unravel_index(np.flatnonzero(~dropped), [len(axis) for axis in axes])
    return np.stack([axis[i] for axis, i in zip(axes, kept)], axis=1)


def degraded_region_inner(
    py1x: DiscreteChannel,
    py2x: DiscreteChannel,
    pzx: DiscreteChannel,
    *,
    resolution: float = DEFAULT_RESOLUTION,
    u_card: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> RegionFrontier:
    """Layered-scheme region: hull over gridded (P(u), P(x|u)) candidates.

    The rates split per letter (Csiszar-Korner): with q_u = P(x|u) and
    p = P(x), r1 = sum_u P(u) psi1(q_u) with psi1(q) = I_q(X;Y1) - I_q(X;Z),
    and r2 = phi2(p) - sum_u P(u) phi2(q_u) with phi2(q) = H(qW_Y2) - H(qW_Z),
    each clamped at 0.  Tables of psi1 and phi2 on the grid rows, and of
    phi2 on the grid of P(x) that holds every mixture (step 1/k^2, or 1/k
    for one row), bound every candidate's rates to a few ulps.  Per P(u)
    step, only the candidates that no known point beats by PRUNE_MARGIN go
    through the kernel; the others cannot reach the exact Pareto staircase,
    so the frontier is the full search's, bit for bit.  A row whose weight
    is 0 adds +0.0 whatever it is, so it is fixed to grid row 0.  The
    budget counts every candidate, then the points of the P(x) table,
    before anything is built.
    """
    steps = _grid_steps(resolution)
    nx = _check_shared_input(py1x, py2x, pzx)
    u_card = nx if u_card is None else _check_integer(u_card, "u_card", 1, MAX_AUX_CARD)
    my1, my2, mz = py1x.matrix, py2x.matrix, pzx.matrix

    def chunks():
        fine = steps if u_card == 1 else steps * steps
        n_points = _simplex_count(nx, fine)
        what = "grid too large: {} points P(x) on the 1/{} grid"
        _check_budget(n_points, budget, what, n_points, fine)
        rows, row_terms, tables = _degraded_tables(steps, fine, u_card, my1, my2, mz)
        staircase = np.empty((0, 2))
        for weights in _compositions(u_card, steps):
            axes = [np.arange(len(rows) if w else 1) for w in weights]
            per_block = max(1, DEGRADED_BLOCK // math.prod(len(axis) for axis in axes[1:]))
            for start in range(0, len(axes[0]), per_block):
                block = [axes[0][start : start + per_block], *axes[1:]]
                picks = _degraded_survivors(weights, block, tables, staircase)
                at = picks * u_card + np.arange(u_card)
                picked = [np.take(values, at, axis=0) for values in row_terms]
                terms = _degraded_terms(weights / steps, np.take(rows, picks, axis=0), mz, picked)
                rates = _degraded_rates(terms)
                staircase = _pareto(np.vstack([staircase, rates]))
                yield rates

    n_cond = _simplex_count(nx, steps) ** u_card
    return _search(_simplex_count(u_card, steps), n_cond, budget, chunks())


def _general_terms(joint_batch, xmap, my1, my2, mz) -> dict[str, np.ndarray]:
    """The bound's terms (C,) for (C, V1, V2) joints under one (V1, V2, X) x-map."""
    t_y1 = np.einsum("vwx,xy->vwy", xmap, my1)
    t_y2 = np.einsum("vwx,xy->vwy", xmap, my2)
    t_z = np.einsum("vwx,xz->vwz", xmap, mz)
    p_v1y1 = np.einsum("cvw,vwy->cvy", joint_batch, t_y1)
    p_v2y2 = np.einsum("cvw,vwy->cwy", joint_batch, t_y2)
    p_vvz = np.einsum("cvw,vwz->cvwz", joint_batch, t_z)
    return {
        "i_v1_y1": _mi_from_joint(p_v1y1),
        "i_v2_y2": _mi_from_joint(p_v2y2),
        "i_v1v2_z": _mi_from_joint(p_vvz.reshape(len(p_vvz), -1, p_vvz.shape[-1])),
        "i_v1_z": _mi_from_joint(p_vvz.sum(axis=2)),
        "i_v2_z": _mi_from_joint(p_vvz.sum(axis=1)),
        "i_v1_v2": _mi_from_joint(joint_batch),
    }


def _general_corners(t) -> np.ndarray:
    """Pentagon corner points (2C, 2) from the double-binning bound's terms.

    A = I(V1;Y1) - I(V1;Z), B = I(V2;Y2) - I(V2;Z),
    S = I(V1;Y1) + I(V2;Y2) - I(V1,V2;Z) - I(V1;V2), each clamped at 0.
    """
    a = np.maximum(t["i_v1_y1"] - t["i_v1_z"], 0.0)
    b = np.maximum(t["i_v2_y2"] - t["i_v2_z"], 0.0)
    s = np.maximum(t["i_v1_y1"] + t["i_v2_y2"] - t["i_v1v2_z"] - t["i_v1_v2"], 0.0)
    r1a = np.minimum(a, s)
    r2a = np.minimum(b, s - r1a)
    r2b = np.minimum(b, s)
    r1b = np.minimum(a, s - r2b)
    return np.vstack([np.column_stack([r1a, r2a]), np.column_stack([r1b, r2b])])


def general_rate_terms(
    joint_v1v2: np.ndarray,
    x_given_pair: np.ndarray,
    py1x: DiscreteChannel,
    py2x: DiscreteChannel,
    pzx: DiscreteChannel,
) -> dict[str, float]:
    """Unclamped i_v1_y1, i_v2_y2, i_v1_z, i_v2_z, i_v1v2_z, i_v1_v2 of one candidate."""
    _check_shared_input(py1x, py2x, pzx)
    joint, xmap = _check_numbers(joint_v1v2, "joint"), _check_numbers(x_given_pair, "x-map")
    expected = joint.shape + (py1x.input_size,)
    _check_sizes(xmap.shape, expected, "x-map shape does not match joint and input alphabet")
    joint = _check_stochastic(joint, 2, 0, "joint")
    xmap = _check_stochastic(xmap, 3, 2, "x-map")
    terms = _general_terms(joint[None], xmap, py1x.matrix, py2x.matrix, pzx.matrix)
    return {key: float(value[0]) for key, value in terms.items()}


def general_rate_corners(
    joint_v1v2: np.ndarray,
    x_given_pair: np.ndarray,
    py1x: DiscreteChannel,
    py2x: DiscreteChannel,
    pzx: DiscreteChannel,
) -> tuple[RatePoint, RatePoint]:
    """Dominant pentagon corners for one (P(v1,v2), P(x|v1,v2)) candidate."""
    terms = general_rate_terms(joint_v1v2, x_given_pair, py1x, py2x, pzx)
    first, second = _general_corners(terms).tolist()
    return RatePoint(*first), RatePoint(*second)


def general_inner_bound(
    py1x: DiscreteChannel,
    py2x: DiscreteChannel,
    pzx: DiscreteChannel,
    *,
    resolution: float = DEFAULT_RESOLUTION,
    v1_card: int | None = None,
    v2_card: int | None = None,
    deterministic_x: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> RegionFrontier:
    """Double-binning inner bound: hull over gridded auxiliary pairs.

    Joints P(v1, v2) range over the simplex grid on the product alphabet;
    the input map P(x|v1, v2) ranges over deterministic functions (any
    stochastic map is a mixture of them, reachable by enlarging the
    auxiliaries), or over gridded rows when `deterministic_x` is false.
    """
    steps = _grid_steps(resolution)
    nx = _check_shared_input(py1x, py2x, pzx)
    v1 = nx if v1_card is None else _check_integer(v1_card, "v1_card", 1, MAX_AUX_CARD)
    v2 = nx if v2_card is None else _check_integer(v2_card, "v2_card", 1, MAX_AUX_CARD)
    # A deterministic map picks a one-hot row for every (v1, v2) pair.
    n_rows = nx if deterministic_x else _simplex_count(nx, steps)

    def chunks():
        joint_batch = simplex_grid(v1 * v2, steps).reshape(-1, v1, v2)
        x_rows = np.eye(nx) if deterministic_x else simplex_grid(nx, steps)
        for pick in itertools.product(range(n_rows), repeat=v1 * v2):
            xmap = x_rows[list(pick)].reshape(v1, v2, nx)
            terms = _general_terms(joint_batch, xmap, py1x.matrix, py2x.matrix, pzx.matrix)
            yield _general_corners(terms)

    return _search(_simplex_count(v1 * v2, steps), n_rows ** (v1 * v2), budget, chunks())


def _wiretap_phi(q: np.ndarray, main: np.ndarray, eve: np.ndarray) -> np.ndarray:
    """phi(q) = H(qW_Y) - H(qW_Z) for each row q of P(x)."""
    return entropy_last_axis(q @ main) - entropy_last_axis(q @ eve)


def _lower_facets(rows: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slopes (F, |X| - 1) and offsets (F,) of the lower hull of (q[:-1], value).

    The lower convex envelope over the hull of the rows is the maximum of
    these affine functions of q[:-1].  One lid point above the centroid
    makes the cloud full-dimensional even when it is flat (equal channels)
    and lies in no lower facet, so the lower hull is unchanged.
    """
    from scipy.spatial import ConvexHull  # deferred: the import costs more than most commands

    nx = rows.shape[1]
    lid = np.append(np.full(nx - 1, 1.0 / nx), values.max() + 1.0)
    hull = ConvexHull(np.vstack([np.column_stack([rows[:, :-1], values]), lid]))
    # Each row of `equations` is (normal, offset) with normal . x + offset = 0.
    lower = hull.equations[hull.equations[:, -2] < -LOWER_FACET_TOL]
    value_part = lower[:, -2]
    return -lower[:, :-2] / value_part[:, None], -lower[:, -1] / value_part


def wiretap_secrecy_capacity(
    main: DiscreteChannel,
    eve: DiscreteChannel,
    *,
    resolution: float = DEFAULT_RESOLUTION,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """max I(V;Y) - I(V;Z) over P(v) and gridded rows P(x|v), clamped at 0.

    With phi(q) = H(qW_Y) - H(qW_Z), the rate is phi(p) - sum_v P(v) phi(q_v)
    at P(x) = p, and the best mixture of rows that averages to p gives the
    lower convex envelope vex phi(p) (Csiszar-Korner).  The rows q range over
    the 1/k grid (resolution = 1/k) and vex phi is the lower hull of their
    points (q, phi(q)); p ranges over the 1/k^2 grid, which holds every
    mixture of rows with weights on the 1/k grid.  So the value is at least
    the grid search over (P(v), P(x|v)) on the 1/k grid for any |V|, and a
    mixture of at most |X| rows achieves it.

    The budget counts the points p and is checked before anything is built;
    they are evaluated in blocks of at most ENVELOPE_BLOCK_CELLS
    (point, facet) cells.
    """
    steps = _grid_steps(resolution)
    nx = _check_shared_input(main, eve)
    n_points = _simplex_count(nx, steps * steps)
    what = "grid too large: {} points P(x) on the 1/{} grid"
    _check_budget(n_points, budget, what, n_points, steps * steps)
    if nx == 1:
        return 0.0
    rows = simplex_grid(nx, steps)
    slopes, offsets = _lower_facets(rows, _wiretap_phi(rows, main.matrix, eve.matrix))
    block = max(1, ENVELOPE_BLOCK_CELLS // len(offsets))
    best = 0.0
    for counts in _composition_blocks(nx, steps * steps, block):
        p = counts / (steps * steps)
        vex = p[:, :-1] @ slopes.T
        vex += offsets
        gain = _wiretap_phi(p, main.matrix, eve.matrix) - vex.max(axis=1)
        best = max(best, float(gain.max()))
    return best
