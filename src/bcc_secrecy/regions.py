"""Achievable secrecy-rate regions for two-receiver broadcast channels.

Four computations are provided, all in bits per channel use:

* ``general_inner_bound``: the double-binning inner bound for arbitrary
  discrete channels, driven by a pair of auxiliary variables (V1, V2).
  Each auxiliary candidate yields a pentagon {r1 <= A, r2 <= B,
  r1 + r2 <= S}; its two dominant corners are collected and hulled.
  One joint per relabelling orbit of (V1, V2) is evaluated under every
  x-map, and the other joints of its orbit, under its x-maps relabelled,
  only where its corners can reach the Pareto staircase: the frontier is
  the full grid search's, bit for bit.
* ``degraded_region_inner``: the layered (cloud/satellite) region for
  degraded channels, driven by a single auxiliary U.  Its rates split per
  letter (Csiszar-Korner), so per-row tables bound the candidates of
  each non-increasing P(u), one per relabelling orbit of U, and only
  those that can reach the Pareto staircase are evaluated, in every step
  their relabellings reach: the frontier is the full grid search's, bit
  for bit.
* ``gaussian_region_point``: the closed-form power-split region for the
  additive-Gaussian family, parameterized by the fraction ``alpha`` of
  power spent on the first receiver's layer.
* ``wiretap_secrecy_capacity``: max I(V;Y) - I(V;Z), evaluated as
  max_p [phi(p) - vex phi(p)] with phi(q) = H(qW_Y) - H(qW_Z): one lower
  convex hull over the gridded rows P(x|v), so P(v) and |V| need no grid.
  For binary X the hull is a monotone chain, as in ``upper_right_hull``;
  only |X| >= 3 imports scipy for Qhull.

Auxiliary distributions are searched on an explicit simplex grid: every
probability vector whose entries are integer multiples of the resolution
step.  Each search takes the grid values it reads as keywords, checked
before its budget: ``resolution`` (1/k) and its auxiliary cardinalities
(default |X|).  The search is exhaustive and reproducible; its accuracy is
grid-limited and candidate counts are capped by an explicit budget rather
than silently truncated.  Both region searches share one search loop:
the budget is checked before any grid is built, the loop folds each
chunk of candidates into one running Pareto staircase, and one hull runs
on the final staircase.  Candidates are independent, so the result
depends neither on evaluation order nor on how the grid is split.  Both
name the relabelling orbits of their grid of P(u) or P(v1, v2) alike
(``_orbits``), by the lexicographically largest member.  Where P(u) or
P(v1, v2) has weight 0, both fix the conditional row to row 0, since it
adds +0.0 to every kernel sum.

Each region kernel computes the per-letter terms of a batch of
candidates (one candidate's, unclamped: ``degraded_rate_terms`` and
``general_rate_terms``), then combines them into rates.  Each
candidate's rates are computed row by row, whatever else its batch holds,
which lets both searches evaluate their survivors alone; the general
kernel takes one x-map per row.  Negative values
of the rate formulas are clamped to zero pointwise: a negative bound just
means that candidate contributes nothing in that coordinate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .channels import DiscreteChannel, Pmf, _check_budget, _check_finite
from .channels import _check_integer, _check_numbers, _check_range, _check_shared_input
from .channels import _check_sizes, _check_stochastic
from .information import entropy_last_axis
from .limits import DEFAULT_BUDGET, DEFAULT_RESOLUTION, MAX_AUX_CARD, InvalidDistribution

# A lower Qhull facet of the wiretap envelope (|X| >= 3) has a value component
# of -1/sqrt(1 + |slope|^2) in its unit normal.  Differences of entropies on
# a 1/k grid have slopes of a few times log2(k |Y| |Z|) at most, so that
# component lies far below -1e-9; the vertical faces over the simplex's
# edges come out of Qhull as +-1e-17 and must not count.
LOWER_FACET_TOL = 1e-9
# float64 cells of one (points x facets) block of the envelope, or of the
# x-maps and channel rows of one general kernel call in either pass: 1 MiB.
ENVELOPE_BLOCK_CELLS = 1 << 17
# A degraded candidate's rates, bounded from per-row tables, differ from
# the kernel's by round-off, about 1e-15.  A candidate is skipped only when
# a kernel point exceeds its bound by this margin in both coordinates, so
# it is strictly dominated and can hold no point of the exact Pareto
# staircase.
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


def _convex_chain(points: list[list[float]]) -> list[list[float]]:
    """Andrew's monotone chain: the lower hull of points in ascending x, the upper in descending.

    Points that make no strict left turn, collinear ones included, are dropped.
    """
    chain: list[list[float]] = []
    for p in points:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def upper_right_hull(points: Sequence[RatePoint] | np.ndarray) -> RegionFrontier:
    """Pareto-maximal vertices of the convex hull of the points and (0, 0).

    Only the Pareto staircase can hold them: one monotone chain runs over
    it r1 descending, then the origin, which is dropped at the end.
    """
    if np.size(points) == 0:
        raise InvalidDistribution("empty point set")
    chain = _convex_chain(_pareto(points)[::-1].tolist() + [[0.0, 0.0]])
    return RegionFrontier(points=[RatePoint(x, y) for x, y in chain[-2::-1]])


def _grid_steps(resolution: float) -> int:
    """k for a resolution of 1/k, the step of every auxiliary grid."""
    resolution = _check_finite(resolution, "resolution", 0, 1, strict=True)
    inverse = 1.0 / resolution  # inf for the smallest subnormals
    steps = round(inverse) if inverse < math.inf else 0
    if abs(inverse - steps) > 1e-9:
        raise InvalidDistribution(f"resolution must be 1/k for integer k, got {resolution!r}")
    return steps


def _search(n_outer: int, n_inner: int, budget: int, fill: Callable) -> RegionFrontier:
    """Hull over the rate pairs that `fill(add)` hands to `add`, after one budget check.

    `fill` builds its grids only after the check passes.  `add` folds a
    chunk into the one running Pareto staircase and returns it, so the
    hull of the final staircase does not depend on how the grid is chunked.
    """
    total = n_outer * n_inner
    _check_budget(total, budget, "grid too large: {} x {} = {} candidates", n_outer, n_inner, total)
    staircase = np.empty((0, 2))

    def add(points) -> np.ndarray:
        nonlocal staircase
        staircase = _pareto(np.vstack([staircase, points]))
        return staircase

    fill(add)
    return upper_right_hull(staircase)


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

    Memory stays proportional to `block`: two parts run as ranges of the
    first, which is far faster than stars and bars, and a split of more parts
    with too many rows recurses on its first part.
    """
    if parts == 2:
        for start in range(0, total + 1, block):
            first = np.arange(start, min(start + block, total + 1))
            yield np.column_stack([first, total - first])
    elif _simplex_count(parts, total) <= block:
        yield _compositions(parts, total)
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

    A candidate is dropped when a point of `staircase`, the search's
    kernel points so far, beats its bound by PRUNE_MARGIN in both
    coordinates.  A coordinate bounded below -PRUNE_MARGIN is exactly 0 in
    the kernel, which every point reaches.
    """
    r1, r2 = _degraded_bounds(weights, axes, tables)
    t1 = np.where(r1 < -PRUNE_MARGIN, -np.inf, np.maximum(r1, 0.0))
    t2 = np.where(r2 < -PRUNE_MARGIN, -np.inf, np.maximum(r2, 0.0))
    dropped = _dominated(t1, t2, staircase - PRUNE_MARGIN)
    kept = np.unravel_index(np.flatnonzero(~dropped), [len(axis) for axis in axes])
    return np.stack([axis[i] for axis, i in zip(axes, kept)], axis=1)


def _orbits(counts: np.ndarray, v1: int, v2: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Each grid row's orbit under relabelling the two axes of its (V1, V2) matrix.

    `counts` is _compositions(v1 * v2, steps), each row a row-major (V1, V2)
    matrix.  An orbit of S_{V1} x S_{V2} is named by its lexicographically
    largest member: for each permutation of the shorter axis, stable sorts
    in descending order, last entry first, put the lines of the longer axis
    in descending order, which maximises over the other factor.  That
    member's rank in _compositions order is its own grid row.

    Returns, for every row i, the row rep[i] of its orbit's representative
    and a cell permutation sigma[i] with counts[rep[i]] == counts[i][sigma[i]].
    """
    flip = v2 > v1
    cells = np.arange(v1 * v2).reshape(v1, v2)
    lines = cells.T if flip else cells  # cell numbers, (long axis, short axis)
    rep, sigma = np.full(len(counts), -1), np.empty(counts.shape, dtype=np.intp)
    for cols in itertools.permutations(range(lines.shape[1])):
        source = np.broadcast_to(lines[:, cols], (len(counts), *lines.shape))
        for col in reversed(range(lines.shape[1])):
            entries = np.take_along_axis(counts, source[:, :, col], axis=1)
            order = np.argsort(-entries, axis=1, kind="stable")
            source = np.take_along_axis(source, order[:, :, None], axis=1)
        perm = (source.transpose(0, 2, 1) if flip else source).reshape(len(counts), -1)
        rank = _lex_rank(list(np.take_along_axis(counts, perm[:, :-1], axis=1).T), steps)
        better = rank > rep
        rep, sigma = np.where(better, rank, rep), np.where(better[:, None], perm, sigma)
    return rep, sigma


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
    for one row), bound every candidate's rates to a few ulps.

    Relabelling U moves a candidate to another P(u) step with the same
    rates up to round-off, so only the non-increasing steps are bounded.
    There the candidates that no kernel point so far beats by PRUNE_MARGIN
    go through the kernel; of those, the ones whose kernel point the
    updated staircase does not beat by PRUNE_MARGIN go through it again in
    every other step of their orbit, in that step's own row order.  A
    candidate on the exact Pareto staircase has a representative whose
    bound and kernel point lie within round-off of its rates, so it passes
    both tests, and the candidate itself is evaluated in its own step: the
    frontier is the full search's, bit for bit.  A row whose weight is 0
    adds +0.0 whatever it is, so it is fixed to grid row 0; a sorted P(u)
    puts it last.  The budget counts every candidate, then the points of
    the P(x) table, before anything is built.
    """
    steps = _grid_steps(resolution)
    nx = _check_shared_input(py1x, py2x, pzx)
    u_card = nx if u_card is None else _check_integer(u_card, "u_card", 1, MAX_AUX_CARD)
    my1, my2, mz = py1x.matrix, py2x.matrix, pzx.matrix

    def fill(add):
        fine = steps if u_card == 1 else steps * steps
        n_points = _simplex_count(nx, fine)
        what = "grid too large: {} points P(x) on the 1/{} grid"
        _check_budget(n_points, budget, what, n_points, fine)
        rows, row_terms, tables = _degraded_tables(steps, fine, u_card, my1, my2, mz)
        staircase = np.empty((0, 2))

        def kernel(weights, picks):
            """Clamped rates of the candidates with row picks[:, u] at position u."""
            at = picks * u_card + np.arange(u_card)
            picked = [np.take(values, at, axis=0) for values in row_terms]
            terms = _degraded_terms(weights / steps, np.take(rows, picks, axis=0), mz, picked)
            return _degraded_rates(terms)

        grid = _compositions(u_card, steps)
        rep, sigma = _orbits(grid, u_card, 1, steps)
        for r in np.flatnonzero(rep == np.arange(len(grid))):
            weights, others = grid[r], np.flatnonzero(rep == r)
            others = others[others != r]
            targets, perms = grid[others], np.argsort(sigma[others], axis=1)
            axes = [np.arange(len(rows) if w else 1) for w in weights]
            per_block = max(1, DEGRADED_BLOCK // math.prod(len(axis) for axis in axes[1:]))
            for start in range(0, len(axes[0]), per_block):
                block = [axes[0][start : start + per_block], *axes[1:]]
                picks = _degraded_survivors(weights, block, tables, staircase)
                points = kernel(weights, picks)
                staircase = add(points)
                if len(targets):
                    picks = picks[~_dominated(points[:, 0], points[:, 1], staircase - PRUNE_MARGIN)]
                    moved = [kernel(t, picks[:, perm]) for t, perm in zip(targets, perms)]
                    staircase = add(np.vstack(moved))

    n_cond = _simplex_count(nx, steps) ** u_card
    return _search(_simplex_count(u_card, steps), n_cond, budget, fill)


def _general_terms(joint_batch, xmaps, my1, my2, mz) -> dict[str, np.ndarray]:
    """The bound's channel terms (C,) for (C, V1, V2) joints, each under its own x-map.

    `xmaps` is (C, V1, V2, X).  Every sum runs over one candidate's own
    axes, so a row's terms do not depend on the other rows of its batch.
    I(V1;V2) depends on the joint alone; callers add it as "i_v1_v2".
    """
    p_v1y1 = np.einsum("cvw,cvwy->cvy", joint_batch, np.einsum("cvwx,xy->cvwy", xmaps, my1))
    p_v2y2 = np.einsum("cvw,cvwy->cwy", joint_batch, np.einsum("cvwx,xy->cvwy", xmaps, my2))
    p_vvz = np.einsum("cvw,cvwz->cvwz", joint_batch, np.einsum("cvwx,xz->cvwz", xmaps, mz))
    return {
        "i_v1_y1": _mi_from_joint(p_v1y1),
        "i_v2_y2": _mi_from_joint(p_v2y2),
        "i_v1v2_z": _mi_from_joint(p_vvz.reshape(len(p_vvz), -1, p_vvz.shape[-1])),
        "i_v1_z": _mi_from_joint(p_vvz.sum(axis=2)),
        "i_v2_z": _mi_from_joint(p_vvz.sum(axis=1)),
    }


def _general_sides(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unclamped pentagon sides (C,) each from the double-binning bound's terms.

    A = I(V1;Y1) - I(V1;Z), B = I(V2;Y2) - I(V2;Z),
    S = I(V1;Y1) + I(V2;Y2) - I(V1,V2;Z) - I(V1;V2).
    """
    a = t["i_v1_y1"] - t["i_v1_z"]
    b = t["i_v2_y2"] - t["i_v2_z"]
    s = t["i_v1_y1"] + t["i_v2_y2"] - t["i_v1v2_z"] - t["i_v1_v2"]
    return a, b, s


def _general_corners(a, b, s) -> np.ndarray:
    """Pentagon corner points (2C, 2) from the sides A, B, S, each clamped at 0."""
    a, b, s = (np.maximum(side, 0.0) for side in (a, b, s))
    r1a = np.minimum(a, s)
    r2a = np.minimum(b, s - r1a)
    r2b = np.minimum(b, s)
    r1b = np.minimum(a, s - r2b)
    return np.vstack([np.column_stack([r1a, r2a]), np.column_stack([r1b, r2b])])


def _general_targets(a, b, s, corners) -> np.ndarray:
    """Targets (2, 2, C) for `_dominated`: r1 and r2 of each candidate's two corners.

    A target is the corner's coordinate, or -inf where that coordinate is
    exactly 0 in every relabelling of the candidate: the sides move by
    round-off under relabelling, so a side below -PRUNE_MARGIN clamps to
    0 in all of them, and A > S + PRUNE_MARGIN makes r1 = S and so r2 = 0
    at the first corner (B > S + PRUNE_MARGIN: r1 = 0 at the second).
    """
    targets = corners.reshape(2, -1, 2).transpose(2, 0, 1).copy()
    t1, t2 = targets
    zero_s = s < -PRUNE_MARGIN
    t1[:, zero_s | (a < -PRUNE_MARGIN)] = -np.inf
    t2[:, zero_s | (b < -PRUNE_MARGIN)] = -np.inf
    t2[0, a > s + PRUNE_MARGIN] = -np.inf
    t1[1, b > s + PRUNE_MARGIN] = -np.inf
    return targets


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
    terms = _general_terms(joint[None], xmap[None], py1x.matrix, py2x.matrix, pzx.matrix)
    terms["i_v1_v2"] = _mi_from_joint(joint[None])
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
    first, second = _general_corners(*_general_sides(terms)).tolist()
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

    Relabelling V1 and V2 moves a candidate to another (joint, x-map) with
    the same rates up to round-off, so the kernel first runs one joint per
    relabelling orbit (_orbits) under every x-map.  A cell of weight 0 adds
    +0.0 whatever row it picks, so it is fixed to row 0.  The candidates
    whose two corners the staircase of that pass does not both beat by
    PRUNE_MARGIN then go through the kernel again on every other joint of
    their orbit, each under its x-map relabelled the same way.  A corner
    coordinate that is exactly 0 in every relabelling is a -inf target,
    which any point beats (_general_targets).  A candidate on the exact
    Pareto staircase has a representative whose kernel point lies within
    round-off of its rates, so it passes that test and is evaluated
    itself: the frontier is the full search's, bit for bit.  The kernel
    runs on blocks of ENVELOPE_BLOCK_CELLS cells of x-maps and channel
    rows.  The budget counts every joint under every x-map, before
    anything is built.
    """
    steps = _grid_steps(resolution)
    nx = _check_shared_input(py1x, py2x, pzx)
    v1 = nx if v1_card is None else _check_integer(v1_card, "v1_card", 1, MAX_AUX_CARD)
    v2 = nx if v2_card is None else _check_integer(v2_card, "v2_card", 1, MAX_AUX_CARD)
    # A deterministic map picks a one-hot row for every (v1, v2) pair.
    n_rows = nx if deterministic_x else _simplex_count(nx, steps)
    my1, my2, mz = py1x.matrix, py2x.matrix, pzx.matrix
    cells = v1 * v2 * (nx + my1.shape[1] + my2.shape[1] + mz.shape[1])
    block = max(1, ENVELOPE_BLOCK_CELLS // cells)

    def fill(add):
        counts = _compositions(v1 * v2, steps)
        joints = (counts / steps).reshape(-1, v1, v2)
        i_v1_v2 = _mi_from_joint(joints)
        x_rows = np.eye(nx) if deterministic_x else simplex_grid(nx, steps)
        # With one row every x-map is the same, so no joint needs another of
        # its orbit, and naming orbits would sort the grid min(V1, V2)! times.
        grid_rows = np.arange(len(counts))
        rep, sigma = _orbits(counts, v1, v2, steps) if n_rows > 1 else (grid_rows, None)
        # Representative joint own[r] takes every pick of its nonzero cells,
        # numbered by their row-major digits in base n_rows; its candidates
        # end at rep_ends[r].
        own = np.flatnonzero(rep == grid_rows)
        used = counts[own] > 0
        place = n_rows ** (np.cumsum(used[:, ::-1], axis=1)[:, ::-1] - used)
        per_rep = n_rows ** used.sum(axis=1)
        rep_ends = np.cumsum(per_rep)

        def first_pass(flat):
            """Joint rows and picks (C, V1 V2) of first-pass candidates, weight-0 cells on row 0."""
            r = np.searchsorted(rep_ends, flat, side="right")
            number = flat - rep_ends[r] + per_rep[r]
            return own[r], number[:, None] // place[r] % n_rows * used[r]

        def corners(joint_rows, picks):
            """Sides and corners of the candidates joints[joint_rows[i]] under x-map picks[i]."""
            xmaps = x_rows[picks].reshape(len(picks), v1, v2, nx)
            terms = _general_terms(joints[joint_rows], xmaps, my1, my2, mz)
            sides = _general_sides({**terms, "i_v1_v2": i_v1_v2[joint_rows]})
            return sides, _general_corners(*sides)

        def beaten(targets, staircase):
            """Mask of the candidates whose two corners `staircase` beats by PRUNE_MARGIN."""
            dropped = _dominated(*targets.reshape(2, -1), staircase - PRUNE_MARGIN)
            return dropped.reshape(2, -1).all(axis=0)

        kept, targets = [], []
        for start in range(0, rep_ends[-1], block):
            flat = np.arange(start, min(start + block, rep_ends[-1]))
            sides, points = corners(*first_pass(flat))
            staircase = add(points)
            target = _general_targets(*sides, points)
            live = ~beaten(target, staircase)
            kept.append(flat[live])
            targets.append(target[..., live])
        # Each block's survivors, tested again against the final staircase.
        live = [flat[~beaten(target, staircase)] for flat, target in zip(kept, targets)]
        joint, pick = first_pass(np.concatenate(live))
        # Each survivor k on every other joint of its orbit, under its x-map relabelled the
        # same way.  `mates` lists those joints by orbit, k's ending at hi[k], and k's
        # candidates end at ends[k], so candidate c takes mates[c - ends[k] + hi[k]].
        mates = np.flatnonzero(rep != grid_rows)
        mates = mates[np.argsort(rep[mates], kind="stable")]
        lo, hi = (np.searchsorted(rep[mates], joint, side=side) for side in ("left", "right"))
        ends = np.cumsum(hi - lo)
        for start in range(0, (hi - lo).sum(), block):
            flat = np.arange(start, min(start + block, ends[-1]))
            k = np.searchsorted(ends, flat, side="right")
            mate = mates[flat - ends[k] + hi[k]]
            moved = np.take_along_axis(pick[k], np.argsort(sigma[mate], axis=1), axis=1)
            add(corners(mate, moved)[1])

    return _search(_simplex_count(v1 * v2, steps), n_rows ** (v1 * v2), budget, fill)


def _wiretap_phi(q: np.ndarray, main: np.ndarray, eve: np.ndarray) -> np.ndarray:
    """phi(q) = H(qW_Y) - H(qW_Z) for each row q of P(x)."""
    return entropy_last_axis(q @ main) - entropy_last_axis(q @ eve)


def _lower_facets(rows: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slopes (F, |X| - 1) and offsets (F,) of the lower hull of (q[:-1], value).

    The lower convex envelope over the hull of the rows is the maximum of
    these affine functions of q[:-1].  For |X| = 2 the rows are simplex_grid's,
    q[0] ascending, and the facets are the edges of one monotone chain.  For
    |X| >= 3 Qhull builds the hull: one lid point above the centroid makes
    the cloud full-dimensional even when it is flat (equal channels) and
    lies in no lower facet, so the lower hull is unchanged.
    """
    nx = rows.shape[1]
    if nx == 2:
        x, y = np.array(_convex_chain(np.column_stack([rows[:, 0], values]).tolist())).T
        slopes = np.diff(y) / np.diff(x)
        return slopes[:, None], y[:-1] - slopes * x[:-1]
    from scipy.spatial import ConvexHull  # deferred: the import costs more than most commands

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
