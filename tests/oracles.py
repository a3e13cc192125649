"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the dumb way: explicit loops,
definition-level sums, exact rational arithmetic where ties matter.  None
of it shares code with the library's vectorized paths.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def entropy_direct(probs) -> float:
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0)


def mi_direct(px, matrix) -> float:
    """I(X;Y) straight from the joint-sum definition."""
    matrix = np.asarray(matrix, dtype=float)
    n_in, n_out = matrix.shape
    py = [math.fsum(px[x] * matrix[x][y] for x in range(n_in)) for y in range(n_out)]
    terms = []
    for x in range(n_in):
        for y in range(n_out):
            joint = px[x] * matrix[x][y]
            if joint > 0.0:
                terms.append(joint * math.log2(matrix[x][y] / py[y]))
    return math.fsum(terms)


def cmi_direct(probs: np.ndarray, a: int, b: int, cond: tuple[int, ...]) -> float:
    """I(A;B|C) as the per-condition average of plain mutual informations."""
    probs = np.asarray(probs, dtype=float)
    other = tuple(i for i in range(probs.ndim) if i not in (a, b, *cond))
    reduced = probs.sum(axis=other) if other else probs
    # reduced axes are ordered as in the original tensor; locate a, b, cond there
    kept = sorted((a, b, *cond))
    ia, ib = kept.index(a), kept.index(b)
    icond = tuple(kept.index(c) for c in cond)
    total = 0.0
    cond_sizes = [reduced.shape[i] for i in icond]
    for cvals in itertools.product(*(range(s) for s in cond_sizes)):
        index: list = [slice(None)] * reduced.ndim
        for axis, value in zip(icond, cvals):
            index[axis] = value
        block = reduced[tuple(index)]
        if ia > ib:
            block = block.T
        pc = float(block.sum())
        if pc <= 0.0:
            continue
        cond_joint = block / pc
        pa = cond_joint.sum(axis=1)
        pb = cond_joint.sum(axis=0)
        inner = []
        for i in range(cond_joint.shape[0]):
            for j in range(cond_joint.shape[1]):
                v = cond_joint[i, j]
                if v > 0.0:
                    inner.append(v * math.log2(v / (pa[i] * pb[j])))
        total += pc * math.fsum(inner)
    return total


def degraded_rates_direct(pu, pxu, my1, my2, mz) -> tuple[float, float]:
    """Clamped layered-scheme rate pair, every term a definition-level sum."""
    pu = np.asarray(pu, float)
    pxu = np.asarray(pxu, float)
    nu, nx = pxu.shape
    px = [math.fsum(pu[u] * pxu[u][x] for u in range(nu)) for x in range(nx)]
    uz = [[math.fsum(pxu[u][x] * mz[x][z] for x in range(nx)) for z in range(len(mz[0]))]
          for u in range(nu)]
    uy2 = [[math.fsum(pxu[u][x] * my2[x][y] for x in range(nx)) for y in range(len(my2[0]))]
           for u in range(nu)]
    i_xz = mi_direct(px, mz)
    i_uz = mi_direct(pu, np.array(uz))
    i_uy2 = mi_direct(pu, np.array(uy2))
    i_xy1_u = math.fsum(pu[u] * mi_direct(pxu[u], my1) for u in range(nu))
    r1 = max(i_xy1_u + i_uz - i_xz, 0.0)
    r2 = max(i_uy2 - i_uz, 0.0)
    return r1, r2


def marton_corners_direct(joint, xmap, my1, my2) -> list[tuple[float, float]]:
    """Pentagon corners with the eavesdropper terms dropped."""
    joint = np.asarray(joint, float)
    xmap = np.asarray(xmap, float)
    v1, v2 = joint.shape
    pv1 = joint.sum(axis=1)
    pv2 = joint.sum(axis=0)
    ch1 = np.zeros((v1, my1.shape[1]))
    for i in range(v1):
        if pv1[i] > 0:
            for j in range(v2):
                ch1[i] += joint[i, j] / pv1[i] * (xmap[i, j] @ my1)
    ch2 = np.zeros((v2, my2.shape[1]))
    for j in range(v2):
        if pv2[j] > 0:
            for i in range(v1):
                ch2[j] += joint[i, j] / pv2[j] * (xmap[i, j] @ my2)
    a = max(mi_direct(pv1, ch1), 0.0)
    b = max(mi_direct(pv2, ch2), 0.0)
    i_v1v2 = math.fsum(
        joint[i, j] * math.log2(joint[i, j] / (pv1[i] * pv2[j]))
        for i in range(v1)
        for j in range(v2)
        if joint[i, j] > 0.0
    )
    s = max(a + b - i_v1v2, 0.0)
    r1a = min(a, s)
    corner1 = (r1a, min(b, s - r1a))
    r2b = min(b, s)
    corner2 = (min(a, s - r2b), r2b)
    return [corner1, corner2]


def equivocation_direct(x_words, mz, m1, m2, l1, l2, n) -> tuple[float, float, float]:
    """(re1, re2, re12) by enumerating every observation sequence in a dict."""
    mz = np.asarray(mz, float)
    nz = mz.shape[1]
    joint: dict = {}
    for zseq in itertools.product(range(nz), repeat=n):
        for w2 in range(m2):
            for w1 in range(m1):
                total = 0.0
                for j2 in range(l2):
                    for j1 in range(l1):
                        word = x_words[w2][j2][w1][j1]
                        p = 1.0
                        for i in range(n):
                            p *= mz[word[i]][zseq[i]]
                        total += p
                joint[(w1, w2, zseq)] = total / (l1 * l2 * m1 * m2)
    return _equivocations_from_joint(joint, n)


def equivocation_binning_direct(
    v1_words, v2_words, pv1, pv2, x_map, mz, epsilon
) -> tuple[float, float, float]:
    """(re1, re2, re12) of a double-binning codebook, one dict entry per outcome.

    Each message pair's typical (j1, j2) come from typical_pair_loop; the
    pair sends x_i ~ x_map[v1_i, v2_i] and the eavesdropper sees z_i ~ mz[x_i],
    summed over x per symbol.  A pair with no typical member sends the
    outcome "erasure" with probability 1, which no z^n equals.
    """
    mz = np.asarray(mz, float)
    x_map = np.asarray(x_map, float)
    m1, m2, n = v1_words.shape[0], v2_words.shape[0], v1_words.shape[2]
    nz, nx = mz.shape[1], mz.shape[0]
    joint: dict = {}
    for w2 in range(m2):
        for w1 in range(m1):
            members = typical_pair_loop(v1_words, v2_words, pv1, pv2, epsilon, w1, w2)
            if not members:
                joint[(w1, w2, "erasure")] = 1.0 / (m1 * m2)
                continue
            for zseq in itertools.product(range(nz), repeat=n):
                total = 0.0
                for j1, j2 in members:
                    p = 1.0
                    for i in range(n):
                        v1, v2 = v1_words[w1, j1, i], v2_words[w2, j2, i]
                        p *= math.fsum(x_map[v1, v2, x] * mz[x][zseq[i]] for x in range(nx))
                    total += p
                joint[(w1, w2, zseq)] = total / len(members) / (m1 * m2)
    return _equivocations_from_joint(joint, n)


def _equivocations_from_joint(joint: dict, n: int) -> tuple[float, float, float]:
    """(re1, re2, re12) from a dict {(w1, w2, outcome): probability}."""

    def cond_entropy(keep):
        grouped: dict = {}
        pz: dict = {}
        for (w1, w2, zseq), p in joint.items():
            grouped[(keep(w1, w2), zseq)] = grouped.get((keep(w1, w2), zseq), 0.0) + p
            pz[zseq] = pz.get(zseq, 0.0) + p
        # one pz accumulation per keep() call keeps this fully self-contained
        h_joint = -math.fsum(p * math.log2(p) for p in grouped.values() if p > 0.0)
        h_z = -math.fsum(p * math.log2(p) for p in pz.values() if p > 0.0)
        return h_joint - h_z

    re1 = cond_entropy(lambda w1, w2: w1) / n
    re2 = cond_entropy(lambda w1, w2: w2) / n
    re12 = cond_entropy(lambda w1, w2: (w1, w2)) / n
    return re1, re2, re12


def posterior_argmax_exact(words_flat, y, matrix) -> int:
    """Exact-arithmetic posterior maximization over a flat word list.

    Floats are dyadic rationals, so Fraction(p) is exact and the argmax is
    decided without rounding; ties go to the lowest index.
    """
    matrix = np.asarray(matrix, float)
    n_words = len(words_flat)
    prior = Fraction(1, n_words)
    best_idx = 0
    best: Fraction | None = None
    for idx in range(n_words):
        post = prior
        for xi, yi in zip(words_flat[idx], y):
            post *= Fraction(float(matrix[xi][yi]))
        if best is None or post > best:
            best = post
            best_idx = idx
    return best_idx


def ml_index_per_sequence(words, y, log_matrix) -> int:
    """Flat index into words[..., n] of the word most likely to have produced one y.

    The library's single-observation scorer before it took batches: the
    sorted per-symbol terms of every word summed along the last axis, the
    first maximum winning.  The batched scorer must agree bit for bit.
    """
    scores = np.sort(log_matrix[words, y], axis=-1).sum(axis=-1)
    return int(np.argmax(scores))


def frontier_deviation(points_a, points_b) -> float:
    """Max vertical gap between two frontier polylines (sorted by r1)."""
    ax = np.array([p[0] for p in points_a])
    ay = np.array([p[1] for p in points_a])
    bx = np.array([p[0] for p in points_b])
    by = np.array([p[1] for p in points_b])
    xs = np.union1d(ax, bx)
    return float(np.max(np.abs(np.interp(xs, ax, ay) - np.interp(xs, bx, by))))


def verify_frontier_shape(frontier, cloud, tol=1e-9) -> None:
    """Assert the frontier invariants against the generating point cloud.

    Every frontier point must come from cloud + (0,0); no frontier point may
    dominate another; every cloud point must lie weakly below the frontier
    envelope extended with the axis feet; the envelope must be concave.
    """
    pts = [(p.r1, p.r2) for p in frontier.points]
    cloud = [(float(x), float(y)) for x, y in cloud] + [(0.0, 0.0)]
    for x, y in pts:
        assert any(abs(x - cx) <= tol and abs(y - cy) <= tol for cx, cy in cloud), (
            f"frontier point {(x, y)} is not a generating point"
        )
    for i, (x1, y1) in enumerate(pts):
        for j, (x2, y2) in enumerate(pts):
            if i != j:
                dominated = x2 >= x1 - tol and y2 >= y1 - tol and (
                    x2 > x1 + tol or y2 > y1 + tol
                )
                assert not dominated, f"{(x1, y1)} dominated by {(x2, y2)}"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    for cx, cy in cloud:
        if cx > xs[-1] + tol:
            limit = 0.0  # beyond the frontier's reach nothing may live above zero
        else:
            limit = float(np.interp(cx, [0.0] + xs, [ys[0]] + ys))
        assert cy <= limit + tol, f"cloud point {(cx, cy)} pokes above the frontier"
    for k in range(1, len(pts) - 1):
        (x0, y0), (x1, y1), (x2, y2) = pts[k - 1], pts[k], pts[k + 1]
        cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        assert cross <= tol, "frontier chain is not concave"


def hull_two_chain(points) -> list[tuple[float, float]]:
    """Pareto-maximal hull vertices of the points and (0, 0), sorted by r1.

    The full convex hull is built by Andrew's monotone chain (a lower and
    an upper chain over every distinct point, collinear points popped),
    then Pareto-filtered with a plain loop.  This is the reference for the
    library's single chain over the Pareto staircase.
    """
    arr = np.vstack([np.asarray(points, dtype=float).reshape(-1, 2), [0.0, 0.0]])
    pts = np.unique(arr, axis=0)  # lex sort (r1, r2), duplicates dropped

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(rows):
        out: list = []
        for p in rows:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    verts = pts if len(pts) <= 2 else np.array(chain(pts)[:-1] + chain(pts[::-1])[:-1])
    keep: list[tuple[float, float]] = []
    best = -math.inf
    for x, y in np.unique(verts, axis=0)[::-1]:  # r1 descending, ties r2 descending
        if y > best:
            keep.append((float(x), float(y)))
            best = y
    return keep[::-1]


def equivocation_digit_table(x_words, mz, m1, m2, l1, l2, n) -> tuple[float, ...]:
    """(re1, re2, re12, *gaps) by the library's former digit-table path.

    An n x |Z|^n table holds symbol i of every z^n (row-major), and each
    message pair's likelihoods are built by gathering n full-width rows for
    all of its bin members at once, which adds the members one after another.
    The library sums them by matrix products and matches it to 1e-13.
    """
    mz = np.asarray(mz, float)
    nz = mz.shape[1]
    count = nz**n
    idx = np.arange(count)
    digits = np.empty((n, count), dtype=np.int64)
    for i in range(n):
        digits[i] = (idx // (nz ** (n - 1 - i))) % nz

    def plogp_sum(values):
        v = values[values > 0.0]
        return float((v * np.log2(v)).sum())

    inv_messages = 1.0 / (m1 * m2)
    pz = np.zeros(count)
    pw1z = np.zeros((m1, count))
    pw2z = np.zeros((m2, count))
    joint_plogp = 0.0
    for w2 in range(m2):
        for w1 in range(m1):
            words = x_words[w2, :, w1, :, :].reshape(l2 * l1, n)
            probs = np.ones((l2 * l1, count))
            for i in range(n):
                probs *= mz[words[:, i]][:, digits[i]]
            joint = probs.sum(axis=0) / (l1 * l2) * inv_messages
            pz += joint
            pw1z[w1] += joint
            pw2z[w2] += joint
            joint_plogp += plogp_sum(joint)
    h_z = -plogp_sum(pz)
    re1 = max((-plogp_sum(pw1z.ravel()) - h_z) / n, 0.0)
    re2 = max((-plogp_sum(pw2z.ravel()) - h_z) / n, 0.0)
    re12 = max((-joint_plogp - h_z) / n, 0.0)
    rate1, rate2 = math.log2(m1) / n, math.log2(m2) / n
    return re1, re2, re12, rate1 - re1, rate2 - re2, rate1 + rate2 - re12


def typical_pair_loop(v1_words, v2_words, pv1, pv2, epsilon, w1, w2) -> list[tuple[int, int]]:
    """Every (j1, j2) whose joint type is within epsilon of pv1 x pv2 (max norm).

    The library's former per-pair loop, in (j1, j2) order.
    """
    a1, a2 = len(pv1), len(pv2)
    target = np.outer(pv1, pv2)
    qualifying = []
    for j1 in range(v1_words.shape[1]):
        v1_word = v1_words[w1, j1]
        for j2 in range(v2_words.shape[1]):
            v2_word = v2_words[w2, j2]
            counts = np.zeros((a1, a2))
            np.add.at(counts, (v1_word, v2_word), 1.0)
            if np.max(np.abs(counts / len(v1_word) - target)) <= epsilon:
                qualifying.append((j1, j2))
    return qualifying


def sample_iid_searchsorted(rng, probs, shape) -> np.ndarray:
    """i.i.d. symbols by the library's former searchsorted sampler.

    Inverse CDF on raw uniforms: the symbol is the number of CDF entries
    <= u, capped at the last symbol when the CDF ends below 1.
    """
    cdf = np.cumsum(probs)
    draws = np.searchsorted(cdf, rng.random(shape), side="right")
    return np.minimum(draws, len(probs) - 1).astype(np.int64)


def gaussian_point_scalar(power, n1, n2, n3, alpha) -> tuple[float, float]:
    """(r1, r2) of the Gaussian power split by the library's former scalar body."""

    def capacity(snr):
        return 0.5 * math.log2(1.0 + snr)

    r1 = capacity(alpha * power / n1) - capacity(alpha * power / n3)
    r2 = capacity((1.0 - alpha) * power / (alpha * power + n2)) - capacity(
        (1.0 - alpha) * power / (alpha * power + n3)
    )
    return r1, r2


def simplex_grid_compositions(dim: int, steps: int) -> np.ndarray:
    """The library's former simplex grid: a recursive generator of compositions."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head, *tail)

    return np.array(list(compositions(steps, dim)), dtype=np.float64) / steps


def wiretap_grid_search(main, eve, steps: int, v_card: int) -> float:
    """The library's former wiretap search, clamped at 0.

    Max of I(V;Y) - I(V;Z) over P(v) on the 1/steps grid of the v_card
    simplex and every P(x|v) whose rows lie on the 1/steps grid.
    """
    main = np.asarray(main, dtype=float)
    eve = np.asarray(eve, dtype=float)
    rows = simplex_grid_compositions(main.shape[0], steps)
    picks = np.array(list(itertools.product(range(len(rows)), repeat=v_card)))
    cond = rows[picks]  # (C, V, X)

    def entropy(p):
        safe = np.where(p > 0.0, p, 1.0)
        return -np.sum(np.where(p > 0.0, p * np.log2(safe), 0.0), axis=-1)

    t_y, t_z = cond @ main, cond @ eve  # (C, V, out)
    h_y, h_z = entropy(t_y), entropy(t_z)
    best = 0.0
    for pv in simplex_grid_compositions(v_card, steps):
        i_vy = entropy(np.einsum("v,cvo->co", pv, t_y)) - h_y @ pv
        i_vz = entropy(np.einsum("v,cvo->co", pv, t_z)) - h_z @ pv
        best = max(best, float(np.max(i_vy - i_vz)))
    return best


def wiretap_two_point_binary(main, eve, steps: int) -> float:
    """Binary-input wiretap value from every two-row mixture, by explicit loops.

    For rows a < b on the 1/steps grid of P(x=0) and each p on the
    1/steps^2 grid between them, the mixture of a and b with mean p gains
    phi(p) minus the chord of phi from a to b at p, with
    phi(q) = H(qW_Y) - H(qW_Z).  The maximum over all of them, clamped
    at 0, is the lower-convex-envelope value for binary X.
    """
    fine = steps * steps

    def phi(m):
        p = (m / fine, (fine - m) / fine)
        h = []
        for matrix in (main, eve):
            matrix = np.asarray(matrix, dtype=float)
            out = [math.fsum(p[x] * matrix[x][y] for x in range(2)) for y in range(matrix.shape[1])]
            h.append(entropy_direct(out))
        return h[0] - h[1]

    values = [phi(m) for m in range(fine + 1)]
    best = 0.0
    for i in range(steps + 1):
        for j in range(i + 1, steps + 1):
            lo, hi = i * steps, j * steps
            for m in range(lo, hi + 1):
                chord = ((hi - m) * values[lo] + (m - lo) * values[hi]) / (hi - lo)
                best = max(best, values[m] - chord)
    return best
