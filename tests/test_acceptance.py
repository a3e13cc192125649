"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import itertools
import math

import numpy as np
import pytest

from bcc_secrecy import (
    CodeParams,
    DiscreteChannel,
    GaussianParams,
    Pmf,
    build_superposition,
    capacity_fn,
    cascade,
    check_stochastic_degraded,
    decode_rx1,
    decode_rx2,
    degraded_rate_pair,
    degraded_region_inner,
    exact_equivocation,
    gaussian_region_point,
    general_inner_bound,
    mutual_information,
    simplex_grid,
    upper_right_hull,
    wiretap_secrecy_capacity,
)
from oracles import (
    binary_entropy,
    equivocation_direct,
    frontier_deviation,
    marton_corners_direct,
    posterior_argmax_exact,
    verify_frontier_shape,
)

BSC = DiscreteChannel.binary_symmetric
CANONICAL = GaussianParams(power=1.0, n1=0.25, n2=0.5, n3=1.0)


def random_channel(rng, n_in, n_out):
    m = rng.random((n_in, n_out)) + 0.05
    return DiscreteChannel(m / m.sum(axis=1, keepdims=True))


def test_criterion_01_gaussian_endpoints():
    tol = 1e-9
    p1 = gaussian_region_point(CANONICAL, 1.0)
    assert p1.r1 == pytest.approx(capacity_fn(4.0) - capacity_fn(1.0), abs=tol)
    assert p1.r1 == pytest.approx(0.660964047443681, abs=tol)
    assert abs(p1.r2) <= tol
    p0 = gaussian_region_point(CANONICAL, 0.0)
    assert abs(p0.r1) <= tol
    assert p0.r2 == pytest.approx(0.292481250360578, abs=tol)
    mid = gaussian_region_point(CANONICAL, 0.5)
    assert mid.r1 == pytest.approx(0.5, abs=tol)
    assert mid.r2 == pytest.approx(0.0849625007211562, abs=tol)
    print("[acceptance 01] PASS: Gaussian endpoint and midpoint rates within 1e-9")


def test_criterion_02_gaussian_chain_identity():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10_000):
        power = 10.0 ** rng.uniform(-2, 2)
        n3 = 10.0 ** rng.uniform(-2, 2)
        alpha = float(rng.uniform(0.0, 1.0))
        err = (
            capacity_fn(alpha * power / n3)
            + capacity_fn((1.0 - alpha) * power / (alpha * power + n3))
            - capacity_fn(power / n3)
        )
        worst = max(worst, abs(err))
    assert worst <= 1e-12, worst
    print(f"[acceptance 02] PASS: power-split identity, worst |error| {worst:.2e} <= 1e-12")


def test_criterion_03_eavesdropper_removal_limit():
    g = GaussianParams(power=1.0, n1=0.25, n2=0.5, n3=1e9)
    worst = 0.0
    for alpha in np.linspace(0.0, 1.0, 101):
        a = float(alpha)
        point = gaussian_region_point(g, a)
        classic_r1 = capacity_fn(a * g.power / g.n1)
        classic_r2 = capacity_fn((1.0 - a) * g.power / (a * g.power + g.n2))
        worst = max(worst, abs(point.r1 - classic_r1), abs(point.r2 - classic_r2))
    assert worst <= 1e-6, worst
    print(f"[acceptance 03] PASS: huge-noise eavesdropper limit, worst gap {worst:.2e} <= 1e-6")


def test_criterion_04_marton_reduction():
    py1x = BSC(0.1)
    py2x = DiscreteChannel([[0.8, 0.2], [0.3, 0.7]])
    pzx = DiscreteChannel(np.full((2, 2), 0.5))
    frontier = general_inner_bound(py1x, py2x, pzx, resolution=0.1)

    points = [(0.0, 0.0)]
    joints = simplex_grid(4, 10).reshape(-1, 2, 2)
    for assignment in itertools.product(range(2), repeat=4):
        xmap = np.eye(2)[list(assignment)].reshape(2, 2, 2)
        for joint in joints:
            points.extend(marton_corners_direct(joint, xmap, py1x.matrix, py2x.matrix))
    expected = upper_right_hull(np.array(points))

    gap = frontier_deviation(frontier.points, expected.points)
    assert gap <= 1e-12, gap
    verify_frontier_shape(frontier, points)
    print(f"[acceptance 04] PASS: no-eavesdropper reduction, frontier gap {gap:.2e} <= 1e-12")


def test_criterion_05_wiretap_reduction():
    value = wiretap_secrecy_capacity(BSC(0.1), BSC(0.2), resolution=0.01)
    target = binary_entropy(0.2) - binary_entropy(0.1)
    assert value == pytest.approx(target, abs=2e-3)
    assert target == pytest.approx(0.252932501298081, abs=1e-12)
    print(f"[acceptance 05] PASS: wiretap grid value {value:.6f} within 2e-3 of {target:.6f}")


def test_criterion_06_degraded_region_oracle_equivalence():
    from oracles import degraded_rates_direct

    py1x, py2x, pzx = BSC(0.05), BSC(0.14), BSC(0.2336)
    frontier = degraded_region_inner(py1x, py2x, pzx, resolution=0.05, u_card=2)

    points = [(0.0, 0.0)]
    rows = simplex_grid(2, 20)
    for pu in simplex_grid(2, 20):
        for r0 in rows:
            for r1 in rows:
                points.append(
                    degraded_rates_direct(
                        pu, np.array([r0, r1]), py1x.matrix, py2x.matrix, pzx.matrix
                    )
                )
    expected = upper_right_hull(np.array(points))
    gap = frontier_deviation(frontier.points, expected.points)
    assert gap <= 1e-12, gap

    collapsed = degraded_region_inner(BSC(0.1), BSC(0.18), BSC(0.1), resolution=0.05, u_card=2)
    assert all(p.r1 <= 1e-12 and p.r2 <= 1e-12 for p in collapsed.points)
    print(
        f"[acceptance 06] PASS: layered region matches brute force (gap {gap:.2e}); "
        "eavesdropper-as-strong-as-rx1 collapses to the origin"
    )


def test_criterion_07_exact_equivocation_oracle():
    rng = np.random.default_rng(555)
    checked = 0
    worst = 0.0
    for trial in range(48):
        n = int(rng.integers(2, 5))
        nz = int(rng.integers(2, 5))
        if nz**n > 4096:
            nz = 2
        params = CodeParams(
            n=n,
            m1=int(rng.integers(1, 4)),
            m2=int(rng.integers(1, 4)),
            l1=int(rng.integers(1, 3)),
            l2=int(rng.integers(1, 3)),
            seed=int(rng.integers(0, 2**31)),
        )
        nx = int(rng.integers(2, 4))
        pu = rng.random(2) + 0.1
        cb = build_superposition(params, Pmf(pu / pu.sum()), random_channel(rng, 2, nx))
        pzx = random_channel(rng, nx, nz)
        report = exact_equivocation(cb, pzx)
        re1, re2, re12 = equivocation_direct(
            cb.x_words, pzx.matrix, params.m1, params.m2, params.l1, params.l2, n
        )
        worst = max(worst, abs(report.re1 - re1), abs(report.re2 - re2), abs(report.re12 - re12))
        checked += 1
    # two instances at the enumeration ceiling |Z|^n = 4096
    for seed in (1, 2):
        params = CodeParams(n=12, m1=2, m2=2, l1=2, l2=1, seed=seed)
        cb = build_superposition(params, Pmf.uniform(2), random_channel(rng, 2, 2))
        pzx = random_channel(rng, 2, 2)
        report = exact_equivocation(cb, pzx)
        re1, re2, re12 = equivocation_direct(cb.x_words, pzx.matrix, 2, 2, 2, 1, 12)
        worst = max(worst, abs(report.re1 - re1), abs(report.re2 - re2), abs(report.re12 - re12))
        checked += 1
    assert checked == 50
    assert worst <= 1e-12, worst

    uninformative = DiscreteChannel(np.full((2, 2), 0.5))
    params = CodeParams(n=3, m1=2, m2=2, l1=2, l2=2, seed=99)
    cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
    assert exact_equivocation(cb, uninformative).gaps == (0.0, 0.0, 0.0)
    print(
        f"[acceptance 07] PASS: {checked} random instances match the brute-force "
        f"enumerator (worst {worst:.2e} <= 1e-12); uninformative-Z gaps exactly zero"
    )


def test_criterion_08_secrecy_gap_trend():
    py1x, py2x, pzx = BSC(0.001), BSC(0.005), BSC(0.2)
    pu, pxu = Pmf.uniform(2), BSC(0.1)
    i_uz = mutual_information(pu, cascade(pxu, pzx))
    i_xz = mutual_information(Pmf(pu.probs @ pxu.matrix), pzx)

    # the operating point (0.25, 0.25) at n=4 must sit strictly inside the
    # region generated by this auxiliary choice
    bounds = degraded_rate_pair(pu, pxu, py1x, py2x, pzx)
    assert bounds.r1 > 0.25 and bounds.r2 > 0.25

    def mean_gap(n, l1, l2, seeds=100):
        gaps = []
        for seed in range(seeds):
            params = CodeParams(n=n, m1=2, m2=2, l1=l1, l2=l2, seed=seed)
            cb = build_superposition(params, pu, pxu)
            gaps.append(exact_equivocation(cb, pzx).gaps[2])
        return float(np.mean(gaps))

    blocklengths = (4, 8, 12)
    sized = []
    for n in blocklengths:
        l1 = int(math.ceil(2 ** (n * (i_xz - i_uz))))
        l2 = int(math.ceil(2 ** (n * i_uz)))
        sized.append(mean_gap(n, l1, l2))
    assert sized[0] >= sized[1] >= sized[2], sized

    for n in blocklengths:
        with_dither = mean_gap(n, 4, 4)
        without = mean_gap(n, 1, 1)
        assert with_dither < without, (n, with_dither, without)
    print(
        "[acceptance 08] PASS: mean secrecy gap non-increasing over n=4,8,12 "
        f"({', '.join(f'{g:.4f}' for g in sized)}); l=4 beats l=1 at every n"
    )


def test_criterion_09_ml_decoder_optimality():
    rng = np.random.default_rng(321)
    mismatches = 0
    outputs_checked = 0

    def check_instance(cb, rx1_channel, rx2_channel, n, ny):
        nonlocal mismatches, outputs_checked
        flat_x = cb.x_words.reshape(-1, n)
        flat_u = cb.u_words.reshape(-1, n)
        # Every output sequence, decoded in one batched call per receiver.
        ys = np.array(list(itertools.product(range(ny), repeat=n)))
        got_w1, got_w2 = decode_rx1(cb, ys, rx1_channel)
        got_bins = decode_rx2(cb, ys, rx2_channel)
        for y, got1, got2 in zip(ys, zip(got_w1, got_w2), got_bins, strict=True):
            want_flat = posterior_argmax_exact(flat_x, y, rx1_channel.matrix)
            w2, _, w1, _ = np.unravel_index(want_flat, cb.x_words.shape[:4])
            if got1 != (int(w1), int(w2)):
                mismatches += 1
            want2 = posterior_argmax_exact(flat_u, y, rx2_channel.matrix) // cb.params.l2
            if got2 != want2:
                mismatches += 1
            outputs_checked += 1

    # generic random channels, mixed alphabet sizes
    params = CodeParams(n=3, m1=2, m2=2, l1=2, l2=2, seed=11)
    pxu = random_channel(rng, 2, 2)
    cb = build_superposition(params, Pmf.uniform(2), pxu)
    check_instance(cb, random_channel(rng, 2, 2), random_channel(rng, 2, 2), 3, 2)

    params = CodeParams(n=4, m1=2, m2=2, l1=1, l2=2, seed=23)
    pxu = random_channel(rng, 3, 3)
    cb = build_superposition(params, Pmf.uniform(3), pxu)
    check_instance(cb, random_channel(rng, 3, 3), random_channel(rng, 3, 3), 4, 3)

    # symmetric channel with exact likelihood ties between equidistant words
    params = CodeParams(n=6, m1=2, m2=4, l1=1, l2=2, seed=37)
    cb = build_superposition(params, Pmf.uniform(2), BSC(0.05))
    check_instance(cb, BSC(0.1), BSC(0.1), 6, 2)

    # degenerate codebook: identical cloud words force ties everywhere
    params = CodeParams(n=3, m1=2, m2=2, l1=2, l2=2, seed=41)
    cb = build_superposition(params, Pmf((1.0, 0.0)), BSC(0.2))
    check_instance(cb, random_channel(rng, 2, 2), random_channel(rng, 2, 2), 3, 2)

    # the 2^12 output ceiling
    params = CodeParams(n=12, m1=2, m2=2, l1=2, l2=2, seed=53)
    pxu = random_channel(rng, 2, 2)
    cb = build_superposition(params, Pmf.uniform(2), pxu)
    check_instance(cb, random_channel(rng, 2, 2), random_channel(rng, 2, 2), 12, 2)

    assert mismatches == 0
    print(
        f"[acceptance 09] PASS: ML decoders match exact posterior maximization on "
        f"{outputs_checked} enumerated outputs across 5 instances (0 mismatches)"
    )


def test_criterion_10_degradedness_round_trip():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        n_in = int(rng.integers(2, 5))
        n_mid = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 5))
        a = random_channel(rng, n_in, n_mid)
        m0 = random_channel(rng, n_mid, n_out)
        report = check_stochastic_degraded(a, cascade(a, m0))
        assert report.feasible
        worst = max(worst, report.residual)
    assert worst <= 1e-7
    anti = check_stochastic_degraded(BSC(0.1), BSC(0.05))
    assert not anti.feasible
    print(
        f"[acceptance 10] PASS: 100 cascade round trips feasible (worst residual "
        f"{worst:.2e} <= 1e-7); BSC(0.1) vs BSC(0.05) reported infeasible"
    )
