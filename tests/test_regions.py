import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcc_secrecy import (
    AuxGridSpec,
    BudgetExceeded,
    DimensionMismatch,
    DiscreteChannel,
    GaussianParams,
    Pmf,
    RatePoint,
    capacity_fn,
    cascade,
    degraded_rate_pair,
    degraded_region_inner,
    gaussian_region_point,
    gaussian_region_sweep,
    general_inner_bound,
    general_rate_corners,
    mutual_information,
    regions,
    simplex_grid,
    upper_right_hull,
    wiretap_secrecy_capacity,
)
from oracles import (
    cmi_direct,
    degraded_rates_direct,
    frontier_deviation,
    gaussian_point_scalar,
    hull_two_chain,
    verify_frontier_shape,
)

BSC = DiscreteChannel.binary_symmetric
CANONICAL = GaussianParams(power=1.0, n1=0.25, n2=0.5, n3=1.0)


def uninformative(n_inputs, row=(0.5, 0.5)):
    return DiscreteChannel.constant_rows(row, n_inputs)


def bits(points):
    """Exact float identity of a point list (hex keeps the sign of zero too)."""
    return [(float(x).hex(), float(y).hex()) for x, y in points]


def dominated(point, cloud):
    x, y = point
    weakly = (cloud[:, 0] >= x) & (cloud[:, 1] >= y)
    return bool(np.any(weakly & ((cloud[:, 0] > x) | (cloud[:, 1] > y))))


def near_collinear_cloud(rng):
    """Points on a segment or a finely sampled arc, nudged by a few ulps."""
    k = int(rng.integers(3, 40))
    t = np.sort(rng.uniform(0.0, 1.0, k))
    if rng.random() < 0.5:
        a, b = rng.uniform(0.1, 2.0, 2)
        cloud = np.column_stack([t * b, (1.0 - t) * a])
    else:
        theta = rng.uniform(0.0, np.pi / 2) + 1e-7 * t
        cloud = np.column_stack([np.cos(theta), np.sin(theta)])
    steps = rng.integers(-3, 4, size=cloud.shape)
    cloud = cloud + steps * np.spacing(cloud)
    return np.abs(cloud)


class TestCapacityFn:
    @pytest.mark.parametrize("snr,expected", [(0.0, 0.0), (1.0, 0.5), (3.0, 1.0)])
    def test_known_values(self, snr, expected):
        assert capacity_fn(snr) == expected

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            capacity_fn(-0.1)

    def test_monotone(self):
        xs = np.linspace(0, 50, 200)
        vals = [capacity_fn(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


    def test_array_is_elementwise(self):
        snrs = np.linspace(0, 50, 2001)
        assert capacity_fn(snrs).tolist() == [capacity_fn(x) for x in snrs.tolist()]
        assert capacity_fn(snrs.reshape(3, 667)).shape == (3, 667)

    def test_negative_snr_in_array_quoted(self):
        with pytest.raises(ValueError, match=r"got -0\.5$"):
            capacity_fn(np.array([0.0, 1.0, -0.5, -2.0]))


class TestGaussianParams:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            GaussianParams(1.0, 0.5, 0.25, 1.0)

    def test_positive_power(self):
        with pytest.raises(ValueError):
            GaussianParams(0.0, 0.25, 0.5, 1.0)


class TestGaussianRegionPoint:
    def test_alpha_zero_collapses_r1(self):
        point = gaussian_region_point(CANONICAL, 0.0)
        assert point.r1 == 0.0
        assert point.r2 == pytest.approx(capacity_fn(2.0) - capacity_fn(1.0), abs=1e-12)

    def test_alpha_one_collapses_r2(self):
        point = gaussian_region_point(CANONICAL, 1.0)
        assert point.r2 == 0.0
        assert point.r1 == pytest.approx(capacity_fn(4.0) - capacity_fn(1.0), abs=1e-12)

    def test_midpoint_closed_form(self):
        point = gaussian_region_point(CANONICAL, 0.5)
        assert point.r1 == pytest.approx(0.5, abs=1e-12)
        assert point.r2 == pytest.approx(0.0849625007211562, abs=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            gaussian_region_point(CANONICAL, 1.5)

    @pytest.mark.parametrize(
        "g",
        [
            CANONICAL,
            GaussianParams(power=10.0, n1=0.3, n2=0.9, n3=2.5),
            GaussianParams(power=1e-3, n1=1e-4, n2=1e3, n3=1e4),
        ],
    )
    def test_array_equals_scalar_body(self, g):
        alphas = np.linspace(0.0, 1.0, 20001)
        point = gaussian_region_point(g, alphas)
        want = [gaussian_point_scalar(g.power, g.n1, g.n2, g.n3, a) for a in alphas.tolist()]
        assert point.r1.tolist() == [r1 for r1, _ in want]
        assert point.r2.tolist() == [r2 for _, r2 in want]
        scalar = gaussian_point_scalar(g.power, g.n1, g.n2, g.n3, 0.3)
        assert gaussian_region_point(g, 0.3) == scalar

    def test_first_alpha_out_of_range_quoted(self):
        with pytest.raises(ValueError, match=r"got 1\.5$"):
            gaussian_region_point(CANONICAL, np.array([0.0, 1.5, -0.5, 0.2]))

    def test_nonnegative_without_clamping(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            power, n1 = rng.uniform(0.05, 20, size=2)
            n2 = n1 * rng.uniform(1.0, 4.0)
            n3 = n2 * rng.uniform(1.0, 4.0)
            g = GaussianParams(power, n1, n2, n3)
            point = gaussian_region_point(g, float(rng.uniform(0, 1)))
            assert point.r1 >= 0.0
            assert point.r2 >= 0.0

    def test_chain_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            p = 10.0 ** rng.uniform(-2, 2)
            n3 = 10.0 ** rng.uniform(-2, 2)
            alpha = float(rng.uniform(0, 1))
            err = capacity_fn(alpha * p / n3) + capacity_fn(
                (1 - alpha) * p / (alpha * p + n3)
            ) - capacity_fn(p / n3)
            assert abs(err) <= 1e-12


class TestGaussianRegionSweep:
    def test_two_alphas_give_endpoints(self):
        frontier = gaussian_region_sweep(CANONICAL, 2)
        assert frontier.points == [
            gaussian_region_point(CANONICAL, 0.0),
            gaussian_region_point(CANONICAL, 1.0),
        ]

    def test_equal_n2_n3_kills_r2(self):
        g = GaussianParams(1.0, 0.25, 1.0, 1.0)
        for alpha in np.linspace(0, 1, 21):
            assert gaussian_region_point(g, float(alpha)).r2 == 0.0
        frontier = gaussian_region_sweep(g, 21)
        assert all(p.r2 == 0.0 for p in frontier.points)

    def test_all_noise_equal_collapses_to_origin(self):
        g = GaussianParams(1.0, 1.0, 1.0, 1.0)
        assert gaussian_region_sweep(g, 21).points == [RatePoint(0.0, 0.0)]

    def test_frontier_contains_midpoint(self):
        frontier = gaussian_region_sweep(CANONICAL, 101)
        match = [p for p in frontier.points if abs(p.r1 - 0.5) < 1e-9]
        assert match and abs(match[0].r2 - 0.0849625007211562) < 1e-9

    def test_pareto_invariant(self):
        frontier = gaussian_region_sweep(CANONICAL, 101)
        pts = frontier.points
        assert all(a.r1 < b.r1 and a.r2 > b.r2 for a, b in zip(pts, pts[1:]))

    def test_eavesdropper_monotonicity(self):
        weaker_eve = GaussianParams(1.0, 0.25, 0.5, 4.0)
        for alpha in np.linspace(0, 1, 41):
            base = gaussian_region_point(CANONICAL, float(alpha))
            relaxed = gaussian_region_point(weaker_eve, float(alpha))
            assert relaxed.r1 >= base.r1 - 1e-15
            assert relaxed.r2 >= base.r2 - 1e-15

    def test_num_alphas_validated(self):
        with pytest.raises(ValueError):
            gaussian_region_sweep(CANONICAL, 1)


class TestUpperRightHull:
    def test_two_extreme_points_survive(self):
        frontier = upper_right_hull([RatePoint(1, 0), RatePoint(0, 1)])
        assert frontier.points == [RatePoint(0, 1), RatePoint(1, 0)]
        assert frontier.hulled

    def test_dominated_point_removed(self):
        frontier = upper_right_hull([RatePoint(1, 1), RatePoint(0.5, 0.5)])
        assert frontier.points == [RatePoint(1, 1)]

    def test_point_under_chord_removed(self):
        frontier = upper_right_hull([RatePoint(2, 0), RatePoint(0, 2), RatePoint(0.9, 0.9)])
        assert frontier.points == [RatePoint(0, 2), RatePoint(2, 0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            upper_right_hull([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            upper_right_hull([RatePoint(-0.1, 0.2)])

    def test_all_origin_collapses(self):
        frontier = upper_right_hull([RatePoint(0, 0), RatePoint(0, 0)])
        assert frontier.points == [RatePoint(0, 0)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_lattice_clouds_match_two_chain_oracle(self, cells):
        # eighths are exact, so ties and exactly collinear runs are common
        cloud = np.array(cells, dtype=float) / 8.0
        assert bits(upper_right_hull(cloud).points) == bits(hull_two_chain(cloud))

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_float_clouds_match_two_chain_oracle(self, pairs):
        cloud = np.array(pairs, dtype=float)
        got = upper_right_hull(cloud).points
        expected = hull_two_chain(cloud)
        if any(dominated(p, cloud) for p in expected):
            # see test_no_dominated_vertex_at_extreme_magnitude_ratio
            assert not any(dominated(p, cloud) for p in got)
        else:
            assert bits(got) == bits(expected)

    def test_no_dominated_vertex_at_extreme_magnitude_ratio(self):
        # (tiny - 1) rounds to -1, so the reference's cross product through
        # (tiny, 1) cancels to 0 and keeps (0, 1), which (tiny, 1) dominates.
        # The staircase drops (0, 1) before any cross product is taken.
        tiny = 4.258530098825195e-306
        cloud = np.array([(0.0, 1.0), (1.0, 0.0), (tiny, 1.0)])
        assert hull_two_chain(cloud) == [(0.0, 1.0), (1.0, 0.0)]
        assert upper_right_hull(cloud).points == [RatePoint(tiny, 1.0), RatePoint(1.0, 0.0)]

    @pytest.mark.parametrize("kind", ["random", "near-collinear"])
    def test_seeded_clouds_match_two_chain_oracle(self, kind):
        rng = np.random.default_rng(53)
        for _ in range(500):
            if kind == "random":
                cloud = rng.uniform(0, 2, size=(int(rng.integers(1, 60)), 2))
            else:
                cloud = near_collinear_cloud(rng)
            assert bits(upper_right_hull(cloud).points) == bits(hull_two_chain(cloud))

    def test_random_clouds_satisfy_invariants(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            cloud = rng.uniform(0, 2, size=(int(rng.integers(1, 40)), 2))
            frontier = upper_right_hull(cloud)
            verify_frontier_shape(frontier, cloud)


class TestSimplexGrid:
    def test_counts_and_lattice(self):
        grid = simplex_grid(3, 4)
        assert len(grid) == math.comb(6, 2)
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert np.allclose(grid * 4, np.round(grid * 4))

    def test_dim_one(self):
        assert simplex_grid(1, 7).tolist() == [[1.0]]

    def test_contains_vertices(self):
        grid = simplex_grid(2, 10)
        assert [1.0, 0.0] in grid.tolist()
        assert [0.0, 1.0] in grid.tolist()


class TestAuxGridSpec:
    def test_resolution_must_be_reciprocal_integer(self):
        with pytest.raises(ValueError):
            AuxGridSpec(resolution=0.3)

    def test_resolution_bounds(self):
        with pytest.raises(ValueError):
            AuxGridSpec(resolution=0.0)

    def test_cardinality_bounds(self):
        with pytest.raises(ValueError):
            AuxGridSpec(u_card=0)
        with pytest.raises(ValueError):
            AuxGridSpec(u_card=99)

    def test_steps(self):
        assert AuxGridSpec(resolution=0.05).steps == 20


DEGRADED = (BSC(0.05), BSC(0.14), BSC(0.2336))


class TestDegradedRegion:
    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded, match="grid too large"):
            degraded_region_inner(*DEGRADED, AuxGridSpec(resolution=0.01), budget=1000)

    def test_input_alphabets_must_agree(self):
        rng = np.random.default_rng(0)
        three = rng.random((3, 2)) + 0.1
        three /= three.sum(axis=1, keepdims=True)
        with pytest.raises(DimensionMismatch):
            degraded_region_inner(BSC(0.1), BSC(0.2), DiscreteChannel(three))

    def test_uninformative_z_matches_plain_broadcast_region(self):
        # with no eavesdropper leakage the bounds reduce to
        # r1 <= I(X;Y1|U), r2 <= I(U;Y2) on the same grid
        grid = AuxGridSpec(resolution=0.1, u_card=2)
        py1x, py2x = BSC(0.05), BSC(0.2)
        pzx = uninformative(2)
        frontier = degraded_region_inner(py1x, py2x, pzx, grid)
        points = [(0.0, 0.0)]
        for pu in simplex_grid(2, grid.steps):
            for r0 in simplex_grid(2, grid.steps):
                for r1 in simplex_grid(2, grid.steps):
                    pxu = np.array([r0, r1])
                    i_xy1_u = sum(
                        pu[u] * mutual_information(Pmf(pxu[u]), py1x) for u in range(2)
                    )
                    i_uy2 = mutual_information(Pmf(pu), cascade(DiscreteChannel(pxu), py2x))
                    points.append((i_xy1_u, i_uy2))
        expected = upper_right_hull(np.array(points))
        gap = frontier_deviation(frontier.points, expected.points)
        assert gap <= 1e-12

    def test_eavesdropper_equals_receiver_one_collapses(self):
        frontier = degraded_region_inner(
            BSC(0.1), BSC(0.18), BSC(0.1), AuxGridSpec(resolution=0.1, u_card=2)
        )
        assert all(p.r1 <= 1e-12 and p.r2 <= 1e-12 for p in frontier.points)

    def test_matches_direct_oracle_per_candidate(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pu = rng.random(2) + 0.05
            pu /= pu.sum()
            pxu = rng.random((2, 2)) + 0.05
            pxu /= pxu.sum(axis=1, keepdims=True)
            lib = degraded_rate_pair(Pmf(pu), DiscreteChannel(pxu), *DEGRADED)
            ora = degraded_rates_direct(
                pu, pxu, DEGRADED[0].matrix, DEGRADED[1].matrix, DEGRADED[2].matrix
            )
            assert lib.r1 == pytest.approx(ora[0], abs=1e-12)
            assert lib.r2 == pytest.approx(ora[1], abs=1e-12)

    def test_clamp_soundness(self):
        # emitted point is the coordinatewise max of the raw formulas and 0
        pu = Pmf((0.5, 0.5))
        pxu = DiscreteChannel.identity(2)  # raw r1 is slightly negative here
        py1x, py2x, pzx = DEGRADED
        point = degraded_rate_pair(pu, pxu, py1x, py2x, pzx)
        joint_uxy1 = np.einsum("u,ux,xy->uxy", pu.probs, pxu.matrix, py1x.matrix)
        i_xy1_u = cmi_direct(joint_uxy1, 1, 2, (0,))
        i_uz = mutual_information(pu, cascade(pxu, pzx))
        i_uy2 = mutual_information(pu, cascade(pxu, py2x))
        px = Pmf(pu.probs @ pxu.matrix)
        i_xz = mutual_information(px, pzx)
        assert point.r1 == pytest.approx(max(i_xy1_u + i_uz - i_xz, 0.0), abs=1e-12)
        assert point.r2 == pytest.approx(max(i_uy2 - i_uz, 0.0), abs=1e-12)
        assert point.r1 <= max(i_xy1_u + i_uz - i_xz, 0.0) + 1e-12
        assert point.r2 <= max(i_uy2 - i_uz, 0.0) + 1e-12

    def test_relabeling_invariance(self):
        grid = AuxGridSpec(resolution=0.1, u_card=2)
        base = degraded_region_inner(*DEGRADED, grid)
        flipped = [DiscreteChannel(ch.matrix[::-1]) for ch in DEGRADED]
        relabeled = degraded_region_inner(*flipped, grid)
        assert frontier_deviation(base.points, relabeled.points) <= 1e-12

    def test_frontier_shape(self):
        frontier = degraded_region_inner(*DEGRADED, AuxGridSpec(resolution=0.1, u_card=2))
        pts = frontier.points
        assert all(a.r1 < b.r1 and a.r2 > b.r2 for a, b in zip(pts, pts[1:]))


class TestRegionSearch:
    def one_shot(self, monkeypatch, search, *args):
        """Run a search while keeping every chunk its candidate generator yields."""
        chunks = []
        real = regions._search

        def keep_chunks(n_outer, n_inner, budget, gen):
            def tee():
                for chunk in gen:
                    chunks.append(chunk)
                    yield chunk

            return real(n_outer, n_inner, budget, tee())

        monkeypatch.setattr(regions, "_search", keep_chunks)
        frontier = search(*args)
        return frontier, np.vstack(chunks)

    def test_degraded_streaming_equals_one_shot_hull(self, monkeypatch):
        grid = AuxGridSpec(resolution=0.1, u_card=2)
        frontier, cloud = self.one_shot(monkeypatch, degraded_region_inner, *DEGRADED, grid)
        assert len(cloud) == 11 * 11**2
        assert bits(frontier.points) == bits(hull_two_chain(cloud))
        assert bits(frontier.points) == bits(upper_right_hull(cloud).points)

    def test_general_streaming_equals_one_shot_hull(self, monkeypatch):
        ternary = [
            DiscreteChannel(m)
            for m in (
                [[0.7, 0.09, 0.21], [0.12, 0.83, 0.05], [0.43, 0.1, 0.47]],
                [[0.14, 0.44, 0.42], [0.05, 0.92, 0.03], [0.84, 0.03, 0.13]],
                [[0.02, 0.52, 0.46], [0.1, 0.74, 0.16], [0.4, 0.54, 0.06]],
            )
        ]
        for grid in (
            AuxGridSpec(resolution=0.2, v1_card=2, v2_card=2),
            AuxGridSpec(resolution=0.5, v1_card=2, v2_card=2, deterministic_x=False),
        ):
            frontier, cloud = self.one_shot(monkeypatch, general_inner_bound, *ternary, grid)
            assert len(frontier.points) >= 2
            assert bits(frontier.points) == bits(hull_two_chain(cloud))

    def test_astronomical_grid_refused_without_allocating(self):
        huge = AuxGridSpec(resolution=0.001, u_card=12, v1_card=12, v2_card=12)
        huge_stochastic = AuxGridSpec(
            resolution=0.001, v1_card=12, v2_card=12, deterministic_x=False
        )
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="grid too large"):
                degraded_region_inner(*DEGRADED, huge)
            with pytest.raises(BudgetExceeded, match="grid too large"):
                general_inner_bound(*DEGRADED, huge)
            with pytest.raises(BudgetExceeded, match="grid too large"):
                general_inner_bound(*DEGRADED, huge_stochastic)
            with pytest.raises(BudgetExceeded, match="grid too large"):
                wiretap_secrecy_capacity(DEGRADED[0], DEGRADED[2], huge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestGeneralInnerBound:
    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded, match="grid too large"):
            general_inner_bound(
                BSC(0.1), BSC(0.2), BSC(0.3), AuxGridSpec(resolution=0.05), budget=10
            )

    def test_wiretap_reduction_when_second_user_removed(self):
        grid = AuxGridSpec(resolution=0.1)
        py1x, pzx = BSC(0.1), BSC(0.2)
        frontier = general_inner_bound(py1x, uninformative(2), pzx, grid)
        # with deterministic maps on both sides the embeddings coincide
        best_r1 = frontier.max_r1
        rates = []
        for pv in simplex_grid(2, grid.steps):
            for assignment in ((0, 0), (0, 1), (1, 0), (1, 1)):
                rows = np.eye(2)[list(assignment)]
                value = mutual_information(Pmf(pv), DiscreteChannel(rows @ py1x.matrix))
                value -= mutual_information(Pmf(pv), DiscreteChannel(rows @ pzx.matrix))
                rates.append(max(value, 0.0))
        assert best_r1 == pytest.approx(max(rates), abs=1e-9)

    def test_degraded_instance_contained_in_layered_region(self):
        py1x, py2x, pzx = DEGRADED
        general = general_inner_bound(py1x, py2x, pzx, AuxGridSpec(resolution=0.1))
        layered = degraded_region_inner(py1x, py2x, pzx, AuxGridSpec(resolution=0.02, u_card=2))
        xs = layered.as_array()[:, 0]
        ys = layered.as_array()[:, 1]
        env_x = np.concatenate([[0.0], xs, [xs[-1]]])
        env_y = np.concatenate([[ys[0]], ys, [0.0]])
        for p in general.points:
            if p.r1 <= xs[-1] + 1e-12:
                limit = float(np.interp(p.r1, env_x, env_y))
            else:
                limit = 0.0
            assert p.r2 <= limit + 1e-9, (p, limit)

    def test_corners_rectangle_when_sum_bound_slack(self):
        # independent auxiliaries with plenty of sum rate give corner (A, B)
        joint = np.full((2, 2), 0.25)
        xmap = np.zeros((2, 2, 2))
        xmap[:, :, 0] = 1.0  # constant input: A = B = S = 0
        c1, c2 = general_rate_corners(joint, xmap, *DEGRADED)
        assert abs(c1.r1) <= 1e-12 and abs(c1.r2) <= 1e-12
        assert abs(c2.r1) <= 1e-12 and abs(c2.r2) <= 1e-12


class TestWiretapSecrecyCapacity:
    def test_equal_channels_give_zero(self):
        assert wiretap_secrecy_capacity(BSC(0.1), BSC(0.1), AuxGridSpec(resolution=0.2)) == 0.0

    def test_uninformative_main_gives_zero(self):
        value = wiretap_secrecy_capacity(
            uninformative(2), BSC(0.1), AuxGridSpec(resolution=0.2)
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            wiretap_secrecy_capacity(BSC(0.1), BSC(0.2), AuxGridSpec(resolution=0.01), budget=10)

    def test_degraded_pair_attains_known_value_on_coarse_grid(self):
        value = wiretap_secrecy_capacity(BSC(0.1), BSC(0.2), AuxGridSpec(resolution=0.1))
        from bcc_secrecy import binary_entropy

        assert value == pytest.approx(binary_entropy(0.2) - binary_entropy(0.1), abs=1e-12)
