import hashlib
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcc_secrecy import (
    BudgetExceeded,
    DimensionMismatch,
    DiscreteChannel,
    GaussianParams,
    InvalidDistribution,
    NegativeEntry,
    Pmf,
    RatePoint,
    SumNotOne,
    capacity_fn,
    cascade,
    degraded_rate_pair,
    degraded_rate_terms,
    degraded_region_inner,
    gaussian_region_point,
    general_inner_bound,
    general_rate_corners,
    general_rate_terms,
    mutual_information,
    regions,
    simplex_grid,
    upper_right_hull,
    wiretap_secrecy_capacity,
)
from bcc_secrecy.cli import run
from bcc_secrecy.regions import (
    ENVELOPE_BLOCK_CELLS,
    _composition_blocks,
    _compositions,
    _degraded_bounds,
    _degraded_tables,
    _general_terms,
    _lower_facets,
    _orbits,
    _pareto,
    _wiretap_phi,
)
from oracles import (
    binary_entropy,
    cmi_direct,
    degraded_rates_direct,
    degraded_region_full,
    degraded_terms_full,
    frontier_deviation,
    gaussian_point_scalar,
    general_inner_bound_full,
    general_terms_one_map,
    hull_two_chain,
    lower_facets_qhull,
    pareto_lexsort,
    relabellings,
    simplex_grid_compositions,
    verify_frontier_shape,
    wiretap_grid_search,
    wiretap_two_point_binary,
)

BSC = DiscreteChannel.binary_symmetric


def benchmark_chains():
    """The BSC crossovers (p1, p2, p3) of bench/workloads.py's ten seeds."""
    workloads = {}
    source = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    exec(compile(source.read_text(), str(source), "exec"), workloads)
    return [workloads["bsc_chain"](seed) for seed in (0, 20080626, *range(101, 109))]


CANONICAL = GaussianParams(power=1.0, n1=0.25, n2=0.5, n3=1.0)


def uninformative(n_inputs, row=(0.5, 0.5)):
    return DiscreteChannel(np.tile(row, (n_inputs, 1)))


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

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError, match="snr must be nonnegative, got nan"):
            capacity_fn(math.nan)
        with pytest.raises(ValueError, match="got nan$"):
            capacity_fn(np.array([0.0, math.nan, -1.0]))

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

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True])
    def test_non_finite_field_named(self, index, value):
        # inf passed every ordering check and gave nan rates.
        fields = [1.0, 0.25, 0.5, 1.0]
        fields[index] = value
        name = ("power", "n1", "n2", "n3")[index]
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            GaussianParams(*fields)

    def test_overflowing_sum_refused(self):
        # power / n1 = 1e308 is finite, but alpha * power + n3 overflowed to inf
        # at alpha = 0.5, and r2 read 0.2075 where the closed form gives 0.0466.
        expected = r"^power \+ n3 must be a finite number, got inf$"
        with pytest.raises(InvalidDistribution, match=expected):
            GaussianParams(1e308, 1.0, 1e308, 1.5e308)

    def test_largest_finite_sum_matches_closed_form(self):
        g = GaussianParams(1e308, 1.0, 1e307, 7e307)  # power + n3 = 1.7e308
        point = gaussian_region_point(g, 0.5)
        expected = gaussian_point_scalar(1e308, 1.0, 1e307, 7e307, 0.5)
        assert point.r1 == pytest.approx(expected[0], abs=1e-12)
        assert point.r2 == pytest.approx(expected[1], abs=1e-12)


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


def gaussian_sweep(g, num_alphas):
    """Hull of the closed form on the alpha grid that `region gaussian` writes."""
    return upper_right_hull(np.column_stack(gaussian_region_point(g, np.linspace(0, 1, num_alphas))))


class TestGaussianRegionSweep:
    def test_two_alphas_give_endpoints(self):
        frontier = gaussian_sweep(CANONICAL, 2)
        assert frontier.points == [
            gaussian_region_point(CANONICAL, 0.0),
            gaussian_region_point(CANONICAL, 1.0),
        ]

    def test_equal_n2_n3_kills_r2(self):
        g = GaussianParams(1.0, 0.25, 1.0, 1.0)
        for alpha in np.linspace(0, 1, 21):
            assert gaussian_region_point(g, float(alpha)).r2 == 0.0
        frontier = gaussian_sweep(g, 21)
        assert all(p.r2 == 0.0 for p in frontier.points)

    def test_all_noise_equal_collapses_to_origin(self):
        g = GaussianParams(1.0, 1.0, 1.0, 1.0)
        assert gaussian_sweep(g, 21).points == [RatePoint(0.0, 0.0)]

    def test_frontier_contains_midpoint(self):
        frontier = gaussian_sweep(CANONICAL, 101)
        match = [p for p in frontier.points if abs(p.r1 - 0.5) < 1e-9]
        assert match and abs(match[0].r2 - 0.0849625007211562) < 1e-9

    def test_pareto_invariant(self):
        frontier = gaussian_sweep(CANONICAL, 101)
        pts = frontier.points
        assert all(a.r1 < b.r1 and a.r2 > b.r2 for a, b in zip(pts, pts[1:]))
        # The closed form is strictly concave in alpha: the hull keeps every grid point.
        assert len(pts) == 101

    def test_eavesdropper_monotonicity(self):
        weaker_eve = GaussianParams(1.0, 0.25, 0.5, 4.0)
        for alpha in np.linspace(0, 1, 41):
            base = gaussian_region_point(CANONICAL, float(alpha))
            relaxed = gaussian_region_point(weaker_eve, float(alpha))
            assert relaxed.r1 >= base.r1 - 1e-15
            assert relaxed.r2 >= base.r2 - 1e-15

    def test_num_alphas_validated(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        args = ["region", "gaussian", "--power", "1", "--n1", "0.25", "--n2", "0.5", "--n3", "1"]
        assert run([*args, "--alphas", "1", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: --alphas must be at least 2, got 1\n"
        assert not out.exists()
        assert run([*args, "--alphas", "2.5", "--out", str(out)]) == 2  # click cannot parse it
        assert not out.exists()
        assert run([*args, "--alphas", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3


class TestUpperRightHull:
    def test_two_extreme_points_survive(self):
        frontier = upper_right_hull([RatePoint(1, 0), RatePoint(0, 1)])
        assert frontier.points == [RatePoint(0, 1), RatePoint(1, 0)]

    def test_dominated_point_removed(self):
        frontier = upper_right_hull([RatePoint(1, 1), RatePoint(0.5, 0.5)])
        assert frontier.points == [RatePoint(1, 1)]

    def test_point_under_chord_removed(self):
        frontier = upper_right_hull([RatePoint(2, 0), RatePoint(0, 2), RatePoint(0.9, 0.9)])
        assert frontier.points == [RatePoint(0, 2), RatePoint(2, 0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty point set"):
            upper_right_hull([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="rate points must be nonnegative"):
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


def same_array(got, want):
    """Equal shape, dtype and bits, element for element."""
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestPareto:
    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=60),
        st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_lattice_clouds_match_lexsort_oracle(self, cells, repeats):
        # a 5 x 5 lattice, each row repeated: every r1 and r2 is tied many times
        cloud = np.repeat(np.array(cells, dtype=float) / 4.0, repeats, axis=0)
        assert same_array(_pareto(cloud), pareto_lexsort(cloud))

    @pytest.mark.parametrize(
        "cloud",
        [
            [(0.5, 0.9), (0.5, 0.1), (0.5, 0.3), (0.5, 0.9), (0.5, 0.2)],  # all r1 equal
            [(0.1, 0.5), (0.9, 0.5), (0.3, 0.5), (0.9, 0.5)],  # all r2 equal
            [(0.25, 0.75)],
            [(0.0, 0.0)] * 5,
        ],
        ids=["equal-r1", "equal-r2", "one-row", "all-zero"],
    )
    def test_tie_clouds_match_lexsort_oracle(self, cloud):
        cloud = np.array(cloud)
        assert same_array(_pareto(cloud), pareto_lexsort(cloud))
        assert len(_pareto(cloud)) == 1

    def test_seeded_float_clouds_match_lexsort_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            cloud = np.round(rng.uniform(0, 1, size=(int(rng.integers(1, 300)), 2)), 2)
            assert same_array(_pareto(cloud), pareto_lexsort(cloud))

    def test_empty_gives_empty(self):
        got = _pareto([])
        assert same_array(got, pareto_lexsort(np.empty((0, 2))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite rate point"):
            _pareto([(0.1, 0.2), (bad, 0.3)])
        with pytest.raises(ValueError, match="non-finite rate point"):
            upper_right_hull([RatePoint(0.1, bad)])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="rate points must be nonnegative"):
            _pareto([(0.1, 0.2), (0.3, -1e-300)])


class TestSimplexGrid:
    def test_counts_and_lattice(self):
        grid = simplex_grid(3, 4)
        assert len(grid) == math.comb(6, 2)
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert np.allclose(grid * 4, np.round(grid * 4))

    def test_dim_one(self):
        assert simplex_grid(1, 7).tolist() == [[1.0]]
        tracemalloc.start()
        try:
            assert simplex_grid(1, 10**6).tolist() == [[1.0]]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize(
        "dim,steps,message",
        [
            (True, 2, "dim must be a positive integer, got True"),
            (2, 2.0, "steps must be a positive integer, got 2.0"),
            (0, 2, "dim must be positive, got 0"),
            (2, 0, "steps must be positive, got 0"),
        ],
    )
    def test_dim_and_steps_are_positive_ints(self, dim, steps, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simplex_grid(dim, steps)

    def test_contains_vertices(self):
        grid = simplex_grid(2, 10)
        assert [1.0, 0.0] in grid.tolist()
        assert [0.0, 1.0] in grid.tolist()

    def test_rows_and_order_match_recursive_compositions(self):
        shapes = [(d, s) for d in range(1, 7) for s in range(1, 31)] + [(2, 40000), (3, 400)]
        for dim, steps in shapes:
            expected = simplex_grid_compositions(dim, steps)
            got = simplex_grid(dim, steps)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected), (dim, steps)

    def test_blocks_concatenate_to_the_compositions(self):
        for parts in range(1, 5):
            for total in range(12):
                whole = _compositions(parts, total)
                for block in (1, 2, 3, 7, 50, 10**6):
                    pieces = list(_composition_blocks(parts, total, block))
                    assert max(len(piece) for piece in pieces) <= block
                    assert np.array_equal(np.vstack(pieces), whole), (parts, total, block)
        # The binary wiretap's P(x) grid at 1/200^2 fits one block, as ranges.
        (piece,) = _composition_blocks(2, 40000, ENVELOPE_BLOCK_CELLS)
        whole = _compositions(2, 40000)
        assert piece.dtype == whole.dtype and np.array_equal(piece, whole)


DEGRADED = (BSC(0.05), BSC(0.14), BSC(0.2336))


class TestGridArguments:
    """Each search checks the grid values it reads before its budget (0 here)."""

    SEARCHES = (
        lambda **grid: degraded_region_inner(*DEGRADED, budget=0, **grid),
        lambda **grid: general_inner_bound(*DEGRADED, budget=0, **grid),
        lambda **grid: wiretap_secrecy_capacity(DEGRADED[0], DEGRADED[2], budget=0, **grid),
    )

    def test_resolution_must_be_reciprocal_integer(self):
        for search in self.SEARCHES:
            with pytest.raises(ValueError, match=r"resolution must be 1/k for integer k, got 0\.3"):
                search(resolution=0.3)

    def test_resolution_bounds(self):
        for search in self.SEARCHES:
            for resolution in (0.0, 1.5):
                with pytest.raises(ValueError, match=rf"must lie in \(0, 1\], got {resolution}"):
                    search(resolution=resolution)

    def test_resolution_is_a_finite_number(self):
        # True passed 0 < True <= 1 as a resolution of 1.
        for search in self.SEARCHES:
            for resolution in (True, "0.5", math.nan):
                with pytest.raises(ValueError, match="resolution must be a finite number"):
                    search(resolution=resolution)

    @pytest.mark.parametrize("card", [True, 2.0, 2.5, np.int64(2)])
    def test_cardinality_is_an_int(self, card):
        # These raised TypeError from math.comb, or ran as the integer.
        degraded, general, _ = self.SEARCHES
        got = re.escape(repr(card))
        with pytest.raises(ValueError, match=f"^u_card must be an integer, got {got}$"):
            degraded(u_card=card)
        for name in ("v1_card", "v2_card"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {got}$"):
                general(**{name: card})

    @pytest.mark.parametrize("budget", [math.nan, True, 1e9, -1, np.int64(10**6)])
    def test_budget_is_a_nonnegative_int(self, budget):
        # A NaN budget passed the comparison and the whole grid ran; True was read as 1.
        searches = (
            lambda: degraded_region_inner(*DEGRADED, resolution=0.5, u_card=1, budget=budget),
            lambda: general_inner_bound(*DEGRADED, resolution=0.5, v1_card=1, budget=budget),
            lambda: wiretap_secrecy_capacity(*DEGRADED[::2], resolution=0.5, budget=budget),
        )
        for search in searches:
            with pytest.raises(ValueError, match="^budget must be (a )?nonnegative"):
                search()

    def test_cardinality_bounds(self):
        degraded, general, _ = self.SEARCHES
        for card in (0, 99):
            with pytest.raises(ValueError, match=rf"u_card must lie in \[1, 12\], got {card}"):
                degraded(u_card=card)
            for name in ("v1_card", "v2_card"):
                with pytest.raises(ValueError, match=rf"{name} must lie in \[1, 12\], got {card}"):
                    general(**{name: card})

    def test_steps(self):
        # A resolution of 0.05 is 20 steps: 21 grid rows on two inputs.
        degraded, general, wiretap = self.SEARCHES
        with pytest.raises(BudgetExceeded, match=r"1 x 21 = 21 candidates"):
            degraded(resolution=0.05, u_card=1)
        with pytest.raises(BudgetExceeded, match=r"1 x 21 = 21 candidates"):
            general(resolution=0.05, v1_card=1, v2_card=1, deterministic_x=False)
        with pytest.raises(BudgetExceeded, match=r"401 points P\(x\) on the 1/400 grid"):
            wiretap(resolution=0.05)


class TestDegradedRegion:
    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded, match="grid too large"):
            degraded_region_inner(*DEGRADED, resolution=0.01, budget=1000)

    def test_input_alphabets_must_agree(self):
        rng = np.random.default_rng(0)
        three = rng.random((3, 2)) + 0.1
        three /= three.sum(axis=1, keepdims=True)
        with pytest.raises(DimensionMismatch):
            degraded_region_inner(BSC(0.1), BSC(0.2), DiscreteChannel(three))

    def test_uninformative_z_matches_plain_broadcast_region(self):
        # with no eavesdropper leakage the bounds reduce to
        # r1 <= I(X;Y1|U), r2 <= I(U;Y2) on the same grid
        py1x, py2x = BSC(0.05), BSC(0.2)
        pzx = uninformative(2)
        frontier = degraded_region_inner(py1x, py2x, pzx, resolution=0.1, u_card=2)
        points = [(0.0, 0.0)]
        for pu in simplex_grid(2, 10):
            for r0 in simplex_grid(2, 10):
                for r1 in simplex_grid(2, 10):
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
            BSC(0.1), BSC(0.18), BSC(0.1), resolution=0.1, u_card=2
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
        pxu = DiscreteChannel(np.eye(2))  # raw r1 is slightly negative here
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
        base = degraded_region_inner(*DEGRADED, resolution=0.1, u_card=2)
        flipped = [DiscreteChannel(ch.matrix[::-1]) for ch in DEGRADED]
        relabeled = degraded_region_inner(*flipped, resolution=0.1, u_card=2)
        assert frontier_deviation(base.points, relabeled.points) <= 1e-12

    def test_frontier_shape(self):
        frontier = degraded_region_inner(*DEGRADED, resolution=0.1, u_card=2)
        pts = frontier.points
        assert all(a.r1 < b.r1 and a.r2 > b.r2 for a, b in zip(pts, pts[1:]))


def stochastic(rng, rows, cols, zeros=False):
    """A random row-stochastic matrix; with `zeros`, about a third of its entries are 0."""
    m = rng.random((rows, cols)) + 0.02
    if zeros:
        m[rng.random((rows, cols)) < 0.35] = 0.0
        m[np.arange(rows), rng.integers(0, cols, rows)] += 0.5  # no empty row
    return m / m.sum(axis=1, keepdims=True)


def pruning_cases():
    """(name, (py1x, py2x, pzx), steps, u_card): chains the pruned search must match bit for bit."""
    rng = np.random.default_rng(2008)
    readme = [ch.matrix for ch in DEGRADED]
    collapsed = [BSC(p).matrix for p in (0.1, 0.18, 0.1)]  # criterion 6's chain, not degraded
    weak_y1 = [BSC(p).matrix for p in (0.2, 0.05, 0.1)]
    cases = [
        ("readme", readme, 10, 3),
        ("readme", readme, 20, 2),
        ("readme", readme, 50, 1),
        ("collapsed", collapsed, 20, 2),
        ("collapsed", collapsed, 6, 3),
        ("weak-y1", weak_y1, 10, 2),
        ("weak-y1", weak_y1, 6, 3),
    ]
    for trial in range(4):
        mats = [stochastic(rng, 2, int(rng.integers(2, 4)), zeros=trial % 2 == 1) for _ in range(3)]
        for steps, u_card in ((30, 1), (12, 2), (6, 3)):
            cases.append((f"binary-{trial}", mats, steps, u_card))
    for trial in range(3):
        py1x = stochastic(rng, 3, 3, zeros=trial == 1)
        if trial == 2:  # physically degraded: Y1 -> Y2 -> Z
            py2x = py1x @ stochastic(rng, 3, 3)
            mats = [py1x, py2x, py2x @ stochastic(rng, 3, 2)]
        else:
            zeros = trial == 1
            mats = [py1x, stochastic(rng, 3, 2, zeros=zeros), stochastic(rng, 3, 4, zeros=zeros)]
        for steps, u_card in ((8, 1), (5, 2), (3, 3)):
            cases.append((f"ternary-{trial}", mats, steps, u_card))
    return [(name, [DiscreteChannel(m) for m in mats], steps, u) for name, mats, steps, u in cases]


PRUNING_CASES = pruning_cases()
PRUNING_IDS = [f"{name}-1/{steps}-u{u_card}" for name, _, steps, u_card in PRUNING_CASES]


class TestPrunedDegradedSearch:
    """Only candidates that can reach the Pareto staircase go through the kernel."""

    @pytest.mark.parametrize("name,chain,steps,u_card", PRUNING_CASES, ids=PRUNING_IDS)
    def test_frontier_bits_equal_full_search(self, name, chain, steps, u_card):
        frontier = degraded_region_inner(*chain, resolution=1 / steps, u_card=u_card)
        full = upper_right_hull(degraded_region_full(*chain, steps, u_card))
        assert bits(frontier.points) == bits(full.points)

    @pytest.mark.parametrize("name,chain,steps,u_card", PRUNING_CASES, ids=PRUNING_IDS)
    def test_bounds_match_kernel(self, name, chain, steps, u_card):
        # Every candidate's bound, zero-weight rows included, lies within
        # 1e-12 of the kernel's unclamped rates: far inside the pruning margin.
        fine = steps if u_card == 1 else steps * steps
        mats = [ch.matrix for ch in chain]
        rows, _, tables = _degraded_tables(steps, fine, u_card, *mats)
        axes = [np.arange(len(rows))] * u_card
        for weights, terms in degraded_terms_full(*chain, steps, u_card):
            r1, r2 = _degraded_bounds(weights, axes, tables)
            kernel_r1 = terms["i_x_y1_given_u"] + terms["i_u_z"] - terms["i_x_z"]
            kernel_r2 = terms["i_u_y2"] - terms["i_u_z"]
            assert np.max(np.abs(r1 - kernel_r1)) <= 1e-12
            assert np.max(np.abs(r2 - kernel_r2)) <= 1e-12

    def test_most_candidates_skip_the_kernel(self, monkeypatch):
        scored = []
        real = regions._degraded_terms

        def count(pu, pxu_batch, mz, rows):
            scored.append(len(pxu_batch))
            return real(pu, pxu_batch, mz, rows)

        monkeypatch.setattr(regions, "_degraded_terms", count)
        frontier = degraded_region_inner(*DEGRADED, resolution=0.05, u_card=3)
        assert len(frontier.points) == 13
        assert sum(scored) < 0.05 * 231 * 21**3

    def test_zero_weight_rows_are_grid_row_0(self, monkeypatch):
        # A row of weight 0 adds +0.0 to every kernel sum, so one choice of it
        # stands for all: the kernel sees grid row 0, P(x|u) = (0, 1), there,
        # and any other row gives the same bits.
        calls = []
        real = regions._degraded_terms

        def keep(pu, pxu_batch, mz, rows):
            calls.append((pu, pxu_batch))
            return real(pu, pxu_batch, mz, rows)

        monkeypatch.setattr(regions, "_degraded_terms", keep)
        degraded_region_inner(*DEGRADED, resolution=0.1, u_card=3)
        mats = [ch.matrix for ch in DEGRADED]
        rng = np.random.default_rng(7)
        zero_steps = 0
        for pu, pxu_batch in calls:
            idle = pu == 0
            zero_steps += bool(idle.any())
            assert np.all(pxu_batch[:, idle] == (0.0, 1.0))
            moved = pxu_batch.copy()
            moved[:, idle] = simplex_grid(2, 10)[rng.integers(1, 11, (len(moved), idle.sum()))]
            want, got = (
                regions._degraded_rates(real(pu, b, mats[2], regions._degraded_rows(b, *mats)))
                for b in (pxu_batch, moved)
            )
            assert got.tobytes() == want.tobytes()
        assert zero_steps == 3 + 3 * 9  # P(u) steps with one or two zero weights

    def test_one_cloud_row_uses_the_row_grid_for_p_x(self):
        # With |U| = 1, P(x) is a grid row: its table has 3,001 points, where
        # the 1/k^2 grid would hold 9,000,001 and exceed the default budget.
        frontier = degraded_region_inner(*DEGRADED, resolution=1 / 3000, u_card=1)
        assert len(frontier.points) == 1

    def test_p_x_table_over_budget_refused_before_building(self):
        # 30 inputs at k = 3: 4 x 4,960^2 = 98,406,400 candidates fit the
        # budget, but the 1/9 grid of P(x) has 163,011,640 points.
        flat = DiscreteChannel(np.full((30, 2), 0.5))
        tracemalloc.start()
        try:
            expected = r"^grid too large: 163011640 points P\(x\) on the 1/9 grid"
            with pytest.raises(BudgetExceeded, match=expected):
                degraded_region_inner(flat, flat, flat, resolution=1 / 3, u_card=2, budget=10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


def orbit_cases():
    """(name, chain, steps, u_card): cases where relabelled survivors carry vertices."""
    rng = np.random.default_rng(29)
    readme = [ch.matrix for ch in DEGRADED]
    cases = [
        ("binary-u4", [stochastic(rng, 2, 2) for _ in range(3)], 6, 4),  # u_card > |X|
        ("readme-u4", readme, 6, 4),
        ("zeros", [stochastic(rng, 2, 3, zeros=True) for _ in range(3)], 10, 3),
        ("ternary-zeros", [stochastic(rng, 3, 3, zeros=True) for _ in range(3)], 4, 3),
        ("readme-tied", readme, 12, 3),  # vertices at (5, 5, 2)/12 and (1, 6, 5)/12
    ]
    return [(name, [DiscreteChannel(m) for m in mats], steps, u) for name, mats, steps, u in cases]


ORBIT_CASES = orbit_cases()


class TestOrbitSearch:
    """Bounds for one P(u) per relabelling orbit; the kernel for every step of the grid."""

    @pytest.mark.parametrize("u_card,steps", [(1, 7), (2, 9), (3, 12), (4, 6), (5, 3)])
    def test_relabellings_cover_the_grid_once(self, u_card, steps):
        # With |V2| = 1 the joint orbits are the degraded search's P(u)
        # orbits: the same representatives in the same order, the same
        # targets and the same permutations as the former listing.
        grid = _compositions(u_card, steps)
        rep, sigma = _orbits(grid, u_card, 1, steps)
        reps = np.flatnonzero(rep == np.arange(len(grid)))
        seen = []
        for r, (weights, targets, perms) in zip(reps, relabellings(u_card, steps), strict=True):
            others = np.flatnonzero(rep == r)
            others = others[others != r]
            assert np.array_equal(grid[r], weights)
            assert np.array_equal(grid[others], targets)
            assert np.array_equal(np.argsort(sigma[others], axis=1), perms)
            assert np.all(weights[:-1] >= weights[1:])
            assert len({w.tobytes() for w in targets}) == len(targets)
            for target, perm in zip(targets, perms):
                assert sorted(perm) == list(range(u_card))
                assert np.array_equal(weights[perm], target)
            seen += [tuple(weights), *map(tuple, targets)]
        assert sorted(seen) == sorted(map(tuple, grid))

    def test_bound_pass_sees_only_non_increasing_p_u(self, monkeypatch):
        # At 1/20 and u_card 3, 44 of the 231 steps are non-increasing, and
        # their candidates number 310,044 of 1,608,831 (zero weights on row 0).
        bounded = {}
        real = regions._degraded_survivors

        def keep(weights, axes, tables, staircase):
            key = tuple(weights.tolist())
            bounded[key] = bounded.get(key, 0) + math.prod(len(axis) for axis in axes)
            return real(weights, axes, tables, staircase)

        monkeypatch.setattr(regions, "_degraded_survivors", keep)
        frontier = degraded_region_inner(*DEGRADED, resolution=0.05, u_card=3)
        assert len(frontier.points) == 13
        assert all(list(w) == sorted(w, reverse=True) for w in bounded)
        assert len(bounded) == 44
        assert sum(bounded.values()) == 310_044

    def test_kernel_sees_every_step_once(self, monkeypatch):
        steps_seen = []
        real = regions._degraded_terms

        def keep(pu, pxu_batch, mz, rows):
            steps_seen.append(tuple(np.rint(pu * 20).astype(int).tolist()))
            return real(pu, pxu_batch, mz, rows)

        monkeypatch.setattr(regions, "_degraded_terms", keep)
        degraded_region_inner(*DEGRADED, resolution=0.05, u_card=3)
        assert sorted(steps_seen) == sorted(map(tuple, _compositions(3, 20).tolist()))

    @pytest.mark.parametrize(
        "name,chain,steps,u_card", ORBIT_CASES, ids=[case[0] for case in ORBIT_CASES]
    )
    def test_frontier_bits_equal_full_search(self, name, chain, steps, u_card):
        frontier = degraded_region_inner(*chain, resolution=1 / steps, u_card=u_card)
        full = upper_right_hull(degraded_region_full(*chain, steps, u_card))
        assert bits(frontier.points) == bits(full.points)

    def test_tied_p_u_vertices_keep_their_bits(self):
        # The README chain is symmetric, so at u_card 2 most of its vertices
        # come, bit for bit, only from P(u) = (1/2, 1/2): a step whose
        # relabelling is itself, with both row orders bounded there.
        frontier = degraded_region_inner(*DEGRADED, resolution=0.05, u_card=2)
        found = {}
        for weights, terms in degraded_terms_full(*DEGRADED, 20, 2):
            for point in bits(regions._degraded_rates(terms)):
                found.setdefault(point, set()).add(tuple(weights.tolist()))
        only_tied = [p for p in bits(frontier.points) if found[p] == {(10, 10)}]
        assert len(only_tied) == 10
        full = upper_right_hull(degraded_region_full(*DEGRADED, 20, 2))
        assert bits(frontier.points) == bits(full.points)


@st.composite
def layered_candidates(draw):
    """A cloud pmf, a conditional P(x|u) and three channels, entries often 0."""
    n_u, n_x = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def matrix(rows, cols):
        cells = st.lists(st.integers(0, 6), min_size=cols, max_size=cols).filter(any)
        m = np.array(draw(st.lists(cells, min_size=rows, max_size=rows)), dtype=float)
        return m / m.sum(axis=1, keepdims=True)

    pu = matrix(1, n_u)[0]
    channels = [matrix(n_x, draw(st.integers(1, 4))) for _ in range(3)]
    return pu, matrix(n_u, n_x), channels


class TestPerLetterSplit:
    @given(layered_candidates())
    @settings(max_examples=300, deadline=None)
    def test_rates_split_per_letter(self, candidate):
        # r1 = sum_u P(u) psi1(q_u) and r2 = phi2(p) - sum_u P(u) phi2(q_u), unclamped.
        pu, pxu, (my1, my2, mz) = candidate
        channels = [DiscreteChannel(m) for m in (pxu, my1, my2, mz)]
        terms = degraded_rate_terms(Pmf(pu), *channels)
        h = lambda m: -np.sum(np.where(m > 0, m * np.log2(np.where(m > 0, m, 1.0)), 0.0), axis=1)
        psi1 = _wiretap_phi(pxu, my1, mz) - pxu @ (h(my1) - h(mz))
        phi2 = _wiretap_phi(pxu, my2, mz)
        phi2_p = _wiretap_phi((pu @ pxu)[None], my2, mz)[0]
        r1 = terms["i_x_y1_given_u"] + terms["i_u_z"] - terms["i_x_z"]
        r2 = terms["i_u_y2"] - terms["i_u_z"]
        assert abs(r1 - pu @ psi1) <= 1e-12
        assert abs(r2 - (phi2_p - pu @ phi2)) <= 1e-12


class TestDegradedGoldenBytes:
    """The README chain's `region degraded` CSVs, recorded before the pruned search."""

    @pytest.mark.parametrize(
        "ucard,digest",
        [
            ("3", "737b59b4260f6bde0d48391a099d7d35b159876c456e28a24835e6fe7d6ca116"),
            ("2", "a2e9bd1da89ebccf4183561582d1e08bb89e402b568beffedd0c5868dfecb207"),
        ],
    )
    def test_readme_chain_csv(self, tmp_path, ucard, digest):
        crossovers = {"py1x": 0.05, "py2x": 0.14, "pzx": 0.2336}
        chain = {key: BSC(p).matrix.tolist() for key, p in crossovers.items()}
        channel = tmp_path / "channel.json"
        channel.write_text(json.dumps({"type": "bcc-marginals", **chain}))
        out = tmp_path / "frontier.csv"
        args = ["region", "degraded", "--file", str(channel), "--grid", "0.05", "--ucard", ucard]
        assert run([*args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestGeneralGoldenBytes:
    """The README chain's `region general` CSVs, recorded before the orbit search.

    Both grids reach the same two vertices, (0, max r2) and (max r1, 0), so
    their CSVs have the same bytes.
    """

    DIGEST = "1390cd56dcd4155f78e7d6cbf8629f0dc2d047086485dbbad6037f7f8f73b374"

    @pytest.mark.parametrize(
        "grid",
        [["--grid", "0.05"], ["--stochastic-x", "--grid", "0.25"]],
        ids=["deterministic-1/20", "stochastic-x-1/4"],
    )
    def test_readme_chain_csv(self, tmp_path, grid):
        crossovers = {"py1x": 0.05, "py2x": 0.14, "pzx": 0.2336}
        chain = {key: BSC(p).matrix.tolist() for key, p in crossovers.items()}
        channel = tmp_path / "channel.json"
        channel.write_text(json.dumps({"type": "bcc-marginals", **chain}))
        out = tmp_path / "frontier.csv"
        assert run(["region", "general", "--file", str(channel), *grid, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGEST


TERNARY = [
    DiscreteChannel(m)
    for m in (
        [[0.7, 0.09, 0.21], [0.12, 0.83, 0.05], [0.43, 0.1, 0.47]],
        [[0.14, 0.44, 0.42], [0.05, 0.92, 0.03], [0.84, 0.03, 0.13]],
        [[0.02, 0.52, 0.46], [0.1, 0.74, 0.16], [0.4, 0.54, 0.06]],
    )
]


class TestRegionSearch:
    def one_shot(self, monkeypatch, search, *args, **grid):
        """Run a search while keeping every chunk its fill hands to the search's add."""
        chunks = []
        real = regions._search

        def keep_chunks(n_outer, n_inner, budget, fill):
            def tee(add):
                def keep(chunk):
                    chunks.append(chunk)
                    return add(chunk)

                fill(keep)

            return real(n_outer, n_inner, budget, tee)

        monkeypatch.setattr(regions, "_search", keep_chunks)
        frontier = search(*args, **grid)
        return frontier, np.vstack(chunks)

    def test_degraded_streaming_equals_one_shot_hull(self, monkeypatch):
        frontier, survivors = self.one_shot(
            monkeypatch, degraded_region_inner, *DEGRADED, resolution=0.1, u_card=2
        )
        cloud = degraded_region_full(*DEGRADED, 10, 2)
        assert len(cloud) == 11 * 11**2
        assert bits(frontier.points) == bits(hull_two_chain(cloud))
        assert bits(frontier.points) == bits(upper_right_hull(cloud).points)
        assert bits(frontier.points) == bits(upper_right_hull(survivors).points)

    def test_general_streaming_equals_one_shot_hull(self, monkeypatch):
        for grid in (
            dict(resolution=0.2, v1_card=2, v2_card=2),
            dict(resolution=0.5, v1_card=2, v2_card=2, deterministic_x=False),
        ):
            frontier, cloud = self.one_shot(monkeypatch, general_inner_bound, *TERNARY, **grid)
            assert len(frontier.points) >= 2
            assert bits(frontier.points) == bits(hull_two_chain(cloud))

    @pytest.mark.parametrize(
        "search,chain,grid",
        [
            (degraded_region_inner, DEGRADED, dict(resolution=0.01, u_card=2)),
            (degraded_region_inner, DEGRADED, dict(resolution=0.05, u_card=3)),
            (general_inner_bound, TERNARY, dict(resolution=0.2, v1_card=2, v2_card=2)),
        ],
        ids=["degraded-u2", "degraded-u3", "general-ternary"],
    )
    def test_hull_gets_one_staircase(self, monkeypatch, search, chain, grid):
        # The search folds every chunk into one running staircase, so the
        # hull runs once, on an input that is its own staircase.
        hulled = []
        real = regions.upper_right_hull

        def keep(points):
            hulled.append(points)
            return real(points)

        monkeypatch.setattr(regions, "upper_right_hull", keep)
        search(*chain, **grid)
        (points,) = hulled
        assert same_array(_pareto(points), points)

    def test_frontier_does_not_depend_on_the_chunking(self, monkeypatch):
        _, cloud = self.one_shot(
            monkeypatch, degraded_region_inner, *DEGRADED, resolution=0.1, u_card=2
        )
        rng = np.random.default_rng(61)
        random_cuts = np.sort(rng.choice(np.arange(1, len(cloud)), 40, replace=False))
        chunkings = [
            [cloud],
            np.array_split(cloud, 11),
            np.array_split(cloud[::-1], 300),
            np.split(cloud, random_cuts),
        ]
        results = [
            regions._search(1, len(cloud), len(cloud), lambda add, c=c: [add(x) for x in c])
            for c in chunkings
        ]
        assert all(bits(r.points) == bits(results[0].points) for r in results)
        assert bits(results[0].points) == bits(hull_two_chain(cloud))

    def test_astronomical_grid_refused_without_allocating(self):
        huge = dict(resolution=0.001, v1_card=12, v2_card=12)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="grid too large"):
                degraded_region_inner(*DEGRADED, resolution=0.001, u_card=12)
            with pytest.raises(BudgetExceeded, match="grid too large"):
                general_inner_bound(*DEGRADED, **huge)
            with pytest.raises(BudgetExceeded, match="grid too large"):
                general_inner_bound(*DEGRADED, **huge, deterministic_x=False)
            # The wiretap budget counts points P(x) on the 1/k^2 grid: 10^8 + 1 here.
            with pytest.raises(BudgetExceeded, match="grid too large"):
                wiretap_secrecy_capacity(DEGRADED[0], DEGRADED[2], resolution=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestGeneralInnerBound:
    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded, match="grid too large"):
            general_inner_bound(
                BSC(0.1), BSC(0.2), BSC(0.3), resolution=0.05, budget=10
            )

    def test_wiretap_reduction_when_second_user_removed(self):
        py1x, pzx = BSC(0.1), BSC(0.2)
        frontier = general_inner_bound(py1x, uninformative(2), pzx, resolution=0.1)
        # with deterministic maps on both sides the embeddings coincide
        best_r1 = max(p.r1 for p in frontier.points)
        rates = []
        for pv in simplex_grid(2, 10):
            for assignment in ((0, 0), (0, 1), (1, 0), (1, 1)):
                rows = np.eye(2)[list(assignment)]
                value = mutual_information(Pmf(pv), DiscreteChannel(rows @ py1x.matrix))
                value -= mutual_information(Pmf(pv), DiscreteChannel(rows @ pzx.matrix))
                rates.append(max(value, 0.0))
        assert best_r1 == pytest.approx(max(rates), abs=1e-9)

    def test_degraded_instance_contained_in_layered_region(self):
        py1x, py2x, pzx = DEGRADED
        general = general_inner_bound(py1x, py2x, pzx, resolution=0.1)
        layered = degraded_region_inner(py1x, py2x, pzx, resolution=0.02, u_card=2)
        xs, ys = np.array(layered.points).T
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

    def test_non_stochastic_x_map_rejected(self):
        # Rows summing to 2 once gave -2.0 bits for five terms and no error.
        joint = np.full((2, 2), 0.25)
        xmap = np.full((2, 2, 2), 1.0)
        channels = (BSC(0.05), BSC(0.14), BSC(0.2336))
        with pytest.raises(SumNotOne, match=r"row \(0, 0\) of x-map sums to 2.0"):
            general_rate_terms(joint, xmap, *channels)
        with pytest.raises(SumNotOne):
            general_rate_corners(joint, xmap, *channels)
        xmap = np.stack([np.eye(2), np.eye(2)[::-1]]) * 2.0 - 0.5
        with pytest.raises(NegativeEntry, match="x-map"):
            general_rate_terms(joint, xmap, *channels)

    def test_joint_must_be_a_two_axis_pmf(self):
        channels = (BSC(0.05), BSC(0.14), BSC(0.2336))
        xmap = np.full((2, 2, 2), 0.5)
        with pytest.raises(SumNotOne):
            general_rate_terms(np.full((2, 2), 0.5), xmap, *channels)
        with pytest.raises(DimensionMismatch, match="does not match joint"):
            general_rate_terms(np.full(4, 0.25), xmap[0], *channels)
        with pytest.raises(DimensionMismatch, match="does not match joint"):
            general_rate_terms(np.full((2, 2), 0.25), xmap[:, :, 0], *channels)


def seeded_binary(seed):
    """A random binary triple (py1x, py2x, pzx), every channel 2 x 2."""
    rng = np.random.default_rng(seed)
    return [DiscreteChannel(stochastic(rng, 2, 2)) for _ in range(3)]


def general_orbit_cases():
    """(name, chain, steps, v1, v2, deterministic_x): the orbit search's bits cases.

    Seeds 210 and 311 (at |V1| = 3) have frontier vertices that only a
    joint representing no orbit reaches, so the second pass is checked
    too (test_relabelled_maps_carry_vertices).
    """
    held_out = [BSC(p) for p in (0.044, 0.15, 0.2369)]
    return [
        ("readme", list(DEGRADED), 20, 2, 2, True),
        ("held-out", held_out, 20, 2, 2, True),
        *((f"binary-{seed}", seeded_binary(seed), 20, 2, 2, True) for seed in (207, 210, 218)),
        ("readme-stochastic-x", list(DEGRADED), 4, 2, 2, False),
        ("binary-311-stochastic-x", seeded_binary(311), 4, 2, 2, False),
        ("ternary", TERNARY, 4, 2, 2, True),
        ("binary-311-v3-v2", seeded_binary(311), 10, 3, 2, True),
        ("ternary-v3-v3", TERNARY, 2, 3, 3, True),
    ]


GENERAL_ORBIT_CASES = general_orbit_cases()
GENERAL_ORBIT_IDS = [case[0] for case in GENERAL_ORBIT_CASES]
# Frontier vertices that, bit for bit, only joints representing no orbit reach.
RELABELLED_VERTICES = {
    "binary-207": 0,
    "binary-210": 2,
    "binary-218": 0,
    "binary-311-stochastic-x": 0,
    "ternary": 0,
    "binary-311-v3-v2": 2,
}
RELABELLED_CASES = [case for case in GENERAL_ORBIT_CASES if case[0] in RELABELLED_VERTICES]
RELABELLED_IDS = [case[0] for case in RELABELLED_CASES]


def orbit_search(chain, steps, v1, v2, deterministic_x):
    return general_inner_bound(
        *chain, resolution=1 / steps, v1_card=v1, v2_card=v2, deterministic_x=deterministic_x
    )


def group_images(row, v1, v2):
    """Every relabelling of a row-major (V1, V2) matrix, brute force."""
    matrix = np.asarray(row).reshape(v1, v2)
    return {
        tuple(matrix[np.ix_(p1, p2)].ravel())
        for p1 in itertools.permutations(range(v1))
        for p2 in itertools.permutations(range(v2))
    }


class TestGeneralOrbitSearch:
    """One joint per relabelling orbit under every x-map; the others only where they can count."""

    @pytest.mark.parametrize("steps", [1, 2, 5])
    @pytest.mark.parametrize("v1,v2", [(2, 2), (3, 2), (2, 3), (1, 4), (4, 1), (3, 3)])
    def test_representative_is_largest_over_the_group(self, v1, v2, steps):
        counts = _compositions(v1 * v2, steps)
        rep, _ = _orbits(counts, v1, v2, steps)
        for row, r in zip(counts, rep):
            assert tuple(counts[r]) == max(group_images(row, v1, v2))

    @pytest.mark.parametrize(
        "v1,v2,steps,orbits",
        [(2, 2, 20, 451), (3, 2, 10, 280), (2, 3, 2, 4), (3, 3, 5, 51), (1, 4, 5, 6), (1, 1, 7, 1)],
    )
    def test_orbits_cover_every_composition_once(self, v1, v2, steps, orbits):
        # Each row's representative lies in its orbit through a relabelling
        # of the two axes, and rows share a representative exactly when
        # they share an orbit.
        counts = _compositions(v1 * v2, steps)
        rep, sigma = _orbits(counts, v1, v2, steps)
        own = np.flatnonzero(rep == np.arange(len(counts)))
        assert len(own) == orbits
        assert np.array_equal(rep[own], own)
        assert np.array_equal(counts[rep], np.take_along_axis(counts, sigma, axis=1))
        cells = sigma.reshape(-1, v1, v2)
        p1, p2 = cells[:, :, 0] // v2, cells[:, 0, :] % v2
        assert np.array_equal(cells, p1[:, :, None] * v2 + p2[:, None, :])
        assert np.array_equal(np.sort(p1, axis=1), np.broadcast_to(np.arange(v1), p1.shape))
        assert np.array_equal(np.sort(p2, axis=1), np.broadcast_to(np.arange(v2), p2.shape))
        images = [group_images(counts[r], v1, v2) for r in own]
        assert sum(map(len, images)) == len(counts)
        for r, image in zip(own, images):
            assert set(map(tuple, counts[rep == r])) == image

    def test_one_row_names_no_orbits(self, monkeypatch):
        # With one x-map row every map is the same, so each joint runs once;
        # naming orbits at |V1| = |V2| = 12 would take 12! passes over the grid.
        def refuse(*args):
            raise AssertionError("orbits named for one x-map row")

        monkeypatch.setattr(regions, "_orbits", refuse)
        flat = [DiscreteChannel(np.array([[0.5, 0.5]]))] * 3
        frontier = general_inner_bound(*flat, resolution=1, v1_card=12, v2_card=12)
        assert frontier.points == [RatePoint(0.0, 0.0)]

    @pytest.mark.parametrize(
        "name,chain,steps,v1,v2,deterministic_x", GENERAL_ORBIT_CASES, ids=GENERAL_ORBIT_IDS
    )
    def test_frontier_bits_equal_full_search(self, name, chain, steps, v1, v2, deterministic_x):
        frontier = orbit_search(chain, steps, v1, v2, deterministic_x)
        full = upper_right_hull(general_inner_bound_full(*chain, steps, v1, v2, deterministic_x))
        assert bits(frontier.points) == bits(full.points)

    @pytest.mark.parametrize(
        "name,chain,steps,v1,v2,deterministic_x", RELABELLED_CASES, ids=RELABELLED_IDS
    )
    def test_relabelled_maps_carry_vertices(self, name, chain, steps, v1, v2, deterministic_x):
        # The full search's cloud holds each x-map's corners in turn, first
        # corners then second, each over the joints in grid order; some
        # frontier vertices come, bit for bit, only from joints that
        # represent no orbit, each under its x-map relabelled.
        frontier = orbit_search(chain, steps, v1, v2, deterministic_x)
        counts = _compositions(v1 * v2, steps)
        rep, _ = _orbits(counts, v1, v2, steps)
        cloud = general_inner_bound_full(*chain, steps, v1, v2, deterministic_x)
        per_map = cloud.reshape(-1, 2, len(counts), 2)
        from_reps = set(bits(per_map[:, :, rep == np.arange(len(counts))].reshape(-1, 2)))
        only_relabelled = [point not in from_reps for point in bits(frontier.points)]
        assert sum(only_relabelled) == RELABELLED_VERTICES[name]

    @pytest.mark.parametrize(
        "name,chain,steps,v1,v2,deterministic_x", RELABELLED_CASES, ids=RELABELLED_IDS
    )
    def test_targets_hold_for_every_relabelling(self, name, chain, steps, v1, v2, deterministic_x):
        # A -inf target stands for a coordinate that is exactly 0 in every
        # relabelling of the candidate; a finite one lies within round-off
        # of the relabelled candidates' coordinates.  Every joint runs under
        # every x-map, against its representative under that map relabelled.
        nx = chain[0].input_size
        mats = [ch.matrix for ch in chain]
        counts = _compositions(v1 * v2, steps)
        joints = (counts / steps).reshape(-1, v1, v2)
        x_rows = np.eye(nx) if deterministic_x else simplex_grid(nx, steps)
        rep, sigma = _orbits(counts, v1, v2, steps)
        picks = np.array(list(itertools.product(range(len(x_rows)), repeat=v1 * v2)))
        member = np.repeat(np.arange(len(counts)), len(picks))
        rep_picks = np.tile(picks, (len(counts), 1))
        moved = np.take_along_axis(rep_picks, np.argsort(sigma[member], axis=1), axis=1)

        def corners(joint_rows, picks):
            xmaps = x_rows[picks].reshape(len(picks), v1, v2, nx)
            terms = _general_terms(joints[joint_rows], xmaps, *mats)
            i_v1_v2 = regions._mi_from_joint(joints[joint_rows])
            sides = regions._general_sides({**terms, "i_v1_v2": i_v1_v2})
            return sides, regions._general_corners(*sides)

        sides, points = corners(rep[member], rep_picks)
        targets = regions._general_targets(*sides, points)
        exact_zero = np.isneginf(targets)
        _, mate = corners(member, moved)
        mate = mate.reshape(2, -1, 2).transpose(2, 0, 1)
        assert np.all(mate[exact_zero] == 0.0)
        assert np.max(np.abs(mate - targets)[~exact_zero], initial=0.0) <= 1e-12
        assert exact_zero.any()

    @staticmethod
    def kernel_rows(monkeypatch, chain):
        """The frontier at 1/20 and the rows of each kernel call that made it."""
        scored = []
        real = regions._general_terms

        def count(joint_batch, xmaps, my1, my2, mz):
            scored.append(len(joint_batch))
            return real(joint_batch, xmaps, my1, my2, mz)

        monkeypatch.setattr(regions, "_general_terms", count)
        return general_inner_bound(*chain, resolution=0.05), scored

    def test_kernel_rows_on_the_readme_chain(self, monkeypatch):
        # 451 representative joints of 1,771, each under every pick of its
        # nonzero cells (5,474 rows) in 4,096-row blocks, then 712 rows on
        # the other joints of the survivors' orbits.
        frontier, scored = self.kernel_rows(monkeypatch, DEGRADED)
        assert len(frontier.points) == 2
        assert scored == [4096, 5474 - 4096, 712]

    def test_exact_zeros_keep_relabelled_rows_few(self, monkeypatch):
        # Without -inf targets for corner coordinates that are exactly 0 in
        # every relabelling, 15,966 relabelled rows of this chain reach the
        # kernel, almost three times its 5,474 first-pass rows; with them, 256.
        _, scored = self.kernel_rows(monkeypatch, seeded_binary(210))
        assert sum(scored) - 5474 < 1000

    def test_peak_memory_follows_the_block_rule(self):
        # The kernel takes ENVELOPE_BLOCK_CELLS // (v1 v2 (|X| + |Y1| + |Y2| + |Z|))
        # rows at a time: 4,096 at |V1| = |V2| = 2 and 2,730 at |V1| = 3, one
        # block of float cells for their x-maps and channel rows.  Their
        # joints, joint-channel products and entropy terms fit in one more,
        # and the grid, the staircase and the first pass's survivors in a
        # third.  Scoring all 5,598 first-pass rows at |V1| = 3 at once holds
        # about 3.8 MiB.
        for resolution, v1_card in ((0.05, 2), (0.1, 3)):
            general_inner_bound(*DEGRADED, resolution=resolution, v1_card=v1_card)
            tracemalloc.start()
            try:
                general_inner_bound(*DEGRADED, resolution=resolution, v1_card=v1_card)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * ENVELOPE_BLOCK_CELLS * 8

    def test_many_x_maps_few_joints_stay_small(self):
        # 16 inputs at resolution 1: 4 joints in one orbit under 65,536
        # x-maps.  The search holds what its one representative joint's 16
        # picks need, where a listing of every x-map's orbit held 8.2 MiB.
        rng = np.random.default_rng(16)
        chain = [DiscreteChannel(stochastic(rng, 16, 2)) for _ in range(3)]
        frontier = orbit_search(chain, 1, 2, 2, True)
        tracemalloc.start()
        try:
            orbit_search(chain, 1, 2, 2, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
        full = upper_right_hull(general_inner_bound_full(*chain, 1, 2, 2))
        assert bits(frontier.points) == bits(full.points)


# (name, chain, v1, v2, deterministic_x) for the kernel's row tests.
KERNEL_SHAPES = [
    ("binary", list(DEGRADED), 2, 2, True),
    ("binary-stochastic-x", seeded_binary(311), 2, 2, False),
    ("ternary", TERNARY, 2, 2, True),
    ("binary-v3-v2", seeded_binary(311), 3, 2, True),
    ("ternary-v3-v3", TERNARY, 3, 3, True),
]
KERNEL_IDS = [shape[0] for shape in KERNEL_SHAPES]


class TestGeneralKernel:
    """Each row of a batch is scored under its own x-map, independently of the others."""

    def batch(self, chain, v1, v2, deterministic_x, rows=300, seed=0):
        rng = np.random.default_rng(seed)
        nx = chain[0].input_size
        joints = simplex_grid(v1 * v2, 6).reshape(-1, v1, v2)
        x_rows = np.eye(nx) if deterministic_x else simplex_grid(nx, 4)
        picks = rng.integers(0, len(x_rows), (rows, v1, v2))
        return joints[rng.integers(0, len(joints), rows)], x_rows[picks]

    @pytest.mark.parametrize("name,chain,v1,v2,deterministic_x", KERNEL_SHAPES, ids=KERNEL_IDS)
    def test_per_row_maps_equal_one_map_calls(self, name, chain, v1, v2, deterministic_x):
        joints, xmaps = self.batch(chain, v1, v2, deterministic_x)
        mats = [ch.matrix for ch in chain]
        terms = _general_terms(joints, xmaps, *mats)
        for row in range(len(joints)):
            one_map = _general_terms(joints, np.broadcast_to(xmaps[row], xmaps.shape), *mats)
            former = general_terms_one_map(joints, xmaps[row], *mats)
            for key, values in terms.items():
                assert values[row].tobytes() == one_map[key][row].tobytes(), key
                assert values[row].tobytes() == former[key][row].tobytes(), key

    @pytest.mark.parametrize("name,chain,v1,v2,deterministic_x", KERNEL_SHAPES, ids=KERNEL_IDS)
    def test_rows_do_not_depend_on_the_batch(self, name, chain, v1, v2, deterministic_x):
        joints, xmaps = self.batch(chain, v1, v2, deterministic_x)
        mats = [ch.matrix for ch in chain]
        terms = _general_terms(joints, xmaps, *mats)
        rng = np.random.default_rng(1)
        subsets = [[0], [len(joints) - 1], rng.choice(len(joints), 37, replace=False)]
        for subset in [*subsets, np.arange(5, 200, 3)]:
            part = _general_terms(joints[subset], xmaps[subset], *mats)
            for key, values in terms.items():
                assert part[key].tobytes() == values[subset].tobytes(), key


class TestWiretapSecrecyCapacity:
    def test_equal_channels_give_zero(self):
        assert wiretap_secrecy_capacity(BSC(0.1), BSC(0.1), resolution=0.2) == 0.0

    def test_uninformative_main_gives_zero(self):
        value = wiretap_secrecy_capacity(uninformative(2), BSC(0.1), resolution=0.2)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            wiretap_secrecy_capacity(BSC(0.1), BSC(0.2), resolution=0.01, budget=10)

    def test_degraded_pair_attains_known_value_on_coarse_grid(self):
        value = wiretap_secrecy_capacity(BSC(0.1), BSC(0.2), resolution=0.1)
        assert value == pytest.approx(binary_entropy(0.2) - binary_entropy(0.1), abs=1e-12)

    def test_budget_counts_points_on_the_squared_grid(self):
        # 1/10 rows give P(x) on the 1/100 grid: 101 binary points.
        wiretap_secrecy_capacity(BSC(0.1), BSC(0.2), resolution=0.1, budget=101)
        with pytest.raises(BudgetExceeded, match="101 points"):
            wiretap_secrecy_capacity(BSC(0.1), BSC(0.2), resolution=0.1, budget=100)

    def test_equal_ternary_channels_give_zero(self):
        rng = np.random.default_rng(3)
        channel = DiscreteChannel(rng.dirichlet(np.ones(3), size=3))
        assert wiretap_secrecy_capacity(channel, channel, resolution=0.1) == 0.0

    def test_single_input_gives_zero(self):
        one = DiscreteChannel([[0.3, 0.7]])
        assert wiretap_secrecy_capacity(one, one, resolution=0.5) == 0.0

    def test_never_below_the_grid_search(self):
        # The 1/k^2 grid of P(x) holds every mixture the grid search forms,
        # so only round-off may put the envelope below it.
        round_off = 1e-14
        rng = np.random.default_rng(2008)
        higher = 0
        # (|X|, pairs, [(steps, |V|), ...]); every pair has three outputs.
        for nx, pairs, searches in ((2, 40, [(20, 2), (12, 3)]), (3, 10, [(6, 2), (6, 3)])):
            for _ in range(pairs):
                main, eve = (DiscreteChannel(rng.dirichlet(np.ones(3), size=nx)) for _ in "ab")
                for steps, v_card in searches:
                    grid_value = wiretap_grid_search(main.matrix, eve.matrix, steps, v_card)
                    value = wiretap_secrecy_capacity(main, eve, resolution=1 / steps)
                    assert value >= grid_value - round_off, (nx, steps, v_card, value, grid_value)
                    higher += value > grid_value + 1e-12
        assert higher >= 20

    def test_binary_matches_two_point_brute_force(self):
        rng = np.random.default_rng(1978)
        for steps in (1, 2, 5, 10, 20):
            for _ in range(6):
                main = DiscreteChannel(rng.dirichlet(np.ones(3), size=2))
                eve = DiscreteChannel(rng.dirichlet(np.ones(2), size=2))
                value = wiretap_secrecy_capacity(main, eve, resolution=1 / steps)
                expected = wiretap_two_point_binary(main.matrix, eve.matrix, steps)
                assert value == pytest.approx(expected, abs=1e-12), (steps, value, expected)

    def test_benchmark_chains_attain_the_closed_form(self):
        for p1, _, p3 in benchmark_chains():
            value = wiretap_secrecy_capacity(BSC(p1), BSC(p3), resolution=0.005)
            expected = binary_entropy(p3) - binary_entropy(p1)
            assert value == pytest.approx(expected, abs=1e-12), (p1, p3)

    def test_lower_facets_support_phi_and_skip_vertical_faces(self):
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(11)
        main, eve = (rng.dirichlet(np.ones(3), size=3) for _ in "ab")
        rows = simplex_grid(3, 20)
        values = _wiretap_phi(rows, main, eve)
        # The faces over the simplex's edges are vertical: their value
        # component is round-off, of either sign.
        lid = [1 / 3, 1 / 3, values.max() + 1.0]
        hull = ConvexHull(np.vstack([np.column_stack([rows[:, :-1], values]), lid]))
        assert np.sum(np.abs(hull.equations[:, -2]) < 1e-12) >= 3
        slopes, offsets = _lower_facets(rows, values)
        affine = rows[:, :-1] @ slopes.T + offsets  # (rows, facets)
        assert np.all(np.abs(slopes) < 100.0)
        assert np.all(affine <= values[:, None] + 1e-12)
        assert np.all(np.sum(np.abs(affine - values[:, None]) <= 1e-12, axis=0) >= 3)

    def test_many_facets_stay_in_bounded_memory(self):
        # A stronger eavesdropper makes phi convex: every 1/500 row is a
        # vertex of the lower hull, and the 250,001 points P(x) are scored
        # against about 500 facets in blocks of ENVELOPE_BLOCK_CELLS.
        main, eve = BSC(0.3), BSC(0.05)
        rows = simplex_grid(2, 500)
        slopes, offsets = _lower_facets(rows, _wiretap_phi(rows, main.matrix, eve.matrix))
        assert len(offsets) >= 400
        tracemalloc.start()
        try:
            value = wiretap_secrecy_capacity(main, eve, resolution=0.002)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(0.0, abs=1e-12)
        # Qhull's own heap is not traced; it holds only the 501 rows.
        assert peak < 4 * 2**20, peak

    def test_binary_chain_envelope_equals_qhull(self):
        # Binary X takes its lower hull from a monotone chain, not Qhull:
        # the envelope must be the former facets' at every 1/k^2 point P(x),
        # and the value the one those facets give.
        rng = np.random.default_rng(1957)
        pairs = [
            tuple(rng.dirichlet(np.ones(int(rng.integers(2, 4))), size=2) for _ in "ab")
            for _ in range(100)
        ]
        pairs += [(BSC(p1).matrix, BSC(p3).matrix) for p1, _, p3 in benchmark_chains()]
        pairs += [(BSC(0.3).matrix, BSC(0.05).matrix), (BSC(0.2).matrix, BSC(0.2).matrix)]
        positive = 0
        for main, eve in pairs:
            for steps in (1, 2, 5, 20, 200):
                rows = simplex_grid(2, steps)
                phi = _wiretap_phi(rows, main, eve)
                p = simplex_grid(2, steps * steps)
                chain, qhull = (
                    (np.multiply.outer(slopes[:, 0], p[:, 0]) + offsets[:, None]).max(axis=0)
                    for slopes, offsets in (_lower_facets(rows, phi), lower_facets_qhull(rows, phi))
                )
                assert np.max(np.abs(chain - qhull)) <= 1e-12, (main, eve, steps)
                expected = max(0.0, float(np.max(_wiretap_phi(p, main, eve) - qhull)))
                channels = (DiscreteChannel(main), DiscreteChannel(eve))
                value = wiretap_secrecy_capacity(*channels, resolution=1 / steps)
                assert value == pytest.approx(expected, abs=1e-12), (main, eve, steps)
                positive += expected > 0.01
        assert positive >= 200


def relabel(channels, names, alphabet):
    """The channels with one alphabet's symbols renamed by a cyclic shift.

    "x" shifts the rows of every channel; a name from `names` shifts the
    columns of its channel.
    """
    return [
        DiscreteChannel(np.roll(ch.matrix, 1, axis=0 if alphabet == "x" else 1))
        if alphabet in ("x", name)
        else ch
        for name, ch in zip(names, channels, strict=True)
    ]


def random_channels(seed, nx, count):
    rng = np.random.default_rng(seed)
    return [DiscreteChannel(rng.dirichlet(np.full(nx, 0.6), size=nx)) for _ in range(count)]


BINARY_TRIPLE = [
    DiscreteChannel(m)
    for m in ([[0.95, 0.05], [0.2, 0.8]], [[0.85, 0.15], [0.3, 0.7]], [[0.7, 0.3], [0.45, 0.55]])
]


class TestRelabelingInvariance:
    """Renaming the symbols of X, Y1, Y2 or Z moves no rate, up to round-off."""

    @pytest.mark.parametrize(
        "channels, grid",
        [
            (BINARY_TRIPLE, dict(resolution=0.1)),
            (BINARY_TRIPLE, dict(resolution=0.25, deterministic_x=False)),
            (random_channels(7, 3, 3), dict(resolution=0.25, v1_card=2, v2_card=2)),
            (random_channels(8, 3, 3), dict(resolution=0.5, v1_card=2, v2_card=2, deterministic_x=False)),
        ],
        ids=["binary", "binary-stochastic-x", "ternary", "ternary-stochastic-x"],
    )
    def test_general_inner_bound(self, channels, grid):
        base = general_inner_bound(*channels, **grid).points
        assert max(max(p) for p in base) > 0.01
        for alphabet in ("x", "y1", "y2", "z"):
            renamed = relabel(channels, ("y1", "y2", "z"), alphabet)
            points = general_inner_bound(*renamed, **grid).points
            assert frontier_deviation(base, points) <= 1e-12, alphabet
            assert abs(base[-1].r1 - points[-1].r1) <= 1e-12, alphabet

    @pytest.mark.parametrize(
        "channels, resolution",
        [(BINARY_TRIPLE[::2], 0.01), (random_channels(9, 3, 2), 0.05), (random_channels(10, 3, 2), 0.05)],
        ids=["binary", "ternary-9", "ternary-10"],
    )
    def test_wiretap_secrecy_capacity(self, channels, resolution):
        base = wiretap_secrecy_capacity(*channels, resolution=resolution)
        assert base > 0.01
        for alphabet in ("x", "y", "z"):
            renamed = relabel(channels, ("y", "z"), alphabet)
            value = wiretap_secrecy_capacity(*renamed, resolution=resolution)
            assert value == pytest.approx(base, abs=1e-12), alphabet


def support(frontier, directions):
    """max over the region (frontier, origin and axis feet) of d . r, per direction d."""
    points = np.array([[p.r1, p.r2] for p in frontier.points] + [[0.0, 0.0]])
    return (directions @ points.T).max(axis=1)


def degraded_chain(seed):
    """A random binary chain y1 -> y2 -> z: Y1 = W1, Y2 = W1 @ M1, Z = Y2 @ M2."""
    w1, m1, m2 = random_channels(seed, 2, 3)
    y2 = cascade(w1, m1)
    return w1, y2, cascade(y2, m2)


class TestGeneralInsideDegraded:
    """On a degraded chain the layered region is the capacity region, so the
    general double-binning bound cannot exceed it in any direction."""

    ANGLES = np.linspace(0.0, np.pi / 2, 2001)
    DIRECTIONS = np.column_stack([np.cos(ANGLES), np.sin(ANGLES)])

    @pytest.mark.parametrize("chain", [DEGRADED, *(degraded_chain(seed) for seed in range(4))])
    def test_support_functions(self, chain):
        general = general_inner_bound(*chain, resolution=0.1)
        degraded = degraded_region_inner(*chain, resolution=0.1)
        excess = support(general, self.DIRECTIONS) - support(degraded, self.DIRECTIONS)
        assert excess.max() <= 1e-12
