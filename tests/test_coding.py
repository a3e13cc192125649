import math
import tracemalloc

import numpy as np
import pytest

from bcc_secrecy import (
    BinningCodebook,
    BudgetExceeded,
    CodeParams,
    DimensionMismatch,
    DiscreteChannel,
    InvalidDistribution,
    Pmf,
    SumNotOne,
    SuperpositionCodebook,
    build_double_binning,
    cascade,
    build_superposition,
    decode_rx1,
    decode_rx2,
    encode_double_binning,
    encode_superposition,
    exact_equivocation,
    run_error_experiment,
    transmit,
)
from bcc_secrecy import coding
from bcc_secrecy.coding import (
    _TAG_CLOUD,
    _TAG_TRIALS,
    _TAG_V1,
    _TAG_V2,
    _clopper_pearson,
    _log_matrix,
    _ml_index,
    _rng,
    _sample_conditional,
)
from oracles import (
    equivocation_digit_table,
    equivocation_direct,
    posterior_argmax_exact,
    sample_iid_searchsorted,
    typical_pair_loop,
)

BSC = DiscreteChannel.binary_symmetric
UNIFORM_Z = DiscreteChannel.constant_rows([0.5, 0.5], 2)


def small_params(**overrides):
    base = dict(n=3, m1=2, m2=2, l1=2, l2=2, seed=12345)
    base.update(overrides)
    return CodeParams(**base)


# Streams for single encoder and transmit calls.  Tags 5 and 6 are the ones
# those functions once seeded themselves, so the statistical tests below see
# the draws they were written against.
def encode_rng(seed):
    return _rng(seed, 5)


def channel_rng(seed):
    return _rng(seed, 6)


def random_channel(rng, n_in, n_out):
    m = rng.random((n_in, n_out)) + 0.05
    return DiscreteChannel(m / m.sum(axis=1, keepdims=True))


class TestSampler:
    def pmfs(self):
        rng = np.random.default_rng(8)
        fixed = [
            np.array([1.0]),
            np.array([0.0, 1.0, 0.0]),  # point mass
            np.array([0.0, 0.5, 0.0, 0.5]),
            np.full(10, 0.1),  # the float CDF ends at 0.9999999999999999
            np.array([0.3, 0.3, 0.3]),  # the CDF ends at 0.9: u >= 0.9 is capped
        ]
        drawn = []
        for _ in range(60):
            probs = rng.random(int(rng.integers(1, 7)))
            probs[rng.random(len(probs)) < 0.3] = 0.0  # zero entries
            probs[int(rng.integers(len(probs)))] += 0.1
            drawn.append(probs / probs.sum())
        return fixed + drawn

    def test_one_row_equals_searchsorted_sampler(self):
        for seed, probs in enumerate(self.pmfs()):
            shape = (3, 4, 50)
            want = sample_iid_searchsorted(np.random.default_rng(seed), probs, shape)
            got = _sample_conditional(
                np.random.default_rng(seed), probs[None], np.zeros(shape, np.int64)
            )
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    def test_never_emits_a_zero_probability_symbol(self):
        class Stub:
            """A generator whose uniforms lie past the float CDF ends below."""

            def random(self, shape):
                return np.full(shape, 0.9999999998)

        # Both rows pass validation; their CDFs end at 0.9999999995.
        rows = np.array([Pmf([0.5, 0.4999999995, 0.0]).probs, Pmf([0.4999999995, 0.0, 0.5]).probs])
        draws = _sample_conditional(Stub(), rows[:1], np.zeros(600, np.int64))
        assert np.all(draws == 1)
        draws = _sample_conditional(Stub(), rows, np.array([0, 1, 1, 0]))
        assert draws.tolist() == [1, 2, 2, 1]

    def test_codebooks_draw_as_the_searchsorted_sampler(self):
        params = CodeParams(n=7, m1=3, m2=2, l1=2, l2=3, seed=99)
        pa, pb = Pmf([0.2, 0.0, 0.8]), Pmf([0.6, 0.4])
        cb = build_superposition(params, pa, DiscreteChannel.constant_rows([0.5, 0.5], 3))
        want = sample_iid_searchsorted(_rng(99, _TAG_CLOUD), pa.probs, (2, 3, 7))
        assert np.array_equal(cb.u_words, want)
        x_map = np.full((3, 2, 2), 0.5)
        binned = build_double_binning(params, pa, pb, x_map, 0.1)
        assert np.array_equal(
            binned.v1_words, sample_iid_searchsorted(_rng(99, _TAG_V1), pa.probs, (3, 2, 7))
        )
        assert np.array_equal(
            binned.v2_words, sample_iid_searchsorted(_rng(99, _TAG_V2), pb.probs, (2, 3, 7))
        )


class TestCodeParams:
    def test_rates(self):
        params = CodeParams(n=4, m1=8, m2=2, l1=4, l2=1, seed=0)
        assert params.rate1 == pytest.approx(3 / 4)
        assert params.rate2 == pytest.approx(1 / 4)
        assert params.randomization_rate1 == pytest.approx(2 / 4)
        assert params.randomization_rate2 == 0.0

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            CodeParams(n=0, m1=1, m2=1, l1=1, l2=1, seed=0)
        with pytest.raises(ValueError):
            CodeParams(n=2, m1=1, m2=-1, l1=1, l2=1, seed=0)


class TestBuildSuperposition:
    def test_degenerate_codebook_is_single_pair(self):
        params = CodeParams(n=5, m1=1, m2=1, l1=1, l2=1, seed=3)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        assert cb.u_words.shape == (1, 1, 5)
        assert cb.x_words.shape == (1, 1, 1, 1, 5)

    def test_point_mass_cloud_distribution(self):
        cb = build_superposition(small_params(), Pmf.point_mass(2, 1), BSC(0.1))
        assert np.all(cb.u_words == 1)

    def test_seed_reproducibility(self):
        a = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        b = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        assert np.array_equal(a.u_words, b.u_words)
        assert np.array_equal(a.x_words, b.x_words)
        c = build_superposition(small_params(seed=999), Pmf.uniform(2), BSC(0.1))
        assert not np.array_equal(a.x_words, c.x_words)

    def test_cloud_symbol_frequencies_within_three_sigma(self):
        params = CodeParams(n=4, m1=2, m2=2, l1=2, l2=2, seed=2024)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        draws = cb.u_words.size  # 8 cloud words of length 4
        ones = int(cb.u_words.sum())
        sigma = math.sqrt(draws * 0.25)
        assert abs(ones - draws * 0.5) <= 3 * sigma

    def test_satellites_follow_conditional_rows(self):
        # strongly biased conditional: x almost always equals u
        params = CodeParams(n=64, m1=2, m2=2, l1=2, l2=2, seed=5)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.05))
        u = np.broadcast_to(cb.u_words[:, :, None, None, :], cb.x_words.shape)
        flips = int((cb.x_words != u).sum())
        total = cb.x_words.size
        sigma = math.sqrt(total * 0.05 * 0.95)
        assert abs(flips - total * 0.05) <= 3 * sigma

    def test_alphabet_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_superposition(small_params(), Pmf.uniform(3), BSC(0.1))

    def test_symbol_budget(self):
        params = CodeParams(n=16, m1=64, m2=64, l1=16, l2=16, seed=0)
        with pytest.raises(BudgetExceeded):
            build_superposition(params, Pmf.uniform(2), BSC(0.1))


class TestEncodeSuperposition:
    @pytest.fixture()
    def codebook(self):
        return build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))

    def test_single_member_bins_are_deterministic(self):
        params = CodeParams(n=4, m1=2, m2=2, l1=1, l2=1, seed=8)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        out = encode_superposition(cb, 1, 0, encode_rng(77))
        assert np.array_equal(out, cb.x_words[0, 0, 1, 0])

    def test_fixed_noise_seed_repeats(self, codebook):
        a = encode_superposition(codebook, 0, 1, encode_rng(4))
        b = encode_superposition(codebook, 0, 1, encode_rng(4))
        assert np.array_equal(a, b)

    def test_selection_is_uniform_within_three_sigma(self):
        params = CodeParams(n=2, m1=1, m2=1, l1=1, l2=4, seed=10)
        pxu = DiscreteChannel.identity(2)
        cb = build_superposition(params, Pmf.uniform(2), pxu)
        # make the cloud words distinguishable so the choice is observable
        object.__setattr__(cb, "u_words", np.array([[[0, 0], [0, 1], [1, 0], [1, 1]]]))
        object.__setattr__(
            cb, "x_words", cb.u_words.reshape(1, 4, 1, 1, 2)
        )
        counts = np.zeros(4)
        trials = 4000
        for s in range(trials):
            word = encode_superposition(cb, 0, 0, encode_rng(s))
            counts[word[0] * 2 + word[1]] += 1
        sigma = math.sqrt(trials * 0.25 * 0.75)
        assert np.all(np.abs(counts - trials / 4) <= 3 * sigma)

    def test_message_range_checked(self, codebook):
        with pytest.raises(ValueError):
            encode_superposition(codebook, 2, 0, encode_rng(0))
        with pytest.raises(ValueError):
            encode_superposition(codebook, 0, -1, encode_rng(0))

    def test_draws_cloud_member_then_satellite_member(self):
        params = CodeParams(n=4, m1=2, m2=2, l1=3, l2=5, seed=8)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.3))
        for s in range(20):
            rng = encode_rng(s)
            j2, j1 = int(rng.integers(5)), int(rng.integers(3))
            out = encode_superposition(cb, 1, 0, encode_rng(s))
            assert np.array_equal(out, cb.x_words[0, j2, 1, j1])


class TestTransmit:
    def test_identity_channel_is_lossless(self):
        x = np.array([0, 1, 2, 1, 0])
        assert np.array_equal(transmit(x, DiscreteChannel.identity(3), channel_rng(5)), x)

    def test_constant_row_channel_ignores_input(self):
        ch = DiscreteChannel.constant_rows([0.0, 1.0], 2)
        out = transmit(np.array([0, 1, 0, 1]), ch, channel_rng(9))
        assert np.all(out == 1)

    def test_flip_rate_within_three_sigma(self):
        n = 10_000
        out = transmit(np.zeros(n, dtype=int), BSC(0.1), channel_rng(123))
        flips = int(out.sum())
        sigma = math.sqrt(n * 0.1 * 0.9)
        assert abs(flips - n * 0.1) <= 3 * sigma

    def test_symbol_range_checked(self):
        with pytest.raises(ValueError):
            transmit(np.array([0, 2]), BSC(0.1), channel_rng(1))


def handmade_superposition(u_words, x_words, n, pu_size=2, x_size=2, pxu=None):
    m2, l2 = np.asarray(u_words).shape[:2]
    _, _, m1, l1, _ = np.asarray(x_words).shape
    params = CodeParams(n=n, m1=m1, m2=m2, l1=l1, l2=l2, seed=0)
    return SuperpositionCodebook(
        u_words=np.asarray(u_words),
        x_words=np.asarray(x_words),
        pu=Pmf.uniform(pu_size),
        pxu=pxu if pxu is not None else DiscreteChannel.identity(x_size),
        params=params,
    )


class TestDecoding:
    def test_noiseless_recovery(self):
        u_words = np.array([[[0, 0]], [[1, 1]]])  # m2=2, l2=1
        x_words = np.array(
            [[[[[0, 0]], [[0, 1]]]], [[[[1, 0]], [[1, 1]]]]]
        ).reshape(2, 1, 2, 1, 2)
        cb = handmade_superposition(u_words, x_words, n=2)
        ident = DiscreteChannel.identity(2)
        for w2 in range(2):
            assert decode_rx2(cb, u_words[w2, 0], ident) == w2
            for w1 in range(2):
                assert decode_rx1(cb, x_words[w2, 0, w1, 0], ident) == (w1, w2)

    def test_single_codeword_returns_zero(self):
        cb = handmade_superposition(
            np.zeros((1, 1, 3), dtype=int), np.zeros((1, 1, 1, 1, 3), dtype=int), n=3
        )
        assert decode_rx1(cb, np.array([1, 0, 1]), BSC(0.2)) == (0, 0)
        assert decode_rx2(cb, np.array([1, 0, 1]), BSC(0.2)) == 0

    def test_tie_breaks_to_lowest_bin(self):
        # identical cloud words in both bins: every y ties, bin 0 wins
        u_words = np.array([[[0, 1]], [[0, 1]]])
        x_words = np.zeros((2, 1, 1, 1, 2), dtype=int)
        cb = handmade_superposition(u_words, x_words, n=2)
        for y in ([0, 0], [0, 1], [1, 0], [1, 1]):
            assert decode_rx2(cb, np.array(y), BSC(0.1)) == 0

    def test_rx2_matches_exact_posterior_oracle_bsc(self):
        # symmetric channel: distinct equidistant words tie in exact arithmetic
        params = CodeParams(n=6, m1=1, m2=4, l1=1, l2=2, seed=31)
        cb = build_superposition(params, Pmf.uniform(2), DiscreteChannel.identity(2))
        composite = BSC(0.1)
        flat = cb.u_words.reshape(-1, 6)
        for idx in range(2**6):
            y = np.array([(idx >> i) & 1 for i in range(6)])
            got = decode_rx2(cb, y, composite)
            want = posterior_argmax_exact(flat, y, composite.matrix) // params.l2
            assert got == want

    def test_rx1_matches_exact_posterior_oracle_random_channel(self):
        rng = np.random.default_rng(77)
        params = CodeParams(n=4, m1=2, m2=2, l1=2, l2=1, seed=13)
        cb = build_superposition(params, Pmf.uniform(2), random_channel(rng, 2, 2))
        ch = random_channel(rng, 2, 3)
        flat = cb.x_words.reshape(-1, 4)
        for idx in range(3**4):
            y = np.array([(idx // 3**i) % 3 for i in range(4)])
            got = decode_rx1(cb, y, ch)
            flat_idx = posterior_argmax_exact(flat, y, ch.matrix)
            w2, _, w1, _ = np.unravel_index(flat_idx, cb.x_words.shape[:4])
            assert got == (int(w1), int(w2))

    def test_dimension_checks(self):
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        with pytest.raises(DimensionMismatch):
            decode_rx2(cb, np.array([0, 1]), BSC(0.1))  # wrong length
        with pytest.raises(ValueError):
            decode_rx1(cb, np.array([0, 1, 2]), BSC(0.1))  # symbol out of range


class TestExactEquivocation:
    def test_uninformative_eavesdropper_perfect_secrecy(self):
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        report = exact_equivocation(cb, UNIFORM_Z)
        assert report.re12 == (math.log2(2) + math.log2(2)) / 3
        assert report.gaps == (0.0, 0.0, 0.0)

    def test_noiseless_eavesdropper_distinct_codewords_zero_equivocation(self):
        x_words = np.array([[[[[0, 0]], [[0, 1]]]], [[[[1, 0]], [[1, 1]]]]]).reshape(
            2, 1, 2, 1, 2
        )
        cb = handmade_superposition(np.zeros((2, 1, 2), dtype=int), x_words, n=2)
        report = exact_equivocation(cb, DiscreteChannel.identity(2))
        assert report.re12 == 0.0
        assert report.re1 == 0.0
        assert report.re2 == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(91)
        for trial in range(8):
            n = int(rng.integers(2, 5))
            params = CodeParams(
                n=n,
                m1=int(rng.integers(1, 3)),
                m2=int(rng.integers(1, 3)),
                l1=int(rng.integers(1, 3)),
                l2=int(rng.integers(1, 3)),
                seed=int(rng.integers(0, 2**31)),
            )
            nx = int(rng.integers(2, 4))
            nz = int(rng.integers(2, 4))
            pu = rng.random(2) + 0.1
            cb = build_superposition(params, Pmf(pu / pu.sum()), random_channel(rng, 2, nx))
            pzx = random_channel(rng, nx, nz)
            report = exact_equivocation(cb, pzx)
            re1, re2, re12 = equivocation_direct(
                cb.x_words, pzx.matrix, params.m1, params.m2, params.l1, params.l2, n
            )
            assert report.re1 == pytest.approx(re1, abs=1e-12)
            assert report.re2 == pytest.approx(re2, abs=1e-12)
            assert report.re12 == pytest.approx(re12, abs=1e-12)

    def test_equivocation_bounds(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            params = CodeParams(
                n=3,
                m1=int(rng.integers(1, 4)),
                m2=int(rng.integers(1, 4)),
                l1=int(rng.integers(1, 4)),
                l2=int(rng.integers(1, 4)),
                seed=trial,
            )
            cb = build_superposition(params, Pmf.uniform(2), random_channel(rng, 2, 2))
            report = exact_equivocation(cb, random_channel(rng, 2, 2))
            n = params.n
            tol = 1e-12
            assert -tol <= report.re1 <= math.log2(params.m1) / n + tol
            assert -tol <= report.re2 <= math.log2(params.m2) / n + tol
            assert max(report.re1, report.re2) - tol <= report.re12
            assert report.re12 <= report.re1 + math.log2(params.m2) / n + tol
            assert report.re12 <= report.re2 + math.log2(params.m1) / n + tol

    def test_perfect_secrecy_for_every_dyadic_codebook(self):
        # uniform-row eavesdropper channel and power-of-two counts keep all
        # the arithmetic dyadic, so the gaps are exactly zero for any seed
        for seed in range(6):
            params = CodeParams(n=4, m1=2, m2=4, l1=2, l2=1, seed=seed)
            cb = build_superposition(params, Pmf.uniform(2), BSC(0.3))
            report = exact_equivocation(cb, UNIFORM_Z)
            assert report.gaps == (0.0, 0.0, 0.0)

    def test_matches_digit_table_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for trial in range(24):
            nz = 2 + trial % 3
            params = CodeParams(
                n=1 if trial < 3 else int(rng.integers(2, 7 if nz == 2 else 5)),
                m1=int(rng.integers(1, 4)),
                m2=int(rng.integers(1, 4)),
                l1=int(rng.integers(1, 6)),
                l2=int(rng.integers(1, 6)),
                seed=trial,
            )
            nx = int(rng.integers(2, 4))
            cb = build_superposition(params, Pmf.uniform(2), random_channel(rng, 2, nx))
            pzx = random_channel(rng, nx, nz)
            expected = equivocation_digit_table(
                cb.x_words, pzx.matrix, params.m1, params.m2, params.l1, params.l2, params.n
            )
            count = nz**params.n
            # Small tiles span several head sequences and several row blocks;
            # z_budget caps only |Z|^n, down to exactly |Z|^n.
            for tile in (2, 8, 64, 1 << 16):
                monkeypatch.setattr(coding, "_TILE", tile)
                for z_budget in (1 << 20, 3 * count, count):
                    report = exact_equivocation(cb, pzx, z_budget=z_budget)
                    assert (report.re1, report.re2, report.re12, *report.gaps) == expected
        # The benchmark's wide shape: 256 roles over 2^16 sequences.
        params = CodeParams(n=16, m1=4, m2=4, l1=4, l2=4, seed=5)
        cb = build_superposition(params, Pmf.uniform(2), random_channel(rng, 2, 2))
        pzx = random_channel(rng, 2, 2)
        expected = equivocation_digit_table(cb.x_words, pzx.matrix, 4, 4, 4, 4, 16)
        for tile in (1 << 12, 1 << 16):
            monkeypatch.setattr(coding, "_TILE", tile)
            report = exact_equivocation(cb, pzx)
            assert (report.re1, report.re2, report.re12, *report.gaps) == expected

    def test_plogp_sum_matches_masked_expression(self):
        rng = np.random.default_rng(8)
        for size in (1, 7, 8, 9, 127, 128, 129, 1000, 4099):
            values = rng.random(size) ** 3
            for zeros in (0, 1, size // 3, size):
                values[rng.choice(size, zeros, replace=False)] = 0.0
                kept = values[values > 0.0]
                assert coding._plogp_sum(values) == float((kept * np.log2(kept)).sum())

    def test_likelihood_blocks_bound_the_working_set(self):
        params = CodeParams(n=12, m1=1, m2=1, l1=16, l2=16, seed=4)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        tracemalloc.start()
        try:
            exact_equivocation(cb, BSC(0.2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The tile (_TILE floats) bounds the working set; all 256 bin members
        # at once would need 2 x 8 MiB.
        assert peak < 2 * 2**20

    def test_likelihood_tiles_bound_the_working_set_at_the_default_budget(self):
        params = CodeParams(n=16, m1=1, m2=1, l1=16, l2=16, seed=4)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        tracemalloc.start()
        try:
            exact_equivocation(cb, BSC(0.2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 16 bin members at a time over 2^16 sequences would take 8 MiB a block
        assert peak < 6 * 2**20

    def test_message_tables_capped_before_allocation(self):
        # Within the symbol, combination and |Z|^n budgets, but pw1z alone
        # would take 4096 x 2^20 floats (32 GiB).
        params = CodeParams(n=20, m1=4096, m2=16, l1=1, l2=1, seed=0)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="4114 tables of"):
                exact_equivocation(cb, BSC(0.2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_table_cap_counts_every_table(self, monkeypatch):
        # n=3, m1=m2=2: pz, the pair's sum and four message rows of 8 floats.
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        monkeypatch.setattr(coding, "_TABLE_BYTES", 6 * 8 * 8)
        exact_equivocation(cb, BSC(0.2))
        monkeypatch.setattr(coding, "_TABLE_BYTES", 6 * 8 * 8 - 1)
        with pytest.raises(BudgetExceeded, match=r"6 tables of \|Z\|\^n = 8 floats exceed 383"):
            exact_equivocation(cb, BSC(0.2))

    def test_budgets_enforced(self, monkeypatch):
        params = CodeParams(n=24, m1=2, m2=2, l1=1, l2=1, seed=0)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        with pytest.raises(BudgetExceeded, match="observation sequences"):
            exact_equivocation(cb, BSC(0.2))
        params = small_params()
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        monkeypatch.setattr(coding, "DEFAULT_COMBO_BUDGET", 8)
        with pytest.raises(BudgetExceeded, match="combinations"):
            exact_equivocation(cb, BSC(0.2))


class TestDoubleBinning:
    def test_degenerate_codebook_is_single_pair(self):
        params = CodeParams(n=5, m1=1, m2=1, l1=1, l2=1, seed=2)
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        cb = build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), x_map, 0.5)
        assert cb.v1_words.shape == (1, 1, 5)
        assert cb.v2_words.shape == (1, 1, 5)

    def test_build_reproducible(self):
        params = small_params()
        x_map = np.tile(np.array([[0.8, 0.2]]), (2, 2, 1)).reshape(2, 2, 2)
        a = build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), x_map, 0.1)
        b = build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), x_map, 0.1)
        assert np.array_equal(a.v1_words, b.v1_words)
        assert np.array_equal(a.v2_words, b.v2_words)

    def test_point_mass_v1(self):
        params = small_params()
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        cb = build_double_binning(params, Pmf.point_mass(2, 0), Pmf.uniform(2), x_map, 0.1)
        assert np.all(cb.v1_words == 0)

    def test_word_frequencies_within_three_sigma(self):
        params = CodeParams(n=32, m1=2, m2=2, l1=4, l2=4, seed=77)
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        cb = build_double_binning(params, Pmf((0.3, 0.7)), Pmf.uniform(2), x_map, 0.1)
        draws = cb.v1_words.size
        ones = int(cb.v1_words.sum())
        sigma = math.sqrt(draws * 0.3 * 0.7)
        assert abs(ones - draws * 0.7) <= 3 * sigma

    def test_non_finite_pair_map_rejected(self):
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        x_map[1, 0] = [np.nan, np.nan]
        with pytest.raises(InvalidDistribution, match=r"non-finite entry in x_map at index \(1, 0, 0\)"):
            build_double_binning(small_params(), Pmf.uniform(2), Pmf.uniform(2), x_map, 0.1)

    def test_pair_map_needs_three_axes(self):
        x_map = np.full((2, 2, 2, 2), 0.5)
        with pytest.raises(DimensionMismatch, match=r"3 axes .* shape \(2, 2, 2, 2\)"):
            build_double_binning(small_params(), Pmf.uniform(2), Pmf.uniform(2), x_map, 0.1)

    def test_pair_map_row_sum_names_the_pair(self):
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        x_map[0, 1] = [0.5, 0.6]
        with pytest.raises(SumNotOne, match=r"row \(0, 1\) of x_map"):
            build_double_binning(small_params(), Pmf.uniform(2), Pmf.uniform(2), x_map, 0.1)

    def test_epsilon_validated(self):
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        with pytest.raises(ValueError):
            build_double_binning(small_params(), Pmf.uniform(2), Pmf.uniform(2), x_map, 0.0)

    def test_loose_threshold_always_succeeds_uniformly(self):
        params = CodeParams(n=4, m1=1, m2=1, l1=2, l2=2, seed=5)
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        cb = build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), x_map, 1.0)
        for s in range(20):
            assert encode_double_binning(cb, 0, 0, encode_rng(s)) is not None

    def test_forced_failure(self):
        params = CodeParams(n=4, m1=1, m2=1, l1=1, l2=1, seed=0)
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        cb = BinningCodebook(
            v1_words=np.zeros((1, 1, 4), dtype=int),
            v2_words=np.ones((1, 1, 4), dtype=int),
            pv1=Pmf.uniform(2),
            pv2=Pmf.uniform(2),
            x_map=x_map,
            epsilon=0.1,
            params=params,
        )
        # the unique pair concentrates on cell (0, 1): deviation 0.75 > 0.1
        assert encode_double_binning(cb, 0, 0, encode_rng(3)) is None

    def test_failure_probability_decreases_with_blocklength(self):
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        rates = []
        trials = 10_000
        for n, l in ((4, 2), (8, 4), (12, 8)):
            # bin sizes track the blocklength so the rate point stays fixed
            failures = 0
            params_seed_rng = np.random.default_rng(1000 + n)
            for t in range(trials):
                params = CodeParams(
                    n=n, m1=2, m2=2, l1=l, l2=l, seed=int(params_seed_rng.integers(2**31))
                )
                cb = build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), x_map, 0.1)
                if encode_double_binning(cb, t % 2, (t // 2) % 2, encode_rng(t)) is None:
                    failures += 1
            rates.append(failures / trials)
        assert rates[0] > rates[1] > rates[2], rates

    def test_pair_search_matches_loop(self):
        rng = np.random.default_rng(606)
        for trial in range(20):
            if trial % 2:
                # dyadic types and target, so deviations equal to epsilon occur
                a1 = a2 = 2
                params = CodeParams(n=8, m1=2, m2=2, l1=4, l2=4, seed=trial)
                pv1 = pv2 = Pmf.uniform(2)
                epsilon = 0.125
            else:
                a1, a2 = (int(a) for a in rng.integers(2, 4, size=2))
                params = CodeParams(
                    n=int(rng.integers(2, 9)),
                    m1=int(rng.integers(1, 4)),
                    m2=int(rng.integers(1, 4)),
                    l1=int(rng.integers(1, 7)),
                    l2=int(rng.integers(1, 7)),
                    seed=trial,
                )
                pv1 = Pmf((raw := rng.random(a1) + 0.2) / raw.sum())
                pv2 = Pmf((raw := rng.random(a2) + 0.2) / raw.sum())
                epsilon = float(rng.uniform(0.05, 0.5))
            x_map = rng.random((a1, a2, 2)) + 0.05
            x_map /= x_map.sum(axis=-1, keepdims=True)
            cb = build_double_binning(params, pv1, pv2, x_map, epsilon)
            for w1 in range(params.m1):
                for w2 in range(params.m2):
                    qualifying = typical_pair_loop(
                        cb.v1_words, cb.v2_words, pv1.probs, pv2.probs, cb.epsilon, w1, w2
                    )
                    got = encode_double_binning(cb, w1, w2, encode_rng(trial))
                    if not qualifying:
                        assert got is None
                        continue
                    pick = encode_rng(trial)
                    j1, j2 = qualifying[int(pick.integers(len(qualifying)))]
                    pair_index = cb.v1_words[w1, j1] * a2 + cb.v2_words[w2, j2]
                    expected = _sample_conditional(pick, x_map.reshape(a1 * a2, -1), pair_index)
                    assert np.array_equal(got, expected)

    def test_message_range_checked(self):
        params = small_params()
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        cb = build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), x_map, 1.0)
        with pytest.raises(ValueError):
            encode_double_binning(cb, 5, 0, encode_rng(0))


def hamming_tie_across_bins(words, y) -> bool:
    """Whether the nearest words to y (the ML set on a BSC) lie in several bins."""
    distances = (words != y).sum(axis=-1)
    return len(set(np.argwhere(distances == distances.min())[:, 0])) > 1


class TestDoubleBinningDecoding:
    # P(x=1 | v1, v2) with dyadic entries: under uniform pv1, pv2 the
    # per-letter composites are symmetric and exact in floating point.
    X_MAP = np.array([[[0.875, 0.125], [0.625, 0.375]], [[0.375, 0.625], [0.125, 0.875]]])

    def test_ml_index_matches_exact_posterior_with_ties(self):
        params = CodeParams(n=5, m1=4, m2=1, l1=3, l2=1, seed=17)
        cb = build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), self.X_MAP, 0.5)
        composite = BSC(0.25).matrix
        flat = cb.v1_words.reshape(-1, 5)
        ties = 0
        for idx in range(2**5):
            y = np.array([(idx >> i) & 1 for i in range(5)])
            want = np.unravel_index(posterior_argmax_exact(flat, y, composite), (4, 3))
            assert _ml_index(cb.v1_words, y, _log_matrix(composite)) == want
            ties += hamming_tie_across_bins(cb.v1_words, y)
        assert ties > 0

    def test_trial_decisions_match_exact_posterior(self, monkeypatch):
        params = CodeParams(n=4, m1=2, m2=2, l1=3, l2=3, seed=41)
        cb = build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), self.X_MAP, 0.3)
        py1x, py2x = BSC(0.25), BSC(0.125)
        # V_k -> Y_k composites by explicit sums over the other auxiliary and x.
        composites = [np.zeros((2, 2)), np.zeros((2, 2))]
        for v1, v2, x, y in np.ndindex(2, 2, 2, 2):
            p = 0.5 * self.X_MAP[v1, v2, x]
            composites[0][v1, y] += p * py1x.matrix[x, y]
            composites[1][v2, y] += p * py2x.matrix[x, y]
        calls, encodes = [], []
        ml_index, encode = coding._ml_index, coding.encode_double_binning

        def recording_ml_index(words, y, log_matrix):
            calls.append((words, np.array(y), log_matrix, ml_index(words, y, log_matrix)))
            return calls[-1][-1]

        def recording_encode(cb, w1, w2, rng):
            encodes.append((w1, w2, encode(cb, w1, w2, rng)))
            return encodes[-1][-1]

        monkeypatch.setattr(coding, "_ml_index", recording_ml_index)
        monkeypatch.setattr(coding, "encode_double_binning", recording_encode)
        result = run_error_experiment(cb, (py1x, py2x), trials=150, seed=5)

        sent = [(w1, w2) for w1, w2, x in encodes if x is not None]
        assert len(encodes) == 150 and len(calls) == 2 * len(sent)
        errors = [0, 0, 0]
        ties = 0
        for (w1, w2), rx1, rx2 in zip(sent, calls[0::2], calls[1::2]):
            hats = []
            for (words, y, log_matrix, got), composite in zip((rx1, rx2), composites):
                assert np.array_equal(log_matrix, np.log2(composite))
                flat = words.reshape(-1, params.n)
                flat_idx = posterior_argmax_exact(flat, y, composite)
                want = np.unravel_index(flat_idx, words.shape[:2])
                assert got == want
                hats.append(got[0])
                ties += hamming_tie_across_bins(words, y)
            errors[0] += hats[0] != w1
            errors[1] += hats[1] != w2
            errors[2] += hats[0] != w1 or hats[1] != w2
        failures = 150 - len(sent)
        assert result.encoding_failures == failures
        assert [result.errors_rx1, result.errors_rx2, result.errors_union] == [
            e + failures for e in errors
        ]
        assert ties > 0


class TestRunErrorExperiment:
    def test_noiseless_distinct_codewords_never_err(self):
        # x = 2*w2 + w1 over a 4-ary input alphabet; clouds u = w2;
        # P(x|u) puts the two satellites of cloud u on {2u, 2u+1}
        u_words = np.array([[[0, 0]], [[1, 1]]])
        x_words = np.array(
            [[[[[2 * w2 + w1] * 2] for w1 in range(2)]] for w2 in range(2)]
        ).reshape(2, 1, 2, 1, 2)
        pxu = DiscreteChannel([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
        cb = handmade_superposition(u_words, x_words, n=2, pxu=pxu)
        ident = DiscreteChannel.identity(4)
        result = run_error_experiment(cb, (ident, ident), trials=100, seed=6)
        assert result.pe_estimate == 0.0
        assert result.errors_rx1 == result.errors_rx2 == result.errors_union == 0
        # 0 errors still bound the error rate away from 0.
        assert result.interval == (0.0, pytest.approx(1.0 - 0.025 ** (1 / 100), rel=1e-12))

    def test_single_message_never_errs(self):
        params = CodeParams(n=3, m1=1, m2=1, l1=2, l2=2, seed=4)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.2))
        result = run_error_experiment(cb, (BSC(0.4), BSC(0.4)), trials=50, seed=1)
        assert result.pe_estimate == 0.0

    def test_replay_determinism(self):
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        channels = (BSC(0.05), BSC(0.15))
        a = run_error_experiment(cb, channels, trials=300, seed=11)
        b = run_error_experiment(cb, channels, trials=300, seed=11)
        assert a == b

    def test_error_rate_improves_with_better_channel(self):
        params = CodeParams(n=8, m1=2, m2=2, l1=1, l2=1, seed=21)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.05))
        noisy = run_error_experiment(cb, (BSC(0.2), BSC(0.3)), trials=400, seed=2)
        clean = run_error_experiment(cb, (BSC(0.01), BSC(0.02)), trials=400, seed=2)
        assert clean.pe_estimate <= noisy.pe_estimate

    def test_double_binning_failures_counted_as_errors(self):
        params = CodeParams(n=4, m1=1, m2=1, l1=1, l2=1, seed=0)
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        cb = BinningCodebook(
            v1_words=np.zeros((1, 1, 4), dtype=int),
            v2_words=np.ones((1, 1, 4), dtype=int),
            pv1=Pmf.uniform(2),
            pv2=Pmf.uniform(2),
            x_map=x_map,
            epsilon=0.1,
            params=params,
        )
        result = run_error_experiment(cb, (BSC(0.1), BSC(0.1)), trials=20, seed=3)
        assert result.encoding_failures == 20
        assert result.pe_estimate == 1.0

    def test_double_binning_smoke(self):
        params = CodeParams(n=6, m1=2, m2=2, l1=4, l2=4, seed=9)
        x_map = np.zeros((2, 2, 2))
        # x = v1 xor v2 with a little dithering
        for v1 in range(2):
            for v2 in range(2):
                x_map[v1, v2, v1 ^ v2] = 0.9
                x_map[v1, v2, 1 - (v1 ^ v2)] = 0.1
        cb = build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), x_map, 0.4)
        result = run_error_experiment(cb, (BSC(0.05), BSC(0.1)), trials=200, seed=14)
        assert result.trials == 200
        assert 0.0 <= result.pe_estimate <= 1.0

    def test_trials_validated(self):
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        with pytest.raises(ValueError):
            run_error_experiment(cb, (BSC(0.1), BSC(0.1)), trials=0, seed=0)


def trial_codebooks():
    """One codebook per scheme; the double-binning one fails to encode now and then."""
    superposition = build_superposition(
        CodeParams(n=6, m1=2, m2=2, l1=2, l2=3, seed=31), Pmf.uniform(2), BSC(0.15)
    )
    binning = build_double_binning(
        CodeParams(n=6, m1=2, m2=2, l1=3, l2=3, seed=32),
        Pmf.uniform(2),
        Pmf.uniform(2),
        TestDoubleBinningDecoding.X_MAP,
        0.2,
    )
    return superposition, binning


class TestTrialStream:
    CHANNELS = (BSC(0.125), BSC(0.25))

    def test_one_generator_per_experiment(self, monkeypatch):
        seeds = []

        def counting_rng(seed, tag):
            seeds.append((seed, tag))
            return _rng(seed, tag)

        codebooks = trial_codebooks()
        monkeypatch.setattr(coding, "_rng", counting_rng)
        for cb in codebooks:
            seeds.clear()
            run_error_experiment(cb, self.CHANNELS, trials=30, seed=9)
            assert seeds == [(9, _TAG_TRIALS)]

    def test_replay_through_the_public_functions(self):
        py1x, py2x = self.CHANNELS
        superposition, binning = trial_codebooks()
        rx2_given_u = cascade(superposition.pxu, py2x)
        # V_k -> Y_k composites of the pair map under uniform pv1, pv2.
        x_map = binning.x_map
        composites = (
            np.einsum("vwx,xy->vy", x_map, py1x.matrix) / 2,
            np.einsum("vwx,xy->wy", x_map, py2x.matrix) / 2,
        )

        def binning_decode(cb, y1, y2):
            hats = []
            for words, y, composite in zip((cb.v1_words, cb.v2_words), (y1, y2), composites):
                flat = posterior_argmax_exact(words.reshape(-1, cb.params.n), y, composite)
                hats.append(flat // words.shape[1])
            return tuple(hats)

        schemes = (
            (superposition, encode_superposition,
             lambda cb, y1, y2: (decode_rx1(cb, y1, py1x)[0], decode_rx2(cb, y2, rx2_given_u))),
            (binning, encode_double_binning, binning_decode),
        )
        for cb, encode, decode in schemes:
            rng = _rng(17, _TAG_TRIALS)
            errors = [0, 0, 0, 0]
            for _ in range(200):
                w1 = int(rng.integers(cb.params.m1))
                w2 = int(rng.integers(cb.params.m2))
                x = encode(cb, w1, w2, rng)
                if x is None:
                    errors[3] += 1
                    hats = (-1, -1)
                else:
                    y1 = transmit(x, py1x, rng)
                    y2 = transmit(x, py2x, rng)
                    hats = decode(cb, y1, y2)
                errors[0] += hats[0] != w1
                errors[1] += hats[1] != w2
                errors[2] += hats != (w1, w2)
            result = run_error_experiment(cb, self.CHANNELS, trials=200, seed=17)
            got = [result.errors_rx1, result.errors_rx2, result.errors_union]
            assert got + [result.encoding_failures] == errors
            # The binning replay must cross encoding failures, which draw nothing.
            assert errors[3] > 0 or cb is superposition


class TestClopperPearson:
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 500, 5000])
    def test_closed_form_edges(self, n):
        edge = 0.025 ** (1 / n)
        assert _clopper_pearson(0, n) == (0.0, pytest.approx(1.0 - edge, rel=1e-12))
        assert _clopper_pearson(n, n) == (pytest.approx(edge, rel=1e-12), 1.0)

    def test_matches_beta_quantiles(self):
        beta = pytest.importorskip("scipy.stats").beta
        for n, k in ((1, 0), (1, 1), (10, 3), (10, 9), (50, 25), (500, 152), (3000, 2553),
                     (5000, 1), (5000, 2964), (5000, 4999), (20000, 17)):
            lo, hi = _clopper_pearson(k, n)
            assert lo == pytest.approx(beta.ppf(0.025, k, n - k + 1) if k else 0.0, abs=1e-9)
            assert hi == pytest.approx(beta.ppf(0.975, k + 1, n - k) if k < n else 1.0, abs=1e-9)
            assert lo <= k / n <= hi


class TestRandomizationHelpsSecrecy:
    def test_more_dithering_raises_mean_equivocation(self):
        pzx = BSC(0.2)
        means = {}
        for l in (1, 4):
            values = []
            for seed in range(30):
                params = CodeParams(n=4, m1=2, m2=2, l1=l, l2=l, seed=seed)
                cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
                values.append(exact_equivocation(cb, pzx).re12)
            means[l] = float(np.mean(values))
        assert means[4] >= means[1]
