import dataclasses
import itertools
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
    _TRIAL_BLOCK,
    _clopper_pearson,
    _log_matrix,
    _ml_index,
    _rng,
    _sample_conditional,
)
from oracles import (
    equivocation_digit_table,
    equivocation_binning_direct,
    equivocation_direct,
    ml_index_per_sequence,
    posterior_argmax_exact,
    sample_iid_searchsorted,
    typical_pair_loop,
)

BSC = DiscreteChannel.binary_symmetric
UNIFORM_Z = DiscreteChannel(np.full((2, 2), 0.5))


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


def all_outputs(size, n):
    """Every sequence of n symbols from [0, size), one per row."""
    return np.array(list(itertools.product(range(size), repeat=n)), dtype=np.int64).reshape(-1, n)


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
        cb = build_superposition(params, pa, DiscreteChannel(np.full((3, 2), 0.5)))
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
        with pytest.raises(ValueError, match="n must be a positive integer, got True"):
            CodeParams(n=True, m1=1, m2=1, l1=1, l2=1, seed=0)

    @pytest.mark.parametrize("seed", [1.7, True, "7", np.int64(7), None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            CodeParams(n=2, m1=1, m2=1, l1=1, l2=1, seed=seed)
        assert CodeParams(n=2, m1=1, m2=1, l1=1, l2=1, seed=-3).seed == -3


class TestBuildSuperposition:
    def test_degenerate_codebook_is_single_pair(self):
        params = CodeParams(n=5, m1=1, m2=1, l1=1, l2=1, seed=3)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        assert cb.u_words.shape == (1, 1, 5)
        assert cb.x_words.shape == (1, 1, 1, 1, 5)

    def test_point_mass_cloud_distribution(self):
        cb = build_superposition(small_params(), Pmf((0.0, 1.0)), BSC(0.1))
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
        pxu = DiscreteChannel(np.eye(2))
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

    def test_batch_draws_every_cloud_member_then_every_satellite_member(self):
        params = CodeParams(n=4, m1=2, m2=3, l1=3, l2=5, seed=8)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.3))
        w1, w2 = np.array([[1, 0, 1], [0, 0, 1]]), np.array([[2, 0, 1], [1, 2, 0]])
        rng = encode_rng(6)
        j2, j1 = rng.integers(5, size=(2, 3)), rng.integers(3, size=(2, 3))
        out = encode_superposition(cb, w1, w2, encode_rng(6))
        assert out.shape == (2, 3, 4)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], cb.x_words[w2[idx], j2[idx], w1[idx], j1[idx]])

    def test_messages_must_be_integers_of_one_shape(self, codebook):
        with pytest.raises(DimensionMismatch):
            encode_superposition(codebook, np.array([0, 1]), np.array([0]), encode_rng(0))
        with pytest.raises(ValueError, match="integers"):
            encode_superposition(codebook, np.array([0.0]), np.array([0]), encode_rng(0))
        with pytest.raises(ValueError, match="messages w1 must be integers, got dtype bool"):
            encode_superposition(codebook, np.array([True]), np.array([0]), encode_rng(0))
        with pytest.raises(ValueError, match="messages w2 must be integers"):
            encode_superposition(codebook, 0, "1", encode_rng(0))


class TestTransmit:
    def test_identity_channel_is_lossless(self):
        x = np.array([0, 1, 2, 1, 0])
        assert np.array_equal(transmit(x, DiscreteChannel(np.eye(3)), channel_rng(5)), x)

    def test_constant_row_channel_ignores_input(self):
        ch = DiscreteChannel([[0.0, 1.0], [0.0, 1.0]])
        out = transmit(np.array([0, 1, 0, 1]), ch, channel_rng(9))
        assert np.all(out == 1)

    def test_flip_rate_within_three_sigma(self):
        n = 10_000
        out = transmit(np.zeros(n, dtype=int), BSC(0.1), channel_rng(123))
        flips = int(out.sum())
        sigma = math.sqrt(n * 0.1 * 0.9)
        assert abs(flips - n * 0.1) <= 3 * sigma

    def test_symbol_range_checked(self):
        with pytest.raises(ValueError, match=r"outside the channel input alphabet \[0, 2\)"):
            transmit(np.array([0, 2]), BSC(0.1), channel_rng(1))

    @pytest.mark.parametrize(
        "x", [[0.7, 1.9, 0.2], [0.0, 1.0, 0.0], [True, False, True], ["1", "0", "1"]],
        ids=["fractional", "integral-float", "bool", "str"],
    )
    def test_non_integer_symbols_rejected(self, x):
        with pytest.raises(ValueError, match="sequence symbols must be integers"):
            transmit(np.array(x), BSC(0.1), channel_rng(1))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_integer_dtypes_send_as_int64(self, dtype):
        x = np.array([0, 1, 1, 0, 1])
        expected = transmit(x, BSC(0.3), channel_rng(4))
        out = transmit(x.astype(dtype), BSC(0.3), channel_rng(4))
        assert out.dtype == expected.dtype and np.array_equal(out, expected)


def handmade_superposition(u_words, x_words, n, pu_size=2, x_size=2, pxu=None):
    m2, l2 = np.asarray(u_words).shape[:2]
    _, _, m1, l1, _ = np.asarray(x_words).shape
    params = CodeParams(n=n, m1=m1, m2=m2, l1=l1, l2=l2, seed=0)
    return SuperpositionCodebook(
        u_words=np.asarray(u_words),
        x_words=np.asarray(x_words),
        pu=Pmf.uniform(pu_size),
        pxu=pxu if pxu is not None else DiscreteChannel(np.eye(x_size)),
        params=params,
    )


class TestDecoding:
    def test_noiseless_recovery(self):
        u_words = np.array([[[0, 0]], [[1, 1]]])  # m2=2, l2=1
        x_words = np.array(
            [[[[[0, 0]], [[0, 1]]]], [[[[1, 0]], [[1, 1]]]]]
        ).reshape(2, 1, 2, 1, 2)
        cb = handmade_superposition(u_words, x_words, n=2)
        ident = DiscreteChannel(np.eye(2))
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
        cb = build_superposition(params, Pmf.uniform(2), DiscreteChannel(np.eye(2)))
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

    def test_batch_matches_single_observations(self):
        rng = np.random.default_rng(78)
        params = CodeParams(n=4, m1=3, m2=2, l1=2, l2=3, seed=14)
        cb = build_superposition(params, Pmf.uniform(2), random_channel(rng, 2, 3))
        ch1, ch2 = random_channel(rng, 3, 3), random_channel(rng, 2, 3)
        ys = all_outputs(3, 4)
        w1_hat, w2_hat = decode_rx1(cb, ys, ch1)
        bins = decode_rx2(cb, ys, ch2)
        assert w1_hat.shape == w2_hat.shape == bins.shape == (81,)
        for y, a, b, c in zip(ys, w1_hat, w2_hat, bins, strict=True):
            assert decode_rx1(cb, y, ch1) == (a, b)
            assert decode_rx2(cb, y, ch2) == c
        empty = np.zeros((0, 4), dtype=np.int64)
        assert [len(hat) for hat in (*decode_rx1(cb, empty, ch1), decode_rx2(cb, empty, ch2))] == [0] * 3

    def test_dimension_checks(self):
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        with pytest.raises(DimensionMismatch):
            decode_rx2(cb, np.zeros((2, 2, 3), dtype=int), BSC(0.1))  # one batch axis at most
        with pytest.raises(DimensionMismatch):
            decode_rx2(cb, np.array([0, 1]), BSC(0.1))  # wrong length
        with pytest.raises(ValueError):
            decode_rx1(cb, np.array([0, 1, 2]), BSC(0.1))  # symbol out of range

    def test_non_integer_observations_rejected(self):
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        match = "observation symbols must be integers"
        with pytest.raises(ValueError, match=match):
            decode_rx1(cb, np.array([0.9, 0.1, 1.5]), BSC(0.1))
        with pytest.raises(ValueError, match=match):
            decode_rx1(cb, np.array([[1.0, 0.0, 1.0]]), BSC(0.1))
        with pytest.raises(ValueError, match=match):
            decode_rx2(cb, ["1", "0", "1"], BSC(0.1))
        with pytest.raises(ValueError, match=match):
            decode_rx2(cb, np.array([True, False, True]), BSC(0.1))

    def test_unsigned_observations_decode_as_int64(self):
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        ys = all_outputs(2, 3)
        expected = (*decode_rx1(cb, ys, BSC(0.1)), decode_rx2(cb, ys, BSC(0.1)))
        for dtype in (np.uint8, np.uint64):
            got = (*decode_rx1(cb, ys.astype(dtype), BSC(0.1)), decode_rx2(cb, ys.astype(dtype), BSC(0.1)))
            assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))


def assert_matches(report, expected):
    # The block products sum in BLAS's order rather than member by member,
    # so the fields agree with the digit-table oracle to rounding, not bits.
    got = (report.re1, report.re2, report.re12, *report.gaps)
    assert got == pytest.approx(expected, abs=1e-13, rel=0)


class TestBatchedScorer:
    """_ml_index against the per-sequence scorer, compared with ==."""

    # _COUNT_CELLS for every case; None keeps the library's, so small channels take counts.
    count_cells = None

    @pytest.fixture(autouse=True)
    def scorer(self, monkeypatch):
        if self.count_cells is not None:
            monkeypatch.setattr(coding, "_COUNT_CELLS", self.count_cells)

    @staticmethod
    def assert_matches_per_sequence(words, ys, log_matrix):
        got = _ml_index(words, ys, log_matrix)
        want = [ml_index_per_sequence(words, y, log_matrix) for y in ys]
        assert got.tolist() == want

    @pytest.mark.parametrize("size", [2, 3])
    def test_random_codebooks(self, size):
        rng = np.random.default_rng(900 + size)
        for n in (1, 2, 5, 8, 9, 12, 17):
            shape = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 5))))
            words = rng.integers(size, size=(*shape, n))
            matrix = random_channel(rng, size, int(rng.integers(2, 4))).matrix
            ys = rng.integers(matrix.shape[1], size=(int(rng.integers(1, 700)), n))
            self.assert_matches_per_sequence(words, ys, _log_matrix(matrix))

    def test_channels_with_zero_entries(self):
        rng = np.random.default_rng(911)
        for size, outputs in ((2, 2), (3, 3), (3, 2)):
            matrix = rng.random((size, outputs)) * (rng.random((size, outputs)) < 0.6)
            matrix[np.arange(size), rng.integers(outputs, size=size)] += 0.5
            matrix /= matrix.sum(axis=1, keepdims=True)
            log_matrix = _log_matrix(matrix)
            assert np.isneginf(log_matrix).any()
            words = rng.integers(size, size=(4, 3, 6))
            self.assert_matches_per_sequence(words, all_outputs(outputs, 6), log_matrix)

    def test_bsc_ties_across_bins(self):
        params = CodeParams(n=6, m1=1, m2=4, l1=1, l2=3, seed=33)
        cb = build_superposition(params, Pmf.uniform(2), DiscreteChannel(np.eye(2)))
        ys = all_outputs(2, 6)
        assert sum(hamming_tie_across_bins(cb.u_words, y) for y in ys) > 0
        for p in (0.05, 0.25):
            self.assert_matches_per_sequence(cb.u_words, ys, _log_matrix(BSC(p).matrix))

    @pytest.mark.parametrize("cap", [1, 5, 6, 7, 13, 47])
    def test_scoring_blocks_move_no_decision(self, monkeypatch, cap):
        rng = np.random.default_rng(925)
        monkeypatch.setattr(coding, "_SCORE_FLOATS", cap)
        ties = build_superposition(
            CodeParams(n=6, m1=1, m2=4, l1=1, l2=3, seed=33), Pmf.uniform(2), BSC(0.1)
        ).u_words
        self.assert_matches_per_sequence(ties, all_outputs(2, 6), _log_matrix(BSC(0.25).matrix))
        words = rng.integers(3, size=(3, 4, 5))
        matrix = random_channel(rng, 3, 3).matrix.copy()
        matrix[0, 1] = 0.0
        self.assert_matches_per_sequence(words, all_outputs(3, 5), _log_matrix(matrix))


class TestSortedScorer(TestBatchedScorer):
    """Every TestBatchedScorer case with _COUNT_CELLS = 0, so every channel takes the sorted sum."""

    count_cells = 0


class TestCountScorer:
    """_ml_index on ulp-asymmetric channels, wide alphabets, and its memory bound."""

    @staticmethod
    def seed0_v2_composite():
        # The double-binning benchmark's V2 -> Y2 channel at seed 0, built as
        # run_error_experiment builds it: uniform pv1, P(x=1 | v1, v2) from
        # ((0.05, 0.35), (0.65, 0.95)), and Y2 = BSC(0.14).
        x_map = np.array([[[1.0 - q, q] for q in row] for row in ((0.05, 0.35), (0.65, 0.95))])
        return np.einsum("v,vwx,xy->wy", np.full(2, 0.5), x_map, BSC(0.14).matrix)

    def test_decisions_are_ml_within_rounding(self):
        composite = self.seed0_v2_composite()
        log_matrix = _log_matrix(composite)
        # The two crossover entries differ in the last ulp: three classes, not two.
        assert len(np.unique(log_matrix)) == 3
        rng = np.random.default_rng(2208)
        ties = 0
        for n in (4, 6, 8):
            for _ in range(3):
                words = rng.integers(2, size=(4, 8, n))
                flat = words.reshape(-1, n)
                ys = all_outputs(2, n)
                for y, index in zip(ys, _ml_index(words, ys, log_matrix), strict=True):
                    terms = log_matrix[flat, y]
                    exact = posterior_argmax_exact(flat, y, composite)
                    assert abs(math.fsum(terms[index]) - math.fsum(terms[exact])) <= 1e-12
                    # No lower index has the chosen word's multiset of factors.
                    factors = np.sort(terms, axis=1)
                    same = (factors == factors[index]).all(axis=1)
                    assert index == int(np.argmax(same))
                    ties += int(same.sum() > 1)
        assert ties > 0

    @pytest.mark.parametrize("cells", [None, 1 << 30])
    def test_wide_channels(self, monkeypatch, cells):
        # |X| = |Y| = 9 with distinct entries: V * |X| is far above _COUNT_CELLS,
        # so the scorer is the sorted sum, bit for bit; raising the limit takes
        # the counts (V = 78) through one-observation blocks instead.
        if cells is not None:
            monkeypatch.setattr(coding, "_COUNT_CELLS", cells)
        rng = np.random.default_rng(2209)
        matrix = random_channel(rng, 9, 9).matrix.copy()
        matrix[0, :4] = 0.0
        log_matrix = _log_matrix(matrix)
        assert len(np.unique(log_matrix)) * 9 > 64
        base = rng.integers(9, size=(40, 5))
        # A word and its reversal tie on a constant observation.
        words = np.concatenate([base, base[:, ::-1]])
        constant = np.repeat(np.arange(9), 5).reshape(9, 5)
        ys = np.concatenate([rng.integers(9, size=(300, 5)), constant])
        got = _ml_index(words, ys, log_matrix)
        assert got.tolist() == [ml_index_per_sequence(words, y, log_matrix) for y in ys]
        assert (got[-9:] < 40).all()

    @pytest.mark.parametrize(
        "n_words, n, n_obs, size",
        [
            (1, 20, 10_000, 2),
            (8192, 12, 1, 2),
            (256, 12, 256, 9),
            (8192, 12, 1, 9),
            (65536, 16, 4, 9),
        ],
    )
    def test_peak_memory_is_bounded(self, n_words, n, n_obs, size):
        rng = np.random.default_rng(n_words)
        words = rng.integers(size, size=(n_words, n))
        ys = rng.integers(size, size=(n_obs, n))
        channel = BSC(0.1) if size == 2 else random_channel(rng, size, size)
        log_matrix = _log_matrix(channel.matrix)
        tracemalloc.start()
        try:
            _ml_index(words, ys, log_matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few arrays of _SCORE_FLOATS floats, plus the (B,) indices and best scores.
        assert peak <= 4 * coding._SCORE_FLOATS * 8 + 16 * n_obs, peak


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
        report = exact_equivocation(cb, DiscreteChannel(np.eye(2)))
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

    @staticmethod
    def random_codes(seed, count):
        """Seeded superposition codes, n from 2 to 8, with an eavesdropper channel each."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            params = CodeParams(
                n=int(rng.integers(2, 9)),
                m1=int(rng.integers(1, 4)),
                m2=int(rng.integers(1, 4)),
                l1=int(rng.integers(1, 3)),
                l2=int(rng.integers(1, 3)),
                seed=int(rng.integers(0, 2**31)),
            )
            nx = int(rng.integers(2, 4))
            pu = Pmf(rng.dirichlet(np.ones(2)))
            cb = build_superposition(params, pu, random_channel(rng, 2, nx))
            yield rng, cb, random_channel(rng, nx, int(rng.integers(2, 4)))

    def test_degrading_the_eavesdropper_never_lowers_equivocation(self):
        # W -> X^n -> Z^n -> Z'^n with Z' = Z through M: data processing.
        for rng, cb, pzx in self.random_codes(71, 40):
            m = random_channel(rng, pzx.output_size, int(rng.integers(2, 4)))
            sharp = exact_equivocation(cb, pzx)
            blurred = exact_equivocation(cb, DiscreteChannel(pzx.matrix @ m.matrix))
            assert blurred.re1 >= sharp.re1 - 1e-12
            assert blurred.re2 >= sharp.re2 - 1e-12
            assert blurred.re12 >= sharp.re12 - 1e-12

    def test_relabeling_eavesdropper_outputs_leaves_report(self):
        for _, cb, pzx in self.random_codes(73, 20):
            base = exact_equivocation(cb, pzx)
            renamed = exact_equivocation(cb, DiscreteChannel(np.roll(pzx.matrix, 1, axis=1)))
            fields = ("re1", "re2", "re12")
            assert [getattr(renamed, f) for f in fields] == pytest.approx(
                [getattr(base, f) for f in fields], abs=1e-12
            )
            assert renamed.gaps == pytest.approx(base.gaps, abs=1e-12)

    def test_relabeling_input_symbols_leaves_report(self):
        # Renaming x to sigma[x] in the satellite conditional's columns, in the
        # codewords and in the eavesdropper's rows sends the same z^n law.
        for _, cb, pzx in self.random_codes(79, 20):
            sigma = np.roll(np.arange(pzx.input_size), 1)
            inverse = np.argsort(sigma)
            renamed = dataclasses.replace(
                cb, x_words=sigma[cb.x_words], pxu=DiscreteChannel(cb.pxu.matrix[:, inverse])
            )
            assert exact_equivocation(renamed, DiscreteChannel(pzx.matrix[inverse])) == (
                exact_equivocation(cb, pzx)
            )

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

    def test_matches_digit_table(self, monkeypatch):
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
            # Small caps give one head row per tile and build the likelihoods
            # a member or a few at a time; z_budget caps only |Z|^n, down to
            # exactly |Z|^n.
            for cap in (2, 8, 64, 1 << 17):
                monkeypatch.setattr(coding, "_TILE", cap)
                for z_budget in (1 << 20, 3 * count, count):
                    assert_matches(exact_equivocation(cb, pzx, z_budget=z_budget), expected)
        # The benchmark's wide shape: 256 roles over 2^16 sequences.
        params = CodeParams(n=16, m1=4, m2=4, l1=4, l2=4, seed=5)
        cb = build_superposition(params, Pmf.uniform(2), random_channel(rng, 2, 2))
        pzx = random_channel(rng, 2, 2)
        expected = equivocation_digit_table(cb.x_words, pzx.matrix, 4, 4, 4, 4, 16)
        for cap in (1 << 12, 1 << 17):
            monkeypatch.setattr(coding, "_TILE", cap)
            assert_matches(exact_equivocation(cb, pzx), expected)

    @staticmethod
    def held_bytes(roles, heads, width, message_rows, tile):
        """exact_equivocation's cap: every role's likelihoods plus the tile's rows."""
        return 8 * (roles * (heads + width) + (message_rows + 3) * tile)

    def test_cap_counts_likelihoods_and_tile_rows(self, monkeypatch):
        # n=3, m1=m2=l1=l2=2: 16 roles with a head of 2 and a tail of 4 floats
        # each; one tile of both head rows, 8 floats, in each of 7 rows.
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        pzx = random_channel(np.random.default_rng(3), 2, 2)
        expected = equivocation_digit_table(cb.x_words, pzx.matrix, 2, 2, 2, 2, 3)
        held = self.held_bytes(16, 2, 4, 4, 8)
        assert held == 1216
        monkeypatch.setattr(coding, "_TABLE_BYTES", held)
        assert_matches(exact_equivocation(cb, pzx), expected)
        monkeypatch.setattr(coding, "_TABLE_BYTES", held - 1)
        what = r"1216 bytes for 16 roles' likelihoods and 7 tile rows of 8 floats exceed budget 1215"
        with pytest.raises(BudgetExceeded, match=f"^{what}$"):
            exact_equivocation(cb, pzx)

    def test_one_row_tiles_count_in_the_cap(self, monkeypatch):
        # A tile of 8 floats over 7 rows holds no whole head row, so each tile
        # is one head row of 4 floats, and the cap counts that tile.
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        pzx = random_channel(np.random.default_rng(3), 2, 2)
        expected = equivocation_digit_table(cb.x_words, pzx.matrix, 2, 2, 2, 2, 3)
        monkeypatch.setattr(coding, "_TILE", 8)
        held = self.held_bytes(16, 2, 4, 4, 4)
        assert held == 992
        monkeypatch.setattr(coding, "_TABLE_BYTES", held)
        assert_matches(exact_equivocation(cb, pzx), expected)
        monkeypatch.setattr(coding, "_TABLE_BYTES", held - 1)
        what = r"992 bytes for 16 roles' likelihoods and 7 tile rows of 4 floats exceed budget 991"
        with pytest.raises(BudgetExceeded, match=f"^{what}$"):
            exact_equivocation(cb, pzx)

    def test_likelihoods_are_built_a_tile_of_members_at_a_time(self):
        # 1024 members over 2^16 sequences: their likelihoods take 4 MiB and
        # the tile's 5 rows of 26,112 floats 1 MiB.  Gathered and multiplied
        # out for all members at once they would add about 3 MiB more.
        params = CodeParams(n=16, m1=1, m2=1, l1=16, l2=64, seed=4)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        tracemalloc.start()
        try:
            exact_equivocation(cb, BSC(0.2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.held_bytes(1024, 256, 256, 2, 26112) + 2**19

    def test_likelihoods_capped_before_allocation(self):
        # Within the symbol, combination and |Z|^n budgets, but the 2^16
        # roles' likelihoods alone take 2^16 x (1024 + 1024) floats (1 GiB),
        # and 4115 rows of one 1024-float head row go on top.
        params = CodeParams(n=20, m1=4096, m2=16, l1=1, l2=1, seed=0)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        assert self.held_bytes(2**16, 1024, 1024, 4112, 1024) == 1107451904
        what = (
            "1107451904 bytes for 65536 roles' likelihoods and 4115 tile rows of 1024 floats"
            " exceed budget 1073741824"
        )
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=f"^{what}$"):
                exact_equivocation(cb, BSC(0.2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n, m1, m2", [(6, 2, 2), (7, 3, 1), (8, 1, 4)])
    def test_tiles_leave_the_report(self, monkeypatch, n, m1, m2):
        # One head row per tile, a ragged last tile (3 + 3 + 2 of 8 head rows
        # when n=6 or 7, 3 + 3 + 3 + 3 + 3 + 1 of 16 when n=8), and one tile.
        rng = np.random.default_rng(40 + n)
        params = CodeParams(n=n, m1=m1, m2=m2, l1=3, l2=2, seed=n)
        cb = build_superposition(params, Pmf.uniform(2), random_channel(rng, 2, 3))
        pzx = random_channel(rng, 3, 2)
        expected = equivocation_digit_table(cb.x_words, pzx.matrix, m1, m2, 3, 2, n)
        width = 2 ** (n - n // 2)
        reports = []
        for cap in (1, 3 * (m1 + m2 + 3) * width, 1 << 30):
            monkeypatch.setattr(coding, "_TILE", cap)
            report = exact_equivocation(cb, pzx)
            assert_matches(report, expected)
            reports.append((report.re1, report.re2, report.re12, *report.gaps))
        for other in reports[1:]:
            assert other == pytest.approx(reports[0], abs=1e-15, rel=0)

    def test_long_benchmark_shape_stays_in_tiles(self):
        # 16 roles over 2^20 sequences: each |Z|^n table would be 8 MiB; the
        # likelihoods take 256 KiB and the tile's 7 rows 18 head rows each.
        params = CodeParams(n=20, m1=2, m2=2, l1=2, l2=2, seed=4)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
        tracemalloc.start()
        try:
            exact_equivocation(cb, BSC(0.2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        # Little beyond what the cap counts: one tile's rows are alive at a time.
        assert peak < self.held_bytes(16, 1024, 1024, 4, 18 * 1024) + 2**18

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
        # The 256 members' likelihoods take 256 KiB and one tile of all 2^12
        # sequences 5 rows; a |Z|^n table per member would need 8 MiB.
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
        # The 256 members' likelihoods take 1 MiB and the tile's 5 rows 1 MiB;
        # a |Z|^n table per member would take 128 MiB.
        assert peak < 6 * 2**20

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
        cb = build_double_binning(params, Pmf((1.0, 0.0)), Pmf.uniform(2), x_map, 0.1)
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

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, True, "0.1"])
    def test_epsilon_is_a_finite_number(self, epsilon):
        # A NaN epsilon made every pair atypical: every trial failed to encode
        # and the equivocation report read as perfect secrecy.
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        with pytest.raises(InvalidDistribution, match="epsilon must be a finite number"):
            build_double_binning(small_params(), Pmf.uniform(2), Pmf.uniform(2), x_map, epsilon)

    def test_loose_threshold_always_succeeds_uniformly(self):
        params = CodeParams(n=4, m1=1, m2=1, l1=2, l2=2, seed=5)
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        cb = build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), x_map, 1.0)
        for s in range(20):
            assert np.all(encode_double_binning(cb, 0, 0, encode_rng(s)) >= 0)

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
        rng = encode_rng(3)
        x = encode_double_binning(cb, 0, 0, rng)
        assert x.shape == (4,) and np.all(x == -1)
        assert rng.random() == encode_rng(3).random()

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
                if encode_double_binning(cb, t % 2, (t // 2) % 2, encode_rng(t))[0] == -1:
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
                    table = [j1 * params.l2 + j2 for j1, j2 in qualifying]
                    assert np.flatnonzero(cb.typical[w1, w2]).tolist() == table
                    got = encode_double_binning(cb, w1, w2, encode_rng(trial))
                    if not qualifying:
                        assert got.shape == (params.n,) and np.all(got == -1)
                        continue
                    pick = encode_rng(trial)
                    j1, j2 = qualifying[int(pick.integers(len(qualifying)))]
                    pair_index = cb.v1_words[w1, j1] * a2 + cb.v2_words[w2, j2]
                    expected = _sample_conditional(pick, x_map.reshape(a1 * a2, -1), pair_index)
                    assert np.array_equal(got, expected)

    def test_batch_draws_picks_then_uniforms_for_encodable_pairs_only(self):
        params = CodeParams(n=6, m1=2, m2=2, l1=3, l2=3, seed=32)
        cb = build_double_binning(
            params, Pmf.uniform(2), Pmf.uniform(2), TestDoubleBinningDecoding.X_MAP, 0.2
        )
        encodable = cb.typical.any(axis=2)
        assert encodable.any() and not encodable.all()
        w1, w2 = np.array([0, 1, 1, 0, 1, 0, 0]), np.array([1, 0, 1, 0, 1, 1, 0])
        sent = encodable[w1, w2]
        assert sent.any() and not sent.all()
        out = encode_double_binning(cb, w1, w2, encode_rng(12))
        assert out.shape == (7, 6) and np.all(out[~sent] == -1)
        rng = encode_rng(12)
        counts = cb.typical[w1[sent], w2[sent]].sum(axis=1)
        picks = rng.integers(counts)
        pairs = []
        for a, b, pick in zip(w1[sent], w2[sent], picks):
            qualifying = typical_pair_loop(
                cb.v1_words, cb.v2_words, cb.pv1.probs, cb.pv2.probs, cb.epsilon, a, b
            )
            j1, j2 = qualifying[pick]
            pairs.append(cb.v1_words[a, j1] * 2 + cb.v2_words[b, j2])
        expected = _sample_conditional(rng, cb.x_map.reshape(4, 2), np.array(pairs))
        assert np.array_equal(out[sent], expected)
        # Pairs that cannot encode draw nothing.
        rng = encode_rng(12)
        failed = np.flatnonzero(~encodable.ravel())[0]
        out = encode_double_binning(cb, np.full(3, failed // 2), np.full(3, failed % 2), rng)
        assert np.all(out == -1)
        assert rng.random() == encode_rng(12).random()

    def test_message_range_checked(self):
        params = small_params()
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        cb = build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), x_map, 1.0)
        with pytest.raises(ValueError):
            encode_double_binning(cb, 5, 0, encode_rng(0))

    def test_typical_table_counts_against_the_symbol_budget(self, monkeypatch):
        # The words take (64*32 + 64*32) * 4 = 16,384 symbols; the typical
        # table's 64*64*32*32 = 2^22 entries take the total past 2^22.
        params = CodeParams(n=4, m1=64, m2=64, l1=32, l2=32, seed=0)
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))

        def no_draw(*args):
            raise AssertionError("drew a codebook past the budget")

        monkeypatch.setattr(coding, "_sample_conditional", no_draw)
        with pytest.raises(BudgetExceeded, match="4210688 symbols"):
            build_double_binning(params, Pmf.uniform(2), Pmf.uniform(2), x_map, 0.1)


def random_binning_codebook(rng, seed):
    """A double-binning codebook with n <= 5, |V1|, |V2| in {2, 3} and a random pair map."""
    a1, a2, nx = (int(a) for a in rng.integers(2, 4, size=3))
    params = CodeParams(
        n=int(rng.integers(1, 6)),
        m1=int(rng.integers(1, 4)),
        m2=int(rng.integers(1, 4)),
        l1=int(rng.integers(1, 4)),
        l2=int(rng.integers(1, 4)),
        seed=seed,
    )
    pv1 = Pmf((raw := rng.random(a1) + 0.2) / raw.sum())
    pv2 = Pmf((raw := rng.random(a2) + 0.2) / raw.sum())
    x_map = rng.random((a1, a2, nx)) + 0.05
    x_map /= x_map.sum(axis=-1, keepdims=True)
    return build_double_binning(params, pv1, pv2, x_map, float(rng.uniform(0.1, 0.6)))


def binning_oracle(cb, pzx):
    return equivocation_binning_direct(
        cb.v1_words, cb.v2_words, cb.pv1.probs, cb.pv2.probs, cb.x_map, pzx.matrix, cb.epsilon
    )


class TestBinningEquivocation:
    """exact_equivocation on double-binning codebooks: typical rows and erasures."""

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1975)
        failing = mixed = 0
        for trial in range(30):
            cb = random_binning_codebook(rng, trial)
            pzx = random_channel(rng, cb.x_map.shape[-1], int(rng.integers(2, 4)))
            report = exact_equivocation(cb, pzx)
            got = (report.re1, report.re2, report.re12)
            assert got == pytest.approx(binning_oracle(cb, pzx), abs=1e-13, rel=0)
            p = cb.params
            rates = (p.rate1, p.rate2, p.rate1 + p.rate2)
            assert report.gaps == pytest.approx(np.subtract(rates, got).tolist(), abs=0, rel=0)
            sent = cb.typical.any(axis=2)
            failing += int((~sent).sum())
            mixed += bool(sent.any() and not sent.all())
        # The sample crosses erasures, including codebooks that also send.
        assert failing >= 10 and mixed >= 3

    @pytest.mark.parametrize("m1,m2", [(2, 4), (3, 3), (1, 2)])
    def test_every_pair_failing_keeps_both_messages_secret(self, m1, m2):
        # v1 all 0 and v2 all 1: every pair's type sits on cell (0, 1).
        params = CodeParams(n=4, m1=m1, m2=m2, l1=2, l2=3, seed=0)
        cb = BinningCodebook(
            v1_words=np.zeros((m1, 2, 4), dtype=int),
            v2_words=np.ones((m2, 3, 4), dtype=int),
            pv1=Pmf.uniform(2),
            pv2=Pmf.uniform(2),
            x_map=np.tile(np.array([0.9, 0.1]), (2, 2, 1)),
            epsilon=0.1,
            params=params,
        )
        assert not cb.typical.any()
        report = exact_equivocation(cb, BSC(0.05))
        rates = (params.rate1, params.rate2, params.rate1 + params.rate2)
        assert (report.re1, report.re2, report.re12) == pytest.approx(rates, abs=1e-15, rel=0)
        assert report.gaps == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_one_failing_pair_matches_oracle(self):
        # Under uniform pv1, pv2 and epsilon 0.1 at n = 4, a pair is typical
        # only when its four symbol pairs are all distinct.  Pair (1, 1)
        # meets [0, 1, 1, 0] with itself or a constant word, so it fails.
        v1_words = np.array([[[0, 0, 1, 1], [0, 0, 0, 0]], [[0, 1, 1, 0], [0, 0, 0, 0]]])
        v2_words = np.array([[[0, 1, 0, 1], [1, 1, 1, 1]], [[0, 1, 1, 0], [1, 1, 1, 1]]])
        rng = np.random.default_rng(4)
        x_map = rng.random((2, 2, 3)) + 0.05
        cb = BinningCodebook(
            v1_words=v1_words,
            v2_words=v2_words,
            pv1=Pmf.uniform(2),
            pv2=Pmf.uniform(2),
            x_map=x_map / x_map.sum(axis=-1, keepdims=True),
            epsilon=0.1,
            params=CodeParams(n=4, m1=2, m2=2, l1=2, l2=2, seed=0),
        )
        assert cb.typical.any(axis=2).tolist() == [[True, True], [True, False]]
        pzx = random_channel(rng, 3, 3)
        report = exact_equivocation(cb, pzx)
        got = (report.re1, report.re2, report.re12)
        assert got == pytest.approx(binning_oracle(cb, pzx), abs=1e-13, rel=0)
        # An erasure tells the eavesdropper the pair, so some secrecy is lost.
        assert report.gaps[2] > 0.0

    def test_shares_the_caps(self, monkeypatch):
        cb = random_binning_codebook(np.random.default_rng(5), 5)
        pzx = random_channel(np.random.default_rng(6), cb.x_map.shape[-1], 2)
        with pytest.raises(BudgetExceeded, match="observation sequences"):
            exact_equivocation(cb, pzx, z_budget=2**cb.params.n - 1)
        monkeypatch.setattr(coding, "DEFAULT_COMBO_BUDGET", 0)
        with pytest.raises(BudgetExceeded, match="combinations"):
            exact_equivocation(cb, pzx)

    @pytest.mark.parametrize("z_budget", [math.nan, True, 1e9, -1])
    def test_z_budget_is_a_nonnegative_int(self, z_budget):
        # A NaN cap passed every comparison and turned itself off.
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        with pytest.raises(InvalidDistribution, match="^budget must be (a )?nonnegative"):
            exact_equivocation(cb, BSC(0.2), z_budget=z_budget)

    def test_alphabet_mismatch(self):
        x_map = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
        cb = build_double_binning(small_params(), Pmf.uniform(2), Pmf.uniform(2), x_map, 0.5)
        with pytest.raises(DimensionMismatch, match="eavesdropper channel input"):
            exact_equivocation(cb, random_channel(np.random.default_rng(1), 3, 2))


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
        ys = all_outputs(2, 5)
        ties = 0
        for y, got in zip(ys, _ml_index(cb.v1_words, ys, _log_matrix(composite)), strict=True):
            assert got == posterior_argmax_exact(flat, y, composite)
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

        def recording_ml_index(words, ys, log_matrix):
            calls.append((words, np.array(ys), log_matrix, ml_index(words, ys, log_matrix)))
            return calls[-1][-1]

        def recording_encode(cb, w1, w2, rng):
            encodes.append((np.array(w1), np.array(w2), encode(cb, w1, w2, rng)))
            return encodes[-1][-1]

        monkeypatch.setattr(coding, "_ml_index", recording_ml_index)
        monkeypatch.setattr(coding, "encode_double_binning", recording_encode)
        # Two blocks, the second short.
        trials = _TRIAL_BLOCK + 44
        result = run_error_experiment(cb, (py1x, py2x), trials=trials, seed=5)

        w1, w2, x = (np.concatenate(parts) for parts in zip(*encodes))
        sent = x[:, 0] >= 0
        assert len(w1) == trials and len(calls) == 2 * len(encodes)
        hats = []
        ties = 0
        for calls_k, composite in zip((calls[0::2], calls[1::2]), composites):
            hats_k = []
            for words, ys, log_matrix, got in calls_k:
                assert np.array_equal(log_matrix, np.log2(composite))
                flat = words.reshape(-1, params.n)
                for y, index in zip(ys, got, strict=True):
                    assert index == posterior_argmax_exact(flat, y, composite)
                    hats_k.append(index // words.shape[1])
                    ties += hamming_tie_across_bins(words, y)
            hats.append(np.array(hats_k))
        err1, err2 = hats[0] != w1[sent], hats[1] != w2[sent]
        failures = trials - int(sent.sum())
        assert result.encoding_failures == failures
        assert [result.errors_rx1, result.errors_rx2, result.errors_union] == [
            int(e.sum()) + failures for e in (err1, err2, err1 | err2)
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
        ident = DiscreteChannel(np.eye(4))
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

    @pytest.mark.parametrize("trials", [True, 2.5, 3.0, "3", np.int64(3)])
    def test_trials_must_be_an_int(self, trials):
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            run_error_experiment(cb, (BSC(0.1), BSC(0.1)), trials=trials, seed=0)

    @pytest.mark.parametrize("seed", [True, 1.7, "1", None])
    def test_seed_must_be_an_int(self, seed):
        cb = build_superposition(small_params(), Pmf.uniform(2), BSC(0.1))
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_error_experiment(cb, (BSC(0.1), BSC(0.1)), trials=5, seed=seed)

    def test_counts_are_python_ints(self):
        _, binning = trial_codebooks()
        result = run_error_experiment(binning, (BSC(0.1), BSC(0.2)), trials=300, seed=2)
        assert result.encoding_failures > 0
        for name in ("trials", "errors_rx1", "errors_rx2", "errors_union", "encoding_failures"):
            assert type(getattr(result, name)) is int, name

    def test_peak_memory_is_bounded_and_flat_in_trials(self):
        # The trials benchmark's superposition shape: n=12, m = l = 4.
        params = CodeParams(n=12, m1=4, m2=4, l1=4, l2=4, seed=3)
        cb = build_superposition(params, Pmf.uniform(2), BSC(0.15))
        peaks = []
        for trials in (1000, 20_000):
            tracemalloc.start()
            try:
                run_error_experiment(cb, (BSC(0.05), BSC(0.14)), trials=trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Blocks of _TRIAL_BLOCK trials, _SCORE_FLOATS scoring terms and
        # _TAIL_TERMS interval terms keep every buffer a fixed size.
        assert max(peaks) < 2**20
        # 20x the trials may not raise the peak beyond allocator noise (16 KiB).
        assert peaks[1] <= peaks[0] + 2**14, peaks


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
            for words, ys, composite in zip((cb.v1_words, cb.v2_words), (y1, y2), composites):
                flat = words.reshape(-1, cb.params.n)
                hats.append([posterior_argmax_exact(flat, y, composite) // words.shape[1] for y in ys])
            return hats

        schemes = (
            (superposition, encode_superposition,
             lambda cb, y1, y2: (decode_rx1(cb, y1, py1x)[0], decode_rx2(cb, y2, rx2_given_u))),
            (binning, encode_double_binning, binning_decode),
        )
        # Two blocks, the second short.
        trials = _TRIAL_BLOCK + 45
        for cb, encode, decode in schemes:
            rng = _rng(17, _TAG_TRIALS)
            errors = [0, 0, 0, 0]
            for start in range(0, trials, _TRIAL_BLOCK):
                size = min(_TRIAL_BLOCK, trials - start)
                w1 = rng.integers(cb.params.m1, size=size)
                w2 = rng.integers(cb.params.m2, size=size)
                x = encode(cb, w1, w2, rng)
                sent = x[:, 0] >= 0
                y1 = transmit(x[sent], py1x, rng)
                y2 = transmit(x[sent], py2x, rng)
                hats = np.full((2, size), -1)
                hats[:, sent] = decode(cb, y1, y2)
                err1, err2 = hats[0] != w1, hats[1] != w2
                errors[0] += int(err1.sum())
                errors[1] += int(err2.sum())
                errors[2] += int((err1 | err2).sum())
                errors[3] += size - int(sent.sum())
            result = run_error_experiment(cb, self.CHANNELS, trials=trials, seed=17)
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

    @pytest.mark.parametrize("l2", [1, 2])
    def test_first_layer_dithering_raises_second_layer_equivocation(self, l2):
        # The abstract's layered claim: randomization in the first (satellite)
        # layer raises the secrecy of the second (cloud) layer's message.
        # Each seed draws the same cloud words at l1 = 1 and l1 = 4, so the
        # rise in re2 is paired; n = 8 is needed for it to clear the noise.
        rises = []
        for seed in range(40):
            re2 = {}
            for l1 in (1, 4):
                params = CodeParams(n=8, m1=2, m2=2, l1=l1, l2=l2, seed=seed)
                cb = build_superposition(params, Pmf.uniform(2), BSC(0.1))
                re2[l1] = exact_equivocation(cb, BSC(0.2)).re2
            rises.append(re2[4] - re2[1])
        mean = float(np.mean(rises))
        standard_error = float(np.std(rises, ddof=1)) / math.sqrt(len(rises))
        assert mean > 3 * standard_error
