import numpy as np
import pytest

from bcc_secrecy import (
    BroadcastChannel,
    DimensionMismatch,
    DiscreteChannel,
    InvalidDistribution,
    NegativeEntry,
    Pmf,
    SumNotOne,
    cascade,
    check_stochastic_degraded,
    marginal_channel,
    validate_pmf,
)

BSC = DiscreteChannel.binary_symmetric


def random_stochastic(rng, n_in, n_out):
    m = rng.random((n_in, n_out)) + 0.05
    return DiscreteChannel(m / m.sum(axis=1, keepdims=True))


class TestValidatePmf:
    def test_uniform_binary_is_valid(self):
        validate_pmf((0.5, 0.5))

    def test_sum_above_one_rejected(self):
        with pytest.raises(SumNotOne, match="1.1"):
            validate_pmf((0.5, 0.6))

    def test_sign_check_dominates_sum_tolerance(self):
        # the sum 1 - 1e-12 is fine; the negative entry is not
        with pytest.raises(NegativeEntry, match="index 1"):
            validate_pmf((1.0, -1e-12))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidDistribution, match="non-finite"):
            validate_pmf((0.5, float("nan")))

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidDistribution):
            validate_pmf([[0.5, 0.5]])


class TestPmf:
    def test_constructors(self):
        assert Pmf.uniform(4).probs.tolist() == [0.25] * 4
        assert Pmf.point_mass(3, 1).probs.tolist() == [0.0, 1.0, 0.0]

    def test_array_is_read_only(self):
        p = Pmf.uniform(2)
        with pytest.raises(ValueError):
            p.probs[0] = 0.3

    def test_invalid_rejected_at_construction(self):
        with pytest.raises(SumNotOne):
            Pmf((0.2, 0.2))


class TestDiscreteChannel:
    def test_row_sum_violation_names_row(self):
        with pytest.raises(SumNotOne, match="row 1"):
            DiscreteChannel([[0.5, 0.5], [0.7, 0.4]])

    def test_negative_entry_names_position(self):
        with pytest.raises(NegativeEntry, match="row 0, column 1"):
            DiscreteChannel([[1.1, -0.1], [0.5, 0.5]])

    def test_bsc_crossover_range(self):
        with pytest.raises(ValueError):
            BSC(1.5)

    def test_identity(self):
        assert np.array_equal(DiscreteChannel.identity(3).matrix, np.eye(3))


class TestCascade:
    def test_bsc_composition_rule(self):
        # crossover p + q - 2pq
        out = cascade(BSC(0.1), BSC(0.1))
        assert np.allclose(out.matrix, BSC(0.18).matrix, atol=1e-12)

    def test_identity_is_neutral(self):
        ch = BSC(0.3)
        assert np.array_equal(cascade(ch, DiscreteChannel.identity(2)).matrix, ch.matrix)
        assert np.array_equal(cascade(DiscreteChannel.identity(2), ch).matrix, ch.matrix)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionMismatch):
            cascade(random_stochastic(rng, 2, 3), random_stochastic(rng, 2, 2))

    def test_associative_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_stochastic(rng, 3, 4)
            b = random_stochastic(rng, 4, 2)
            c = random_stochastic(rng, 2, 5)
            left = cascade(cascade(a, b), c).matrix
            right = cascade(a, cascade(b, c)).matrix
            assert np.max(np.abs(left - right)) <= 1e-12

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(3)
        out = cascade(random_stochastic(rng, 5, 3), random_stochastic(rng, 3, 4))
        assert np.max(np.abs(out.matrix.sum(axis=1) - 1.0)) <= 1e-9


class TestBroadcastChannel:
    def test_slice_sum_violation_names_input(self):
        joint = np.full((2, 2, 2, 2), 1.0 / 8)
        joint[1] *= 0.5
        with pytest.raises(SumNotOne, match="input 1"):
            BroadcastChannel(joint)

    def test_negative_entry_rejected(self):
        joint = np.full((1, 2, 2, 2), 1.0 / 8)
        joint[0, 0, 0, 0] = -0.125
        joint[0, 1, 1, 1] = 0.375
        with pytest.raises(NegativeEntry):
            BroadcastChannel(joint)


class TestMarginalChannel:
    def test_product_channel_recovers_factors(self):
        rng = np.random.default_rng(11)
        p1 = random_stochastic(rng, 2, 3)
        p2 = random_stochastic(rng, 2, 2)
        pz = random_stochastic(rng, 2, 4)
        bcc = BroadcastChannel.from_marginals(p1, p2, pz)
        assert np.max(np.abs(marginal_channel(bcc, "y1").matrix - p1.matrix)) <= 1e-12
        assert np.max(np.abs(marginal_channel(bcc, "y2").matrix - p2.matrix)) <= 1e-12
        assert np.max(np.abs(marginal_channel(bcc, "z").matrix - pz.matrix)) <= 1e-12

    def test_markov_chain_tensor_marginal_is_matrix_cascade(self):
        rng = np.random.default_rng(5)
        py1x = random_stochastic(rng, 2, 3)
        py2y1 = random_stochastic(rng, 3, 2)
        pzy2 = random_stochastic(rng, 2, 2)
        joint = np.einsum("xa,ab,bc->xabc", py1x.matrix, py2y1.matrix, pzy2.matrix)
        bcc = BroadcastChannel(joint)
        expected = cascade(py1x, py2y1).matrix
        assert np.max(np.abs(marginal_channel(bcc, "y2").matrix - expected)) <= 1e-12
        expected_z = cascade(cascade(py1x, py2y1), pzy2).matrix
        assert np.max(np.abs(marginal_channel(bcc, "z").matrix - expected_z)) <= 1e-12

    def test_point_mass_row(self):
        joint = np.zeros((2, 2, 2, 2))
        joint[0, 1, 0, 1] = 1.0
        joint[1] = 1.0 / 8
        bcc = BroadcastChannel(joint)
        assert marginal_channel(bcc, "y1").matrix[0].tolist() == [0.0, 1.0]
        assert marginal_channel(bcc, "y2").matrix[0].tolist() == [1.0, 0.0]
        assert marginal_channel(bcc, "z").matrix[0].tolist() == [0.0, 1.0]

    def test_random_tensors_yield_valid_marginals(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            raw = rng.random((3, 2, 2, 2))
            raw /= raw.reshape(3, -1).sum(axis=1)[:, None, None, None]
            bcc = BroadcastChannel(raw)
            for which in ("y1", "y2", "z"):
                ch = marginal_channel(bcc, which)  # construction validates
                assert np.max(np.abs(ch.matrix.sum(axis=1) - 1.0)) <= 1e-9

    def test_unknown_output_rejected(self):
        bcc = BroadcastChannel(np.full((1, 2, 2, 2), 1.0 / 8))
        with pytest.raises(ValueError, match="y1"):
            marginal_channel(bcc, "y3")


class TestCheckStochasticDegraded:
    def test_constructed_cascade_is_feasible(self):
        rng = np.random.default_rng(23)
        a = random_stochastic(rng, 3, 3)
        m0 = random_stochastic(rng, 3, 2)
        report = check_stochastic_degraded(a, cascade(a, m0))
        assert report.feasible
        assert report.residual <= 1e-7
        reconstructed = a.matrix @ report.intermediate.matrix
        assert np.max(np.abs(reconstructed - cascade(a, m0).matrix)) <= 1e-7

    def test_equal_channels_feasible(self):
        ch = BSC(0.2)
        report = check_stochastic_degraded(ch, ch)
        assert report.feasible and report.residual <= 1e-7

    def test_less_noisy_target_infeasible(self):
        report = check_stochastic_degraded(BSC(0.1), BSC(0.05))
        assert not report.feasible
        assert report.residual > 1e-7

    def test_round_trip_property(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n_in = int(rng.integers(2, 5))
            n_mid = int(rng.integers(2, 5))
            n_out = int(rng.integers(2, 5))
            a = random_stochastic(rng, n_in, n_mid)
            m0 = random_stochastic(rng, n_mid, n_out)
            report = check_stochastic_degraded(a, cascade(a, m0))
            assert report.feasible, (n_in, n_mid, n_out)
            assert report.residual <= 1e-7

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DimensionMismatch):
            check_stochastic_degraded(random_stochastic(rng, 2, 2), random_stochastic(rng, 3, 2))
