import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcc_secrecy import (
    DimensionMismatch,
    DiscreteChannel,
    Pmf,
    binary_entropy,
    entropy,
    mutual_information,
)
from oracles import entropy_direct, mi_direct

BSC = DiscreteChannel.binary_symmetric

# frozen with a 30-digit evaluation of the defining sums
ENTROPY_011_089 = 0.499915958164528
MI_UNIFORM_BSC_011 = 0.500084041835472


def pmf_vectors(min_dim=2, max_dim=5):
    return (
        st.integers(min_dim, max_dim)
        .flatmap(lambda d: st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d))
        .map(lambda v: np.array(v) / np.sum(v))
    )


class TestEntropy:
    def test_uniform_hits_log_alphabet(self):
        assert entropy(Pmf.uniform(4)) == 2.0

    def test_point_mass_is_zero(self):
        assert entropy(Pmf((1.0, 0.0, 0.0))) == 0.0

    def test_frozen_binary_value(self):
        assert entropy(Pmf((0.11, 0.89))) == pytest.approx(ENTROPY_011_089, abs=1e-12)

    @given(pmf_vectors())
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_oracle(self, probs):
        h = entropy(Pmf(probs))
        assert 0.0 <= h <= math.log2(len(probs))
        assert h == pytest.approx(entropy_direct(probs), abs=1e-12)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)


class TestMutualInformation:
    def test_noiseless_bit(self):
        assert mutual_information(Pmf.uniform(2), DiscreteChannel.identity(2)) == 1.0

    def test_constant_rows_give_zero(self):
        ch = DiscreteChannel.constant_rows([0.2, 0.3, 0.5], 4)
        assert mutual_information(Pmf((0.1, 0.2, 0.3, 0.4)), ch) == 0.0

    def test_frozen_bsc_value(self):
        value = mutual_information(Pmf.uniform(2), BSC(0.11))
        assert value == pytest.approx(MI_UNIFORM_BSC_011, abs=1e-12)
        assert value == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mutual_information(Pmf.uniform(3), BSC(0.1))

    @given(pmf_vectors(2, 4), st.integers(2, 4), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_oracle(self, probs, n_out, rnd):
        rng = np.random.default_rng(rnd.getrandbits(32))
        raw = rng.random((len(probs), n_out)) + 0.05
        ch = DiscreteChannel(raw / raw.sum(axis=1, keepdims=True))
        p = Pmf(probs)
        value = mutual_information(p, ch)
        assert value >= 0.0
        assert value <= min(entropy(p), math.log2(n_out)) + 1e-12
        assert value == pytest.approx(mi_direct(probs, ch.matrix), abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            raw = rng.random((3, 4)) + 0.05
            ch = DiscreteChannel(raw / raw.sum(axis=1, keepdims=True))
            probs = rng.random(3) + 0.05
            probs /= probs.sum()
            base = mutual_information(Pmf(probs), ch)
            perm_in = rng.permutation(3)
            perm_out = rng.permutation(4)
            relabeled = mutual_information(
                Pmf(probs[perm_in]), DiscreteChannel(ch.matrix[perm_in][:, perm_out])
            )
            assert relabeled == pytest.approx(base, abs=1e-12)
