"""Entropy and mutual-information calculus, in bits, with 0 log 0 = 0."""

from __future__ import annotations

import numpy as np

from .channels import DiscreteChannel, Pmf, _check_sizes


def entropy_last_axis(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis.

    Fast path for batched computation: no validation, zeros contribute
    nothing. Returns a scalar array for 1-d input.
    """
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def mutual_information(input_dist: Pmf, ch: DiscreteChannel) -> float:
    """I(X;Y) = H(Y) - H(Y|X) for p(x) through P(y|x), clamped at 0."""
    _check_sizes(input_dist.alphabet_size, ch.input_size, "input symbols vs channel inputs")
    py = input_dist.probs @ ch.matrix
    value = float(entropy_last_axis(py) - input_dist.probs @ entropy_last_axis(ch.matrix))
    return max(value, 0.0)
