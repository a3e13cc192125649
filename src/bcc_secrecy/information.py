"""Entropy and mutual-information calculus, in bits, with 0 log 0 = 0."""

from __future__ import annotations

import math

import numpy as np

from .channels import DimensionMismatch, DiscreteChannel, Pmf


def entropy_last_axis(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis.

    Fast path for batched computation: no validation, zeros contribute
    nothing. Returns a scalar array for 1-d input.
    """
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def entropy(p: Pmf) -> float:
    """Entropy of a validated pmf, clamped into [0, log2 alphabet_size]."""
    h = float(entropy_last_axis(p.probs))
    return min(max(h, 0.0), math.log2(p.alphabet_size))


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) bit."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def mutual_information(input_dist: Pmf, ch: DiscreteChannel) -> float:
    """I(X;Y) = H(Y) - H(Y|X) for p(x) through P(y|x), clamped at 0."""
    if input_dist.alphabet_size != ch.input_size:
        raise DimensionMismatch(
            f"input has {input_dist.alphabet_size} symbols, channel expects {ch.input_size}"
        )
    py = input_dist.probs @ ch.matrix
    value = float(entropy_last_axis(py) - input_dist.probs @ entropy_last_axis(ch.matrix))
    return max(value, 0.0)
