"""Finite-blocklength simulation of randomized binning codes.

Two code constructions are implemented at small blocklength n:

* superposition: a two-layer codebook. Cloud words u^n carry the second
  receiver's message, satellite words x^n around each cloud word carry the
  first receiver's.  Each message indexes a bin of `l` interchangeable
  codewords; the encoder picks a bin member uniformly at random, and that
  dither is what denies the eavesdropper information about the messages.
* double binning: independent codebooks for two auxiliary sequences, one
  bin per message on each side; the encoder looks for a jointly typical
  pair inside the selected bins and synthesizes x^n from it.  At small n
  the search can come up empty, which is reported rather than hidden.

Both schemes share one trial path: one inverse-CDF sampler draws every
codeword, x^n and channel output; one ML index (`_ml_index`) serves every
receiver; and `run_error_experiment` picks the scheme's encoder and
decoder once, then runs one loop body.

Decoders are maximum likelihood rather than typical-set decoders: at
n <= 16 typicality is vacuous, and ML is the optimal benchmark, so the
measured error rate lower-bounds any typicality decoder's.  Eavesdropper
uncertainty is not sampled at all; `exact_equivocation` enumerates every
possible eavesdropper observation and computes the conditional entropies
of the messages in closed form, which is what makes small-n secrecy
accounting exact.

All randomness comes from numpy's PCG64 seeded through SeedSequence with a
(seed, purpose-tag) pair: one tag per codebook, and one for the Generator
that `run_error_experiment` passes through the encoders and `transmit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import BudgetExceeded, DimensionMismatch, DiscreteChannel, Pmf, cascade
from .channels import _check_stochastic

DEFAULT_CODEBOOK_SYMBOL_BUDGET = 1 << 22
DEFAULT_Z_SEQUENCE_BUDGET = 1 << 20
DEFAULT_COMBO_BUDGET = 1 << 16

# Floats in one likelihood tile of exact_equivocation (512 KiB): a tile and
# the prefix it grows from stay in cache, which is most of the speed.
_TILE = 1 << 16
# Bytes of exact_equivocation's |Z|^n tables (pz, the pair's sum, and the
# m1 + m2 message rows): 1 GiB, 32 times the largest a benchmark job needs.
_TABLE_BYTES = 1 << 30

# Purpose tags for substream derivation.
_TAG_CLOUD = 1
_TAG_SATELLITE = 2
_TAG_V1 = 3
_TAG_V2 = 4
_TAG_TRIALS = 8


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) % 2**64, tag]))


def _sample_conditional(
    rng: np.random.Generator, rows: np.ndarray, conditions: np.ndarray
) -> np.ndarray:
    """One symbol per entry of `conditions`, drawn from the matching row.

    Inverse CDF on raw uniforms (stable across numpy versions).  An i.i.d.
    draw from a pmf passes probs[None] and all-zero conditions.
    """
    cdf = np.cumsum(rows, axis=1)
    # +inf from the column where each row's float CDF reaches its end: a
    # uniform past the end takes that column, which has positive probability.
    cdf[cdf >= cdf[:, -1:]] = np.inf
    u = rng.random(conditions.shape)
    return (cdf[conditions] <= u[..., None]).sum(axis=-1, dtype=np.int64)


@dataclass(frozen=True)
class CodeParams:
    """Blocklength, per-layer message counts m, bin sizes l, and the seed.

    Messages are w1 in [0, m1) for the first (satellite) layer and w2 in
    [0, m2) for the second (cloud) layer; each bin holds l interchangeable
    codewords.  Rates are log2(count)/n bits per use.
    """

    n: int
    m1: int
    m2: int
    l1: int
    l2: int
    seed: int

    def __post_init__(self):
        for name in ("n", "m1", "m2", "l1", "l2"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    @property
    def rate1(self) -> float:
        return math.log2(self.m1) / self.n

    @property
    def rate2(self) -> float:
        return math.log2(self.m2) / self.n

    @property
    def randomization_rate1(self) -> float:
        return math.log2(self.l1) / self.n

    @property
    def randomization_rate2(self) -> float:
        return math.log2(self.l2) / self.n


def _check_messages(params: CodeParams, w1: int, w2: int) -> None:
    if not 0 <= w1 < params.m1:
        raise ValueError(f"message w1={w1!r} outside [0, {params.m1})")
    if not 0 <= w2 < params.m2:
        raise ValueError(f"message w2={w2!r} outside [0, {params.m2})")


def _check_symbols(total: int) -> None:
    budget = DEFAULT_CODEBOOK_SYMBOL_BUDGET
    if total > budget:
        raise BudgetExceeded(f"codebook needs {total} symbols, over the budget of {budget}")


@dataclass(frozen=True)
class SuperpositionCodebook:
    """Two-layer codebook: u_words[w2, j2, :], x_words[w2, j2, w1, j1, :]."""

    u_words: np.ndarray
    x_words: np.ndarray
    pu: Pmf
    pxu: DiscreteChannel
    params: CodeParams


@dataclass(frozen=True)
class BinningCodebook:
    """Independent binned codebooks: v1_words[w1, j1, :], v2_words[w2, j2, :]."""

    v1_words: np.ndarray
    v2_words: np.ndarray
    pv1: Pmf
    pv2: Pmf
    x_map: np.ndarray  # P(x | v1, v2), validated row-stochastic
    epsilon: float
    params: CodeParams


@dataclass(frozen=True)
class EquivocationReport:
    """Exact per-use equivocations and their distance from perfect secrecy.

    gaps = (R1 - re1, R2 - re2, R1 + R2 - re12); all-zero gaps mean the
    eavesdropper's observation carries no information about the messages.
    """

    re1: float
    re2: float
    re12: float
    gaps: tuple[float, float, float]


@dataclass(frozen=True)
class TrialResult:
    """Monte-Carlo decoding outcome counts.

    pe_estimate is the union error frequency (either receiver wrong), and
    interval its exact (Clopper-Pearson) two-sided 95% confidence interval.
    """

    trials: int
    errors_rx1: int
    errors_rx2: int
    errors_union: int
    pe_estimate: float
    interval: tuple[float, float]
    encoding_failures: int = 0


def _clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Exact two-sided 95% interval for a binomial proportion seen k times in n.

    lo solves P(X >= k) = 0.025 and hi solves P(X >= k + 1) = 0.975 for
    X ~ Binomial(n, p), each by bisection on p until the midpoint is an
    end (lo = 0 at k = 0, hi = 1 at k = n): Clopper & Pearson (1934).
    """
    i = np.arange(n + 1)
    log_comb = np.concatenate(([0.0], np.cumsum(np.log((n - i[:-1]) / (i[:-1] + 1)))))

    def root(j: int, tail: float) -> float:
        lo, hi = 0.0, 1.0
        while lo < (p := 0.5 * (lo + hi)) < hi:
            terms = log_comb[j:] + i[j:] * math.log(p) + (n - i[j:]) * math.log1p(-p)
            lo, hi = (lo, p) if np.exp(terms).sum() > tail else (p, hi)
        return p

    return (0.0 if k == 0 else root(k, 0.025)), (1.0 if k == n else root(k + 1, 0.975))


def build_superposition(
    params: CodeParams,
    pu: Pmf,
    pxu: DiscreteChannel,
) -> SuperpositionCodebook:
    """Draw the two-layer codebook; bit-identical for identical arguments.

    Cloud words are i.i.d. from pu; each satellite word is drawn symbol by
    symbol from pxu conditioned on its cloud word.
    """
    if pu.alphabet_size != pxu.input_size:
        raise DimensionMismatch(
            f"cloud alphabet {pu.alphabet_size} does not match conditional input "
            f"{pxu.input_size}"
        )
    n, m1, m2, l1, l2 = params.n, params.m1, params.m2, params.l1, params.l2
    _check_symbols(m2 * l2 * n + m2 * l2 * m1 * l1 * n)
    u_words = _sample_conditional(
        _rng(params.seed, _TAG_CLOUD), pu.probs[None], np.zeros((m2, l2, n), np.int64)
    )
    conditions = np.broadcast_to(u_words[:, :, None, None, :], (m2, l2, m1, l1, n))
    x_words = _sample_conditional(_rng(params.seed, _TAG_SATELLITE), pxu.matrix, conditions)
    return SuperpositionCodebook(u_words=u_words, x_words=x_words, pu=pu, pxu=pxu, params=params)


def encode_superposition(
    cb: SuperpositionCodebook, w1: int, w2: int, rng: np.random.Generator
) -> np.ndarray:
    """Pick a bin member uniformly in each layer (j2, then j1, from rng); return its x^n."""
    params = cb.params
    _check_messages(params, w1, w2)
    j2 = int(rng.integers(params.l2))
    j1 = int(rng.integers(params.l1))
    return np.array(cb.x_words[w2, j2, w1, j1])


def transmit(x: np.ndarray, ch: DiscreteChannel, rng: np.random.Generator) -> np.ndarray:
    """Send a sequence through a memoryless channel, one draw from rng per symbol."""
    seq = np.asarray(x, dtype=np.int64)
    if seq.size and (seq.min() < 0 or seq.max() >= ch.input_size):
        raise ValueError(
            f"sequence symbols outside the channel input alphabet [0, {ch.input_size})"
        )
    return _sample_conditional(rng, ch.matrix, seq)


def _log_matrix(matrix: np.ndarray) -> np.ndarray:
    return np.where(matrix > 0.0, np.log2(np.where(matrix > 0.0, matrix, 1.0)), -np.inf)


def _ml_index(words: np.ndarray, y: np.ndarray, log_matrix: np.ndarray) -> tuple[int, ...]:
    """Index into words[..., n] of the word most likely to have produced y.

    The per-symbol terms are sorted before summation so that words whose
    likelihoods agree in exact arithmetic (same multiset of factors) get
    bit-identical scores; ties go to the lowest row-major index.
    """
    scores = np.sort(log_matrix[words, y], axis=-1).sum(axis=-1)
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(scores)), scores.shape))


def _check_observation(y: np.ndarray, n: int, ch: DiscreteChannel) -> np.ndarray:
    seq = np.asarray(y, dtype=np.int64)
    if seq.shape != (n,):
        raise DimensionMismatch(f"observation has shape {seq.shape}, expected ({n},)")
    if seq.size and (seq.min() < 0 or seq.max() >= ch.output_size):
        raise ValueError(
            f"observation symbols outside the channel output alphabet [0, {ch.output_size})"
        )
    return seq


def decode_rx2(cb: SuperpositionCodebook, y2: np.ndarray, ch_y2_given_u: DiscreteChannel) -> int:
    """ML bin estimate for the second receiver, over all cloud words.

    Ties break toward the lowest codeword index (bin-major order).
    """
    if ch_y2_given_u.input_size != cb.pu.alphabet_size:
        raise DimensionMismatch("composite channel input does not match the cloud alphabet")
    seq = _check_observation(y2, cb.params.n, ch_y2_given_u)
    return _ml_index(cb.u_words, seq, _log_matrix(ch_y2_given_u.matrix))[0]


def decode_rx1(
    cb: SuperpositionCodebook, y1: np.ndarray, ch_y1_given_x: DiscreteChannel
) -> tuple[int, int]:
    """Joint ML over all (cloud, satellite) pairs; returns (w1_hat, w2_hat).

    Ties break toward the lexicographically lowest (cloud, satellite) index.
    """
    if ch_y1_given_x.input_size != cb.pxu.output_size:
        raise DimensionMismatch("channel input does not match the transmit alphabet")
    seq = _check_observation(y1, cb.params.n, ch_y1_given_x)
    w2, _, w1, _ = _ml_index(cb.x_words, seq, _log_matrix(ch_y1_given_x.matrix))
    return w1, w2


def _likelihoods(factors: np.ndarray, probs: np.ndarray, buffers: tuple) -> np.ndarray:
    """Extend probs (R, K) by prefix products over factors[R, i, z] = P(z | row r, i).

    Positions multiply in order, so each likelihood is the same float as
    the plain product over i, and each new position becomes the
    fastest-varying part of the z order.  The steps write alternately into
    the two flat buffers (neither may hold probs), and each symbol's
    columns in their own pass: a (R, K, 1) * (R, 1, |Z|) broadcast into a
    fresh array runs a length-|Z| inner loop and faults in new pages, and
    is several times slower for the same products.
    """
    nz = factors.shape[2]
    for i in range(factors.shape[1]):
        out = buffers[i % 2][: probs.size * nz].reshape(len(probs), -1, nz)
        for z in range(nz):
            np.multiply(probs, factors[:, i, z, None], out=out[:, :, z])
        probs = out.reshape(len(probs), -1)
    return probs


def _plogp_sum(values: np.ndarray) -> float:
    v = values if values.min() > 0.0 else values[values > 0.0]
    terms = np.log2(v)
    terms *= v
    return float(terms.sum())


def exact_equivocation(
    cb: SuperpositionCodebook,
    pzx: DiscreteChannel,
    z_budget: int = DEFAULT_Z_SEQUENCE_BUDGET,
) -> EquivocationReport:
    """Exact eavesdropper equivocations by enumerating every z^n.

    Messages are uniform and the encoder dithers uniformly over bin
    members, so P(z^n | w1, w2) is the bin-averaged product of transition
    probabilities.  The conditional entropies H(W1|Z^n), H(W2|Z^n) and
    H(W1,W2|Z^n) follow from the exact joint and are divided by n.  The
    m1*m2*l1*l2 codeword roles enumerated are capped at
    DEFAULT_COMBO_BUDGET, and the |Z|^n tables, m1 + m2 + 2 rows of
    floats, at 1 GiB, before anything is allocated.

    z^n splits into a head of n - t positions and a tail of t >= 1, the
    most with |Z|^t <= _TILE = 65536 floats.  Bin members are taken
    max(_TILE // |Z|^t, 1) at a time; for each head sequence their
    likelihoods over the tail form one tile, which is added into its slice
    of the pair's sum.  The working set stays within a few tiles plus the
    |Z|^n sums, whatever l1*l2 is, and the members are still added one
    after another in row order, so the bits do not depend on the tile.

    Parameters
    ----------
    cb : SuperpositionCodebook
    pzx : DiscreteChannel
        Eavesdropper channel P(z|x).
    z_budget : int
        Cap on |Z|^n, the number of enumerated observation sequences.
    """
    params = cb.params
    n, m1, m2, l1, l2 = params.n, params.m1, params.m2, params.l1, params.l2
    if pzx.input_size != cb.pxu.output_size:
        raise DimensionMismatch("eavesdropper channel input does not match the transmit alphabet")
    nz = pzx.output_size
    count = nz**n
    if count > z_budget:
        raise BudgetExceeded(f"|Z|^n = {count} observation sequences exceed budget {z_budget}")
    combos = m1 * m2 * l1 * l2
    if combos > DEFAULT_COMBO_BUDGET:
        raise BudgetExceeded(
            f"{combos} message/randomization combinations exceed {DEFAULT_COMBO_BUDGET}"
        )
    tables = m1 + m2 + 2
    if 8 * tables * count > _TABLE_BYTES:
        raise BudgetExceeded(f"{tables} tables of |Z|^n = {count} floats exceed {_TABLE_BYTES} bytes")

    tail = 1
    while tail < n and nz ** (tail + 1) <= _TILE:
        tail += 1
    width = nz**tail
    rows = max(_TILE // width, 1)
    buffers = (np.empty(rows * width), np.empty(rows * width))
    head_buffers = (np.empty(rows * count // width), np.empty(rows * count // width))
    inv_messages = 1.0 / (m1 * m2)
    pz = np.zeros(count)
    pw1z = np.zeros((m1, count))
    pw2z = np.zeros((m2, count))
    joint_plogp = 0.0
    for w2 in range(m2):
        for w1 in range(m1):
            words = cb.x_words[w2, :, w1, :, :].reshape(l2 * l1, n)
            conditional = np.zeros(count)
            for start in range(0, l2 * l1, rows):
                factors = pzx.matrix[words[start : start + rows]]
                ones = np.ones((len(factors), 1))
                heads = _likelihoods(factors[:, : n - tail], ones, head_buffers)
                for column in range(heads.shape[1]):
                    probs = _likelihoods(factors[:, n - tail :], heads[:, column, None], buffers)
                    span = slice(column * width, (column + 1) * width)
                    # Fold the running sum into the first row: the rows are
                    # then added one after another, in the same order as one
                    # sum over all members.  tail >= 1 keeps |Z| columns in
                    # a tile, so its sum runs row by row; a one-column sum
                    # would be pairwise.
                    probs[0] += conditional[span]
                    probs.sum(axis=0, out=conditional[span])
            joint = conditional
            joint /= l1 * l2
            joint *= inv_messages
            pz += joint
            pw1z[w1] += joint
            pw2z[w2] += joint
            joint_plogp += _plogp_sum(joint)

    h_z = -_plogp_sum(pz)
    h_w1z = -_plogp_sum(pw1z.ravel())
    h_w2z = -_plogp_sum(pw2z.ravel())
    h_wz = -joint_plogp
    re1 = max((h_w1z - h_z) / n, 0.0)
    re2 = max((h_w2z - h_z) / n, 0.0)
    re12 = max((h_wz - h_z) / n, 0.0)
    gaps = (params.rate1 - re1, params.rate2 - re2, params.rate1 + params.rate2 - re12)
    return EquivocationReport(re1=re1, re2=re2, re12=re12, gaps=gaps)


def build_double_binning(
    params: CodeParams,
    pv1: Pmf,
    pv2: Pmf,
    x_map: np.ndarray,
    epsilon: float,
) -> BinningCodebook:
    """Draw both binned codebooks; bit-identical for identical arguments."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    rows = np.asarray(x_map, dtype=np.float64)
    if rows.ndim != 3:
        raise DimensionMismatch(f"x_map must have 3 axes (v1, v2, x), got shape {rows.shape}")
    _check_stochastic(rows, 2, "x_map")
    if rows.shape[:2] != (pv1.alphabet_size, pv2.alphabet_size):
        raise DimensionMismatch(
            f"x_map shape {rows.shape} does not match auxiliary alphabets "
            f"({pv1.alphabet_size}, {pv2.alphabet_size})"
        )
    n, m1, m2, l1, l2 = params.n, params.m1, params.m2, params.l1, params.l2
    _check_symbols((m1 * l1 + m2 * l2) * n)
    v1_words = _sample_conditional(
        _rng(params.seed, _TAG_V1), pv1.probs[None], np.zeros((m1, l1, n), np.int64)
    )
    v2_words = _sample_conditional(
        _rng(params.seed, _TAG_V2), pv2.probs[None], np.zeros((m2, l2, n), np.int64)
    )
    return BinningCodebook(
        v1_words=v1_words,
        v2_words=v2_words,
        pv1=pv1,
        pv2=pv2,
        x_map=rows,
        epsilon=float(epsilon),
        params=params,
    )


def encode_double_binning(
    cb: BinningCodebook, w1: int, w2: int, rng: np.random.Generator
) -> np.ndarray | None:
    """Encode by picking a jointly typical pair from the selected bins.

    A pair qualifies when the max-norm distance between its empirical
    joint type and the product target pv1 x pv2 is at most epsilon.  One
    qualifying pair is drawn uniformly from rng, then x^n per symbol from
    the pair map.  Returns None, drawing nothing, when no pair qualifies,
    which is an observable event at small blocklength.
    """
    params = cb.params
    _check_messages(params, w1, w2)
    a1, a2 = cb.pv1.alphabet_size, cb.pv2.alphabet_size
    target = np.outer(cb.pv1.probs, cb.pv2.probs).ravel()
    # Pair symbols of every (j1, j2), row j1 * l2 + j2, and their joint types.
    pairs = (cb.v1_words[w1][:, None, :] * a2 + cb.v2_words[w2][None, :, :]).reshape(-1, params.n)
    counts = np.zeros((len(pairs), a1 * a2))
    np.add.at(counts, (np.arange(len(pairs))[:, None], pairs), 1.0)
    deviation = np.max(np.abs(counts / params.n - target), axis=1)
    qualifying = np.flatnonzero(deviation <= cb.epsilon)
    if qualifying.size == 0:
        return None
    pair_index = pairs[qualifying[int(rng.integers(len(qualifying)))]]
    return _sample_conditional(rng, cb.x_map.reshape(a1 * a2, -1), pair_index)


def run_error_experiment(
    cb: SuperpositionCodebook | BinningCodebook,
    channels: tuple[DiscreteChannel, DiscreteChannel],
    trials: int,
    seed: int,
) -> TrialResult:
    """Estimate the union decoding-error probability by Monte Carlo.

    Each trial draws uniform messages, encodes, sends the same x^n through
    both receiver channels with independent noise, and decodes with the ML
    decoders.  One Generator (_TAG_TRIALS) serves every draw in trial
    order: w1, w2, the encoder's draws, then y1's noise and y2's.  The union event counts a trial in which either receiver
    misses its own message.  For double-binning codebooks an encoding
    failure counts as an error at both receivers and is also tallied
    separately.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    py1x, py2x = channels
    params = cb.params
    rng = _rng(seed, _TAG_TRIALS)

    if isinstance(cb, SuperpositionCodebook):
        encode = encode_superposition
        composite_rx2 = cascade(cb.pxu, py2x)

        def decode(y1, y2):
            return decode_rx1(cb, y1, py1x)[0], decode_rx2(cb, y2, composite_rx2)

    else:
        encode = encode_double_binning
        # Per-letter channels V1 -> Y1 and V2 -> Y2 induced by the pair map.
        log_rx1 = _log_matrix(np.einsum("w,vwx,xy->vy", cb.pv2.probs, cb.x_map, py1x.matrix))
        log_rx2 = _log_matrix(np.einsum("v,vwx,xy->wy", cb.pv1.probs, cb.x_map, py2x.matrix))

        def decode(y1, y2):
            return _ml_index(cb.v1_words, y1, log_rx1)[0], _ml_index(cb.v2_words, y2, log_rx2)[0]

    errors_rx1 = errors_rx2 = errors_union = failures = 0
    for _ in range(trials):
        w1 = int(rng.integers(params.m1))
        w2 = int(rng.integers(params.m2))
        x = encode(cb, w1, w2, rng)
        if x is None:
            # An encoding failure counts as an error at both receivers.
            failures += 1
            w1_hat = w2_hat = -1
        else:
            y1 = transmit(x, py1x, rng)
            y2 = transmit(x, py2x, rng)
            w1_hat, w2_hat = decode(y1, y2)
        err1 = w1_hat != w1
        err2 = w2_hat != w2
        errors_rx1 += err1
        errors_rx2 += err2
        errors_union += err1 or err2

    return TrialResult(
        trials=trials,
        errors_rx1=errors_rx1,
        errors_rx2=errors_rx2,
        errors_union=errors_union,
        pe_estimate=errors_union / trials,
        interval=_clopper_pearson(errors_union, trials),
        encoding_failures=failures,
    )
