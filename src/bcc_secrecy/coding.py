"""Finite-blocklength simulation of randomized binning codes.

Two code constructions are implemented at small blocklength n:

* superposition: a two-layer codebook. Cloud words u^n carry the second
  receiver's message, satellite words x^n around each cloud word carry the
  first receiver's.  Each message indexes a bin of `l` interchangeable
  codewords; the encoder picks a bin member uniformly at random, and that
  dither is what denies the eavesdropper information about the messages.
* double binning: independent codebooks for two auxiliary sequences, one
  bin per message on each side; the encoder picks a jointly typical pair
  inside the selected bins (found once per codebook) and synthesizes x^n
  from it.  At small n there can be none, which is reported, not hidden.

Both schemes share one trial path: one inverse-CDF sampler draws every
codeword, x^n and channel output; one batched ML index (`_ml_index`)
serves every receiver, one loop over word tiles and observation blocks
whose block score, for any alphabet, sums integer-valued parts of the
log-likelihoods exactly by one 0/1 matrix product and rounds only where
it adds the parts; and `run_error_experiment` picks the scheme's encoder
and decoder once, then runs blocks of trials through one body.
The encoders take message arrays and the decoders observation arrays with
a leading batch axis, so a block makes one call of each.

Decoders are maximum likelihood rather than typical-set decoders: at
n <= 16 typicality is vacuous, and ML is the optimal benchmark, so the
measured error rate lower-bounds any typicality decoder's.  Eavesdropper
uncertainty is not sampled at all; for both schemes `exact_equivocation`
enumerates every possible eavesdropper observation and computes the
conditional entropies of the messages in closed form, which is what makes
small-n secrecy accounting exact.  It builds every codeword role's head
and tail likelihoods once, then walks z^n in cache-sized tiles, each
accumulating every message pair's joint, the marginals and their p*log p
terms, so no array grows with |Z|^n.

All randomness comes from numpy's PCG64 seeded through SeedSequence with a
(seed, purpose-tag) pair: one tag per codebook, and one for the Generator
that `run_error_experiment` passes through the encoders and `transmit`.
That Generator serves each block of trials in one order: every w1, every
w2, the encoder's draws, every y1 noise draw, then every y2 one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import DiscreteChannel, Pmf, _check_budget, _check_finite, _check_integer, cascade
from .channels import _check_sizes, _check_stochastic, _check_symbols
from .limits import DEFAULT_CODEBOOK_SYMBOL_BUDGET, DEFAULT_COMBO_BUDGET, DEFAULT_Z_SEQUENCE_BUDGET

# Floats in one z^n tile of exact_equivocation, counted over its m1 + m2 + 3
# rows (pz, the message rows, a pair's joint and its p*log p terms): 1 MiB,
# so a tile stays in cache.  Of 1 << 16 to 1 << 19, 1 << 17 ran the
# benchmark's 2^16- and 2^20-sequence jobs fastest.  It also caps the
# members whose likelihoods are built at once.
_TILE = 1 << 17
# Bytes that exact_equivocation holds across its tiles: every role's head
# and tail likelihoods plus the tile's rows.  1 GiB, checked before any of
# them is allocated.
_TABLE_BYTES = 1 << 30
# Trials that run_error_experiment draws, encodes, sends and decodes at once.
_TRIAL_BLOCK = 256
# Elements of each array _ml_index builds per block (one-hot words, part
# cells, part sums, scores): 128 KiB.  Of 1 << 12 to 1 << 17, 1 << 14 and
# 1 << 15 scored 256 words of n = 12 against 256 observations fastest at
# |X| = |Y| = 2, 3 and 9, within 20% of each other; 1 << 14 is half the size.
_SCORE_FLOATS = 1 << 14
# Terms of a binomial tail that _clopper_pearson sums at a time.
_TAIL_TERMS = 1 << 12
# Blocks of log-binomial coefficients, with the block's i and n - i, that one
# _clopper_pearson root keeps across its bisection steps: 16 x 96 KiB =
# 1.5 MiB.  Blocks past these are rebuilt at every step.
_TAIL_BLOCKS_KEPT = 16

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
            _check_integer(getattr(self, name), name, 1)
        _check_integer(self.seed, "seed")

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


def _check_messages(params: CodeParams, w1, w2) -> tuple[np.ndarray, np.ndarray]:
    """w1 and w2 as int64 arrays of one shape, each inside its message range."""
    w1, w2 = np.asarray(w1), np.asarray(w2)
    _check_sizes(w2.shape, w1.shape, "shape of messages w2 vs w1")
    return _check_symbols(w1, params.m1, "messages w1"), _check_symbols(w2, params.m2, "messages w2")


@dataclass(frozen=True, eq=False)
class SuperpositionCodebook:
    """Two-layer codebook: u_words[w2, j2, :], x_words[w2, j2, w1, j1, :]."""

    u_words: np.ndarray
    x_words: np.ndarray
    pu: Pmf
    pxu: DiscreteChannel
    params: CodeParams


@dataclass(frozen=True, eq=False)
class BinningCodebook:
    """Independent binned codebooks: v1_words[w1, j1, :], v2_words[w2, j2, :]."""

    v1_words: np.ndarray
    v2_words: np.ndarray
    pv1: Pmf
    pv2: Pmf
    x_map: np.ndarray  # P(x | v1, v2), validated row-stochastic
    epsilon: float
    params: CodeParams
    typical: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # typical[w1, w2, j1 * l2 + j2]: the pair's joint type is within epsilon
        # of pv1 x pv2 in max norm.  Each count is a product of symbol indicators.
        (m1, l1, n), (m2, l2, _) = self.v1_words.shape, self.v2_words.shape
        words1, words2 = self.v1_words.reshape(-1, n), self.v2_words.reshape(-1, n)
        deviation = np.zeros((m1 * l1, m2 * l2))
        for a, pa in enumerate(self.pv1.probs):
            for b, pb in enumerate(self.pv2.probs):
                counts = (words1 == a).astype(np.float64) @ (words2 == b).T.astype(np.float64)
                np.maximum(deviation, np.abs(counts / n - pa * pb), out=deviation)
        typical = (deviation <= self.epsilon).reshape(m1, l1, m2, l2).transpose(0, 2, 1, 3)
        object.__setattr__(self, "typical", typical.reshape(m1, m2, l1 * l2))


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
    A tail is summed _TAIL_TERMS terms at a time, each block's log
    binomial coefficients running on from lgamma at its first index.  A
    root builds the coefficients of its first _TAIL_BLOCKS_KEPT blocks once
    and rebuilds any later block at every step, so the memory used does not
    grow with n.
    """
    log_n_factorial = math.lgamma(n + 1)

    def block(start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """i, n - i (as floats) and log C(n, i) for the block from `start`."""
        i = np.arange(start, min(start + _TAIL_TERMS, n + 1), dtype=np.float64)
        log_comb = np.concatenate(([0.0], np.cumsum(np.log((n - i[:-1]) / (i[:-1] + 1)))))
        log_comb += log_n_factorial - math.lgamma(start + 1) - math.lgamma(n - start + 1)
        return i, n - i, log_comb

    def root(j: int, tail: float) -> float:
        """The p at which P(X >= j) crosses `tail`."""
        starts = range(j, n + 1, _TAIL_TERMS)
        kept = [block(start) for start in starts[:_TAIL_BLOCKS_KEPT]]
        lo, hi = 0.0, 1.0
        while lo < (p := 0.5 * (lo + hi)) < hi:
            log_p, log_q = math.log(p), math.log1p(-p)
            total = 0.0
            for b, start in enumerate(starts):
                i, rest, log_comb = kept[b] if b < len(kept) else block(start)
                total += float(np.exp(log_comb + i * log_p + rest * log_q).sum())
            lo, hi = (lo, p) if total > tail else (p, hi)
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
    _check_sizes(pxu.input_size, pu.alphabet_size, "conditional inputs vs cloud alphabet")
    n, m1, m2, l1, l2 = params.n, params.m1, params.m2, params.l1, params.l2
    total = m2 * l2 * n + m2 * l2 * m1 * l1 * n
    _check_budget(total, DEFAULT_CODEBOOK_SYMBOL_BUDGET, "the codebook's {} symbols", total)
    u_words = _sample_conditional(
        _rng(params.seed, _TAG_CLOUD), pu.probs[None], np.zeros((m2, l2, n), np.int64)
    )
    conditions = np.broadcast_to(u_words[:, :, None, None, :], (m2, l2, m1, l1, n))
    x_words = _sample_conditional(_rng(params.seed, _TAG_SATELLITE), pxu.matrix, conditions)
    return SuperpositionCodebook(u_words=u_words, x_words=x_words, pu=pu, pxu=pxu, params=params)


def encode_superposition(cb: SuperpositionCodebook, w1, w2, rng: np.random.Generator) -> np.ndarray:
    """x^n for messages w1, w2: ints, or integer arrays of one shape S.

    A bin member is picked uniformly in each layer, every cloud member j2
    from rng first, then every satellite member j1.  Returns S + (n,).
    """
    params = cb.params
    w1, w2 = _check_messages(params, w1, w2)
    j2 = rng.integers(params.l2, size=w1.shape)
    j1 = rng.integers(params.l1, size=w1.shape)
    return cb.x_words[w2, j2, w1, j1]


def transmit(x: np.ndarray, ch: DiscreteChannel, rng: np.random.Generator) -> np.ndarray:
    """Send a sequence through a memoryless channel, one draw from rng per symbol."""
    seq = _check_symbols(x, ch.input_size, "sequence symbols", "the channel input alphabet ")
    return _sample_conditional(rng, ch.matrix, seq)


def _log_matrix(matrix: np.ndarray) -> np.ndarray:
    return np.where(matrix > 0.0, np.log2(np.where(matrix > 0.0, matrix, 1.0)), -np.inf)


def _log_parts(log_matrix: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer-valued parts (P, *log_matrix.shape) of the finite entries, and their units (P,).

    The units are descending powers of two, one grid for the whole table,
    and each part holds 53 - n.bit_length() bits, so any n-term sum of one
    part is exact in float64 (after Rump, Ogita and Oishi, 2008); sum_p
    parts[p] * units[p] is each finite entry exactly (0 at -inf).  A log2
    table spans at most 116 bits, from log2 of the least subnormal, -1074,
    to the last bit of log2(1 - 2^-53).
    """
    rest = np.where(np.isneginf(log_matrix), 0.0, log_matrix)
    # Every entry is below 2^top in magnitude and a multiple of 2^bottom, the
    # last bit of the entry nearest zero; a table of zeros has no parts.
    exponents = np.frexp(rest[rest != 0.0])[1]
    top, bottom = exponents.max(initial=0), exponents.min(initial=53) - 53
    bits = 53 - n.bit_length()
    units = np.ldexp(1.0, top - bits * np.arange(1, -(-(top - bottom) // bits) + 1))
    parts = np.empty((len(units), *log_matrix.shape))
    for part, unit in zip(parts, units):
        np.trunc(rest / unit, out=part)
        rest -= part * unit
    return parts, units


def _ml_index(words: np.ndarray, ys: np.ndarray, log_matrix: np.ndarray) -> np.ndarray:
    """Flat row-major index into words[..., n] of the likeliest word for each row of ys (B, n).

    A table holds log_matrix's _log_parts times their units, plus a 0/1 part
    marking -inf entries if any.  The one block score, for every alphabet,
    gathers the observations' cells (parts, B, n*|X|), and one product with
    a tile's one-hot words (n*|X|, T) sums every part over each word's
    symbols exactly.  It adds those sums smallest unit first, so it is the
    exact log-likelihood up to the rounding of those few additions, and -inf
    where a -inf entry is met.  Words with the same multiset of factors get
    the same sums, so the same bits.  Words go in tiles and observations in
    blocks; every array a block builds holds at most _SCORE_FLOATS elements
    (but one word's and one observation's at least) and is freed before the
    next block's.  The lowest index wins a tie, since only a strictly higher
    score in a later tile displaces a winner.
    """
    n, size = words.shape[-1], log_matrix.shape[0]
    rows = words.reshape(-1, n)
    parts, units = _log_parts(log_matrix.T, n)
    # table[p, y, x]: part p of log_matrix[x, y] times its unit (still exact).
    table = parts * units[:, None, None]
    if np.isneginf(log_matrix).any():
        table = np.concatenate([table, np.isneginf(log_matrix.T)[None]])
    planes, width = len(table), n * size

    def tile_best(onehot, obs):
        # cells[p, b, i * |X| + x]: part p of log_matrix[x, obs[b, i]].
        sums = np.take(table, obs, axis=1).reshape(planes, len(obs), width) @ onehot
        # Summed over the part axis one part at a time, smallest unit first.
        scores = sums[: len(units)][::-1].sum(axis=0)
        if planes > len(units):
            scores[sums[-1] > 0.0] = -np.inf
        top = scores.argmax(axis=1)
        return top, scores[np.arange(len(obs)), top]

    best = np.full(len(ys), -np.inf)
    index = np.zeros(len(ys), np.int64)
    tile = max(_SCORE_FLOATS // max(width, planes), 1)
    for w0 in range(0, len(rows), tile):
        chunk = rows[w0 : w0 + tile]
        # onehot[i * |X| + x, w]: word w has symbol x at position i.
        onehot = (chunk.T[:, None, :] == np.arange(size)[:, None]).reshape(width, -1).astype(np.float64)
        # An observation's cells, and per word its part sums (or score, if none).
        step = max(_SCORE_FLOATS // max(planes * width, max(planes, 1) * len(chunk)), 1)
        for y0 in range(0, len(ys), step):
            block = slice(y0, y0 + step)
            top, top_scores = tile_best(onehot, ys[block])
            better = top_scores > best[block]
            best[block][better] = top_scores[better]
            index[block][better] = top[better] + w0
    return index


def _check_observation(y: np.ndarray, n: int, ch: DiscreteChannel) -> np.ndarray:
    """y as an int64 array of shape (n,) or (B, n) inside the channel's output alphabet."""
    seq = np.asarray(y)
    expected = (n,) if seq.ndim < 2 else (len(seq), n)
    _check_sizes(seq.shape, expected, "observation shape, (n,) or (B, n)")
    return _check_symbols(seq, ch.output_size, "observation symbols", "the channel output alphabet ")


def decode_rx2(cb: SuperpositionCodebook, y2: np.ndarray, ch_y2_given_u: DiscreteChannel):
    """ML bin estimate for the second receiver, over all cloud words.

    y2 is one observation (n,), decoded to an int, or a batch (B, n),
    decoded to B estimates.  Ties break toward the lowest codeword index
    (bin-major order).
    """
    _check_sizes(ch_y2_given_u.input_size, cb.pu.alphabet_size, "composite inputs vs cloud alphabet")
    seq = _check_observation(y2, cb.params.n, ch_y2_given_u)
    flat = _ml_index(cb.u_words, seq.reshape(-1, cb.params.n), _log_matrix(ch_y2_given_u.matrix))
    w2 = flat // cb.params.l2
    return int(w2[0]) if seq.ndim == 1 else w2


def decode_rx1(cb: SuperpositionCodebook, y1: np.ndarray, ch_y1_given_x: DiscreteChannel):
    """Joint ML over all (cloud, satellite) pairs; returns (w1_hat, w2_hat).

    y1 is one observation (n,), decoded to two ints, or a batch (B, n),
    decoded to two arrays of B estimates.  Ties break toward the
    lexicographically lowest (cloud, satellite) index.
    """
    _check_sizes(ch_y1_given_x.input_size, cb.pxu.output_size, "channel inputs vs transmit alphabet")
    seq = _check_observation(y1, cb.params.n, ch_y1_given_x)
    flat = _ml_index(cb.x_words, seq.reshape(-1, cb.params.n), _log_matrix(ch_y1_given_x.matrix))
    w2, _, w1, _ = np.unravel_index(flat, cb.x_words.shape[:4])
    return (int(w1[0]), int(w2[0])) if seq.ndim == 1 else (w1, w2)


def _likelihoods(factors: np.ndarray) -> np.ndarray:
    """Prefix products (R, k, |Z|) -> (R, |Z|^k), the last position varying fastest."""
    probs = np.ones((len(factors), 1))
    for i in range(factors.shape[1]):
        probs = (probs[:, :, None] * factors[:, i, None, :]).reshape(len(factors), -1)
    return probs


def _plogp_sum(values: np.ndarray) -> float:
    v = values if values.min() > 0.0 else values[values > 0.0]
    terms = np.log2(v)
    terms *= v
    return float(terms.sum())


def exact_equivocation(
    cb: SuperpositionCodebook | BinningCodebook,
    pzx: DiscreteChannel,
    z_budget: int = DEFAULT_Z_SEQUENCE_BUDGET,
) -> EquivocationReport:
    """Exact eavesdropper equivocations by enumerating every z^n.

    pzx is the eavesdropper channel P(z|x).  Messages are uniform and the
    encoder dithers uniformly over a pair's R member rows: superposition's
    l1*l2 x-words over P(z|x), or double binning's typical (j1, j2) as
    symbols v1*|V2| + v2 over x_map @ P(z|x).  A pair with none sends an
    erasure symbol, of mass 1/(m1*m2), that no z^n equals.  H(W1|Z^n),
    H(W2|Z^n) and H(W1,W2|Z^n) follow from the exact joint, divided by n.

    z^n splits into a head of n // 2 positions and a tail, so a pair's
    joint over a set of heads is one matrix product A.T @ B of its
    members' head likelihoods A (R, |Z|^head) and tail likelihoods B
    (R, |Z|^tail), both computed once for every member.  The z^n are then
    visited in tiles of whole head rows, sized so that the tile's
    m1 + m2 + 3 rows (pz, the m1 + m2 message rows, the pair's joint and
    its p*log p terms) hold at most _TILE floats.  In each tile every
    pair, in (w2, w1) order, adds its joint into the tile's pz and message
    rows and its p*log p into H(W1,W2,Z^n); then the tile's rows add their
    p*log p into the other three entropies.  No array grows with |Z|^n.
    The shapes fix BLAS's summation order, so the sums repeat bit for bit.

    Before anything is allocated, |Z|^n is capped at z_budget, the
    m1*m2*l1*l2 codeword roles at DEFAULT_COMBO_BUDGET, and the bytes held
    across tiles, 8 * (roles * (|Z|^head + |Z|^tail) + (m1 + m2 + 3) * tile),
    at _TABLE_BYTES.
    """
    params = cb.params
    n, m1, m2, l1, l2 = params.n, params.m1, params.m2, params.l1, params.l2
    superposition = isinstance(cb, SuperpositionCodebook)
    x_size = cb.pxu.output_size if superposition else cb.x_map.shape[-1]
    _check_sizes(pzx.input_size, x_size, "eavesdropper channel inputs vs transmit alphabet")
    matrix = pzx.matrix if superposition else cb.x_map.reshape(-1, x_size) @ pzx.matrix
    nz = pzx.output_size
    count = nz**n
    _check_budget(count, z_budget, "|Z|^n = {} observation sequences", count)
    combos = m1 * m2 * l1 * l2
    _check_budget(combos, DEFAULT_COMBO_BUDGET, "{} message/randomization combinations", combos)
    head = n // 2
    heads, width = nz**head, nz ** (n - head)
    rows = min(max(_TILE // ((m1 + m2 + 3) * width), 1), heads)
    tile = rows * width
    nbytes = 8 * (combos * (heads + width) + (m1 + m2 + 3) * tile)
    what = "{} bytes for {} roles' likelihoods and {} tile rows of {} floats"
    _check_budget(nbytes, _TABLE_BYTES, what, nbytes, combos, m1 + m2 + 3, tile)

    members = [
        cb.x_words[w2, :, w1].reshape(-1, n) if superposition else _typical_rows(cb, w1, w2)
        for w2, w1 in np.ndindex(m2, m1)
    ]
    words = np.concatenate(members)
    # Rows offsets[k]:offsets[k + 1] of a and b are pair k = w2 * m1 + w1's members.
    offsets = np.cumsum([0, *map(len, members)]).tolist()
    a = np.empty((len(words), heads))
    b = np.empty((len(words), width))
    step = max(_TILE // (heads + width), 1)
    for start in range(0, len(words), step):
        factors = matrix[words[start : start + step]]
        a[start : start + step] = _likelihoods(factors[:, :head])
        b[start : start + step] = _likelihoods(factors[:, head:])

    inv_messages = 1.0 / (m1 * m2)
    erased = np.zeros((m1, m2))  # P(w1, w2, erasure)
    pairs = []
    for (w2, w1), lo, hi in zip(np.ndindex(m2, m1), offsets, offsets[1:]):
        if lo == hi:
            erased[w1, w2] = inv_messages
        else:
            pairs.append((w1, w2, lo, hi))
    # One buffer serves every tile, so no tile's rows are allocated while
    # the last tile's are still alive.
    sums_buf = np.empty((m1 + m2 + 1) * tile)
    joint_buf = np.empty(tile)
    h_z = h_w1z = h_w2z = h_wz = 0.0
    for start in range(0, heads, rows):
        a_tile = a[:, start : start + rows]
        span = a_tile.shape[1] * width
        sums = sums_buf[: (m1 + m2 + 1) * span].reshape(m1 + m2 + 1, span)
        sums.fill(0.0)
        pz, pw1z, pw2z = sums[0], sums[1 : 1 + m1], sums[1 + m1 :]
        joint = joint_buf[:span]
        for w1, w2, lo, hi in pairs:
            np.matmul(a_tile[lo:hi].T, b[lo:hi], out=joint.reshape(-1, width))
            joint /= hi - lo
            joint *= inv_messages
            pz += joint
            pw1z[w1] += joint
            pw2z[w2] += joint
            h_wz -= _plogp_sum(joint)
        # Row by row, so the p*log p terms take one row, as counted.
        h_z -= _plogp_sum(pz)
        h_w1z -= sum(map(_plogp_sum, pw1z))
        h_w2z -= sum(map(_plogp_sum, pw2z))

    # With no erasure each subtracted term is 0.0, so the sums keep their bits.
    h_z -= _plogp_sum(erased.sum(keepdims=True))
    h_w1z -= _plogp_sum(erased.sum(axis=1))
    h_w2z -= _plogp_sum(erased.sum(axis=0))
    h_wz -= _plogp_sum(erased)
    re1 = max((h_w1z - h_z) / n, 0.0)
    re2 = max((h_w2z - h_z) / n, 0.0)
    re12 = max((h_wz - h_z) / n, 0.0)
    gaps = (params.rate1 - re1, params.rate2 - re2, params.rate1 + params.rate2 - re12)
    return EquivocationReport(re1=re1, re2=re2, re12=re12, gaps=gaps)


def _typical_rows(cb: BinningCodebook, w1: int, w2: int) -> np.ndarray:
    """Pair symbols v1 * |V2| + v2 of the typical (j1, j2) of (w1, w2), in j1 * l2 + j2 order."""
    pairs = cb.v1_words[w1][:, None, :] * cb.pv2.alphabet_size + cb.v2_words[w2][None, :, :]
    return pairs.reshape(-1, cb.params.n)[cb.typical[w1, w2]]


def build_double_binning(
    params: CodeParams,
    pv1: Pmf,
    pv2: Pmf,
    x_map: np.ndarray,
    epsilon: float,
) -> BinningCodebook:
    """Draw both binned codebooks; bit-identical for identical arguments."""
    epsilon = _check_finite(epsilon, "epsilon", 0, strict=True)
    rows = _check_stochastic(x_map, 3, 2, "x_map")
    _check_sizes(rows.shape[:2], (pv1.alphabet_size, pv2.alphabet_size), "x_map (v1, v2) axes")
    n, m1, m2, l1, l2 = params.n, params.m1, params.m2, params.l1, params.l2
    # The words, then one typical-pair entry per (w1, w2, j1, j2).
    total = (m1 * l1 + m2 * l2) * n + m1 * m2 * l1 * l2
    _check_budget(total, DEFAULT_CODEBOOK_SYMBOL_BUDGET, "the codebook's {} symbols", total)
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
        epsilon=epsilon,
        params=params,
    )


def encode_double_binning(cb: BinningCodebook, w1, w2, rng: np.random.Generator):
    """x^n for messages w1, w2 (ints, or integer arrays of one shape S) from jointly typical pairs.

    A pair (j1, j2) of the selected bins qualifies when the max-norm
    distance between its empirical joint type and the product target
    pv1 x pv2 is at most epsilon.  For the message pairs that have one,
    rng draws every pick, uniform over the qualifying pairs, then the
    uniforms of every x^n, synthesized per symbol from the pair map.  A
    message pair with none draws nothing, an observable event at small
    blocklength: it gets a row of -1 in the S + (n,) result, a single
    message pair included.
    """
    params = cb.params
    w1, w2 = _check_messages(params, w1, w2)
    typical = cb.typical[w1, w2]
    counts = typical.sum(axis=-1)
    sent = counts > 0
    picks = rng.integers(counts[sent])
    # j1 * l2 + j2 of each pick: the first member whose running count exceeds it.
    member = (typical[sent].cumsum(axis=-1) > picks[:, None]).argmax(axis=-1)
    j1, j2 = np.divmod(member, params.l2)
    pairs = cb.v1_words[w1[sent], j1] * cb.pv2.alphabet_size + cb.v2_words[w2[sent], j2]
    x = np.full(w1.shape + (params.n,), -1, np.int64)
    x[sent] = _sample_conditional(rng, cb.x_map.reshape(-1, cb.x_map.shape[-1]), pairs)
    return x


def run_error_experiment(
    cb: SuperpositionCodebook | BinningCodebook,
    channels: tuple[DiscreteChannel, DiscreteChannel],
    trials: int,
    seed: int,
) -> TrialResult:
    """Estimate the union decoding-error probability by Monte Carlo.

    Each trial draws uniform messages, encodes, sends the same x^n through
    both receiver channels with independent noise, and decodes with the ML
    decoders.  Trials run in blocks of _TRIAL_BLOCK (the last one shorter),
    and one Generator (_TAG_TRIALS) serves each block in this order: every
    w1, every w2, the encoder's draws (superposition: every j2, then every
    j1; double binning: the pair picks, then the x^n uniforms, of the
    trials that encode), every y1 noise draw, then every y2 one.  The
    union event counts a trial in which either receiver misses its own
    message.  For double-binning codebooks an encoding failure counts as
    an error at both receivers and is also tallied separately.
    """
    _check_integer(trials, "trials", 1)
    _check_integer(seed, "seed")
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
            return (
                _ml_index(cb.v1_words, y1, log_rx1) // params.l1,
                _ml_index(cb.v2_words, y2, log_rx2) // params.l2,
            )

    errors_rx1 = errors_rx2 = errors_union = failures = 0
    for start in range(0, trials, _TRIAL_BLOCK):
        size = min(_TRIAL_BLOCK, trials - start)
        w1 = rng.integers(params.m1, size=size)
        w2 = rng.integers(params.m2, size=size)
        x = encode(cb, w1, w2, rng)
        # An encoding failure (a row of -1) counts as an error at both receivers.
        sent = x[:, 0] >= 0
        y1 = transmit(x[sent], py1x, rng)
        y2 = transmit(x[sent], py2x, rng)
        w1_hat = np.full(size, -1)
        w2_hat = np.full(size, -1)
        w1_hat[sent], w2_hat[sent] = decode(y1, y2)
        err1 = w1_hat != w1
        err2 = w2_hat != w2
        errors_rx1 += int(err1.sum())
        errors_rx2 += int(err2.sum())
        errors_union += int((err1 | err2).sum())
        failures += size - int(sent.sum())

    return TrialResult(
        trials=trials,
        errors_rx1=errors_rx1,
        errors_rx2=errors_rx2,
        errors_union=errors_union,
        pe_estimate=errors_union / trials,
        interval=_clopper_pearson(errors_union, trials),
        encoding_failures=failures,
    )
