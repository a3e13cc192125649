import re

import numpy as np
import pytest

from bcc_secrecy import (
    BudgetExceeded,
    CodeParams,
    DimensionMismatch,
    DiscreteChannel,
    GaussianParams,
    InvalidDistribution,
    NegativeEntry,
    Pmf,
    SumNotOne,
    build_double_binning,
    capacity_fn,
    cascade,
    build_superposition,
    check_stochastic_degraded,
    decode_rx2,
    degraded_region_inner,
    encode_superposition,
    gaussian_region_point,
    general_rate_terms,
    transmit,
    upper_right_hull,
)
from bcc_secrecy.channels import _check_budget, _check_finite, _check_integer, _check_range
from bcc_secrecy.formats import parse_channel, parse_experiment

BSC = DiscreteChannel.binary_symmetric


def random_stochastic(rng, n_in, n_out):
    m = rng.random((n_in, n_out)) + 0.05
    return DiscreteChannel(m / m.sum(axis=1, keepdims=True))


def parse_tensor(joint):
    """Marginals (y1, y2, z) of a P(y1, y2, z | x) tensor, parsed as a "bcc" channel file."""
    x, y1, y2, z = joint.shape
    data = {"type": "bcc", "x": x, "y1": y1, "y2": y2, "z": z, "joint": joint.ravel().tolist()}
    m = parse_channel(data)
    return m.py1x, m.py2x, m.pzx


class TestValidatePmf:
    def test_uniform_binary_is_valid(self):
        Pmf((0.5, 0.5))

    def test_sum_above_one_rejected(self):
        with pytest.raises(SumNotOne, match="1.1"):
            Pmf((0.5, 0.6))

    def test_sign_check_dominates_sum_tolerance(self):
        # the sum 1 - 1e-12 is fine; the negative entry is not
        with pytest.raises(NegativeEntry, match="index 1"):
            Pmf((1.0, -1e-12))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidDistribution, match="non-finite"):
            Pmf((0.5, float("nan")))

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidDistribution):
            Pmf([[0.5, 0.5]])


class TestPmf:
    def test_constructors(self):
        assert Pmf.uniform(4).probs.tolist() == [0.25] * 4
        assert Pmf((0, 1, 0)).probs.tolist() == [0.0, 1.0, 0.0]

    def test_array_is_read_only(self):
        p = Pmf.uniform(2)
        with pytest.raises(ValueError):
            p.probs[0] = 0.3

    def test_invalid_rejected_at_construction(self):
        with pytest.raises(SumNotOne):
            Pmf((0.2, 0.2))

    @pytest.mark.parametrize("k", [0, -1, True, 2.0, np.int64(2)])
    def test_uniform_size_is_a_positive_int(self, k):
        # Pmf.uniform(0) divided by zero; True gave a one-symbol pmf.
        message = f"^alphabet size must be .*, got {re.escape(repr(k))}$"
        with pytest.raises(InvalidDistribution, match=message):
            Pmf.uniform(k)


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

    @pytest.mark.parametrize("crossover", [True, False, float("nan"), "0.1", None])
    def test_bsc_crossover_is_a_number(self, crossover):
        # float() read True as BSC(1.0) and "0.1" as BSC(0.1).
        with pytest.raises(InvalidDistribution, match="crossover probability must be a finite number"):
            BSC(crossover)
        assert BSC(np.float64(0.25)).matrix.tolist() == [[0.75, 0.25], [0.25, 0.75]]

    def test_identity(self):
        ch = DiscreteChannel(np.eye(3, dtype=int))
        assert ch.matrix.dtype == np.float64 and np.array_equal(ch.matrix, np.eye(3))
        assert (ch.input_size, ch.output_size) == (3, 3)


class TestScalarChecks:
    """The one integer, finite-number and budget rule that every module's scalars go through."""

    @pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2", None, np.int64(2), np.int32(2)])
    def test_integer_never_coerced(self, value):
        message = f"^count must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidDistribution, match=message):
            _check_integer(value, "count")

    def test_integer_bounds(self):
        assert _check_integer(-(10**30), "seed") == -(10**30)
        assert _check_integer(0, "budget", 0) == 0
        assert _check_integer(12, "card", 1, 12) == 12
        cases = [
            ((0, "n", 1), "n must be positive, got 0"),
            ((-1, "budget", 0), "budget must be nonnegative, got -1"),
            ((1, "steps", 2), "steps must be at least 2, got 1"),
            ((13, "card", 1, 12), r"card must lie in \[1, 12\], got 13"),
            ((0, "card", 1, 12), r"card must lie in \[1, 12\], got 0"),
            ((2.5, "n", 1), r"n must be a positive integer, got 2\.5"),
            ((True, "budget", 0), "budget must be a nonnegative integer, got True"),
        ]
        for args, message in cases:
            with pytest.raises(InvalidDistribution, match=f"^{message}$"):
                _check_integer(*args)

    def test_finite(self):
        assert _check_finite(3, "power") == 3.0 and type(_check_finite(3, "power")) is float
        assert _check_finite(np.float64(0.5), "power") == 0.5
        assert _check_finite(-1e308, "power") == -1e308
        bad = [float("nan"), float("inf"), -float("inf"), 10**400, True, "1", None, np.float32(1)]
        for value in bad:
            with pytest.raises(InvalidDistribution, match="^power must be a finite number, got"):
                _check_finite(value, "power")

    def test_budget(self):
        _check_budget(10, 10, "10 rows")
        with pytest.raises(BudgetExceeded, match="^11 rows exceed budget 10$"):
            _check_budget(11, 10, "11 rows")
        # The budget is checked first, whatever the total: a NaN cap turned itself off.
        for budget in (float("nan"), True, 1e9):
            with pytest.raises(InvalidDistribution, match="^budget must be a nonnegative integer, got"):
                _check_budget(0, budget, "0 rows")
        with pytest.raises(InvalidDistribution, match="^budget must be nonnegative, got -1$"):
            _check_budget(0, -1, "0 rows")

    def test_budget_message_counts(self):
        with pytest.raises(BudgetExceeded, match=r"^3 x 4 = 12 cells exceed budget 10$"):
            _check_budget(12, 10, "{} x {} = {} cells", 3, 4, 12)
        # Exact below 10**15; above, 2^k for a power of two, else three leading
        # digits (truncated) and the exponent, for counts of any size.
        cases = [
            (10**15 - 1, "999999999999999"),
            (10**15, "1.00e15"),
            (2**50, "2^50"),
            (123456789 * 10**20, "1.23e28"),
            (999999 * 10**100 - 1, "9.99e105"),
            (10**400, "1.00e400"),
            (10**400 - 1, "9.99e399"),
            (3**20000, "2.66e9542"),
            (2**20000, "2^20000"),
        ]
        for count, text in cases:
            with pytest.raises(BudgetExceeded, match=rf"^{re.escape(text)} rows exceed budget 0$"):
                _check_budget(count, 0, "{} rows", count)
        with pytest.raises(BudgetExceeded, match=r"^2\^20000 rows exceed budget 1.00e300$"):
            _check_budget(2**20000, 10**300, "{} rows", 2**20000)
        rng = np.random.default_rng(5)
        for digits in rng.integers(16, 60, size=50):
            count = int("".join(map(str, rng.integers(1, 10, size=int(digits)))))
            want = f"{str(count)[0]}.{str(count)[1:3]}e{len(str(count)) - 1}"
            with pytest.raises(BudgetExceeded, match=rf"^{re.escape(want)} rows"):
                _check_budget(count, 0, "{} rows", count)


def _pair_map(rows):
    return build_double_binning(CodeParams(4, 2, 2, 1, 1, 0), Pmf.uniform(2), Pmf.uniform(2), rows, 0.1)


GAUSSIAN = GaussianParams(power=1.0, n1=0.25, n2=0.5, n3=1.0)
CHAIN = (BSC(0.05), BSC(0.14), BSC(0.2336))
ONE_HOT = np.stack([np.eye(2), np.eye(2)[::-1]])  # a (2, 2, 2) map whose rows are point masses

# Argument name -> (a call that takes the argument, a 0/1 value it accepts as floats).
ARRAY_ARGUMENTS = {
    "pmf": (Pmf, [0, 1]),
    "channel matrix": (DiscreteChannel, np.eye(2)),
    "x_map": (_pair_map, ONE_HOT),
    "joint": (lambda v: general_rate_terms(v, np.full((2, 2, 2), 0.5), *CHAIN), [[0, 1], [0, 0]]),
    "x-map": (lambda v: general_rate_terms(np.full((2, 2), 0.25), v, *CHAIN), ONE_HOT),
    "alpha": (lambda v: gaussian_region_point(GAUSSIAN, v), [0, 1]),
    "snr": (capacity_fn, [0, 1]),
    "rate points": (upper_right_hull, [[0, 1], [1, 0]]),
}


def _not_numbers(value):
    """The value as a bool array, nested bools, nested strings, and ints with one True."""
    ones = np.asarray(value, dtype=np.float64) > 0
    mixed = ones.astype(int).astype(object)
    mixed.flat[np.argmax(ones)] = True
    return [ones, ones.tolist(), ones.astype(int).astype(str).tolist(), mixed.tolist()]


class TestArrayChecks:
    """The one rule that every array argument goes through: real numbers, never coerced."""

    @pytest.mark.parametrize("name", sorted(ARRAY_ARGUMENTS))
    def test_bools_and_strings_rejected_naming_the_argument(self, name):
        # Each of these once converted with np.asarray, reading True and "1" as 1.0.
        call, value = ARRAY_ARGUMENTS[name]
        call(value)
        for bad in _not_numbers(value) + [True, "1"]:
            with pytest.raises(InvalidDistribution, match=f"^{name} must be an array of numbers, got"):
                call(bad)

    @pytest.mark.parametrize("name", sorted(ARRAY_ARGUMENTS))
    def test_numpy_scalar_entries_accepted(self, name):
        call, value = ARRAY_ARGUMENTS[name]
        cells = np.asarray(value, dtype=object)
        kinds = (np.float32, np.int64)
        scalars = [kinds[i % 2](cell) for i, cell in enumerate(cells.flat)]
        call(np.array(scalars, dtype=object).reshape(cells.shape).tolist())

    @pytest.mark.parametrize(
        "value",
        [[1 + 0j, 0], [10**400, 0], [[0.5], [0.5, 0.0]], None, {"a": 1.0}, np.array([1.0], object)],
    )
    def test_other_non_numbers_rejected(self, value):
        with pytest.raises(InvalidDistribution, match="^pmf must be an array of numbers, got"):
            Pmf(value)

    def test_values_equal_the_float_conversion(self):
        assert Pmf([np.float32(0.25), np.int64(0), 0.75]).probs.tolist() == [0.25, 0.0, 0.75]
        assert DiscreteChannel(np.eye(2, dtype=np.uint8)).matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_caller_array_stays_writeable_and_unchanged(self):
        probs, matrix = np.array([0.25, 0.75]), np.eye(2)
        pmf, channel = Pmf(probs), DiscreteChannel(matrix)
        assert probs.flags.writeable and matrix.flags.writeable
        probs[0], matrix[0, 0] = 0.5, 0.5
        assert pmf.probs.tolist() == [0.25, 0.75]
        assert channel.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert not pmf.probs.flags.writeable and not channel.matrix.flags.writeable

    def test_dimension_mismatch_is_an_invalid_distribution(self):
        assert issubclass(DimensionMismatch, InvalidDistribution)
        assert issubclass(DimensionMismatch, ValueError)
        message = r"^pmf must have 1 axes and be nonempty, got shape \(0,\)$"
        with pytest.raises(DimensionMismatch, match=message):
            Pmf([])


def _superposition():
    return build_superposition(CodeParams(3, 2, 2, 1, 1, 0), Pmf.uniform(2), BSC(0.1))


# The library's value-range and symbol rules: (a call breaking one, the message it must raise).
RANGE_AND_SYMBOL_RULES = {
    "power": (lambda: GaussianParams(0.0, 0.25, 0.5, 1.0), "power must be positive, got 0.0"),
    "noise chain": (
        lambda: GaussianParams(1.0, 0.5, 0.25, 1.0),
        "noise variances must satisfy 0 < n1 <= n2 <= n3, got (0.5, 0.25, 1.0)",
    ),
    # Finite fields whose largest SNR overflows once gave inf (first) or nan (second) rates.
    "largest snr": (
        lambda: GaussianParams(1.0, 5e-324, 1.0, 2.0),
        "largest SNR power / n1 must be a finite number, got inf",
    ),
    "largest snr, equal noises": (
        lambda: GaussianParams(1e300, 1e-10, 1e-10, 1e-10),
        "largest SNR power / n1 must be a finite number, got inf",
    ),
    "crossover": (lambda: BSC(1.5), "crossover probability must lie in [0, 1], got 1.5"),
    "snr": (lambda: capacity_fn(-1.0), "snr must be nonnegative, got -1.0"),
    "alpha": (lambda: gaussian_region_point(GAUSSIAN, 2.0), "alpha must lie in [0, 1], got 2.0"),
    "resolution 1/k": (
        lambda: degraded_region_inner(*CHAIN, resolution=0.3),
        "resolution must be 1/k for integer k, got 0.3",
    ),
    "resolution range": (
        lambda: degraded_region_inner(*CHAIN, resolution=0.0),
        "resolution must lie in (0, 1], got 0.0",
    ),
    "empty points": (lambda: upper_right_hull([]), "empty point set"),
    "negative point": (
        lambda: upper_right_hull([[0.5, 0.25], [-0.125, 1.0]]),
        "rate points must be nonnegative, got -0.125",
    ),
    "nan point": (lambda: upper_right_hull([[0.5, np.nan]]), "non-finite rate points, got nan"),
    "epsilon": (
        lambda: build_double_binning(
            CodeParams(4, 2, 2, 1, 1, 0), Pmf.uniform(2), Pmf.uniform(2), ONE_HOT, -1.0
        ),
        "epsilon must be positive, got -1.0",
    ),
    "transmit symbol": (
        lambda: transmit(np.array([0, 2]), BSC(0.1), np.random.default_rng(0)),
        "sequence symbols outside the channel input alphabet [0, 2)",
    ),
    "message": (
        lambda: encode_superposition(_superposition(), 2, 0, np.random.default_rng(0)),
        "messages w1 outside [0, 2)",
    ),
    "observation symbol": (
        lambda: decode_rx2(_superposition(), np.array([0, 1, 2]), BSC(0.1)),
        "observation symbols outside the channel output alphabet [0, 2)",
    ),
}


class TestRangeAndSymbolChecks:
    """Value ranges and symbol arrays are judged in channels, so each rejection is an
    InvalidDistribution naming the parameter."""

    @pytest.mark.parametrize("rule", sorted(RANGE_AND_SYMBOL_RULES))
    def test_rejection_is_an_invalid_distribution(self, rule):
        call, message = RANGE_AND_SYMBOL_RULES[rule]
        with pytest.raises(InvalidDistribution, match=f"^{re.escape(message)}$"):
            call()

    def test_range_messages(self):
        cases = [
            ((np.array([0.5, -1.0, 2.0]), "x", 0), "x must be nonnegative, got -1.0"),
            (([0.5, 0.0], "x", 0, None, True), "x must be positive, got 0.0"),
            (([2.0, 0.5], "x", 1), "x must be at least 1, got 0.5"),
            (([2.0, 1.0], "x", 1, None, True), "x must be above 1, got 1.0"),
            (([0.5, 1.5, -1.0], "x", 0, 1), r"x must lie in [0, 1], got 1.5"),
            (([0.5, 0.0], "x", 0, 1, True), r"x must lie in (0, 1], got 0.0"),
            (([0.5, np.nan], "x", 0, 1), r"x must lie in [0, 1], got nan"),
            (([np.inf, -1.0], "x", 0, None, False, True), "non-finite x, got inf"),
            (([1.0, -1.0, np.inf], "x", 0, None, False, True), "x must be nonnegative, got -1.0"),
        ]
        for args, message in cases:
            with pytest.raises(InvalidDistribution, match=f"^{re.escape(message)}$"):
                _check_range(*args)
        assert _check_range([np.inf, 0.0], "x", 0).tolist() == [np.inf, 0.0]
        assert _check_finite(0.5, "x", 0, 1, strict=True) == 0.5
        with pytest.raises(InvalidDistribution, match=r"^x must lie in \(0, 1\], got 0\.0$"):
            _check_finite(0, "x", 0, 1, strict=True)

    def test_float64_array_is_not_copied(self):
        values = np.array([[0.5, 0.25], [1.0, 0.0]])
        assert _check_range(values, "rate points", 0, finite=True) is values


# One instance of each frozen dataclass that holds an ndarray.
ARRAY_HOLDERS = {
    "Pmf": lambda: Pmf.uniform(2),
    "DiscreteChannel": lambda: BSC(0.1),
    "SuperpositionCodebook": _superposition,
    "BinningCodebook": lambda: _pair_map(ONE_HOT),
    "ExperimentConfig": lambda: parse_experiment(
        {
            "scheme": "superposition", "n": 2, "m1": 2, "m2": 2, "pu": [0.5, 0.5],
            "pxu": [[1, 0], [0, 1]],
            "channel": {"type": "bcc-marginals", "py1x": np.eye(2).tolist(),
                        "py2x": np.eye(2).tolist(), "pzx": np.eye(2).tolist()},
        }
    ),
}


class TestArrayHolders:
    @pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
    def test_compared_by_identity_and_hashable(self, name):
        # The generated __eq__ compared arrays with ==, and raised on their truth value.
        first, second = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
        assert type(first).__name__ == name
        assert (first == second) is False and (first != second) is True
        assert (first == first) is True
        assert len({first, second, first}) == 2 and first in {first}


class TestCascade:
    def test_bsc_composition_rule(self):
        # crossover p + q - 2pq
        out = cascade(BSC(0.1), BSC(0.1))
        assert np.allclose(out.matrix, BSC(0.18).matrix, atol=1e-12)

    def test_identity_is_neutral(self):
        ch = BSC(0.3)
        assert np.array_equal(cascade(ch, DiscreteChannel(np.eye(2))).matrix, ch.matrix)
        assert np.array_equal(cascade(DiscreteChannel(np.eye(2)), ch).matrix, ch.matrix)

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
    """A "bcc" channel file's tensor is validated one slice per input."""

    def test_slice_sum_violation_names_input(self):
        joint = np.full((2, 2, 2, 2), 1.0 / 8)
        joint[1] *= 0.5
        with pytest.raises(SumNotOne, match="slice for input 1 of broadcast tensor sums to 0.5"):
            parse_tensor(joint)

    def test_negative_entry_rejected(self):
        joint = np.full((1, 2, 2, 2), 1.0 / 8)
        joint[0, 0, 0, 0] = -0.125
        joint[0, 1, 1, 1] = 0.375
        with pytest.raises(NegativeEntry, match="of broadcast tensor is negative"):
            parse_tensor(joint)


class TestMarginalChannel:
    """A "bcc" channel file loads to the marginals P(y1|x), P(y2|x), P(z|x) of its tensor."""

    def test_product_channel_recovers_factors(self):
        rng = np.random.default_rng(11)
        p1 = random_stochastic(rng, 2, 3)
        p2 = random_stochastic(rng, 2, 2)
        pz = random_stochastic(rng, 2, 4)
        joint = np.einsum("xa,xb,xc->xabc", p1.matrix, p2.matrix, pz.matrix)
        for got, want in zip(parse_tensor(joint), (p1, p2, pz)):
            assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12

    def test_markov_chain_tensor_marginal_is_matrix_cascade(self):
        rng = np.random.default_rng(5)
        py1x = random_stochastic(rng, 2, 3)
        py2y1 = random_stochastic(rng, 3, 2)
        pzy2 = random_stochastic(rng, 2, 2)
        joint = np.einsum("xa,ab,bc->xabc", py1x.matrix, py2y1.matrix, pzy2.matrix)
        _, y2, z = parse_tensor(joint)
        expected = cascade(py1x, py2y1).matrix
        assert np.max(np.abs(y2.matrix - expected)) <= 1e-12
        expected_z = cascade(cascade(py1x, py2y1), pzy2).matrix
        assert np.max(np.abs(z.matrix - expected_z)) <= 1e-12

    def test_point_mass_row(self):
        joint = np.zeros((2, 2, 2, 2))
        joint[0, 1, 0, 1] = 1.0
        joint[1] = 1.0 / 8
        y1, y2, z = parse_tensor(joint)
        assert y1.matrix[0].tolist() == [0.0, 1.0]
        assert y2.matrix[0].tolist() == [1.0, 0.0]
        assert z.matrix[0].tolist() == [0.0, 1.0]

    def test_random_tensors_yield_valid_marginals(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            raw = rng.random((3, 2, 2, 2))
            raw /= raw.reshape(3, -1).sum(axis=1)[:, None, None, None]
            for ch in parse_tensor(raw):  # construction validates
                assert np.max(np.abs(ch.matrix.sum(axis=1) - 1.0)) <= 1e-9


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
