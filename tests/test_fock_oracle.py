import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from plasmonq.fock_oracle import (
    _BLOCK,
    JointNumberDistribution,
    _count_moments,
    _kernel_blocks,
    _thinning_kernel,
    binomial_thinning,
    joint_distribution,
    oracle_measurement,
)
from plasmonq.metrology import (
    ChannelEfficiencies,
    DivergenceError,
    ratio_tmsv,
    signal_mean,
    signal_std,
)
from plasmonq.quantum_states import (
    FockCoefficients,
    coherent_product,
    is_twin_mode,
    noon,
    squeezed_product,
    statistics,
    tmsv,
    twin_fock,
)

from fock_reference import oracle_ratio


def random_distribution(rng, size=10):
    probs = rng.random((size, size))
    return JointNumberDistribution(probs / probs.sum() * rng.uniform(0.3, 1.0))


def thinned_moments(state, r_abs, eff):
    """Schrödinger-picture reference: thin the joint distribution itself with
    ``T_a = r^2 eta_a^2`` and ``T_b = eta_b^2``, then sum ``l - k`` and
    ``(l - k)^2`` over the thinned ``P(k, l)``."""
    thinned = binomial_thinning(
        joint_distribution(state), r_abs**2 * eff.eta_a**2, eff.eta_b**2
    ).probs
    counts = np.arange(thinned.shape[0], dtype=float)
    diff = counts[np.newaxis, :] - counts[:, np.newaxis]  # l - k at (k, l)
    mean = float(np.sum(diff * thinned))
    second = float(np.sum(diff * diff * thinned))
    return mean, math.sqrt(max(0.0, second - mean * mean))


def test_joint_distribution_examples():
    assert joint_distribution(twin_fock(2)).probs[2, 2] == 1.0
    dist = joint_distribution(noon(1))
    assert dist.probs[2, 0] == pytest.approx(0.5, abs=1e-15)
    assert dist.probs[0, 2] == pytest.approx(0.5, abs=1e-15)
    dist = joint_distribution(coherent_product(1.0))
    for n, m in ((0, 0), (1, 2), (3, 3)):
        expected = math.exp(-2.0) / (math.factorial(n) * math.factorial(m))
        assert dist.probs[n, m] == pytest.approx(expected, rel=1e-12)


def test_thinning_identity_and_total_loss():
    rng = np.random.default_rng(3)
    dist = random_distribution(rng)
    unthinned = binomial_thinning(dist, 1.0, 1.0)
    assert np.allclose(unthinned.probs, dist.probs, atol=1e-15)
    dark = binomial_thinning(dist, 0.0, 0.0)
    assert dark.probs[0, 0] == pytest.approx(float(dist.probs.sum()), abs=1e-14)
    assert float(dark.probs.sum()) - dark.probs[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_thinning_preserves_mass():
    rng = np.random.default_rng(17)
    for _ in range(10):
        dist = random_distribution(rng)
        thinned = binomial_thinning(dist, rng.random(), rng.random())
        assert float(thinned.probs.sum()) == pytest.approx(
            float(dist.probs.sum()), abs=1e-14
        )


def test_thinning_composes_multiplicatively():
    rng = np.random.default_rng(23)
    for _ in range(5):
        dist = random_distribution(rng)
        t1a, t2a = rng.random(), rng.random()
        t1b, t2b = rng.random(), rng.random()
        twice = binomial_thinning(binomial_thinning(dist, t1a, t1b), t2a, t2b)
        once = binomial_thinning(dist, t1a * t2a, t1b * t2b)
        assert np.max(np.abs(twice.probs - once.probs)) < 1e-12


def test_thinning_scales_marginal_means_linearly():
    rng = np.random.default_rng(29)
    dist = random_distribution(rng)
    counts = np.arange(dist.cutoff + 1, dtype=float)
    t_a, t_b = 0.37, 0.81
    thinned = binomial_thinning(dist, t_a, t_b)
    assert counts @ thinned.probs.sum(axis=1) == pytest.approx(
        t_a * (counts @ dist.probs.sum(axis=1)), abs=1e-12
    )
    assert counts @ thinned.probs.sum(axis=0) == pytest.approx(
        t_b * (counts @ dist.probs.sum(axis=0)), abs=1e-12
    )


def test_thinning_kernel_matches_binomial_formula():
    """The kernel against C(n, k) T^k (1-T)^(n-k) by
    integer binomials; entries lie in [0, 1], so a few float64 ulps of 1."""
    for size in (1, 2, 60):
        for t in (0.0, 0.05, 0.37, 0.9, 1.0):
            reference = np.zeros((size, size))
            for n in range(size):
                for k in range(n + 1):
                    reference[k, n] = math.comb(n, k) * t**k * (1.0 - t) ** (n - k)
            assert np.max(np.abs(_thinning_kernel(size, t) - reference)) <= 1e-15


def test_thinning_kernel_matches_binomial_formula_across_block_edges():
    """Sizes on either side of the widths 1, 2, 4, ..., 64 that the blocked
    build fills per product, and past the first full-width block."""
    largest = 200
    for t in (0.0, 0.05, 0.37, 0.9, 1.0):
        reference = np.zeros((largest, largest))
        for n in range(largest):
            for k in range(n + 1):
                reference[k, n] = math.comb(n, k) * t**k * (1.0 - t) ** (n - k)
        for size in (3, 4, 5, 63, 64, 65, 66, 127, 128, 129, 130, largest):
            kernel = _thinning_kernel(size, t)
            assert np.max(np.abs(kernel - reference[:size, :size])) <= 1e-15


@pytest.mark.parametrize("t", [Fraction(3, 8), Fraction(31, 32)])
def test_thinning_kernel_exact_at_overflow_size(t):
    """At size 1117, where C(n, k) overflows float64, three columns against
    exact rationals: dyadic T makes float(T) exact."""
    size = 1117
    kernel = _thinning_kernel(size, float(t))
    assert np.all(np.isfinite(kernel))
    assert np.all((kernel >= 0.0) & (kernel <= 1.0))
    assert np.max(np.abs(kernel.sum(axis=0) - 1.0)) <= 1e-13
    p, q, d = t.numerator, t.denominator - t.numerator, t.denominator
    for n in (65, 700, 1116):
        exact = np.array(
            [math.comb(n, k) * p**k * q ** (n - k) / d**n for k in range(n + 1)]
        )
        column = kernel[:, n]
        assert np.all(column[n + 1:] == 0.0)
        big = exact > 1e-300
        rel = np.abs(column[:n + 1][big] - exact[big]) / exact[big]
        assert np.max(rel) <= 1e-12


def _whole_kernel(size, t):
    """Reference: the kernel built as one size x size matrix, filling the
    next ``w = min(n0, _BLOCK, size - 1 - n0)`` columns per product."""
    kernel = np.zeros((size, size))
    kernel[0, 0] = 1.0
    if size > 1:
        kernel[:2, 1] = (1.0 - t, t)
    shift = _BLOCK + np.arange(size)[:, np.newaxis] - np.arange(_BLOCK + 1)
    padded = np.zeros(_BLOCK + size)
    n0 = 1
    while n0 < size - 1:
        w = min(n0, _BLOCK, size - 1 - n0)
        rows = n0 + w + 1
        padded[_BLOCK:_BLOCK + n0 + 1] = kernel[:n0 + 1, n0]
        kernel[:rows, n0 + 1:n0 + w + 1] = padded[shift[:rows, :w + 1]] @ kernel[:w + 1, 1:w + 1]
        n0 += w
    return kernel


BLOCK_EDGE_SIZES = (1, 2, 3, 64, 65, 66, 129, 130, 200)


@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES)
def test_kernel_blocks_concatenate_to_the_whole_kernel_bit_for_bit(size):
    for t in (0.0, 0.05, 0.37, 0.9, 1.0):
        reference = _whole_kernel(size, t)
        end = 0
        for start, block in _kernel_blocks(size, t):
            assert start == end  # the blocks tile the columns left to right
            end = start + block.shape[1]
            assert block.shape[0] == end  # the block is L[:end, start:end]
            assert np.array_equal(block, reference[:end, start:end])
            assert not np.any(reference[end:, start:end])
        assert end == size
        assert np.array_equal(_thinning_kernel(size, t), reference)


@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES)
def test_count_moments_match_a_whole_kernel_reduction(size):
    counts = np.arange(size, dtype=float)
    for t in (0.0, 0.05, 0.37, 0.9):
        kernel = _whole_kernel(size, t)
        mean_ref = counts @ kernel
        var_ref = ((counts[:, np.newaxis] - mean_ref) ** 2 * kernel).sum(axis=0)
        mean, var = _count_moments(size, t)
        assert np.max(np.abs(mean - mean_ref) / np.maximum(mean_ref, 1.0)) <= 1e-15
        assert np.max(np.abs(var - var_ref) / np.maximum(var_ref, 1.0)) <= 1e-15
    mean, var = _count_moments(size, 1.0)
    assert np.array_equal(mean, counts) and not np.any(var)


# Transmittances on two leading axes, so that the stacked build's ``...``
# indexing is exercised past one axis, with a lossless row among lossy ones.
STACKED_T = np.array([[0.0, 0.05, 0.37], [0.9, 1.0, 0.6180339887498949]])


@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES)
def test_a_stacked_kernel_build_gives_every_row_the_bits_of_a_scalar_build(size):
    """One build over an array of transmittances against one build per element.
    Each gather before a product is in C order, so a stacked product sees the
    operand layout of the 2-D one: rows match bit for bit, the single-column
    products that end the builds at sizes 66 and 130 included."""
    stacked = list(_kernel_blocks(size, STACKED_T))
    mean, var = _count_moments(size, STACKED_T)
    assert mean.shape == var.shape == STACKED_T.shape + (size,)
    for index in np.ndindex(STACKED_T.shape):
        t = float(STACKED_T[index])
        scalar = list(_kernel_blocks(size, t))
        assert [start for start, _ in stacked] == [start for start, _ in scalar]
        for (_, rows), (_, block) in zip(stacked, scalar):
            assert rows.shape == STACKED_T.shape + block.shape
            assert np.array_equal(rows[index], block)
        scalar_mean, scalar_var = _count_moments(size, t)
        assert np.array_equal(mean[index], scalar_mean)
        assert np.array_equal(var[index], scalar_var)


VALIDATE_STATES = [
    lambda: coherent_product(1.0),
    lambda: twin_fock(1),
    lambda: twin_fock(2),
    lambda: tmsv(1.0),
    lambda: noon(1),
    lambda: squeezed_product(0.5),
]


@pytest.mark.parametrize("build", VALIDATE_STATES)
def test_an_oracle_call_over_reflectances_gives_the_bits_of_scalar_calls(build):
    """``validate``'s six states and three efficiency pairs, at its five
    reflectances, the two mirror limits, and 0.2551, whose square by Python's
    float power is one ulp below its product square.  A dark reference arm
    (``eta_b = 0``) adds nothing that could round that ulp away."""
    state = build()
    r_abs = np.array([*np.sqrt([0.05, 0.3, 0.5, 0.7, 0.95]), 0.0, 1.0, 0.2551])
    for etas in ((1.0, 1.0), (0.8, 0.8), (0.9, 0.6), (1.0, 0.0)):
        eff = ChannelEfficiencies(*etas)
        stats = oracle_measurement(state, r_abs, eff)
        assert stats.mean.shape == stats.std.shape == r_abs.shape
        for r, mean, std in zip(r_abs.tolist(), stats.mean.tolist(), stats.std.tolist()):
            scalar = oracle_measurement(state, r, eff)
            assert (mean, std) == (scalar.mean, scalar.std)
        square = oracle_measurement(state, r_abs.reshape(2, 4), eff)
        assert np.array_equal(square.mean, stats.mean.reshape(2, 4))
        assert np.array_equal(square.std, stats.std.reshape(2, 4))
    zero_d = oracle_measurement(state, np.asarray(0.5), eff)
    assert type(zero_d.mean) is float and type(zero_d.std) is float


def test_the_oracle_squares_a_reflectance_by_float_power():
    """Twin Fock N = 1 into a dark reference arm has mean ``-T_a``: the
    transmittance is ``r_abs ** 2`` by Python's float power, as it always was,
    for a float and for each element of an array."""
    dark = ChannelEfficiencies(1.0, 0.0)
    assert 0.2551**2 != 0.2551 * 0.2551
    assert oracle_measurement(twin_fock(1), 0.2551, dark).mean == -(0.2551**2)
    assert oracle_measurement(twin_fock(1), np.array([0.2551]), dark).mean[0] == -(0.2551**2)


@pytest.mark.parametrize("bad", [[0.5, math.nan], [-0.1], [1.1]])
def test_the_oracle_names_the_first_reflectance_outside_the_unit_interval(bad):
    eff = ChannelEfficiencies(1.0, 1.0)
    with pytest.raises(ValueError) as scalar:
        oracle_measurement(twin_fock(1), bad[-1], eff)
    with pytest.raises(ValueError) as array:
        oracle_measurement(twin_fock(1), np.array(bad), eff)
    assert str(array.value) == str(scalar.value) == f"r_abs must lie in [0, 1], got {bad[-1]}"


def _peak_mb(run):
    """``run()`` and its tracemalloc peak in MB above the memory live before it."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = run()
    return result, (tracemalloc.get_traced_memory()[1] - base) / 1e6


def _traced_peaks(build, eff):
    """The state, and the peaks of building it and of statistics(), the oracle
    and is_twin_mode on it."""
    warm = tmsv(10.0)  # size 242, past the first kernel block: warms up lazy numpy set-up
    oracle_measurement(warm, 0.5, eff)
    statistics(warm)
    is_twin_mode(warm)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        state, build_peak = _peak_mb(build)
        peaks = [build_peak] + [
            _peak_mb(run)[1] for run in (lambda: statistics(state),
                                         lambda: oracle_measurement(state, 0.5, eff),
                                         lambda: is_twin_mode(state))]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return state, peaks


def test_state_layer_and_oracle_hold_little_beyond_the_state():
    """At TMSV N = 48 (size 1117, 10 MB as a dense float64 matrix): the state
    holds its 1117 diagonal entries, and statistics() and the oracle sum over them."""
    state, (build, stats, oracle, twin) = _traced_peaks(lambda: tmsv(48.0),
                                                         ChannelEfficiencies(0.8, 0.9))
    assert state.cutoff + 1 == 1117 and len(state.values) == 1117
    assert build < 14.9
    assert stats < 2.49, "statistics()"
    assert oracle < 2.49, "oracle_measurement"
    assert twin < 2.49, "is_twin_mode"


def test_the_oracle_runs_at_the_cutoff_cap_in_little_memory():
    """TMSV at the largest auto cutoff, size 4097: 134 MB as a dense matrix."""
    state, peaks = _traced_peaks(lambda: tmsv(48.0, cutoff=4096), ChannelEfficiencies(0.8, 0.9))
    assert state.cutoff + 1 == 4097
    assert max(peaks) < 16.0, peaks


def test_the_oracle_over_five_reflectances_holds_five_stacked_kernel_blocks():
    """At TMSV N = 48 (size 1117), ``validate``'s five reflectances in one
    call: mode a's kernel blocks are built five deep, so the peak grows with
    the number of reflectances.  6.56 MB measured (numpy 2.4, against 1.93 MB
    for one reflectance); the bound is that plus 10%.  It was 9.14 MB while the
    previous block stayed alive during the next one's build."""
    eff = ChannelEfficiencies(0.8, 0.9)
    r_abs = np.sqrt([0.05, 0.3, 0.5, 0.7, 0.95])
    oracle_measurement(tmsv(10.0), r_abs, eff)  # size 242: warms up lazy numpy set-up
    state = tmsv(48.0)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        stats, peak = _peak_mb(lambda: oracle_measurement(state, r_abs, eff))
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert state.cutoff + 1 == 1117 and stats.mean.shape == (5,)
    assert peak < 6.56 * 1.1


@pytest.mark.parametrize(
    "build",
    [
        lambda: coherent_product(1.0),
        lambda: coherent_product(-2.5),
        lambda: twin_fock(2),
        lambda: tmsv(1.0),
        lambda: noon(2),
        lambda: squeezed_product(0.5),
        lambda: squeezed_product(3.0),
        lambda: tmsv(48.0),
    ],
)
def test_real_storage_gives_the_bits_of_complex_storage(build):
    """|C|^2 of a float64 entry is the |C|^2 of the same complex entry, so the
    statistics and the oracle moments do not depend on the stored dtype."""
    state = build()
    as_complex = FockCoefficients(state.coeffs.astype(complex))
    assert state.coeffs.dtype == np.float64 and as_complex.coeffs.dtype == np.complex128
    assert statistics(state) == statistics(as_complex)
    eff = ChannelEfficiencies(0.8, 0.9)
    for r_abs in (0.3, 1.0):
        assert oracle_measurement(state, r_abs, eff) == oracle_measurement(as_complex, r_abs, eff)


def test_single_photon_thinning_by_hand():
    dist = binomial_thinning(joint_distribution(twin_fock(1)), 0.5, 1.0)
    assert dist.probs[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert dist.probs[1, 1] == pytest.approx(0.5, abs=1e-15)
    stats = oracle_measurement(twin_fock(1), math.sqrt(0.5), ChannelEfficiencies(1, 1))
    assert stats.mean == pytest.approx(0.5, abs=1e-15)
    assert stats.std == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize(
    "build",
    [
        lambda: coherent_product(1.0),
        lambda: twin_fock(2),
        lambda: tmsv(1.0),
        lambda: noon(2),
        lambda: squeezed_product(0.5),
        # auto-cutoff size ~1117: C(n, k) there exceeds the float range
        lambda: tmsv(48.0),
    ],
)
@pytest.mark.parametrize("r2", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("etas", [(1.0, 1.0), (0.9, 0.6)])
def test_oracle_agrees_with_moment_formulas(build, r2, etas):
    """Brute-force channels and the closed forms describe the same physics;
    with statistics taken from the same truncated expansion the two must
    coincide to rounding."""
    state = build()
    stats = statistics(state)
    eff = ChannelEfficiencies(*etas)
    r_abs = math.sqrt(r2)
    brute = oracle_measurement(state, r_abs, eff)
    assert brute.mean == pytest.approx(
        signal_mean(r_abs, eff, stats.mean_a), abs=1e-12
    )
    assert brute.std == pytest.approx(
        signal_std(r_abs, eff, stats.mean_a, stats.q_mandel, stats.sigma), abs=1e-12
    )


def _cut_tmsv():
    """TMSV at N = 2 cut to 6 x 6: (2/3)^6, about 9%, of its mass is missing."""
    state = FockCoefficients(tmsv(2.0).coeffs[:6, :6])
    assert state.truncation_weight > 0.05
    return state


@pytest.mark.parametrize(
    "build",
    [
        lambda: coherent_product(1.0),
        lambda: twin_fock(1),
        lambda: twin_fock(2),
        lambda: tmsv(1.0),
        lambda: noon(1),
        lambda: squeezed_product(0.5),
        lambda: tmsv(48.0),
        _cut_tmsv,
    ],
)
@pytest.mark.parametrize("t_a", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("t_b", [0.0, 0.3, 1.0])
def test_oracle_agrees_with_thinned_distribution(build, t_a, t_b):
    """The adjoint-channel sums give the moments of the thinned joint
    distribution: the same kernels, summed in another order."""
    state = build()
    r_abs, eff = math.sqrt(t_a), ChannelEfficiencies(1.0, math.sqrt(t_b))
    mean, std = thinned_moments(state, r_abs, eff)
    stats = oracle_measurement(state, r_abs, eff)
    assert stats.mean == pytest.approx(mean, abs=1e-12)
    assert stats.std == pytest.approx(std, abs=1e-12)


def test_balanced_lossless_twin_fock_has_silent_output():
    stats = oracle_measurement(twin_fock(2), 1.0, ChannelEfficiencies(1, 1))
    assert stats.mean == 0.0
    assert stats.std == 0.0


def test_oracle_ratio_reproduces_twin_fock_closed_form():
    got = oracle_ratio(twin_fock(1), 1.0, math.sqrt(0.5), 1.0)
    assert got == pytest.approx(math.sqrt(6.0), abs=1e-10)


def test_oracle_ratio_of_coherent_against_itself_is_unity():
    got = oracle_ratio(coherent_product(1.0), 1.0, 0.4, 0.9)
    assert got == pytest.approx(1.0, abs=1e-8)


def test_oracle_ratio_tmsv_low_reflectance_trend():
    got = oracle_ratio(tmsv(1.0), 1.0, 1e-2, 1.0)
    assert got == pytest.approx(ratio_tmsv(1e-2, 1.0), abs=1e-6)
    assert got == pytest.approx((1 + 1.0) ** -0.5, abs=1e-3)


def test_oracle_ratio_diverges_when_state_noise_vanishes():
    with pytest.raises(DivergenceError):
        oracle_ratio(twin_fock(1), 1.0, 1.0, 1.0)


def test_distribution_validation():
    with pytest.raises(ValueError):
        JointNumberDistribution(np.array([[0.5, -0.1], [0.2, 0.2]]))
    with pytest.raises(ValueError):
        JointNumberDistribution(np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        JointNumberDistribution(np.zeros((2, 3)))


def test_thinning_and_measurement_input_validation():
    dist = joint_distribution(twin_fock(1))
    with pytest.raises(ValueError):
        binomial_thinning(dist, 1.2, 0.5)
    with pytest.raises(ValueError):
        binomial_thinning(dist, 0.5, -0.1)
    with pytest.raises(ValueError):
        oracle_measurement(twin_fock(1), 1.5, ChannelEfficiencies(1, 1))


def test_leakage_tracks_truncated_mass():
    state = tmsv(2.0)
    dist = joint_distribution(state)
    assert dist.leakage == pytest.approx(state.truncation_weight, abs=1e-15)
    assert 0.0 < dist.leakage < 1e-10
