import math
from fractions import Fraction

import numpy as np
import pytest

from plasmonq.fock_oracle import (
    JointNumberDistribution,
    _thinning_kernel,
    binomial_thinning,
    joint_distribution,
    oracle_measurement,
    oracle_ratio,
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
    noon,
    squeezed_product,
    statistics,
    tmsv,
    twin_fock,
)


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
