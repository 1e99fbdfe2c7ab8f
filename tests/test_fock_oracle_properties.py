"""Property tests of the Fock oracle and the photon statistics it checks."""

import math

import numpy as np
import pytest

from plasmonq.fock_oracle import oracle_measurement
from plasmonq.metrology import (
    STATE_FAMILIES,
    ChannelEfficiencies,
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

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_fock_oracle import thinned_moments  # noqa: E402

# Each registered family at per-mode mean N; the number-state families
# round N up.
CONSTRUCTORS = {
    "coherent": lambda n: coherent_product(math.sqrt(n)),
    "twin-fock": lambda n: twin_fock(math.ceil(n)),
    "tmsv": tmsv,
    "noon": lambda n: noon(math.ceil(n)),
    "squeezed": squeezed_product,
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(STATE_FAMILIES),
    n_photons=st.floats(0.01, 3.0),
    r_abs=st.floats(0.0, 1.0),
    eta_a=st.floats(0.0, 1.0),
    eta_b=st.floats(0.0, 1.0),
)
def test_oracle_matches_closed_forms_at_random_channels(
    family, n_photons, r_abs, eta_a, eta_b
):
    """Thinning the truncated expansion and the closed forms fed with that
    expansion's statistics give the same difference moments to rounding."""
    state = CONSTRUCTORS[family](n_photons)
    stats = statistics(state)
    eff = ChannelEfficiencies(eta_a, eta_b)
    brute = oracle_measurement(state, r_abs, eff)
    assert brute.mean == pytest.approx(
        signal_mean(r_abs, eff, stats.mean_a), abs=1e-12
    )
    assert brute.std == pytest.approx(
        signal_std(r_abs, eff, stats.mean_a, stats.q_mandel, stats.sigma), abs=1e-12
    )


@st.composite
def twin_mode_states(draw):
    """Normalised states with ``|C|`` symmetric under mode exchange and
    arbitrary phases, on 2 to 6 photon numbers per mode."""
    size = draw(st.integers(2, 6))
    entries = st.lists(st.floats(0.0, 1.0), min_size=size * size, max_size=size * size)
    mags = np.reshape(draw(entries), (size, size))
    mags = (mags + mags.T) / 2.0
    phases = np.reshape(
        draw(st.lists(st.floats(-math.pi, math.pi), min_size=size * size,
                      max_size=size * size)),
        (size, size),
    )
    norm = np.linalg.norm(mags)
    assume(norm > 0.0)
    return FockCoefficients(mags * np.exp(1j * phases) / norm)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(state=twin_mode_states())
def test_sigma_factorises_on_random_twin_mode_states(state):
    """For equal marginals ``sigma = (1 + Q)(1 - J)`` holds identically."""
    assume(float(np.sum(np.abs(state.coeffs[1:, :]) ** 2)) > 0.0)
    stats = statistics(state)
    assert stats.sigma == pytest.approx(
        (1 + stats.q_mandel) * (1 - stats.j_corr), abs=1e-10
    )


@st.composite
def sub_normalised_states(draw):
    """``C = sqrt(P)`` for non-negative ``P`` on 1 to 8 photon numbers per
    mode, with ``sum P`` anywhere in [0, 1]."""
    size = draw(st.integers(1, 8))
    entries = st.lists(st.floats(0.0, 1.0), min_size=size * size, max_size=size * size)
    probs = np.reshape(draw(entries), (size, size))
    total = float(probs.sum())
    if total > 0.0:  # divided first: 1 / total overflows when total is subnormal
        probs = probs / total * draw(st.floats(0.0, 1.0))
    return FockCoefficients(np.sqrt(probs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    state=sub_normalised_states(),
    t_a=st.floats(0.0, 1.0),
    t_b=st.floats(0.0, 1.0),
)
def test_oracle_matches_thinned_distribution_on_random_probabilities(state, t_a, t_b):
    """The adjoint-channel sums and the thinned joint distribution give the
    same difference moments, also when probability is missing."""
    r_abs, eff = math.sqrt(t_a), ChannelEfficiencies(1.0, math.sqrt(t_b))
    mean, std = thinned_moments(state, r_abs, eff)
    stats = oracle_measurement(state, r_abs, eff)
    assert stats.mean == pytest.approx(mean, abs=1e-12)
    assert stats.std == pytest.approx(std, abs=1e-12)
