"""Property tests of the moment formulas: an array call is its scalar calls."""

import math

import numpy as np
import pytest

from plasmonq.metrology import (
    STATE_FAMILIES,
    ChannelEfficiencies,
    MetrologyDomainError,
    family_statistics,
    signal_mean,
    signal_std,
)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

R_ARRAYS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)
EFFICIENCIES = st.floats(0.0, 1.0)


def scalar_outcome(call, r_abs):
    """The value of ``call(r_abs)``, or the text of the domain error it raises."""
    try:
        return call(r_abs)
    except MetrologyDomainError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    r_abs=R_ARRAYS,
    eta_a=EFFICIENCIES,
    eta_b=EFFICIENCIES,
    family=st.sampled_from(STATE_FAMILIES),
    n_photons=st.floats(0.01, 50.0),
)
# 0.2551 ** 2 is one ulp below 0.2551 * 0.2551, so a square taken with
# Python's float power would not match the array's; with a dark reference
# arm (eta_b = 0) nothing is added to the square that could round it away
@example(r_abs=[0.2551], eta_a=1.0, eta_b=0.0, family="coherent", n_photons=1.0)
def test_array_moments_equal_their_scalar_calls_bit_for_bit(r_abs, eta_a, eta_b, family,
                                                            n_photons):
    if family in ("twin-fock", "noon"):
        n_photons = float(math.ceil(n_photons))
    stats = family_statistics(family, n_photons)
    eff = ChannelEfficiencies(eta_a, eta_b)
    means = signal_mean(np.array(r_abs), eff, n_photons)
    stds = signal_std(np.array(r_abs), eff, n_photons, stats.q_mandel, stats.sigma)
    assert means.shape == stds.shape == (len(r_abs),)
    for r, mean, std in zip(r_abs, means.tolist(), stds.tolist()):
        assert mean == signal_mean(r, eff, n_photons)
        assert std == signal_std(r, eff, n_photons, stats.q_mandel, stats.sigma)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    r_abs=R_ARRAYS,
    eta_a=EFFICIENCIES,
    eta_b=EFFICIENCIES,
    q_mandel=st.floats(-3.0, 3.0),
    sigma=st.floats(0.0, 3.0),
)
def test_an_array_raises_iff_an_element_does_and_names_the_first(r_abs, eta_a, eta_b,
                                                                 q_mandel, sigma):
    """Unphysical ``(Q, sigma)`` pairs included: the array call raises when
    any element's radicand is below -1e-12, with the first such element's
    scalar message, and otherwise equals its scalar calls."""
    eff = ChannelEfficiencies(eta_a, eta_b)

    def std(r):
        return signal_std(r, eff, 1.0, q_mandel, sigma)

    outcomes = [scalar_outcome(std, r) for r in r_abs]
    errors = [outcome for outcome in outcomes if isinstance(outcome, str)]
    if errors:
        with pytest.raises(MetrologyDomainError) as caught:
            std(np.array(r_abs))
        assert str(caught.value) == errors[0]
    else:
        assert std(np.array(r_abs)).tolist() == outcomes


def test_rounding_level_negative_radicands_give_zero():
    # balanced, lossless: the radicand is (1 - r^2) r^2 - 1e-13 (1 - r^2)^2
    # for this Q, so it is -1e-13 at r = 0 and positive at r = 0.5
    q_mandel = -1.0 - 1e-13
    balanced = ChannelEfficiencies(1.0, 1.0)
    stds = signal_std(np.array([0.0, 0.5, 0.0]), balanced, 3.0, q_mandel, 0.0)
    assert stds[0] == stds[2] == 0.0
    assert stds[1] > 0.0
    assert signal_std(0.0, balanced, 3.0, q_mandel, 0.0) == 0.0
    # past -1e-12 it raises, naming the radicand of r = 0, not of r = 0.5
    with pytest.raises(MetrologyDomainError, match=r"negative \(-1\.99995\d*e-12\)"):
        signal_std(np.array([0.5, 0.0]), balanced, 3.0, -1.0 - 2e-12, 0.0)


def test_a_scalar_gives_python_floats():
    # an np.float64 would carry np.bool_ comparisons into JSON output
    eff = ChannelEfficiencies(0.8, 0.9)
    assert type(signal_mean(0.5, eff, 2.0)) is float
    assert type(signal_std(0.5, eff, 2.0, 0.0, 1.0)) is float
