"""The steep-flank search against the 40-digit reference of ``mp_reference``:
``n_inf`` is the root ``n*`` of ``d2R/dn2`` to within a few ulps."""

import numpy as np
import pytest

from mp_reference import reflectance, steepest_index
from plasmonq.fresnel import Sensor, _steepest_flank, reflection
from plasmonq.materials import GOLD_DRUDE_LORENTZ, gold_dispersion

# In one-off runs the search landed within 4.5e-16 of n* at the 16 sampled
# default angles and at 65 angles on 44 random sensors drawn as below; the
# golden section it replaced was up to 4.4e-8 away at the default angles.
N_STAR_TOL = 1e-12
BRACKET = 1e-6  # the half-width of the reference's own bracket around n_inf


def _check_against_the_reference(sensor, thetas, n_range):
    found = _steepest_flank(sensor, thetas, n_range, 1e-9, 1e-6, 2001)
    checked = 0
    for theta, n_inf in zip(thetas, found):
        if isinstance(n_inf, float):
            n_star = steepest_index(sensor, theta, n_inf - BRACKET, n_inf + BRACKET)
            assert abs(float(n_star) - n_inf) <= N_STAR_TOL, (sensor, theta, n_inf)
            checked += 1
    return checked


def test_the_reference_reflectance_is_the_kernels():
    sensor = Sensor(1.5107, gold_dispersion(), 50.0, 810.0)
    n = np.linspace(1.33, 1.44, 5)
    want = [float(reflectance(sensor, 73.0, x)) for x in n.tolist()]
    np.testing.assert_allclose(abs(reflection(sensor, 73.0, n)) ** 2, want, rtol=0, atol=1e-14)


def test_the_search_finds_the_40_digit_root_at_the_default_angles():
    """Every 24th of the CLI's 361 default angles, on its default sensor."""
    sensor = Sensor(1.5107, gold_dispersion(), 50.0, 810.0)
    thetas = np.linspace(65.5, 83.5, 361).tolist()[::24]
    assert _check_against_the_reference(sensor, thetas, (1.30, 1.4422)) == 16


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_the_search_finds_the_40_digit_root_on_random_sensors(seed):
    """Two angles each on seeded random sensors over both gold sources."""
    rng = np.random.default_rng(seed)
    sensor = Sensor(float(rng.uniform(1.45, 1.8)),
                    gold_dispersion() if seed % 2 else GOLD_DRUDE_LORENTZ,
                    float(rng.uniform(35.0, 65.0)), float(rng.uniform(600.0, 1000.0)))
    thetas = [float(rng.uniform(50.0, 60.0)), float(rng.uniform(60.0, 80.0))]
    assert _check_against_the_reference(sensor, thetas, (1.0, 1.44)) >= 1
