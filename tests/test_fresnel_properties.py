"""Property tests of the broadcasting Airy kernel on random passive stacks,
and of the real closed form that the steep-flank scan uses in its place."""

import math

import numpy as np
import pytest

from plasmonq.fresnel import (_TIR_MARGIN, Sensor, _rsp, _tir_reflectance, reflection,
                              transfer_matrix_reflection)
from plasmonq.materials import GOLD_DRUDE_LORENTZ, gold_dispersion

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ANGLES_DEG = np.linspace(1.0, 89.0, 89)

# Reflectance may exceed one by rounding only.  At a lossless mirror (say a
# vanishing film under total internal reflection) the Airy form lands a few
# ulps either side of 1; the allowance, 1e-12, is about 4500 ulps of 1.0.
PASSIVITY_ULP_ALLOWANCE = 1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n_prism=st.floats(1.2, 2.0),
    film_re=st.floats(-50.0, 20.0),
    film_im=st.floats(1e-3, 10.0),
    thickness_nm=st.floats(1.0, 100.0),
    analyte_re=st.floats(1.0, 4.0),
    analyte_im=st.floats(0.0, 1.0),
    wavelength_nm=st.floats(400.0, 1600.0),
)
def test_airy_kernel_matches_transfer_matrix_on_random_passive_stacks(
    n_prism, film_re, film_im, thickness_nm, analyte_re, analyte_im, wavelength_nm
):
    """Film permittivity in the upper half-plane, lossless prism, passive
    analyte: one array call over the angle grid must agree with the scalar
    transfer matrix element by element, and never reflect more than it gets."""
    eps1 = complex(n_prism * n_prism)
    eps2 = complex(film_re, film_im)
    eps3 = complex(analyte_re, analyte_im)
    k0 = 2.0 * math.pi / wavelength_nm
    k_x = k0 * n_prism * np.sin(np.radians(ANGLES_DEG))

    direct = _rsp(eps1, eps2, eps3, thickness_nm, k0, k_x)
    assert direct.shape == ANGLES_DEG.shape
    layered = np.array([
        transfer_matrix_reflection(
            [(eps1, 0.0), (eps2, thickness_nm), (eps3, 0.0)], kx, wavelength_nm)
        for kx in k_x.tolist()
    ])
    assert np.max(np.abs(direct - layered)) <= 1e-10
    assert np.max(np.abs(direct) ** 2) <= 1.0 + PASSIVITY_ULP_ALLOWANCE


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    tabulated=st.booleans(),
    n_prism=st.floats(1.45, 1.8),
    thickness_nm=st.floats(1.0, 80.0),
    wavelength_nm=st.floats(600.0, 1000.0),
    theta_deg=st.floats(45.0, 89.5),
)
def test_tir_closed_form_matches_the_kernel_reflectance(
    tabulated, n_prism, thickness_nm, wavelength_nm, theta_deg
):
    """Under total internal reflection the real closed form is the kernel's
    ``|r_sp|**2`` to rounding, over the whole index range up to the margin
    the flank scan keeps below the crossover.  Most of the 1e-12 allowance is
    the kernel's: near grazing incidence its ``k1z = sqrt(eps1 k0^2 - k_x^2)``
    cancels (2e-13 at 89.4 deg against a 40-digit reference), where the
    closed form's ``k0 n_prism cos(theta)`` does not."""
    metal = gold_dispersion() if tabulated else GOLD_DRUDE_LORENTZ
    sensor = Sensor(n_prism, metal, thickness_nm, wavelength_nm)
    top = n_prism * math.sin(math.radians(theta_deg)) - _TIR_MARGIN
    n = np.linspace(1.0, top, 201)
    closed = _tir_reflectance(sensor, theta_deg, n)
    assert closed.shape == n.shape
    assert np.max(np.abs(closed - abs(reflection(sensor, theta_deg, n)) ** 2)) <= 1e-12
