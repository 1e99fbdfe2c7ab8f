"""Property tests of the broadcasting Airy kernel on random passive stacks,
and of the real closed forms of the reflectance, its slope and its curvature
that the steep-flank search uses in its place."""

import cmath
import math

import numpy as np
import pytest

from plasmonq.fresnel import (_TIR_MARGIN, IncidenceGeometry, Sensor, _decaying_sqrt, _rsp,
                              _tir_curvature, _tir_slope_on_grid, _tir_slope_terms,
                              interface_reflection, reflection,
                              sensitivity, tangential_wavevector,
                              transfer_matrix_reflection)
from plasmonq.materials import GOLD_DRUDE_LORENTZ, gold_dispersion
from test_fresnel import _tir_reflectance

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


# The sensors of the split-kernel properties: both gold sources and a film
# with gain (Im eps < 0), which puts the principal root k2z on the growing
# branch.
sensors = st.builds(
    Sensor,
    n_prism=st.floats(1.45, 1.8),
    metal=st.sampled_from([gold_dispersion(), GOLD_DRUDE_LORENTZ, complex(-11.7, -1.2)]),
    thickness_nm=st.floats(1.0, 80.0),
    wavelength_nm=st.floats(600.0, 1000.0),
)


def _unsplit_rsp(eps1, eps2, eps3, thickness_nm, k0, k_x):
    """The Airy kernel as one function, written out apart from the package's:
    the reference for its bits."""
    kk = k0 * k0
    kx2 = k_x * k_x
    k1z = _decaying_sqrt(eps1 * kk - kx2)
    k2z = _decaying_sqrt(eps2 * kk - kx2)
    k3z = _decaying_sqrt(eps3 * kk - kx2)
    r12 = interface_reflection(eps1, eps2, k1z, k2z, pair="1|2")
    r23 = interface_reflection(eps2, eps3, k2z, k3z, pair="2|3")
    ph = np.exp(2j * k2z * thickness_nm)
    return (ph * r23 + r12) / (ph * r23 * r12 + 1.0)


def _unsplit_tir_reflectance(sensor, theta_deg, n_analyte):
    """The closed form as one function in scalar ``cmath`` arithmetic, as the
    package formed its per-angle terms before they became array rows."""
    k0 = 2.0 * math.pi / sensor.wavelength_nm
    kk = k0 * k0
    kx2 = (k0 * sensor.n_prism * math.sin(math.radians(theta_deg))) ** 2
    eps1, eps2 = sensor.eps_prism, sensor.metal_permittivity
    k1z = k0 * sensor.n_prism * math.cos(math.radians(theta_deg))
    k2z = cmath.sqrt(eps2 * kk - kx2)
    r12 = complex(interface_reflection(eps1, eps2, k1z, k2z, pair="1|2"))
    ph = cmath.exp(2j * k2z * sensor.thickness_nm)
    a2 = k2z / eps2
    p, q = a2 * (ph + r12), r12 - ph
    s, t = a2 * (1.0 + ph * r12), 1.0 - ph * r12
    n2 = np.square(n_analyte)
    beta = np.sqrt(kx2 - n2 * kk) / n2
    den = (s.real - beta * t.imag) ** 2 + (s.imag + beta * t.real) ** 2
    return ((p.real - beta * q.imag) ** 2 + (p.imag + beta * q.real) ** 2) / den


# numpy's complex ``*`` and ``/`` round differently from CPython's scalar ones,
# so the array terms do not have the scalar terms' bits.  In one-off runs over
# 20000 random sensors drawn like ``sensors``, the two closed forms differed by
# at most 3.6e-13 relative; the bound is about ten times that.
ROW_FORM_RTOL = 4e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sensor=sensors, theta_deg=st.floats(35.0, 89.5), spread=st.floats(0.0, 20.0),
       fraction=st.floats(0.001, 0.999))
def test_the_split_kernel_has_the_bits_of_the_whole_one(sensor, theta_deg, spread, fraction):
    """The kernel is its one-function form bit for bit, over a few angles
    against a two-row grid of indices; the per-angle rows of a few angles
    formed in one array pass are those of each angle alone, bit for bit, so a
    lockstep search does each one-angle search's arithmetic; and the
    closed-form reflectance from array terms is the scalar one to rounding."""
    thetas = np.linspace(theta_deg, min(theta_deg + spread, 89.5), 5)
    eps1, eps2 = sensor.eps_prism, sensor.metal_permittivity
    k0 = 2.0 * math.pi / sensor.wavelength_nm
    k_x = tangential_wavevector(sensor, IncidenceGeometry(thetas))
    n = fraction * sensor.n_prism * np.stack([np.sin(np.radians(thetas)), np.ones(5)])
    args = (eps1, eps2, n * n, sensor.thickness_nm, k0, k_x)
    assert np.array_equal(_rsp(*args), _unsplit_rsp(*args))
    rows = _tir_slope_terms(sensor, thetas)
    for theta, row in zip(thetas.tolist(), rows):
        assert np.array_equal(_tir_slope_terms(sensor, [theta])[0], row)
    top = sensor.n_prism * math.sin(math.radians(theta_deg)) - _TIR_MARGIN
    grid = np.linspace(fraction * top, top, 41)
    np.testing.assert_allclose(_tir_reflectance(sensor, theta_deg, grid),
                               _unsplit_tir_reflectance(sensor, theta_deg, grid),
                               rtol=ROW_FORM_RTOL, atol=0)


# A film with gain can put a pole of r_sp next to the real index axis, where
# no fixed finite-difference step resolves the curve: at R = 2.6e5 a
# Richardson difference with h = 2e-6 was 7e-6 off a 40-digit derivative, the
# closed form 9e-9.  The finite-difference references are trusted up to this
# reflectance; a passive film stays below 1.
TRUSTED_REFLECTANCE = 10.0


def _closed_form_slope(sensor, theta_deg, n):
    """``dR/dn`` over indices ``n`` at one angle, as the steep-flank scan takes it."""
    k0 = 2.0 * math.pi / sensor.wavelength_nm
    (row,) = _tir_slope_terms(sensor, [theta_deg]).tolist()
    return _tir_slope_on_grid(row, (n, n * n, n * n * (k0 * k0)))


def _richardson_slope(sensor, theta_deg, n, h):
    """Richardson's extrapolation of the central difference of the closed-form
    reflectance at steps ``h`` and ``h / 2``: its error is of order ``h**4``."""
    def central(step):
        return (_tir_reflectance(sensor, theta_deg, n + step)
                - _tir_reflectance(sensor, theta_deg, n - step)) / (2.0 * step)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sensor=sensors, theta_deg=st.floats(35.0, 89.5), fraction=st.floats(0.01, 0.999))
def test_the_closed_form_slope_is_the_derivative_of_the_reflectance(sensor, theta_deg,
                                                                    fraction):
    """Over indices under total internal reflection up to the scan's margin
    below the crossover, the closed-form ``dR/dn`` agrees with
    ``sensitivity(h=1e-6)`` within 1e-5 relative plus that difference's own
    step error, and with a Richardson difference of :func:`_tir_reflectance`
    within 1e-8 relative.  The step error, ``h**2 / 6`` times the third
    derivative, is estimated as a third of the change from ``h`` to ``2 h``.
    It matters only at grazing angles next to the crossover, where the third
    derivative grows as ``(n_crit - n)**-2.5``: at 89 deg, on a 3 nm gold
    film, it is 1.02e-5 of the slope, and the estimate is within 1e-9 of it.
    Away from there, in one-off runs over 10000 random sensors, the worst
    agreements seen were 6.0e-6 and 2.7e-9 relative, the latter set by
    rounding at ``h = 2e-6``."""
    geom = IncidenceGeometry(theta_deg)
    top = sensor.n_prism * math.sin(math.radians(theta_deg)) - _TIR_MARGIN
    n = np.linspace(fraction * top, top, 41)
    trusted = _tir_reflectance(sensor, theta_deg, n) <= TRUSTED_REFLECTANCE
    slope = _closed_form_slope(sensor, theta_deg, n)[trusted]
    central = sensitivity(sensor, geom, n, 1e-6)[trusted]
    step_error = abs(sensitivity(sensor, geom, n, 2e-6)[trusted] - central) / 3.0
    assert np.all(abs(slope - central) <= 1e-5 * np.maximum(1.0, abs(central)) + step_error)
    richardson = _richardson_slope(sensor, theta_deg, n, 2e-6)[trusted]
    assert np.all(abs(slope - richardson) <= 1e-8 * np.maximum(1.0, abs(richardson)))


# The Richardson difference of the slope at h = 1e-6 and 2e-6 carries rounding
# of about eps |dR/dn| / h.  In one-off runs over 20000 random sensors drawn
# like ``sensors``, the worst disagreement was 3.2e-8 of the grid's largest
# |d2R/dn2|; the bound is about ten times that.
CURVATURE_RTOL = 3e-7


def _closed_form_curvature(sensor, theta_deg, n):
    """``d2R/dn2`` over indices ``n`` at one angle, from :func:`_tir_curvature`,
    which gives it times ``n**2 D**3``."""
    cols = _tir_slope_terms(sensor, [theta_deg] * len(n)).T
    beta = np.sqrt(cols[1] - n * n * cols[0]) / (n * n)
    den = cols[5] + beta * (cols[6] + beta * cols[7])
    return _tir_curvature(cols, n) / (n * n * den ** 3)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sensor=sensors, theta_deg=st.floats(35.0, 89.5), fraction=st.floats(0.01, 0.999))
def test_the_closed_form_curvature_is_the_derivative_of_the_slope(sensor, theta_deg, fraction):
    """Over indices under total internal reflection up to the scan's margin
    below the crossover, the closed-form ``d2R/dn2`` that the refinement
    solves agrees with a Richardson difference of the closed-form ``dR/dn``
    within CURVATURE_RTOL of the largest ``|d2R/dn2|`` on the grid."""
    top = sensor.n_prism * math.sin(math.radians(theta_deg)) - _TIR_MARGIN
    n = np.linspace(fraction * top, top, 41)
    trusted = _tir_reflectance(sensor, theta_deg, n) <= TRUSTED_REFLECTANCE
    curvature = _closed_form_curvature(sensor, theta_deg, n)[trusted]

    def central(step):
        return (_closed_form_slope(sensor, theta_deg, n + step)
                - _closed_form_slope(sensor, theta_deg, n - step)) / (2.0 * step)
    richardson = ((4.0 * central(1e-6) - central(2e-6)) / 3.0)[trusted]
    scale = np.max(abs(richardson), initial=1.0)
    assert np.all(abs(curvature - richardson) <= CURVATURE_RTOL * scale)
