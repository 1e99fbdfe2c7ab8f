"""40-digit references for the Fresnel layer, for the tests: the Airy
reflectance of a :class:`plasmonq.fresnel.Sensor` in mpmath, and the root
``n*`` of its second index derivative, the steepest point of the flank.

Every float input (angle, indices, thickness, wavelength, the film's complex
permittivity) is taken exactly, so the reference is the exact value of the
double-precision problem, rounded at 40 digits.
"""

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

DIGITS = 40
# findroot's stopping tolerance; its default, near 40-digit epsilon, costs
# about 2.5 times the iterations and moves no root by a double's ulp
FINDROOT_TOL = mpmath.mpf(10) ** -30


def _decaying_kz(eps, k0, k_x):
    """``sqrt(eps k0**2 - k_x**2)`` on the kernel's branch: ``Im >= 0``, ties
    toward ``Re >= 0``."""
    kz = mp.sqrt(mp.mpc(eps) * k0 * k0 - k_x * k_x)
    if kz.imag < 0 or (kz.imag == 0 and kz.real < 0):
        kz = -kz
    return kz


def _reflectance(sensor, theta_deg, n):
    """``|r_sp|**2`` at the working precision, which :func:`mpmath.diff` raises."""
    k0 = 2 * mp.pi / mp.mpf(sensor.wavelength_nm)
    k_x = k0 * mp.mpf(sensor.n_prism) * mp.sin(mp.radians(mp.mpf(theta_deg)))
    n = mp.mpf(n)
    eps = [mp.mpf(sensor.n_prism) ** 2, mp.mpc(sensor.metal_permittivity), n * n]
    a = [_decaying_kz(e, k0, k_x) / e for e in eps]
    r12 = (a[0] - a[1]) / (a[0] + a[1])
    r23 = (a[1] - a[2]) / (a[1] + a[2])
    ph = mp.exp(2j * _decaying_kz(eps[1], k0, k_x) * mp.mpf(sensor.thickness_nm))
    return abs((r12 + ph * r23) / (1 + ph * r12 * r23)) ** 2


def reflectance(sensor, theta_deg, n):
    """``|r_sp|**2`` of ``sensor`` at ``theta_deg`` over an analyte of index
    ``n``, by the three-layer Airy formula at 40 digits."""
    with mp.workdps(DIGITS):
        return _reflectance(sensor, theta_deg, n)


def curvature(sensor, theta_deg, n):
    """``d2R/dn2`` at ``n``, by :func:`mpmath.diff` at 40 digits."""
    with mp.workdps(DIGITS):
        return mp.diff(lambda x: _reflectance(sensor, theta_deg, x), mp.mpf(n), 2)


def steepest_index(sensor, theta_deg, lo, hi):
    """The root ``n*`` of ``d2R/dn2`` inside ``[lo, hi]``, whose ends must give
    ``d2R/dn2`` opposite signs, by a bracketed :func:`mpmath.findroot`."""
    with mp.workdps(DIGITS):
        f_lo, f_hi = curvature(sensor, theta_deg, lo), curvature(sensor, theta_deg, hi)
        if f_lo * f_hi >= 0:
            raise ValueError(f"d2R/dn2 has one sign on [{lo}, {hi}] at theta={theta_deg}")
        return mp.findroot(lambda x: curvature(sensor, theta_deg, x),
                           (mp.mpf(lo), mp.mpf(hi)), solver="anderson", tol=FINDROOT_TOL)
