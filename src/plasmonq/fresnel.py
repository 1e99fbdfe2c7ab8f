"""TM reflection of a prism / metal film / analyte stack (Kretschmann coupling).

Fields evolve as ``e^{-i omega t}``; normal wave-vector components take the
branch ``Im(k_z) >= 0`` (ties broken toward ``Re(k_z) >= 0``) so evanescent
and absorbed waves decay.  Lengths are in nm, wave vectors in rad/nm,
angles in degrees.  A :class:`Sensor` is the fixed hardware (prism, film,
wavelength); the analyte index is the quantity being estimated, so it is an
argument, not a field.  :func:`reflection` broadcasts angles against analyte
indices through one numpy kernel, so a whole grid costs one kernel call.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .materials import DispersionTable, DrudeLorentzParams  # noqa: F401  (duck-typed metals)

__all__ = [
    "FresnelSingularityError",
    "NoInteriorExtremumError",
    "IncidenceGeometry",
    "Sensor",
    "KretschmannStack",
    "ReflectionResult",
    "tangential_wavevector",
    "wavevector_z",
    "interface_reflection",
    "reflection",
    "reflection_coefficient",
    "transfer_matrix_reflection",
    "resonance_angle",
    "sensitivity",
    "inflection_index",
]


class FresnelSingularityError(ZeroDivisionError):
    """A reflection denominator vanished (degenerate interface or stack)."""


class NoInteriorExtremumError(ValueError):
    """A scanned extremum fell on the search boundary instead of inside it."""


@dataclass(frozen=True)
class IncidenceGeometry:
    """Internal incidence angle in the prism, degrees, strictly inside (0, 90).

    ``theta_deg`` may be an array of angles; every element is checked.
    """

    theta_deg: float

    def __post_init__(self):
        theta = np.asarray(self.theta_deg, dtype=float)
        outside = theta[~((0.0 < theta) & (theta < 90.0))]
        if outside.size:
            raise ValueError(f"theta_deg={outside[0]} must lie strictly in (0, 90)")


@dataclass(frozen=True)
class Sensor:
    """The fixed sensing hardware: prism | metal film of given thickness, at
    one vacuum wavelength.  The analyte index is passed per call.

    ``metal`` is a plain complex permittivity or any object with a
    ``permittivity(wavelength_nm)`` method (e.g. a dispersion table or a
    Drude-Lorentz parameter set).
    """

    n_prism: float
    metal: object
    thickness_nm: float
    wavelength_nm: float

    def __post_init__(self):
        if not self.n_prism > 1.0:
            raise ValueError(f"n_prism={self.n_prism} must exceed 1")
        if self.n_prism == math.inf:
            raise ValueError("n_prism must be finite")
        if not self.thickness_nm > 0.0:
            raise ValueError("thickness_nm must be positive")
        if not self.wavelength_nm > 0.0:
            raise ValueError("wavelength_nm must be positive")
        k_prism = 2.0 * math.pi / self.wavelength_nm * self.n_prism
        if not (math.isfinite(self.n_prism * self.n_prism) and math.isfinite(k_prism * k_prism)):
            raise ValueError(f"n_prism={self.n_prism} at wavelength_nm={self.wavelength_nm} "
                             "overflows n_prism**2 or (2 pi n_prism / wavelength_nm)**2")
        # Resolve the film permittivity once; the wavelength is fixed.
        method = getattr(self.metal, "permittivity", None)
        if isinstance(self.metal, (int, float, complex)):
            eps = complex(self.metal)
        elif callable(method):
            eps = complex(method(self.wavelength_nm))
        else:
            raise TypeError(
                f"cannot interpret {type(self.metal).__name__} as a metal permittivity")
        object.__setattr__(self, "_eps_metal", eps)

    @property
    def metal_permittivity(self) -> complex:
        return self._eps_metal

    @property
    def eps_prism(self) -> complex:
        return complex(self.n_prism * self.n_prism)


@dataclass(frozen=True, init=False)
class KretschmannStack(Sensor):
    """Three-layer sensing stack: a :class:`Sensor` plus one analyte index."""

    n_analyte: float

    def __init__(self, n_prism: float, metal: object, thickness_nm: float,
                 n_analyte: float, wavelength_nm: float):
        super().__init__(n_prism, metal, thickness_nm, wavelength_nm)
        object.__setattr__(self, "n_analyte", n_analyte)
        if not 0.0 < n_analyte < n_prism:
            raise ValueError(f"n_analyte={n_analyte} must lie in (0, n_prism={n_prism})")
        if n_analyte * n_analyte < sys.float_info.min:
            raise ValueError(f"n_analyte={n_analyte} is too small: its square underflows")

    @property
    def eps_analyte(self) -> complex:
        return complex(self.n_analyte * self.n_analyte)


@dataclass(frozen=True)
class ReflectionResult:
    """Complex TM reflection coefficient of the stack."""

    r_sp: complex

    @property
    def phase(self) -> float:
        p = cmath.phase(self.r_sp)
        return math.pi if p == -math.pi else p

    @property
    def reflectance(self) -> float:
        a = abs(self.r_sp)
        return a * a


def tangential_wavevector(stack: Sensor, geom: IncidenceGeometry) -> float | np.ndarray:
    """Conserved in-plane wave vector k_x = (2 pi / lambda) n_prism sin(theta)."""
    k0 = 2.0 * math.pi / stack.wavelength_nm
    return k0 * stack.n_prism * np.sin(np.radians(geom.theta_deg))


def _decaying_sqrt(z):
    """Square root on the branch ``Im >= 0`` (ties toward ``Re >= 0``); broadcasts."""
    kz = np.sqrt(np.asarray(z, dtype=complex))
    flip = (kz.imag < 0.0) | ((kz.imag == 0.0) & (kz.real < 0.0))
    return np.where(flip, -kz, kz)[()]  # [()] turns a 0-d result into a scalar


def wavevector_z(epsilon: complex, k_x: float, wavelength_nm: float) -> complex:
    """Normal component sqrt(eps k0^2 - k_x^2) on the decaying branch."""
    k0 = 2.0 * math.pi / wavelength_nm
    return complex(_decaying_sqrt(epsilon * k0 * k0 - k_x * k_x))


def interface_reflection(
    eps_l: complex, eps_m: complex, k_lz: complex, k_mz: complex, pair: str = "l|m"
) -> complex:
    """Single-interface TM (p-polarised) amplitude coefficient r_lm; broadcasts."""
    a = k_lz / eps_l
    b = k_mz / eps_m
    den = a + b
    if np.count_nonzero(den == 0):
        raise FresnelSingularityError(
            f"vanishing TM admittance sum at interface {pair}"
        )
    return (a - b) / den


def _rsp(eps1, eps2, eps3, thickness_nm, k0, k_x):
    """Airy three-layer amplitude with pre-resolved permittivities; broadcasts
    over arrays of ``eps3`` and ``k_x``, and scalar inputs give a numpy scalar."""
    kk, kx2 = k0 * k0, k_x * k_x
    k2z = _decaying_sqrt(eps2 * kk - kx2)
    r12 = interface_reflection(eps1, eps2, _decaying_sqrt(eps1 * kk - kx2), k2z, pair="1|2")
    ph = np.exp(2j * k2z * thickness_nm)
    r23 = interface_reflection(eps2, eps3, k2z, _decaying_sqrt(eps3 * kk - kx2), pair="2|3")
    den = ph * r23 * r12 + 1.0
    if np.count_nonzero(den == 0):
        raise FresnelSingularityError("vanishing composite denominator for stack 1|2|3")
    return (ph * r23 + r12) / den


def _tir_slope_terms(sensor: Sensor, thetas):
    """Rows ``(k0**2, k_x**2, c0, c1, c2, d0, d1, d2)``, one per angle, of the closed
    forms under total internal reflection, where ``k3z = i kappa``: with ``beta =
    kappa / n**2`` the Airy form is the Moebius map ``z / w = (P + i beta Q) / (S +
    i beta T)``, ``a2 = k2z / eps2``, ``P = a2 (ph + r12)``, ``Q = r12 - ph``,
    ``S = a2 (1 + ph r12)``, ``T = 1 - ph r12``.  With ``K = Q S - P T``,
    ``dR/dbeta = -2 Im(K conj(z w)) / |w|**4 = -C / D**2``, ``C = c0 + c1 beta +
    c2 beta**2`` and ``D = |w|**2 = d0 + d1 beta + d2 beta**2``."""
    k0 = 2.0 * math.pi / sensor.wavelength_nm
    theta = np.radians(np.asarray(thetas, dtype=float))
    kx2 = (k0 * sensor.n_prism * np.sin(theta)) ** 2
    eps2 = sensor.metal_permittivity
    k1z = k0 * sensor.n_prism * np.cos(theta)  # a lossless prism
    k2z = np.sqrt(eps2 * (k0 * k0) - kx2)  # either branch: r_sp is even in the film's k2z
    r12 = interface_reflection(sensor.eps_prism, eps2, k1z, k2z, pair="1|2")
    ph = np.exp(2j * k2z * sensor.thickness_nm)
    a2 = k2z / eps2
    p, q, s, t = a2 * (ph + r12), r12 - ph, a2 * (1.0 + ph * r12), 1.0 - ph * r12
    k = q * s - p * t
    return np.stack([np.full_like(kx2, k0 * k0), kx2, 2.0 * (k * np.conj(p * s)).imag,
                     -2.0 * (k * np.conj(p * t + q * s)).real, -2.0 * (k * np.conj(q * t)).imag,
                     abs(s) ** 2, 2.0 * (s * np.conj(t)).imag, abs(t) ** 2], axis=1)


def _tir_slope_on_grid(row, grid, out=(None,) * 4):
    """``dR/dn = C G / (n D**2)`` at the angle of ``row`` over ``grid = (n, n**2, n**2
    k0**2)``, since ``d beta/dn = -G / n`` with ``G = k0**2 / kappa + 2 beta``.  Four
    arrays are allocated or taken from ``out``; all else is in place, in that order."""
    kk, kx2, c0, c1, c2, d0, d1, d2 = row
    n, n2, n2kk = grid
    kappa = np.subtract(kx2, n2kk, out=out[0])
    beta = np.divide(np.sqrt(kappa, out=kappa), n2, out=out[1])
    den = np.multiply(beta, d2, out=out[2])  # D = d0 + beta (d1 + beta d2)
    den += d1
    den *= beta
    den += d0
    if not den.all():
        raise FresnelSingularityError("vanishing composite denominator for stack 1|2|3")
    num = np.multiply(beta, c2, out=out[3])  # C = c0 + beta (c1 + beta c2)
    num += c1
    num *= beta
    num += c0
    num *= np.add(np.divide(kk, kappa, out=kappa), np.multiply(beta, 2.0, out=beta), out=kappa)
    num /= np.multiply(np.multiply(n, den, out=beta), den, out=beta)
    return num


def _tir_curvature(cols, n):
    """``n**2 D**3 d2R/dn2``, which has the sign of ``d2R/dn2``, at one index per
    column of ``cols``, the transposed rows of :func:`_tir_slope_terms`:
    ``G**2 (2 C D' - D C') + D C (n**2 k0**4 / kappa**3 - 3 G)``, primes in ``beta``."""
    kk, kx2, c0, c1, c2, d0, d1, d2 = cols
    n2 = n * n
    kappa = np.sqrt(kx2 - n2 * kk)
    beta = kappa / n2
    g = kk / kappa + 2.0 * beta
    c, d = c0 + beta * (c1 + beta * c2), d0 + beta * (d1 + beta * d2)
    return (g * g * (2.0 * c * (d1 + 2.0 * d2 * beta) - d * (c1 + 2.0 * c2 * beta))
            + d * c * (n2 * kk * kk / (kappa * kappa * kappa) - 3.0 * g))


def reflection(sensor: Sensor, theta_deg, n_analyte):
    """Complex TM reflection coefficient ``r_sp`` of ``sensor`` at incidence
    angle ``theta_deg`` over an analyte of index ``n_analyte``.

    Angles and indices broadcast against each other (e.g. ``thetas[:, None]``
    against a row of indices); scalar inputs give a numpy scalar.  Every
    angle must lie in (0, 90) and every index in ``(0, n_prism)``, with a
    normal square (below about 1.5e-154 the kernel's ``k_z / eps`` overflows).
    """
    k_x = tangential_wavevector(sensor, IncidenceGeometry(theta_deg))
    n = np.asarray(n_analyte, dtype=float)
    outside = n[~((0.0 < n) & (n < sensor.n_prism))]
    if outside.size:
        raise ValueError(
            f"n_analyte={outside[0]} must lie in (0, n_prism={sensor.n_prism})"
        )
    tiny = n[n * n < sys.float_info.min]
    if tiny.size:
        raise ValueError(f"n_analyte={tiny[0]} is too small: its square underflows")
    return _rsp(sensor.eps_prism, sensor.metal_permittivity, n * n,
                sensor.thickness_nm, 2.0 * math.pi / sensor.wavelength_nm, k_x)


def reflection_coefficient(stack: KretschmannStack, geom: IncidenceGeometry) -> ReflectionResult:
    """Scalar :func:`reflection` of the stack at ``geom``, at its own analyte index."""
    return ReflectionResult(r_sp=complex(reflection(stack, geom.theta_deg, stack.n_analyte)))


def transfer_matrix_reflection(layers, k_x, wavelength_nm: float):
    """TM reflection of an arbitrary planar stack via 2x2 characteristic matrices.

    ``layers`` is a sequence of ``(epsilon, thickness_nm)`` ordered from the
    incidence medium to the substrate; the first and last thicknesses are
    ignored (semi-infinite).  Broadcasts over ``k_x``; a scalar gives one
    complex.  An independent cross-check of :func:`reflection`
    that shares only its ``k_z`` branch rule with the Airy kernel.
    """
    if len(layers) < 2:
        raise ValueError("need at least incidence medium and substrate")
    if any(eps == 0 for eps, _ in layers):
        raise FresnelSingularityError("zero permittivity layer")
    k0 = 2.0 * math.pi / wavelength_nm
    kz = [_decaying_sqrt(eps * k0 * k0 - k_x * k_x) for eps, _ in layers]
    q = [kzl / eps for (eps, _), kzl in zip(layers, kz)]
    m00, m01, m10, m11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for (_, d), qq, kzl in zip(layers[1:-1], q[1:-1], kz[1:-1]):
        if np.count_nonzero(qq == 0):
            raise FresnelSingularityError("vanishing TM admittance inside the stack")
        delta = kzl * d
        c = np.cos(delta)
        s = np.sin(delta)
        a01 = -1j * s / qq
        a10 = -1j * qq * s
        m00, m01, m10, m11 = (
            m00 * c + m01 * a10,
            m00 * a01 + m01 * c,
            m10 * c + m11 * a10,
            m10 * a01 + m11 * c,
        )
    top = m00 + m01 * q[-1]
    bot = m10 + m11 * q[-1]
    den = q[0] * top + bot
    if np.count_nonzero(den == 0):
        raise FresnelSingularityError("singular characteristic matrix")
    return (q[0] * top - bot) / den


def _golden_minimize(f, a, b, tol: float):
    """Golden-section minimum of a unimodal f on [a, b] to absolute x tolerance.

    Arrays of brackets run in lockstep, one call of ``f`` on all rows per iteration;
    a row within ``tol`` or with no float inside is frozen, so each row does exactly
    the arithmetic of its own scalar search.  Scalar brackets are the 0-d case.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, b))
    c = np.array(b - invphi * (b - a))  # np.array keeps the 0-d case writable
    d = np.array(a + invphi * (b - a))
    fc = np.array(f(c), dtype=float)
    fd = np.array(f(d), dtype=float)
    while (live := ((b - a) > tol) & (np.nextafter(a, b) < b)).any():
        left = live & (fc < fd)  # the minimum lies in [a, d]
        right = live & ~(fc < fd)  # the minimum lies in [c, b]
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        c[left] = b[left] - invphi * (b[left] - a[left])
        d[right] = a[right] + invphi * (b[right] - a[right])
        values = np.asarray(f(np.where(left, c, d)), dtype=float)
        fc[left], fd[right] = values[left], values[right]
    return (0.5 * (a + b))[()]


def _illinois_root(f, a, b, tol: float):
    """Roots of f on brackets ``[a, b]`` (1-d arrays, in lockstep: one call of ``f``
    per iteration) by the Illinois method (Dowell and Jarratt, BIT 11, 1971),
    regula falsi that halves the value of an end kept twice in a row.  A row
    stops once its bracket is within ``tol``, holds no float inside or ends on
    a zero, and returns that bracket's regula falsi point; a row whose ``f`` has
    one sign at both ends returns its midpoint."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    fa, fb = f(a), f(b)
    straddle = np.sign(fa) != np.sign(fb)  # the other rows never move
    ua, ub = fa.copy(), fb.copy()  # the values the secant takes; Illinois halves them
    kept = np.zeros(a.shape, dtype=int)  # the end kept last: -1 is a, +1 is b
    live = straddle & (fa != 0) & (fb != 0) & (b - a > tol)
    while live.any():
        x = a + np.divide(ua, ua - ub, out=np.zeros_like(a), where=live) * (b - a)  # in [a, b]
        fx = f(x)
        move_a = live & (np.sign(fx) != np.sign(fb))  # so a zero takes a's place
        move_b = live & ~move_a
        ub[move_a & (kept == 1)] *= 0.5
        ua[move_b & (kept == -1)] *= 0.5
        a[move_a], fa[move_a], ua[move_a] = x[move_a], fx[move_a], fx[move_a]
        b[move_b], fb[move_b], ub[move_b] = x[move_b], fx[move_b], fx[move_b]
        kept[move_a], kept[move_b] = 1, -1
        live &= (fa != 0) & (b - a > tol) & (np.nextafter(a, b) < b)
    return a + np.divide(fa, fa - fb, out=np.full_like(a, 0.5), where=straddle) * (b - a)


def resonance_angle(
    stack: KretschmannStack,
    theta_range: tuple[float, float] = (65.5, 83.5),
    tol: float = 1e-6,
    grid_points: int = 2001,
) -> float:
    """Angle of minimum reflectance inside ``theta_range`` (degrees).

    Scans a uniform grid and refines by golden section.  Raises
    :class:`NoInteriorExtremumError` when the grid minimum sits on a
    boundary, i.e. no dip is resolved inside the window.
    """
    lo, hi = theta_range
    if not (0.0 < lo < hi < 90.0):
        raise ValueError(f"theta_range {theta_range} must be ordered inside (0, 90)")
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    def refl(theta):
        return abs(reflection(stack, theta, stack.n_analyte)) ** 2

    step = (hi - lo) / (grid_points - 1)  # the grid's two cells around its minimum bracket it
    i_min = int(np.argmin(refl(lo + np.arange(grid_points) * step)))
    if i_min == 0 or i_min == grid_points - 1:
        raise NoInteriorExtremumError(
            f"reflectance minimum at theta at grid boundary ({lo + i_min * step:.6f})")
    return float(_golden_minimize(refl, lo + (i_min - 1) * step, lo + (i_min + 1) * step, tol))


def sensitivity(
    stack: Sensor,
    geom: IncidenceGeometry,
    n_analyte: float | np.ndarray,
    h: float = 1e-6,
) -> float | np.ndarray:
    """Central-difference derivative of reflectance with respect to n_analyte.

    ``n_analyte`` may be an array; every ``n_analyte +- h`` must lie in
    ``(0, n_prism)``.
    """
    if h <= 0.0:
        raise ValueError("finite-difference step h must be positive")
    n = np.asarray(n_analyte, dtype=float)
    refl = abs(reflection(stack, geom.theta_deg, np.stack([n + h, n - h]))) ** 2
    return (refl[0] - refl[1]) / (2.0 * h)


# The reflectance has a square-root cusp where the analyte turns propagating
# (n = n_prism sin theta), and |dR/dn| diverges there, so any argmax of it would
# lock onto it.  The sensor operates under total internal reflection, below it.
_TIR_MARGIN = 1e-3
# The steep-flank scan takes _ANGLES angles a pass: it evaluates every _CELL-th grid
# point, then the cells that its bound cannot rule out.  No array of a pass reaches
# 64 KiB, past which glibc may trim its heap on each free.  The bound is widened by
# _ROUNDING of its terms, far above their few rounding errors.
_CELL = 32
_ANGLES = 48
_ROUNDING = 1e-13


def inflection_index(
    stack: Sensor,
    geom: IncidenceGeometry,
    n_range: tuple[float, float] = (1.333, 1.4422),
    tol: float = 1e-9,
    h: float = 1e-6,
    grid_points: int = 2001,
) -> float:
    """Analyte index maximising |d reflectance / d n| at fixed angle.

    This locates the steep flank of the resonance dip, the operating point
    used for precision estimates.  The scan covers ``n_range`` clipped to
    the total-internal-reflection regime ``n < n_prism sin(theta)`` where
    the attenuated-total-reflection scheme is defined.  Raises
    :class:`NoInteriorExtremumError` if the steepest point is not interior.
    A grid scan of the closed-form ``dR/dn``, which skips only the cells that a
    rigorous bound rules out, brackets it, and an Illinois solve for the root of
    the closed-form ``d2R/dn2`` refines it: ``n_inf`` lies within
    ``tol`` of a sign change of the computed ``d2R/dn2``.  ``h`` does not move
    ``n_inf``; it is checked so that ``n_inf +- h`` lies in ``(0, n_prism)``.
    """
    (n_inf,) = _steepest_flank(stack, [geom.theta_deg], n_range, tol, h, grid_points)
    if isinstance(n_inf, NoInteriorExtremumError):
        raise n_inf
    return n_inf


def _cell_bounds(cols, n, n2):
    """A bound on ``|dR/dn| = |C| G / (n D**2)`` over each cell between neighbouring
    columns of ``n`` (``n2`` their squares), a row per row of ``cols``; ``inf`` or NaN
    where ``D`` may vanish.  ``beta``, formed as the scan forms it, falls along ``n``
    after rounding too.  Over a cell, a quadratic in ``beta`` strays from its chord by
    at most ``|x2| fall**2 / 4``, ``G`` is at most its value with ``kappa`` from the
    right end and ``beta`` from the left, and ``1 / n`` at most the left end's.  ``C``
    and ``D`` round by less than ``_ROUNDING`` times their terms at the row's largest
    ``beta``, its first, plus the least normal float."""
    kk, kx2 = cols[:2]
    x0, x1, x2 = cols[2:].reshape(2, 3, -1, 1).swapaxes(0, 1)  # of C and of D
    with np.errstate(all="ignore"):  # an overflow or a NaN keeps its cell
        kappa = np.sqrt(kx2 - n2 * kk)
        beta = kappa / n2
        left, first = beta[:, :-1], beta[:, :1]
        c, d = x0 + beta * (x1 + beta * x2)
        c = abs(c)
        slack = np.square(left - beta[:, 1:]) * (0.25 * abs(x2)) + (_ROUNDING * (
            abs(x0) + first * (abs(x1) + first * abs(x2))) + sys.float_info.min)
        c_hi = np.maximum(c[:, :-1], c[:, 1:]) + slack[0]
        d_lo = np.maximum(np.minimum(d[:, :-1], d[:, 1:]) - slack[1], 0.0)
        return (c_hi * (kk / kappa[:, 1:] + 2.0 * left) / (n[:, :-1] * d_lo * d_lo)
                * (1.0 + _ROUNDING))


def _steepest_flank(stack: Sensor, thetas, n_range: tuple[float, float],
                    tol: float, h: float, grid_points: int) -> list:
    """:func:`inflection_index` at each angle of ``thetas``: its ``n_inf``, or the
    :class:`NoInteriorExtremumError` raised there.  The bracket is the two grid cells
    around the angle's first argmax of ``|dR/dn|`` on the grid, found by branch and
    bound: :func:`_tir_slope_on_grid` evaluates every ``_CELL``-th grid point, then
    every point of each cell whose bound (:func:`_cell_bounds`) is not below the best
    of those.  A dropped cell holds no point that steep, and a cell whose ``D`` may
    vanish is kept, so the argmax, the bracket and any singularity error are the full
    scan's, bit for bit.  One lockstep solve refines every bracket."""
    if h <= 0.0:
        raise ValueError("finite-difference step h must be positive")
    lo, hi = n_range
    if not (h < lo < hi < stack.n_prism - h):
        raise ValueError(f"n_range {n_range} must be ordered inside (h, n_prism - h)")
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    IncidenceGeometry(thetas)  # checks every angle, once
    k0 = 2.0 * math.pi / stack.wavelength_nm
    rows = _tir_slope_terms(stack, thetas)
    # libm's sin through map: numpy's vector sin may round differently
    n_critical = stack.n_prism * np.fromiter(map(math.sin, map(math.radians, thetas)), float)
    top = np.minimum(hi, n_critical - _TIR_MARGIN)
    step = (top - lo) / (grid_points - 1)
    scanned = np.flatnonzero(top > lo)
    peak = np.zeros(len(rows), dtype=int)  # each angle's first argmax of |dR/dn|
    ends = np.append(np.arange(0, grid_points - 1, _CELL), grid_points - 1)  # cell edges
    span = np.arange(min(_CELL, grid_points - 1) + 1)  # a cell's points, edges included
    for start in range(0, len(scanned), _ANGLES):
        block = scanned[start:start + _ANGLES]
        cols, at = rows[block].T[..., None], step[block, None]
        n = lo + ends * at  # the grid's own values: lo + i step
        n2 = n * n
        edge = np.abs(_tir_slope_on_grid(cols, (n, n2, n2 * (k0 * k0))))
        # a point as steep as the best edge lies in a kept cell, edges included
        row, cell = np.nonzero(~(_cell_bounds(cols, n, n2) < edge.max(axis=1)[:, None]))
        index = np.minimum(ends[cell, None] + span, ends[cell + 1, None])
        n = lo + index * at[row]
        n2 = n * n
        slope = np.abs(_tir_slope_on_grid(cols[:, row], (n, n2, n2 * (k0 * k0))))
        most = np.full(len(block), -np.inf)
        np.maximum.at(most, row, slope.max(axis=1))
        hit = (slope == most[row, None]) | np.isnan(slope)  # a NaN is argmax's maximum
        first = np.full(len(block), grid_points)
        np.minimum.at(first, row, np.where(hit, index, grid_points).min(axis=1))
        peak[block] = first
    interior = (top > lo) & (0 < peak) & (peak < grid_points - 1)
    found = [None] * len(rows)  # per angle: its n_inf, or why it is skipped
    for i in np.flatnonzero(~interior).tolist():
        found[i] = NoInteriorExtremumError(
            f"no total-internal-reflection window above n={lo} at theta={thetas[i]} deg "
            f"(crossover at {n_critical[i]:.6f})" if top[i] <= lo else
            f"steepest flank at n at grid boundary ({lo + peak[i] * step[i]:.6f})")
    kept = np.flatnonzero(interior)
    a, b = lo + (peak[kept] - 1) * step[kept], lo + (peak[kept] + 1) * step[kept]
    cols = rows[kept].T
    n_inf = _illinois_root(lambda n: _tir_curvature(cols, n), a, b, tol)
    for i, n in zip(kept.tolist(), n_inf.tolist()):
        found[i] = n
    return found
