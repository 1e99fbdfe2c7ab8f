"""Intensity-difference readout of the plasmonic sensor.

Mode a probes the gold film (amplitude reflection ``|r_sp|``), mode b is an
unperturbed reference; photodetectors with amplitude efficiencies
``eta_a, eta_b`` record the difference ``M = n_b - n_a``.  Its first two
moments depend on the input light only through the per-mode mean ``N``, the
Mandel Q of one mode and the normalised difference-noise ``sigma``, which is
what makes a closed-form comparison across beam families possible.  The
estimation precision is the measured noise divided by the slope of the mean
signal with respect to the analyte index.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fresnel import (IncidenceGeometry, NoInteriorExtremumError, Sensor, _steepest_flank,
                      reflection)
from .quantum_states import PhotonStatistics

__all__ = [
    "MetrologyDomainError",
    "DivergenceError",
    "DegenerateOperatingPointError",
    "ChannelEfficiencies",
    "MeasurementStats",
    "PrecisionResult",
    "STATE_FAMILIES",
    "STATE_NAMES",
    "state_family",
    "family_statistics",
    "signal_mean",
    "signal_std",
    "ratio",
    "ratio_twin_fock",
    "ratio_tmsv",
    "precision",
    "sweep_ratio",
    "sweep_precision_vs_angle",
]


class MetrologyDomainError(ValueError):
    """Moment formula evaluated outside its physical domain."""


class DivergenceError(ArithmeticError):
    """Requested quantity diverges at this operating point."""


class DegenerateOperatingPointError(ZeroDivisionError):
    """The mean signal has zero slope here, so no index information."""


def _check_unit_interval(name: str, value) -> None:
    """Raise ``ValueError`` naming the first element of ``value`` outside
    ``[0, 1]``, NaN included; ``value`` is a number or an array."""
    value = np.asarray(value)
    outside = value[~((value >= 0.0) & (value <= 1.0))]
    if outside.size:
        raise ValueError(f"{name} must lie in [0, 1], got {outside[0]}")


@dataclass(frozen=True)
class ChannelEfficiencies:
    """Amplitude transmissions of the two detection channels; numbers or arrays."""

    eta_a: float
    eta_b: float

    def __post_init__(self):
        for name in ("eta_a", "eta_b"):
            _check_unit_interval(name, getattr(self, name))


@dataclass(frozen=True)
class MeasurementStats:
    """Mean and standard deviation of the photon-number difference; numbers or arrays."""

    mean: float
    std: float

    def __post_init__(self):
        std = np.asarray(self.std)
        negative = std[std < 0.0]
        if negative.size:
            raise ValueError(f"std must be non-negative, got {negative[0]}")


@dataclass(frozen=True)
class PrecisionResult:
    """Index precision together with the ingredients it was built from."""

    delta_n: float
    signal_slope: float
    noise: float


def signal_mean(r_abs, eff: ChannelEfficiencies, n_photons: float):
    """Mean photon-number difference, ``(eta_b^2 - |r|^2 eta_a^2) N``, over any ``r_abs``."""
    return (eff.eta_b * eff.eta_b - r_abs * r_abs * (eff.eta_a * eff.eta_a)) * n_photons


def signal_std(r_abs, eff: ChannelEfficiencies, n_photons, q_mandel, sigma):
    """Standard deviation of the photon-number difference.

    Closed form in the input statistics,

    ``sqrt(N) * [(eta_b^2 - |r|^2 eta_a^2)^2 Q + 2 |r|^2 eta_a^2 eta_b^2 sigma
    + eta_b^2 + |r|^2 eta_a^2 (1 - 2 eta_b^2)]^(1/2)``;

    it agrees exactly with pushing the state through two binomial loss
    channels (see :mod:`plasmonq.fock_oracle`).  Broadcasts over all of its
    arguments, the efficiencies included; scalars give a float.  Rounding-level
    negative radicands are clamped to zero; genuinely negative ones (unphysical
    Q/sigma) raise, naming the first.
    """
    ta = r_abs * r_abs * (eff.eta_a * eff.eta_a)  # products, as in _ratio_terms
    tb = eff.eta_b * eff.eta_b
    gap = tb - ta
    radicand = gap * gap * q_mandel + 2.0 * ta * tb * sigma + tb + ta * (1.0 - 2.0 * tb)
    negative = radicand < -1e-12
    if np.any(negative):
        value, q, s = (np.broadcast_to(v, np.shape(negative))[negative][0]
                       for v in (radicand, q_mandel, sigma))
        raise MetrologyDomainError(f"variance came out negative ({value}) for Q={q}, sigma={s}")
    std = np.sqrt(n_photons) * np.sqrt(np.maximum(radicand, 0.0))
    return std if std.ndim else float(std)


def ratio(r_abs: float, eta: float, q_mandel: float, sigma: float) -> float:
    """Precision enhancement over an equally bright ideal coherent probe.

    ``R = [(1 + |r|^2) / ((1-|r|^2)^2 eta^2 Q + 2 |r|^2 eta^2 sigma
    + 1 + |r|^2 (1 - 2 eta^2))]^(1/2)``

    for balanced detection ``eta_a = eta_b = eta``; R > 1 means the probe
    beats the coherent state.  R is independent of the brightness N.
    """
    r2, den = _ratio_terms(r_abs, eta, q_mandel, sigma)
    if den <= 0.0:
        raise _ratio_domain_error(den, r_abs, eta)
    return math.sqrt((1.0 + r2) / den)


def _ratio_terms(r_abs, eta, q_mandel, sigma):
    """``|r|^2`` and the denominator of :func:`ratio`; the arguments broadcast.

    Squares are products, not ``** 2``: Python's float power can round a
    square differently from numpy's array square, and a float and an array
    must give the same bits.
    """
    _check_unit_interval("eta", eta)
    r2 = r_abs * r_abs
    e2 = eta * eta
    loss = 1.0 - r2
    return r2, loss * loss * e2 * q_mandel + 2.0 * r2 * e2 * sigma + 1.0 + r2 * (1.0 - 2.0 * e2)


def _ratio_domain_error(den: float, r_abs: float, eta: float) -> MetrologyDomainError:
    return MetrologyDomainError(
        f"enhancement denominator {den} is not positive at |r|={r_abs}, eta={eta}"
    )


def ratio_twin_fock(r_abs: float) -> float:
    """Lossless-detection enhancement of the twin Fock beam, any brightness.

    ``R_NN = [(1+|r|^2)/(|r|^2 - |r|^4)]^(1/2)``, diverging as |r| -> 0 or 1.
    """
    if not 0.0 < r_abs < 1.0:
        raise DivergenceError(
            f"twin-Fock enhancement diverges as |r|^2 -> 0 or 1 (got |r|={r_abs})"
        )
    r2 = r_abs**2
    return math.sqrt((1.0 + r2) / (r2 - r2 * r2))


def ratio_tmsv(r_abs: float, n_photons: float) -> float:
    """Lossless-detection enhancement of two-mode squeezed vacuum.

    ``R_TMSV = [(1+|r|^2)/(1 - |r|^2 + N (1-|r|^2)^2)]^(1/2)``; approaches
    ``(1+N)^(-1/2)`` as |r| -> 0.
    """
    r2 = r_abs**2
    den = 1.0 - r2 + n_photons * (1.0 - r2) ** 2
    if den <= 0.0:
        raise MetrologyDomainError(
            f"enhancement denominator {den} is not positive at |r|={r_abs}, N={n_photons}"
        )
    return math.sqrt((1.0 + r2) / den)


# Mandel Q, difference noise and mode correlation of each beam family as a
# function of its per-mode mean photon number N.  These are the exact
# statistics of the untruncated states; agreement with
# quantum_states.statistics() on truncated expansions is covered by tests.
_FAMILY_MOMENTS = {
    "coherent": lambda n: (0.0, 1.0, 0.0),
    "twin-fock": lambda n: (-1.0, 0.0, 1.0),
    "tmsv": lambda n: (n, 0.0, 1.0),
    "noon": lambda n: (n - 1.0, 2.0 * n, -1.0),
    "squeezed": lambda n: (2.0 * n + 1.0, 2.0 * n + 2.0, 0.0),
}
_ALIASES = {"squeezed-product": "squeezed"}
STATE_FAMILIES = tuple(_FAMILY_MOMENTS)
STATE_NAMES = STATE_FAMILIES + tuple(_ALIASES)


def state_family(name: str) -> str:
    """The family a state name denotes, ignoring case and ``_`` vs ``-``."""
    key = name.strip().lower().replace("_", "-")
    key = _ALIASES.get(key, key)
    if key not in _FAMILY_MOMENTS:
        raise ValueError(f"unknown state {name!r}; choose from {', '.join(STATE_NAMES)}")
    return key


def family_statistics(family: str, n_photons: float) -> PhotonStatistics:
    """Closed-form :class:`PhotonStatistics` for a named beam family."""
    key = state_family(family)
    if not math.isfinite(n_photons):
        raise ValueError(f"n_photons must be finite, got {n_photons}")
    if n_photons <= 0.0:
        raise ValueError(f"n_photons must be positive, got {n_photons}")
    if key in ("twin-fock", "noon") and n_photons != int(n_photons):
        raise ValueError(f"{key} needs an integer photon number, got {n_photons}")
    n = float(n_photons)
    q, s, j = _FAMILY_MOMENTS[key](n)
    return PhotonStatistics(mean_a=n, mean_b=n, q_mandel=q, sigma=s, j_corr=j)


def precision(
    stack: Sensor,
    geom: IncidenceGeometry,
    n_analyte: float,
    state_stats: PhotonStatistics,
    eff: ChannelEfficiencies,
    h: float = 1e-6,
) -> PrecisionResult:
    """Index precision ``delta_n = noise / |d<M>/dn|`` at ``n_analyte``.

    The slope is a central finite difference of the mean signal through the
    stack's reflection coefficient; for balanced efficiencies it equals
    ``eta^2 N |d|r_sp|^2/dn|``.
    """
    if h <= 0.0:
        raise ValueError("finite-difference step h must be positive")
    r_abs = abs(reflection(stack, geom.theta_deg, [n_analyte - h, n_analyte, n_analyte + h]))
    return PrecisionResult(*map(float, _precision_at(*r_abs, n_analyte, state_stats, eff, h)))


def _precision_at(r_lo, r_mid, r_hi, n_analyte, state_stats: PhotonStatistics,
                  eff: ChannelEfficiencies, h: float):
    """``(delta_n, slope, noise)`` of :func:`precision` from ``|r_sp|`` at
    ``n_analyte - h, n_analyte, n_analyte + h``; the arguments broadcast."""
    n_photons = state_stats.mean_a
    slope = (signal_mean(r_hi, eff, n_photons) - signal_mean(r_lo, eff, n_photons)) / (2.0 * h)
    stationary = np.asarray(n_analyte)[slope == 0.0]
    if stationary.size:
        raise DegenerateOperatingPointError(
            f"mean signal is stationary at n_analyte={stationary[0]}; no index information"
        )
    noise = signal_std(r_mid, eff, n_photons, state_stats.q_mandel, state_stats.sigma)
    return noise / abs(slope), slope, noise


def sweep_ratio(
    stack: Sensor,
    geom: IncidenceGeometry,
    n_grid,
    state_stats: PhotonStatistics,
    eta: float = 1.0,
) -> list[tuple[float, float]]:
    """Enhancement ratio across an analyte-index grid.

    Points where the ratio is undefined are reported as warnings and carry
    NaN; the sweep always returns one pair per grid point.
    """
    grid = [float(n) for n in n_grid]
    r_abs = abs(reflection(stack, geom.theta_deg, grid))
    r2, den = _ratio_terms(r_abs, eta, state_stats.q_mandel, state_stats.sigma)
    bad = den <= 0.0
    values = np.sqrt((1.0 + r2) / np.where(bad, 1.0, den))
    values[bad] = math.nan
    for i in np.flatnonzero(bad).tolist():
        exc = _ratio_domain_error(den[i].item(), r_abs[i].item(), eta)
        warnings.warn(f"n_analyte={grid[i]}: {exc}", stacklevel=2)
    return list(zip(grid, values.tolist()))


def _operating_points(stack: Sensor, theta_grid, n_range: tuple[float, float],
                      tol: float, h: float, grid_points: int,
                      stacklevel: int = 3) -> list[tuple[float, float]]:
    """The ``(theta, n_inf)`` steep-flank operating points of ``theta_grid``.

    An angle without an interior steepest point is dropped with one warning
    that names it, attributed ``stacklevel`` frames up: by default to the
    caller of this function's caller.
    """
    theta_grid = list(theta_grid)
    found = _steepest_flank(stack, [float(theta) for theta in theta_grid], n_range, tol, h,
                            grid_points)
    points = []
    for theta, n_inf in zip(theta_grid, found):
        if isinstance(n_inf, NoInteriorExtremumError):
            warnings.warn(f"theta={theta} deg skipped: {n_inf}", stacklevel=stacklevel)
        else:
            points.append((float(theta), n_inf))
    return points


def sweep_precision_vs_angle(
    stack: Sensor,
    theta_grid,
    states,
    n_photons: float = 1.0,
    eta: float = 1.0,
    n_range: tuple[float, float] = (1.30, 1.4422),
    h: float = 1e-6,
    tol: float = 1e-9,
    grid_points: int = 2001,
) -> list[dict]:
    """Precision at the steepest-flank operating point, per angle and state.

    For each incidence angle the analyte index of maximum slope magnitude is
    located within ``n_range`` (restricted to total internal reflection) and
    every requested state is evaluated there.  ``states`` holds family names
    (statistics built at ``n_photons``) or ``(label, PhotonStatistics)``
    pairs.  Angles without an interior steepest point are skipped with a
    warning; each surviving angle contributes one row per state with keys
    ``theta_deg, n_inf, state, N, eta, delta_n, slope, noise``.
    """
    columns = _precision_columns(stack, theta_grid, states, n_photons, eta, n_range, h, tol,
                                 grid_points, stacklevel=4)
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _precision_columns(stack: Sensor, theta_grid, states, n_photons: float, eta: float,
                       n_range: tuple[float, float], h: float, tol: float, grid_points: int,
                       stacklevel: int = 3) -> dict[str, list]:
    """The rows of :func:`sweep_precision_vs_angle` as columns, name to values.

    An angle's ``theta_deg`` and ``n_inf`` are one object each, repeated
    once per state.  Skipped angles are warned of ``stacklevel`` frames up
    from :func:`_operating_points`: by default, at this function's caller.
    """
    resolved: list[tuple[str, PhotonStatistics]] = []
    for item in states:
        if isinstance(item, str):
            resolved.append((item, family_statistics(item, n_photons)))
        else:
            label, stats = item
            resolved.append((str(label), stats))
    eff = ChannelEfficiencies(eta, eta)
    points = _operating_points(stack, theta_grid, n_range, tol, h, grid_points, stacklevel)
    n_infs = np.array([n_inf for _, n_inf in points])
    r_abs = abs(reflection(stack, [theta for theta, _ in points],
                           [n_infs - h, n_infs, n_infs + h]))
    # (delta_n, slope, noise) of one _precision_at call per state, over all
    # angles, then angle by angle: (3, angles, states)
    values = np.reshape([_precision_at(*r_abs, n_infs, stats, eff, h) for _, stats in resolved],
                        (len(resolved), 3, len(points))).transpose(1, 2, 0)
    states_once = range(len(resolved))
    return {
        "theta_deg": [theta for theta, _ in points for _ in states_once],
        "n_inf": [n_inf for _, n_inf in points for _ in states_once],
        "state": [label for label, _ in resolved] * len(points),
        "N": [stats.mean_a for _, stats in resolved] * len(points),
        "eta": [eta] * (len(resolved) * len(points)),
        **{name: column.ravel().tolist()
           for name, column in zip(("delta_n", "slope", "noise"), values)},
    }
