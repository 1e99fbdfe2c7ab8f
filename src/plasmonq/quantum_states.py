"""Twin-mode photon-number states and their counting statistics.

A two-mode pure state is stored as its Fock coefficient matrix ``C[n, m]``
on a finite cutoff.  "Twin-mode" means ``|C[n, m]| == |C[m, n]|``, which
makes the per-mode means and variances equal.  Constructors are provided
for the five beam families compared in the sensing analysis; statistics
are obtained by direct summation over ``|C|**2``, so phases never enter.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TRUNCATION_TOL",
    "TruncationError",
    "AmplitudeUnderflowError",
    "CapacityError",
    "UndefinedStatisticsError",
    "FockCoefficients",
    "PhotonStatistics",
    "coherent_product",
    "twin_fock",
    "tmsv",
    "noon",
    "squeezed_product",
    "statistics",
    "is_twin_mode",
    "save_coefficients",
    "load_coefficients",
]

DEFAULT_TRUNCATION_TOL = 1e-10

_MAX_AUTO_CUTOFF = 4096
_ROW_BLOCK = 64  # rows of |C|**2 formed at a time by statistics() and the Fock oracle


class TruncationError(ValueError):
    """Cutoff too small for the requested truncation tolerance."""


class AmplitudeUnderflowError(TruncationError):
    """Every amplitude underflows to zero, so no cutoff can hold the state."""


class CapacityError(ValueError):
    """Cutoff cannot hold the requested Fock components at all."""


class UndefinedStatisticsError(ValueError):
    """Counting statistics are undefined (vacuum mode: zero mean photon number)."""


@dataclass(frozen=True)
class FockCoefficients:
    """Immutable two-mode Fock expansion on ``n, m in 0..cutoff``.

    ``sum |C|**2`` may fall short of 1 for truncated continuous-spectrum
    states; the deficit is exposed as :attr:`truncation_weight`.  A real
    array is stored as ``float64`` and a complex one as ``complex128``, so
    the real states built here hold half the bytes.  A caller's array is
    copied, never frozen or aliased; the constructors here adopt their fresh
    arrays uncopied.
    """

    coeffs: np.ndarray

    def __post_init__(self, copy: bool = True):
        dtype = float if np.isrealobj(self.coeffs) else complex
        arr = np.array(self.coeffs, dtype=dtype, copy=copy)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"coefficient matrix must be square, got shape {arr.shape}")
        total = float(np.vdot(arr, arr).real)
        if total > 1.0 + 1e-9:
            raise ValueError(f"coefficients are over-normalised: sum |C|^2 = {total}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def cutoff(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def truncation_weight(self) -> float:
        return max(0.0, 1.0 - float(np.vdot(self.coeffs, self.coeffs).real))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> FockCoefficients:
        """Wrap ``arr``, a fresh float or complex array nothing else refers to, uncopied."""
        state = object.__new__(cls)
        object.__setattr__(state, "coeffs", arr)
        state.__post_init__(copy=False)
        return state


@dataclass(frozen=True)
class PhotonStatistics:
    """Input-side counting numbers entering the measurement moments."""

    mean_a: float
    mean_b: float
    q_mandel: float
    sigma: float
    j_corr: float


def _cutoff(family: str, weight, cutoff: int | None, tol: float, start: int, grow) -> int:
    """A cutoff whose truncation weight ``weight(cutoff)`` is below ``tol``.

    A given ``cutoff`` is only checked.  With ``cutoff=None`` this is the first
    of ``start, grow(start), ...`` that meets ``tol``; the first candidate is
    capped at ``_MAX_AUTO_CUTOFF``, and the search gives up at that cap.
    """
    if cutoff is not None:
        if not weight(cutoff) < tol:
            raise TruncationError(
                f"{family}: truncation weight {weight(cutoff):.3e} at cutoff {cutoff} "
                f"exceeds tolerance {tol:.1e}; increase the cutoff"
            )
        return cutoff
    cutoff = min(start, _MAX_AUTO_CUTOFF)
    while not weight(cutoff) < tol:
        if cutoff >= _MAX_AUTO_CUTOFF:
            raise TruncationError(
                f"{family}: cannot reach tolerance {tol:.1e} below cutoff {_MAX_AUTO_CUTOFF}"
            )
        cutoff = grow(cutoff)
    return cutoff


def _product(family: str, amplitudes, cutoff: int | None, tol: float,
             start: int) -> FockCoefficients:
    """``s (x) s`` for two identical modes; ``cutoff=None`` doubles from ``start``."""
    tried = {}  # cutoff -> amplitudes, so the chosen ones are not built twice

    def weight(c: int) -> float:
        tried[c] = amplitudes(c)
        mode_mass = float(np.sum(np.abs(tried[c]) ** 2))
        return 1.0 - mode_mass * mode_mass

    _check_tolerance(tol)
    s = tried[_cutoff(family, weight, cutoff, tol, start, lambda c: 2 * c)]
    return FockCoefficients._adopt(np.outer(s, s))


def _check_tolerance(tol: float) -> None:
    if not 0.0 < tol < 1.0:  # NaN fails too
        raise ValueError(f"truncation_tol must lie strictly between 0 and 1, got {tol}")


def _check_mean_photons(mean_photons: float) -> None:
    if not math.isfinite(mean_photons):
        raise ValueError(f"mean_photons must be finite, got {mean_photons}")
    if mean_photons < 0.0:
        raise ValueError("mean_photons must be non-negative")


def coherent_product(
    alpha: complex,
    cutoff: int | None = None,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> FockCoefficients:
    """Product of identical coherent states, ``C[n, m] ~ alpha**(n+m)/sqrt(n! m!)``.

    With ``cutoff=None`` the cutoff grows until the truncation weight drops
    below ``truncation_tol``.  Past ``|alpha|**2`` of about 1416.8 the vacuum
    amplitude ``exp(-|alpha|**2/2)`` is subnormal, so the recurrence would
    start from a few significant bits (past about 1490 it is 0); that raises
    :class:`AmplitudeUnderflowError`.
    """
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    vacuum = math.exp(-0.5 * abs(alpha) ** 2)

    def amplitudes(c: int) -> np.ndarray:
        if vacuum < sys.float_info.min:
            how = "underflows to 0" if vacuum == 0.0 else f"is subnormal ({vacuum:.3g})"
            raise AmplitudeUnderflowError(
                f"coherent_product: the vacuum amplitude exp(-|alpha|^2/2) {how} "
                f"at |alpha|^2 = {abs(alpha) ** 2:.6g}"
            )
        s = np.empty(c + 1, dtype=complex)
        s[0] = vacuum
        for n in range(c):
            s[n + 1] = s[n] * alpha / math.sqrt(n + 1)
        # a real recurrence would round differently; the real part is exact
        return s.real.copy() if alpha.imag == 0.0 else s

    start = max(8, int(abs(alpha) ** 2 + 10.0 * math.sqrt(abs(alpha) ** 2 + 1.0)))
    return _product("coherent_product", amplitudes, cutoff, truncation_tol, start)


def twin_fock(n_photons: int, cutoff: int | None = None) -> FockCoefficients:
    """The state with exactly ``n_photons`` in each mode (finite support)."""
    if n_photons < 0 or n_photons != int(n_photons):
        raise ValueError(f"n_photons must be a non-negative integer, got {n_photons}")
    n_photons = int(n_photons)
    if cutoff is None:
        cutoff = n_photons
    if cutoff < n_photons:
        raise CapacityError(f"cutoff {cutoff} cannot hold |{n_photons},{n_photons}>")
    c = np.zeros((cutoff + 1, cutoff + 1))
    c[n_photons, n_photons] = 1.0
    return FockCoefficients._adopt(c)


def tmsv(
    mean_photons: float,
    cutoff: int | None = None,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> FockCoefficients:
    """Two-mode squeezed vacuum with per-mode mean ``mean_photons``.

    Diagonal expansion ``C[n, n] = sqrt(1 - lam**2) * lam**n`` with
    ``lam = tanh(r)`` and ``sinh(r)**2 = mean_photons``.
    """
    _check_mean_photons(mean_photons)
    _check_tolerance(truncation_tol)
    lam2 = mean_photons / (1.0 + mean_photons)  # tanh(r)^2
    start = 0  # lam2 of 0 or 1 has the same weight at every cutoff
    if cutoff is None and 0.0 < lam2 < 1.0:
        # the truncation weight at cutoff c is lam2**(c+1); solve it for tol
        start = max(0, math.ceil(math.log(truncation_tol) / math.log(lam2)) - 1)
    cutoff = _cutoff("tmsv", lambda c: lam2 ** (c + 1), cutoff, truncation_tol, start,
                     lambda c: c + 1)
    lam = math.sqrt(lam2)
    c = np.zeros((cutoff + 1, cutoff + 1))
    c[np.diag_indices(cutoff + 1)] = math.sqrt(1.0 - lam2) * lam ** np.arange(cutoff + 1)
    return FockCoefficients._adopt(c)


def noon(n_photons: int, cutoff: int | None = None) -> FockCoefficients:
    """``(|2N, 0> + |0, 2N>)/sqrt(2)`` with per-mode mean ``N = n_photons``."""
    if n_photons < 1 or n_photons != int(n_photons):
        raise ValueError(f"n_photons must be a positive integer, got {n_photons}")
    n_photons = int(n_photons)
    if cutoff is None:
        cutoff = 2 * n_photons
    if cutoff < 2 * n_photons:
        raise CapacityError(f"cutoff {cutoff} cannot hold |{2 * n_photons},0>")
    c = np.zeros((cutoff + 1, cutoff + 1))
    c[2 * n_photons, 0] = c[0, 2 * n_photons] = 1.0 / math.sqrt(2.0)
    return FockCoefficients._adopt(c)


def squeezed_product(
    mean_photons: float,
    cutoff: int | None = None,
    truncation_tol: float = DEFAULT_TRUNCATION_TOL,
) -> FockCoefficients:
    """Product of identical single-mode squeezed vacua, per-mode ``sinh(r)**2 = mean_photons``.

    Per-mode amplitudes vanish on odd numbers;
    ``s[2k] = sqrt((2k)!)/(2**k k!) * (-tanh r)**k / sqrt(cosh r)``.
    """
    _check_mean_photons(mean_photons)
    sinh_r = math.sqrt(mean_photons)
    cosh_r = math.sqrt(1.0 + mean_photons)
    factor = -sinh_r / cosh_r  # -tanh(r)

    def amplitudes(c: int) -> np.ndarray:
        s = np.zeros(c + 1)
        s[0] = 1.0 / math.sqrt(cosh_r)
        term = s[0]
        for k in range(1, c // 2 + 1):
            # s[2k]/s[2k-2] = sqrt((2k-1)/(2k)) * factor
            term = term * factor * math.sqrt((2 * k - 1) / (2 * k))
            s[2 * k] = term
        return s

    return _product("squeezed_product", amplitudes, cutoff, truncation_tol, 16)


def _row_blocks(coeffs: np.ndarray):
    """``(rows, |coeffs[rows]|**2)`` for blocks of ``_ROW_BLOCK`` rows, top down."""
    for start in range(0, coeffs.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        p = np.abs(coeffs[rows])
        p *= p
        yield rows, p


def statistics(state: FockCoefficients) -> PhotonStatistics:
    """Mandel Q (mode a), difference-noise sigma and mode correlation J.

    All moments are raw sums over ``|C|**2``, taken a block of rows at a
    time; for well-truncated states the missing tail mass is below the
    constructor tolerance.  When a mode has zero number variance, J is
    reported as its limiting value 1.
    """
    idx = np.arange(state.cutoff + 1, dtype=float)
    pa, pb, cov = np.empty_like(idx), np.zeros_like(idx), 0.0
    for rows, p in _row_blocks(state.coeffs):
        pa[rows] = p.sum(axis=1)
        pb += p.sum(axis=0)
        cov += float(idx[rows] @ p @ idx)  # sum n m |C|^2 so far
    mean_a = float(idx @ pa)
    mean_b = float(idx @ pb)
    if mean_a <= 0.0 or mean_b <= 0.0:
        raise UndefinedStatisticsError(
            "counting statistics need a nonzero mean photon number in each mode"
        )
    var_a = max(0.0, float(idx * idx @ pa) - mean_a * mean_a)
    var_b = max(0.0, float(idx * idx @ pb) - mean_b * mean_b)
    cov -= mean_a * mean_b
    q_mandel = var_a / mean_a - 1.0
    sigma = max(0.0, (var_a + var_b - 2.0 * cov) / (mean_a + mean_b))
    if var_a == 0.0 or var_b == 0.0:
        j_corr = 1.0
    else:
        # two square roots: the product var_a * var_b underflows below ~1e-162
        j_corr = cov / (math.sqrt(var_a) * math.sqrt(var_b))
        j_corr = min(1.0, max(-1.0, j_corr))
    return PhotonStatistics(mean_a=mean_a, mean_b=mean_b, q_mandel=q_mandel,
                            sigma=sigma, j_corr=j_corr)


def is_twin_mode(state: FockCoefficients, tol: float = 1e-12) -> bool:
    """Whether ``|C[n, m]|`` is symmetric under mode exchange."""
    c = state.coeffs
    for start in range(0, c.shape[0], _ROW_BLOCK):  # no size^2 temporaries
        rows = slice(start, start + _ROW_BLOCK)
        gap = np.abs(c[rows])
        gap -= np.abs(c[:, rows]).T
        if not np.max(np.abs(gap, out=gap)) <= tol:
            return False
    return True


def save_coefficients(state: FockCoefficients, dest) -> None:
    """Dump the expansion as ``n,m,re,im`` CSV rows (all entries)."""
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        fh.write("n,m,re,im\n")
        c = state.coeffs
        for n in range(c.shape[0]):
            for m in range(c.shape[1]):
                fh.write(f"{n},{m},{float(c[n, m].real)!r},{float(c[n, m].imag)!r}\n")
    finally:
        if own:
            fh.close()


def load_coefficients(src) -> FockCoefficients:
    """Read back a dump of :func:`save_coefficients`; with every ``im`` 0 it is real."""
    own = isinstance(src, (str, bytes)) or hasattr(src, "__fspath__")
    fh = open(src, "r", encoding="utf-8") if own else src
    try:
        rows = {}  # (n, m) -> (line number, amplitude)
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("n,"):
                continue
            cells = line.split(",")
            if len(cells) != 4:
                raise ValueError(f"line {line_number}: expected n,m,re,im")
            n, m = int(cells[0]), int(cells[1])
            if n < 0 or m < 0:
                raise ValueError(f"line {line_number}: negative Fock index ({n}, {m})")
            if (n, m) in rows:
                raise ValueError(f"line {line_number}: ({n}, {m}) is already set "
                                 f"on line {rows[n, m][0]}")
            rows[n, m] = (line_number, complex(float(cells[2]), float(cells[3])))
    finally:
        if own:
            fh.close()
    if not rows:
        raise ValueError("no coefficient rows found")
    size = max(map(max, rows)) + 1
    c = np.zeros((size, size), dtype=complex)
    for (n, m), (_, amplitude) in rows.items():
        c[n, m] = amplitude
    return FockCoefficients._adopt(c if c.imag.any() else c.real.copy())
