"""Twin-mode photon-number states and their counting statistics.

A two-mode pure state is stored as the nonzero entries of its Fock matrix
``C[n, m]`` on a finite cutoff.  "Twin-mode" means ``|C[n, m]| == |C[m, n]|``,
which makes the per-mode means and variances equal.  Constructors are provided
for the five beam families compared in the sensing analysis; statistics are
obtained by direct summation over ``|C|**2``, so phases never enter.
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


class TruncationError(ValueError):
    """Cutoff too small for the requested truncation tolerance."""


class AmplitudeUnderflowError(TruncationError):
    """Every amplitude underflows to zero, so no cutoff can hold the state."""


class CapacityError(ValueError):
    """Cutoff cannot hold the requested Fock components at all."""


class UndefinedStatisticsError(ValueError):
    """Counting statistics are undefined (vacuum mode: zero mean photon number)."""


@dataclass(frozen=True, init=False)
class FockCoefficients:
    """Immutable two-mode Fock expansion on ``n, m in 0..cutoff``.

    Only the nonzero entries are held, ``C[rows[i], cols[i]] = values[i]``
    sorted row-major, as ``float64`` for a real array and ``complex128`` for a
    complex one.  ``sum |C|**2`` may fall short of 1 for truncated
    continuous-spectrum states; the deficit is exposed as
    :attr:`truncation_weight`.  ``FockCoefficients(C)`` copies the nonzero
    entries of a square array, which is never frozen or aliased.
    """

    size: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=float if np.isrealobj(coeffs) else complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"coefficient matrix must be square, got shape {arr.shape}")
        rows, cols = np.nonzero(arr)
        self._hold(arr.shape[0], rows, cols, arr[rows, cols])

    @classmethod
    def _entries(cls, size: int, rows, cols, values: np.ndarray) -> FockCoefficients:
        """The state whose nonzero entries, sorted row-major, are the arguments."""
        state = object.__new__(cls)
        state._hold(size, np.asarray(rows), np.asarray(cols), values)
        return state

    def _hold(self, size: int, rows, cols, values: np.ndarray) -> None:
        total = float(np.vdot(values, values).real)
        if not total <= 1.0 + 1e-9:  # NaN fails too
            if not np.all(np.isfinite(values)):
                raise ValueError("coefficients must be finite, got NaN or infinite entries")
            raise ValueError(f"coefficients are over-normalised: sum |C|^2 = {total}")
        for name, arr in (("rows", rows), ("cols", cols), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "size", size)

    @property
    def coeffs(self) -> np.ndarray:
        """The dense, read-only ``C[n, m]``, built on each access."""
        arr = np.zeros((self.size, self.size), dtype=self.values.dtype)
        arr[self.rows, self.cols] = self.values
        arr.setflags(write=False)
        return arr

    @property
    def cutoff(self) -> int:
        return self.size - 1

    @property
    def truncation_weight(self) -> float:
        return max(0.0, 1.0 - float(np.vdot(self.values, self.values).real))


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
    nonzero = np.flatnonzero(s)  # (s (x) s)[n, m] is built only where s[n] and s[m] are not 0
    values = np.multiply.outer(s[nonzero], s[nonzero]).ravel()
    kept = values != 0  # a product that underflows to 0 is no entry, as in np.outer(s, s)
    rows, cols = np.repeat(nonzero, nonzero.size)[kept], np.tile(nonzero, nonzero.size)[kept]
    return FockCoefficients._entries(s.size, rows, cols, values[kept])


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
        return s.real if alpha.imag == 0.0 else s

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
    return FockCoefficients._entries(cutoff + 1, [n_photons], [n_photons], np.ones(1))


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
    values = math.sqrt(1.0 - lam2) * lam ** np.arange(cutoff + 1)
    n = np.flatnonzero(values)  # lam**n is 0 past n = 0 when lam is 0, or when it underflows
    return FockCoefficients._entries(cutoff + 1, n, n, values[n])


def noon(n_photons: int, cutoff: int | None = None) -> FockCoefficients:
    """``(|2N, 0> + |0, 2N>)/sqrt(2)`` with per-mode mean ``N = n_photons``."""
    if n_photons < 1 or n_photons != int(n_photons):
        raise ValueError(f"n_photons must be a positive integer, got {n_photons}")
    n_photons = int(n_photons)
    if cutoff is None:
        cutoff = 2 * n_photons
    if cutoff < 2 * n_photons:
        raise CapacityError(f"cutoff {cutoff} cannot hold |{2 * n_photons},0>")
    return FockCoefficients._entries(cutoff + 1, [0, 2 * n_photons], [2 * n_photons, 0],
                                     np.full(2, 1.0 / math.sqrt(2.0)))


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


def statistics(state: FockCoefficients) -> PhotonStatistics:
    """Mandel Q (mode a), difference-noise sigma and mode correlation J.

    All moments are raw sums over the nonzero entries of ``|C|**2``; for
    well-truncated states the missing tail mass is below the constructor
    tolerance.  When a mode has zero number variance, J is reported as its
    limiting value 1.
    """
    p = np.abs(state.values)
    p *= p
    n, m = state.rows, state.cols
    mean_a = float(n @ p)
    mean_b = float(m @ p)
    if mean_a <= 0.0 or mean_b <= 0.0:
        raise UndefinedStatisticsError(
            "counting statistics need a nonzero mean photon number in each mode"
        )
    var_a = max(0.0, float((n * n) @ p) - mean_a * mean_a)
    var_b = max(0.0, float((m * m) @ p) - mean_b * mean_b)
    cov = float((n * m) @ p) - mean_a * mean_b
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
    keys = state.rows * state.size + state.cols  # ascending: entries are row-major
    mirrors = state.cols * state.size + state.rows
    at = np.searchsorted(keys, mirrors)
    at[np.append(keys, -1)[at] != mirrors] = len(keys)  # no mirror entry: read the 0
    mags = np.append(np.abs(state.values), 0.0)
    return bool(np.all(np.abs(mags[:-1] - mags[at]) <= tol))


def save_coefficients(state: FockCoefficients, dest) -> None:
    """Dump the expansion as ``n,m,re,im`` CSV rows, one per nonzero entry.

    The ``(cutoff, cutoff)`` row is written even when that entry is 0, so
    that :func:`load_coefficients` recovers the size.
    """
    entries = list(zip(state.rows.tolist(), state.cols.tolist(), state.values.tolist()))
    if not entries or entries[-1][:2] != (state.cutoff, state.cutoff):
        entries.append((state.cutoff, state.cutoff, 0.0))  # row-major: it sorts last
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        fh.write("n,m,re,im\n")
        for n, m, value in entries:
            fh.write(f"{n},{m},{float(value.real)!r},{float(value.imag)!r}\n")
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
    keys = sorted(key for key, (_, amplitude) in rows.items() if amplitude)
    n, m = np.array(keys, dtype=int).reshape(-1, 2).T
    values = np.array([rows[key][1] for key in keys], dtype=complex)
    return FockCoefficients._entries(size, n, m,
                                     values if values.imag.any() else values.real.copy())
