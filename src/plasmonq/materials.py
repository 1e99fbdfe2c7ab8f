"""Complex permittivity of the sensor's metal film.

Two sources are supported: tabulated optical constants (n, k) loaded from
CSV and linearly interpolated, and an analytic Drude-Lorentz oscillator
model as a table-free fallback.  All permittivities follow the
``e^{-i omega t}`` time convention, so a passive (absorbing) medium has
``Im(epsilon) >= 0``.  Wavelengths are vacuum wavelengths in nanometres.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from dataclasses import dataclass
from importlib import resources

__all__ = [
    "C_NM_PER_S",
    "DispersionParseError",
    "DispersionValidationError",
    "WavelengthRangeError",
    "DispersionTable",
    "DrudeLorentzParams",
    "load_dispersion",
    "permittivity_at",
    "drude_lorentz_permittivity",
    "gold_dispersion",
    "GOLD_DRUDE_LORENTZ",
]

C_NM_PER_S = 2.99792458e17
"""Vacuum speed of light in nm/s."""

# hbar*omega[rad/s] = E[eV] * e / hbar
_EV_TO_RAD_PER_S = 1.602176634e-19 / 1.054571817e-34


class DispersionParseError(ValueError):
    """A dispersion CSV line could not be parsed.

    Attributes
    ----------
    line_number : int
        1-based line number of the offending row.
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DispersionValidationError(ValueError):
    """Parsed dispersion data violates a table invariant."""


class WavelengthRangeError(ValueError):
    """A wavelength query falls outside the tabulated range (no extrapolation)."""


@dataclass(frozen=True)
class DispersionTable:
    """Tabulated optical constants of one material.

    Parameters
    ----------
    entries : tuple of (wavelength_nm, n, k)
        Rows sorted by strictly increasing wavelength; ``k >= 0``.
    source_label : str
        Free-form provenance string for error messages and dumps.
    """

    entries: tuple[tuple[float, float, float], ...]
    source_label: str = ""

    def __post_init__(self):
        rows = tuple((float(w), float(n), float(k)) for w, n, k in self.entries)
        if len(rows) < 2:
            raise DispersionValidationError(
                f"need at least 2 tabulated points, got {len(rows)}"
            )
        for i, (w, _n, k) in enumerate(rows):
            if not math.isfinite(w) or w <= 0.0:
                raise DispersionValidationError(f"entry {i}: bad wavelength {w!r}")
            if not (k >= 0.0):
                raise DispersionValidationError(
                    f"entry {i}: extinction k={k!r} must be >= 0"
                )
        for i in range(1, len(rows)):
            if rows[i][0] == rows[i - 1][0]:
                raise DispersionValidationError(
                    f"duplicate wavelength {rows[i][0]} nm (entries {i - 1} and {i})"
                )
            if rows[i][0] < rows[i - 1][0]:
                raise DispersionValidationError(
                    f"wavelengths not ascending at entry {i} ({rows[i][0]} nm)"
                )
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_wavelengths", tuple(r[0] for r in rows))

    @property
    def wavelength_min(self) -> float:
        return self.entries[0][0]

    @property
    def wavelength_max(self) -> float:
        return self.entries[-1][0]

    def permittivity(self, wavelength_nm: float) -> complex:
        """Interpolated complex permittivity at ``wavelength_nm``."""
        return permittivity_at(self, wavelength_nm)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_dispersion(source, source_label: str = "") -> DispersionTable:
    """Parse a dispersion table from a CSV byte or text stream.

    The expected columns are ``wavelength_nm,n,k``.  Blank lines and lines
    starting with ``#`` are ignored; one optional header line (first
    non-comment line with a non-numeric leading token) is skipped.  Rows
    may appear in any order and are sorted on load.

    Raises
    ------
    DispersionParseError
        On a malformed row, with the 1-based line number.
    DispersionValidationError
        On duplicate wavelengths, negative extinction or fewer than two rows.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, (str, bytes)):
        text = source
    else:
        raise TypeError("source must be a file-like object, str or bytes")
    if isinstance(text, bytes):
        text = text.decode("utf-8")

    rows = []
    header_allowed = True
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header_allowed and cells and not _is_number(cells[0]):
            header_allowed = False
            continue
        header_allowed = False
        if len(cells) != 3:
            raise DispersionParseError(
                line_number, f"expected 3 comma-separated columns, got {len(cells)}"
            )
        try:
            w, n, k = (float(c) for c in cells)
        except ValueError:
            raise DispersionParseError(
                line_number, f"non-numeric cell in row {line!r}"
            ) from None
        rows.append((w, n, k))

    rows.sort(key=lambda r: r[0])
    return DispersionTable(entries=tuple(rows), source_label=source_label)


def permittivity_at(table: DispersionTable, wavelength_nm: float) -> complex:
    """Permittivity ``(n + i k)**2`` with n and k interpolated linearly.

    Interpolation happens on n and k separately, not on epsilon, and is
    exact on grid points.  Queries outside the tabulated range raise
    :class:`WavelengthRangeError`.
    """
    wl = table._wavelengths
    if not (wl[0] <= wavelength_nm <= wl[-1]):
        raise WavelengthRangeError(
            f"{wavelength_nm} nm outside tabulated range "
            f"[{wl[0]}, {wl[-1]}] nm ({table.source_label or 'unlabelled table'})"
        )
    i = bisect_left(wl, wavelength_nm)
    if i < len(wl) and wl[i] == wavelength_nm:
        _, n, k = table.entries[i]
    else:
        w0, n0, k0 = table.entries[i - 1]
        w1, n1, k1 = table.entries[i]
        t = (wavelength_nm - w0) / (w1 - w0)
        n = n0 + t * (n1 - n0)
        k = k0 + t * (k1 - k0)
    return complex(n, k) ** 2


@dataclass(frozen=True)
class DrudeLorentzParams:
    """Drude pole plus Lorentz oscillators, all frequencies in rad/s.

    epsilon(omega) = epsilon_infinity - wp^2 / (omega^2 + i*gamma*omega)
                     + sum_j f_j w_j^2 / (w_j^2 - omega^2 - i*G_j*omega)

    ``oscillators`` holds ``(strength f_j, resonance w_j, width G_j)``
    triples.  Resonances, widths and the Drude rates must be positive.
    """

    plasma_frequency: float
    damping_rate: float
    oscillators: tuple[tuple[float, float, float], ...] = ()
    epsilon_infinity: float = 1.0

    def __post_init__(self):
        if self.plasma_frequency <= 0.0:
            raise ValueError("plasma_frequency must be positive")
        if self.damping_rate <= 0.0:
            raise ValueError("damping_rate must be positive")
        for j, (_f, w0, width) in enumerate(self.oscillators):
            if w0 <= 0.0 or width <= 0.0:
                raise ValueError(f"oscillator {j}: resonance and width must be positive")
        object.__setattr__(self, "oscillators", tuple(
            (float(f), float(w0), float(width)) for f, w0, width in self.oscillators
        ))

    def permittivity(self, wavelength_nm: float) -> complex:
        return drude_lorentz_permittivity(self, wavelength_nm)


def drude_lorentz_permittivity(params: DrudeLorentzParams, wavelength_nm: float) -> complex:
    """Model permittivity at a vacuum wavelength in nm."""
    if wavelength_nm <= 0.0:
        raise ValueError("wavelength must be positive")
    w = 2.0 * math.pi * C_NM_PER_S / wavelength_nm
    eps = complex(params.epsilon_infinity)
    eps -= params.plasma_frequency**2 / (w * w + 1j * params.damping_rate * w)
    for f, w0, width in params.oscillators:
        eps += f * w0 * w0 / (w0 * w0 - w * w - 1j * width * w)
    return eps


def _gold_drude_lorentz() -> DrudeLorentzParams:
    # Lorentz-Drude fit for Au, Rakic et al., Appl. Opt. 37, 5271 (1998),
    # Table 1 (energies in eV).  Interband strengths are rescaled from the
    # published f_j*wp^2 numerator convention to the f_j*w_j^2 one used here.
    wp = 9.03
    f0, gamma0 = 0.760, 0.053
    interband = (
        (0.024, 0.415, 0.241),
        (0.010, 0.830, 0.345),
        (0.071, 2.969, 0.870),
        (0.601, 4.304, 2.494),
        (4.384, 13.32, 2.214),
    )
    to_rad = _EV_TO_RAD_PER_S
    return DrudeLorentzParams(
        plasma_frequency=math.sqrt(f0) * wp * to_rad,
        damping_rate=gamma0 * to_rad,
        oscillators=tuple(
            (f * (wp / w0) ** 2, w0 * to_rad, width * to_rad)
            for f, w0, width in interband
        ),
        epsilon_infinity=1.0,
    )


GOLD_DRUDE_LORENTZ = _gold_drude_lorentz()
"""Gold film model parameters (Rakic et al. 1998 Lorentz-Drude fit)."""


@lru_cache(maxsize=1)
def gold_dispersion() -> DispersionTable:
    """Bundled gold (n, k) table covering 400-1000 nm (cached; immutable).

    Generated from :data:`GOLD_DRUDE_LORENTZ`; see the comment block in
    ``data/gold_rakic_ld.csv`` for provenance.
    """
    ref = resources.files("plasmonq").joinpath("data/gold_rakic_ld.csv")
    with ref.open("r", encoding="utf-8") as fh:
        return load_dispersion(fh, source_label="bundled gold (Rakic 1998 LD fit)")
