"""Brute-force check of the measurement moments, free of closed forms.

The sensor arm and the two detector inefficiencies act on photon number as
beam splitters with vacuum ancillas, i.e. binomial thinning of the joint
number distribution with intensity transmittances ``T_a = |r_sp|^2 eta_a^2``
and ``T_b = eta_b^2``.  This module realises exactly that: build
``P(n, m) = |C_{n,m}|^2``, thin it with explicit binomial kernels, and read
the difference moments off by direct summation.  None of the closed-form
moment expressions from :mod:`plasmonq.metrology` are used here — only its
result/parameter *types* are shared — so agreement between the two modules
is a genuine cross-check, not a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrology import ChannelEfficiencies, DivergenceError, MeasurementStats
from .quantum_states import FockCoefficients, coherent_product

__all__ = [
    "JointNumberDistribution",
    "joint_distribution",
    "binomial_thinning",
    "oracle_measurement",
    "oracle_ratio",
]

# Tighter than the constructor default so the coherent reference inside
# oracle_ratio never limits a 1e-10 comparison.
_REFERENCE_TRUNCATION_TOL = 3e-14


@dataclass(frozen=True)
class JointNumberDistribution:
    """Joint photon-number probabilities on ``k, l in 0..cutoff``.

    ``sum(probs)`` may fall below 1 for truncated states; the deficit is
    exposed as :attr:`leakage`.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"probability matrix must be square, got shape {arr.shape}")
        if np.any(arr < 0.0):
            raise ValueError("probabilities must be non-negative")
        total = float(arr.sum())
        if total > 1.0 + 1e-9:
            raise ValueError(f"probabilities sum to {total} > 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def cutoff(self) -> int:
        return self.probs.shape[0] - 1

    @property
    def leakage(self) -> float:
        return max(0.0, 1.0 - float(self.probs.sum()))


def joint_distribution(state: FockCoefficients) -> JointNumberDistribution:
    """``P(n, m) = |C_{n,m}|^2`` of a two-mode expansion."""
    return JointNumberDistribution(np.abs(state.coeffs) ** 2)


# Columns per block when a kernel is applied in place.  Thinning then holds
# three size x size matrices (input, result, one kernel) instead of five;
# at the cutoffs past 1000 that bright TMSV states reach, each is ~10 MB.
# It also caps the columns that one product adds when a kernel is built.
_BLOCK = 64


def _thinning_kernel(size: int, transmittance: float) -> np.ndarray:
    """Matrix ``L[k, n] = C(n, k) T^k (1-T)^(n-k)`` (zero above the diagonal).

    Column ``n`` is the Binomial(n, T) distribution, so column ``n0 + j`` is
    column ``n0`` convolved with column ``j``.  From columns 0 and 1, each
    step fills the next ``w = min(n0, _BLOCK, size - 1 - n0)`` columns with
    one matrix product, so the width doubles up to ``_BLOCK``.  Every entry
    is a non-negative combination of earlier entries with weights summing
    to 1, as in the Pascal recurrence: no binomial coefficient is formed,
    nothing overflows at any size, and entries stay exact to rounding.
    """
    kernel = np.zeros((size, size))
    kernel[0, 0] = 1.0
    if size > 1:
        kernel[:2, 1] = (1.0 - transmittance, transmittance)
    # shifted[k, i] = kernel[k - i, n0], gathered from a zero-padded column
    shift = _BLOCK + np.arange(size)[:, np.newaxis] - np.arange(_BLOCK + 1)
    padded = np.zeros(_BLOCK + size)
    n0 = 1
    while n0 < size - 1:
        w = min(n0, _BLOCK, size - 1 - n0)
        rows = n0 + w + 1  # every column filled here is zero below row n0 + w
        padded[_BLOCK:_BLOCK + n0 + 1] = kernel[:n0 + 1, n0]
        shifted = padded[shift[:rows, :w + 1]]
        kernel[:rows, n0 + 1:n0 + w + 1] = shifted @ kernel[:w + 1, 1:w + 1]
        n0 += w
    return kernel


def _thin_columns(probs: np.ndarray, kernel: np.ndarray) -> None:
    """``probs <- kernel @ probs`` in place, one block of columns at a time."""
    for start in range(0, probs.shape[1], _BLOCK):
        columns = probs[:, start:start + _BLOCK]
        columns[...] = kernel @ columns


def binomial_thinning(
    dist: JointNumberDistribution, t_a: float, t_b: float
) -> JointNumberDistribution:
    """Thin each mode independently with intensity transmittances ``t_a, t_b``."""
    for name, value in (("t_a", t_a), ("t_b", t_b)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    size = dist.cutoff + 1
    thinned = np.array(dist.probs)  # writable copy, thinned in place
    if t_a != 1.0:  # a lossless mode is left as it is
        _thin_columns(thinned, _thinning_kernel(size, t_a))
    if t_b != 1.0:
        _thin_columns(thinned.T, _thinning_kernel(size, t_b))  # mode b acts on rows
    return JointNumberDistribution(thinned)


def oracle_measurement(
    state: FockCoefficients, r_abs: float, eff: ChannelEfficiencies
) -> MeasurementStats:
    """Difference moments by direct summation over the thinned distribution."""
    if not 0.0 <= r_abs <= 1.0:
        raise ValueError(f"r_abs must lie in [0, 1], got {r_abs}")
    thinned = binomial_thinning(
        joint_distribution(state), r_abs**2 * eff.eta_a**2, eff.eta_b**2
    )
    counts = np.arange(thinned.cutoff + 1, dtype=float)
    diff = counts[np.newaxis, :] - counts[:, np.newaxis]  # l - k at (k, l)
    weighted = diff * thinned.probs
    mean = float(np.sum(weighted))
    weighted *= diff  # in place: one matrix fewer at large cutoffs
    second = float(np.sum(weighted))
    return MeasurementStats(mean=mean, std=math.sqrt(max(0.0, second - mean * mean)))


def oracle_ratio(
    state: FockCoefficients,
    classical_reference_n: float,
    r_abs: float,
    eta: float,
) -> float:
    """Noise of a coherent reference over the state's noise, both brute-force.

    The reference is a coherent product with per-mode mean
    ``classical_reference_n`` (normally the state's own per-mode mean),
    pushed through the same loss channels.
    """
    eff = ChannelEfficiencies(eta, eta)
    state_std = oracle_measurement(state, r_abs, eff).std
    if state_std == 0.0:
        raise DivergenceError(
            "state noise vanishes at this operating point; ratio diverges"
        )
    reference = coherent_product(
        math.sqrt(classical_reference_n), truncation_tol=_REFERENCE_TRUNCATION_TOL
    )
    return oracle_measurement(reference, r_abs, eff).std / state_std
