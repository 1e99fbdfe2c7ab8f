"""Brute-force check of the measurement moments, free of closed forms.

The sensor arm and the two detector inefficiencies act on photon number as
beam splitters with vacuum ancillas, i.e. binomial thinning of each mode
with intensity transmittances ``T_a = |r_sp|^2 eta_a^2`` and
``T_b = eta_b^2``.  :func:`binomial_thinning` applies explicit binomial
kernels to the joint number distribution ``P(n, m) = |C_{n,m}|^2`` (the
Schrödinger picture).  :func:`oracle_measurement` needs only the moments of
``l - k``, so it works in the Heisenberg picture of the same channels: each
kernel is summed into the mean and variance of the detected count given the
input count, and these are summed over ``P(n, m)`` by the law of total
variance.  That is the same direct sum over the same kernels, reordered.
None of the closed-form moment expressions from :mod:`plasmonq.metrology`
are used here — only its result/parameter *types* are shared — so
agreement between the two modules is a genuine cross-check, not a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrology import ChannelEfficiencies, MeasurementStats, _check_unit_interval
from .quantum_states import FockCoefficients

__all__ = [
    "JointNumberDistribution",
    "joint_distribution",
    "binomial_thinning",
    "oracle_measurement",
]


@dataclass(frozen=True)
class JointNumberDistribution:
    """Joint photon-number probabilities on ``k, l in 0..cutoff``.

    ``sum(probs)`` may fall below 1 for truncated states; the deficit is
    exposed as :attr:`leakage`.
    """

    probs: np.ndarray

    def __post_init__(self, arr: np.ndarray | None = None):
        arr = np.array(self.probs, dtype=float, copy=True) if arr is None else arr
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


def _holding(probs: np.ndarray) -> JointNumberDistribution:  # a builder's own array, uncopied
    dist = object.__new__(JointNumberDistribution)
    dist.__post_init__(probs)
    return dist


def joint_distribution(state: FockCoefficients) -> JointNumberDistribution:
    """``P(n, m) = |C_{n,m}|^2`` of a two-mode expansion."""
    probs = np.zeros((state.size, state.size))
    probs[state.rows, state.cols] = np.abs(state.values) ** 2
    return _holding(probs)


# Columns per kernel block past the corner, and the widest product of the
# blocked build.  _count_moments reduces one block at a time: ~0.3 MB of kernel
# columns at the cutoffs past 1000 that bright TMSV states reach.
_BLOCK = 32


def _kernel_blocks(size: int, transmittance):
    """``(start, L[..., :end, start:end])`` of ``L[k, n] = C(n, k) T^k (1-T)^(n-k)``.

    Column ``n`` is Binomial(n, T), zero below row ``n``, so column ``n0 + j``
    is column ``n0`` convolved with column ``j``.  The ``(2 _BLOCK + 1)^2``
    corner is filled from columns 0 and 1 by products of widths 1, 2, 4, ...,
    ``_BLOCK``; each later block is one product of the corner's columns 0 to
    ``_BLOCK`` with the column before it.  Every entry is a non-negative
    combination of earlier entries with weights summing to 1, as in the Pascal
    recurrence: nothing overflows at any size, and entries stay exact to
    rounding.  An array of transmittances builds one kernel per element in the
    same products, stacked on the leading axes; a scalar builds one 2-D kernel.
    """
    transmittance = np.asarray(transmittance, dtype=float)
    lead = transmittance.shape
    first = min(size, 2 * _BLOCK + 1)
    corner = np.zeros(lead + (first, first))
    corner[..., 0, 0] = 1.0
    if size > 1:
        corner[..., 0, 1] = 1.0 - transmittance
        corner[..., 1, 1] = transmittance
    # shifted[..., k, i] = column n0 at row k - i, gathered from a zero-padded copy
    shift = _BLOCK + np.arange(size)[:, np.newaxis] - np.arange(_BLOCK + 1)
    padded = np.zeros(lead + (_BLOCK + size,))

    def after(column: np.ndarray, n0: int, w: int) -> np.ndarray:  # columns n0+1..n0+w
        padded[..., _BLOCK:_BLOCK + n0 + 1] = column[..., :n0 + 1]
        # take, not padded[..., shift], whose stacked result is batch-innermost:
        # in C order each stacked product sees the operand layout of a 2-D one
        # and rounds the same way
        gathered = padded.take(shift[:n0 + w + 1, :w + 1], axis=-1)
        return gathered @ corner[..., :w + 1, 1:w + 1]

    n0 = 1
    while n0 < first - 1:
        w = min(n0, first - 1 - n0)
        corner[..., :n0 + w + 1, n0 + 1:n0 + w + 1] = after(corner[..., n0], n0, w)
        n0 += w
    yield 0, corner
    column = corner[..., -1]
    while n0 < size - 1:
        w = min(_BLOCK, size - 1 - n0)
        block = after(column, n0, w)
        column = block[..., -1].copy()  # all the next block needs of this one
        yield n0 + 1, block
        del block  # freed before the next block is built, once the caller drops it too
        n0 += w


def _thinning_kernel(size: int, transmittance: float) -> np.ndarray:
    """The whole kernel ``L[k, n]`` (zero above the diagonal), block by block."""
    kernel = np.zeros((size, size))
    for start, block in _kernel_blocks(size, transmittance):
        kernel[:block.shape[0], start:start + block.shape[1]] = block
    return kernel


def binomial_thinning(
    dist: JointNumberDistribution, t_a: float, t_b: float
) -> JointNumberDistribution:
    """Thin each mode independently with intensity transmittances ``t_a, t_b``."""
    _check_unit_interval("t_a", t_a)
    _check_unit_interval("t_b", t_b)
    size, thinned = dist.cutoff + 1, dist.probs
    if t_a != 1.0:  # a lossless mode is left as it is
        thinned = _thinning_kernel(size, t_a) @ thinned
    if t_b != 1.0:
        thinned = thinned @ _thinning_kernel(size, t_b).T  # mode b is the column index
    return _holding(thinned)


def _count_moments(size: int, transmittance) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the detected count, one entry per input count.

    Entry ``n`` sums column ``n`` of the explicit kernel directly: the mean
    ``sum_k k L[k, n]`` and the centred ``sum_k (k - mean[n])^2 L[k, n]``,
    each block of columns as it is built.  A lossless mode needs no kernel;
    it keeps every count exactly.  An array of transmittances gives one row
    per element, from one stacked kernel build; each row is reduced on its
    own, in the products a scalar transmittance runs.
    """
    counts = np.arange(size, dtype=float)
    transmittance = np.asarray(transmittance, dtype=float)
    lossless = (transmittance == 1.0).ravel()
    mean = np.empty((lossless.size, size))
    var = np.zeros((lossless.size, size))
    mean[lossless] = counts
    lossy = np.flatnonzero(~lossless).tolist()
    built = _kernel_blocks(size, transmittance) if lossy else ()
    for start, block in built:
        end = block.shape[-2]  # column n is zero below row n
        blocks = block.reshape(-1, end, block.shape[-1])  # a view: one block per row
        for row in lossy:
            mean[row, start:end] = counts[:end] @ blocks[row]
            spread = counts[:end, np.newaxis] - mean[row, start:end]  # k - mean[n] at (k, n)
            spread *= spread
            spread *= blocks[row]
            var[row, start:end] = spread.sum(axis=0)
            del spread  # freed before the next block is built
        del block, blocks  # and so is the block
    shape = transmittance.shape + (size,)
    return mean.reshape(shape), var.reshape(shape)


def oracle_measurement(
    state: FockCoefficients, r_abs, eff: ChannelEfficiencies
) -> MeasurementStats:
    """Moments of the difference ``l - k`` through the adjoint channels.

    With the per-count moments of each channel, the mean is
    ``sum_m p_b[m] mean_b[m] - sum_n p_a[n] mean_a[n]`` over the marginals,
    and the variance is the expected conditional variance plus the spread
    of the conditional means.  No size^3 product is run and no thinned
    distribution is formed: ``|C|^2`` is summed over the state's nonzero
    entries, into the marginals and then into the spread.

    Broadcasts over ``r_abs``: mode a's kernels for every reflectance come
    from one stacked build, and each reflectance's sums are those of a scalar
    call, so a float gives floats and an array gives arrays of the same bits.
    """
    _check_unit_interval("r_abs", r_abs)
    r_abs = np.asarray(r_abs, dtype=float)
    # Python's float power, as a float argument is squared: numpy's array
    # square rounds differently from libm's pow for about 1 in 1000 values.
    r2 = np.reshape([r**2 for r in r_abs.ravel().tolist()], r_abs.shape)
    mean_a, var_a = (moments.reshape(-1, state.size)  # one row per reflectance
                     for moments in _count_moments(state.size, r2 * eff.eta_a**2))
    mean_b, var_b = _count_moments(state.size, eff.eta_b**2)
    probs = np.abs(state.values)
    probs *= probs
    p_a = np.bincount(state.rows, weights=probs, minlength=state.size)
    p_b = np.bincount(state.cols, weights=probs, minlength=state.size)
    b_mean, b_var, lost = p_b @ mean_b, p_b @ var_b, 1.0 - float(p_a.sum())
    means, stds = [], []
    for mean_row, var_row in zip(mean_a, var_a):
        mean = float(b_mean - p_a @ mean_row)
        # Law of total variance over the input counts (n, m).  The last term
        # keeps ``E[(l - k)^2] - mean^2`` when the probabilities sum below 1.
        spread = (mean_b - mean)[state.cols] - mean_row[state.rows]
        spread *= spread
        spread *= probs
        variance = float(p_a @ var_row + b_var + spread.sum()) + mean * mean * lost
        means.append(mean)
        stds.append(math.sqrt(max(0.0, variance)))
    if r_abs.ndim == 0:
        return MeasurementStats(mean=means[0], std=stds[0])
    return MeasurementStats(mean=np.reshape(means, r_abs.shape),
                            std=np.reshape(stds, r_abs.shape))
