"""Brute-force enhancement ratio, for the tests: both noises from the oracle.

The coherent reference is built as a Fock expansion and pushed through the
same loss channels as the state, so the ratio uses no closed form.
"""

import math

from plasmonq.fock_oracle import oracle_measurement
from plasmonq.metrology import ChannelEfficiencies, DivergenceError
from plasmonq.quantum_states import FockCoefficients, coherent_product

# Tighter than the constructor default so the coherent reference inside
# oracle_ratio never limits a 1e-10 comparison.
_REFERENCE_TRUNCATION_TOL = 3e-14


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
