"""End-to-end acceptance gate for the quantum-enhanced plasmonic sensor.

Each test covers one release criterion and prints a single ``[PASS]`` /
``[FAIL]`` line (run with ``pytest -s`` to see them on success).  Tolerances
are pinned; they must not be loosened to turn a red criterion green.
"""

import math

import numpy as np

from plasmonq.fock_oracle import oracle_measurement
from plasmonq.fresnel import (
    IncidenceGeometry,
    KretschmannStack,
    _rsp,
    inflection_index,
    interface_reflection,
    reflection_coefficient,
    resonance_angle,
    transfer_matrix_reflection,
    wavevector_z,
)
from plasmonq.materials import gold_dispersion
from plasmonq.metrology import (
    ChannelEfficiencies,
    family_statistics,
    precision,
    ratio,
    ratio_tmsv,
    ratio_twin_fock,
    signal_mean,
    signal_std,
    sweep_precision_vs_angle,
    sweep_ratio,
)
from plasmonq.quantum_states import (
    FockCoefficients,
    coherent_product,
    noon,
    squeezed_product,
    statistics,
    tmsv,
    twin_fock,
)

WAVELENGTH = 810.0
PRISM = 1.5107
THICKNESS = 50.0
GEOM_73 = IncidenceGeometry(theta_deg=73.0)
THETA_GRID = np.linspace(65.5, 83.5, 361)
INDEX_GRID = np.linspace(1.333, 1.4422, 1093)

# (label, state, finite_support) -- the probe family used throughout.
PROBE_STATES = (
    [("coherent", coherent_product(math.sqrt(nb)), False) for nb in (0.5, 1.0, 2.0)]
    + [("twin-fock", twin_fock(n), True) for n in (1, 2, 3)]
    + [("tmsv", tmsv(nb), False) for nb in (0.5, 1.0, 2.0)]
    + [("noon", noon(n), True) for n in (1, 2)]
    + [("squeezed", squeezed_product(nb), False) for nb in (0.5, 1.0)]
)
SPLITTING_GRID = (0.05, 0.3, 0.5, 0.7, 0.95)  # |r|^2 values
EFFICIENCY_GRID = (
    ChannelEfficiencies(1.0, 1.0),
    ChannelEfficiencies(0.8, 0.8),
    ChannelEfficiencies(0.9, 0.6),
)


def _report(num: int, name: str, ok: bool) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num:02d}: {name}")
    return ok


def make_stack(n_analyte: float, metal=None) -> KretschmannStack:
    return KretschmannStack(
        PRISM, gold_dispersion() if metal is None else metal,
        THICKNESS, n_analyte, WAVELENGTH,
    )


def random_twin_mode(rng: np.random.Generator, size: int = 8) -> FockCoefficients:
    """Sub-normalised coefficients with |C| = |C|^T, generic phases."""
    mags = rng.random((size, size))
    mags = 0.5 * (mags + mags.T)
    phases = rng.uniform(0.0, 2.0 * np.pi, (size, size))
    coeffs = mags * np.exp(1j * phases)
    coeffs /= np.linalg.norm(coeffs) * rng.uniform(1.0, 1.25)
    return FockCoefficients(coeffs)


def test_criterion_01_difference_moments_match_fock_oracle():
    worst = 0.0
    for _, state, finite_support in PROBE_STATES:
        stats = statistics(state)
        tol = 1e-12 if finite_support else 1e-8
        for r2 in SPLITTING_GRID:
            r_abs = math.sqrt(r2)
            for eff in EFFICIENCY_GRID:
                brute = oracle_measurement(state, r_abs, eff)
                mean = signal_mean(r_abs, eff, stats.mean_a)
                std = signal_std(r_abs, eff, stats.mean_a,
                                 stats.q_mandel, stats.sigma)
                err = max(
                    abs(mean - brute.mean) / max(1.0, abs(brute.mean)),
                    abs(std - brute.std) / max(1.0, brute.std),
                )
                worst = max(worst, err / tol)
    ok = worst <= 1.0
    assert _report(1, "analytic difference moments match the Fock-space oracle",
                   ok), f"worst error is {worst:.3e} x tolerance"


def test_criterion_02_enhancement_ratio_consistent_with_moments():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    accepted = 0
    while accepted < 100:
        q = rng.uniform(-1.0, 3.0)
        sigma = rng.uniform(0.0, 4.0)
        r_abs = math.sqrt(rng.uniform(0.02, 0.98))
        eta = rng.uniform(0.05, 1.0)
        eff = ChannelEfficiencies(eta, eta)
        n_photons = rng.uniform(0.3, 5.0)
        state_std = signal_std(r_abs, eff, n_photons, q, sigma)
        if state_std < 1e-3:
            continue
        accepted += 1
        coherent_std = signal_std(r_abs, eff, n_photons, 0.0, 1.0)
        worst = max(worst, abs(ratio(r_abs, eta, q, sigma)
                               - coherent_std / state_std))
    balanced = math.sqrt(0.5)
    worst = max(worst, abs(ratio_twin_fock(balanced) - math.sqrt(6.0)))
    worst = max(worst, abs(ratio(balanced, 1.0, -1.0, 0.0) - math.sqrt(6.0)))
    ok = worst <= 1e-12
    assert _report(2, "enhancement ratio is the coherent/probe noise quotient "
                      "(sqrt(6) at balanced splitting)",
                   ok), f"worst deviation {worst:.3e} exceeds 1e-12"


def test_criterion_03_twin_fock_ratio_independent_of_brightness():
    stack = make_stack(1.38)
    curves = {
        n: np.array([value for _, value in
                     sweep_ratio(stack, GEOM_73, INDEX_GRID,
                                 statistics(twin_fock(n)))])
        for n in (1, 2, 5, 10)
    }
    worst = max(np.max(np.abs(curves[n] - curves[1])) for n in (2, 5, 10))
    finite = all(np.all(np.isfinite(curve)) for curve in curves.values())
    ok = finite and worst <= 1e-12
    assert _report(3, "twin-Fock enhancement curve is identical for "
                      "N = 1, 2, 5, 10",
                   ok), f"finite={finite}, worst pointwise spread {worst:.3e}"


def test_criterion_04_dark_detection_gives_unit_ratio():
    stack = make_stack(1.38)
    worst = 0.0
    for family in ("coherent", "twin-fock", "tmsv", "noon", "squeezed"):
        stats = family_statistics(family, 1.0)
        values = np.array([value for _, value in
                           sweep_ratio(stack, GEOM_73, INDEX_GRID, stats,
                                       eta=1e-3)])
        if not np.all(np.isfinite(values)):
            worst = math.inf
            break
        worst = max(worst, float(np.max(np.abs(values - 1.0))))
    ok = worst < 2e-3
    assert _report(4, "near-dark detectors erase any quantum advantage "
                      "(|R - 1| < 2e-3 for every probe)",
                   ok), f"worst |R - 1| is {worst:.3e}"


def test_criterion_05_tmsv_dark_port_limit():
    r_abs = math.sqrt(1e-4)
    worst = max(abs(ratio_tmsv(r_abs, n) - 1.0 / math.sqrt(1.0 + n))
                for n in (1.0, 2.0, 5.0))
    ok = worst < 1e-3
    assert _report(5, "TMSV ratio approaches (1 + N)^(-1/2) as the tap "
                      "closes",
                   ok), f"worst deviation {worst:.3e}"


def test_criterion_06_photon_statistics_table():
    # Required (Q, sigma, J) for each probe at mean photon number N per arm.
    table = (
        [("coherent", coherent_product(math.sqrt(nb)), 0.0, 1.0, 0.0)
         for nb in (0.5, 1.0, 2.0)]
        + [("twin-fock", twin_fock(n), -1.0, 0.0, 1.0) for n in (1, 2, 3)]
        + [("tmsv", tmsv(nb), nb, 0.0, 1.0) for nb in (0.5, 1.0, 2.0)]
        + [("noon", noon(n), n - 1.0, 2.0 * n, -1.0) for n in (1, 2)]
        # Per arm the squeezed vacuum has variance 2 sinh^2(r) cosh^2(r)
        # = 2N(N + 1), so Q = 2N + 1; this agrees with sigma = 2N + 2 and
        # J = 0 through sigma = (1 + Q)(1 - J).
        + [("squeezed", squeezed_product(nb), 2.0 * nb + 1.0, 2.0 * nb + 2.0,
            0.0)
           for nb in (0.5, 1.0)]
    )
    failures = []
    for label, state, q_req, sigma_req, j_req in table:
        stats = statistics(state)
        for name, got, req in (("Q", stats.q_mandel, q_req),
                               ("sigma", stats.sigma, sigma_req),
                               ("J", stats.j_corr, j_req)):
            if abs(got - req) > 1e-6:
                failures.append(
                    f"{label} (N={stats.mean_a:.3g}): {name} = {got:.9g}, "
                    f"required {req:.9g}"
                )
    ok = _report(6, "probe statistics match the required (Q, sigma, J) table",
                 not failures)
    assert ok, "table mismatches: " + "; ".join(failures)


def test_criterion_07_normalized_variance_identity():
    rng = np.random.default_rng(7)
    states = [state for _, state, _ in PROBE_STATES]
    states += [random_twin_mode(rng) for _ in range(100)]
    worst = max(
        abs(stats.sigma - (1.0 + stats.q_mandel) * (1.0 - stats.j_corr))
        for stats in map(statistics, states)
    )
    ok = worst <= 1e-10
    assert _report(7, "sigma = (1 + Q)(1 - J) on constructed and random "
                      "twin-mode states",
                   ok), f"worst identity residual {worst:.3e}"


def test_criterion_08_reflection_physics_checks():
    k0 = 2.0 * math.pi / WAVELENGTH
    stack = make_stack(1.38)
    eps1, eps2, eps3 = (stack.eps_prism, stack.metal_permittivity,
                        stack.eps_analyte)

    # (a) A vanishing film reduces the stack to the bare prism|analyte wall.
    worst_bare = 0.0
    for theta in np.linspace(40.0, 89.0, 50):
        k_x = k0 * PRISM * math.sin(math.radians(theta))
        collapsed = _rsp(eps1, eps2, eps3, 0.0, k0, k_x)
        bare = interface_reflection(
            eps1, eps3,
            wavevector_z(eps1, k_x, WAVELENGTH),
            wavevector_z(eps3, k_x, WAVELENGTH),
        )
        worst_bare = max(worst_bare, abs(collapsed - bare))

    # (b) The closed Airy form agrees with the transfer-matrix product.
    worst_tmm = 0.0
    for n in (1.35, 1.38, 1.41):
        eps_a = complex(n * n)
        for theta in THETA_GRID:
            k_x = k0 * PRISM * math.sin(math.radians(theta))
            direct = _rsp(eps1, eps2, eps_a, THICKNESS, k0, k_x)
            layered = transfer_matrix_reflection(
                [(eps1, 0.0), (eps2, THICKNESS), (eps_a, 0.0)], k_x, WAVELENGTH)
            worst_tmm = max(worst_tmm, abs(direct - layered))

    # (c) Passivity: no reflectance above unity anywhere on the default grids,
    # as one kernel call over all index x angle points.
    eps_a = (INDEX_GRID * INDEX_GRID).astype(complex)[:, np.newaxis]
    k_x = k0 * PRISM * np.sin(np.radians(THETA_GRID))
    r = _rsp(eps1, eps2, eps_a, THICKNESS, k0, k_x)
    worst_excess = float(np.max((r * r.conjugate()).real - 1.0))

    # (d) A lossless negative-permittivity film under total internal
    # reflection must be perfectly reflecting.
    lossless = make_stack(1.333, metal=-10.0)
    worst_tir = max(
        abs(reflection_coefficient(lossless,
                                   IncidenceGeometry(theta)).reflectance - 1.0)
        for theta in THETA_GRID
    )

    ok = (worst_bare <= 1e-12 and worst_tmm <= 1e-10
          and worst_excess <= 0.0 and worst_tir <= 1e-10)
    assert _report(8, "reflection model: film->0 limit, transfer-matrix "
                      "agreement, passivity, lossless mirror",
                   ok), (f"bare {worst_bare:.3e} (tol 1e-12), "
                         f"tmm {worst_tmm:.3e} (tol 1e-10), "
                         f"excess {worst_excess:.3e} (tol 0), "
                         f"tir {worst_tir:.3e} (tol 1e-10)")


def test_criterion_09_resonance_and_precision_orderings():
    problems = []

    # (a) Exactly one interior dip across the angular window for each index.
    for n in (1.39, 1.395):
        stack = make_stack(n)
        values = [reflection_coefficient(stack,
                                         IncidenceGeometry(t)).reflectance
                  for t in THETA_GRID]
        interior_minima = [
            i for i in range(1, len(values) - 1)
            if values[i] < values[i - 1] and values[i] < values[i + 1]
        ]
        if len(interior_minima) != 1:
            problems.append(f"n={n}: {len(interior_minima)} interior minima")

    # (b) The dip angle grows monotonically with the analyte index.
    angles = [resonance_angle(make_stack(n))
              for n in (1.34, 1.36, 1.38, 1.39, 1.40)]
    if not all(a < b for a, b in zip(angles, angles[1:])):
        problems.append(f"resonance angles not increasing: {angles}")

    # (c) At 73 deg the index sweep dips close to 1.383.
    stack = make_stack(1.38)
    values = [reflection_coefficient(make_stack(float(n)),
                                     GEOM_73).reflectance for n in INDEX_GRID]
    i_dip = int(np.argmin(values))
    if not (0 < i_dip < len(values) - 1
            and abs(INDEX_GRID[i_dip] - 1.383) <= 0.01):
        problems.append(f"index dip at {INDEX_GRID[i_dip]:.4f}")

    # (d) Precision ordering at every angle: the twin Fock probe always wins;
    # TMSV beats the coherent probe at N = 1 but not at N = 2.
    for n_photons, tmsv_beats_coherent in ((1.0, True), (2.0, False)):
        rows = sweep_precision_vs_angle(
            stack, THETA_GRID, ("coherent", "twin-fock", "tmsv"),
            n_photons=n_photons)
        by_theta = {}
        for row in rows:
            by_theta.setdefault(row["theta_deg"], {})[row["state"]] = \
                row["delta_n"]
        if len(by_theta) != len(THETA_GRID):
            problems.append(f"N={n_photons}: {len(by_theta)} angles swept")
        for theta, deltas in by_theta.items():
            twin_wins = (deltas["twin-fock"] < deltas["coherent"]
                         and deltas["twin-fock"] < deltas["tmsv"])
            tmsv_wins = deltas["tmsv"] < deltas["coherent"]
            if not twin_wins or tmsv_wins is not tmsv_beats_coherent:
                problems.append(f"N={n_photons}, theta={theta}: {deltas}")
                break

    ok = _report(9, "resonance dip structure and per-angle precision "
                    "orderings",
                 not problems)
    assert ok, "; ".join(problems)


def test_criterion_10_shot_noise_scaling():
    stack = make_stack(1.38)
    n_op = inflection_index(stack, GEOM_73)
    eff = ChannelEfficiencies(1.0, 1.0)

    def delta_n(n_photons: float) -> float:
        return precision(make_stack(n_op), GEOM_73, n_op,
                         family_statistics("coherent", n_photons), eff).delta_n

    worst = max(abs(delta_n(4.0 * n) / delta_n(n) - 0.5) for n in (1.0, 2.0))
    ok = worst <= 1e-10
    assert _report(10, "coherent-probe precision follows shot-noise scaling "
                       "(quadrupled photons halve delta_n)",
                   ok), f"worst |ratio - 1/2| = {worst:.3e}"
