import math

import numpy as np
import pytest

from plasmonq import quantum_states
from plasmonq.quantum_states import (
    AmplitudeUnderflowError,
    CapacityError,
    FockCoefficients,
    PhotonStatistics,
    TruncationError,
    UndefinedStatisticsError,
    coherent_product,
    is_twin_mode,
    load_coefficients,
    noon,
    save_coefficients,
    squeezed_product,
    statistics,
    tmsv,
    twin_fock,
)


def random_twin_mode(rng, size=8):
    """A normalized state with |C| symmetric but arbitrary phases."""
    mags = rng.random((size, size))
    mags = (mags + mags.T) / 2.0
    phases = np.exp(1j * rng.uniform(-math.pi, math.pi, (size, size)))
    coeffs = mags * phases
    coeffs /= np.linalg.norm(coeffs) * rng.uniform(1.0, 1.5)
    return FockCoefficients(coeffs)


# ---------------------------------------------------------------- constructors

def test_coherent_coefficients_match_poisson_amplitudes():
    alpha = 0.8
    state = coherent_product(alpha)
    for n, m in ((0, 0), (1, 0), (2, 3), (4, 4)):
        expected = (
            math.exp(-abs(alpha) ** 2)
            * alpha ** (n + m)
            / math.sqrt(math.factorial(n) * math.factorial(m))
        )
        assert state.coeffs[n, m] == pytest.approx(expected, rel=1e-12)


def test_twin_fock_is_a_single_entry():
    state = twin_fock(3)
    assert state.cutoff == 3
    assert state.coeffs[3, 3] == 1.0
    assert np.count_nonzero(state.coeffs) == 1
    assert state.truncation_weight == 0.0


def test_tmsv_diagonal_and_minimal_cutoff():
    mean = 2.0
    lam2 = mean / (1.0 + mean)
    state = tmsv(mean)
    diag = np.diag(state.coeffs)
    for n in (0, 1, 5):
        assert diag[n] == pytest.approx(math.sqrt(1 - lam2) * lam2 ** (n / 2), rel=1e-12)
    assert np.count_nonzero(state.coeffs - np.diag(diag)) == 0
    # the auto-grown cutoff is the smallest one meeting the tolerance
    assert lam2 ** (state.cutoff + 1) < 1e-10 <= lam2 ** state.cutoff


def test_noon_two_entries():
    state = noon(2)
    assert state.coeffs[4, 0] == state.coeffs[0, 4] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(state.coeffs) == 2


def test_squeezed_amplitudes_match_factorial_formula():
    mean = 1.0
    sinh_r = math.sqrt(mean)
    cosh_r = math.sqrt(1.0 + mean)
    tanh_r = sinh_r / cosh_r
    state = squeezed_product(mean)

    def amp(k):
        return (
            math.sqrt(math.factorial(2 * k))
            / (2**k * math.factorial(k))
            * (-tanh_r) ** k
            / math.sqrt(cosh_r)
        )

    for k in range(5):
        for j in range(5):
            assert state.coeffs[2 * k, 2 * j] == pytest.approx(amp(k) * amp(j), rel=1e-12)
    assert np.count_nonzero(state.coeffs[1::2, :]) == 0
    assert np.count_nonzero(state.coeffs[:, 1::2]) == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: coherent_product(math.sqrt(0.5)),
        lambda: coherent_product(1.0),
        lambda: coherent_product(math.sqrt(2.0)),
        lambda: twin_fock(1),
        lambda: twin_fock(3),
        lambda: tmsv(0.5),
        lambda: tmsv(2.0),
        lambda: noon(1),
        lambda: noon(2),
        lambda: squeezed_product(0.5),
        lambda: squeezed_product(1.0),
    ],
)
def test_constructors_are_twin_mode_and_well_truncated(build):
    state = build()
    assert is_twin_mode(state)
    assert state.truncation_weight < 1e-10
    total = float(np.sum(np.abs(state.coeffs) ** 2))
    assert total == pytest.approx(1.0 - state.truncation_weight, abs=1e-15)


# ------------------------------------------------------------------ statistics

# (mean, Q, sigma, J) per family; Q and sigma are the per-mode Mandel
# parameter and the normalized difference noise of the exact states.
STATISTICS_TABLE = [
    (lambda: coherent_product(1.0), 1.0, 0.0, 1.0, 0.0),
    (lambda: coherent_product(math.sqrt(2)), 2.0, 0.0, 1.0, 0.0),
    (lambda: twin_fock(1), 1.0, -1.0, 0.0, 1.0),
    (lambda: twin_fock(2), 2.0, -1.0, 0.0, 1.0),
    (lambda: tmsv(1.0), 1.0, 1.0, 0.0, 1.0),
    (lambda: tmsv(2.0), 2.0, 2.0, 0.0, 1.0),
    (lambda: noon(1), 1.0, 0.0, 2.0, -1.0),
    (lambda: noon(2), 2.0, 1.0, 4.0, -1.0),
    # a balanced two-mode squeezed product doubles the single-mode
    # fluctuations: Q = 2N + 1, sigma = 2N + 2
    (lambda: squeezed_product(0.5), 0.5, 2.0, 3.0, 0.0),
    (lambda: squeezed_product(1.0), 1.0, 3.0, 4.0, 0.0),
]


@pytest.mark.parametrize("build,mean,q,sigma,j", STATISTICS_TABLE)
def test_statistics_table(build, mean, q, sigma, j):
    stats = statistics(build())
    assert stats.mean_a == pytest.approx(mean, abs=1e-6)
    assert stats.mean_b == pytest.approx(mean, abs=1e-6)
    assert stats.q_mandel == pytest.approx(q, abs=1e-6)
    assert stats.sigma == pytest.approx(sigma, abs=1e-6)
    assert stats.j_corr == pytest.approx(j, abs=1e-9)


def test_statistics_exact_for_finite_support():
    stats = statistics(twin_fock(2))
    assert (stats.mean_a, stats.q_mandel, stats.sigma, stats.j_corr) == (2.0, -1.0, 0.0, 1.0)
    # noon amplitudes hold one rounded 1/sqrt(2), so "exact" means one ulp here
    stats = statistics(noon(2))
    assert stats.mean_a == pytest.approx(2.0, abs=1e-12)
    assert stats.q_mandel == pytest.approx(1.0, abs=1e-12)
    assert stats.sigma == pytest.approx(4.0, abs=1e-12)
    assert stats.j_corr == pytest.approx(-1.0, abs=1e-12)


def test_coherent_statistics_at_explicit_cutoff():
    stats = statistics(coherent_product(1.0, cutoff=20))
    assert abs(stats.q_mandel) < 1e-8
    assert abs(stats.sigma - 1.0) < 1e-8
    assert abs(stats.j_corr) < 1e-8


def test_tmsv_marginal_is_thermal():
    mean = 1.5
    state = tmsv(mean)
    marginal = np.sum(np.abs(state.coeffs) ** 2, axis=1)
    for n in (0, 1, 4):
        assert marginal[n] == pytest.approx(mean**n / (1 + mean) ** (n + 1), rel=1e-12)


def test_identity_sigma_q_j_on_constructors():
    for build, *_ in STATISTICS_TABLE:
        stats = statistics(build())
        assert stats.sigma == pytest.approx(
            (1 + stats.q_mandel) * (1 - stats.j_corr), abs=1e-10
        )


def test_identity_sigma_q_j_on_random_states():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        stats = statistics(random_twin_mode(rng))
        assert stats.sigma == pytest.approx(
            (1 + stats.q_mandel) * (1 - stats.j_corr), abs=1e-10
        )
        assert stats.q_mandel >= -1.0
        assert stats.sigma >= 0.0


def test_broadening_restatements():
    """Q is affine in the per-mode second moment; sigma is proportional to
    the mean squared mode imbalance."""
    rng = np.random.default_rng(5)
    idx = None
    for build, *_ in STATISTICS_TABLE[:6]:
        state = build()
        p = np.abs(state.coeffs) ** 2
        idx = np.arange(p.shape[0], dtype=float)
        mean_a = float(idx @ p.sum(axis=1))
        second_a = float((idx**2) @ p.sum(axis=1))
        imbalance = float(np.sum((idx[:, None] - idx[None, :]) ** 2 * p))
        stats = statistics(state)
        assert stats.q_mandel == pytest.approx(
            second_a / mean_a - mean_a - 1.0, abs=1e-12
        )
        assert stats.sigma == pytest.approx(imbalance / (2.0 * mean_a), abs=1e-10)


def test_phase_quarter_turns_leave_statistics_bit_identical():
    base = random_twin_mode(np.random.default_rng(11))
    reference = statistics(base)
    for phase in (1j, -1.0, -1j):
        rotated = statistics(FockCoefficients(base.coeffs * phase))
        assert rotated == reference


def test_generic_phases_leave_statistics_unchanged():
    rng = np.random.default_rng(12)
    base = random_twin_mode(rng)
    reference = statistics(base)
    scrambled = FockCoefficients(
        base.coeffs * np.exp(1j * rng.uniform(-math.pi, math.pi, base.coeffs.shape))
    )
    got = statistics(scrambled)
    assert got.q_mandel == pytest.approx(reference.q_mandel, abs=1e-12)
    assert got.sigma == pytest.approx(reference.sigma, abs=1e-12)
    assert got.j_corr == pytest.approx(reference.j_corr, abs=1e-12)


def test_statistics_requires_photons():
    with pytest.raises(UndefinedStatisticsError):
        statistics(twin_fock(0))
    with pytest.raises(UndefinedStatisticsError):
        statistics(coherent_product(0.0))


def test_statistics_of_tiny_variances_do_not_underflow():
    # var_a = var_b = 1e-300: their product underflows to 0, each root does not
    stats = statistics(FockCoefficients([[1.0, 0.0], [0.0, 1e-150]]))
    assert stats.j_corr == 1.0


# ------------------------------------------------------------------ predicates

def test_is_twin_mode_rejects_asymmetric():
    coeffs = np.zeros((3, 3), dtype=complex)
    coeffs[0, 2] = 1.0
    assert not is_twin_mode(FockCoefficients(coeffs))


@pytest.mark.parametrize("size", [1, 63, 64, 65, 133])
@pytest.mark.parametrize("dtype", [float, complex])
def test_is_twin_mode_by_blocks_matches_the_whole_matrix(size, dtype):
    """The lookup of each entry's mirror gives the boolean of
    ``max ||C| - |C|.T| <= tol``, wherever in the matrix the largest asymmetry sits."""
    rng = np.random.default_rng(size)
    for n, m in ((0, size - 1), (size - 1, 0), (size // 2, size // 3)):
        mags = rng.random((size, size))
        coeffs = ((mags + mags.T) / 2.0).astype(dtype)
        if dtype is complex:
            coeffs *= np.exp(1j * rng.uniform(-math.pi, math.pi, (size, size)))
        coeffs /= 2.0 * np.linalg.norm(coeffs)
        for bump in (0.0, 1e-13, 1e-11, 1e-3):
            bumped = coeffs.copy()
            bumped[n, m] += bump
            state = FockCoefficients(bumped)
            mags = np.abs(state.coeffs)
            for tol in (1e-12, 0.0):
                expected = bool(np.max(np.abs(mags - mags.T)) <= tol)
                assert is_twin_mode(state, tol) == expected


def test_is_twin_mode_reads_a_missing_mirror_as_zero():
    coeffs = np.zeros((4, 4))
    coeffs[3, 1] = 1e-13  # C[1, 3] is not stored
    coeffs[2, 2] = 0.5
    state = FockCoefficients(coeffs)
    assert len(state.values) == 2
    assert is_twin_mode(state, 1e-12)
    assert not is_twin_mode(state, 1e-14)


def test_the_all_zero_state_is_twin_mode():
    state = FockCoefficients(np.zeros((3, 3)))
    assert len(state.values) == 0
    assert is_twin_mode(state, 0.0)


def test_is_twin_mode_compares_magnitudes_of_a_complex_caller_array():
    coeffs = np.zeros((3, 3), dtype=complex)
    coeffs[0, 2], coeffs[2, 0] = 0.6j, -0.6
    coeffs[1, 1] = 0.2 + 0.1j
    assert is_twin_mode(FockCoefficients(coeffs), 0.0)
    coeffs[2, 0] = 0.6j * (1.0 + 1e-9)
    assert not is_twin_mode(FockCoefficients(coeffs))


def _loaded_squeezed(tmp_path):
    path = tmp_path / "state.csv"
    save_coefficients(squeezed_product(0.5), path)
    return load_coefficients(path)


@pytest.mark.parametrize(
    "build",
    [
        lambda _: coherent_product(1.3),
        lambda _: coherent_product(0.7 + 0.4j),
        lambda _: twin_fock(2, cutoff=5),
        lambda _: tmsv(2.0),
        lambda _: tmsv(0.0, cutoff=3),
        lambda _: noon(2),
        lambda _: squeezed_product(0.5),
        lambda _: squeezed_product(0.0),
        lambda _: FockCoefficients(np.array([[0.0, 0.6j], [-0.8, 0.0]])),
        _loaded_squeezed,
    ],
)
def test_stored_entries_are_the_nonzeros_in_row_major_order(tmp_path, build):
    """``is_twin_mode`` searches the keys ``row * size + col``, so they must ascend."""
    state = build(tmp_path)
    rows, cols = np.nonzero(state.coeffs)
    assert np.array_equal(state.rows, rows) and np.array_equal(state.cols, cols)
    assert np.array_equal(state.values, state.coeffs[rows, cols])


# ------------------------------------------------------------- error handling

def test_capacity_errors():
    with pytest.raises(CapacityError):
        twin_fock(2, cutoff=1)
    with pytest.raises(CapacityError):
        noon(2, cutoff=3)


def test_truncation_errors():
    with pytest.raises(TruncationError):
        tmsv(5.0, cutoff=3)
    with pytest.raises(TruncationError):
        coherent_product(2.0, cutoff=4)
    with pytest.raises(TruncationError):
        squeezed_product(4.0, cutoff=6)
    # tanh(r)**2 rounds to 1, so no cutoff holds the state
    with pytest.raises(TruncationError, match="below cutoff 4096"):
        tmsv(1e17)
    # exp(-|alpha|**2/2) underflows, so no cutoff holds the state
    with pytest.raises(AmplitudeUnderflowError, match="underflows to 0"):
        coherent_product(1e5)


def test_coherent_amplitudes_that_underflow_are_named():
    # |alpha|**2 = 1600 is past the ~1490 where exp(-|alpha|**2/2) is 0
    for cutoff in (None, 10, 2000):
        with pytest.raises(AmplitudeUnderflowError,
                           match=r"exp\(-\|alpha\|\^2/2\) underflows to 0 at \|alpha\|\^2 = 1600"):
            coherent_product(40.0, cutoff=cutoff)
    assert issubclass(AmplitudeUnderflowError, TruncationError)


@pytest.mark.parametrize("alpha2", [1420.0, 1450.0, 1480.0, 1490.0])
def test_coherent_amplitudes_that_are_subnormal_are_named(alpha2):
    # exp(-|alpha|**2/2) is subnormal past |alpha|**2 ~ 1416.8: the recurrence
    # would start from a few significant bits, so no state is built
    with pytest.raises(AmplitudeUnderflowError, match=r"exp\(-\|alpha\|\^2/2\) is subnormal"):
        coherent_product(np.sqrt(alpha2))


def test_coherent_state_just_below_the_subnormal_range_builds():
    state = coherent_product(np.sqrt(1416.0))
    assert state.truncation_weight <= 1e-10
    assert statistics(state).mean_a == pytest.approx(1416.0, rel=1e-12)


def test_invalid_photon_numbers():
    with pytest.raises(ValueError):
        twin_fock(-1)
    with pytest.raises(ValueError):
        noon(0)
    with pytest.raises(ValueError):
        tmsv(-0.5)
    with pytest.raises(ValueError):
        squeezed_product(-1.0)
    for value in (math.nan, math.inf):
        for build in (tmsv, squeezed_product):
            with pytest.raises(ValueError, match="mean_photons must be finite"):
                build(value)
    for alpha in (math.nan, complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_product(alpha)


@pytest.mark.parametrize("tol", [0.0, -1e-10, 1.0, 2.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda tol: tmsv(1.0, truncation_tol=tol),
        lambda tol: tmsv(1.0, cutoff=40, truncation_tol=tol),
        # |alpha|**2 = 1e10: a tolerance above 1 would pass a 4097 x 4097 array of zeros
        lambda tol: coherent_product(1e5, truncation_tol=tol),
        lambda tol: coherent_product(1.0, cutoff=20, truncation_tol=tol),
        lambda tol: squeezed_product(1.0, truncation_tol=tol),
    ],
)
def test_truncation_tol_outside_the_open_unit_interval_rejected(build, tol):
    with pytest.raises(ValueError, match="truncation_tol"):
        build(tol)


def test_over_normalized_matrix_rejected():
    with pytest.raises(ValueError):
        FockCoefficients(np.eye(3, dtype=complex))


@pytest.mark.parametrize("coeffs", [
    [[0.5, math.nan], [math.inf, 0.5]],
    [[math.nan]],
    [[0.5, 0.0], [0.0, complex(0.0, -math.inf)]],
])
def test_non_finite_coefficients_rejected(coeffs):
    # a NaN total passed the over-normalisation check: statistics() then gave
    # mean_a = nan with sigma = 0.0 and j_corr = 1.0
    with pytest.raises(ValueError, match="must be finite, got NaN or infinite"):
        FockCoefficients(coeffs)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        FockCoefficients(np.zeros((2, 3), dtype=complex))


def test_coefficients_are_read_only():
    state = twin_fock(1)
    with pytest.raises(ValueError):
        state.coeffs[0, 0] = 1.0


def test_caller_array_is_copied_not_frozen():
    coeffs = np.zeros((2, 2), dtype=complex)
    coeffs[1, 1] = 1.0
    state = FockCoefficients(coeffs)
    assert coeffs.flags.writeable
    assert not np.shares_memory(state.coeffs, coeffs)
    coeffs[1, 1] = 0.5
    assert state.coeffs[1, 1] == 1.0


def test_caller_real_array_is_stored_as_float64_copied_not_aliased():
    coeffs = np.zeros((2, 2))
    coeffs[1, 1] = 1.0
    state = FockCoefficients(coeffs)
    assert state.coeffs.dtype == np.float64
    assert coeffs.flags.writeable
    assert not np.shares_memory(state.coeffs, coeffs)
    coeffs[1, 1] = 0.5
    assert state.coeffs[1, 1] == 1.0
    assert FockCoefficients([[0, 0], [0, 1]]).coeffs.dtype == np.float64
    assert FockCoefficients(np.eye(2, dtype=np.float32)[:1, :1]).coeffs.dtype == np.float64


def test_caller_complex_array_stays_complex128():
    # the dtype decides, not the values: a zero imaginary part is kept
    for coeffs in (np.eye(2, dtype=complex)[:1, :1], np.array([[0.6j, 0.0], [0.0, 0.8]]),
                   [[1j]], np.eye(1, dtype=np.complex64)):
        assert FockCoefficients(coeffs).coeffs.dtype == np.complex128


REAL_FAMILIES = [
    lambda: coherent_product(1.3),
    lambda: coherent_product(-0.7),
    lambda: coherent_product(0.0),
    lambda: twin_fock(2),
    lambda: tmsv(2.0),
    lambda: tmsv(0.0),
    lambda: noon(2),
    lambda: squeezed_product(0.5),
    lambda: squeezed_product(0.0),
]


@pytest.mark.parametrize("build", REAL_FAMILIES)
def test_real_parameters_build_float64_coefficients(build):
    state = build()
    assert state.coeffs.dtype == np.float64


def test_complex_coherent_amplitude_builds_complex128_coefficients():
    alpha = 0.7 + 0.4j
    state = coherent_product(alpha)
    assert state.coeffs.dtype == np.complex128
    assert state.coeffs[1, 0] == pytest.approx(alpha * math.exp(-abs(alpha) ** 2),
                                               abs=1e-15)


PRODUCT_STATES = [
    *((coherent_product, alpha)
      for alpha in (1.0, -2.5, math.sqrt(20.0), 0.7 + 0.4j, -1.1j, 3.0 - 2.0j)),
    *((squeezed_product, mean) for mean in (0.1, 0.5, 1.0, 2.0, 3.0, 4.35, 4.4)),
    # s = (1, 1e-160, ~7e-321, 0, ...): s[1] s[2] and s[2] s[2] underflow to 0
    (coherent_product, 1e-160),
]


@pytest.mark.parametrize("build, parameter", PRODUCT_STATES,
                         ids=[f"{build.__name__}({p})" for build, p in PRODUCT_STATES])
def test_a_product_state_holds_the_entries_of_the_dense_outer_product(build, parameter,
                                                                      monkeypatch):
    """``s (x) s`` from the nonzero amplitudes alone has the rows, columns,
    values and dtype of ``FockCoefficients(np.outer(s, s))``, which drops every
    product that underflows to 0."""
    built = []

    def product(family, amplitudes, *args):
        state = real_product(family, amplitudes, *args)
        built.append(amplitudes(state.cutoff))  # the same s the state was built from
        return state

    real_product = quantum_states._product
    monkeypatch.setattr(quantum_states, "_product", product)
    state = build(parameter)
    dense = FockCoefficients(np.outer(built[0], built[0]))
    assert state.size == dense.size
    for name in ("rows", "cols", "values"):
        got, want = getattr(state, name), getattr(dense, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.all(got == want), name
    assert state.truncation_weight == dense.truncation_weight


def test_an_underflowing_amplitude_product_is_no_entry():
    state = coherent_product(1e-160)
    assert len(state.values) == 6 and np.all(state.values != 0.0)


@pytest.mark.parametrize("alpha", [1.3, -0.7, math.sqrt(48.0)])
def test_real_coherent_coefficients_are_the_real_part_of_the_complex_recurrence(alpha):
    """The stored reals are bit for bit the real parts of the complex build."""
    real = coherent_product(alpha)
    tilted = coherent_product(complex(alpha, 1e-300), cutoff=real.cutoff)
    assert tilted.coeffs.dtype == np.complex128
    assert np.array_equal(real.coeffs, tilted.coeffs.real)


@pytest.mark.parametrize(
    "build",
    [
        lambda: coherent_product(1.0),
        lambda: twin_fock(2),
        lambda: tmsv(2.0),
        lambda: noon(1),
        lambda: squeezed_product(0.5),
        lambda: FockCoefficients(np.eye(2)[:1, :1]),
    ],
)
def test_every_constructor_returns_read_only_coefficients(build):
    assert not build().coeffs.flags.writeable


def test_loaded_coefficients_are_read_only(tmp_path):
    path = tmp_path / "state.csv"
    save_coefficients(noon(1), path)
    assert not load_coefficients(path).coeffs.flags.writeable


# ---------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path):
    state = squeezed_product(0.5)
    path = tmp_path / "state.csv"
    save_coefficients(state, path)
    back = load_coefficients(path)
    assert np.array_equal(back.coeffs, state.coeffs)


@pytest.mark.parametrize("build", REAL_FAMILIES)
def test_real_state_round_trips_with_its_dtype(tmp_path, build):
    state = build()
    path = tmp_path / "state.csv"
    save_coefficients(state, path)
    assert all(line.endswith(",0.0") for line in path.read_text().splitlines()[1:])
    back = load_coefficients(path)
    assert back.coeffs.dtype == np.float64
    assert np.array_equal(back.coeffs, state.coeffs)


def test_complex_state_round_trips_as_complex128(tmp_path):
    state = coherent_product(0.7 + 0.4j)
    path = tmp_path / "state.csv"
    save_coefficients(state, path)
    back = load_coefficients(path)
    assert back.coeffs.dtype == np.complex128
    assert np.array_equal(back.coeffs, state.coeffs)


def test_load_with_every_imaginary_part_zero_is_real(tmp_path):
    path = tmp_path / "state.csv"
    path.write_text("n,m,re,im\n0,0,0.6,-0.0\n1,1,0.8,0\n")
    assert load_coefficients(path).coeffs.dtype == np.float64
    path.write_text("n,m,re,im\n0,0,0.6,0\n1,1,0,0.8\n")
    assert load_coefficients(path).coeffs[1, 1] == 0.8j


def test_load_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,m,re,im\n0,0,1.0\n")
    with pytest.raises(ValueError):
        load_coefficients(path)


def test_load_rejects_a_nan_coefficient(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,m,re,im\n0,0,0.6,0\n1,1,nan,0\n")
    with pytest.raises(ValueError, match="must be finite"):
        load_coefficients(path)


def test_save_writes_the_nonzero_entries_and_the_last_one(tmp_path):
    # (cutoff, cutoff) is written although it is 0, so the size survives
    state = twin_fock(1, cutoff=5)
    path = tmp_path / "state.csv"
    save_coefficients(state, path)
    assert path.read_text() == "n,m,re,im\n1,1,1.0,0.0\n5,5,0.0,0.0\n"
    back = load_coefficients(path)
    assert back.size == 6
    assert np.array_equal(back.coeffs, state.coeffs)


def test_save_of_a_large_diagonal_state_is_one_line_per_entry(tmp_path):
    state = tmsv(48.0)
    path = tmp_path / "state.csv"
    save_coefficients(state, path)
    assert (state.size, len(state.values)) == (1117, 1117)
    assert len(path.read_text().splitlines()) == 1 + 1117  # was 1 + 1117**2
    assert np.array_equal(load_coefficients(path).values, state.values)


def test_a_dense_dump_still_loads(tmp_path):
    path = tmp_path / "state.csv"
    path.write_text("n,m,re,im\n0,0,0.6,0.0\n0,1,0.0,0.0\n1,0,0.0,0.0\n1,1,0.8,0.0\n")
    back = load_coefficients(path)
    assert back.size == 2
    assert np.array_equal(back.coeffs, [[0.6, 0.0], [0.0, 0.8]])


def test_load_rejects_a_negative_index(tmp_path):
    # numpy would read C[-1, 0] as the last row and overwrite C[0, 0]
    path = tmp_path / "bad.csv"
    path.write_text("n,m,re,im\n0,0,0.6,0\n-1,0,0.8,0\n")
    with pytest.raises(ValueError, match=r"line 3: negative Fock index \(-1, 0\)"):
        load_coefficients(path)


def test_load_rejects_a_repeated_entry(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,m,re,im\n0,0,0.6,0\n1,1,0.8,0\n0,0,0.8,0\n")
    with pytest.raises(ValueError, match=r"line 4: \(0, 0\) is already set on line 2"):
        load_coefficients(path)
