import dataclasses
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from plasmonq import metrology
from plasmonq.fresnel import (IncidenceGeometry, KretschmannStack, inflection_index, reflection,
                              sensitivity)
from plasmonq.materials import gold_dispersion
from plasmonq.metrology import (
    ChannelEfficiencies,
    DegenerateOperatingPointError,
    DivergenceError,
    STATE_FAMILIES,
    STATE_NAMES,
    MetrologyDomainError,
    family_statistics,
    precision,
    ratio,
    ratio_tmsv,
    ratio_twin_fock,
    signal_mean,
    signal_std,
    sweep_precision_vs_angle,
    state_family,
    sweep_ratio,
)
from plasmonq.quantum_states import (
    FockCoefficients,
    PhotonStatistics,
    coherent_product,
    noon,
    squeezed_product,
    statistics,
    tmsv,
    twin_fock,
)

BALANCED = ChannelEfficiencies(1.0, 1.0)


def make_stack(n_analyte=1.38):
    return KretschmannStack(
        n_prism=1.5107,
        metal=gold_dispersion(),
        thickness_nm=50.0,
        n_analyte=n_analyte,
        wavelength_nm=810.0,
    )


GEOM_73 = IncidenceGeometry(73.0)


# -------------------------------------------------------------------- moments

def test_signal_mean_closed_cases():
    assert signal_mean(1.0, BALANCED, 3.0) == 0.0
    assert signal_mean(0.5, ChannelEfficiencies(0.8, 0.8), 2.0) == pytest.approx(
        (1 - 0.25) * 0.64 * 2.0, rel=1e-15
    )
    assert signal_mean(0.3, ChannelEfficiencies(0.9, 0.4), 0.0) == 0.0


@pytest.mark.parametrize("r_abs", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("eta", [1.0, 0.7])
def test_signal_std_coherent_case(r_abs, eta):
    n = 2.5
    got = signal_std(r_abs, ChannelEfficiencies(eta, eta), n, 0.0, 1.0)
    assert got == pytest.approx(eta * math.sqrt(n * (1 + r_abs**2)), rel=1e-12)


@pytest.mark.parametrize("r_abs", [0.0, 1.0])
def test_signal_std_twin_fock_vanishes_at_mirror_limits(r_abs):
    assert signal_std(r_abs, BALANCED, 4.0, -1.0, 0.0) == 0.0


def test_signal_std_rejects_unphysical_statistics():
    with pytest.raises(MetrologyDomainError):
        signal_std(0.5, BALANCED, 1.0, -5.0, 0.0)


# ---------------------------------------------------------------- enhancement

@pytest.mark.parametrize("r_abs", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
def test_coherent_input_is_the_reference(r_abs, eta):
    assert ratio(r_abs, eta, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_ratio_approaches_unity_as_eta_vanishes():
    for q, sigma in ((-1.0, 0.0), (2.0, 0.0), (3.0, 4.0)):
        assert abs(ratio(0.5, 1e-4, q, sigma) - 1.0) < 1e-7


def test_ratio_is_a_noise_quotient():
    """R must equal coherent-reference std over state std at balanced eta."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        r_abs = rng.uniform(0.05, 0.95)
        eta = rng.uniform(0.1, 1.0)
        q = rng.uniform(-1.0, 3.0)
        sigma = rng.uniform(0.0, 3.0)
        n = rng.uniform(0.5, 10.0)
        eff = ChannelEfficiencies(eta, eta)
        expected = signal_std(r_abs, eff, n, 0.0, 1.0) / signal_std(r_abs, eff, n, q, sigma)
        assert ratio(r_abs, eta, q, sigma) == pytest.approx(expected, rel=1e-12)


def test_twin_fock_closed_form():
    assert ratio_twin_fock(math.sqrt(0.5)) == pytest.approx(math.sqrt(6.0), rel=1e-12)
    rng = np.random.default_rng(37)
    for r_abs in rng.uniform(0.05, 0.95, 50):
        assert ratio_twin_fock(r_abs) == pytest.approx(
            ratio(r_abs, 1.0, -1.0, 0.0), rel=1e-12
        )


def test_twin_fock_divergence_limits():
    with pytest.raises(DivergenceError):
        ratio_twin_fock(0.0)
    with pytest.raises(DivergenceError):
        ratio_twin_fock(1.0)


def test_twin_fock_closed_form_is_accurate_at_small_reflectance():
    """Pinned against 50-digit arithmetic where the general ``ratio`` loses
    digits: its denominator cancels down to ~|r|^2, which costs it 2.2e-5
    relative at |r| = 1e-6, so the dedicated closed form must stay."""
    with localcontext() as ctx:
        ctx.prec = 50
        for r_abs in (1e-6, 1e-4, 1e-2):
            r2 = Decimal(r_abs) ** 2
            exact = float(((1 + r2) / (r2 - r2 * r2)).sqrt())
            assert ratio_twin_fock(r_abs) == pytest.approx(exact, rel=1e-12)


def test_tmsv_closed_form_and_limits():
    rng = np.random.default_rng(41)
    for _ in range(50):
        r_abs = rng.uniform(0.05, 0.95)
        n = rng.uniform(0.1, 10.0)
        assert ratio_tmsv(r_abs, n) == pytest.approx(ratio(r_abs, 1.0, n, 0.0), rel=1e-12)
    for n in (1.0, 2.0, 5.0):
        assert ratio_tmsv(1e-6, n) == pytest.approx((1 + n) ** -0.5, abs=1e-6)
    # vacuum input degenerates to noiseless beam-splitter comparison, above 1
    assert ratio_tmsv(0.5, 0.0) == pytest.approx(math.sqrt(1.25 / 0.75), rel=1e-12)
    assert ratio_tmsv(0.5, 0.0) > 1.0


def test_ratio_monotone_in_q_and_sigma():
    qs = np.linspace(-1.0, 3.0, 17)
    values = [ratio(0.5, 1.0, q, 0.5) for q in qs]
    assert all(a > b for a, b in zip(values, values[1:]))
    sigmas = np.linspace(0.0, 3.0, 17)
    values = [ratio(0.5, 1.0, 0.5, s) for s in sigmas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_classically_allowed_statistics_never_beat_the_reference():
    rng = np.random.default_rng(43)
    for _ in range(200):
        r_abs = rng.uniform(0.01, 0.99)
        eta = rng.uniform(0.0, 1.0)
        q = rng.uniform(0.0, 4.0)
        sigma = rng.uniform(1.0, 4.0)
        assert ratio(r_abs, eta, q, sigma) <= 1.0 + 1e-12


@pytest.mark.parametrize("n_photons", [1, 2, 3])
def test_noon_is_always_worse_than_coherent(n_photons):
    stats = family_statistics("noon", n_photons)
    for r_abs in np.linspace(0.05, 0.95, 10):
        for eta in (0.3, 0.7, 1.0):
            assert ratio(r_abs, eta, stats.q_mandel, stats.sigma) < 1.0


def test_ratio_input_validation():
    with pytest.raises(ValueError):
        ratio(0.5, 1.2, 0.0, 1.0)
    with pytest.raises(MetrologyDomainError):
        ratio(0.0, 1.0, -1.0, 0.0)


@pytest.mark.parametrize("bad", [[0.5, math.nan], [-0.1], [1.1]])
@pytest.mark.parametrize("name, check", [
    ("eta_a", lambda eta: ChannelEfficiencies(eta, 0.5)),
    ("eta_b", lambda eta: ChannelEfficiencies(0.5, eta)),
    ("eta", lambda eta: metrology._ratio_terms(0.5, eta, 0.0, 1.0)),
])
def test_array_range_checks_name_the_first_value_outside_the_unit_interval(bad, name, check):
    """NaN and out-of-range elements are refused with the message a scalar gets."""
    with pytest.raises(ValueError) as scalar:
        check(bad[-1])
    with pytest.raises(ValueError) as array:
        check(np.array(bad))
    assert str(array.value) == str(scalar.value) == f"{name} must lie in [0, 1], got {bad[-1]}"


def test_measurement_stats_check_every_std():
    stats = metrology.MeasurementStats(np.array([0.1, -0.2]), np.array([0.0, 1.5]))
    assert stats.std.shape == (2,)
    with pytest.raises(ValueError, match=r"^std must be non-negative, got -0\.25$"):
        metrology.MeasurementStats(np.zeros(3), np.array([1.0, -0.25, -1.0]))


def test_signal_std_broadcasts_over_every_argument_bit_for_bit():
    rng = np.random.default_rng(41)
    r_abs, eta_a, eta_b = rng.uniform(0.05, 0.95, (3, 40))
    n, q, sigma = rng.uniform(0.5, 10.0, 40), rng.uniform(-1.0, 3.0, 40), rng.uniform(0.0, 3.0, 40)
    stds = signal_std(r_abs, ChannelEfficiencies(eta_a, eta_b), n, q, sigma)
    for i, std in enumerate(stds.tolist()):
        eff = ChannelEfficiencies(eta_a[i].item(), eta_b[i].item())
        assert std == signal_std(r_abs[i].item(), eff, n[i].item(), q[i].item(), sigma[i].item())
    # an unphysical element is named with its own Q and sigma
    with pytest.raises(MetrologyDomainError) as array:
        signal_std(0.5, BALANCED, np.array([1.0, 1.0]), np.array([0.0, -5.0]),
                   np.array([1.0, 0.0]))
    with pytest.raises(MetrologyDomainError) as scalar:
        signal_std(0.5, BALANCED, 1.0, -5.0, 0.0)
    assert str(array.value) == str(scalar.value)


# ------------------------------------------------------------- family catalog

@pytest.mark.parametrize(
    "family,builder",
    [
        ("coherent", lambda n: coherent_product(math.sqrt(n))),
        ("twin-fock", lambda n: twin_fock(int(n))),
        ("tmsv", tmsv),
        ("noon", lambda n: noon(int(n))),
        ("squeezed", squeezed_product),
        ("squeezed-product", squeezed_product),
    ],
)
def test_family_statistics_match_constructed_states(family, builder):
    n = 2.0 if family in ("twin-fock", "noon") else 1.5
    closed = family_statistics(family, n)
    summed = statistics(builder(n))
    assert closed.mean_a == pytest.approx(summed.mean_a, abs=1e-6)
    assert closed.q_mandel == pytest.approx(summed.q_mandel, abs=1e-6)
    assert closed.sigma == pytest.approx(summed.sigma, abs=1e-6)
    assert closed.j_corr == pytest.approx(summed.j_corr, abs=1e-6)


def test_family_statistics_validation():
    with pytest.raises(ValueError):
        family_statistics("laser", 1.0)
    with pytest.raises(ValueError):
        family_statistics("twin-fock", 1.5)
    with pytest.raises(ValueError):
        family_statistics("tmsv", 0.0)
    for family in ("twin-fock", "coherent"):  # int(inf) would raise OverflowError
        for n in (math.inf, math.nan):
            with pytest.raises(ValueError, match="n_photons must be finite"):
                family_statistics(family, n)


def test_state_names_are_the_families_and_one_alias():
    assert STATE_NAMES == STATE_FAMILIES + ("squeezed-product",)
    assert state_family(" Squeezed_Product ") == "squeezed"
    assert state_family("TWIN_FOCK") == "twin-fock"
    assert family_statistics("squeezed-product", 2.0) == family_statistics("squeezed", 2.0)
    with pytest.raises(ValueError, match="choose from coherent, .*, squeezed-product"):
        state_family("laser")


# ------------------------------------------------------------------- precision

def test_precision_slope_matches_reflectance_derivative():
    stack = make_stack()
    stats = family_statistics("coherent", 3.0)
    for eta in (1.0, 0.6):
        eff = ChannelEfficiencies(eta, eta)
        result = precision(stack, GEOM_73, 1.39, stats, eff)
        expected = -(eta**2) * 3.0 * sensitivity(stack, GEOM_73, 1.39)
        # the two finite differences square |r_sp| through different float
        # paths, so ulp noise divided by 2h leaves ~1e-12 relative wiggle
        assert result.signal_slope == pytest.approx(expected, rel=1e-9)
        assert result.delta_n == pytest.approx(
            result.noise / abs(result.signal_slope), rel=1e-15
        )


def test_precision_orderings_at_the_operating_point():
    stack = make_stack()
    n_inf = inflection_index(stack, GEOM_73, n_range=(1.30, 1.4422))
    for n_photons, tmsv_beats_coherent in ((1.0, True), (2.0, False)):
        deltas = {
            family: precision(
                stack, GEOM_73, n_inf, family_statistics(family, n_photons), BALANCED
            ).delta_n
            for family in ("coherent", "twin-fock", "tmsv")
        }
        assert deltas["twin-fock"] < deltas["coherent"]
        assert deltas["twin-fock"] < deltas["tmsv"]
        assert (deltas["tmsv"] < deltas["coherent"]) == tmsv_beats_coherent


def test_precision_shot_noise_scaling():
    stack = make_stack()
    small = precision(stack, GEOM_73, 1.39, family_statistics("coherent", 1.0), BALANCED)
    large = precision(stack, GEOM_73, 1.39, family_statistics("coherent", 4.0), BALANCED)
    assert large.delta_n / small.delta_n == pytest.approx(0.5, abs=1e-10)


def test_precision_degenerate_when_sensing_arm_is_dark():
    stack = make_stack()
    with pytest.raises(DegenerateOperatingPointError):
        precision(stack, GEOM_73, 1.39, family_statistics("coherent", 1.0),
                  ChannelEfficiencies(0.0, 1.0))


def test_precision_step_validation():
    stack = make_stack()
    stats = family_statistics("coherent", 1.0)
    with pytest.raises(ValueError):
        precision(stack, GEOM_73, 1.39, stats, BALANCED, h=0.0)
    with pytest.raises(ValueError):
        precision(stack, GEOM_73, 1.5107, stats, BALANCED)


def test_phase_blindness_end_to_end():
    base = tmsv(1.0)
    scrambled = FockCoefficients(base.coeffs * 1j)
    stack = make_stack()
    first = precision(stack, GEOM_73, 1.39, statistics(base), BALANCED)
    second = precision(stack, GEOM_73, 1.39, statistics(scrambled), BALANCED)
    assert first == second


# ---------------------------------------------------------------------- sweeps

def test_sweep_ratio_twin_fock_peak_location():
    stack = make_stack()
    grid = np.linspace(1.333, 1.4422, 1093)
    pairs = sweep_ratio(stack, GEOM_73, grid, family_statistics("twin-fock", 1), 1.0)
    assert len(pairs) == len(grid)
    ns, values = zip(*pairs)
    peak_n = ns[int(np.nanargmax(values))]
    assert abs(peak_n - 1.383) < 0.01


def test_sweep_ratio_is_brightness_independent_for_twin_fock():
    stack = make_stack()
    grid = np.linspace(1.333, 1.4422, 101)
    reference = None
    for n_photons in (1, 2, 5, 10):
        stats = statistics(twin_fock(n_photons))
        values = [r for _, r in sweep_ratio(stack, GEOM_73, grid, stats, 1.0)]
        if reference is None:
            reference = values
        else:
            assert max(abs(a - b) for a, b in zip(reference, values)) < 1e-12


def test_sweep_ratio_lower_eta_hugs_unity():
    stack = make_stack()
    grid = np.linspace(1.333, 1.4422, 101)
    stats = family_statistics("twin-fock", 1)
    bright = dict(sweep_ratio(stack, GEOM_73, grid, stats, 1.0))
    dim = dict(sweep_ratio(stack, GEOM_73, grid, stats, 0.4))
    for n, value in bright.items():
        if value > 1.0:
            assert abs(dim[n] - 1.0) <= abs(value - 1.0) + 1e-12


def test_sweep_ratio_reports_undefined_points_as_nan():
    stack = make_stack()
    bogus = PhotonStatistics(mean_a=1.0, mean_b=1.0, q_mandel=-1.2, sigma=0.0, j_corr=1.0)
    with pytest.warns(UserWarning):
        pairs = sweep_ratio(stack, GEOM_73, [1.333, 1.38], bogus, 1.0)
    assert len(pairs) == 2
    assert any(math.isnan(r) for _, r in pairs)


def test_sweep_ratio_equals_scalar_ratio_point_by_point():
    """The array sweep against a loop of scalar :func:`ratio` calls: equal
    values, and one warning per undefined point with the same text, in order."""
    stack = make_stack()
    grid = np.linspace(1.333, 1.4422, 301).tolist()
    cases = [(family_statistics(name, 2.0), eta) for name in STATE_FAMILIES
             for eta in (1.0, 0.37)]
    cases.append((PhotonStatistics(mean_a=1.0, mean_b=1.0, q_mandel=-1.2, sigma=0.0,
                                   j_corr=1.0), 1.0))
    warned_cases = 0
    for stats, eta in cases:
        r_abs = abs(reflection(stack, GEOM_73.theta_deg, grid)).tolist()
        want, messages = [], []
        for n, r in zip(grid, r_abs):
            try:
                want.append((n, ratio(r, eta, stats.q_mandel, stats.sigma)))
            except MetrologyDomainError as exc:
                messages.append(f"n_analyte={n}: {exc}")
                want.append((n, math.nan))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = sweep_ratio(stack, GEOM_73, grid, stats, eta)
        assert [str(w.message) for w in caught] == messages
        assert all(w.category is UserWarning for w in caught)
        assert [n for n, _ in got] == grid
        assert all(g == w or math.isnan(g) and math.isnan(w)
                   for (_, g), (_, w) in zip(got, want))
        warned_cases += bool(messages)
    assert warned_cases == 1


def test_sweep_ratio_rejects_unphysical_grid():
    stack = make_stack()
    with pytest.raises(ValueError):
        sweep_ratio(stack, GEOM_73, [1.6], family_statistics("coherent", 1.0), 1.0)


def test_sweep_precision_row_count_and_schema():
    stack = make_stack()
    thetas = [70.0, 73.0, 76.0]
    rows = sweep_precision_vs_angle(stack, thetas, ["coherent", "twin-fock", "tmsv"],
                                    n_photons=1.0, eta=1.0)
    assert len(rows) == len(thetas) * 3
    assert list(rows[0]) == ["theta_deg", "n_inf", "state", "N", "eta",
                             "delta_n", "slope", "noise"]
    by_theta = {}
    for row in rows:
        by_theta.setdefault(row["theta_deg"], {})[row["state"]] = row["delta_n"]
    for deltas in by_theta.values():
        assert deltas["twin-fock"] < min(deltas["coherent"], deltas["tmsv"])


def test_sweep_precision_accepts_prebuilt_statistics():
    stack = make_stack()
    rows = sweep_precision_vs_angle(
        stack, [73.0], [("mine", statistics(twin_fock(2)))], eta=0.9)
    assert len(rows) == 1
    assert rows[0]["state"] == "mine"
    assert rows[0]["N"] == pytest.approx(2.0)


def test_sweep_precision_skips_angles_without_interior_flank():
    stack = make_stack()
    with pytest.warns(UserWarning, match="skipped"):
        rows = sweep_precision_vs_angle(stack, [65.5, 73.0], ["coherent"],
                                        n_range=(1.333, 1.4422))
    assert [row["theta_deg"] for row in rows] == [73.0]


def test_sweep_rows_equal_precision_at_their_operating_points(monkeypatch):
    """Every family at the 361 default angles of ``plasmonq precision``: the
    sweep evaluates each state's rows in one call, and each row equals a
    scalar :func:`precision` call bit for bit."""
    stack = make_stack()
    eta, n_photons = 0.9, 2.0
    thetas = np.linspace(65.5, 83.5, 361).tolist()
    calls = []
    precision_at = metrology._precision_at

    def counted(*args):
        calls.append(args)
        return precision_at(*args)

    monkeypatch.setattr(metrology, "_precision_at", counted)
    rows = sweep_precision_vs_angle(stack, thetas, STATE_FAMILIES,
                                    n_photons=n_photons, eta=eta)
    assert len(calls) == len(STATE_FAMILIES)
    monkeypatch.undo()
    assert len(rows) == len(thetas) * len(STATE_FAMILIES)
    assert [(row["theta_deg"], row["state"]) for row in rows] == [
        (theta, family) for theta in thetas for family in STATE_FAMILIES]
    for row in rows:
        result = precision(stack, IncidenceGeometry(row["theta_deg"]), row["n_inf"],
                           family_statistics(row["state"], n_photons),
                           ChannelEfficiencies(eta, eta))
        assert row["slope"] == result.signal_slope
        assert row["noise"] == result.noise
        assert row["delta_n"] == result.delta_n


def test_precision_columns_are_the_sweep_rows_with_one_object_per_angle():
    """The columns ``plasmonq precision`` writes hold the sweep's rows, and an
    angle's ``theta_deg`` and ``n_inf`` are one object over its states."""
    stack = make_stack()
    thetas = [70.0, 73.0, 76.0, 79.0]
    states = ["coherent", "twin-fock", ("mine", statistics(twin_fock(2)))]
    columns = metrology._precision_columns(stack, thetas, states, 2.0, 0.9, (1.30, 1.4422),
                                           1e-6, 1e-9, 2001)
    rows = sweep_precision_vs_angle(stack, thetas, states, n_photons=2.0, eta=0.9)
    assert list(columns) == list(rows[0])
    assert [dict(zip(columns, row)) for row in zip(*columns.values())] == rows
    for name in ("theta_deg", "n_inf"):
        column = columns[name]
        assert all(column[i] is column[i - i % 3] for i in range(len(column)))
    assert metrology._precision_columns(stack, thetas, [], 1.0, 1.0, (1.30, 1.4422), 1e-6,
                                        1e-9, 2001) == {name: [] for name in columns}


def test_skipped_angles_are_warned_of_at_the_sweeps_caller():
    stack = make_stack()
    for sweep in (lambda: sweep_precision_vs_angle(stack, [65.5, 73.0], ["coherent"],
                                                   n_range=(1.333, 1.4422)),
                  lambda: metrology._precision_columns(stack, [65.5, 73.0], ["coherent"], 1.0,
                                                       1.0, (1.333, 1.4422), 1e-6, 1e-9, 2001)):
        with pytest.warns(UserWarning, match="skipped") as caught:
            sweep()
        assert [w.filename for w in caught] == [__file__]


def test_sweep_precision_degenerate_when_detectors_are_dark():
    with pytest.raises(DegenerateOperatingPointError):
        sweep_precision_vs_angle(make_stack(), [73.0], ["coherent"], eta=0.0)
