import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from plasmonq import fresnel
from plasmonq.fresnel import (
    FresnelSingularityError,
    IncidenceGeometry,
    KretschmannStack,
    NoInteriorExtremumError,
    ReflectionResult,
    Sensor,
    _TIR_MARGIN,
    _golden_minimize,
    _illinois_root,
    _rsp,
    _steepest_flank,
    _tir_curvature,
    _tir_slope_on_grid,
    _tir_slope_terms,
    inflection_index,
    interface_reflection,
    reflection,
    reflection_coefficient,
    resonance_angle,
    sensitivity,
    tangential_wavevector,
    transfer_matrix_reflection,
    wavevector_z,
)
from plasmonq.materials import GOLD_DRUDE_LORENTZ, gold_dispersion

WAVELENGTH = 810.0
PRISM = 1.5107

# Frozen anchors for the bundled gold table at 810 nm (independent runs of
# the scan/refine machinery at much finer grids than the defaults).
RES_ANGLE_139 = 74.78284279365965
RES_ANGLE_1395 = 75.58751825154563
N_INF_73 = 1.3847878755107959
N_DIP_73 = 1.3780676175419342


def make_stack(n_analyte=1.38, metal=None, thickness=50.0):
    return KretschmannStack(
        n_prism=PRISM,
        metal=gold_dispersion() if metal is None else metal,
        thickness_nm=thickness,
        n_analyte=n_analyte,
        wavelength_nm=WAVELENGTH,
    )


GEOM_73 = IncidenceGeometry(73.0)


def _tir_reflectance(sensor, theta_deg, n_analyte):
    """Reflectance ``|r_sp|**2`` at one angle over an array of analyte indices,
    all under total internal reflection, from the terms that
    :func:`plasmonq.fresnel._tir_slope_terms` forms in array arithmetic: with
    ``beta = kappa / n**2``, ``|P + i beta Q|**2 / |S + i beta T|**2``, each
    summed as ``Re**2 + Im**2`` so that nothing cancels near the dip."""
    k0 = 2.0 * math.pi / sensor.wavelength_nm
    theta = np.radians(np.array([theta_deg]))
    kx2 = (k0 * sensor.n_prism * np.sin(theta)) ** 2
    eps2 = sensor.metal_permittivity
    k2z = np.sqrt(eps2 * (k0 * k0) - kx2)
    r12 = interface_reflection(sensor.eps_prism, eps2, k0 * sensor.n_prism * np.cos(theta), k2z)
    ph = np.exp(2j * k2z * sensor.thickness_nm)
    a2 = k2z / eps2
    (p, q, s, t) = (v.item() for v in (a2 * (ph + r12), r12 - ph, a2 * (1.0 + ph * r12),
                                       1.0 - ph * r12))
    n2 = np.square(n_analyte)
    beta = np.sqrt(kx2.item() - n2 * (k0 * k0)) / n2
    den = (s.real - beta * t.imag) ** 2 + (s.imag + beta * t.real) ** 2
    return ((p.real - beta * q.imag) ** 2 + (p.imag + beta * q.real) ** 2) / den


def test_tangential_wavevector_formula():
    stack = make_stack()
    expected = 2.0 * math.pi / WAVELENGTH * PRISM * math.sin(math.radians(73.0))
    assert tangential_wavevector(stack, GEOM_73) == expected


def test_wavevector_z_branch_selection():
    k0 = 2.0 * math.pi / WAVELENGTH
    k_x = tangential_wavevector(make_stack(), GEOM_73)
    # propagating in the prism: real and positive
    kz = wavevector_z(complex(PRISM**2), k_x, WAVELENGTH)
    assert kz.imag == 0.0 and kz.real > 0.0
    # evanescent in the analyte above the critical index: decaying upward
    kz = wavevector_z(complex(1.333**2), k_x, WAVELENGTH)
    assert kz.real == pytest.approx(0.0, abs=1e-18) and kz.imag > 0.0
    # lossy metal: decay wins the branch choice
    kz = wavevector_z(complex(-20.0, 2.0), k_x, WAVELENGTH)
    assert kz.imag > 0.0
    # a gain-flavored permittivity is forced onto the decaying branch too
    kz = wavevector_z(complex(-20.0, -2.0), k_x, WAVELENGTH)
    assert kz.imag >= 0.0
    assert abs(kz * kz - (complex(-20.0, -2.0) * k0**2 - k_x * k_x)) < 1e-18


def test_interface_reflection_is_antisymmetric():
    rng = np.random.default_rng(42)
    k0 = 2.0 * math.pi / WAVELENGTH
    for _ in range(25):
        eps_l = complex(rng.uniform(1.0, 3.0), rng.uniform(0.0, 0.5))
        eps_m = complex(rng.uniform(-30.0, 3.0), rng.uniform(0.0, 5.0))
        k_x = rng.uniform(0.0, 1.4) * k0
        k_lz = wavevector_z(eps_l, k_x, WAVELENGTH)
        k_mz = wavevector_z(eps_m, k_x, WAVELENGTH)
        forward = interface_reflection(eps_l, eps_m, k_lz, k_mz)
        backward = interface_reflection(eps_m, eps_l, k_mz, k_lz)
        assert abs(forward + backward) < 1e-14


def test_interface_reflection_zero_denominator_raises():
    with pytest.raises(FresnelSingularityError):
        interface_reflection(1.0, 1.0, 1.0, -1.0)


def test_vanishing_film_reduces_to_bare_interface():
    """At d=0 the three-layer response composes into the 1|3 Fresnel factor."""
    stack = make_stack()
    k0 = 2.0 * math.pi / WAVELENGTH
    for theta in np.linspace(40.0, 89.0, 50):
        k_x = k0 * PRISM * math.sin(math.radians(theta))
        collapsed = _rsp(stack.eps_prism, stack.metal_permittivity,
                         stack.eps_analyte, 0.0, k0, k_x)
        k1z = wavevector_z(stack.eps_prism, k_x, WAVELENGTH)
        k3z = wavevector_z(stack.eps_analyte, k_x, WAVELENGTH)
        bare = interface_reflection(stack.eps_prism, stack.eps_analyte, k1z, k3z)
        assert abs(collapsed - bare) < 1e-12


def test_film_matching_prism_only_adds_propagation_phase():
    stack = make_stack(metal=complex(PRISM**2))
    result = reflection_coefficient(stack, GEOM_73)
    k_x = tangential_wavevector(stack, GEOM_73)
    k1z = wavevector_z(stack.eps_prism, k_x, WAVELENGTH)
    k3z = wavevector_z(stack.eps_analyte, k_x, WAVELENGTH)
    bare = interface_reflection(stack.eps_prism, stack.eps_analyte, k1z, k3z)
    assert result.reflectance == pytest.approx(abs(bare) ** 2, rel=1e-12)
    expected = bare * cmath.exp(2j * k1z * stack.thickness_nm)
    assert result.r_sp == pytest.approx(expected, rel=1e-12)


def test_reflection_grid_equals_the_scalar_stack_calls():
    sensor = Sensor(n_prism=PRISM, metal=gold_dispersion(), thickness_nm=50.0,
                    wavelength_nm=WAVELENGTH)
    thetas = np.linspace(66.0, 82.0, 7)
    ns = np.linspace(1.333, 1.4422, 9)
    grid = reflection(sensor, thetas[:, None], ns)
    assert grid.shape == (7, 9)
    # every array call multiplies in the same numpy loop: bit for bit
    for i, theta in enumerate(thetas):
        assert np.array_equal(grid[i], reflection(sensor, theta, ns))
    for j, n in enumerate(ns):
        assert np.array_equal(grid[:, j], reflection(sensor, thetas, n))
    # a 0-d call multiplies complex numbers in numpy's scalar code, which may
    # round differently from the (SIMD) array loop: a few ulp, not bit for bit
    for i, theta in enumerate(thetas):
        for j, n in enumerate(ns):
            scalar = reflection_coefficient(make_stack(float(n)), IncidenceGeometry(theta))
            assert grid[i, j] == pytest.approx(scalar.r_sp, rel=0.0, abs=1e-15)


def test_reflection_checks_every_angle_and_index():
    sensor = make_stack()
    with pytest.raises(ValueError, match="theta_deg=90"):
        reflection(sensor, [70.0, 90.0], 1.38)
    with pytest.raises(ValueError, match=f"n_analyte={PRISM} must lie in"):
        reflection(sensor, 73.0, [1.38, PRISM])


def test_reflection_rejects_an_index_whose_square_is_not_normal():
    """Below ~1.5e-154 the square of the index is subnormal or 0 and the
    kernel's ``k_z / eps`` overflows to NaN, so such an index is refused."""
    sensor = make_stack()
    assert np.all(np.isfinite(reflection(sensor, [40.0, 73.0, 89.0], 1.5e-154)))
    with pytest.raises(ValueError, match=r"n_analyte=1e-155 is too small"):
        reflection(sensor, 73.0, [1.38, 1e-155])


def test_a_stack_refuses_an_index_whose_square_underflows():
    """A stack is refused when it is built, with the message of
    :func:`reflection`, not only when it is first evaluated."""
    assert make_stack(n_analyte=1.5e-154).eps_analyte != 0
    for n_analyte in [1e-155, 1e-300, 5e-324]:
        with pytest.raises(ValueError, match=f"n_analyte={n_analyte} is too small: its square"):
            make_stack(n_analyte=n_analyte)


def test_transfer_matrix_agrees_with_recursive_form():
    k0 = 2.0 * math.pi / WAVELENGTH
    rng = np.random.default_rng(7)
    stack = make_stack()
    cases = [(stack.eps_prism, stack.metal_permittivity, stack.eps_analyte, 50.0)]
    for _ in range(5):
        cases.append((
            complex(rng.uniform(2.0, 2.9)),
            complex(-rng.uniform(5.0, 30.0), rng.uniform(0.5, 5.0)),
            complex(rng.uniform(1.69, 2.1)),
            rng.uniform(20.0, 80.0),
        ))
    for eps1, eps2, eps3, d in cases:
        n1 = math.sqrt(eps1.real)
        for theta in np.linspace(40.0, 89.0, 200):
            k_x = k0 * n1 * math.sin(math.radians(theta))
            direct = _rsp(eps1, eps2, eps3, d, k0, k_x)
            layered = transfer_matrix_reflection(
                [(eps1, 0.0), (eps2, d), (eps3, 0.0)], k_x, WAVELENGTH)
            assert abs(direct - layered) < 1e-10


def test_transfer_matrix_two_layer_reduction():
    k0 = 2.0 * math.pi / WAVELENGTH
    k_x = 0.9 * k0
    eps1, eps2 = complex(2.28), complex(1.8, 0.1)
    got = transfer_matrix_reflection([(eps1, 0.0), (eps2, 0.0)], k_x, WAVELENGTH)
    q1 = wavevector_z(eps1, k_x, WAVELENGTH) / eps1
    q2 = wavevector_z(eps2, k_x, WAVELENGTH) / eps2
    assert abs(got - (q1 - q2) / (q1 + q2)) < 1e-14


def test_transfer_matrix_array_call_matches_its_scalar_calls():
    k0 = 2.0 * math.pi / WAVELENGTH
    rng = np.random.default_rng(11)
    stacks = [[(complex(2.28), 0.0), (complex(1.8, 0.1), 0.0)]]
    for _ in range(8):
        stacks.append([
            (complex(rng.uniform(2.0, 2.9)), 0.0),
            (complex(-rng.uniform(5.0, 30.0), rng.uniform(0.5, 5.0)), rng.uniform(20.0, 80.0)),
            (complex(rng.uniform(1.69, 2.1), rng.uniform(0.0, 0.1)), 0.0),
        ])
    for layers in stacks:
        n1 = math.sqrt(layers[0][0].real)
        k_x = k0 * n1 * np.sin(np.radians(np.linspace(1.0, 89.0, 301)))
        array = transfer_matrix_reflection(layers, k_x, WAVELENGTH)
        scalar = [transfer_matrix_reflection(layers, kx, WAVELENGTH) for kx in k_x.tolist()]
        assert array.shape == k_x.shape
        assert all(isinstance(r, complex) for r in scalar)
        assert np.max(abs(array - scalar)) < 1e-14
        grid = transfer_matrix_reflection(layers, k_x.reshape(7, 43), WAVELENGTH)
        assert np.max(abs(grid - array.reshape(7, 43))) < 1e-14


def test_transfer_matrix_array_with_one_singular_element_raises():
    wavelength = 2.0 * math.pi  # k0 = 1 exactly, so k_z below is exactly 0
    assert 2.0 * math.pi / wavelength == 1.0
    layers = [(complex(4.0), 0.0), (complex(2.25), 10.0), (complex(1.0), 0.0)]
    assert wavevector_z(layers[1][0], 1.5, wavelength) == 0
    for kx in (0.5, 1.9):
        transfer_matrix_reflection(layers, kx, wavelength)  # regular elements
    with pytest.raises(FresnelSingularityError):
        transfer_matrix_reflection(layers, 1.5, wavelength)
    with pytest.raises(FresnelSingularityError):
        transfer_matrix_reflection(layers, np.array([0.5, 1.5, 1.9]), wavelength)


def test_reflectance_is_passive_on_sample_grid():
    stack = make_stack()
    for theta in np.linspace(65.5, 83.5, 19):
        geom = IncidenceGeometry(theta)
        for n in np.linspace(1.333, 1.4422, 31):
            refl = reflection_coefficient(
                dataclasses.replace(stack, n_analyte=float(n)), geom).reflectance
            assert 0.0 <= refl <= 1.0


def test_lossless_total_internal_reflection_is_unimodular():
    """A real negative film over an evanescent analyte absorbs nothing."""
    stack = make_stack(n_analyte=1.333, metal=-10.0)
    for theta in (72.0, 75.0, 80.0):
        refl = reflection_coefficient(stack, IncidenceGeometry(theta)).reflectance
        assert abs(refl - 1.0) < 1e-10


def test_phase_maps_negative_pi_to_pi():
    assert ReflectionResult(complex(-1.0, -0.0)).phase == math.pi


def test_resonance_angles_match_frozen_values_and_order():
    got_139 = resonance_angle(make_stack(1.39))
    got_1395 = resonance_angle(make_stack(1.395))
    assert got_139 == pytest.approx(RES_ANGLE_139, abs=1e-4)
    assert got_1395 == pytest.approx(RES_ANGLE_1395, abs=1e-4)
    assert got_139 < got_1395


def test_resonance_angle_on_boundary_raises():
    with pytest.raises(NoInteriorExtremumError,
                       match=r"^reflectance minimum at theta at grid boundary \(76\.000000\)$"):
        resonance_angle(make_stack(1.39), theta_range=(76.0, 83.5))


def test_sensitivity_changes_sign_across_the_dip():
    stack = make_stack()
    left = sensitivity(dataclasses.replace(stack, n_analyte=1.37), GEOM_73, 1.37)
    right = sensitivity(dataclasses.replace(stack, n_analyte=1.39), GEOM_73, 1.39)
    at_dip = sensitivity(dataclasses.replace(stack, n_analyte=N_DIP_73), GEOM_73, N_DIP_73)
    assert left < -30.0
    assert right > 30.0
    assert abs(at_dip) < 1.0


def test_sensitivity_step_halving_converges():
    stack = make_stack()
    reference = sensitivity(stack, GEOM_73, 1.39, h=1e-8)
    coarse = abs(sensitivity(stack, GEOM_73, 1.39, h=1e-3) - reference)
    fine = abs(sensitivity(stack, GEOM_73, 1.39, h=5e-4) - reference)
    assert fine < coarse


def test_sensitivity_rejects_step_leaving_domain():
    stack = make_stack()
    with pytest.raises(ValueError):
        sensitivity(stack, GEOM_73, PRISM - 1e-9, h=1e-6)


def test_sweeps_broadcast_over_arrays():
    """Arrays of analyte indices and angles go through one kernel call and
    agree with the scalar calls; every element is domain-checked."""
    stack = make_stack()
    grid = np.linspace(1.333, 1.4422, 50)
    slopes = sensitivity(stack, GEOM_73, grid)
    assert slopes.shape == grid.shape
    for n, slope in zip(grid, slopes):
        assert slope == pytest.approx(sensitivity(stack, GEOM_73, float(n)),
                                      rel=1e-9, abs=1e-9)
    thetas = np.linspace(65.5, 83.5, 19)
    k_x = tangential_wavevector(stack, IncidenceGeometry(thetas))
    for theta, kx in zip(thetas, k_x):
        assert kx == pytest.approx(
            tangential_wavevector(stack, IncidenceGeometry(float(theta))), rel=1e-15)
    with pytest.raises(ValueError, match="theta_deg=95"):
        IncidenceGeometry(np.array([70.0, 95.0]))
    with pytest.raises(ValueError):
        sensitivity(stack, GEOM_73, np.array([1.38, PRISM]))


def test_golden_minimizer_finds_planted_optimum():
    # slope magnitude of a synthetic smooth step peaks exactly at the plant
    plant = 1.38
    def neg_slope(x):
        return -1.0 / math.cosh((x - plant) / 0.002) ** 2
    got = _golden_minimize(neg_slope, 1.36, 1.40, tol=1e-10)
    assert got == pytest.approx(plant, abs=1e-8)
    quartic = _golden_minimize(lambda x: (x - 2.5) ** 4 + 1.0, 0.0, 10.0, tol=1e-6)
    assert quartic == pytest.approx(2.5, abs=1e-3)


def _counted(f, limit=500):
    """``f``, raising once it has been called more than ``limit`` times, so that
    a search that never stops fails instead of hanging."""
    calls = 0

    def once(*args):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise RuntimeError(f"the search did not stop within {limit} calls")
        return f(*args)

    return once


def test_golden_section_stops_when_no_float_is_left_inside():
    # tol = 0 cannot be met: once a bracket's ends are neighbouring floats, the
    # probes land on them and the bracket stops shrinking
    root = math.sqrt(2.0)
    got = _golden_minimize(_counted(lambda x: (x - root) * (x - root)), 1.0, 2.0, 0.0)
    assert abs(got - root) <= 4 * math.ulp(root)


def test_resonance_angle_returns_at_zero_tolerance(monkeypatch):
    # every objective call of the search is one reflection call
    monkeypatch.setattr(fresnel, "reflection", _counted(reflection))
    got = resonance_angle(make_stack(n_analyte=1.39), tol=0.0)
    assert got == pytest.approx(RES_ANGLE_139, abs=1e-6)


def _illinois_loop(f, a, b, tol):
    """One bracket at a time, in Python floats: the reference for the lockstep form."""
    fa, fb = f(a), f(b)
    if (fa > 0) == (fb > 0) and fa != 0 and fb != 0:
        return a + 0.5 * (b - a)
    ua, ub, kept = fa, fb, 0
    while fa != 0 and fb != 0 and b - a > tol and math.nextafter(a, b) < b:
        x = a + ua / (ua - ub) * (b - a)
        fx = f(x)
        if (fx > 0) != (fb > 0) or fx == 0:
            ub = 0.5 * ub if kept == 1 else ub
            a, fa, ua, kept = x, fx, fx, 1
        else:
            ua = 0.5 * ua if kept == -1 else ua
            b, fb, ub, kept = x, fx, fx, -1
    return a + fa / (fa - fb) * (b - a)


def test_illinois_finds_planted_roots_in_lockstep():
    """Rows of a cubic, a steep tanh, a root at a bracket end and a bracket
    already within ``tol``: each row lands on its root, and is the scalar
    Illinois search of that row to the bit."""
    shifts = np.array([1.38, 0.3, 2.0, 5.0])
    steep = np.array([False, True, False, False])
    a = np.array([1.36, -1.0, 2.0, 5.0 - 1e-12])
    b = np.array([1.40, 1.0, 3.0, 5.0 + 1e-12])

    def planted(x, shift, steep):
        return np.where(steep, np.tanh((x - shift) / 1e-3), (x - shift) ** 3 + (x - shift))

    got = _illinois_root(lambda x: planted(x, shifts, steep), a, b, 1e-9)
    np.testing.assert_allclose(got, shifts, rtol=0, atol=1e-12)
    assert got[2] == 2.0
    for i in range(len(shifts)):
        def one(x):
            return planted(x, shifts[i], steep[i]).item()
        assert got[i] == _illinois_loop(one, float(a[i]), float(b[i]), 1e-9)


def test_illinois_without_a_sign_change_returns_the_midpoint():
    # no root inside the first bracket; two roots, so one sign, in the second
    a, b = np.array([1.0, -2.0]), np.array([2.0, 2.0])
    got = _illinois_root(lambda x: x * x - 1.0 + np.where(a > 0, 5.0, 0.0), a, b, 1e-12)
    assert got.tolist() == [1.5, 0.0]


def test_illinois_stops_when_no_float_is_left_inside():
    # tol = 0 cannot be met; the bracket closes on two neighbouring floats
    root = math.sqrt(2.0)
    a, b = np.array([1.0]), np.array([2.0])
    (got,) = _illinois_root(lambda x: x * x - 2.0, a, b, 0.0)
    assert abs(got - root) <= 2 * math.ulp(root)


def test_lockstep_flank_search_matches_the_one_angle_search():
    # 60 deg has no TIR window above 1.333; 65.5 deg and, on the narrow
    # range, 71-79 deg put the steepest point on the grid boundary
    stack = make_stack()
    thetas = [60.0, 65.5] + [float(theta) for theta in range(70, 80)]
    outcomes = set()
    for n_range in [(1.333, 1.4422), (1.333, 1.35)]:
        found = _steepest_flank(stack, thetas, n_range, 1e-9, 1e-6, 2001)
        assert len(found) == len(thetas)
        for theta, got in zip(thetas, found):
            try:
                want = inflection_index(stack, IncidenceGeometry(theta), n_range=n_range)
            except NoInteriorExtremumError as exc:
                assert isinstance(got, NoInteriorExtremumError)
                assert str(got) == str(exc)
                outcomes.add("no TIR window" if "total-internal" in str(exc) else "boundary")
            else:
                assert got == want
                outcomes.add("interior")
    assert outcomes == {"interior", "boundary", "no TIR window"}


def _grid_bracket(f, lo, hi, grid_points, what):
    """The two grid cells around the first minimum of ``f`` on a uniform grid
    over [lo, hi], as a one-angle search brackets it; raises
    :class:`NoInteriorExtremumError` when that minimum sits on a boundary."""
    step = (hi - lo) / (grid_points - 1)
    i_min = int(np.argmin(f(lo + np.arange(grid_points) * step)))
    if i_min == 0 or i_min == grid_points - 1:
        raise NoInteriorExtremumError(f"{what} at grid boundary ({lo + i_min * step:.6f})")
    return lo + (i_min - 1) * step, lo + (i_min + 1) * step


def _kernel_flank_scan(stack, thetas, n_range, h, grid_points):
    """The steep-flank scan with every grid point evaluated through
    :func:`sensitivity`, i.e. the complex kernel's central difference: each
    angle's bracket, or why the angle is skipped."""
    lo, hi = n_range
    found = []
    for theta in thetas:
        geom = IncidenceGeometry(theta)
        n_critical = stack.n_prism * math.sin(math.radians(theta))
        top = min(hi, n_critical - _TIR_MARGIN)
        if top <= lo:
            found.append(NoInteriorExtremumError(
                f"no total-internal-reflection window above n={lo} at "
                f"theta={theta} deg (crossover at {n_critical:.6f})"))
            continue
        try:
            found.append(_grid_bracket(lambda n: -abs(sensitivity(stack, geom, n, h)),
                                       lo, top, grid_points, "steepest flank at n"))
        except NoInteriorExtremumError as exc:
            found.append(exc)
    return found


def test_the_in_place_scan_has_the_bits_of_the_plain_formula():
    """The scan's in-place arithmetic keeps the order of the plain formula,
    so at each of the 361 default angles its values, and so the grid cell it
    picks, are those of the plain formula."""
    k0 = 2.0 * math.pi / WAVELENGTH
    thetas = np.linspace(65.5, 83.5, 361)
    for theta, row in zip(thetas.tolist(), _tir_slope_terms(make_stack(), thetas).tolist()):
        top = min(1.4422, PRISM * math.sin(math.radians(theta)) - _TIR_MARGIN)
        n = np.linspace(1.30, top, 2001)
        kk, kx2, c0, c1, c2, d0, d1, d2 = row
        kappa = np.sqrt(kx2 - n * n * (k0 * k0))
        beta = kappa / (n * n)
        den = d0 + beta * (d1 + beta * d2)
        plain = (c0 + beta * (c1 + beta * c2)) * (kk / kappa + 2.0 * beta) / (n * den * den)
        assert np.array_equal(_tir_slope_on_grid(row, (n, n * n, n * n * (k0 * k0))), plain)


def test_closed_form_scan_matches_the_kernel_scan():
    """Seeded sensors over both gold sources, angle grids from below the
    critical angle to grazing, narrow and wide index ranges, and coarse and
    fine grids: the search skips the angles that the kernel's central
    difference at ``h = 1e-6`` skips, with the same message, and refines every
    other angle inside the bracket of that kernel scan."""
    rng = np.random.default_rng(2024)
    outcomes = set()
    for case in range(12):
        n_prism = float(rng.uniform(1.45, 1.8))
        sensor = Sensor(n_prism, gold_dispersion() if case % 2 else GOLD_DRUDE_LORENTZ,
                        float(rng.uniform(35.0, 65.0)), float(rng.uniform(600.0, 1000.0)))
        lo = float(rng.uniform(1.0, 1.34))
        hi = min(lo + float(rng.choice([0.01, 0.05, 0.2])), n_prism - 0.01)
        thetas = np.linspace(rng.uniform(35.0, 60.0), rng.uniform(75.0, 89.0), 15).tolist()
        grid_points = 201 if case % 3 == 0 else 2001
        got = _steepest_flank(sensor, thetas, (lo, hi), 1e-9, 1e-6, grid_points)
        want = _kernel_flank_scan(sensor, thetas, (lo, hi), 1e-6, grid_points)
        assert len(got) == len(want) == len(thetas)
        for theta, g, w in zip(thetas, got, want):
            if isinstance(w, NoInteriorExtremumError):
                assert type(g) is type(w) and str(g) == str(w), (case, theta, g)
                outcomes.add("no TIR window" if "total-internal" in str(w) else "boundary")
            else:
                assert w[0] <= g <= w[1], (case, theta, g, w)
                outcomes.add("interior")
    assert outcomes == {"interior", "boundary", "no TIR window"}


@pytest.mark.parametrize("h", [1e-5, 1e-4, 4.9e-4])
def test_closed_form_scan_stays_within_resolution_at_larger_steps(h):
    """The search does not use ``h``: at every step it returns the ``n_inf``
    it returns at ``h = 1e-6``, bit for bit, and skips the same angles with
    the same messages.  (Until the refinement solved for the root of
    ``d2R/dn2``, it maximised the kernel's central difference over ``n +- h``,
    and ``n_inf`` moved by up to 8.9e-6 at ``h = 4e-4``.)"""
    rng = np.random.default_rng(2025)
    sensors = [make_stack(thickness=48.0), make_stack(thickness=52.0)]
    for case in range(4):
        sensors.append(Sensor(float(rng.uniform(1.45, 1.8)),
                              gold_dispersion() if case % 2 else GOLD_DRUDE_LORENTZ,
                              float(rng.uniform(35.0, 65.0)), float(rng.uniform(600.0, 1000.0))))
    thetas = np.linspace(65.5, 83.5, 361).tolist()
    outcomes = set()
    for sensor in sensors:
        got = _steepest_flank(sensor, thetas, (1.30, 1.4422), 1e-9, h, 2001)
        want = _steepest_flank(sensor, thetas, (1.30, 1.4422), 1e-9, 1e-6, 2001)
        for g, w in zip(got, want, strict=True):
            assert type(g) is type(w), (sensor, h, g, w)
            if isinstance(w, NoInteriorExtremumError):
                assert str(g) == str(w)
                outcomes.add("skipped")
            else:
                assert g == w, (sensor, h)
                outcomes.add("interior")
    assert outcomes == {"interior", "skipped"}


@pytest.mark.parametrize("metal", [-11.7 + 1.2j, -11.7 - 1.2j, 2.25 - 0.1j])
def test_tir_closed_form_takes_the_kernels_branch_for_any_film(metal):
    # a film with gain (Im eps < 0) puts the principal root k2z on the growing
    # branch, which the kernel flips; r_sp is even in k2z, so both agree, and
    # so does the closed-form slope with the kernel's central difference
    sensor = Sensor(PRISM, metal, 50.0, WAVELENGTH)
    n = np.linspace(1.30, PRISM * math.sin(math.radians(73.0)) - _TIR_MARGIN, 101)
    np.testing.assert_allclose(_tir_reflectance(sensor, 73.0, n),
                               abs(reflection(sensor, 73.0, n)) ** 2, rtol=0, atol=1e-12)
    k0 = 2.0 * math.pi / WAVELENGTH
    (row,) = _tir_slope_terms(sensor, [73.0]).tolist()
    np.testing.assert_allclose(_tir_slope_on_grid(row, (n, n * n, n * n * (k0 * k0))),
                               sensitivity(sensor, GEOM_73, n), rtol=1e-6, atol=1e-8)


def test_inflection_index_matches_frozen_value():
    got = inflection_index(make_stack(), GEOM_73, n_range=(1.30, 1.4422))
    assert got == pytest.approx(N_INF_73, abs=1e-6)


def test_inflection_sits_on_the_steep_flank():
    """The steepest point lies beside the dip, not on it, and well inside TIR."""
    got = inflection_index(make_stack(), GEOM_73, n_range=(1.30, 1.4422))
    assert abs(got - N_DIP_73) > 1e-3
    assert got < PRISM * math.sin(math.radians(73.0))
    slope_there = abs(sensitivity(make_stack(got), GEOM_73, got))
    for nudge in (-5e-4, 5e-4):
        n = got + nudge
        assert abs(sensitivity(make_stack(n), GEOM_73, n)) < slope_there


def test_inflection_index_increases_with_angle():
    stack = make_stack()
    values = [
        inflection_index(stack, IncidenceGeometry(theta), n_range=(1.30, 1.4422))
        for theta in (70.0, 73.0, 76.0, 79.0)
    ]
    assert values == sorted(values)


def test_inflection_search_boundary_raises():
    with pytest.raises(NoInteriorExtremumError):
        inflection_index(make_stack(), GEOM_73, n_range=(1.333, 1.35))


def test_inflection_search_needs_a_tir_window():
    with pytest.raises(NoInteriorExtremumError, match="total-internal-reflection"):
        inflection_index(make_stack(), IncidenceGeometry(65.5), n_range=(1.40, 1.4422))


@pytest.mark.parametrize("h", [0.0, -1e-6])
def test_inflection_search_rejects_a_step_that_is_not_positive(h):
    # rejected before the scan, which would divide by 2h (0/0 at h = 0)
    with pytest.raises(ValueError, match="finite-difference step h must be positive"):
        inflection_index(make_stack(), GEOM_73, h=h)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_prism=0.9),
        dict(n_analyte=1.6),
        dict(n_analyte=0.0),
        dict(thickness_nm=0.0),
        dict(wavelength_nm=-810.0),
        dict(n_prism=math.inf),
        dict(n_prism=math.nan),
        dict(n_prism=1.5e154),  # n_prism**2 overflows
        dict(n_prism=1e160),  # so does (2 pi n_prism / wavelength_nm)**2
        dict(wavelength_nm=1e-310),  # (2 pi n_prism / wavelength_nm)**2 alone overflows
    ],
)
def test_stack_validation(kwargs):
    base = dict(n_prism=PRISM, metal=-20.0, thickness_nm=50.0, wavelength_nm=WAVELENGTH)
    base.update(kwargs)
    with pytest.raises(ValueError):
        KretschmannStack(**{"n_analyte": 1.38, **base})
    if "n_analyte" not in kwargs:  # a fault of the hardware alone is the sensor's
        with pytest.raises(ValueError):
            Sensor(**base)


@pytest.mark.parametrize("theta", [0.0, -5.0, 90.0, 180.0])
def test_geometry_validation(theta):
    with pytest.raises(ValueError):
        IncidenceGeometry(theta)


@pytest.mark.parametrize("metal", [lambda wavelength_nm: complex(-20.0, 1.0), "gold"])
def test_a_metal_needs_a_number_or_a_permittivity_method(metal):
    with pytest.raises(TypeError, match="cannot interpret"):
        Sensor(n_prism=PRISM, metal=metal, thickness_nm=50.0, wavelength_nm=WAVELENGTH)


def test_the_scan_holds_one_index_grid_at_a_time():
    # below 83 deg every crossover lies under n = 1.50, so each of the 361
    # angles scans up to its own top; keeping every angle's grid would hold
    # about 35 MB
    stack = make_stack()
    thetas = np.linspace(65.5, 83.0, 361).tolist()
    tops = {PRISM * math.sin(math.radians(theta)) - _TIR_MARGIN for theta in thetas}
    assert len(tops) == 361 and max(tops) < 1.50
    tracemalloc.start()
    try:
        found = _steepest_flank(stack, thetas, (1.30, 1.50), 1e-9, 1e-6, 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(isinstance(n_inf, float) for n_inf in found) > 300
    assert peak < 1_000_000


def _per_angle_flank(stack, thetas, n_range, tol, grid_points):
    """The steep-flank search with one :func:`_tir_slope_on_grid` call, one
    grid and one :func:`_grid_bracket` per angle: the reference for the scan
    in blocks of angles."""
    lo, hi = n_range
    k0 = 2.0 * math.pi / stack.wavelength_nm
    rows = _tir_slope_terms(stack, thetas)
    found = []
    for theta, row in zip(thetas, rows.tolist()):
        n_critical = stack.n_prism * math.sin(math.radians(theta))
        top = min(hi, n_critical - _TIR_MARGIN)
        if top <= lo:
            found.append(NoInteriorExtremumError(
                f"no total-internal-reflection window above n={lo} at "
                f"theta={theta} deg (crossover at {n_critical:.6f})"))
            continue
        n = lo + np.arange(grid_points) * ((top - lo) / (grid_points - 1))
        slope = _tir_slope_on_grid(row, (n, n * n, n * n * (k0 * k0)))
        try:
            found.append(_grid_bracket(lambda _: -abs(slope), lo, top, grid_points,
                                       "steepest flank at n"))
        except NoInteriorExtremumError as exc:
            found.append(exc)
    kept = [i for i, item in enumerate(found) if isinstance(item, tuple)]
    a, b = np.reshape([found[i] for i in kept], (-1, 2)).T
    cols = rows[kept].T
    n_inf = _illinois_root(lambda n: _tir_curvature(cols, n), a, b, tol)
    for i, n in zip(kept, n_inf.tolist()):
        found[i] = n
    return found


@pytest.mark.parametrize("grid_points", [3, 11, 201, 2001])
def test_the_blocked_scan_has_the_bits_of_the_per_angle_loop(grid_points):
    """Seeded sensors on both gold sources and on a film with gain, angle
    counts that are not a multiple of the block, in shuffled order, each list
    holding angles whose top of the scan is ``hi``, lies inside the range and
    lies at or below ``lo``: every ``n_inf`` is the per-angle loop's, with
    ``==``, and every skip has its type and message, at the default cells and
    block and at three angles a pass in cells of 7 points, a size that
    divides none of the grids' ``grid_points - 1``."""
    rng = np.random.default_rng(grid_points)
    outcomes = set()
    for case, count in enumerate([1, 5, 7, 11, 13, 23, 37]):
        n_prism = float(rng.uniform(1.45, 1.8))
        metal = [gold_dispersion(), GOLD_DRUDE_LORENTZ, -11.7 - 1.2j][case % 3]
        sensor = Sensor(n_prism, metal, float(rng.uniform(35.0, 65.0)),
                        float(rng.uniform(600.0, 1000.0)))
        lo = float(rng.uniform(1.0, 1.34))
        hi = min(lo + float(rng.choice([0.01, 0.05, 0.2])), n_prism - 0.01)
        edges = [math.degrees(math.asin((n + _TIR_MARGIN) / n_prism)) for n in (lo, hi)]
        # one angle with top <= lo, one with lo < top < hi, one with top == hi
        thetas = [edges[0] - 1.0, 0.5 * (edges[0] + edges[1]), min(edges[1] + 1.0, 89.9)]
        thetas += rng.uniform(edges[0] - 5.0, min(edges[1] + 10.0, 89.9), count).tolist()
        thetas = rng.permutation(thetas)
        if case % 2:
            thetas = thetas.tolist()
        want = _per_angle_flank(sensor, thetas, (lo, hi), 1e-9, grid_points)
        got = _steepest_flank(sensor, thetas, (lo, hi), 1e-9, 1e-6, grid_points)
        with pytest.MonkeyPatch.context() as patch:  # three angles a pass, 7-point cells
            patch.setattr(fresnel, "_ANGLES", 3)
            patch.setattr(fresnel, "_CELL", 7)
            small = _steepest_flank(sensor, thetas, (lo, hi), 1e-9, 1e-6, grid_points)
        assert len(got) == len(small) == len(want) == count + 3
        for theta, g, s, w in zip(thetas, got, small, want):
            assert (type(s), str(s)) == (type(g), str(g)), (case, theta)
            assert type(g) is type(w), (case, theta, g, w)
            if isinstance(w, NoInteriorExtremumError):
                assert str(g) == str(w), (case, theta)
                outcomes.add("no TIR window" if "total-internal" in str(w) else "boundary")
            else:
                assert g == w, (case, theta)
                outcomes.add("interior")
    assert outcomes == {"interior", "boundary", "no TIR window"}


def test_the_blocked_scan_of_the_default_angles_has_the_bits_of_the_per_angle_loop():
    # 361 angles, some of whose tops are hi and some not, on a range with and
    # one without skips, in blocks of any size (the default is 48 angles, which
    # does not divide 361) and in cells up to past the grid (the default is 32
    # steps, which divides 2000; 7 and 33 do not)
    def outcomes(found):
        return [(type(x), str(x)) if isinstance(x, Exception) else x for x in found]

    stack = make_stack()
    thetas = np.linspace(65.5, 83.5, 361).tolist()
    kinds = set()
    for n_range in [(1.30, 1.4422), (1.38, 1.4422)]:
        want = outcomes(_per_angle_flank(stack, thetas, n_range, 1e-9, 2001))
        kinds.update(type(x) for x in want)
        assert outcomes(_steepest_flank(stack, thetas, n_range, 1e-9, 1e-6, 2001)) == want
        for block, cell in [(1, 33), (4, 7), (360, 7), (361, 4096)]:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fresnel, "_ANGLES", block)
                patch.setattr(fresnel, "_CELL", cell)
                got = _steepest_flank(stack, thetas, n_range, 1e-9, 1e-6, 2001)
            assert outcomes(got) == want
    assert kinds == {float, tuple}
    assert _steepest_flank(stack, [], (1.30, 1.4422), 1e-9, 1e-6, 2001) == []


def test_the_scan_evaluates_a_tenth_of_the_default_grid(monkeypatch):
    """The bound rules out most cells: over the 361 default angles, the search
    evaluates at most 15% of the 361 x 2001 grid points (9.7% measured: the
    coarse points and 1432 cells of 33), and its outcomes are the full scan's."""
    stack = make_stack()
    thetas = np.linspace(65.5, 83.5, 361).tolist()
    want = _per_angle_flank(stack, thetas, (1.30, 1.4422), 1e-9, 2001)
    sizes = []

    def counted(row, grid):
        slope = _tir_slope_on_grid(row, grid)
        sizes.append(slope.size)
        return slope

    monkeypatch.setattr(fresnel, "_tir_slope_on_grid", counted)
    found = _steepest_flank(stack, thetas, (1.30, 1.4422), 1e-9, 1e-6, 2001)
    assert found == want and all(isinstance(n_inf, float) for n_inf in found)
    assert sum(sizes) <= 0.15 * 361 * 2001
