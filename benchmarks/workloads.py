"""The three benchmark workloads: seeded inputs, one pass, and output checks.

Each workload draws its inputs from the seed once, then ``run_pass()``
pushes them through the package's public entry points (``cli.main`` in
process, plus public functions of ``quantum_states``, ``metrology`` and
``fock_oracle``).  Every call goes through a module attribute at call time,
so the span wrappers of ``tracing.installed`` see it.  ``probe()`` runs
the operations done once per run, after the timed passes.  ``check()``
runs outside the timed region on a sample of one pass's (or the probe's)
outputs and returns one message per mismatch.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from plasmonq import cli, fock_oracle, fresnel, materials, metrology, quantum_states

# Sensor constants passed explicitly on every command line, so the checks
# rebuild the same stack without relying on CLI defaults.
N_PRISM = 1.5107
WAVELENGTH_NM = 810.0
FD_STEP = 1e-6

# The moment tolerance ``plasmonq validate`` applies to the Fock-space oracle.
MOMENT_TOL = 1e-8
# Airy form vs transfer matrix, as ``validate`` compares them.
REFLECTION_TOL = 1e-10


@dataclass
class PassResult:
    """What one pass produced: outputs for the checks, and its failures."""

    units: int
    outputs: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)  # (unit count, message)
    seconds: dict = field(default_factory=dict)  # wall time per CLI subcommand

    @property
    def failed_units(self) -> int:
        return sum(count for count, _ in self.errors)

    def signature(self):
        """Comparable digest of the outputs: every pass must reproduce the first."""
        return repr(sorted(self.outputs.items()))


def call_cli(argv, result: PassResult):
    """Run ``plasmonq`` in process; return exit code, stdout text and warnings."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(buf):
        warnings.simplefilter("always")
        code = cli.main(argv)
    result.seconds[argv[0]] = time.perf_counter() - t0
    return code, buf.getvalue(), [str(w.message) for w in caught]


def _fmt(value: float) -> str:
    return repr(float(value))  # round-trips, so the checks see the exact inputs


def _sensor_args(thickness_nm: float) -> list[str]:
    return ["--n-prism", _fmt(N_PRISM), "--wavelength", _fmt(WAVELENGTH_NM),
            "--thickness", _fmt(thickness_nm), "--fd-step", _fmt(FD_STEP)]


class _TransferMatrixOracle:
    """Reflectance of the prism/gold/analyte stack by 2x2 transfer matrices."""

    def __init__(self, thickness_nm: float):
        self.thickness_nm = thickness_nm
        self.eps_metal = materials.gold_dispersion().permittivity(WAVELENGTH_NM)
        self.k0 = 2.0 * math.pi / WAVELENGTH_NM

    def r_abs(self, theta_deg: float, n: float) -> float:
        k_x = self.k0 * N_PRISM * math.sin(math.radians(theta_deg))
        layers = [(complex(N_PRISM**2), 0.0), (self.eps_metal, self.thickness_nm),
                  (complex(n * n), 0.0)]
        return abs(fresnel.transfer_matrix_reflection(layers, k_x, WAVELENGTH_NM))

    def reflectance(self, theta_deg: float, n: float) -> float:
        return self.r_abs(theta_deg, n) ** 2

    def slope(self, theta_deg: float, n: float, h: float = FD_STEP) -> float:
        return (self.reflectance(theta_deg, n + h)
                - self.reflectance(theta_deg, n - h)) / (2.0 * h)


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def _parse_csv(text: str) -> list[dict]:
    return [{k: (v if k == "state" else float(v)) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def _sample(rng, rows, k):
    if len(rows) <= k:
        return list(rows)
    return [rows[i] for i in sorted(rng.choice(len(rows), size=k, replace=False))]


class FlankSweep:
    """``precision`` over the default angle grid: the steep-flank search per angle."""

    name = "flank_sweep"
    reference = "complex"
    unit = "angle"
    STATES = ("coherent", "twin-fock", "tmsv")

    def __init__(self, seed: int, quick: bool = False):
        rng = np.random.default_rng(seed)
        self.photons = int(rng.integers(1, 3))
        self.eta = float(rng.uniform(0.85, 0.95))
        self.thickness_nm = float(rng.uniform(48.0, 52.0))
        self.theta_steps = 19 if quick else 361
        self.grid_points = 201 if quick else 2001
        self.argv = ["precision", *_sensor_args(self.thickness_nm),
                     "--photons", str(self.photons), "--eta", _fmt(self.eta),
                     "--theta-steps", str(self.theta_steps),
                     "--grid-points", str(self.grid_points)]
        self.seed = seed
        self.input_size = {"angles": self.theta_steps, "grid_points": self.grid_points,
                           "states": len(self.STATES), "photons": self.photons,
                           "eta": self.eta, "thickness_nm": self.thickness_nm}

    def run_pass(self) -> PassResult:
        result = PassResult(units=self.theta_steps)
        code, text, warned = call_cli(self.argv, result)
        if code != 0:
            result.errors.append((self.theta_steps, f"precision exited {code}"))
        result.outputs = {"csv": text, "skips": sum("skipped" in w for w in warned)}
        return result

    def probe(self) -> PassResult:
        """No once-per-run operations."""
        return PassResult(units=0)

    def check(self, result: PassResult) -> list[str]:
        rows = _parse_csv(result.outputs["csv"])
        skips = result.outputs["skips"]
        thetas = sorted({row["theta_deg"] for row in rows})
        bad = []
        if len(thetas) + skips != self.theta_steps:
            bad.append(f"{len(thetas)} angles with rows + {skips} skipped "
                       f"!= {self.theta_steps}")
        if len(rows) != len(self.STATES) * len(thetas):
            bad.append(f"{len(rows)} rows for {len(thetas)} angles")
        for row in rows:
            if row["delta_n"] != row["noise"] / abs(row["slope"]):
                bad.append(f"delta_n != noise/|slope| at theta={row['theta_deg']}")
        oracle = _TransferMatrixOracle(self.thickness_nm)
        eff = metrology.ChannelEfficiencies(self.eta, self.eta)
        rng = np.random.default_rng(self.seed)
        by_theta = {}
        for row in rows:
            by_theta.setdefault(row["theta_deg"], []).append(row)
        for theta in _sample(rng, thetas, 12):
            n_inf = by_theta[theta][0]["n_inf"]
            # |dR/dn| under the transfer matrix peaks at n_inf: the golden
            # section leaves n_inf within 1e-9, far inside this offset.
            offset = 2e-5
            peak = abs(oracle.slope(theta, n_inf))
            sides = [abs(oracle.slope(theta, n_inf + s * offset)) for s in (-1, 1)]
            if peak < max(sides):
                bad.append(f"n_inf={n_inf} is not a local maximum of |dR/dn| "
                           f"at theta={theta} ({peak} < {max(sides)})")
            r_abs = oracle.r_abs(theta, n_inf)
            slope = (metrology.signal_mean(oracle.r_abs(theta, n_inf + FD_STEP), eff,
                                           self.photons)
                     - metrology.signal_mean(oracle.r_abs(theta, n_inf - FD_STEP), eff,
                                             self.photons)) / (2.0 * FD_STEP)
            for row in by_theta[theta]:
                stats = metrology.family_statistics(row["state"], self.photons)
                noise = metrology.signal_std(r_abs, eff, self.photons,
                                             stats.q_mandel, stats.sigma)
                if _rel_err(row["slope"], slope) > 1e-6:
                    bad.append(f"slope {row['slope']} vs transfer matrix {slope} "
                               f"at theta={theta}")
                if _rel_err(row["noise"], noise) > 1e-9:
                    bad.append(f"noise {row['noise']} vs transfer matrix {noise} "
                               f"at theta={theta}, {row['state']}")
        return bad


class PointSweeps:
    """``reflectance``, ``index-sweep`` and ``ratio``: many scalar Fresnel calls."""

    name = "point_sweeps"
    reference = "records"
    unit = "row"

    def __init__(self, seed: int, quick: bool = False):
        rng = np.random.default_rng(seed)
        steps = 101 if quick else 2501
        self.thickness_nm = float(rng.uniform(48.0, 52.0))
        n_a = float(rng.uniform(1.385, 1.395))
        self.curves = (n_a, n_a + float(rng.uniform(0.003, 0.007)))
        theta_range = (float(rng.uniform(66.0, 68.0)), float(rng.uniform(80.0, 82.0)))
        self.sweep_theta = float(rng.uniform(71.0, 75.0))
        n_range = (float(rng.uniform(1.333, 1.34)), float(rng.uniform(1.43, 1.44)))
        self.state = str(rng.choice(["twin-fock", "tmsv", "squeezed-product"]))
        self.photons = int(rng.integers(1, 3))
        self.eta = float(rng.uniform(0.85, 0.99))
        sensor = _sensor_args(self.thickness_nm)
        n_grid = ["--n-min", _fmt(n_range[0]), "--n-max", _fmt(n_range[1]),
                  "--n-steps", str(steps), "--theta", _fmt(self.sweep_theta)]
        self.commands = {
            "reflectance": ["reflectance", *sensor,
                            *[a for n in self.curves for a in ("--n-analyte", _fmt(n))],
                            "--theta-min", _fmt(theta_range[0]),
                            "--theta-max", _fmt(theta_range[1]),
                            "--theta-steps", str(steps)],
            "index-sweep": ["index-sweep", *sensor, *n_grid],
            "ratio": ["ratio", *sensor, *n_grid, "--state", self.state,
                      "--photons", str(self.photons), "--eta", _fmt(self.eta)],
        }
        self.expected_rows = {"reflectance": len(self.curves) * steps,
                              "index-sweep": steps, "ratio": steps}
        self.seed = seed
        self.input_size = {"rows": sum(self.expected_rows.values()),
                           **{f"{k}_rows": v for k, v in self.expected_rows.items()},
                           "state": self.state, "photons": self.photons}

    def run_pass(self) -> PassResult:
        result = PassResult(units=sum(self.expected_rows.values()))
        for command, argv in self.commands.items():
            code, text, _ = call_cli(argv, result)
            if code != 0:
                result.errors.append((self.expected_rows[command],
                                      f"{command} exited {code}"))
            result.outputs[command] = text
        return result

    def probe(self) -> PassResult:
        """No once-per-run operations."""
        return PassResult(units=0)

    def check(self, result: PassResult) -> list[str]:
        rng = np.random.default_rng(self.seed)
        oracle = _TransferMatrixOracle(self.thickness_nm)
        bad = []
        rows = {k: _parse_csv(v) for k, v in result.outputs.items()}
        for command, expected in self.expected_rows.items():
            if len(rows[command]) != expected:
                bad.append(f"{command}: {len(rows[command])} rows, expected {expected}")
        for row in rows["reflectance"]:
            if not 0.0 <= row["reflectance"] <= 1.0:
                bad.append(f"passivity: reflectance {row['reflectance']} at {row}")
        for row in _sample(rng, rows["reflectance"], 64):
            ref = oracle.reflectance(row["theta_deg"], row["n_analyte"])
            if abs(row["reflectance"] - ref) > REFLECTION_TOL:
                bad.append(f"reflectance {row['reflectance']} vs transfer matrix {ref}")
        theta = self.sweep_theta
        for row in _sample(rng, rows["index-sweep"], 64):
            ref = oracle.reflectance(theta, row["n_analyte"])
            slope = oracle.slope(theta, row["n_analyte"])
            if abs(row["reflectance"] - ref) > REFLECTION_TOL:
                bad.append(f"index-sweep reflectance {row['reflectance']} vs {ref}")
            if _rel_err(row["sensitivity"], slope) > 1e-6:
                bad.append(f"sensitivity {row['sensitivity']} vs transfer matrix {slope}")
        stats = metrology.family_statistics(self.state, self.photons)
        eff = metrology.ChannelEfficiencies(self.eta, self.eta)
        for row in _sample(rng, rows["ratio"], 64):
            r_abs = oracle.r_abs(theta, row["n_analyte"])
            expected = (metrology.signal_std(r_abs, eff, self.photons, 0.0, 1.0)
                        / metrology.signal_std(r_abs, eff, self.photons,
                                               stats.q_mandel, stats.sigma))
            if not math.isfinite(row["R"]) or _rel_err(row["R"], expected) > 1e-9:
                bad.append(f"ratio {row['R']} vs moment formulas {expected} "
                           f"at n={row['n_analyte']}")
        return bad


# Per-mode brightness bands of the ladder, low to high, chosen inside the
# plateaus of the doubling auto-cutoffs so seeds change sizes only slightly.
_LADDER_BANDS = {
    "coherent": [(0.8, 1.2), (4.0, 6.0), (18.0, 22.0)],
    "twin-fock": [(1, 2), (8, 10), (30, 34)],
    "noon": [(1, 2), (8, 10), (30, 34)],
    "squeezed": [(0.45, 0.65), (1.8, 2.2), (3.5, 4.5)],
    "tmsv": [(0.8, 1.2), (4.0, 6.0), (9.8, 10.2), (19.8, 20.2)],
}
# Top rung: TMSV at N ~ 48 auto-cuts at size ~1117, past the size (~1031)
# where the oracle's big-integer binomial kernel overflows a float.  Its
# failure is the known oracle defect and stays visible in fail_frac.  It
# runs once per run, after the timed passes: its ~7 s would leave too few
# passes in a run for a steady median on a shared machine.
_TOP_RUNG = ("tmsv", (47.5, 48.5))
_VALIDATE_MOMENT_CHECKS = 6 * 5 * 3  # states x reflectances x efficiency pairs


def _construct(family: str, n: float):
    if family == "coherent":
        return quantum_states.coherent_product(math.sqrt(n))
    if family == "twin-fock":
        return quantum_states.twin_fock(int(n))
    if family == "noon":
        return quantum_states.noon(int(n))
    if family == "squeezed":
        return quantum_states.squeezed_product(n)
    return quantum_states.tmsv(n)


class CrossCheck:
    """``validate`` plus a brightness ladder of oracle moment checks."""

    name = "cross_check"
    reference = "bigint"
    unit = "moment_check"

    def __init__(self, seed: int, quick: bool = False):
        rng = np.random.default_rng(seed)
        self.argv = ["validate", "--seed", str(seed)]
        bands = [(family, band) for family, family_bands in _LADDER_BANDS.items()
                 for band in (family_bands[:1] if quick else family_bands)]
        if not quick:
            bands.append(_TOP_RUNG)
        rungs = []
        for family, (lo, hi) in bands:
            if isinstance(lo, int):
                n = float(rng.integers(lo, hi + 1))
            else:
                n = float(rng.uniform(lo, hi))
            rungs.append((family, n, float(rng.uniform(0.1, 0.95)),
                          float(rng.uniform(0.6, 1.0)), float(rng.uniform(0.6, 1.0))))
        self.rungs, self.top_rungs = (rungs, []) if quick else (rungs[:-1], rungs[-1:])
        self.input_size = {"validate_moment_checks": _VALIDATE_MOMENT_CHECKS,
                           "ladder_rungs_per_pass": len(self.rungs),
                           "top_rungs_per_run": len(self.top_rungs),
                           "ladder_max_photons": max(r[1] for r in rungs)}

    def run_pass(self) -> PassResult:
        result = PassResult(units=_VALIDATE_MOMENT_CHECKS + len(self.rungs))
        code, text, _ = call_cli(self.argv, result)
        if code != 0:
            result.errors.append((_VALIDATE_MOMENT_CHECKS, f"validate exited {code}"))
        result.outputs["validate"] = (code, text)
        self._run_rungs(self.rungs, result)
        return result

    def probe(self) -> PassResult:
        """The top rung, once per run and untimed."""
        result = PassResult(units=len(self.top_rungs))
        self._run_rungs(self.top_rungs, result)
        return result

    @staticmethod
    def _run_rungs(rungs, result: PassResult) -> None:
        for family, n, r_abs, eta_a, eta_b in rungs:
            eff = metrology.ChannelEfficiencies(eta_a, eta_b)
            try:
                state = _construct(family, n)
                stats = quantum_states.statistics(state)
                closed = (metrology.signal_mean(r_abs, eff, stats.mean_a),
                          metrology.signal_std(r_abs, eff, stats.mean_a,
                                               stats.q_mandel, stats.sigma))
                brute = fock_oracle.oracle_measurement(state, r_abs, eff)
            except Exception as exc:  # a failed rung is counted, not fatal
                result.errors.append(
                    (1, f"{family} N={n:.4g}: {type(exc).__name__}: {exc}"))
                continue
            result.outputs[f"{family} N={n!r}"] = (state.cutoff + 1, closed,
                                                   (brute.mean, brute.std))

    def check(self, result: PassResult) -> list[str]:
        bad = []
        code, text = result.outputs.get("validate", (None, ""))
        if code == 0 and "all checks passed" not in text:
            bad.append(f"validate exited 0 but reported: {text.strip()}")
        for key, value in result.outputs.items():
            if key == "validate":
                continue
            _, (mean, std), (brute_mean, brute_std) = value
            err = max(_rel_err(brute_mean, mean), _rel_err(brute_std, std))
            if not err <= MOMENT_TOL:
                bad.append(f"{key}: oracle vs closed-form moments differ by {err:.3e}")
        return bad


WORKLOADS = {w.name: w for w in (FlankSweep, PointSweeps, CrossCheck)}
