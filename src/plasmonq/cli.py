"""Command-line interface: sweeps, operating-point search and self-validation.

Every command reads an optional flat JSON config file, lets flags override
it, and writes figure-ready CSV or JSON records.  Exit codes: 0 success,
1 a validation tolerance was missed, 2 configuration or input error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fock_oracle, metrology
from .fresnel import (
    IncidenceGeometry,
    KretschmannStack,
    NoInteriorExtremumError,
    _rsp,
    _stack_rsp,
    inflection_index,
    sensitivity,
    tangential_wavevector,
    transfer_matrix_reflection,
)
from .materials import GOLD_DRUDE_LORENTZ, gold_dispersion, load_dispersion
from .metrology import ChannelEfficiencies, family_statistics
from .quantum_states import (
    coherent_product,
    noon,
    squeezed_product,
    statistics,
    tmsv,
    twin_fock,
)

__all__ = ["ConfigError", "RunConfig", "main"]

_DISPERSION_DIR_ENV = "PLASMON_DISPERSION_DIR"

_STATE_CHOICES = ("coherent", "twin-fock", "tmsv", "noon", "squeezed-product")

# Default operating point every subcommand inherits unless overridden.
_PRISM_INDEX = 1.5107
_WAVELENGTH_NM = 810.0
_FILM_THICKNESS_NM = 50.0
_THETA_DEG = 73.0

# Angles below ~66.5 deg put the steep flank under the BSA window floor, so
# the operating-point *search* opens wider than the measurement grid.
_SEARCH_N_MIN = 1.30


class ConfigError(ValueError):
    """Bad config file, flag combination, or missing input."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one command invocation."""

    n_prism: float = _PRISM_INDEX
    wavelength_nm: float = _WAVELENGTH_NM
    thickness_nm: float = _FILM_THICKNESS_NM
    dispersion: str = "gold"
    theta_deg: float = _THETA_DEG
    theta_min: float = 65.5
    theta_max: float = 83.5
    theta_steps: int = 361
    n_min: float = 1.333
    n_max: float = 1.4422
    n_steps: int = 1093
    n_analytes: tuple[float, ...] | None = None
    state: str = "twin-fock"
    photons: float = 1.0
    eta: float = 1.0
    eta_a: float | None = None
    eta_b: float | None = None
    fd_step: float = 1e-6
    grid_points: int = 2001
    seed: int = 0
    inject_fault: bool = False
    out: str = "-"
    format: str = "csv"
    # which keys were set explicitly (config file or flag), for defaults that
    # depend on whether the user spoke up
    explicit: frozenset = frozenset()


_CONFIG_KEYS = {
    "n_prism": float,
    "wavelength": float,
    "thickness": float,
    "dispersion": str,
    "theta": float,
    "theta_min": float,
    "theta_max": float,
    "theta_steps": int,
    "n_min": float,
    "n_max": float,
    "n_steps": int,
    "n_analyte": None,  # scalar or list
    "state": str,
    "photons": float,
    "eta": float,
    "eta_a": float,
    "eta_b": float,
    "fd_step": float,
    "grid_points": int,
    "seed": int,
    "out": str,
    "format": str,
}

_KEY_TO_FIELD = {
    "wavelength": "wavelength_nm",
    "thickness": "thickness_nm",
    "theta": "theta_deg",
    "n_analyte": "n_analytes",
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat JSON config file")
    common.add_argument("--out", metavar="PATH", help="output file, '-' for stdout")
    common.add_argument("--format", choices=("csv", "json"), help="output format")
    common.add_argument("--dispersion", metavar="NAME|PATH",
                        help="'gold' (bundled table), 'gold-dl' (oscillator model) "
                             "or a CSV path; bare names are also looked up under "
                             f"${_DISPERSION_DIR_ENV}")
    common.add_argument("--n-prism", type=float, help="prism refractive index")
    common.add_argument("--wavelength", type=float, metavar="NM", help="vacuum wavelength")
    common.add_argument("--thickness", type=float, metavar="NM", help="metal film thickness")
    common.add_argument("--theta", type=float, metavar="DEG", help="incidence angle")
    common.add_argument("--theta-min", type=float, metavar="DEG")
    common.add_argument("--theta-max", type=float, metavar="DEG")
    common.add_argument("--theta-steps", type=int, metavar="K")
    common.add_argument("--n-min", type=float, metavar="RIU",
                        help="index grid floor (sweeps) or search floor "
                             "(inflection/precision, default 1.30 there)")
    common.add_argument("--n-max", type=float, metavar="RIU")
    common.add_argument("--n-steps", type=int, metavar="K")
    common.add_argument("--n-analyte", type=float, metavar="RIU", action="append",
                        dest="n_analyte", help="repeatable; analyte curve indices")
    common.add_argument("--state", choices=_STATE_CHOICES, help="input beam family")
    common.add_argument("--photons", type=float, metavar="N", help="mean photons per mode")
    common.add_argument("--eta", type=float, help="balanced detection efficiency")
    common.add_argument("--eta-a", type=float, help="sensing-arm detection efficiency")
    common.add_argument("--eta-b", type=float, help="reference-arm detection efficiency")
    common.add_argument("--fd-step", type=float, metavar="H", help="finite-difference step, RIU")
    common.add_argument("--grid-points", type=int, metavar="K", help="operating-point scan density")
    common.add_argument("--seed", type=int, help="RNG seed for randomized validation")

    parser = argparse.ArgumentParser(
        prog="plasmonq",
        description="Quantum-enhanced surface-plasmon-resonance sensing calculations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reflectance", parents=[common],
                   help="reflectance vs incidence angle, one curve per analyte index")
    sub.add_parser("index-sweep", parents=[common],
                   help="reflectance and its index-derivative vs analyte index")
    sub.add_parser("inflection", parents=[common],
                   help="steepest-flank analyte index vs incidence angle")
    sub.add_parser("ratio", parents=[common],
                   help="quantum-enhancement ratio vs analyte index")
    sub.add_parser("precision", parents=[common],
                   help="index precision at the steepest flank vs incidence angle")
    validate = sub.add_parser("validate", parents=[common],
                              help="cross-check closed forms against brute-force oracles")
    validate.add_argument("--inject-fault", action="store_true", default=None,
                          help="negative control: perturb one closed form by 1e-3")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    explicit: set[str] = set()

    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key, raw in doc.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            field = _KEY_TO_FIELD.get(key, key)
            if key == "n_analyte":
                seq = raw if isinstance(raw, list) else [raw]
                values[field] = tuple(float(v) for v in seq)
            else:
                caster = _CONFIG_KEYS[key]
                try:
                    values[field] = caster(raw)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"config key {key!r}: {exc}") from exc
            explicit.add(field)

    for key in _CONFIG_KEYS:
        if key == "n_analyte":
            flag_value = getattr(args, "n_analyte", None)
            if flag_value is not None:
                values["n_analytes"] = tuple(float(v) for v in flag_value)
                explicit.add("n_analytes")
            continue
        field = _KEY_TO_FIELD.get(key, key)
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[field] = flag_value
            explicit.add(field)
    if getattr(args, "inject_fault", None):
        values["inject_fault"] = True
        explicit.add("inject_fault")

    config = RunConfig(**values, explicit=frozenset(explicit))
    _validate_config(config)
    return config


def _validate_config(config: RunConfig):
    if config.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {config.format!r}")
    if config.theta_steps < 1 or config.n_steps < 1:
        raise ConfigError("grids need at least one point")
    if config.theta_min > config.theta_max or config.n_min > config.n_max:
        raise ConfigError("grid bounds are reversed")
    if config.photons <= 0.0:
        raise ConfigError(f"photons must be positive, got {config.photons}")
    for name in ("eta", "eta_a", "eta_b"):
        value = getattr(config, name)
        if value is not None and not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    if config.grid_points < 3:
        raise ConfigError("grid_points must be at least 3")
    if config.fd_step <= 0.0:
        raise ConfigError("fd_step must be positive")
    key = config.state.strip().lower().replace("_", "-")
    if key not in _STATE_CHOICES:
        raise ConfigError(
            f"unknown state {config.state!r}; choose from {', '.join(_STATE_CHOICES)}"
        )


def _resolve_metal(config: RunConfig):
    name = config.dispersion
    if name == "gold":
        return gold_dispersion()
    if name == "gold-dl":
        return GOLD_DRUDE_LORENTZ
    path = Path(name)
    if not path.is_file():
        fallback_dir = os.environ.get(_DISPERSION_DIR_ENV)
        if fallback_dir and not path.is_absolute():
            candidate = Path(fallback_dir) / name
            if candidate.is_file():
                path = candidate
            else:
                raise ConfigError(
                    f"dispersion table not found: {name} "
                    f"(also tried {candidate})"
                )
        else:
            raise ConfigError(f"dispersion table not found: {name}")
    with open(path, encoding="utf-8") as fh:
        return load_dispersion(fh, source_label=str(path))


def _make_stack(config: RunConfig, n_analyte: float, metal=None) -> KretschmannStack:
    return KretschmannStack(
        n_prism=config.n_prism,
        metal=_resolve_metal(config) if metal is None else metal,
        thickness_nm=config.thickness_nm,
        n_analyte=n_analyte,
        wavelength_nm=config.wavelength_nm,
    )


def _efficiencies(config: RunConfig) -> ChannelEfficiencies:
    eta_a = config.eta if config.eta_a is None else config.eta_a
    eta_b = config.eta if config.eta_b is None else config.eta_b
    return ChannelEfficiencies(eta_a, eta_b)


def _balanced_eta(config: RunConfig) -> float:
    eff = _efficiencies(config)
    if eff.eta_a != eff.eta_b:
        raise ConfigError(
            "the enhancement ratio is defined for balanced detection; "
            "use --eta instead of distinct --eta-a/--eta-b"
        )
    return eff.eta_a


def _theta_grid(config: RunConfig) -> list[float]:
    return [float(v) for v in np.linspace(config.theta_min, config.theta_max,
                                          config.theta_steps)]


def _index_grid(config: RunConfig) -> list[float]:
    return [float(v) for v in np.linspace(config.n_min, config.n_max, config.n_steps)]


def _search_range(config: RunConfig) -> tuple[float, float]:
    floor = config.n_min if "n_min" in config.explicit else _SEARCH_N_MIN
    return (floor, config.n_max)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(config: RunConfig, fieldnames: list[str], rows: list[dict]) -> None:
    if config.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        records = [{k: _jsonable(row[k]) for k in fieldnames} for row in rows]
        text = json.dumps(records, indent=2, allow_nan=False) + "\n"
    _write(config, text)


def _write(config: RunConfig, text: str) -> None:
    if config.out == "-":
        sys.stdout.write(text)
    else:
        Path(config.out).write_text(text, encoding="utf-8")


def cmd_reflectance(config: RunConfig) -> int:
    curves = config.n_analytes if config.n_analytes else (1.39, 1.395)
    thetas = _theta_grid(config)
    metal = _resolve_metal(config)
    rows = []
    for n in curves:
        stack = _make_stack(config, n, metal)
        k_x = tangential_wavevector(stack, IncidenceGeometry(thetas))
        refl = abs(_stack_rsp(stack, k_x, n)) ** 2
        rows += [{"n_analyte": n, "theta_deg": theta, "reflectance": value}
                 for theta, value in zip(thetas, refl.tolist())]
    _emit(config, ["n_analyte", "theta_deg", "reflectance"], rows)
    return 0


def cmd_index_sweep(config: RunConfig) -> int:
    geom = IncidenceGeometry(config.theta_deg)
    grid = _index_grid(config)
    stack = _make_stack(config, (config.n_min + config.n_max) / 2.0)
    refl = abs(_stack_rsp(stack, tangential_wavevector(stack, geom), grid)) ** 2
    slopes = sensitivity(stack, geom, grid, h=config.fd_step)
    rows = [{"n_analyte": n, "reflectance": value, "sensitivity": slope}
            for n, value, slope in zip(grid, refl.tolist(), slopes.tolist())]
    _emit(config, ["n_analyte", "reflectance", "sensitivity"], rows)
    return 0


def cmd_inflection(config: RunConfig) -> int:
    stack = _make_stack(config, (config.n_min + config.n_max) / 2.0)
    n_range = _search_range(config)
    rows = []
    for theta in _theta_grid(config):
        try:
            n_inf = inflection_index(stack, IncidenceGeometry(theta), n_range=n_range,
                                     h=config.fd_step, grid_points=config.grid_points)
        except NoInteriorExtremumError as exc:
            warnings.warn(f"theta={theta} deg skipped: {exc}", stacklevel=2)
            continue
        rows.append({"theta_deg": theta, "n_inf": n_inf})
    _emit(config, ["theta_deg", "n_inf"], rows)
    return 0


def cmd_ratio(config: RunConfig) -> int:
    eta = _balanced_eta(config)
    stats = family_statistics(config.state, config.photons)
    stack = _make_stack(config, (config.n_min + config.n_max) / 2.0)
    geom = IncidenceGeometry(config.theta_deg)
    pairs = metrology.sweep_ratio(stack, geom, _index_grid(config), stats, eta)
    rows = [{"n_analyte": n, "R": r} for n, r in pairs]
    _emit(config, ["n_analyte", "R"], rows)
    return 0


def cmd_precision(config: RunConfig) -> int:
    states = [config.state] if "state" in config.explicit else \
        ["coherent", "twin-fock", "tmsv"]
    stack = _make_stack(config, (config.n_min + config.n_max) / 2.0)
    rows = metrology.sweep_precision_vs_angle(
        stack,
        _theta_grid(config),
        states,
        n_photons=config.photons,
        eta=_balanced_eta(config),
        n_range=_search_range(config),
        h=config.fd_step,
        grid_points=config.grid_points,
    )
    _emit(config, ["theta_deg", "n_inf", "state", "N", "eta",
                   "delta_n", "slope", "noise"], rows)
    return 0


def cmd_validate(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    checks: list[tuple[str, float, float]] = []  # (name, max deviation, tolerance)

    # 1. closed-form moments vs brute-force loss channels
    states = [
        ("coherent N=1", coherent_product(1.0)),
        ("twin-fock N=1", twin_fock(1)),
        ("twin-fock N=2", twin_fock(2)),
        ("tmsv N=1", tmsv(1.0)),
        ("noon N=1", noon(1)),
        ("squeezed N=0.5", squeezed_product(0.5)),
    ]
    worst = 0.0
    for _, state in states:
        stats = statistics(state)
        for r2 in (0.05, 0.3, 0.5, 0.7, 0.95):
            for eta_a, eta_b in ((1.0, 1.0), (0.8, 0.8), (0.9, 0.6)):
                eff = ChannelEfficiencies(eta_a, eta_b)
                r_abs = math.sqrt(r2)
                brute = fock_oracle.oracle_measurement(state, r_abs, eff)
                mean = metrology.signal_mean(r_abs, eff, stats.mean_a)
                std = metrology.signal_std(r_abs, eff, stats.mean_a,
                                           stats.q_mandel, stats.sigma)
                worst = max(worst,
                            abs(brute.mean - mean) / max(1.0, abs(mean)),
                            abs(brute.std - std) / max(1.0, std))
    checks.append(("moment formulas vs Fock-space oracle", worst, 1e-8))

    # 2. layered-reflection equivalence: recursive form vs transfer matrices
    worst = 0.0
    stack = _make_stack(config, 1.38)
    k0 = 2.0 * math.pi / stack.wavelength_nm
    cases = [(stack.eps_prism, stack.metal_permittivity, stack.eps_analyte,
              stack.thickness_nm, stack.n_prism)]
    for _ in range(5):
        eps1 = complex(rng.uniform(2.0, 2.9))
        cases.append((
            eps1,
            complex(-rng.uniform(5.0, 30.0), rng.uniform(0.5, 5.0)),
            complex(rng.uniform(1.69, 2.1)),
            rng.uniform(20.0, 80.0),
            math.sqrt(eps1.real),
        ))
    for eps1, eps2, eps3, d, n1 in cases:
        k_x = k0 * n1 * np.sin(np.radians(np.linspace(40.0, 89.0, 200)))
        matrix = [transfer_matrix_reflection([(eps1, 0.0), (eps2, d), (eps3, 0.0)],
                                             kx, stack.wavelength_nm)
                  for kx in k_x.tolist()]
        worst = max(worst, float(np.max(abs(_rsp(eps1, eps2, eps3, d, k0, k_x) - matrix))))
    checks.append(("recursive vs transfer-matrix reflection", worst, 1e-10))

    # 3. enhancement ratio consistent with the moment formulas
    fault = 1.0 + 1e-3 if config.inject_fault else 1.0
    worst = 0.0
    for _ in range(200):
        r_abs = rng.uniform(0.05, 0.95)
        eta = rng.uniform(0.1, 1.0)
        q = rng.uniform(-1.0, 3.0)
        sig = rng.uniform(0.0, 3.0)
        n = rng.uniform(0.5, 10.0)
        eff = ChannelEfficiencies(eta, eta)
        try:
            value = metrology.ratio(r_abs, eta, q, sig) / math.sqrt(fault)
        except metrology.MetrologyDomainError:
            continue
        lhs = value * metrology.signal_std(r_abs, eff, n, q, sig)
        rhs = metrology.signal_std(r_abs, eff, n, 0.0, 1.0)
        worst = max(worst, abs(lhs - rhs) / rhs)
    checks.append(("enhancement ratio vs moment formulas", worst, 1e-12))

    # 4. vanishing film thickness reduces to the bare prism/analyte interface
    thin = dataclasses.replace(stack, thickness_nm=1e-12)
    k_x = tangential_wavevector(stack, IncidenceGeometry(np.linspace(40.0, 89.0, 100)))
    two_layer = [transfer_matrix_reflection([(stack.eps_prism, 0.0), (stack.eps_analyte, 0.0)],
                                            kx, stack.wavelength_nm)
                 for kx in k_x.tolist()]
    worst = float(np.max(abs(_stack_rsp(thin, k_x, thin.n_analyte) - two_layer)))
    checks.append(("thin-film limit vs bare interface", worst, 1e-9))

    # 5. passivity: reflectance never exceeds unity (one kernel call over the
    # 37 x 109 grid; a NaN reflectance propagates into the deviation and fails)
    k_x = tangential_wavevector(stack, IncidenceGeometry(
        np.linspace(config.theta_min, config.theta_max, 37)))
    refl = abs(_stack_rsp(stack, k_x[:, np.newaxis],
                          np.linspace(config.n_min, config.n_max, 109))) ** 2
    checks.append(("passivity (reflectance <= 1)", max(float(np.max(refl)) - 1.0, 0.0), 0.0))

    records = [{"check": name, "max_deviation": dev, "tolerance": tol, "ok": dev <= tol}
               for name, dev, tol in checks]
    all_ok = all(record["ok"] for record in records)
    if config.format == "json":
        _emit(config, ["check", "max_deviation", "tolerance", "ok"], records)
    else:
        lines = [f"{'ok  ' if r['ok'] else 'FAIL'} {r['check']}: max deviation "
                 f"{r['max_deviation']:.3e} (tolerance {r['tolerance']:.1e})\n"
                 for r in records]
        lines.append("all checks passed\n" if all_ok else "some checks FAILED\n")
        _write(config, "".join(lines))
    return 0 if all_ok else 1


_COMMANDS = {
    "reflectance": cmd_reflectance,
    "index-sweep": cmd_index_sweep,
    "inflection": cmd_inflection,
    "ratio": cmd_ratio,
    "precision": cmd_precision,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command](config)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"plasmonq: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
