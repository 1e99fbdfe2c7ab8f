"""Command-line interface: sweeps, operating-point search and self-validation.

Every command reads an optional flat JSON config file, lets flags override
it, and writes figure-ready CSV or JSON records.  Exit codes: 0 success,
1 a validation tolerance was missed, 2 configuration, input or numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import fock_oracle, metrology
from .fresnel import (
    FresnelSingularityError,
    IncidenceGeometry,
    Sensor,
    _rsp,
    reflection,
    sensitivity,
    transfer_matrix_reflection,
)
from .materials import GOLD_DRUDE_LORENTZ, gold_dispersion, load_dispersion
from .metrology import STATE_NAMES, ChannelEfficiencies, family_statistics, state_family
from .quantum_states import (
    coherent_product,
    noon,
    squeezed_product,
    statistics,
    tmsv,
    twin_fock,
)

__all__ = ["ConfigError", "main"]

_DISPERSION_DIR_ENV = "PLASMON_DISPERSION_DIR"

# Two floors for the analyte index: the measurement grids start at the BSA
# window floor, but angles below ~66.5 deg put the steep flank under it, so
# the operating-point *search* opens wider.  An explicit --n-min sets both.
_GRID_N_MIN = 1.333
_SEARCH_N_MIN = 1.30


class ConfigError(ValueError):
    """Bad config file, flag combination, or missing input."""


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser, dict]:
    """The command parser, the common parser whose dests are the config keys,
    and their defaults; a parse returns only the options given (``SUPPRESS``)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat JSON config file")
    common.add_argument("--out", metavar="PATH", default="-",
                        help="output file, '-' for stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format")
    common.add_argument("--dispersion", metavar="NAME|PATH", default="gold",
                        help="'gold' (bundled table), 'gold-dl' (oscillator model) "
                             "or a CSV path; bare names are also looked up under "
                             f"${_DISPERSION_DIR_ENV}")
    common.add_argument("--n-prism", type=float, default=1.5107, help="prism refractive index")
    common.add_argument("--wavelength", type=float, default=810.0, metavar="NM",
                        help="vacuum wavelength")
    common.add_argument("--thickness", type=float, default=50.0, metavar="NM",
                        help="metal film thickness")
    common.add_argument("--theta", type=float, default=73.0, metavar="DEG",
                        help="incidence angle")
    common.add_argument("--theta-min", type=float, default=65.5, metavar="DEG")
    common.add_argument("--theta-max", type=float, default=83.5, metavar="DEG")
    common.add_argument("--theta-steps", type=int, default=361, metavar="K")
    common.add_argument("--n-min", type=float, metavar="RIU",
                        help="index grid floor (sweeps) or search floor "
                             "(inflection/precision, default 1.30 there)")
    common.add_argument("--n-max", type=float, default=1.4422, metavar="RIU")
    common.add_argument("--n-steps", type=int, default=1093, metavar="K")
    common.add_argument("--n-analyte", type=float, metavar="RIU", action="append",
                        help="repeatable; analyte curve indices")
    common.add_argument("--state", choices=STATE_NAMES, help="input beam family")
    common.add_argument("--photons", type=float, default=1.0, metavar="N",
                        help="mean photons per mode")
    common.add_argument("--eta", type=float, default=1.0, help="balanced detection efficiency")
    common.add_argument("--fd-step", type=float, default=1e-6, metavar="H",
                        help="finite-difference step, RIU")
    common.add_argument("--grid-points", type=int, default=2001, metavar="K",
                        help="operating-point scan density")
    common.add_argument("--seed", type=int, default=0, help="RNG seed for randomized validation")

    defaults = {action.dest: action.default for action in common._actions}
    for action in common._actions:
        action.default = argparse.SUPPRESS

    parser = argparse.ArgumentParser(
        prog="plasmonq",
        description="Quantum-enhanced surface-plasmon-resonance sensing calculations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=handler.help)
    sub.choices["validate"].add_argument(
        "--inject-fault", action="store_true",
        help="negative control: perturb one closed form by 1e-3")
    return parser, common, defaults


def _read_config(path: str) -> dict:
    """File values keyed by dest, each converted like its option's argument.

    A key is any common option's dest except ``config``; ``n_analyte`` may
    be a scalar or a list.  A value other than a string is converted from its
    JSON text, so ``"theta_steps": 3.9`` fails as ``--theta-steps 3.9`` does.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    actions = {action.dest: action for action in _COMMON._actions if action.dest != "config"}
    values = {}
    for key, raw in doc.items():
        if key not in actions:
            raise ConfigError(f"unknown config key {key!r}")
        cast = actions[key].type or str
        items = raw if key == "n_analyte" and isinstance(raw, list) else [raw]
        try:
            converted = [cast(v if isinstance(v, str) else json.dumps(v)) for v in items]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        values[key] = converted if key == "n_analyte" else converted[0]
    return values


def _parse(argv) -> argparse.Namespace:
    """Parse flags over the config file's values over the parser's defaults."""
    given = vars(_PARSER.parse_args(argv))
    values = _read_config(given["config"]) if given.get("config") else {}
    args = argparse.Namespace(**{**_DEFAULTS, **values, **given})
    _validate(args)
    return args


def _validate(args: argparse.Namespace):
    if args.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {args.format!r}")
    if args.theta_steps < 1 or args.n_steps < 1:
        raise ConfigError("grids need at least one point")
    n_min, n_max = _index_range(args)
    if args.theta_min > args.theta_max or n_min > n_max:
        raise ConfigError("grid bounds are reversed")
    if args.photons <= 0.0:
        raise ConfigError(f"photons must be positive, got {args.photons}")
    if not 0.0 <= args.eta <= 1.0:
        raise ConfigError(f"eta must lie in [0, 1], got {args.eta}")
    if args.grid_points < 3:
        raise ConfigError("grid_points must be at least 3")
    if not 0.0 < args.fd_step < math.inf:
        raise ConfigError(f"fd_step must be positive and finite, got {args.fd_step}")
    if args.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {args.seed}")
    if args.state is not None:
        state_family(args.state)


def _resolve_metal(args: argparse.Namespace):
    name = args.dispersion
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


def _sensor(args: argparse.Namespace) -> Sensor:
    return Sensor(n_prism=args.n_prism, metal=_resolve_metal(args),
                  thickness_nm=args.thickness, wavelength_nm=args.wavelength)


def _theta_grid(args: argparse.Namespace) -> list[float]:
    return np.linspace(args.theta_min, args.theta_max, args.theta_steps).tolist()


def _index_range(args: argparse.Namespace) -> tuple[float, float]:
    """``(n_min, n_max)``; an unset --n-min is the floor of the running command."""
    floor = _SEARCH_N_MIN if args.command in ("inflection", "precision") else _GRID_N_MIN
    return (floor if args.n_min is None else args.n_min, args.n_max)


def _index_grid(args: argparse.Namespace) -> list[float]:
    return np.linspace(*_index_range(args), args.n_steps).tolist()


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _cell_text(column: list):
    """``map(str, column)``, calling ``str`` once per distinct object of ``column``.
    Objects are told apart by ``id``, not by value: 0.0 and -0.0, or 2 and 2.0, are
    equal but print differently."""
    ids = list(map(id, column))
    distinct = dict(zip(ids, column))
    if len(distinct) == len(ids):
        return map(str, column)
    return map(dict(zip(distinct, map(str, distinct.values()))).__getitem__, ids)


def _emit(args: argparse.Namespace, columns: dict[str, list]) -> None:
    """Write ``columns`` (name to values) as CSV or JSON; no CSV cell is quoted."""
    if args.format == "csv":
        cells = zip(*map(_cell_text, columns.values()), strict=True)
        text = "\n".join([",".join(columns), *map(",".join, cells), ""])
    else:
        values = [[_jsonable(v) for v in column] for column in columns.values()]
        records = [dict(zip(columns, row)) for row in zip(*values, strict=True)]
        text = json.dumps(records, indent=2, allow_nan=False) + "\n"
    _write(args, text)


def _note_if_empty(args: argparse.Namespace, thetas: list[float], rows) -> None:
    if not rows:
        held = "only the header" if args.format == "csv" else "an empty list"
        warnings.warn(f"no angle produced a row ({len(thetas)} tried); "
                      f"the output holds {held}", stacklevel=3)


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


def cmd_reflectance(args: argparse.Namespace) -> int:
    curves = args.n_analyte if args.n_analyte else (1.39, 1.395)
    thetas = _theta_grid(args)
    sensor = _sensor(args)
    columns = {"n_analyte": [], "theta_deg": thetas * len(curves), "reflectance": []}
    for n in curves:
        columns["n_analyte"] += [n] * len(thetas)
        columns["reflectance"] += (abs(reflection(sensor, thetas, n)) ** 2).tolist()
    _emit(args, columns)
    return 0


def cmd_index_sweep(args: argparse.Namespace) -> int:
    geom = IncidenceGeometry(args.theta)
    grid = _index_grid(args)
    sensor = _sensor(args)
    refl = abs(reflection(sensor, args.theta, grid)) ** 2
    slopes = sensitivity(sensor, geom, grid, h=args.fd_step)
    _emit(args, {"n_analyte": grid, "reflectance": refl.tolist(),
                 "sensitivity": slopes.tolist()})
    return 0


def cmd_inflection(args: argparse.Namespace) -> int:
    thetas = _theta_grid(args)
    points = metrology._operating_points(_sensor(args), thetas, _index_range(args),
                                         tol=1e-9, h=args.fd_step,
                                         grid_points=args.grid_points)
    _note_if_empty(args, thetas, points)
    _emit(args, {"theta_deg": [theta for theta, _ in points],
                 "n_inf": [n_inf for _, n_inf in points]})
    return 0


def cmd_ratio(args: argparse.Namespace) -> int:
    stats = family_statistics("twin-fock" if args.state is None else args.state, args.photons)
    geom = IncidenceGeometry(args.theta)
    pairs = metrology.sweep_ratio(_sensor(args), geom, _index_grid(args), stats, args.eta)
    _emit(args, {"n_analyte": [n for n, _ in pairs], "R": [r for _, r in pairs]})
    return 0


def cmd_precision(args: argparse.Namespace) -> int:
    states = (["coherent", "twin-fock", "tmsv"] if args.state is None
              else [state_family(args.state)])
    thetas = _theta_grid(args)
    columns = metrology._precision_columns(
        _sensor(args), thetas, states, n_photons=args.photons, eta=args.eta,
        n_range=_index_range(args), h=args.fd_step, tol=1e-9, grid_points=args.grid_points)
    _note_if_empty(args, thetas, columns["theta_deg"])
    _emit(args, columns)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
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
    r_abs = np.sqrt([0.05, 0.3, 0.5, 0.7, 0.95])  # one oracle call takes all five
    worst = 0.0
    for _, state in states:
        stats = statistics(state)
        for eta_a, eta_b in ((1.0, 1.0), (0.8, 0.8), (0.9, 0.6)):
            eff = ChannelEfficiencies(eta_a, eta_b)
            brute = fock_oracle.oracle_measurement(state, r_abs, eff)
            mean = metrology.signal_mean(r_abs, eff, stats.mean_a)
            std = metrology.signal_std(r_abs, eff, stats.mean_a, stats.q_mandel, stats.sigma)
            worst = max(worst,
                        float(np.max(abs(brute.mean - mean) / np.maximum(1.0, abs(mean)))),
                        float(np.max(abs(brute.std - std) / np.maximum(1.0, std))))
    checks.append(("moment formulas vs Fock-space oracle", worst, 1e-8))

    # 2. layered-reflection equivalence: recursive form vs transfer matrices
    worst = 0.0
    sensor = _sensor(args)
    k0 = 2.0 * math.pi / sensor.wavelength_nm
    n_analyte = 1.38  # the analyte of checks 2 and 4
    eps_analyte = complex(n_analyte * n_analyte)
    cases = [(sensor.eps_prism, sensor.metal_permittivity, eps_analyte,
              sensor.thickness_nm, sensor.n_prism)]
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
        matrix = transfer_matrix_reflection([(eps1, 0.0), (eps2, d), (eps3, 0.0)],
                                            k_x, sensor.wavelength_nm)
        worst = max(worst, float(np.max(abs(_rsp(eps1, eps2, eps3, d, k0, k_x) - matrix))))
    checks.append(("recursive vs transfer-matrix reflection", worst, 1e-10))

    # 3. enhancement ratio consistent with the moment formulas, over 200 samples
    # of (|r|, eta, Q, sigma, N) drawn row by row; a sample outside the ratio's
    # domain (denominator <= 0) is skipped
    fault = 1.0 + 1e-3 if args.inject_fault else 1.0
    samples = rng.uniform((0.05, 0.1, -1.0, 0.0, 0.5), (0.95, 1.0, 3.0, 3.0, 10.0), (200, 5))
    r2, den = metrology._ratio_terms(*samples.T[:4])
    kept = den > 0.0
    r_abs, eta, q, sig, n = samples[kept].T
    eff = ChannelEfficiencies(eta, eta)
    value = np.sqrt((1.0 + r2[kept]) / den[kept]) / math.sqrt(fault)
    lhs = value * metrology.signal_std(r_abs, eff, n, q, sig)
    rhs = metrology.signal_std(r_abs, eff, n, 0.0, 1.0)
    worst = max([0.0, *(abs(lhs - rhs) / rhs).tolist()])
    checks.append(("enhancement ratio vs moment formulas", worst, 1e-12))

    # 4. vanishing film thickness reduces to the bare prism/analyte interface
    thin = dataclasses.replace(sensor, thickness_nm=1e-12)
    thetas = np.linspace(40.0, 89.0, 100)
    k_x = k0 * sensor.n_prism * np.sin(np.radians(thetas))
    two_layer = transfer_matrix_reflection([(sensor.eps_prism, 0.0), (eps_analyte, 0.0)],
                                           k_x, sensor.wavelength_nm)
    worst = float(np.max(abs(reflection(thin, thetas, n_analyte) - two_layer)))
    checks.append(("thin-film limit vs bare interface", worst, 1e-9))

    # 5. passivity: reflectance never exceeds unity (one kernel call over the
    # 37 x 109 grid; a NaN reflectance propagates into the deviation and fails)
    thetas = np.linspace(args.theta_min, args.theta_max, 37)
    refl = abs(reflection(sensor, thetas[:, np.newaxis],
                          np.linspace(*_index_range(args), 109))) ** 2
    checks.append(("passivity (reflectance <= 1)", max(float(np.max(refl)) - 1.0, 0.0), 0.0))

    names, deviations, tolerances = zip(*checks)
    ok = [dev <= tol for dev, tol in zip(deviations, tolerances)]
    if args.format == "json":
        _emit(args, {"check": names, "max_deviation": deviations,
                     "tolerance": tolerances, "ok": ok})
    else:
        lines = [f"{'ok  ' if passed else 'FAIL'} {name}: max deviation "
                 f"{dev:.3e} (tolerance {tol:.1e})\n"
                 for name, dev, tol, passed in zip(names, deviations, tolerances, ok)]
        lines.append("all checks passed\n" if all(ok) else "some checks FAILED\n")
        _write(args, "".join(lines))
    return 0 if all(ok) else 1


def _helped(handler, sentence: str):
    handler.help = sentence  # not a docstring, which python -OO strips
    return handler


_COMMANDS = {
    "reflectance": _helped(cmd_reflectance,
                           "reflectance vs incidence angle, one curve per analyte index"),
    "index-sweep": _helped(cmd_index_sweep,
                           "reflectance and its index-derivative vs analyte index"),
    "inflection": _helped(cmd_inflection, "steepest-flank analyte index vs incidence angle"),
    "ratio": _helped(cmd_ratio, "quantum-enhancement ratio vs analyte index"),
    "precision": _helped(cmd_precision,
                         "index precision at the steepest flank vs incidence angle"),
    "validate": _helped(cmd_validate, "cross-check closed forms against brute-force oracles"),
}

_PARSER, _COMMON, _DEFAULTS = _build_parser()


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError, FresnelSingularityError,
            metrology.DegenerateOperatingPointError, metrology.DivergenceError) as exc:
        print(f"plasmonq: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
