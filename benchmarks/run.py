"""Layered benchmark of plasmonq: end-to-end metrics, or per-layer ones with --trace 1.

Usage, from the repository root:

    python3 benchmarks/run.py --workload flank_sweep --seed 1 --seconds 36 --trace 0

A single-process, closed-loop harness: one client runs one pass of the
workload after another, each waiting for the previous one, for ``--seconds``
seconds, in a fresh interpreter (``worker.py``) that runs only this
workload.  Further fresh interpreters that stop at the first timed call
give the set-up time.  BLAS threads are capped at the number of usable
CPUs.  The last line of stdout is one JSON object; the lines before it
state the environment and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SPEC = ROOT / "BENCHMARK.json"


def _declared(spec: dict, key: str) -> dict:
    """Metric name -> unit for one of the BENCHMARK.json metric lists."""
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def _commit() -> str | None:
    if not (ROOT / ".git").exists():  # e.g. an exported checkout
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "plasmonq").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _tail_percentile(samples: list[float]) -> str:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(samples)
            return f"p{p} {ordered[min(n - 1, int(n * p / 100))]:.6g} s"
    return "no percentile has >=10 samples beyond it"


class Runner:
    """Starts worker interpreters under one time limit and one environment."""

    def __init__(self, nproc: int):
        self.deadline = time.monotonic() + TIME_LIMIT_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
        self.env.update({var: str(nproc) for var in BLAS_THREAD_VARS})

    def worker(self, *args: str) -> tuple[dict, float]:
        """Run ``worker.py`` once; return its report and its set-up time."""
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=max(1.0, self.deadline - t0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                               f"{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        return report, report["t_first"] - t0


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<48} {value:<14.6g} {unit:<14} {note}".rstrip())


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    end_to_end, per_layer = _declared(spec, "end_to_end"), _declared(spec, "per_layer")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for a smoke test of the harness")
    args = parser.parse_args(argv)

    if not (SRC / "plasmonq" / "__init__.py").is_file():
        print(f"benchmark: no plasmonq sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    runner = Runner(nproc)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        common.append("--quick")
    half = 1 if args.quick else SETUP_PROBES // 2
    try:
        # Set-up probes before and after the timed worker, so that their
        # median spans the run rather than one moment of machine load.
        probes = [runner.worker(*common, "--setup-only") for _ in range(half)]
        report, setup = runner.worker(*common, "--seconds", str(args.seconds),
                                      "--trace", str(args.trace))
        probes += [runner.worker(*common, "--setup-only") for _ in range(half)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    setups = [s for _, s in probes] + [setup]
    load_ms = [r["load_ms"] for r, _ in probes] + [report["load_ms"]]

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "trace": args.trace, "commit": _commit(),
        "source_sha256": _source_digest(), "python": report["python"],
        "numpy": report["numpy"], "plasmonq": report["plasmonq"], "nproc": nproc,
        "blas_threads": nproc, "input_size": report["input_size"],
        "loop": "closed, 1 client",
    }
    print("# env " + json.dumps(env))
    pass_s = report["pass_s"]
    pass_median = statistics.median(pass_s)
    units = report["units_per_pass"]
    completed = units - report["failed_units_per_pass"]
    print(f"# {len(pass_s)} untraced passes of {units} {report['unit']}s each")
    for message in report["errors"]:
        print(f"# operation failed in every pass: {message}")
    if report["probe_units"]:
        print(f"# {report['probe_units']} once-per-run operations, untimed: "
              f"{report['probe_s']:.3g} s")
    for message in report["probe_errors"]:
        print(f"# once-per-run operation failed: {message}")
    for message in report["mismatches"]:
        print(f"# check failed: {message}")
    for command, seconds in report["subcommand_s"].items():
        _print_metric(f"subcommand.{command}_s", seconds, "s", "median, in process")

    pass_ref = statistics.median(report["pass_ref"])
    values = {
        "pass_s": pass_median,
        "units_per_s": completed / pass_median,
        "reference_s": report["reference_s"],
        "pass_ref": pass_ref,
        "units_per_ref": completed / pass_ref,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    units_of = {"pass_s": "s", "units_per_s": "1/s", "reference_s": "s", **end_to_end}
    notes = {
        "pass_s": (f"median of {len(pass_s)} passes, speed samples taken out; "
                   f"{_tail_percentile(pass_s)}"),
        "units_per_s": f"{completed} of {units} {report['unit']}s completed per pass",
        "reference_s": (f"median of {report['reference_samples']} samples of the "
                        f"{report['reference']} reference job"),
        "pass_ref": "median over passes of pass time / mean sample time in that pass",
        "units_per_ref": f"{report['unit']}s completed per reference-job time",
        "peak_rss_mb": "worker that runs only this workload",
        "setup_s": f"median of {len(setups)} fresh interpreters",
    }
    for name, value in values.items():
        _print_metric(name, value, units_of[name], notes[name])
    fail_frac = report["failed"] / report["attempted"]
    _print_metric("fail_frac", fail_frac, "1",
                  f"{report['failed']} of {report['attempted']} operations")

    if args.trace:
        layers = report["layers"]
        layers["materials.gold_dispersion.load_ms"] = statistics.median(load_ms)
        layers["trace.overhead_frac"] = (statistics.median(report["traced_pass_s"])
                                         / pass_median - 1.0)
        print(f"# {'span':<44} {'calls':>8} {'total_s':>12} {'self_s':>12} failures")
        for span in sorted(k[:-len(".total_s")] for k in layers if k.endswith(".total_s")):
            if layers[f"{span}.calls"]:
                print(f"# {span:<44} {layers[f'{span}.calls']:>8g} "
                      f"{layers[f'{span}.total_s']:>12.6g} {layers[f'{span}.self_s']:>12.6g} "
                      f"{layers[f'{span}.failures']:g}")
        prefix = "fock_oracle.binomial_thinning_calls_at_size."
        for size in sorted(int(k[len(prefix):]) for k in layers if k.startswith(prefix)):
            seconds = layers[f"fock_oracle.binomial_thinning_s_at_size.{size}"]
            print(f"# fock_oracle.binomial_thinning at size {size}: "
                  f"{layers[prefix + str(size)]:g} calls, {seconds:.6g} s")
        for name, unit in per_layer.items():
            _print_metric(name, layers[name], unit)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in end_to_end.items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
