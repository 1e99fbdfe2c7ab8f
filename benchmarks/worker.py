"""One workload in a fresh interpreter: set-up, timed passes, then checks.

Started by ``run.py``; prints one JSON object on stdout.  With
``--setup-only`` it stops at the first timed call and reports only when
that call would have started, which ``run.py`` turns into a set-up time.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _complex_job(size: int):
    """Complex square roots, exponentials and divisions, like a Fresnel kernel."""
    acc = 0j
    for i in range(size):
        kz = cmath.sqrt(0.28 + 1e-6 * i + 0.01j)
        phase = cmath.exp(2j * kz * 50.0)
        acc += (phase * 0.3 + 0.2) / (phase * 0.06 + 1.0)


def _records_job(size: int):
    """Complex square roots, small dicts and float formatting, like CSV sweeps."""
    z = 0j
    rows = {}
    for i in range(size):
        z = cmath.sqrt(z * 0.5 + 1.3 + i * 1e-9j)
        rows[i & 4095] = {"k": i, "v": repr(z.real * i)}


def _bigint_job(size: int):
    """Binomial-kernel entries near n = 1000, like the oracle's hot loop."""
    out = numpy.zeros(size)
    for j, k in enumerate(range(400, 400 + 4 * size, 4)):
        out[j] = math.comb(999, k) * 0.3**k * 0.7 ** (999 - k)


# A fixed job with the same kind of Python work as each workload, and a
# size at which it takes about 0.5 ms.  On a shared machine the CPU's speed
# changes by up to 1.5x within seconds; the job slows with it, so pass time
# over job time, sampled during the pass, is much steadier than either.
REFERENCE_JOBS = {"complex": (_complex_job, 1000), "records": (_records_job, 500),
                  "bigint": (_bigint_job, 15)}
SAMPLE_INTERVAL_S = 0.02


class SpeedProbe:
    """Times the reference job every ``SAMPLE_INTERVAL_S`` of wall time.

    A ``SIGALRM`` handler runs the job inside the pass, between two
    bytecodes of whatever the pass is running, so the samples cover the
    same moments as the pass.  Their time is taken out of the pass time.
    """

    def __init__(self, reference: str):
        self.job, self.size = REFERENCE_JOBS[reference]
        self.samples: list[float] = []

    def time_job(self) -> float:
        t0 = time.perf_counter()
        self.job(self.size)
        return time.perf_counter() - t0

    def _sample(self, signum, frame):
        self.samples.append(self.time_job())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _median_per_key(samples: list[dict]) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def _layer_metrics(snapshot: dict, pass_s: float) -> dict:
    """Flatten one traced pass into the per-layer metric values."""
    spans = snapshot["spans"]
    counters = snapshot["counters"]
    out = {}
    for name, span in spans.items():
        calls = span["calls"]
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = span["total_s"]
        out[f"{name}.self_s"] = span["self_s"]
        out[f"{name}.failures"] = span["failures"]
        out[f"{name}.per_call_us"] = 1e6 * span["total_s"] / calls if calls else 0.0
    inflection = spans["fresnel.inflection_index"]
    out["fresnel.inflection_index.per_call_ms"] = (
        out["fresnel.inflection_index.per_call_us"] / 1e3)
    out["fresnel.inflection_index.skips"] = counters.get("inflection_skips", 0)
    points = counters.get("fresnel_points", 0)
    out["fresnel.points_evaluated"] = points
    out["fresnel.points_per_s"] = points / inflection["total_s"] if points else 0.0
    out["quantum_states.max_size"] = counters.get("max_state_size", 0)
    out["fock_oracle.thinning.flops"] = counters.get("thinning_flops", 0)
    out["fock_oracle.thinning.bytes"] = counters.get("thinning_bytes", 0)
    out["trace.coverage_frac"] = snapshot["top_level_s"] / pass_s
    for key, value in counters.items():
        if "_at_size." in key:  # binomial thinning calls and seconds per size
            out[f"fock_oracle.binomial_{key}"] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import plasmonq
    from plasmonq import materials

    t0 = time.perf_counter()
    materials.gold_dispersion()
    load_ms = 1e3 * (time.perf_counter() - t0)
    import workloads

    # numpy and ``validate --seed`` take only non-negative seeds.
    workload = workloads.WORKLOADS[args.workload](args.seed % 2**32, args.quick)
    t_first = time.monotonic()
    report = {"t_first": t_first, "load_ms": load_ms}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    import tracing

    tracer = tracing.Tracer()
    plain_s, traced_s, layer_samples, subcommand_s = [], [], [], []
    pass_ref, ref_samples = [], []
    speed = SpeedProbe(workload.reference)
    warm_ref = statistics.median(speed.time_job() for _ in range(20))
    first = first_signature = None
    differing = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(plain_s) > len(traced_s)
        if traced:  # no speed samples, so that they stay out of the spans
            with tracing.installed(tracer):
                tracer.clear()
                t = time.perf_counter()
                result = workload.run_pass()
                elapsed = time.perf_counter() - t
            traced_s.append(elapsed)
            layer_samples.append(_layer_metrics(tracer.snapshot(), elapsed))
        else:
            t = time.perf_counter()
            with speed:
                result = workload.run_pass()
            elapsed = time.perf_counter() - t - sum(speed.samples)
            plain_s.append(elapsed)
            subcommand_s.append(result.seconds)
            # A pass shorter than the sampling interval has no samples.
            ref = statistics.mean(speed.samples) if speed.samples else warm_ref
            pass_ref.append(elapsed / ref)
            ref_samples += speed.samples
        signature = result.signature()
        if first is None:
            first, first_signature = result, signature
        elif signature != first_signature:
            differing += 1
        # Stop before a pass that would likely end past the time budget.
        expected_end = time.perf_counter() - start + statistics.median(plain_s)
        if expected_end > args.seconds and (not args.trace or traced_s):
            break
    # Once-per-run operations: untimed, but counted, checked and traced.
    with tracing.installed(tracer) if args.trace else contextlib.nullcontext():
        tracer.clear()
        t = time.perf_counter()
        probe = workload.probe()
        probe_s = time.perf_counter() - t
    probe_snapshot = tracer.snapshot()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Every pass repeats the same operations on the same inputs, so the
    # operations of a run are those of one pass plus the probe's: the counts
    # depend on the seed's inputs only, not on how many passes fit in the time.
    mismatches = workload.check(first)
    attempted = first.units
    failed = min(attempted, first.failed_units + len(mismatches))
    if differing:
        mismatches.append(f"{differing} passes produced output that differs from the first")
        failed = attempted
    if probe.units:
        probe_mismatches = workload.check(probe)
        mismatches += probe_mismatches
        attempted += probe.units
        failed += min(probe.units, probe.failed_units + len(probe_mismatches))

    report.update({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "units_per_pass": first.units,
        "failed_units_per_pass": first.failed_units,
        "errors": [message for _, message in first.errors],
        "probe_errors": [message for _, message in probe.errors],
        "probe_units": probe.units,
        "probe_s": probe_s,
        "mismatches": mismatches[:20],
        "pass_s": plain_s,
        "pass_ref": pass_ref,
        "reference_s": statistics.median(ref_samples or [warm_ref]),
        "reference_samples": len(ref_samples),
        "subcommand_s": _median_per_key(subcommand_s),
        "peak_rss_mb": peak_rss_mb,
        "input_size": workload.input_size,
        "unit": workload.unit,
        "reference": workload.reference,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "plasmonq": plasmonq.__version__,
    })
    if args.trace:
        report["traced_pass_s"] = traced_s
        layers = report["layers"] = _median_per_key(layer_samples)
        if probe.units:  # the probe's failures and sizes join the per-pass values
            for key, value in _layer_metrics(probe_snapshot, probe_s).items():
                if key.endswith(".failures") or "_at_size." in key:
                    layers[key] = layers.get(key, 0) + value
                elif key == "quantum_states.max_size":
                    layers[key] = max(layers[key], value)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
