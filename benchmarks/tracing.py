"""Layer spans recorded from outside the package.

The benchmark wraps the public functions of each ``plasmonq`` module and
patches the wrapper into every namespace that imported the original name
(``metrology.inflection_index``, ``cli.reflection_coefficient``, ...), so
calls are caught whichever module makes them.  Spans are aggregated in
memory per name: calls, inclusive time, self time (the span minus its child
spans) and failures.  Optional observers turn a call's arguments and result
into computed counters.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import Counter
from contextlib import contextmanager

# Mirrors the total-internal-reflection margin of ``fresnel.inflection_index``;
# used only to compute how many Fresnel points a search evaluated.
TIR_MARGIN = 1e-3
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "failures")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failures = 0


class Tracer:
    """In-memory span aggregates, cleared between traced passes."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counters: Counter = Counter()
        self.top_level_s = 0.0
        self._child_time: list[float] = []

    def wrap(self, name, fn, expected=(), observe=None):
        """Return ``fn`` wrapped in a span called ``name``.

        Exceptions of the ``expected`` types are documented outcomes and are
        not counted as failures.  ``observe(counters, args, kwargs, result,
        exc, elapsed)`` runs after the span closes.
        """
        stats = self.spans.setdefault(name, SpanStats())
        child_time = self._child_time

        def traced(*args, **kwargs):
            child_time.append(0.0)
            exc = None
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                elapsed = time.perf_counter() - t0
                children = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                else:
                    self.top_level_s += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if exc is not None and not isinstance(exc, expected):
                    stats.failures += 1
                if observe is not None:
                    observe(self.counters, args, kwargs, result, exc, elapsed)
                # The traceback refers to this frame: drop the exception so the
                # arrays it holds are freed now, not at the next collection.
                exc = None

        return traced

    def snapshot(self) -> dict:
        """Plain-dict copy of the aggregates since the last clear."""
        return {
            "spans": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                       "failures": s.failures}
                for name, s in self.spans.items()
            },
            "counters": dict(self.counters),
            "top_level_s": self.top_level_s,
        }

    def clear(self):
        """Zero the aggregates but keep the installed wrappers bound to them."""
        for stats in self.spans.values():
            stats.calls = 0
            stats.total_s = stats.self_s = 0.0
            stats.failures = 0
        self.counters.clear()
        self.top_level_s = 0.0


def _observe_inflection(signature, skip_error):
    """Counts skips and the Fresnel points one ``inflection_index`` call evaluated.

    Computed from the arguments: two reflectance evaluations per scan point,
    and two per golden-section probe (two initial probes, one per iteration,
    iterating until the bracket of two grid steps shrinks below ``tol``).
    """
    def observe(counters, args, kwargs, result, exc, elapsed):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        lo, hi = a["n_range"]
        n_critical = a["stack"].n_prism * math.sin(math.radians(a["geom"].theta_deg))
        hi = min(hi, n_critical - TIR_MARGIN)
        if isinstance(exc, skip_error):
            counters["inflection_skips"] += 1
        if hi <= lo:
            return
        points = 2 * a["grid_points"]
        if exc is None:
            width = 2.0 * (hi - lo) / (a["grid_points"] - 1)
            iterations = 0
            while width > a["tol"]:
                width *= _INVPHI
                iterations += 1
            points += 2 * (2 + iterations)
        counters["fresnel_points"] += points

    return observe


def _observe_state(counters, args, kwargs, result, exc, elapsed):
    if result is not None:
        size = result.coeffs.shape[0]
        counters["max_state_size"] = max(counters["max_state_size"], size)


def _observe_thinning(counters, args, kwargs, result, exc, elapsed):
    size = (args[0] if args else kwargs["dist"]).probs.shape[0]
    counters[f"thinning_calls_at_size.{size}"] += 1
    counters[f"thinning_s_at_size.{size}"] += elapsed
    if result is not None:
        counters["thinning_flops"] += 4 * size**3  # two size x size matmuls
        counters["thinning_bytes"] += 3 * 8 * size**2  # three float64 matrices


def _targets():
    """(owner, attribute, span name, expected exceptions, observer) per layer call."""
    from plasmonq import cli, fock_oracle, fresnel, materials, metrology, quantum_states

    constructors = ("coherent_product", "twin_fock", "tmsv", "noon", "squeezed_product")
    targets = [
        (materials, "gold_dispersion", "materials.gold_dispersion", (), None),
        (materials.DispersionTable, "permittivity", "materials.permittivity", (), None),
        (fresnel.KretschmannStack, "__init__", "fresnel.KretschmannStack", (), None),
        (fresnel, "reflection_coefficient", "fresnel.reflection_coefficient", (), None),
        (fresnel, "sensitivity", "fresnel.sensitivity", (), None),
        (fresnel, "inflection_index", "fresnel.inflection_index",
         (fresnel.NoInteriorExtremumError,),
         _observe_inflection(inspect.signature(fresnel.inflection_index),
                             fresnel.NoInteriorExtremumError)),
        (fresnel, "transfer_matrix_reflection", "fresnel.transfer_matrix_reflection",
         (), None),
        *[(quantum_states, name, "quantum_states.construct", (), _observe_state)
          for name in constructors],
        (quantum_states, "statistics", "quantum_states.statistics", (), None),
        *[(metrology, name, f"metrology.{name}", (), None)
          for name in ("family_statistics", "signal_mean", "signal_std", "ratio",
                       "precision", "sweep_ratio", "sweep_precision_vs_angle")],
        (fock_oracle, "joint_distribution", "fock_oracle.joint_distribution", (), None),
        (fock_oracle, "binomial_thinning", "fock_oracle.binomial_thinning", (),
         _observe_thinning),
        (fock_oracle, "oracle_measurement", "fock_oracle.oracle_measurement", (), None),
        (cli, "main", "cli.main", (), None),
    ]
    import plasmonq
    namespaces = (plasmonq, cli, fock_oracle, fresnel, materials, metrology,
                  quantum_states)
    return targets, namespaces


@contextmanager
def installed(tracer: Tracer):
    """Patch span wrappers into the package for the duration of the block."""
    targets, namespaces = _targets()
    saved = []
    try:
        for owner, attr, name, expected, observe in targets:
            original = vars(owner)[attr]
            wrapped = tracer.wrap(name, original, expected, observe)
            if isinstance(owner, type):
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        saved.append((ns, key, original))
                        setattr(ns, key, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
