"""Per-layer tracing installed from outside the program.

A layer is a ``qillum`` module.  Each wrapped public function records a span
around every call; a span's self time is its duration minus the time covered
by the spans it directly caused.  Wrappers are installed in every ``qillum``
module namespace that binds the function, because a module that did
``from .povm import click_probability`` holds its own reference and would
otherwise bypass a wrapper installed on ``povm`` alone.

Spans are aggregated in memory per function (call count and self time) and
read once, after the traced pass.  The span stack is not thread-safe: trace
only single-threaded passes.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer -> public functions wrapped there.  ``SignedThermalMixture`` is a
# class: its construction (``__init__`` plus the physicality check in
# ``__post_init__``) is wrapped on the class itself, so isinstance checks and
# every construction site stay intact.
TARGETS = {
    "cli": ("main",),
    "povm": ("click_probability", "click_distribution", "normal_ordered_moment",
             "povm_fock_diagonal"),
    "states": ("herald_state", "SignedThermalMixture", "photon_number_distribution",
               "wigner_slice"),
    "channel": ("apply_channel", "receiver_click_prob"),
    "matching": ("matched_mean", "coherent_click_prob", "thermal_click_prob"),
    "mc": ("build_tables", "trial_stream", "run_trajectory", "first_crossing",
           "average_trajectories"),
    "oracle": ("thermal_diag", "displaced_thermal_diag", "oracle_click_prob",
               "oracle_herald_state", "oracle_beamsplitter", "oracle_wigner"),
    "verify": ("run_verification",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)


class Tracer:
    """Span aggregation plus the counts taken at the same boundaries."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        # (span name, namespace the call was made through) -> calls
        self.calls_via = {}
        self.counts = {"mc.shot_updates": 0, "mc.uniform_draws": 0,
                       "mc.bytes_computed": 0, "verify.cases": 0}
        self._child_time = []

    def _wrap(self, name, namespace, fn, on_return=None):
        key = (name, namespace)
        self.calls_via.setdefault(key, 0)
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[name] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                self.calls[name] += 1
                self.calls_via[key] += 1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every loaded ``qillum`` module that binds it."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "qillum" or name.startswith("qillum."))
        }
        hooks = {"mc.run_trajectory": self._count_trajectory,
                 "verify.run_verification": self._count_cases}
        for layer, fns in TARGETS.items():
            home = modules[f"qillum.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name)
                if isinstance(original, type):
                    original.__init__ = self._wrap(name, layer, original.__init__)
                    continue
                for mod_name, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            namespace = mod_name.rpartition(".")[2]
                            setattr(mod, attr, self._wrap(name, namespace, original,
                                                          hooks.get(name)))

    def _count_trajectory(self, args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        shots = config.shots
        heralded = config.signal_kind.value != "coherent"
        outcomes = config.receiver_detectors + 1
        self.counts["mc.shot_updates"] += shots
        self.counts["mc.uniform_draws"] += shots * (2 if heralded else 1)
        self.counts["mc.bytes_computed"] += shots * _bytes_per_shot(
            heralded, config.target_present, outcomes)

    def _count_cases(self, args, kwargs, result):
        self.counts["verify.cases"] += sum(check.cases for check in result.checks)

    def metrics(self) -> dict:
        """Per-function calls and self time plus derived per-layer counts."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        shots = self.counts["mc.shot_updates"]
        out["mc.shot_updates"] = shots
        out["mc.uniform_draws"] = self.counts["mc.uniform_draws"]
        out["mc.bytes_per_shot_computed"] = (
            self.counts["mc.bytes_computed"] / shots if shots else 0.0)
        lookups = self.calls["oracle.oracle_click_prob"] + self.calls["oracle.oracle_herald_state"]
        misses = self.calls_via.get(("povm.povm_fock_diagonal", "oracle"), 0)
        out["oracle.coeff_lookups"] = lookups
        out["oracle.coeff_miss_ratio"] = misses / lookups if lookups else 0.0
        out["verify.cases"] = self.counts["verify.cases"]
        out["trace.self_sum_s"] = sum(self.self_s.values())
        return out


def _bytes_per_shot(heralded: bool, target_present: bool, outcomes: int) -> int:
    """Bytes of the per-shot arrays ``mc.run_trajectory`` allocates, from their sizes.

    float64 uniform draws (2 per heralded shot, 1 per coherent shot), an intp
    herald outcome, the gathered H1 cdf row (a broadcast view, 0 bytes, when
    the target is absent), the bool comparison row, then the intp click count,
    float64 increment, log-odds prefix sum and posterior.
    """
    draws = 8 * (2 if heralded else 1)
    cdf_rows = 8 * outcomes if target_present else 0
    return draws + 8 + cdf_rows + outcomes + 8 + 8 + 8 + 8
