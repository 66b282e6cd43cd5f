"""Per-layer tracing by wrapping ``riskprop`` functions from outside.

:meth:`Tracer.install` replaces each traced function everywhere a
``riskprop`` module can see it: the defining module, every module that
imported the name (``riskprop.certify.rho``, ``riskprop.certify.classify``,
...), and the class attribute for methods.  Each wrapper records a call
count, the span's duration and its self time, which is the duration
minus the time of the traced spans it contains.  The first
``SPAN_CAP`` spans are also kept whole (name, operation, parent, start,
end) and written out with the totals when the run ends.

Nothing under ``src/`` changes; the benchmark installs the wrappers in
its traced run only, so untraced runs pay nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Optional

SPAN_CAP = 50_000

# (module, attribute path) of every traced function, grouped by layer.
TRACED = (
    ("space", "Payoff.__post_init__"),
    ("space", "Payoff.__add__"),
    ("space", "Payoff.__sub__"),
    ("space", "equal_in_distribution"),
    ("orders", "concave_order"),
    ("orders", "fsd"),
    ("orders", "better_hedge"),
    ("orders", "is_best_hedge"),
    ("orders", "counter_monotone"),
    ("insurance", "classify"),
    ("insurance", "classify_detailed"),
    ("decompose", "split_zero_mean"),
    ("decompose", "mps_chain"),
    ("decompose", "proportional_triple"),
    ("decompose", "deductible_triple"),
    ("preferences", "rho"),
    ("preferences", "_rho_eu"),
    ("preferences", "eu_value"),
    ("preferences", "dual_value"),
    ("preferences", "PreferenceModel.value"),
    ("preferences", "PiecewiseLinearFn.__call__"),
    ("certify", "check_weak_risk_aversion"),
    ("certify", "check_strong_risk_aversion"),
    ("certify", "check_propensity"),
    ("certify", "check_neutrality"),
    ("certify", "check_premium_propensity"),
    ("certify", "compare_weak"),
    ("certify", "compare_strong"),
    ("certify", "compare_propensity"),
    ("certify", "_shrink"),
    ("certify", "_alternatives"),
    ("certify", "_sweep_alternatives"),
    ("certify", "_kind_member"),
    ("serialize", "model_from_obj"),
    ("serialize", "report_to_obj"),
    ("serialize", "dumps"),
    ("cli", "main"),
)

# Counters beyond calls and self time, filled by the wrappers' result hooks.
EXTRA_COUNTERS = (
    "certify._kind_member.true_calls",
    "certify._alternatives.generated",
    "certify._sweep_alternatives.evaluated",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, attr in TRACED:
        names += [f"{module}.{attr}.calls", f"{module}.{attr}.self_ms"]
    return names + list(EXTRA_COUNTERS)


class Tracer:
    """Counts, self time and capped span records for the wrapped functions."""

    def __init__(self) -> None:
        # per function: [calls, self_ns]
        self.stats: dict[str, list[int]] = {f"{m}.{a}": [0, 0] for m, a in TRACED}
        self.counters: dict[str, int] = dict.fromkeys(EXTRA_COUNTERS, 0)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.operation = -1
        self._stack: list[list[int]] = []  # per open span: [span id, child ns]
        self._next_id = 0

    def reset(self) -> None:
        """Zero the totals (spans already kept stay)."""
        for row in self.stats.values():
            row[:] = [0, 0]
        for key in self.counters:
            self.counters[key] = 0

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, self_ns) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_ns / 1e6
        out.update(self.counters)
        return out

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        row = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                row[0] += 1
                row[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, tracer.operation, name, start, end))
                else:
                    tracer.spans_dropped += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    def install(self) -> None:
        """Wrap every traced function wherever a loaded ``riskprop`` module refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "riskprop" or n.startswith("riskprop.")]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            home = sys.modules[f"riskprop.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._wrap(name, original)
                # aliases such as Payoff.__radd__ = __add__ share the wrapper
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        setattr(cls, key, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, self._after_hook(name))
            if name == "certify._sweep_alternatives":
                wrapped = self._counting_sweep(wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def _after_hook(self, name: str) -> Optional[Callable]:
        if name == "certify._kind_member":
            return lambda args, result: self._count("certify._kind_member.true_calls", bool(result))
        if name == "certify._alternatives":
            return lambda args, result: self._count("certify._alternatives.generated", len(result))
        return None

    def _counting_sweep(self, sweep: Callable) -> Callable:
        """Count the model evaluations a sweep makes after deduplicating ``w + g``."""

        @functools.wraps(sweep)
        def counted(w, f, alternatives, test):
            def counted_test(ff, gg):
                self._count("certify._sweep_alternatives.evaluated", 1)
                return test(ff, gg)

            return sweep(w, f, alternatives, counted_test)

        return counted

    def write(self, path: str, meta: dict) -> None:
        """Write totals and the kept spans as one JSON document."""
        doc = {
            **meta,
            "totals": self.snapshot(),
            "span_fields": ["id", "parent", "operation", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
