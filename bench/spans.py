"""In-memory span tracing of the package's layers, installed from outside.

The tracer wraps every public function of each module (the names in its
``__all__`` that are functions defined there) plus ``PointSet.__post_init__``,
the exact position check a ``PointSet`` runs when it is built. Every
reference to a wrapped function in any of the package's modules is rebound,
so calls between modules pass through the wrappers too. A span is (id, name,
start, end, parent id); self time is a span's duration minus the durations of
its direct children. Aggregates cover every span; only the first ``keep``
spans are held for the file written when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time

LAYERS = ("logarithmetic", "shattering", "bounds", "rational_lp", "oracle", "cli")
KEEP_DURATIONS = {"rational_lp.simplex_max"}

# Units of the per-layer metrics a traced run reports.
PER_LAYER_UNITS = {
    "logarithmetic.log_binomial.calls": "count",
    "logarithmetic.log_binomial.self_ms": "ms",
    "logarithmetic.log_sum.calls": "count",
    "shattering.shatter_log.calls": "count",
    "shattering.shatter_log.self_ms": "ms",
    "shattering.shatter_multi.calls": "count",
    "shattering.shatter_multi.self_ms": "ms",
    "bounds.delta_bound.calls": "count",
    "bounds.delta_bound.self_ms": "ms",
    "bounds.delta_bound.per_solve": "count",
    "bounds.solve_min_n.self_ms": "ms",
    "bounds.solve_min_n.p50_us": "us",
    "cli.main.self_ms": "ms",
    "cli.main.p50_ms": "ms",
    "rational_lp.simplex_max.calls": "count",
    "rational_lp.simplex_max.self_ms": "ms",
    "rational_lp.simplex_max.p50_us": "us",
    "rational_lp.simplex_max.rows_mean": "count",
    "rational_lp.simplex_max.cols_mean": "count",
    "oracle.count_dichotomies.self_ms": "ms",
    "oracle.lp_solves": "count",
    "oracle.separable_labelings": "count",
    "oracle.lp_solves_per_separable": "count",
    "oracle.labelings_per_s": "labelings/s",
    "oracle.generate_general_position.ms": "ms",
    "oracle.generate_general_position.resamples": "count",
    "oracle.PointSet.ms": "ms",
    "tracing.ops_per_s_overhead_pct": "%",
    "tracing.op_p50_overhead_ms": "ms",
}


class _Agg:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = []


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.active = False
        self.spans: list[tuple] = []
        self.dropped = 0
        self.agg: dict[str, _Agg] = {}
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._solve_depth = 0
        # counters that need the call's arguments or result
        self.deltas_in_solve = 0
        self.lp_rows = 0
        self.lp_cols = 0
        self.lp_in_count = 0
        self.separable = 0
        self.resamples = 0

    def _enter(self, name):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, time.perf_counter(), 0.0, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child, parent = frame
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = _Agg()
        a.calls += 1
        a.total += dur
        a.self_time += dur - child
        if name in KEEP_DURATIONS:
            a.durations.append(dur)
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, start, end, parent))
        else:
            self.dropped += 1

    def _wrap(self, name, fn):
        tracer = self
        is_solve = name == "bounds.solve_min_n_trace"
        is_delta = name == "bounds.delta_bound"
        is_lp = name == "rational_lp.simplex_max"
        is_count = name == "oracle.count_dichotomies"
        is_gen = name == "oracle.generate_general_position"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            if is_solve:
                tracer._solve_depth += 1
            elif is_delta and tracer._solve_depth:
                tracer.deltas_in_solve += 1
            elif is_lp:
                tracer.lp_rows += len(args[1])
                tracer.lp_cols += len(args[0])
                if any(f[1] == "oracle.count_dichotomies" for f in tracer._stack):
                    tracer.lp_in_count += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_solve:
                    tracer._solve_depth -= 1
                tracer._exit(frame)
            if is_count:
                tracer.separable += result
            elif is_gen:
                tracer.resamples += result.resamples
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Rebind the package's public functions to traced wrappers."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package.__name__
                                         or k.startswith(package.__name__ + "."))]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        point_set = sys.modules[f"{package.__name__}.oracle"].PointSet
        point_set.__post_init__ = self._wrap("oracle.PointSet", point_set.__post_init__)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans_kept": len(self.spans),
                                 "spans_dropped": self.dropped,
                                 "fields": ["id", "name", "start", "end", "parent"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, rounds: int, scale: float) -> dict[str, float]:
        """Per-layer figures, each count and time given per round; times are
        multiplied by ``scale`` to bring them to reference speed."""

        def agg(name):
            return self.agg.get(name) or _Agg()

        def per_round(x):
            return x / rounds

        def ms(seconds):
            return per_round(seconds) * 1e3 * scale

        def p50_us(name):
            d = agg(name).durations
            return statistics.median(d) * 1e6 * scale if d else 0.0

        lp = agg("rational_lp.simplex_max")
        solves = agg("bounds.solve_min_n_trace").calls
        return {
            "logarithmetic.log_binomial.calls": per_round(agg("logarithmetic.log_binomial").calls),
            "logarithmetic.log_binomial.self_ms": ms(agg("logarithmetic.log_binomial").self_time),
            "logarithmetic.log_sum.calls": per_round(agg("logarithmetic.log_sum").calls),
            "shattering.shatter_log.calls": per_round(agg("shattering.shatter_log").calls),
            "shattering.shatter_log.self_ms": ms(agg("shattering.shatter_log").self_time),
            "shattering.shatter_multi.calls": per_round(agg("shattering.shatter_multi").calls),
            "shattering.shatter_multi.self_ms": ms(agg("shattering.shatter_multi").self_time),
            "bounds.delta_bound.calls": per_round(agg("bounds.delta_bound").calls),
            "bounds.delta_bound.self_ms": ms(agg("bounds.delta_bound").self_time),
            "bounds.delta_bound.per_solve": self.deltas_in_solve / solves if solves else 0.0,
            "bounds.solve_min_n.self_ms": ms(agg("bounds.solve_min_n").self_time
                                             + agg("bounds.solve_min_n_trace").self_time),
            "cli.main.self_ms": ms(agg("cli.main").self_time),
            "rational_lp.simplex_max.calls": per_round(lp.calls),
            "rational_lp.simplex_max.self_ms": ms(lp.self_time),
            "rational_lp.simplex_max.p50_us": p50_us("rational_lp.simplex_max"),
            "rational_lp.simplex_max.rows_mean": self.lp_rows / lp.calls if lp.calls else 0.0,
            "rational_lp.simplex_max.cols_mean": self.lp_cols / lp.calls if lp.calls else 0.0,
            "oracle.count_dichotomies.self_ms": ms(agg("oracle.count_dichotomies").self_time),
            "oracle.lp_solves": per_round(self.lp_in_count),
            "oracle.separable_labelings": per_round(self.separable),
            "oracle.lp_solves_per_separable": (self.lp_in_count / self.separable
                                               if self.separable else 0.0),
            "oracle.generate_general_position.ms": ms(agg("oracle.generate_general_position").total),
            "oracle.generate_general_position.resamples": per_round(self.resamples),
            "oracle.PointSet.ms": ms(agg("oracle.PointSet").total),
        }
