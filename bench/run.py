"""Benchmark of the shatterbound package: one closed-loop caller, workers=1.

    python3 bench/run.py --workload calc-queries --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run builds the workload's inputs from ``--seed``, executes
whole rounds of operations until ``--seconds`` have passed (at least two
rounds), checks every answer against the computations in reference.py
outside the timed region, and prints a JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics``. Times are reported
at reference speed (see ``Speed``) and also printed as measured.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with the span tracer installed, reports the
per-layer metrics (per round), the tracing overhead, and writes the spans to
``bench/_out/``. ``--small`` runs the smallest size of each workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

DEFAULT_SEED = 1
HELDOUT_SEED = 9001  # used only to confirm a claim, never while tuning
SETUP_REPEATS = 15

# Speed probe: a fixed piece of pure-Python work timed between operations.
# PROBE_NOMINAL_S is its duration on the reference machine (2 vCPUs at
# 2.1 GHz, CPython 3.11.7) when the host is quiet.
PROBE_ITERATIONS = 20_000
PROBE_NOMINAL_S = 0.005
PROBE_EVERY_S = 0.1

# Import probe: a fixed set of standard-library modules, none of them the
# package's, imported in a fresh interpreter. It is the same kind of work as
# importing the package (file reads, unmarshalling, module code), which the
# speed probe above tracks poorly. IMPORT_PROBE_NOMINAL_S is its duration on
# the reference machine when the host is quiet. Both imports run isolated
# (-I) and without the site module (-S), so installed packages, .pth files
# and environment variables change neither.
IMPORT_PROBE = "unittest, email.parser, http.client, xml.dom.minidom, csv, tomllib"
IMPORT_PROBE_NOMINAL_S = 0.08

import workloads  # noqa: E402  (sibling module; bench/ is sys.path[0])
from spans import PER_LAYER_UNITS, Tracer  # noqa: E402

_CHILD_IMPORT = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import {}\n"
    "print(time.perf_counter() - t)\n"
)


class Timings:
    """Times of each operation of the round (by position) over a pass,
    measured and at reference speed, plus its failures. Arrays of doubles keep the memory a
    run needs nearly independent of how many operations it completes."""

    def __init__(self, ops):
        self.ops = ops
        self.raw = [array("d") for _ in ops]
        self.scaled = [array("d") for _ in ops]
        self.failed = [0] * len(ops)
        self.errors: dict[str, str] = {}
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return self.rounds * len(self.ops)

    def steady(self, scaled=True) -> list[float]:
        """Each operation's median time over the rounds."""
        return [statistics.median(t) for t in (self.scaled if scaled else self.raw)]


def probe() -> float:
    """Time the probe: integer, dict, float and Fraction work like the
    package's own. The collector is off while it runs, so the package's
    gc settings and the size of its heap do not change the probe's time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc, table, x, f = 0, {}, 0.5, Fraction(1, 3)
        for i in range(PROBE_ITERATIONS):
            acc += (i * 7919) % 104729
            table[i & 255] = acc
            x = math.sqrt(x + i)
            if i % 50 == 0:
                f = Fraction(1, 3) if i % 1000 == 0 else f * Fraction(i + 1, i + 2) + 1
        return time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """Host speed relative to the reference machine.

    The host is shared, and its speed drifts by a fifth or more over seconds
    and for whole runs at a time. The probe, run between operations, tracks
    that drift: a measured time multiplied by PROBE_NOMINAL_S over the probe
    time around it is the time the same work takes at reference speed.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._last = -math.inf

    def probe(self) -> float:
        p = probe()
        self.probes.append(p)
        self._last = time.perf_counter()
        return p

    def recent(self) -> float:
        """Median of the last three probes, probing first if they are stale."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()
        return statistics.median(self.probes[-3:])


def import_package():
    if not (SRC / "shatterbound" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import shatterbound
    import shatterbound.cli  # noqa: F401  (binds shatterbound.cli)
    return shatterbound


def child_import_seconds(modules: str, path: tuple[str, ...] = ()) -> float:
    """Time to import ``modules`` in a fresh interpreter, ``path`` first on
    its sys.path."""
    cmd = [sys.executable, "-I", "-S", "-c", _CHILD_IMPORT.format(modules), *path]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def set_up(sb, name, seed, small, speed):
    """Import plus input construction, repeated; returns the workload and the
    median set-up time, measured and at reference speed. The package import
    is scaled by the import probe on each side of it, input construction by
    the speed probe."""
    raw, scaled = [], []
    workload = None
    ref_before = child_import_seconds(IMPORT_PROBE)
    for _ in range(SETUP_REPEATS):
        imported = child_import_seconds("shatterbound, shatterbound.cli", (str(SRC),))
        ref_after = child_import_seconds(IMPORT_PROBE)
        before = speed.probe()
        t = time.perf_counter()
        workload = workloads.BUILDERS[name](sb, seed, small, OUT)
        workload.round(0)
        built = time.perf_counter() - t
        after = speed.probe()
        raw.append(imported + built)
        scaled.append(imported * 2 * IMPORT_PROBE_NOMINAL_S / (ref_before + ref_after)
                      + built * 2 * PROBE_NOMINAL_S / (before + after))
        ref_before = ref_after
    return workload, statistics.median(raw), statistics.median(scaled)


def run_pass(workload, seconds, min_rounds, speed, tracer=None) -> Timings:
    """Run whole rounds until ``seconds`` have passed."""
    rec = Timings(workload.round(0))
    clock = time.perf_counter
    start = clock()
    while rec.rounds < min_rounds or clock() - start < seconds:
        for i, op in enumerate(workload.round(rec.rounds)):
            before = speed.recent()
            if tracer:
                tracer.active = True
            t = clock()
            try:
                result = op.run()
                dt = clock() - t
                error = None
            except Exception as exc:  # a raising operation is a failed one
                dt = clock() - t
                error = f"raised {type(exc).__name__}: {exc}"
            if tracer:
                tracer.active = False
            # a long operation is bracketed by a probe on each side
            around = (before + speed.probe()) / 2 if dt >= PROBE_EVERY_S else before
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # a malformed answer is a wrong one
                    error = f"check raised {type(exc).__name__}: {exc}"
            rec.raw[i].append(dt)
            rec.scaled[i].append(dt * PROBE_NOMINAL_S / around)
            if error:
                rec.failed[i] += 1
                rec.errors.setdefault(op.label, error)
        rec.rounds += 1
    return rec


def summarize(rec: Timings, scaled=True):
    steady = rec.steady(scaled)
    heads = [t for op, t in zip(rec.ops, steady) if op.head and not op.in_slice]
    return {
        "ops_per_s": len(steady) / sum(steady),
        "op_p50_ms": statistics.median(steady) * 1e3,
        "head_p50_ms": statistics.median(heads) * 1e3,
    }


def reference_figures(rec: Timings):
    """Figures that apply to one workload only: solver and CLI medians, and
    labelings decided per second."""
    steady = rec.steady()

    def pick(pred):
        return [t for op, t in zip(rec.ops, steady) if pred(op) and not op.in_slice]

    fig = {}
    solves = pick(lambda op: op.kind == "solve_min_n")
    if solves:
        fig["solve_n_p50_us"] = (statistics.median(solves) * 1e6, "us")
    clis = pick(lambda op: op.kind.startswith("cli."))
    if clis:
        fig["cli_p50_ms"] = (statistics.median(clis) * 1e3, "ms")
    lab = [(op.labelings, t) for op, t in zip(rec.ops, steady) if op.labelings]
    if lab:
        fig["labelings_per_s"] = (sum(x for x, _ in lab) / sum(t for _, t in lab),
                                  "labelings/s")
    return fig


def tail(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for q in (99.9, 99.0, 90.0):
        if n * (1 - q / 100) >= 10:
            return q, sorted(values)[min(n - 1, math.ceil(q / 100 * n) - 1)]
    return None


def print_lines(passes, metrics, units, figures):
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units.get(name, '')}".rstrip())
    for name, (value, unit) in figures.items():
        print(f"reference {name} = {value:.6g} {unit}")
    raw = [t for rec in passes for times in rec.raw for t in times]
    t = tail(raw)
    text = f"p{t[0]:g} {t[1] * 1e3:.4g} ms" if t else "no tail (under 40 samples)"
    print(f"op times as measured: p50 {statistics.median(raw) * 1e3:.4g} ms, {text}, "
          f"{len(raw)} samples")
    for rec in passes:
        for label, error in rec.errors.items():
            print(f"failed {label}: {error}")


E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "ops/s",
             "op_p50_ms": "ms", "head_p50_ms": "ms"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    sb = import_package()
    OUT.mkdir(exist_ok=True)
    speed = Speed()
    workload, setup_raw, setup_s = set_up(sb, args.workload, args.seed, args.small, speed)
    print(f"workload {workload.name} seed {args.seed} headline {workload.head_name}")

    if not args.trace:
        rec = run_pass(workload, args.seconds, 2, speed)
        passes = [rec]
        metrics = {"setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics.update(summarize(rec))
        units = E2E_UNITS
        figures = reference_figures(rec)
        measured = summarize(rec, scaled=False)
        print("as measured: " + ", ".join(
            [f"setup_s {setup_raw:.6g}"] + [f"{k} {v:.6g}" for k, v in measured.items()]))
    else:
        plain = run_pass(workload, args.seconds / 2, 2, speed)
        tracer = Tracer()
        tracer.install(sb)
        first_probe = len(speed.probes)
        traced = run_pass(workload, args.seconds / 2, 2, speed, tracer)
        passes = [plain, traced]
        scale = PROBE_NOMINAL_S / statistics.median(speed.probes[first_probe:])
        metrics = tracer.layer_metrics(traced.rounds, scale)
        figures = reference_figures(plain)
        metrics["bounds.solve_min_n.p50_us"] = figures.get("solve_n_p50_us", (0.0,))[0]
        metrics["cli.main.p50_ms"] = figures.get("cli_p50_ms", (0.0,))[0]
        metrics["oracle.labelings_per_s"] = figures.get("labelings_per_s", (0.0,))[0]
        before, after = summarize(plain), summarize(traced)
        metrics["tracing.ops_per_s_overhead_pct"] = (
            100.0 * (before["ops_per_s"] / after["ops_per_s"] - 1.0))
        metrics["tracing.op_p50_overhead_ms"] = after["op_p50_ms"] - before["op_p50_ms"]
        units = PER_LAYER_UNITS
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} kept, {tracer.dropped} dropped, "
              f"written to {spans_path.relative_to(ROOT)}; "
              f"{traced.rounds} traced rounds, {plain.rounds} untraced")
        print(f"tracing overhead: ops/s {before['ops_per_s']:.6g} untraced, "
              f"{after['ops_per_s']:.6g} traced; op p50 {before['op_p50_ms']:.6g} ms "
              f"untraced, {after['op_p50_ms']:.6g} ms traced")
    print(f"speed probe: {len(speed.probes)} probes, median "
          f"{statistics.median(speed.probes) * 1e3:.4g} ms against "
          f"{PROBE_NOMINAL_S * 1e3:g} ms nominal")

    for p in OUT.glob("curve-*.csv"):
        p.unlink()
    print_lines(passes, metrics, units, figures)
    failed_slice = all(op.in_slice
                       for rec in passes for op, f in zip(rec.ops, rec.failed) if f)
    result = {
        "correct": failed_slice,
        "attempted": sum(rec.attempted for rec in passes),
        "failed": sum(sum(rec.failed) for rec in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
