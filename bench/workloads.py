"""The three closed-loop workloads: their inputs, operations and checks.

A workload is built from the seed, outside any timed region, as rounds of
operations. A run executes whole rounds of the same operations, so the
share of failed operations is fixed by the round's make-up and not by how
long the run lasted, and every operation is timed several times.
Library calls go through the package's module attributes at call time, so
the span tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

# Calculator grid. Every (h, p) family is queried in every round; the seed
# picks the remaining parameters from these finite pools, so selftest.py can
# check every query in them and no seed can draw one whose answer is wrong
# for a reason other than the large-n fault.
FAMILIES = tuple((h, p) for p in (1, 4, 16) for h in (1, 2, 3, 4))
DELTAS = (0.1, 0.05, 0.01, 0.001)
EPSILONS = (0.05, 0.07, 0.1, 0.14, 0.2)
NS = tuple(sorted({round(10 ** (1 + j * 0.25)) for j in range(21)}))  # 10 .. 1e6
CURVE_STARTS = (10, 20, 50)
CURVE_ENDS = (10**4, 10**5, 10**6)

# Oracle cells (n, h), each drawn TRIALS_PER_CELL times per round with its own
# seed; the last cell is the workload's headline cell. Two sets per cell put
# two operations of like size at the median and at the headline, and cells
# well under two seconds give each operation about ten samples in a run.
ENUMERATE_CELLS = ((12, 2), (14, 2), (12, 3))
ENUMERATE_CELLS_SMALL = ((6, 2), (7, 2), (8, 3))
GENERATE_CELLS = ((14, 3), (12, 4), (18, 3))
GENERATE_CELLS_SMALL = ((8, 3), (10, 3), (8, 4))
TRIALS_PER_CELL = 2

@dataclass
class Op:
    """One timed call. ``run`` is timed; ``check`` is not. A check that
    compares with the library's own values computes them once, on its first
    call, through ``functools.cache``."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    in_slice: bool = False  # large-n query, wrong until log_binomial is mended
    head: bool = False  # the workload's headline call
    labelings: int = 0  # 2^n labelings decided by an oracle trial


@dataclass
class Workload:
    """``round(r)`` gives the operations of round r. Operation i does the same
    kind of work in every round: calc-queries and oracle-generate repeat
    their inputs, oracle-enumerate draws new point sets for every round."""

    name: str
    round: Callable[[int], list[Op]]
    head_name: str


def _first_error(*errors):
    return next((e for e in errors if e), None)


# ---------------------------------------------------------------- calculator


def _cli_runner(sb, argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sb.cli.main(argv)
        return code, out.getvalue()

    return run


def _parse_cli(result, command):
    code, text = result
    if code != 0:
        return None, f"exit code {code}"
    try:
        rec = json.loads(text)
    except ValueError:
        return None, "stdout is not one JSON record"
    if rec.get("command") != command:
        return None, f"command field {rec.get('command')!r}"
    return rec, None


def check_cli_coef(result, n, h, p, lib) -> str | None:
    """``lib()`` gives (shatter_multi, shatter_log) from the library."""
    rec, err = _parse_cli(result, "coef")
    if err:
        return err
    res = rec["result"]
    lib_count, lib_log = lib()
    if rec["inputs"] != {"n": n, "h": h, "p": p}:
        return f"inputs {rec['inputs']}"
    if res["count"] != lib_count or res["log"] != lib_log:
        return "record differs from shatter_multi/shatter_log"
    if rec["flags"] != (["saturated"] if h >= n - 1 else []):
        return f"flags {rec['flags']}"
    return _first_error(ref.check_count(res["count"], n, h, p),
                        ref.check_log_count(res["log"], n, h, p))


def check_cli_bound(result, n, eps, h, p, lib) -> str | None:
    rec, err = _parse_cli(result, "bound")
    if err:
        return err
    res = rec["result"]
    want_inputs = {"n": n, "eps": eps, "h": h, "p": p, "clamp": False}
    if rec["inputs"] != want_inputs:
        return f"inputs {rec['inputs']}"
    if res["delta_log"] != lib():
        return "delta_log differs from delta_bound"
    if rec["flags"] != (["vacuous"] if res["delta_log"] > 0 else []):
        return f"flags {rec['flags']}"
    return _first_error(ref.check_sci(res["delta"], res["delta_log"]),
                        ref.check_log_bound(res["delta_log"], n, eps, h, p))


def check_cli_solve_n(result, delta, eps, h, p, lib) -> str | None:
    """``lib()`` gives (n*, trace, delta_bound at n*) from the library."""
    rec, err = _parse_cli(result, "solve-n")
    if err:
        return err
    res = rec["result"]
    n_star, trace, at_n = lib()
    if rec["inputs"] != {"delta": delta, "eps": eps, "h": h, "p": p,
                         "ceiling": 2**63 - 1}:
        return f"inputs {rec['inputs']}"
    want_trace = {
        "expansion": [[k, v] for k, v in trace.expansion],
        "bracket": list(trace.bracket),
        "bisection_steps": trace.bisection_steps,
        "tail_probes": [[k, v] for k, v in trace.tail_probes],
    }
    if res["n"] != n_star or res["delta_log_at_n"] != at_n or res["trace"] != want_trace:
        return "record differs from solve_min_n_trace/delta_bound"
    return ref.check_min_n(res["n"], delta, eps, h, p)


def check_cli_solve_eps(result, n, delta, h, p, lib) -> str | None:
    rec, err = _parse_cli(result, "solve-eps")
    if err:
        return err
    res = rec["result"]
    if rec["inputs"] != {"n": n, "delta": delta, "h": h, "p": p}:
        return f"inputs {rec['inputs']}"
    if res["epsilon"] != lib() or res["delta_log_target"] != math.log(delta):
        return "record differs from solve_max_eps"
    flags = (["vacuous"] if res["epsilon"] >= 1.0 else []) + (
        ["saturated"] if h >= n - 1 else [])
    if rec["flags"] != flags:
        return f"flags {rec['flags']}"
    return ref.check_max_eps(res["epsilon"], n, delta, h, p)


def check_cli_curve(result, args, out_path, lib) -> str | None:
    """``lib()`` gives the library's emit_epsilon_curve rows for the grid."""
    n0, n1, k, h_list, p_list = args
    rec, err = _parse_cli(result, "curve")
    if err:
        return err
    res = rec["result"]
    if rec["inputs"] != {"n_start": n0, "n_end": n1, "n_points": k, "h_list": h_list,
                         "p_list": p_list, "out": out_path}:
        return f"inputs {rec['inputs']}"
    grid = ref.log_spaced_grid(n0, n1, k)
    fams = sorted((h, p) for h in h_list for p in p_list)
    if res != {"rows": len(grid) * len(fams), "families": len(fams),
               "grid_points": len(grid), "out": out_path}:
        return f"result {res}"
    lines = Path(out_path).read_text(encoding="utf-8").splitlines()
    want_lines = ["n,h,p,epsilon"] + [
        f"{r.n},{r.h},{r.p},{r.epsilon:.10g}" for r in lib()]
    if lines != want_lines:
        return "CSV differs from emit_epsilon_curve"
    expected_keys = [(n, h, p) for h, p in fams for n in grid]
    for line, (n, h, p) in zip(lines[1:], expected_keys):
        cells = line.split(",")
        if (int(cells[0]), int(cells[1]), int(cells[2])) != (n, h, p):
            return f"CSV row {line!r} out of order"
        err = ref.check_curve_value(float(cells[3]), n, h, p, ref.CSV_REL_TOL)
        if err:
            return err
    return None


def _check_pair(result, n, h, p):
    multi, log = result
    return _first_error(ref.check_count(multi, n, h, p),
                        ref.check_log_count(log.log_value, n, h, p))


def _lib_ops(sb, rng_pick, h, p, solve_eps):
    """The four library query kinds for one (h, p) family; the solve draws
    its eps from ``solve_eps``."""
    spec = sb.HypothesisSpec(h, p)
    d, e = rng_pick(DELTAS), rng_pick(solve_eps)
    n_b, e_b = rng_pick(NS), rng_pick(EPSILONS)
    n_x, d_x = rng_pick(NS), rng_pick(DELTAS)
    n_s = rng_pick(NS)
    return [
        Op("solve_min_n", f"solve_min_n({d},{e},h={h},p={p})",
           lambda: sb.solve_min_n(d, e, spec),
           lambda r: ref.check_min_n(r, d, e, h, p), head=True),
        Op("delta_bound", f"delta_bound({n_b},{e_b},h={h},p={p})",
           lambda: sb.delta_bound(n_b, e_b, spec),
           lambda r: ref.check_log_bound(r.log_value, n_b, e_b, h, p)),
        Op("solve_max_eps", f"solve_max_eps({n_x},{d_x},h={h},p={p})",
           lambda: sb.solve_max_eps(n_x, d_x, spec),
           lambda r: ref.check_max_eps(r, n_x, d_x, h, p)),
        Op("shatter_pair", f"shatter_multi/log({n_s},h={h},p={p})",
           lambda: (sb.shatter_multi(n_s, spec), sb.shatter_log(n_s, spec)),
           lambda r: _check_pair(r, n_s, h, p)),
    ]


def _curve_op(sb, n0, n1):
    grid = ref.log_spaced_grid(n0, n1, 40)
    specs = [sb.HypothesisSpec(h, p) for h, p in FAMILIES]

    def check(rows):
        want = [(n, h, p) for h, p in sorted(FAMILIES) for n in grid]
        if [(r.n, r.h, r.p) for r in rows] != want:
            return "curve rows are not the (h, p, n) grid in order"
        return _first_error(*(ref.check_curve_value(r.epsilon, r.n, r.h, r.p)
                              for r in rows))

    return Op("emit_epsilon_curve", f"emit_epsilon_curve({n0}..{n1}x40, 12 families)",
              lambda: sb.emit_epsilon_curve(grid, specs), check)


def _cli_op(sb, kind, argv, check, in_slice=False):
    argv = argv + ["--format", "json"]
    return Op(f"cli.{kind}", "cli " + " ".join(argv), _cli_runner(sb, argv),
              check, in_slice=in_slice)


def _cli_coef(sb, n, h, p, in_slice=False):
    spec = sb.HypothesisSpec(h, p)
    lib = functools.cache(
        lambda: (sb.shatter_multi(n, spec), sb.shatter_log(n, spec).log_value))
    return _cli_op(sb, "coef", ["coef", "--n", str(n), "--h", str(h), "--p", str(p)],
                   lambda r: check_cli_coef(r, n, h, p, lib), in_slice)


def _cli_bound(sb, n, eps, h, p, in_slice=False):
    spec = sb.HypothesisSpec(h, p)
    lib = functools.cache(lambda: sb.delta_bound(n, eps, spec).log_value)
    argv = ["bound", "--n", str(n), "--eps", repr(eps), "--h", str(h), "--p", str(p)]
    return _cli_op(sb, "bound", argv,
                   lambda r: check_cli_bound(r, n, eps, h, p, lib), in_slice)


def _cli_solve_n(sb, delta, eps, h, p, in_slice=False):
    spec = sb.HypothesisSpec(h, p)

    @functools.cache
    def lib():
        n_star, trace = sb.bounds.solve_min_n_trace(delta, eps, spec)
        return n_star, trace, sb.delta_bound(n_star, eps, spec).log_value

    argv = ["solve-n", "--delta", repr(delta), "--eps", repr(eps),
            "--h", str(h), "--p", str(p)]
    return _cli_op(sb, "solve-n", argv,
                   lambda r: check_cli_solve_n(r, delta, eps, h, p, lib), in_slice)


def _cli_solve_eps(sb, n, delta, h, p):
    spec = sb.HypothesisSpec(h, p)
    lib = functools.cache(lambda: sb.solve_max_eps(n, delta, spec))
    argv = ["solve-eps", "--n", str(n), "--delta", repr(delta),
            "--h", str(h), "--p", str(p)]
    return _cli_op(sb, "solve-eps", argv,
                   lambda r: check_cli_solve_eps(r, n, delta, h, p, lib))


def _cli_curve(sb, args, out_path):
    n0, n1, k, h_list, p_list = args
    specs = [sb.HypothesisSpec(h, p) for h in h_list for p in p_list]
    lib = functools.cache(
        lambda: sb.emit_epsilon_curve(ref.log_spaced_grid(n0, n1, k), specs))
    argv = ["curve", "--n-start", str(n0), "--n-end", str(n1), "--n-points", str(k),
            "--h-list", ",".join(map(str, h_list)),
            "--p-list", ",".join(map(str, p_list)), "--out", out_path]
    return _cli_op(sb, "curve", argv,
                   lambda r: check_cli_curve(r, args, out_path, lib))


def large_n_slice(sb) -> list[Op]:
    """Fixed queries with n from 2.6e8 up to 2^63-1. They do not depend on the
    seed. Each one is wrong while log_binomial takes ln C(n, k) as a
    difference of lgamma values, which cancels for large n."""
    slice_ops = []

    def solve(delta, eps, h, p):
        spec = sb.HypothesisSpec(h, p)
        return Op("solve_min_n", f"solve_min_n({delta},{eps},h={h},p={p})",
                  lambda: sb.solve_min_n(delta, eps, spec),
                  lambda r: ref.check_min_n(r, delta, eps, h, p), in_slice=True)

    slice_ops += [solve(0.001, 0.001, 3, 1), solve(0.001, 1e-5, 3, 1),
                  solve(0.01, 1e-4, 3, 16)]
    big = sb.HypothesisSpec(3, 16)
    n12, eps12 = 10**12, 7e-5  # eps where n eps^2/4 is about ln count
    slice_ops.append(Op(
        "delta_bound", f"delta_bound({n12},{eps12},h=3,p=16)",
        lambda: sb.delta_bound(n12, eps12, big),
        lambda r: ref.check_log_bound(r.log_value, n12, eps12, 3, 16), in_slice=True))
    slice_ops.append(Op(
        "solve_max_eps", f"solve_max_eps({n12},0.01,h=3,p=16)",
        lambda: sb.solve_max_eps(n12, 0.01, big),
        lambda r: ref.check_max_eps(r, n12, 0.01, 3, 16), in_slice=True))
    for n, h in ((2**62, 1), (2**63 - 1, 3)):
        spec = sb.HypothesisSpec(h, 1)
        slice_ops.append(Op(
            "shatter_pair", f"shatter_multi/log({n},h={h},p=1)",
            lambda n=n, spec=spec: (sb.shatter_multi(n, spec), sb.shatter_log(n, spec)),
            lambda r, n=n, h=h: _check_pair(r, n, h, 1), in_slice=True))
    slice_ops += [
        _cli_coef(sb, 10**15, 3, 1, in_slice=True),
        _cli_bound(sb, n12, eps12, 3, 16, in_slice=True),
        _cli_solve_n(sb, 0.001, 0.001, 3, 1, in_slice=True),
    ]
    return slice_ops


def calc_queries(sb, seed: int, small: bool, out_dir: Path) -> Workload:
    rng = random.Random(f"calc-queries:{seed}")
    pick = rng.choice
    # each family solves once with a small eps (large n*) and once with a
    # large one, so the seed moves the solver's cost mix little
    strata = (EPSILONS[:2], EPSILONS[2:])[:1 if small else 2]
    ops: list[Op] = []
    for solve_eps in strata:
        for h, p in FAMILIES:
            ops += _lib_ops(sb, pick, h, p, solve_eps)
    for _ in range(2):
        ops.append(_curve_op(sb, pick(CURVE_STARTS), pick(CURVE_ENDS)))
    for i in range(2):
        h, p = pick(FAMILIES)
        ops.append(_cli_coef(sb, pick(NS), h, p))
        h, p = pick(FAMILIES)
        ops.append(_cli_bound(sb, pick(NS), pick(EPSILONS), h, p))
        h, p = pick(FAMILIES)
        ops.append(_cli_solve_n(sb, pick(DELTAS), pick(EPSILONS), h, p))
        h, p = pick(FAMILIES)
        ops.append(_cli_solve_eps(sb, pick(NS), pick(DELTAS), h, p))
        args = (pick(CURVE_STARTS), pick(CURVE_ENDS), pick((10, 20)),
                sorted(rng.sample((1, 2, 3, 4), 2)), sorted(rng.sample((1, 4, 16), 2)))
        ops.append(_cli_curve(sb, args, str(out_dir / f"curve-{i}.csv")))
    ops += large_n_slice(sb)
    rng.shuffle(ops)
    return Workload("calc-queries", lambda r: ops, "solve_min_n")


# -------------------------------------------------------------------- oracle


def check_verify(report, n, h, trial_seed) -> str | None:
    want = ref.count(n, h)
    if (report.n, report.h, report.trials, report.seed) != (n, h, 1, trial_seed):
        return "report does not echo its inputs"
    if report.formula_count != want:
        return f"formula_count {report.formula_count} != {want}"
    counts = [t.count for t in report.results]
    if counts != [want]:
        return f"oracle counts {counts} != {want}"
    if report.passed is not True:
        return "report not marked passed"
    return None


def oracle_enumerate(sb, seed: int, small: bool, out_dir: Path) -> Workload:
    """Single-trial verify calls on point sets drawn anew for every round: a
    cell's cost depends on its points, and a run then averages over many
    sets instead of resting on the few one seed draws."""
    cells = ENUMERATE_CELLS_SMALL if small else ENUMERATE_CELLS

    def round_ops(r):
        rng = random.Random(f"oracle-enumerate:{seed}:{r}")
        ops = []
        for n, h in (cell for cell in cells for _ in range(TRIALS_PER_CELL)):
            ts = rng.randrange(2**32)
            ops.append(Op(
                "verify_formula", f"verify_formula({n},{h},trials=1,seed={ts})",
                lambda n=n, h=h, ts=ts: sb.verify_formula(n, h, 1, ts, workers=1),
                lambda rep, n=n, h=h, ts=ts: check_verify(rep, n, h, ts),
                head=(n, h) == cells[-1], labelings=2**n))
        return ops

    return Workload("oracle-enumerate", round_ops, f"verify_formula{cells[-1]}")


def oracle_generate(sb, seed: int, small: bool, out_dir: Path) -> Workload:
    """Each round regenerates every set from the same seed; the check requires
    the points of the first round again."""
    cells = GENERATE_CELLS_SMALL if small else GENERATE_CELLS
    rng = random.Random(f"oracle-generate:{seed}")
    ops = []
    for n, h in (cell for cell in cells for _ in range(TRIALS_PER_CELL)):
        gs = rng.randrange(2**32)
        first: list = []

        def run(n=n, h=h, gs=gs):
            ps = sb.generate_general_position(n, h, gs)
            return ps, sb.PointSet(dim=h, points=ps.points)

        def check(result, n=n, h=h, gs=gs, first=first):
            ps, rebuilt = result
            if (ps.dim, len(ps.points), ps.seed) != (h, n, gs):
                return "point set does not echo its inputs"
            if rebuilt.points != ps.points:
                return "rebuilt PointSet changed the points"
            if first:
                return None if ps.points == first[0] else \
                    f"seed {gs} regenerated different points"
            err = ref.check_general_position(ps.points, h)
            if err is None:
                first.append(ps.points)
            return err

        ops.append(Op("generate_general_position",
                      f"generate_general_position({n},{h},seed={gs})+PointSet",
                      run, check, head=(n, h) == cells[-1]))
    return Workload("oracle-generate", lambda r: ops,
                    f"generate_general_position{cells[-1]}")


BUILDERS = {
    "calc-queries": calc_queries,
    "oracle-enumerate": oracle_enumerate,
    "oracle-generate": oracle_generate,
}
