"""Self-test of the benchmark: each check rejects a wrong answer, the seeded
query pools hold no wrong answer, and every workload runs at its smallest size.

    python3 bench/selftest.py

Prints one line per test and exits 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import reference as ref
import run
import workloads as wl

HERE = Path(__file__).resolve().parent
FAILURES: list[str] = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(("PASS " if ok else "FAIL ") + name + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def test_min_n_off_by_one(sb):
    spec = sb.HypothesisSpec(3, 16)
    n_star = sb.solve_min_n(0.01, 0.05, spec)
    expect("n* accepted", ref.check_min_n(n_star, 0.01, 0.05, 3, 16) is None)
    for wrong in (n_star - 1, n_star + 1):
        expect(f"n* {wrong - n_star:+d} rejected",
               ref.check_min_n(wrong, 0.01, 0.05, 3, 16) is not None)
    # At eps = 1e-5 one step of n moves ln delta by about 2.4e-11; the
    # package's answer is wrong there today, so n* comes from the reference.
    n_star = ref.min_n(0.001, 1e-5, 3, 1, 10**12, 10**13)
    expect("large n* from the reference accepted",
           ref.check_min_n(n_star, 0.001, 1e-5, 3, 1) is None)
    for wrong in (n_star - 1, n_star + 1):
        expect(f"large n* {wrong - n_star:+d} rejected",
               ref.check_min_n(wrong, 0.001, 1e-5, 3, 1) is not None)


def test_oracle_count_off_by_two(sb):
    rep = sb.verify_formula(7, 2, 1, 5, workers=1)
    expect("oracle report accepted", wl.check_verify(rep, 7, 2, 5) is None)
    trial = rep.results[0]
    bad = dataclasses.replace(rep, results=(dataclasses.replace(trial, count=trial.count + 2),))
    expect("oracle count +2 rejected", wl.check_verify(bad, 7, 2, 5) is not None)
    bad = dataclasses.replace(rep, formula_count=rep.formula_count + 2)
    expect("formula count +2 rejected", wl.check_verify(bad, 7, 2, 5) is not None)


def test_collinear_points(sb):
    ps = sb.generate_general_position(9, 2, 11)
    expect("generated set accepted", ref.check_general_position(ps.points, 2) is None)
    collinear = ((0, 0), (3, 1), (6, 2), (5, -3), (7, 11))
    expect("three collinear points rejected",
           ref.check_general_position(collinear, 2) is not None)
    coplanar = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0), (1, 1, 5))
    expect("four coplanar points rejected",
           ref.check_general_position(coplanar, 3) is not None)
    expect("repeated point rejected",
           ref.check_general_position(((1, 2), (3, 4), (1, 2)), 2) is not None)


def _tamper(result, path, value):
    code, text = result
    rec = json.loads(text)
    node = rec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]])
    return code, json.dumps(rec) + "\n"


def test_cli_changed_field(sb):
    out = run.OUT
    out.mkdir(exist_ok=True)
    cases = [
        (wl._cli_coef(sb, 1000, 3, 4), [("result", "count"), ("result", "log"),
                                        ("inputs", "p")]),
        (wl._cli_bound(sb, 5000, 0.1, 2, 4), [("result", "delta_log"), ("result", "delta")]),
        (wl._cli_solve_n(sb, 0.01, 0.1, 2, 4), [("result", "n"),
                                                ("result", "trace", "bisection_steps")]),
        (wl._cli_solve_eps(sb, 5000, 0.01, 2, 4), [("result", "epsilon"), ("flags",)]),
        (wl._cli_curve(sb, (10, 10**4, 10, [1, 3], [1, 4]), str(out / "curve-selftest.csv")),
         [("result", "rows"), ("inputs", "p_list")]),
    ]
    changes = {int: lambda v: v + 1, float: lambda v: v * (1 + 1e-6),
               str: lambda v: ("2" if v[0] != "2" else "3") + v[1:], list: lambda v: v + ["extra"]}
    for op, paths in cases:
        result = op.run()
        expect(f"{op.kind} record accepted", op.check(result) is None, op.check(result))
        for path in paths:
            rec = json.loads(result[1])
            node = rec
            for key in path:
                node = node[key]
            bad = _tamper(result, path, changes[type(node)])
            expect(f"{op.kind} changed {'.'.join(path)} rejected", op.check(bad) is not None)
    csv = out / "curve-selftest.csv"
    lines = csv.read_text().splitlines()
    lines[3] = lines[3][:-1] + ("1" if lines[3][-1] != "1" else "2")
    csv.write_text("\n".join(lines) + "\n")
    expect("curve changed CSV value rejected", cases[-1][0].check(result) is not None)
    csv.unlink()


def test_pools(sb):
    """Every query the seeded grid can draw is answered correctly today."""
    bad = []
    for h, p in wl.FAMILIES:
        spec = sb.HypothesisSpec(h, p)
        for d in wl.DELTAS:
            for e in wl.EPSILONS:
                err = ref.check_min_n(sb.solve_min_n(d, e, spec), d, e, h, p)
                bad += [err] if err else []
        for n in wl.NS:
            err = wl._check_pair((sb.shatter_multi(n, spec), sb.shatter_log(n, spec)), n, h, p)
            bad += [err] if err else []
            for e in wl.EPSILONS:
                err = ref.check_log_bound(sb.delta_bound(n, e, spec).log_value, n, e, h, p)
                bad += [err] if err else []
            for d in wl.DELTAS:
                err = ref.check_max_eps(sb.solve_max_eps(n, d, spec), n, d, h, p)
                bad += [err] if err else []
    expect("seeded query pools all correct", not bad, "; ".join(bad[:3]))


def test_slice_fails(sb):
    """Each large-n query fails its check today. This test fails once
    log_binomial is mended, when the slice stops being a failing one."""
    ops = wl.large_n_slice(sb)
    passing = []
    for op in ops:
        try:
            if op.check(op.run()) is None:
                passing.append(op.label)
        except Exception:
            pass
    expect(f"each of the {len(ops)} large-n queries fails", not passing,
           "now correct: " + ", ".join(passing))


def run_small(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--small"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_small_runs():
    for workload in wl.BUILDERS:
        shares = set()
        for seed in (1, 2):
            res = run_small(workload, seed, 0)
            shares.add(res["failed"] / res["attempted"])
            expect(f"{workload} seed {seed} correct", res["correct"] is True)
            if workload != "calc-queries":
                expect(f"{workload} seed {seed} no failures", res["failed"] == 0)
        expect(f"{workload} failed share equal across seeds", len(shares) == 1, str(shares))
    traced = run_small("oracle-generate", 1, 1)["metrics"]
    expect("oracle-generate runs no LP", traced["rational_lp.simplex_max.calls"]["value"] == 0)
    traced = run_small("calc-queries", 1, 1)["metrics"]
    oracle = {k: v["value"] for k, v in traced.items()
              if k.startswith(("oracle.", "rational_lp.")) and v["value"]}
    expect("calc-queries records no oracle or LP spans", not oracle, str(oracle))
    spans = (run.OUT / "spans-calc-queries-seed1.jsonl").read_text().splitlines()[1:]
    expect("calc-queries span file has no oracle spans",
           not any(json.loads(s)[1].startswith("oracle.") for s in spans))


def main() -> int:
    sb = run.import_package()
    test_min_n_off_by_one(sb)
    test_oracle_count_off_by_two(sb)
    test_collinear_points(sb)
    test_cli_changed_field(sb)
    test_pools(sb)
    test_slice_fails(sb)
    test_small_runs()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
