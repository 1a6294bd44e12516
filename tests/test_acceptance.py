"""Acceptance gate: every release criterion with its stated tolerance.

Each test prints one `ACCEPTANCE <k> PASS|FAIL` line (run pytest with -s to
see them on success; failures surface the line in the captured output).
"""

import functools
import json
import math
import random
import time

from shatterbound.bounds import delta_bound, solve_max_eps, solve_min_n
from shatterbound.cli import main
from shatterbound.oracle import count_dichotomies, generate_general_position
from shatterbound.shattering import (
    HypothesisSpec,
    binom_lower_bound,
    binom_upper_bound,
    complement_count,
    shatter_log,
    shatter_multi,
    shatter_upper_closed,
)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:>2} FAIL  {desc}")
                raise
            print(f"ACCEPTANCE {num:>2} PASS  {desc}")

        return wrapper

    return deco


@criterion(1, "minimal sample size reproduces n ~ 1.02678e6 within 0.5% in < 1 s")
def test_01_headline_sample_size():
    t0 = time.monotonic()
    n_star = solve_min_n(0.01, 0.05, HypothesisSpec(h=3, p=16))
    elapsed = time.monotonic() - t0
    assert abs(n_star - 1.02678e6) <= 0.005 * 1.02678e6, n_star
    assert elapsed < 1.0, f"solver took {elapsed:.3f}s"


@criterion(2, "four-point ladder constants 2 / 8 / 14 are exact")
def test_02_ladder_constants():
    assert shatter_multi(4, HypothesisSpec(0)) == 2
    assert shatter_multi(4, HypothesisSpec(1)) == 8
    assert shatter_multi(4, HypothesisSpec(2)) == 14


@criterion(3, "brute-force oracle equals the formula for n<=10, h<=3, 3 seeds each")
def test_03_oracle_equivalence():
    rng = random.Random(2024)
    t0 = time.monotonic()
    for n in range(2, 11):
        for h in (1, 2, 3):
            for _ in range(3):
                seed = rng.randrange(2**32)
                ps = generate_general_position(n, h, seed)
                got = count_dichotomies(ps)
                want = shatter_multi(n, HypothesisSpec(h))
                assert got == want, (n, h, seed, got, want)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


@criterion(4, "count + complement = 2^n exactly for 1 <= h < n <= 64")
def test_04_complement_identity():
    for n in range(2, 65):
        for h in range(1, n):
            assert shatter_multi(n, HypothesisSpec(h)) + complement_count(n, h) == 2**n


@criterion(5, "binomial sandwich holds with zero violations for 1 <= k <= m <= 100")
def test_05_binomial_sandwich():
    for m in range(1, 101):
        for k in range(1, m + 1):
            mid = math.log(math.comb(m, k))
            assert binom_lower_bound(m, k).log_value <= mid
            assert mid <= binom_upper_bound(m, k).log_value


@criterion(6, "closed-form bound dominates the count for n<=100, h<=4, p in {1,2,16}")
def test_06_closed_form_dominance():
    for h in (1, 2, 3, 4):
        for p in (1, 2, 16):
            spec = HypothesisSpec(h, p)
            for n in range(2, 101):
                assert (
                    shatter_log(n, spec).log_value
                    <= shatter_upper_closed(n, spec).log_value
                ), (n, h, p)


@criterion(7, "bound(solve_max_eps(...)) returns the target delta to 1e-9, 100 cases")
def test_07_inversion_round_trip():
    rng = random.Random(77)
    checked = 0
    while checked < 100:
        n = rng.randrange(10**4, 10**6)
        delta = rng.uniform(1e-6, 0.9)
        spec = HypothesisSpec(h=rng.randrange(0, 5), p=rng.randrange(1, 17))
        eps = solve_max_eps(n, delta, spec)
        assert 0.0 < eps < 1.0, "suite draws only non-vacuous cases"
        back = delta_bound(n, eps, spec).log_value
        assert abs(back - math.log(delta)) <= 1e-9, (n, delta, spec)
        checked += 1


@criterion(8, "exact and log paths agree to 1e-9 relative, including n=1e6, h=3, p=16")
def test_08_exact_log_agreement():
    cases = [
        (n, h, p)
        for n in list(range(1, 101)) + [10**3]
        for h in range(0, 5)
        for p in (1, 2, 16)
    ]
    cases.append((10**6, 3, 16))
    for n, h, p in cases:
        spec = HypothesisSpec(h, p)
        exact = math.log(shatter_multi(n, spec))
        got = shatter_log(n, spec).log_value
        assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact)), (n, h, p)


@criterion(9, "emitted curves: strict upward offset in h and p, decreasing for n >= 1e3")
def test_09_curve_properties(tmp_path, capsys):
    out = str(tmp_path / "curves.csv")
    code = main(
        [
            "curve", "--n-start", "100", "--n-end", "10000000", "--n-points", "40",
            "--h-list", "2,3", "--p-list", "1,16", "--out", out, "--format", "json",
        ]
    )
    capsys.readouterr()
    assert code == 0
    table = {}
    grid = []
    for line in open(out, encoding="utf-8").read().splitlines()[1:]:
        n_s, h_s, p_s, eps_s = line.split(",")
        n, h, p = int(n_s), int(h_s), int(p_s)
        table[(h, p, n)] = float(eps_s)
        if (h, p) == (2, 1):
            grid.append(n)
    for n in grid:
        for p in (1, 16):
            assert table[(3, p, n)] > table[(2, p, n)], ("h offset", n, p)
        for h in (2, 3):
            assert table[(h, 16, n)] > table[(h, 1, n)], ("p offset", n, h)
    for h, p in [(2, 1), (2, 16), (3, 1), (3, 16)]:
        tail = [table[(h, p, n)] for n in grid if n >= 1000]
        assert all(a > b for a, b in zip(tail, tail[1:])), ("decreasing", h, p)


@criterion(10, "verification counts are identical for workers in {1, 2, 4}")
def test_10_worker_determinism(capsys):
    outputs = []
    for w in ("1", "2", "4"):
        code = main(
            [
                "verify", "--n", "8", "--h", "2", "--trials", "3", "--seed", "5",
                "--workers", w, "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        rec = json.loads(out)
        outputs.append(
            (rec["result"]["formula_count"],
             [t["count"] for t in rec["result"]["trials"]])
        )
    assert outputs[0] == outputs[1] == outputs[2]
