"""The calculator over its accepted domain, integers n, h and p (and a
solver's ceiling, a curve's grid, the sandwich's m) up to 2^63-1.

Past the domain, every public calculator raises a ValueError that names the
argument and the limit, and every calculator command exits 1 with one
stderr line. At the domain's top corner the log path gives finite floats.
Every command, run in process through ``main``, finishes within a budget of
BUDGET_S seconds of wall time, enforced by a timer on the test's own process.

The log count folds min(h, n - 1) binomial terms, so its cost grows
linearly in h; the calls below are the ones known to run past the budget,
held as strict xfails until the count takes bounded time. The exact path
(shatter_multi, complement_count, coef's count) costs about its output's
size, so its corners are left out.
"""

import math
import signal

import pytest

from shatterbound import (
    HypothesisSpec,
    NoBracketError,
    binom_lower_bound,
    binom_upper_bound,
    complement_count,
    delta_bound,
    emit_epsilon_curve,
    epsilon_curve,
    shatter_log,
    shatter_multi,
    shatter_upper_closed,
    solve_max_eps,
    solve_min_n,
)
from shatterbound.cli import main

MAX = 2**63 - 1
SPEC = HypothesisSpec(3, 2)

BUDGET_S = 1.0


class Overtime(Exception):
    """A call ran past its budget."""


def within_budget(argv):
    """main(argv), stopped by Overtime once BUDGET_S seconds have passed."""

    def stop(signum, frame):
        raise Overtime(f"{' '.join(argv)} ran past {BUDGET_S} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.xfail(strict=True, raises=Overtime, reason="ROADMAP item 17")
@pytest.mark.parametrize(
    "argv",
    [
        ["coef", "--n", "1000000000", "--h", "100000000"],
        ["solve-n", "--delta", "0.01", "--eps", "0.5", "--h", "10000000"],
        ["solve-eps", "--n", "100000000", "--delta", "0.01", "--h", "50000000"],
    ],
    ids=["coef", "solve-n", "solve-eps"],
)
def test_large_h_within_budget(capsys, argv):
    # a finite result, or a usage or no-convergence exit naming the inputs
    # on one stderr line
    code = within_budget(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 3)
    assert len(err.splitlines()) == (0 if code == 0 else 1)


# (call with one integer argument at `big`, the name its message gives)
PAST_THE_DOMAIN = {
    "HypothesisSpec-h": (lambda big: HypothesisSpec(big, 1), "dimension h"),
    "HypothesisSpec-p": (lambda big: HypothesisSpec(1, big), "hyperplane count p"),
    "shatter_multi-n": (lambda big: shatter_multi(big, SPEC), "sample size n"),
    "shatter_log-n": (lambda big: shatter_log(big, SPEC), "sample size n"),
    "complement_count-n": (lambda big: complement_count(big, 3), "sample size n"),
    "complement_count-h": (lambda big: complement_count(5, big), "dimension h"),
    "shatter_upper_closed-n": (lambda big: shatter_upper_closed(big, SPEC), "sample size n"),
    "binom_lower_bound-m": (lambda big: binom_lower_bound(big, 3), "m"),
    "binom_upper_bound-m": (lambda big: binom_upper_bound(big, 3), "m"),
    # k <= m, so a k past the domain has an m past it too
    "binom_lower_bound-k": (lambda big: binom_lower_bound(big, big), "m"),
    "binom_upper_bound-k": (lambda big: binom_upper_bound(big, big), "m"),
    "delta_bound-n": (lambda big: delta_bound(big, 0.05, SPEC), "sample size n"),
    "solve_min_n-ceiling": (lambda big: solve_min_n(0.01, 0.05, SPEC, ceiling=big), "ceiling"),
    "solve_max_eps-n": (lambda big: solve_max_eps(big, 0.01, SPEC), "sample size n"),
    "emit_epsilon_curve-n": (lambda big: emit_epsilon_curve([2, big], [SPEC]), "sample size n"),
    "epsilon_curve-n": (lambda big: epsilon_curve(big, SPEC), "sample size n"),
}


@pytest.mark.parametrize("big", [2**63, 10**400], ids=["2^63", "1e400"])
@pytest.mark.parametrize("case", PAST_THE_DOMAIN.values(), ids=PAST_THE_DOMAIN.keys())
def test_library_refuses_past_the_domain(case, big):
    call, name = case
    with pytest.raises(ValueError) as info:
        call(big)
    assert str(info.value) == f"{name} must be at most 2^63-1, got {big}"


# (call with an int past str()'s digit limit, the message it must give)
HUGE = 10**5000
PAST_THE_DIGIT_LIMIT = {
    "HypothesisSpec-p": (lambda: HypothesisSpec(1, HUGE),
                         "hyperplane count p must be at most 2^63-1, got an int of 16610 bits"),
    "HypothesisSpec-h-negative": (lambda: HypothesisSpec(-HUGE),
                                  "dimension h must be nonnegative, got a negative int of 16610 bits"),
    "HypothesisSpec-p-negative": (lambda: HypothesisSpec(1, -HUGE),
                                  "hyperplane count p must be positive, got a negative int of 16610 bits"),
    "shatter_log-n": (lambda: shatter_log(HUGE, SPEC),
                      "sample size n must be at most 2^63-1, got an int of 16610 bits"),
    "complement_count-h": (lambda: complement_count(5, HUGE),
                           "dimension h must be at most 2^63-1, got an int of 16610 bits"),
    "complement_count-h-negative": (lambda: complement_count(5, -HUGE),
                                    "dimension h must be nonnegative, got a negative int of 16610 bits"),
    "shatter_multi-n-negative": (lambda: shatter_multi(-HUGE, SPEC),
                                 "sample size n must be positive, got a negative int of 16610 bits"),
    "shatter_upper_closed-n-negative": (lambda: shatter_upper_closed(-HUGE, SPEC),
                                        "closed-form bound needs n >= 2, got a negative int of 16610 bits"),
    "binom_lower_bound-k": (lambda: binom_lower_bound(3, HUGE),
                            "bounds hold for m >= k > 0, got (m=3, k=an int of 16610 bits)"),
    "binom_upper_bound-m-k": (lambda: binom_upper_bound(HUGE, 10 * HUGE),
                              "bounds hold for m >= k > 0, got (m=an int of 16610 bits, k=an int of 16613 bits)"),
    "emit_epsilon_curve-n-negative": (lambda: emit_epsilon_curve([-HUGE], [SPEC]),
                                      "divergence curve needs n >= 2, got a negative int of 16610 bits"),
    "solve_min_n-ceiling-negative": (lambda: solve_min_n(0.01, 0.05, SPEC, ceiling=-HUGE),
                                     "sample size n must be positive, got a negative int of 16610 bits"),
}


@pytest.mark.parametrize("case", PAST_THE_DIGIT_LIMIT.values(), ids=PAST_THE_DIGIT_LIMIT.keys())
def test_messages_name_an_int_past_the_digit_limit(case):
    # str() refuses an int of more than sys.get_int_max_str_digits() digits,
    # so the message gives its bit length and still names the argument
    call, message = case
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


BIG = str(2**63)


CLI_PAST_THE_DOMAIN = [
    (["coef", "--n", BIG, "--h", "3"], "sample size n"),
    (["coef", "--n", "9", "--h", BIG], "dimension h"),
    (["coef", "--n", "9", "--h", "3", "--p", BIG], "hyperplane count p"),
    (["bound", "--n", BIG, "--eps", "0.05", "--h", "3"], "sample size n"),
    (["bound", "--n", "9", "--eps", "0.05", "--h", BIG], "dimension h"),
    (["bound", "--n", "9", "--eps", "0.05", "--h", "3", "--p", BIG], "hyperplane count p"),
    (["solve-n", "--delta", "0.01", "--eps", "0.05", "--h", BIG], "dimension h"),
    (["solve-n", "--delta", "0.01", "--eps", "0.05", "--h", "3", "--p", BIG],
     "hyperplane count p"),
    (["solve-n", "--delta", "0.01", "--eps", "0.05", "--h", "3", "--ceiling", BIG],
     "ceiling"),
    (["solve-eps", "--n", BIG, "--delta", "0.01", "--h", "3"], "sample size n"),
    (["solve-eps", "--n", "9", "--delta", "0.01", "--h", BIG], "dimension h"),
    (["solve-eps", "--n", "9", "--delta", "0.01", "--h", "3", "--p", BIG],
     "hyperplane count p"),
    (["curve", "--n-start", "2", "--n-end", BIG, "--n-points", "3",
      "--h-list", "1", "--p-list", "1", "--out", "c.csv"], "--n-end"),
    (["curve", "--n-start", "2", "--n-end", "9", "--n-points", "3",
      "--h-list", BIG, "--p-list", "1", "--out", "c.csv"], "dimension h"),
    (["curve", "--n-start", "2", "--n-end", "9", "--n-points", "3",
      "--h-list", "1", "--p-list", BIG, "--out", "c.csv"], "hyperplane count p"),
]


@pytest.mark.parametrize("argv, name", CLI_PAST_THE_DOMAIN,
                         ids=[f"{a[0]}{a[a.index(BIG) - 1]}" for a, _ in CLI_PAST_THE_DOMAIN])
def test_cli_refuses_past_the_domain(capsys, tmp_path, monkeypatch, argv, name):
    monkeypatch.chdir(tmp_path)
    code = within_budget(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: {name} must be at most 2^63-1, got {BIG}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("h", [0, 4])
def test_log_path_at_the_domain_corner(h):
    # n = p = 2^63-1: every float the log path forms is finite
    spec = HypothesisSpec(h, MAX)
    values = [
        shatter_log(MAX, spec).log_value,
        delta_bound(MAX, 0.05, spec).log_value,
        solve_max_eps(MAX, 0.01, spec),
        epsilon_curve(MAX, spec),
    ]
    assert all(type(v) is float and math.isfinite(v) for v in values)
    try:
        n_star = solve_min_n(0.01, 0.05, spec)
    except NoBracketError as exc:
        assert math.isfinite(exc.last_log)
    else:
        assert 1 <= n_star <= MAX


def test_closed_form_and_curve_at_h_and_p_at_the_top():
    spec = HypothesisSpec(MAX, MAX)
    assert math.isfinite(shatter_upper_closed(MAX, spec).log_value)
    rows = emit_epsilon_curve([2, 3, MAX], [spec, HypothesisSpec(0, 1)])
    assert len(rows) == 6
    assert all(math.isfinite(r.epsilon) for r in rows)
