"""The calculator over its accepted domain: every command, run in process
through ``main``, finishes within a budget of BUDGET_S seconds of wall time,
enforced by a timer on the test's own process.

The log count folds min(h, n - 1) binomial terms, so its cost grows
linearly in h; the calls below are the ones known to run past the budget,
held as strict xfails until the count takes bounded time.
"""

import signal

import pytest

from shatterbound.cli import main

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
