import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shatterbound.bounds import (
    DEFAULT_CEILING,
    NoBracketError,
    delta_bound,
    solve_max_eps,
    solve_min_n,
    solve_min_n_trace,
)
from shatterbound.logarithmetic import LN2, LogNum
from shatterbound.shattering import (
    CurveRow,
    HypothesisSpec,
    emit_epsilon_curve,
    epsilon_curve,
    shatter_log,
)

LN_001 = math.log(0.01)
MAX = 2**63 - 1
# the calculator's (h, p) families and the flat space h = 0
FAMILIES = tuple(itertools.product((0, 1, 2, 3, 4), (1, 4, 16)))
PAST_THE_DOMAIN = pytest.mark.parametrize(
    "big", [2**63, 10**308, 10**400], ids=["2^63", "1e308", "1e400"])


def bound_evaluations(monkeypatch):
    """The n of every _log_bound call the solver makes, live."""
    import shatterbound.bounds as bounds

    seen = []
    real = bounds._log_bound

    def counted(n, eps, h, p):
        seen.append(n)
        return real(n, eps, h, p)

    monkeypatch.setattr(bounds, "_log_bound", counted)
    return seen


class TestDeltaBound:
    def test_single_sample(self):
        got = delta_bound(1, 0.5, HypothesisSpec(1, 1)).log_value
        assert got == pytest.approx(1.3237943611198906, abs=1e-12)

    def test_four_points_dimension_two(self):
        got = delta_bound(4, 0.5, HypothesisSpec(2, 1)).log_value
        assert got == pytest.approx(3.082204510175204, abs=1e-12)

    def test_headline_sample_size_gives_delta_near_one_percent(self):
        got = delta_bound(1026780, 0.05, HypothesisSpec(3, 16)).log_value
        assert abs(got - LN_001) <= 0.15

    def test_rejects_eps_outside_unit_interval(self):
        with pytest.raises(ValueError):
            delta_bound(10, 1.0, HypothesisSpec(1, 1))

    @PAST_THE_DOMAIN
    def test_p_past_the_domain_raises(self, big):
        with pytest.raises(ValueError, match=rf"^hyperplane count p must be at most 2\^63-1, got {big}$"):
            delta_bound(100, 0.5, HypothesisSpec(3, big))

    @PAST_THE_DOMAIN
    def test_n_past_the_domain_raises(self, big):
        with pytest.raises(ValueError, match=rf"^sample size n must be at most 2\^63-1, got {big}$"):
            delta_bound(big, 0.5, HypothesisSpec(3))

    @pytest.mark.parametrize("n,p", [(100, MAX), (MAX, 1), (MAX, MAX)])
    def test_domain_corner_is_finite(self, n, p):
        spec = HypothesisSpec(3, p)
        got = delta_bound(n, 0.5, spec).log_value
        assert got == LN2 + shatter_log(n, spec).log_value - n * 0.5 * 0.5 / 4.0
        assert math.isfinite(got)


class TestSolveMinN:
    def test_headline_example(self):
        n_star = solve_min_n(0.01, 0.05, HypothesisSpec(3, 16))
        assert abs(n_star - 1.02678e6) <= 0.005 * 1.02678e6

    def test_crossing_is_tight(self):
        spec = HypothesisSpec(3, 16)
        n_star = solve_min_n(0.01, 0.05, spec)
        assert delta_bound(n_star, 0.05, spec).log_value <= LN_001
        assert delta_bound(n_star - 1, 0.05, spec).log_value > LN_001

    def test_flat_space_closed_form(self):
        # h=0 keeps the count at 2, so the bound is ln4 - n*eps^2/4 and the
        # crossing is the first integer past (ln4 - ln delta)/(eps^2/4)
        expected = math.ceil((math.log(4) - LN_001) / (0.05**2 / 4))
        assert expected == 9587
        assert solve_min_n(0.01, 0.05, HypothesisSpec(0, 1)) == expected

    def test_smaller_delta_needs_more_samples(self):
        spec = HypothesisSpec(3, 16)
        assert solve_min_n(0.001, 0.05, spec) > solve_min_n(0.01, 0.05, spec)

    def test_strictly_decreasing_past_crossing(self):
        spec = HypothesisSpec(3, 16)
        n_star, trace = solve_min_n_trace(0.01, 0.05, spec)
        prev = delta_bound(n_star, 0.05, spec).log_value
        for k in range(1, 101):
            cur = delta_bound(n_star + k * 997, 0.05, spec).log_value
            assert cur < prev
            assert cur <= LN_001
            prev = cur
        assert trace.bracket[0] < n_star <= trace.bracket[1]

    def test_unreachable_target_raises(self):
        with pytest.raises(NoBracketError):
            solve_min_n(0.01, 0.05, HypothesisSpec(3, 16), ceiling=1000)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_rejects_delta_outside_unit_interval(self, delta):
        with pytest.raises(ValueError, match="delta"):
            solve_min_n(delta, 0.05, HypothesisSpec(1, 1))

    def test_calculator_families_cross_the_target_once(self):
        # an exact scan of every n up to n* on each calculator family
        # (h in 1..4, p in 1, 4, 16) at eps = 0.2, the largest n* being
        # 66 595 at (4, 16): the bound stays above the target until n* and
        # meets it there, so the first expansion probe at or below the target
        # brackets the one crossing and every earlier probe lies above it
        scanned = 0
        for h, p in itertools.product((1, 2, 3, 4), (1, 4, 16)):
            spec = HypothesisSpec(h, p)
            n_star, trace = solve_min_n_trace(0.01, 0.2, spec)
            scanned += 1
            assert all(
                delta_bound(n, 0.2, spec).log_value > LN_001 for n in range(1, n_star)
            )
            assert delta_bound(n_star, 0.2, spec).log_value <= LN_001
            *above, (last_n, last) = trace.expansion
            assert all(v > LN_001 for _, v in above)
            assert last <= LN_001 and last_n == trace.bracket[1]
        assert scanned == 12

    @PAST_THE_DOMAIN
    def test_p_past_the_domain_raises(self, big):
        with pytest.raises(ValueError, match=rf"^hyperplane count p must be at most 2\^63-1, got {big}$"):
            solve_min_n(0.01, 0.05, HypothesisSpec(3, big))

    @PAST_THE_DOMAIN
    def test_ceiling_past_the_domain_raises(self, big):
        with pytest.raises(ValueError, match=rf"^ceiling must be at most 2\^63-1, got {big}$"):
            solve_min_n(0.01, 1e-300, HypothesisSpec(1), ceiling=big)

    @pytest.mark.parametrize("p", [1, MAX], ids=["1", "2^63-1"])
    def test_ladder_to_the_top_of_the_domain_finds_no_bracket(self, p):
        # at eps = 1e-300 the bound stays above the target up to 2^63-1, and
        # its value there is a finite float
        with pytest.raises(NoBracketError) as info:
            solve_min_n(0.01, 1e-300, HypothesisSpec(1, p))
        assert info.value.ceiling == MAX
        assert LN_001 < info.value.last_log < math.inf

    @pytest.mark.parametrize(
        "ceiling", [1026778, 1048576], ids=["crossing-at-ceiling", "power-of-two-ceiling"])
    def test_ceiling_is_the_ladders_last_rung(self, ceiling):
        # the headline's steps land on 1026777 and then n* = 1026778, which
        # is the ceiling or below it; a ceiling the steps never reach is
        # never probed
        n_star, trace = solve_min_n_trace(0.01, 0.05, HypothesisSpec(3, 16), ceiling)
        assert n_star == 1026778
        assert trace.bracket == (1026777, 1026778)
        assert [n for n, _ in trace.expansion][-2:] == [1026777, 1026778]

    def test_step_past_the_ceiling_lands_on_it(self, monkeypatch):
        # from 993741 the headline steps to 1024267; a ceiling of 10^6 takes
        # that probe's place and, above the target, ends the search
        seen = bound_evaluations(monkeypatch)
        with pytest.raises(NoBracketError) as info:
            solve_min_n_trace(0.01, 0.05, HypothesisSpec(3, 16), 10**6)
        assert seen == [1, 9587, 667817, 993741, 10**6]
        assert info.value.last_log == delta_bound(10**6, 0.05, HypothesisSpec(3, 16)).log_value

    def test_float_band_solves_within_the_ladders_budget(self, monkeypatch):
        # n* near 10^18, where a float step can land past the crossing and
        # the bisection pins it, so the bound at n* - 1 is one the solver
        # compared above the target; no solve that finds a bracket may take
        # more evaluations than the doubling ladder's worst case, 64 rungs
        # and 63 bisection steps
        seen = bound_evaluations(monkeypatch)
        solved = 0
        for h, p in ((0, 1), (1, 1), (2, 1), (1, 4), (3, 16)):
            spec = HypothesisSpec(h, p)
            for k in range(100):
                eps = 5e-9 * (1 + k / 50)
                seen.clear()
                try:
                    n_star = solve_min_n(0.01, eps, spec)
                except NoBracketError:
                    continue
                assert len(seen) <= 64 + 63, (h, p, k)
                assert delta_bound(n_star - 1, eps, spec).log_value > LN_001
                solved += 1
        assert solved == 347

    @pytest.mark.parametrize("eps", [1e-160, 1e-300, 5e-324])
    def test_eps_squared_underflow_steps_to_the_ceiling(self, monkeypatch, eps):
        # eps * eps is subnormal or 0.0, so the step is infinite and lands on
        # the ceiling
        seen = bound_evaluations(monkeypatch)
        with pytest.raises(NoBracketError):
            solve_min_n_trace(0.01, eps, HypothesisSpec(1), 10**9)
        assert seen == [1, 10**9]

    def test_ceiling_just_below_the_crossing_raises(self):
        with pytest.raises(NoBracketError) as info:
            solve_min_n(0.01, 0.05, HypothesisSpec(3, 16), ceiling=1026777)
        assert info.value.ceiling == 1026777
        assert LN_001 < info.value.last_log

    def test_each_point_is_evaluated_once(self, monkeypatch):
        # the expansion already compared n* - 1 and the ceiling, so neither
        # is evaluated again: 9 expansion probes ending at n* and 0 bisection
        # steps at the headline; before NoBracketError, the step from 1 (to
        # 9587) lands on the ceiling 1024
        seen = bound_evaluations(monkeypatch)
        solve_min_n_trace(0.01, 0.05, HypothesisSpec(3, 16))
        assert len(seen) == len(set(seen)) == 9 + 0
        seen.clear()
        with pytest.raises(NoBracketError):
            solve_min_n_trace(0.01, 0.05, HypothesisSpec(3, 16), ceiling=1024)
        assert seen == [1, 1024]

    def test_crossing_at_the_ceiling_probes_no_tail(self, monkeypatch):
        # n* is the expansion's last probe, so nothing past it is probed: 9
        # expansion probes up to the ceiling and 0 bisection steps, each n once
        seen = bound_evaluations(monkeypatch)
        _, trace = solve_min_n_trace(0.01, 0.05, HypothesisSpec(3, 16), 1026778)
        assert len(seen) == len(set(seen)) == 9 + 0
        assert trace.bisection_steps == 0
        assert trace.tail_probes == ()

    @pytest.mark.parametrize(
        "ceiling", [DEFAULT_CEILING, 1026778, 1048576],
        ids=["default", "crossing-at-ceiling", "power-of-two-ceiling"],
    )
    def test_trace_carries_the_value_at_n_star(self, ceiling):
        spec = HypothesisSpec(3, 16)
        n_star, trace = solve_min_n_trace(0.01, 0.05, spec, ceiling)
        assert trace.delta_log_at_n == delta_bound(n_star, 0.05, spec).log_value

    def test_trace_values_equal_delta_bound(self):
        # every value the solver records is the public bound at that n, on
        # each calculator family at a small and a large eps
        for h, p in itertools.product((1, 2, 3, 4), (1, 4, 16)):
            spec = HypothesisSpec(h, p)
            for delta, eps in ((0.01, 0.05), (0.1, 0.2)):
                n_star, trace = solve_min_n_trace(delta, eps, spec)
                for n, v in trace.expansion:
                    assert v == delta_bound(n, eps, spec).log_value
                assert trace.delta_log_at_n == delta_bound(n_star, eps, spec).log_value

    def test_headline_solve_builds_no_lognum_and_checks_eps_once(self, monkeypatch):
        import shatterbound.bounds as bounds

        built, checks = [], []
        real_post, real_eps = LogNum.__post_init__, bounds._require_eps

        def counted_post(num):
            built.append(num.log_value)
            real_post(num)

        def counted_eps(eps):
            checks.append(eps)
            real_eps(eps)

        monkeypatch.setattr(LogNum, "__post_init__", counted_post)
        monkeypatch.setattr(bounds, "_require_eps", counted_eps)
        solve_min_n_trace(0.01, 0.05, HypothesisSpec(3, 16))
        assert (len(built), len(checks)) == (0, 1)

    def test_trace_expansion_takes_the_bounds_step(self):
        # each probe is the previous one plus ceil(4 * (v - ln delta) / eps^2)
        _, trace = solve_min_n_trace(0.01, 0.05, HypothesisSpec(2, 4))
        ns = [n for n, _ in trace.expansion]
        assert ns == [1, 9587, 122501, 155114, 158135, 158382, 158402, 158404]
        assert ns[1:] == [n + math.ceil(4 * (v - LN_001) / 0.05**2)
                          for n, v in trace.expansion[:-1]]

    @pytest.mark.parametrize("eps,families", [
        (0.2, FAMILIES),
        (0.05, FAMILIES),
        (1e-4, FAMILIES),
        (1e-8, ((0, 1), (1, 1), (2, 1), (1, 4))),
    ], ids=["0.2", "0.05", "1e-4", "float-band"])
    def test_evaluates_only_probes_and_bisection_points(self, monkeypatch, eps, families):
        # the bound provably stays at or below the target past n*, so the
        # solver evaluates its expansion probes and then its bisection
        # points, each once, and nothing past the bracket's high end; where
        # the steps land on n* itself that is nothing past n*, and only in
        # the float band (n* from 2^57 to 2^63 at eps = 1e-8) does the last
        # step overshoot n*, leaving the bisection to pin it
        seen = bound_evaluations(monkeypatch)
        for h, p in families:
            seen.clear()
            n_star, trace = solve_min_n_trace(0.01, eps, HypothesisSpec(h, p))
            probes = [n for n, _ in trace.expansion]
            assert len(seen) == len(set(seen)) == len(probes) + trace.bisection_steps
            assert seen[:len(probes)] == probes
            assert max(seen) == trace.bracket[1]
            assert (trace.bracket[1] == n_star) == (eps != 1e-8), (h, p)
            assert trace.tail_probes == ()


class TestSolveMaxEps:
    def test_headline_inversion(self):
        got = solve_max_eps(1026780, 0.01, HypothesisSpec(3, 16))
        assert abs(got - 0.05) <= 0.001

    @PAST_THE_DOMAIN
    def test_p_past_the_domain_raises(self, big):
        with pytest.raises(ValueError, match=rf"^hyperplane count p must be at most 2\^63-1, got {big}$"):
            solve_max_eps(100, 0.01, HypothesisSpec(3, big))

    @PAST_THE_DOMAIN
    def test_n_past_the_domain_raises(self, big):
        # 4.0 / n would make the answer a silent 0.0 past the float range
        with pytest.raises(ValueError, match=rf"^sample size n must be at most 2\^63-1, got {big}$"):
            solve_max_eps(big, 0.01, HypothesisSpec(3))

    @pytest.mark.parametrize("n,p", [(100, MAX), (MAX, 1), (MAX, MAX)])
    def test_domain_corner_is_the_closed_form(self, n, p):
        spec = HypothesisSpec(3, p)
        log_2n = LN2 + shatter_log(n, spec).log_value
        got = solve_max_eps(n, 0.01, spec)
        assert got == math.sqrt((4.0 / n) * (log_2n - LN_001))
        assert 0.0 < got < math.inf

    def test_saturated_case_is_vacuous(self):
        got = solve_max_eps(10, 0.5, HypothesisSpec(9, 1))
        assert got == pytest.approx(1.8240357635440533, abs=1e-12)
        assert got >= 1.0

    def test_rejects_out_of_range_inputs(self):
        with pytest.raises(ValueError, match="delta"):
            solve_max_eps(100, 0.0, HypothesisSpec(1, 1))
        with pytest.raises(ValueError, match="sample size"):
            solve_max_eps(0, 0.5, HypothesisSpec(1, 1))

    def test_round_trip_specific(self):
        spec = HypothesisSpec(2, 4)
        eps = solve_max_eps(1000, 0.05, spec)
        back = delta_bound(1000, eps, spec).log_value
        assert abs(back - math.log(0.05)) <= 1e-9

    @given(
        st.integers(10, 10**6),
        st.floats(min_value=1e-6, max_value=0.5),
        st.integers(0, 4),
        st.integers(1, 16),
    )
    @settings(max_examples=100)
    def test_round_trip_randomized(self, n, delta, h, p):
        spec = HypothesisSpec(h, p)
        eps = solve_max_eps(n, delta, spec)
        if not 0.0 < eps < 1.0:
            return  # vacuous answers fall outside delta_bound's eps domain
        back = delta_bound(n, eps, spec).log_value
        assert abs(back - math.log(delta)) <= 1e-9


class TestEmitEpsilonCurve:
    def test_single_point_grid(self):
        rows = emit_epsilon_curve([10**6], [HypothesisSpec(3, 16)])
        assert len(rows) == 1
        assert rows[0].epsilon == pytest.approx(0.05374885530581072, abs=1e-12)

    def test_row_ordering_and_offsets(self):
        grid = [100, 1000, 10000]
        specs = [HypothesisSpec(3, 16), HypothesisSpec(2, 1), HypothesisSpec(2, 16)]
        rows = emit_epsilon_curve(grid, specs)
        keys = [(r.h, r.p, r.n) for r in rows]
        assert keys == sorted(keys)
        by_key = {(r.h, r.p, r.n): r.epsilon for r in rows}
        for n in grid:
            assert by_key[(3, 16, n)] > by_key[(2, 16, n)] > by_key[(2, 1, n)]

    def test_matches_pointwise_evaluation(self):
        rows = emit_epsilon_curve([50, 500], [HypothesisSpec(1, 2)])
        for row in rows:
            assert row.epsilon == epsilon_curve(row.n, HypothesisSpec(row.h, row.p))

    def test_eventually_decreasing_along_grid(self):
        grid = list(range(10, 2000, 7))
        rows = emit_epsilon_curve(grid, [HypothesisSpec(2, 3)])
        eps = [r.epsilon for r in rows]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_rows_are_epsilon_curve_in_h_p_n_order(self):
        grid = [2, 3, 100, 10**6, 2**63 - 1]
        specs = [HypothesisSpec(3, 16), HypothesisSpec(0, 1), HypothesisSpec(3, 1),
                 HypothesisSpec(1, 4)]
        expected = [
            (n, h, p, epsilon_curve(n, HypothesisSpec(h, p)))
            for h, p in ((0, 1), (1, 4), (3, 1), (3, 16))
            for n in grid
        ]
        rows = emit_epsilon_curve(grid, specs)
        assert all(type(r) is CurveRow for r in rows)
        assert [(r.n, r.h, r.p, r.epsilon) for r in rows] == expected

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            emit_epsilon_curve([], [HypothesisSpec(1, 1)])
        with pytest.raises(ValueError):
            emit_epsilon_curve([5, 5], [HypothesisSpec(1, 1)])
        with pytest.raises(ValueError):
            emit_epsilon_curve([9, 3], [HypothesisSpec(1, 1)])


def per_point_epsilon(n, h, p):
    """The curve's per-point evaluation as it stood before the batched kernel:
    one n check and one expression, finite over the accepted domain."""
    if n < 2:
        raise ValueError(f"divergence curve needs n >= 2, got {n}")
    return 2.0 * math.sqrt(h * p * math.log(n) + (p * math.log(2.0) + h * p)) / math.sqrt(n)


def outcome(call):
    """What a call returns, or the type and message of the exception it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def hexed(rows):
    """Each row with its type and its eps as float.hex."""
    return [(type(r), r.n, r.h, r.p, r.epsilon.hex()) for r in rows]


# ascending grids in 2..2^63-1, some led by 1 and some ending at the top of
# the domain
curve_grids = st.tuples(
    st.booleans(),
    st.lists(st.integers(2, MAX), min_size=1, max_size=6, unique=True),
    st.booleans(),
).map(lambda t: [1] * t[0] + sorted(set(t[1]) | ({MAX} if t[2] else set())))
# h * p up to (2^63-1)^2, where the radicand is still below 5e39
curve_specs = st.lists(st.builds(
    HypothesisSpec,
    st.one_of(st.integers(0, 8), st.integers(0, MAX), st.just(MAX)),
    st.one_of(st.integers(1, 64), st.integers(1, MAX), st.just(MAX)),
), max_size=4)


class TestCurveKernel:
    """emit_epsilon_curve against the per-point expression, bit for bit, and
    its errors for inputs out of the domain."""

    @given(curve_grids, curve_specs)
    @settings(max_examples=300, deadline=None)
    @example([1, 10], [])
    @example([2, 10**6, 10**8, MAX], [HypothesisSpec(0, MAX), HypothesisSpec(1, MAX),
                                      HypothesisSpec(MAX, MAX)])
    def test_matches_the_per_point_expression(self, grid, specs):
        def reference():
            return hexed(CurveRow(n, s.h, s.p, per_point_epsilon(n, s.h, s.p))
                         for s in sorted(specs, key=lambda s: (s.h, s.p)) for n in grid)

        assert outcome(lambda: hexed(emit_epsilon_curve(grid, specs))) == outcome(reference)
        # epsilon_curve is the kernel's one-point case
        for s in specs[:2]:
            for n in (grid[0], grid[-1]):
                want = outcome(lambda: per_point_epsilon(n, s.h, s.p).hex())
                assert outcome(lambda: epsilon_curve(n, s).hex()) == want

    # the families as (h, p) pairs: a HypothesisSpec refuses one out of the
    # domain as it is built
    @pytest.mark.parametrize("grid, families, message", [
        ([2, 10**6, 2**63], [(1, 1)],
         f"sample size n must be at most 2^63-1, got {2**63}"),
        ([2, 10**400], [(0, 1), (3, 1)],
         f"sample size n must be at most 2^63-1, got {10**400}"),
        ([1, 10**400], [(0, 1)],
         f"sample size n must be at most 2^63-1, got {10**400}"),
        ([5, 7], [(2, 1), (1, 10**400)],
         f"hyperplane count p must be at most 2^63-1, got {10**400}"),
        ([5, 7], [(2**63, 1)], f"dimension h must be at most 2^63-1, got {2**63}"),
        ([1, 7], [(1, MAX)], "divergence curve needs n >= 2, got 1"),
    ], ids=["n-2^63", "n-1e400", "n-below-2-and-1e400", "p-1e400", "h-2^63",
            "n-below-2"])
    def test_errors_name_the_input_out_of_the_domain(self, grid, families, message):
        got = outcome(lambda: emit_epsilon_curve(
            grid, [HypothesisSpec(h, p) for h, p in families]))
        assert got == (ValueError, message)


class TestEpsilonCurveImpliedDelta:
    """epsilon_curve carries no delta: at its eps = 0.05 crossing the bound's
    confidence differs by hundreds of orders of magnitude between families."""

    @staticmethod
    def crossing(spec, eps=0.05):
        # epsilon_curve decreases from n = 2 on, so bisection finds the first n
        lo, hi = 2, 10**8
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if epsilon_curve(mid, spec) <= eps:
                hi = mid
            else:
                lo = mid
        assert epsilon_curve(hi - 1, spec) > eps >= epsilon_curve(hi, spec)
        return hi

    @pytest.mark.parametrize("h, p, n, delta_log", [
        (1, 1, 18424, -0.3072961974),
        (2, 4, 171507, -12.15920444),
        (3, 16, 1167468, -86.37274214),
        (4, 64, 6932487, -502.3709477),
    ], ids=["h1-p1", "h2-p4", "h3-p16", "h4-p64"])
    def test_delta_at_the_crossing(self, h, p, n, delta_log):
        spec = HypothesisSpec(h, p)
        assert self.crossing(spec) == n
        assert delta_bound(n, 0.05, spec).log_value == pytest.approx(delta_log, rel=1e-9)

    def test_headline_crossing_near_the_solver_answer(self):
        n_star = solve_min_n(0.01, 0.05, HypothesisSpec(3, 16))
        assert n_star == 1026778
        assert 0.5 * n_star <= self.crossing(HypothesisSpec(3, 16)) <= 2 * n_star


class TestCurveRow:
    def test_fields_in_order(self):
        assert CurveRow._fields == ("n", "h", "p", "epsilon")

    def test_keyword_and_positional_construction_agree(self):
        row = CurveRow(n=100, h=3, p=16, epsilon=0.25)
        assert row == CurveRow(100, 3, 16, 0.25)
        assert (row.n, row.h, row.p, row.epsilon) == (100, 3, 16, 0.25)

    def test_is_a_tuple_with_its_hash(self):
        row = CurveRow(100, 3, 16, 0.25)
        assert isinstance(row, tuple)
        assert tuple(row) == (100, 3, 16, 0.25)
        assert hash(row) == hash((100, 3, 16, 0.25))

    def test_fields_cannot_be_assigned(self):
        row = CurveRow(100, 3, 16, 0.25)
        for field in CurveRow._fields:
            with pytest.raises(AttributeError):
                setattr(row, field, 0)
        assert row == (100, 3, 16, 0.25)

    def test_repr(self):
        assert repr(CurveRow(100, 3, 16, 0.25)) == "CurveRow(n=100, h=3, p=16, epsilon=0.25)"
