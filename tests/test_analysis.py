"""Tests for convergence, periodicity, and regularity scanners.

Reference facts used throughout: S={5,7} converges at xi=31 with eventual
period 14; S={2,3} converges at xi=8 = 2*2^2 with eventual period 6; for
S={2,10,13,14} the canonical trace from 35 has Positive sacrificing 4 and
Negative 1, while the trace from 49 reverses the sizes (1 vs 4), which is
exactly the shape of counterexample the sacrifice sweep is built to find.
"""

from __future__ import annotations

import random

import pytest

from cumsub import (
    Mover,
    OutcomeTable,
    PeriodReport,
    Ruleset,
    TheoremViolationError,
    build_outcome_table,
    canonical_trace,
    check_observation,
    conjecture_report,
    convergence_bound,
    convergence_point,
    default_x_max,
    eventual_period,
    minimax_values,
    observation_sweep_report,
    rulesets_with_max_at_most,
    sacrifice_conjecture_report,
    scan_sacrifice_conjecture,
)
from cumsub import analysis, core
from test_properties import _replayed_sacrifices


def naive_minimal_period(values, tail_start, p_cap):
    """Reference period finder: first p with values[x] == values[x+p] on the tail."""
    top = len(values) - 1
    for p in range(1, p_cap + 1):
        if all(values[x] == values[x + p] for x in range(tail_start, top - p + 1)):
            return p
    return None


def _record_kernel_calls(monkeypatch):
    """Wrap both DP kernels; the list returned collects the heaps each call
    solved, 0..min(last + 2*max S, limit), whether it kept them all or not."""
    lengths = []

    def recording(kernel):
        def call(ruleset, limit, keep=None):
            o, sparse, last = kernel(ruleset, limit, keep)
            lengths.append(min(last + 2 * ruleset.max_action, limit) + 1)
            return o, sparse, last
        return call

    for name in ("_table_contiguous", "_table_generic"):
        monkeypatch.setattr(core, name, recording(getattr(core, name)))
    return lengths


def _forge_solved_heap(monkeypatch, index):
    """Make every DP pass add 1 to o[index] of the heaps it returns; index
    counts back from the pass's top heap."""
    real_solve = core._solve

    def forged_solve(ruleset, limit, keep=None):
        o, sparse, last = real_solve(ruleset, limit, keep)
        o[index] += 1
        return o, sparse, last
    monkeypatch.setattr(core, "_solve", forged_solve)


class TestConvergencePoint:
    def test_xi_5_7(self):
        report = convergence_point(Ruleset((5, 7)))
        assert report.xi == 31
        assert report.converged_action == 7
        assert report.bound_satisfied
        assert report.period == PeriodReport(period=14, tail_start=31)

    def test_xi_4_5(self):
        assert convergence_point(Ruleset((4, 5))).xi == 32

    def test_xi_2_3(self):
        assert convergence_point(Ruleset((2, 3))).xi == 8

    def test_xi_full_support(self):
        assert convergence_point(Ruleset((1, 2, 3))).xi == 3
        assert convergence_point(Ruleset((1, 2, 3, 4, 5))).xi == 5

    def test_bound_values(self):
        assert convergence_bound(Ruleset((5, 7))) == 98
        assert default_x_max(Ruleset((5, 7))) == 126

    def test_accepts_prebuilt_table(self):
        rs = Ruleset((5, 7))
        table = build_outcome_table(rs, default_x_max(rs))
        assert convergence_point(rs, table).xi == 31

    def test_rebuilds_undersized_table(self):
        rs = Ruleset((5, 7))
        small = build_outcome_table(rs, 40)
        assert convergence_point(rs, small).xi == 31

    def test_refuses_a_certificate_past_the_heap_cap(self, monkeypatch):
        # {1,29,30} certifies xi = 1623, so its pass solves heaps up to
        # xi + 2*30 - 1 = 1682: past a 1000-heap work bound, so it is
        # refused; {1..30} certifies under the bound although its
        # default_x_max, 1920, lies above it.
        monkeypatch.setattr(analysis, "CONVERGENCE_HEAP_LIMIT", 1000)
        with pytest.raises(ValueError, match="above the supported 1000 solved heaps"):
            convergence_point(Ruleset((1, 29, 30)))
        full = Ruleset(tuple(range(1, 31)))
        assert default_x_max(full) > 1000
        assert convergence_point(full).xi == 30

    def test_work_bound_counts_the_solved_heaps(self, monkeypatch):
        # {1,29,30}'s pass solves the 1683 heaps 0..1682: a bound of that
        # many heaps certifies it, and one heap fewer refuses it.
        rs = Ruleset((1, 29, 30))
        lengths = _record_kernel_calls(monkeypatch)
        monkeypatch.setattr(analysis, "CONVERGENCE_HEAP_LIMIT", 1683)
        assert convergence_point(rs).xi == 1623
        monkeypatch.setattr(analysis, "CONVERGENCE_HEAP_LIMIT", 1682)
        with pytest.raises(ValueError, match="above the supported 1682 solved heaps"):
            convergence_point(rs)
        assert lengths == [1683, 1682]

    def test_refuses_a_large_max_s_before_solving(self, monkeypatch):
        # xi >= max S, so {1,201}'s run ends at heap 5*201 - 1 = 1004 or
        # later: past a 1000-heap cap, and no heap needs solving to know it.
        monkeypatch.setattr(core, "TABLE_HEAP_LIMIT", 1000)
        lengths = _record_kernel_calls(monkeypatch)
        with pytest.raises(ValueError, match="above the supported"):
            convergence_point(Ruleset((1, 201)))
        assert lengths == []
        assert convergence_point(Ruleset((1, 200))).xi == 200

    def test_rejects_table_of_another_ruleset(self):
        other = build_outcome_table(Ruleset((4, 7)), default_x_max(Ruleset((5, 7))))
        with pytest.raises(ValueError, match=r"supplied table is for \{4,7\}, not \{5,7\}"):
            convergence_point(Ruleset((5, 7)), other)
        short = build_outcome_table(Ruleset((4, 7)), 20)
        with pytest.raises(ValueError, match=r"supplied table is for \{4,7\}, not \{5,7\}"):
            convergence_point(Ruleset((5, 7)), short)

    def test_opt_constant_from_xi(self):
        rs = Ruleset((3, 7, 8))
        report = convergence_point(rs)
        table = build_outcome_table(rs, default_x_max(rs))
        assert table.opts[report.xi - 1] != 8
        assert all(table.opts[x] == 8 for x in range(report.xi, table.x_max + 1))

    def test_opt_off_max_beyond_bound_is_violation(self):
        # A table whose opt(100) is not 7, past the bound 98 for {5,7}.
        rs = Ruleset((5, 7))
        real = build_outcome_table(rs, default_x_max(rs))
        opts = list(real.opts)
        opts[100] = 5
        forged = OutcomeTable(rs, real.x_max, real.outcomes, tuple(opts), greedy_from=101)
        with pytest.raises(TheoremViolationError, match="beyond the convergence bound"):
            convergence_point(rs, forged)

    def test_xi_one_past_bound_is_violation(self):
        # opt(98) is not 7, so xi = 99, one past the bound 98 for {5,7}: a
        # violation, not a report with bound_satisfied False.
        rs = Ruleset((5, 7))
        real = build_outcome_table(rs, default_x_max(rs))
        opts = list(real.opts)
        opts[98] = 5
        forged = OutcomeTable(rs, real.x_max, real.outcomes, tuple(opts), greedy_from=99)
        with pytest.raises(TheoremViolationError, match="beyond the convergence bound 98"):
            convergence_point(rs, forged)

    def test_no_certificate_by_default_x_max_is_violation(self):
        # opt is not 7 in the top 2*7 heaps, so no table size certifies xi.
        rs = Ruleset((5, 7))
        real = build_outcome_table(rs, default_x_max(rs))
        opts = real.opts[:-1] + (5,)
        forged = OutcomeTable(rs, real.x_max, real.outcomes, opts, greedy_from=real.x_max + 1)
        with pytest.raises(TheoremViolationError, match="no convergence certificate"):
            convergence_point(rs, forged)

    def test_run_one_short_of_2m_is_no_certificate(self):
        # opt is 7 on only the top 2*7 - 1 heaps, one short of a certificate.
        rs = Ruleset((5, 7))
        real = build_outcome_table(rs, default_x_max(rs))
        greedy_from = real.x_max + 2 - 2 * 7
        opts = list(real.opts)
        opts[greedy_from - 1] = 5
        forged = OutcomeTable(rs, real.x_max, real.outcomes, tuple(opts), greedy_from)
        with pytest.raises(TheoremViolationError, match="no convergence certificate"):
            convergence_point(rs, forged)

    def test_aperiodic_tail_from_xi_is_violation(self):
        # The certificate reads greedy_from only; an outcome off the
        # recurrence just past xi can then only be a solver fault.
        rs = Ruleset((5, 7))
        real = build_outcome_table(rs, default_x_max(rs))
        outcomes = list(real.outcomes)
        outcomes[40] += 1
        forged = OutcomeTable(rs, real.x_max, tuple(outcomes), real.opts, real.greedy_from)
        with pytest.raises(TheoremViolationError, match=r"o\(x\) \+ o\(x - 7\) != 7"):
            convergence_point(rs, forged)

    def test_as_dict_schema(self):
        d = convergence_point(Ruleset((5, 7))).as_dict()
        assert d == {
            "ruleset": [5, 7],
            "xi": 31,
            "converged_action": 7,
            "bound_satisfied": True,
            "period": {"period": 14, "tail_start": 31},
        }

    def test_report_independent_of_table_length(self):
        # Both certificates hold on every heap, so a caller's long table
        # changes nothing in the report.
        for actions in ((5, 7), (2, 5, 6), (3, 4, 5, 6)):
            rs = Ruleset(actions)
            long = build_outcome_table(rs, 3 * default_x_max(rs))
            assert convergence_point(rs, long) == convergence_point(rs), rs

    def test_one_pass_to_the_certificate(self, monkeypatch):
        # One kernel call solves heaps 0..xi + 2*max S - 1, the run that
        # certifies xi, and stops; a caller's table that holds the
        # 2*max S heaps from xi is read with no call, and one a heap short
        # of them is solved again.
        rs = Ruleset((1, 99, 100))
        xi = 19403
        window = build_outcome_table(rs, xi + 2 * 100 - 1)
        short = build_outcome_table(rs, xi + 2 * 100 - 2)
        lengths = _record_kernel_calls(monkeypatch)
        report = convergence_point(rs)
        assert report.xi == xi
        assert lengths == [xi + 2 * 100]
        assert convergence_point(rs, window) == report
        assert lengths == [xi + 2 * 100]
        assert convergence_point(rs, short) == report
        assert lengths == [xi + 2 * 100] * 2
        # build_outcome_table stops its pass at the same run, and fills
        # every heap above it by period 2*max S.
        build_outcome_table(rs, xi + 4 * 100 + 50)
        assert lengths == [xi + 2 * 100] * 3

    def test_pairs_solve_no_heap(self, monkeypatch):
        # A pair is answered by the two-action closed form, with no DP
        # pass, so a work bound far below its xi does not refuse it.
        lengths = _record_kernel_calls(monkeypatch)
        monkeypatch.setattr(analysis, "CONVERGENCE_HEAP_LIMIT", 1000)
        report = convergence_point(Ruleset((99, 100)))
        assert (report.xi, report.period.period) == (2 * 99**2, 200)
        assert lengths == []

    def test_pairs_match_the_dp_exhaustively(self):
        # The closed-form path against the DP certificate read from a
        # caller's table, on every pair with max S <= 40.
        for rs in rulesets_with_max_at_most(40, (2,)):
            table = build_outcome_table(rs, default_x_max(rs))
            assert convergence_point(rs) == convergence_point(rs, table), rs

    def test_dp_pass_matches_the_caller_table_exhaustively(self):
        # The DP pass against the window read from a caller's table, on
        # every ruleset of three or more actions with max S <= 11.
        for rs in rulesets_with_max_at_most(11, range(3, 12)):
            table = build_outcome_table(rs, default_x_max(rs))
            assert convergence_point(rs) == convergence_point(rs, table), rs

    @pytest.mark.parametrize("actions", [(5, 7), (3, 7, 8), (2, 3, 4, 5, 6, 7)])
    @pytest.mark.parametrize("path", ["table", "solved"])
    @pytest.mark.parametrize("heap", ["xi - m", "xi", "xi + 2m - 1"])
    def test_every_tail_heap_is_read(self, monkeypatch, actions, path, heap):
        # The recurrence is checked on the 3*max S outcomes from xi - max S:
        # a wrong outcome in the first, the one at xi or the last of them
        # breaks it, on a pair, the generic kernel and the deque kernel.
        # The table is a caller's from build_outcome_table, so the wrong
        # outcome is one of its solved heaps, which the fill by period
        # repeats above it; heap xi + 2m - 1 is its last solved heap.
        # Otherwise it comes from the closed form for a pair, or from the
        # DP pass, whose last 3*max S heaps are the window.
        rs = Ruleset(actions)
        m = rs.max_action
        cell = {"xi - m": 0, "xi": m, "xi + 2m - 1": 3 * m - 1}[heap]
        if path == "solved" and rs.is_two_action:
            real_window = analysis._outcomes_from_xi

            def forged_window(sol):
                window = real_window(sol)
                window[cell] += 1
                return window
            monkeypatch.setattr(analysis, "_outcomes_from_xi", forged_window)
            table = None
        else:
            _forge_solved_heap(monkeypatch, cell - 3 * m)
            table = build_outcome_table(rs, default_x_max(rs)) if path == "table" else None
        with pytest.raises(TheoremViolationError, match=rf"o\(x\) \+ o\(x - {m}\) != {m}"):
            convergence_point(rs, table)

    @pytest.mark.parametrize("actions", [(3, 7, 8), (2, 3, 4, 5, 6, 7)])
    def test_heap_max_s_below_xi_is_read(self, monkeypatch, actions):
        # The recurrence check pairs each of the 2*max S heaps from xi with
        # the heap max S below it, so it reads heap xi - max S too: a wrong
        # outcome there is a theorem violation on both kernels.
        rs = Ruleset(actions)
        m = rs.max_action
        _forge_solved_heap(monkeypatch, -3 * m)
        with pytest.raises(TheoremViolationError, match=rf"o\(x\) \+ o\(x - {m}\) != {m}"):
            convergence_point(rs)

    @pytest.mark.parametrize(
        "actions, offset",
        [
            # xi is the first heap after a trim: the trim keeps the max S
            # heaps below it, and the 2*max S heaps from it lie in one chunk.
            ((2, 7, 9), 0),
            # The trim falls on xi - max S, so the 3*max S heaps the
            # recurrence check reads are one whole chunk, and the pass
            # stops on its last heap.
            ((2, 5, 7), 7),
            # xi is the last heap before a trim: the trim keeps it and the
            # 3*max S - 1 heaps below it, and the block from xi runs past it.
            ((3, 5, 10, 13), 3 * 13 - 1),
            # Eighteen trims, the last two heaps below xi, so the max S
            # heaps below xi straddle it; a keep of 2*max S loses them.
            ((1, 29, 30), 2),
            # The deque kernel, whose trims also rebase g and the window;
            # the 2*max S heaps from xi straddle a trim.
            (tuple(range(22, 27)), 58),
        ],
    )
    def test_streaming_pass_at_a_trim(self, monkeypatch, actions, offset):
        # With no floor on what it keeps, the pass trims its lists to the
        # last 3*max S heaps at every 3*max S heaps from min S; the report
        # is the one a caller's untrimmed table gives.
        monkeypatch.setattr(analysis, "CONVERGENCE_KEEP_MIN", 0)
        rs = Ruleset(actions)
        m = rs.max_action
        report = convergence_point(rs)
        assert (report.xi - rs.min_action) % (3 * m) == offset
        assert report == convergence_point(rs, build_outcome_table(rs, default_x_max(rs)))


class TestEventualPeriod:
    def test_period_5_7(self):
        rs = Ruleset((5, 7))
        table = build_outcome_table(rs, 126)
        report = eventual_period(table, 31)
        assert report.period == 14
        assert report.tail_start == 31
        assert report == eventual_period(build_outcome_table(rs, 31 + 4 * 7), 31)

    def test_period_2_3(self):
        table = build_outcome_table(Ruleset((2, 3)), 60)
        assert eventual_period(table, 8).period == 6

    def test_period_full_support(self):
        table = build_outcome_table(Ruleset((1, 2, 3)), 40)
        assert eventual_period(table, 3).period == 6

    def test_period_divides_twice_max(self):
        rng = random.Random(4257)
        for _ in range(20):
            actions = tuple(sorted(rng.sample(range(1, 11), rng.choice((2, 3)))))
            rs = Ruleset(actions)
            table = build_outcome_table(rs, default_x_max(rs))
            xi = convergence_point(rs, table).xi
            period = eventual_period(table, xi).period
            assert (2 * rs.max_action) % period == 0, rs

    def test_agrees_with_naive_scan_on_oracle_values(self):
        # Period found on the DP table must match a naive scan over the
        # independently computed minimax values.
        for actions in ((5, 7), (2, 3), (2, 5, 9), (3, 4, 11)):
            rs = Ruleset(actions)
            table = build_outcome_table(rs, default_x_max(rs))
            xi = convergence_point(rs, table).xi
            period = eventual_period(table, xi).period
            oracle = minimax_values(rs, table.x_max)
            assert naive_minimal_period(oracle, xi, 2 * rs.max_action) == period

    def test_tail_not_yet_periodic_is_value_error(self):
        # {5,7} is not yet periodic from heap 0, so no divisor of 14 fits
        # the window there: legal input, not a theorem violation.
        table = build_outcome_table(Ruleset((5, 7)), 126)
        with pytest.raises(ValueError, match="no period dividing 14") as info:
            eventual_period(table, 0)
        assert not isinstance(info.value, TheoremViolationError)

    def test_scalar_match_alone_is_no_period(self):
        # A forged {5,7} tail whose first value recurs at lags 1, 2 and 7,
        # the divisors of 14 below it, though none of them is a period.
        block = (3, 3, 3, 1, 4, 1, 5, 3, 2, 6, 5, 9, 8, 9)
        assert [p for p in (1, 2, 7) if block[p] == block[0]] == [1, 2, 7]
        outcomes = block * 3
        table = OutcomeTable(Ruleset((5, 7)), len(outcomes) - 1, outcomes, (7,) * len(outcomes), 0)
        assert naive_minimal_period(outcomes, 0, 14) == 14
        assert eventual_period(table, 0) == PeriodReport(period=14, tail_start=0)

    def test_window_too_small_rejected(self):
        # The window is the 4*7 heaps 31..58: x_max 58 holds it, 57 does not.
        rs = Ruleset((5, 7))
        assert eventual_period(build_outcome_table(rs, 58), 31).period == 14
        with pytest.raises(ValueError, match="window too small"):
            eventual_period(build_outcome_table(rs, 57), 31)

    def test_tail_start_out_of_range(self):
        table = build_outcome_table(Ruleset((5, 7)), 126)
        with pytest.raises(ValueError):
            eventual_period(table, -1)
        with pytest.raises(ValueError):
            eventual_period(table, 127)

    def test_as_dict_schema(self):
        table = build_outcome_table(Ruleset((2, 3)), 60)
        assert eventual_period(table, 8).as_dict() == {
            "period": 6,
            "tail_start": 8,
        }


class TestTwoActionObservations:
    def test_last_move_holds_5_7(self):
        report = check_observation("last-move", Ruleset((5, 7)), 60)
        assert report.holds
        assert report.counterexample_x is None
        assert report.witness is None

    def test_one_greedy_holds_5_7(self):
        assert check_observation("one-greedy", Ruleset((5, 7)), 60).holds

    def test_sacrificer_is_last_mover_on_example(self):
        # From 17 in {5,7} Positive sacrifices at the start and moves last.
        trace = canonical_trace(Ruleset((5, 7)), 17)
        assert trace.actions == (5, 7, 5)
        assert trace.moves[-1].mover is Mover.POSITIVE

    def test_requires_two_actions(self):
        with pytest.raises(ValueError):
            check_observation("last-move", Ruleset((1, 5, 7)), 9)
        with pytest.raises(ValueError):
            check_observation("one-greedy", Ruleset((1, 5, 7)), 9)

    def test_flagged_start_reported_with_witness(self, monkeypatch):
        # In {5,7} the first start where Positive sacrifices is 17 (5;7;5),
        # and Positive also moves last there.
        monkeypatch.setitem(
            analysis._OBSERVATIONS, "demo",
            ("demo-sweep", "demo", lambda pos, neg, pos_last: pos and pos_last),
        )
        report = check_observation("demo", Ruleset((5, 7)), 29)
        assert not report.holds
        assert report.observation == "demo"
        assert report.counterexample_x == 17
        assert report.witness.actions == (5, 7, 5)

    def test_negative_start_heap_rejected(self):
        with pytest.raises(ValueError, match="x_cap must be nonnegative"):
            check_observation("one-greedy", Ruleset((5, 7)), -1)

    def test_x_cap_past_the_heap_limit_reads_below_the_cut(self, monkeypatch):
        # Every cut lies below 3000 here ({29,30}: xi + max S = 1712), so
        # a larger x_cap reads the same heaps and gives the same report,
        # witness included.
        monkeypatch.setitem(
            analysis._OBSERVATIONS, "demo",
            ("demo-sweep", "demo", lambda pos, neg, pos_last: pos and pos_last),
        )
        for acts in ((5, 7), (2, 3), (1, 9), (29, 30)):
            for name in ("last-move", "one-greedy", "demo"):
                report = check_observation(name, Ruleset(acts), 3000)
                for x_cap in (core.TABLE_HEAP_LIMIT, 10**9):
                    assert check_observation(name, Ruleset(acts), x_cap) == report
        assert not check_observation("demo", Ruleset((5, 7)), 10**9).holds

    def test_refuses_a_trace_certificate_past_the_heap_cap(self, monkeypatch):
        # {29,30}'s 2*max S run ends at heap 1741, past a 1000-heap cap:
        # an x_cap past the cap needs it and is refused, one under the cap
        # is answered from the heaps up to x_cap.
        report = check_observation("one-greedy", Ruleset((29, 30)), 500)
        monkeypatch.setattr(core, "TABLE_HEAP_LIMIT", 1000)
        with pytest.raises(ValueError, match="above the supported"):
            check_observation("one-greedy", Ruleset((29, 30)), 5000)
        assert check_observation("one-greedy", Ruleset((29, 30)), 500) == report

    def test_report_dict_schema(self):
        d = check_observation("last-move", Ruleset((2, 3)), 29).as_dict()
        assert d["observation"] == "sacrificer-plays-last"
        assert d["ruleset"] == [2, 3]
        assert d["holds"] is True
        assert d["counterexample_x"] is None
        assert d["witness"] is None


def findings_2_10_13_14():
    """The sweep's findings for {2,10,13,14}, heaps up to 60."""
    rs = Ruleset((2, 10, 13, 14))
    return [f for f in scan_sacrifice_conjecture(14, 60) if f.ruleset == rs]


class TestSacrificeScan:
    def test_findings_2_10_13_14(self):
        findings = findings_2_10_13_14()
        by_x = {f.x: f for f in findings}
        assert set(by_x) == {35, 49}
        assert (by_x[35].positive_sacrifice, by_x[35].negative_sacrifice) == (4, 1)
        assert by_x[35].consistent
        # One level further from the terminal the players swap roles.
        assert (by_x[49].positive_sacrifice, by_x[49].negative_sacrifice) == (1, 4)
        assert not by_x[49].consistent

    def test_finding_matches_trace_replay(self):
        rs = Ruleset((2, 10, 13, 14))
        assert _replayed_sacrifices(rs, 35, build_outcome_table(rs, 35))[:2] == (4, 1)

    def test_small_sweep_has_no_double_sacrifices(self):
        assert scan_sacrifice_conjecture(5, 60) == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            scan_sacrifice_conjecture(3, 100)
        with pytest.raises(ValueError):
            scan_sacrifice_conjecture(10, -1)
        # The one scan whose findings grow with x_cap keeps the heap cap.
        with pytest.raises(ValueError, match="x_cap 20000000 lies above the supported 19999999"):
            scan_sacrifice_conjecture(4, core.TABLE_HEAP_LIMIT)

    def test_block_hits_recur_up_to_a_far_x_cap(self, monkeypatch):
        # {4,6,7,16,21} cuts at 115 with hits 73 and 94 in its block
        # [73, 115), so they recur every 42 heaps; 99991 = 73 + 42*2379
        # is the last of them.  The top 84 heaps are replayed.
        rs = Ruleset((4, 6, 7, 16, 21))
        monkeypatch.setattr(analysis, "rulesets_with_max_at_most", lambda max_s, sizes: [rs])
        x_cap = 99991
        findings = scan_sacrifice_conjecture(21, x_cap)
        near = scan_sacrifice_conjecture(21, 300)
        assert findings[:len(near)] == near
        repeats = {x for h in (73, 94) for x in range(h, x_cap + 1, 42)}
        assert [f.x for f in findings] == sorted({31, 52} | repeats)
        table = build_outcome_table(rs, x_cap)
        replayed = {x: _replayed_sacrifices(rs, x, table)[:2] for x in range(x_cap - 83, x_cap + 1)}
        top = {x: sizes for x, sizes in replayed.items() if all(sizes)}
        assert {f.x: (f.positive_sacrifice, f.negative_sacrifice) for f in findings[-len(top):]} == top
        assert findings[-1].x == x_cap

    def test_published_scale_sweep_falsifies(self):
        # The full sweep over 4- and 5-action sets in {1..15}, heaps to 300.
        report = sacrifice_conjecture_report(15, 300)
        assert report["verdict"] == "falsified"
        assert report["swept_space"]["positions_with_both_sacrificing"] == 217
        assert len(report["counterexamples"]) == 111
        first = report["counterexamples"][0]
        assert first == {
            "ruleset": [2, 7, 10, 11],
            "x": 37,
            "positive_sacrifice": 1,
            "negative_sacrifice": 4,
            "consistent": False,
        }

    def test_finding_dict_schema(self):
        finding = findings_2_10_13_14()[0]
        assert finding.as_dict() == {
            "ruleset": [2, 10, 13, 14],
            "x": 35,
            "positive_sacrifice": 4,
            "negative_sacrifice": 1,
            "consistent": True,
        }


class TestConjectureReports:
    def test_holds_verdict(self):
        report = conjecture_report("demo", {"n": 1}, {"cases": 2}, [])
        assert report["verdict"] == "holds"
        assert report["counterexamples"] == []

    def test_falsified_verdict(self):
        report = conjecture_report("demo", {}, {}, [{"x": 1}])
        assert report["verdict"] == "falsified"

    def test_observation_sweep_last_move(self):
        report = observation_sweep_report("last-move", 8, 100)
        assert report["verdict"] == "holds"
        assert report["swept_space"]["rulesets"] == 28  # pairs within {1..8}
        assert report["conjecture"] == "two-action-sacrificer-plays-last"

    def test_observation_sweep_one_greedy(self):
        report = observation_sweep_report("one-greedy", 6, 80)
        assert report["verdict"] == "holds"
        assert report["swept_space"]["rulesets"] == 15

    def test_observation_sweep_validation(self):
        with pytest.raises(ValueError):
            observation_sweep_report("unknown", 8, 100)
        with pytest.raises(ValueError):
            observation_sweep_report("last-move", 1, 100)

    def test_observation_sweep_rejects_negative_x_cap(self):
        # An empty heap range would otherwise report "holds" over nothing.
        with pytest.raises(ValueError, match="x_cap must be nonnegative"):
            observation_sweep_report("last-move", 8, -1)
