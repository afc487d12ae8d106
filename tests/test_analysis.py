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
    Ruleset,
    TheoremViolationError,
    build_outcome_table,
    check_observation,
    conjecture_report,
    convergence_bound,
    convergence_point,
    default_x_max,
    eventual_period,
    minimax_values,
    observation_sweep_report,
    sacrifice_conjecture_report,
    scan_sacrifice_conjecture,
)
from cumsub import analysis


def naive_minimal_period(values, tail_start, p_cap):
    """Reference period finder: first p with values[x] == values[x+p] on the tail."""
    top = len(values) - 1
    for p in range(1, p_cap + 1):
        if all(values[x] == values[x + p] for x in range(tail_start, top - p + 1)):
            return p
    return None


class TestConvergencePoint:
    def test_xi_5_7(self):
        report = convergence_point(Ruleset((5, 7)))
        assert report.xi == 31
        assert report.converged_action == 7
        assert report.bound_satisfied
        assert report.verified_up_to == default_x_max(Ruleset((5, 7))) == 126

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

    def test_extends_short_table_of_same_ruleset(self, monkeypatch):
        # A table shorter than 8*max S is grown from, not thrown away.
        rs = Ruleset((5, 7))
        small = build_outcome_table(rs, 40)
        given = []

        def recording(ruleset, x_max, table=None):
            given.append(table)
            return build_outcome_table(ruleset, x_max, table)

        monkeypatch.setattr("cumsub.analysis.build_outcome_table", recording)
        assert convergence_point(rs, small).xi == 31
        assert given[0] is small

    def test_rejects_table_of_another_ruleset(self):
        other = build_outcome_table(Ruleset((4, 7)), default_x_max(Ruleset((5, 7))))
        with pytest.raises(ValueError, match="not a prefix of this one"):
            convergence_point(Ruleset((5, 7)), other)
        short = build_outcome_table(Ruleset((4, 7)), 20)
        with pytest.raises(ValueError, match="not a prefix of this one"):
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
        # period just past xi can then only be a solver fault.
        rs = Ruleset((5, 7))
        real = build_outcome_table(rs, default_x_max(rs))
        outcomes = list(real.outcomes)
        outcomes[40] += 1
        forged = OutcomeTable(rs, real.x_max, tuple(outcomes), real.opts, real.greedy_from)
        with pytest.raises(TheoremViolationError, match="no period dividing 14"):
            convergence_point(rs, forged)

    def test_as_dict_schema(self):
        d = convergence_point(Ruleset((5, 7))).as_dict()
        assert d == {
            "ruleset": [5, 7],
            "xi": 31,
            "converged_action": 7,
            "verified_up_to": 126,
            "bound_satisfied": True,
            "period": {"period": 14, "tail_start": 31, "verified_up_to": 126},
        }

    def test_grows_one_table_in_place(self, monkeypatch):
        # Every DP call extends the table the previous one returned, so no
        # heap is solved twice.
        given, built = [], []

        def recording(ruleset, x_max, table=None):
            given.append(table)
            built.append(build_outcome_table(ruleset, x_max, table))
            return built[-1]

        monkeypatch.setattr("cumsub.analysis.build_outcome_table", recording)
        rs = Ruleset((99, 100))
        report = convergence_point(rs)
        assert report.xi == 2 * 99**2
        assert len(built) > 2
        assert given[0] is None
        assert all(table is previous for table, previous in zip(given[1:], built))
        assert built[-1] == build_outcome_table(rs, built[-1].x_max)
        assert built[-1].x_max >= report.xi + 4 * 100


class TestEventualPeriod:
    def test_period_5_7(self):
        rs = Ruleset((5, 7))
        table = build_outcome_table(rs, 126)
        report = eventual_period(table, 31)
        assert report.period == 14
        assert report.tail_start == 31
        assert report.verified_up_to == 126

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

    def test_window_too_small_rejected(self):
        table = build_outcome_table(Ruleset((5, 7)), 50)
        with pytest.raises(ValueError):
            eventual_period(table, 31)  # needs 31 + 28 <= x_max

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
            "verified_up_to": 60,
        }


class TestTwoActionObservations:
    def test_last_move_holds_5_7(self):
        report = check_observation("last-move", Ruleset((5, 7)), range(61))
        assert report.holds
        assert report.counterexample_x is None
        assert report.witness is None

    def test_one_greedy_holds_5_7(self):
        assert check_observation("one-greedy", Ruleset((5, 7)), range(61)).holds

    def test_sacrificer_is_last_mover_on_example(self):
        # From 17 in {5,7} Positive sacrifices at the start and moves last.
        from cumsub import canonical_trace

        trace = canonical_trace(Ruleset((5, 7)), 17)
        assert trace.actions == (5, 7, 5)
        assert trace.moves[-1].mover is Mover.POSITIVE

    def test_requires_two_actions(self):
        with pytest.raises(ValueError):
            check_observation("last-move", Ruleset((1, 5, 7)), range(10))
        with pytest.raises(ValueError):
            check_observation("one-greedy", Ruleset((1, 5, 7)), range(10))

    def test_empty_heap_iterable(self):
        assert check_observation("last-move", Ruleset((5, 7)), []).holds

    def test_flagged_start_reported_with_witness(self, monkeypatch):
        # In {5,7} the first start where Positive sacrifices is 17 (5;7;5),
        # and Positive also moves last there.
        monkeypatch.setitem(
            analysis._OBSERVATIONS, "demo",
            ("demo-sweep", "demo", lambda pos, neg, pos_last: pos and pos_last),
        )
        report = check_observation("demo", Ruleset((5, 7)), range(30))
        assert not report.holds
        assert report.observation == "demo"
        assert report.counterexample_x == 17
        assert report.witness.actions == (5, 7, 5)

    def test_negative_start_heap_rejected(self):
        with pytest.raises(ValueError):
            check_observation("one-greedy", Ruleset((5, 7)), [3, -1])

    def test_report_dict_schema(self):
        d = check_observation("last-move", Ruleset((2, 3)), range(30)).as_dict()
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
        from cumsub import canonical_trace

        rs = Ruleset((2, 10, 13, 14))
        trace = canonical_trace(rs, 35)
        heap = 35
        sizes = {Mover.POSITIVE: 0, Mover.NEGATIVE: 0}
        for move in trace.moves:
            sac = rs.greedy_action(heap) - move.action
            sizes[move.mover] = max(sizes[move.mover], sac)
            heap -= move.action
        assert sizes[Mover.POSITIVE] == 4
        assert sizes[Mover.NEGATIVE] == 1

    def test_small_sweep_has_no_double_sacrifices(self):
        assert scan_sacrifice_conjecture(5, 60) == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            scan_sacrifice_conjecture(3, 100)
        with pytest.raises(ValueError):
            scan_sacrifice_conjecture(10, -1)

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

    def test_candidate_verdict_when_not_decisive(self):
        report = conjecture_report("demo", {}, {}, [{"x": 1}], decisive=False)
        assert report["verdict"] == "candidate-counterexamples"

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
