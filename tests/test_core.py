"""Tests for the exact single-pile solver in cumsub.core.

The frozen table below is the S={5,7} reference: 56 heaps with both the
outcome o(x) and the canonical (largest) optimal action opt(x).  Key
structure visible in it: opt is 5 exactly on {5,6,17,18,29,30} and 7
everywhere else from heap 7 on, and the o row for x=28..41 repeats
verbatim for x=42..55 (period 14 = 2*max S).
"""

from __future__ import annotations

import random

import pytest

from cumsub import (
    Mover,
    OutcomeTable,
    Ruleset,
    build_outcome_table,
    canonical_trace,
    minimax_values,
    rulesets_with_max_at_most,
)
from cumsub.core import TABLE_HEAP_LIMIT, _table_contiguous, _table_generic
from test_properties import _largest_maximizers

# o(x) and opt(x) for S={5,7}, x = 0..55, one tuple entry per heap.
O_57 = (
    0, 0, 0, 0, 0, 5, 5, 7, 7, 7, 7, 7, 2, 2,
    0, 0, 0, 3, 3, 5, 5, 7, 7, 7, 4, 4, 2, 2,
    0, 1, 1, 3, 3, 5, 5, 7, 6, 6, 4, 4, 2, 2,
    0, 1, 1, 3, 3, 5, 5, 7, 6, 6, 4, 4, 2, 2,
)
OPT_57 = (
    None, None, None, None, None, 5, 5, 7, 7, 7, 7, 7, 7, 7,
    7, 7, 7, 5, 5, 7, 7, 7, 7, 7, 7, 7, 7, 7,
    7, 5, 5, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
    7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
)


class TestRuleset:
    def test_accessors(self):
        rs = Ruleset((5, 7))
        assert rs.min_action == 5
        assert rs.max_action == 7
        assert rs.is_two_action
        assert not rs.is_contiguous
        assert not rs.is_full_support
        assert str(rs) == "{5,7}"

    def test_contiguous_and_full_support_flags(self):
        assert Ruleset((2, 3, 4)).is_contiguous
        assert not Ruleset((2, 3, 4)).is_full_support
        assert Ruleset((1, 2, 3)).is_full_support
        assert Ruleset((5, 6)).is_contiguous

    def test_rejects_single_action(self):
        with pytest.raises(ValueError):
            Ruleset((5,))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Ruleset((0, 3))
        with pytest.raises(ValueError):
            Ruleset((-2, 3))

    def test_rejects_non_integer_actions(self):
        # Floats are not truncated and strings are not parsed.
        with pytest.raises(TypeError):
            Ruleset((5.9, 7))
        with pytest.raises(TypeError):
            Ruleset(("5", "7"))

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            Ruleset((5, 3))
        with pytest.raises(ValueError):
            Ruleset((3, 3))

    def test_terminal_and_playable(self):
        rs = Ruleset((5, 7))
        assert rs.is_terminal(4)
        assert not rs.is_terminal(5)
        assert rs.playable(4) == ()
        assert rs.playable(6) == (5,)
        assert rs.playable(7) == (5, 7)

    def test_greedy_action(self):
        rs = Ruleset((5, 7))
        assert rs.greedy_action(5) == 5
        assert rs.greedy_action(6) == 5
        assert rs.greedy_action(7) == 7
        assert rs.greedy_action(100) == 7
        with pytest.raises(ValueError):
            rs.greedy_action(4)


class TestMover:
    def test_signs(self):
        assert Mover.POSITIVE.sign == 1
        assert Mover.NEGATIVE.sign == -1

    def test_opponent(self):
        assert Mover.POSITIVE.opponent is Mover.NEGATIVE
        assert Mover.NEGATIVE.opponent is Mover.POSITIVE


class TestOutcomeTable:
    def test_frozen_57_table(self):
        table = build_outcome_table(Ruleset((5, 7)), 55)
        assert table.outcomes == O_57
        assert table.opts == OPT_57

    def test_worked_example_2_3(self):
        # Heap 7 in {2,3}: the sacrifice 2 is strictly better than greedy 3.
        table = build_outcome_table(Ruleset((2, 3)), 7)
        assert table.outcome(7) == 1
        assert table.opts[7] == 2

    def test_terminal_entries(self):
        table = build_outcome_table(Ruleset((5, 7)), 55)
        for x in range(5):
            assert table.outcomes[x] == 0
            assert table.opts[x] is None

    def test_recursion_closure(self):
        # Each entry must equal max(s - o(x-s)) with the largest maximizer.
        rs = Ruleset((2, 5, 6))
        table = build_outcome_table(rs, 150)
        for x in range(2, 151):
            options = [(s - table.outcomes[x - s], s) for s in rs.actions if s <= x]
            best = max(v for v, _ in options)
            assert table.outcomes[x] == best
            assert table.opts[x] == max(s for v, s in options if v == best)

    def test_outcome_bounds(self):
        for rs in (Ruleset((5, 7)), Ruleset((2, 3, 9)), Ruleset((1, 4))):
            table = build_outcome_table(rs, 200)
            assert all(0 <= v <= rs.max_action for v in table.outcomes)

    def test_outcome_range_check(self):
        table = build_outcome_table(Ruleset((5, 7)), 20)
        with pytest.raises(ValueError):
            table.outcome(21)
        with pytest.raises(ValueError):
            table.outcome(-1)

    def test_x_max_zero(self):
        table = build_outcome_table(Ruleset((5, 7)), 0)
        assert table.outcomes == (0,)
        assert table.opts == (None,)

    def test_greedy_from(self):
        assert build_outcome_table(Ruleset((5, 7)), 55).greedy_from == 31
        assert build_outcome_table(Ruleset((2, 3)), 7).greedy_from == 8
        # Terminal heaps count as not max S, so an all-terminal table has none.
        assert build_outcome_table(Ruleset((7, 9)), 3).greedy_from == 4

    def test_rejects_bad_x_max(self):
        with pytest.raises(ValueError):
            build_outcome_table(Ruleset((5, 7)), -1)
        with pytest.raises(ValueError, match="above the supported"):
            build_outcome_table(Ruleset((5, 7)), 1 << 40)

    def test_extends_supplied_table(self):
        rs = Ruleset((5, 7))
        assert build_outcome_table(rs, 55, build_outcome_table(rs, 20)).outcomes == O_57
        assert build_outcome_table(rs, 55, build_outcome_table(rs, 55)).opts == OPT_57

    def test_rejects_table_of_another_ruleset(self):
        other = build_outcome_table(Ruleset((2, 3)), 10)
        with pytest.raises(ValueError, match="not a prefix"):
            build_outcome_table(Ruleset((5, 7)), 55, other)

    def test_rejects_table_larger_than_x_max(self):
        rs = Ruleset((5, 7))
        with pytest.raises(ValueError, match="not a prefix"):
            build_outcome_table(rs, 20, build_outcome_table(rs, 21))

    def test_rejects_table_above_heap_count_limit(self):
        # Refused before any list is allocated, so this costs nothing.
        with pytest.raises(ValueError, match="above the supported"):
            build_outcome_table(Ruleset((5, 7)), TABLE_HEAP_LIMIT)
        with pytest.raises(ValueError, match="above the supported"):
            minimax_values(Ruleset((5, 7)), TABLE_HEAP_LIMIT)


def _kernel_table(kernel, rs, x_max):
    """Run one DP kernel from heap 0 until it stops: (last non-greedy heap,
    o, opt) up to the stop, 4*max S heaps above that heap."""
    o, opts = [0] * (x_max + 1), [None] * (x_max + 1)
    last = kernel(rs, o, opts, 0, -1)
    stop = last + 4 * rs.max_action
    return last, o[:stop + 1], opts[:stop + 1]


class TestContiguousFastPath:
    """The sliding-window solver must be bit-identical to the generic one."""

    @pytest.mark.parametrize(
        "actions", [(1, 2), (2, 3), (2, 3, 4), (3, 4, 5, 6), (5, 6, 7, 8, 9)]
    )
    def test_matches_generic(self, actions):
        rs = Ruleset(actions)
        assert rs.is_contiguous
        fast = _kernel_table(_table_contiguous, rs, 250)
        slow = _kernel_table(_table_generic, rs, 250)
        assert fast == slow
        # Both return the last heap whose opt is not max S, and stop at
        # the first run of 4*max S heaps with opt max S after it.
        last, _, opts = fast
        m = rs.max_action
        assert last + 4 * m < 250
        assert opts[last] != m
        assert opts[last + 1:] == [m] * (4 * m)
        assert build_outcome_table(rs, 250).greedy_from == last + 1

    def test_build_routes_to_fast_path(self):
        # Same result through the public entry point, against references
        # that share no code with either kernel.
        rs = Ruleset((2, 3, 4))
        table = build_outcome_table(rs, 100)
        assert table.outcomes == minimax_values(rs, 100)
        assert list(table.opts) == _largest_maximizers(rs, 100)


class TestOptAction:
    def test_largest_tie_break(self):
        # At heap 43 in {5,7} both actions achieve o=1; opt picks 7.
        table = build_outcome_table(Ruleset((5, 7)), 43)
        assert 5 - table.outcomes[38] == 7 - table.outcomes[36] == 1
        assert table.opts[43] == 7
        assert table.outcomes[43] == 1


class TestMinimaxOracle:
    def test_spot_values(self):
        rs = Ruleset((5, 7))
        assert minimax_values(rs, 17)[17] == 3
        assert minimax_values(rs, 4)[4] == 0
        assert minimax_values(Ruleset((2, 3)), 7)[7] == 1

    def test_rejects_negative_heap(self):
        with pytest.raises(ValueError):
            minimax_values(Ruleset((5, 7)), -1)

    def test_matches_table_on_frozen_example(self):
        assert minimax_values(Ruleset((5, 7)), 55) == O_57

    def test_matches_table_on_seeded_rulesets(self):
        rng = random.Random(20260825)
        for _ in range(25):
            size = rng.choice((2, 3, 4))
            actions = tuple(sorted(rng.sample(range(1, 13), size)))
            rs = Ruleset(actions)
            table = build_outcome_table(rs, 120)
            assert minimax_values(rs, 120) == table.outcomes, rs


class TestCanonicalTrace:
    def test_trace_with_inner_action_1_5_7(self):
        trace = canonical_trace(Ruleset((1, 5, 7)), 18)
        assert trace.actions == (5, 7, 5, 1)
        assert trace.final_score == 2
        assert [m.score_after for m in trace.moves] == [5, -2, 3, 2]

    def test_trace_with_inner_action_2_10_13_14(self):
        trace = canonical_trace(Ruleset((2, 10, 13, 14)), 35)
        assert trace.actions == (10, 13, 10, 2)
        assert trace.final_score == 5
        # Positive's actions need not decrease: 3 and then 7 from 20 in {3,7,9}.
        trace = canonical_trace(Ruleset((3, 7, 9)), 20)
        assert trace.actions == (3, 9, 7)
        assert [m.score_after for m in trace.moves] == [3, -6, 1]

    def test_trace_2_3_sacrifice_opening(self):
        trace = canonical_trace(Ruleset((2, 3)), 7)
        assert trace.actions == (2, 3, 2)
        assert trace.final_score == 1
        assert trace.moves[0].mover is Mover.POSITIVE

    def test_final_score_equals_table_outcome(self):
        rs = Ruleset((3, 4, 9))
        table = build_outcome_table(rs, 140)
        for x in range(141):
            trace = canonical_trace(rs, x, table=table)
            assert trace.final_score == table.outcomes[x]

    def test_movers_alternate(self):
        trace = canonical_trace(Ruleset((5, 7)), 40)
        movers = [m.mover for m in trace.moves]
        assert movers[0] is Mover.POSITIVE
        assert all(a is not b for a, b in zip(movers, movers[1:]))

    def test_start_score_only_shifts(self):
        rs = Ruleset((2, 3))
        base = canonical_trace(rs, 31)
        shifted = canonical_trace(rs, 31, start_score=10)
        assert shifted.actions == base.actions
        assert shifted.final_score == base.final_score + 10
        assert shifted.start_score == 10

    def test_terminal_start_gives_empty_trace(self):
        trace = canonical_trace(Ruleset((5, 7)), 3)
        assert trace.moves == ()
        assert trace.final_score == 0

    def test_supplied_table_must_cover_game(self):
        rs = Ruleset((5, 7))
        small = build_outcome_table(rs, 10)
        with pytest.raises(ValueError):
            canonical_trace(rs, 20, table=small)
        other = build_outcome_table(Ruleset((2, 3)), 40)
        with pytest.raises(ValueError):
            canonical_trace(rs, 20, table=other)

    def test_rejects_out_of_range_start(self):
        with pytest.raises(ValueError):
            canonical_trace(Ruleset((5, 7)), -1)
        # Too large a start is refused by the table cap, before allocation.
        with pytest.raises(ValueError, match="above the supported"):
            canonical_trace(Ruleset((5, 7)), TABLE_HEAP_LIMIT)

    def test_as_dict_schema(self):
        d = canonical_trace(Ruleset((2, 3)), 7).as_dict()
        assert d["start_heap"] == 7
        assert d["final_score"] == 1
        assert d["moves"][0] == {"mover": "positive", "action": 2, "score_after": 2}


class TestRulesetEnumeration:
    def test_pair_count_and_order(self):
        pairs = rulesets_with_max_at_most(5, [2])
        assert len(pairs) == 10
        assert pairs[0].actions == (1, 2)
        assert pairs[-1].actions == (4, 5)

    def test_mixed_sizes(self):
        rs = rulesets_with_max_at_most(5, [2, 3])
        assert len(rs) == 10 + 10
        assert all(r.max_action <= 5 for r in rs)

    def test_degenerate_sizes_skipped(self):
        assert rulesets_with_max_at_most(5, [1]) == []
        assert rulesets_with_max_at_most(3, [4]) == []
