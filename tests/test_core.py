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
    default_x_max,
    minimax_values,
    rulesets_with_max_at_most,
)
from cumsub import core
from cumsub.core import (
    DEQUE_MIN_ACTIONS,
    TABLE_HEAP_LIMIT,
    _fill_period,
    _period_cell,
    _solved_table,
    _table_contiguous,
    _table_generic,
)
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

    def test_shorter_table_is_a_prefix(self):
        # Every x_max ends the pass at its own heap or at the certificate,
        # whichever comes first, and the rest is filled by period.
        rs = Ruleset((5, 7))
        for k in range(56):
            table = build_outcome_table(rs, k)
            assert table.outcomes == O_57[:k + 1], k
            assert table.opts == OPT_57[:k + 1], k

    def test_rejects_table_above_heap_count_limit(self):
        # Refused before any list is allocated, so this costs nothing.
        with pytest.raises(ValueError, match="above the supported"):
            build_outcome_table(Ruleset((5, 7)), TABLE_HEAP_LIMIT)
        with pytest.raises(ValueError, match="above the supported"):
            minimax_values(Ruleset((5, 7)), TABLE_HEAP_LIMIT)


class TestPeriodHelpers:
    """_fill_period and _period_cell, the one rule for every certified tail."""

    LAG = 4

    def _seq(self, n):
        # Cells past the block are None, so a cell left unfilled shows.
        return [10, 11, 12, 13, 14, 15, *[None] * (n - 6)]

    @pytest.mark.parametrize("extra", [0, 1])
    def test_fill_does_nothing_from_the_end_on(self, extra):
        # start = len(seq) + 1 is the W + 1 an uncertified grid row returns.
        seq = self._seq(6)
        _fill_period(seq, len(seq) + extra, self.LAG)
        assert seq == [10, 11, 12, 13, 14, 15]

    def test_fill_shorter_than_one_block(self):
        seq = self._seq(8)
        _fill_period(seq, 6, self.LAG)
        assert seq == [10, 11, 12, 13, 14, 15, 12, 13]

    def test_fill_exactly_three_blocks(self):
        seq = self._seq(6 + 3 * self.LAG)
        _fill_period(seq, 6, self.LAG)
        assert seq == [10, 11, *[12, 13, 14, 15] * 4]

    @pytest.mark.parametrize(
        "x, cell", [(5, 5), (6, 2), (6 + LAG - 1, 5), (6 + LAG, 2)]
    )
    def test_cell_map_at_the_block_edges(self, x, cell):
        # x = start - 1 is the last cell of the block and maps to itself.
        assert _period_cell(x, 6, self.LAG) == cell


def _kernel_table(kernel, rs, limit):
    """Run one DP kernel from heap 0 until 2*max S heaps with opt max S stop
    it: (last non-greedy heap, o, opt), which end at the stop or at limit.
    opt is expanded from the kernel's sparse pairs: None below min S, and
    max S on every solved heap that has no pair."""
    o, sparse, last = kernel(rs, limit)
    opts = [None] * min(rs.min_action, len(o)) + [rs.max_action] * (len(o) - rs.min_action)
    for x, s in sparse:
        opts[x] = s
    return last, o, opts


class TestContiguousFastPath:
    """The sliding-window solver must be bit-identical to the generic one."""

    @pytest.mark.parametrize(
        "actions",
        [
            (1, 2), (2, 3), (9, 10), (2, 3, 4), (3, 4, 5, 6), (5, 6, 7, 8, 9),
            # Either side of the dispatch crossover.
            tuple(range(12, 12 + DEQUE_MIN_ACTIONS - 1)),
            tuple(range(12, 12 + DEQUE_MIN_ACTIONS)),
        ],
    )
    def test_matches_generic(self, actions):
        rs = Ruleset(actions)
        assert rs.is_contiguous
        m = rs.max_action
        fast = _kernel_table(_table_contiguous, rs, 250)
        slow = _kernel_table(_table_generic, rs, 250)
        assert fast == slow
        # Both return the last heap whose opt is not max S, and stop at
        # the first run of 2*max S heaps with opt max S after it.
        last, _, opts = fast
        assert last + 2 * m < 250
        assert opts[last] != m
        assert opts[last + 1:] == [m] * (2 * m)
        assert build_outcome_table(rs, 250).greedy_from == last + 1
        # A limit one heap short of the stop ends the lists there instead.
        for kernel in (_table_contiguous, _table_generic):
            short = _kernel_table(kernel, rs, last + 2 * m - 1)
            assert short == (last, fast[1][:-1], opts[:-1])

    def test_certificate_run_finds_the_same_greedy_from(self):
        # 2*max S heaps with opt max S certify it on every larger heap
        # (see build_outcome_table), so the pass stopped by that run finds
        # the greedy_from that a two-table minimax finds up to
        # default_x_max: one past the last heap whose opt is not max S, on
        # every ruleset with max S <= 9.
        for rs in rulesets_with_max_at_most(9, range(2, 10)):
            m = rs.max_action
            table = _solved_table(rs, default_x_max(rs), 0)
            opts = _largest_maximizers(rs, default_x_max(rs))
            assert table.greedy_from == 1 + max(x for x, opt in enumerate(opts) if opt != m), rs
            assert table.x_max == table.greedy_from + 2 * m - 1, rs
            assert list(table.opts) == opts[:table.x_max + 1], rs

    @pytest.mark.parametrize(
        "actions, kernel",
        [
            ((5, 6), "_table_generic"),
            ((999, 1000), "_table_generic"),
            (tuple(range(3, 3 + DEQUE_MIN_ACTIONS - 1)), "_table_generic"),
            (tuple(range(3, 3 + DEQUE_MIN_ACTIONS)), "_table_contiguous"),
            ((3, 4, 5, 6, 7, 9), "_table_generic"),
        ],
    )
    def test_dispatch_follows_the_crossover(self, monkeypatch, actions, kernel):
        # Only contiguous sets of DEQUE_MIN_ACTIONS or more actions are
        # faster on the deque kernel; pairs such as {999,1000} are not.
        calls = []

        def spy(name):
            real = getattr(core, name)

            def call(ruleset, limit, keep=None):
                calls.append(name)
                return real(ruleset, limit, keep)
            return call

        for name in ("_table_contiguous", "_table_generic"):
            monkeypatch.setattr(core, name, spy(name))
        build_outcome_table(Ruleset(actions), 20)
        assert calls == [kernel]

    def test_build_routes_to_fast_path(self):
        # Same result through the public entry point, against references
        # that share no code with either kernel.
        rs = Ruleset(tuple(range(2, 2 + DEQUE_MIN_ACTIONS)))
        table = build_outcome_table(rs, 100)
        assert table.outcomes == minimax_values(rs, 100)
        assert list(table.opts) == _largest_maximizers(rs, 100)


class TestStreamingKernels:
    """With keep set, a kernel trims o to its last keep heaps between
    chunks of keep heaps: what it returns is the tail of the whole pass."""

    @pytest.mark.parametrize(
        "actions", [(2, 3), (5, 7), (3, 7, 8), (2, 5, 6, 9), (3, 4, 5, 6, 7), (6, 7, 8, 9, 10, 11)]
    )
    def test_trimmed_pass_is_the_tail_of_the_whole_pass(self, actions):
        # Every keep from max S up past the whole pass puts the trims at
        # every offset to xi, to the 2*max S run that stops the pass and
        # to limit.
        rs = Ruleset(actions)
        m = rs.max_action
        kernels = [_table_generic]
        if rs.is_contiguous:
            kernels.append(_table_contiguous)
        for kernel in kernels:
            _, _, last = kernel(rs, 10**6)
            for limit in (last + 2 * m, last + 2 * m - 1, last):
                whole, _, whole_last = kernel(rs, limit)
                for keep in range(m, len(whole) + 2):
                    tail, _, tail_last = kernel(rs, limit, keep)
                    case = (kernel.__name__, limit, keep)
                    assert tail_last == whole_last, case
                    assert min(keep, len(whole)) <= len(tail) <= 2 * keep, case
                    assert tail == whole[len(whole) - len(tail):], case


class TestOptAction:
    def test_largest_tie_break(self):
        # At heap 43 in {5,7} both actions achieve o=1; opt picks 7.
        table = build_outcome_table(Ruleset((5, 7)), 43)
        assert 5 - table.outcomes[38] == 7 - table.outcomes[36] == 1
        assert table.opts[43] == 7
        assert table.outcomes[43] == 1

    @pytest.mark.parametrize(
        "actions, heap, tied, opt",
        [
            # Below max S: seeded from 3, the largest playable action,
            # and 1 ties it.
            ((1, 3, 8), 7, (1, 3), 3),
            # Above max S: seeded from 5, then 4 beats it and 2 ties 4.
            ((2, 4, 5), 11, (2, 4), 4),
        ],
    )
    def test_generic_kernel_largest_tie_break(self, actions, heap, tied, opt):
        rs = Ruleset(actions)
        assert not rs.is_contiguous
        _, o, opts = _kernel_table(_table_generic, rs, 100)
        best = max(s - o[heap - s] for s in actions if s <= heap)
        assert [s for s in actions if s <= heap and s - o[heap - s] == best] == list(tied)
        assert opts[heap] == opt
        assert build_outcome_table(rs, heap).opts[heap] == opt


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

    def test_matches_table_on_the_extremal_pair(self):
        # {999,1000} has the largest xi for its max S, 2*999^2 = 1996002.
        # The whole table to xi + 4*max S - 1: solved by the DP up to
        # xi + 2*max S - 1, its certificate run, and filled by period above.
        rs = Ruleset((999, 1000))
        x_max = 1996002 + 3999
        assert build_outcome_table(rs, x_max).outcomes == minimax_values(rs, x_max)


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
