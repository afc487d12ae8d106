"""Tests for the closed-form solutions (full support and two actions).

Cross-validation principle: every closed form is checked cell by cell
against the dynamic-programming table, which test_core has already tied
to the independent minimax oracle.  The two-action structure under test:
X*({5,7}) = {5,6} u {17,18} u {29,30} with outcomes 5, 3, 1 and xi = 31;
for {2,3} the boundary block X*(3) is empty (alpha divides s1), leaving
X* = {2, 7} and xi = 8.
"""

from __future__ import annotations

import pytest

from cumsub import (
    Ruleset,
    TwoActionSolution,
    build_outcome_table,
    build_two_action,
    complementary_next,
    full_support_opt,
    full_support_outcome,
    rulesets_with_max_at_most,
    two_action_opt,
    two_action_outcome,
)
from cumsub.closed_form import _outcomes_from_xi, _residue_block
from cumsub.core import TABLE_HEAP_LIMIT

# o(x) for S={5,7}, x = 0..55 (same reference table as test_core).
O_57 = (
    0, 0, 0, 0, 0, 5, 5, 7, 7, 7, 7, 7, 2, 2,
    0, 0, 0, 3, 3, 5, 5, 7, 7, 7, 4, 4, 2, 2,
    0, 1, 1, 3, 3, 5, 5, 7, 6, 6, 4, 4, 2, 2,
    0, 1, 1, 3, 3, 5, 5, 7, 6, 6, 4, 4, 2, 2,
)


class TestFullSupport:
    def test_sawtooth_s1_3(self):
        values = tuple(full_support_outcome(3, x) for x in range(13))
        assert values == (0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1, 0)

    def test_matches_dp(self):
        for s1 in range(2, 9):
            rs = Ruleset(tuple(range(1, s1 + 1)))
            table = build_outcome_table(rs, 10 * s1)
            for x in range(10 * s1 + 1):
                assert full_support_outcome(s1, x) == table.outcomes[x], (s1, x)
                if x >= 1:
                    assert full_support_opt(s1, x) == table.opts[x], (s1, x)

    def test_opt_take_all_below_s1(self):
        assert full_support_opt(5, 3) == 3
        assert full_support_opt(5, 5) == 5
        assert full_support_opt(5, 99) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            full_support_outcome(1, 5)
        with pytest.raises(ValueError):
            full_support_outcome(3, -1)
        with pytest.raises(ValueError):
            full_support_opt(3, 0)
        with pytest.raises(ValueError):
            full_support_opt(1, 3)


class TestTwoActionStructure:
    def test_structure_5_7(self):
        sol = build_two_action(5, 7)
        assert sol.alpha == 2
        assert sol.i_max == 3
        assert sol.x_star == ((5, 6), (17, 18), (29, 30))
        assert sol.members == frozenset({5, 6, 17, 18, 29, 30})
        assert sol.xi == 31
        assert sol.ruleset == Ruleset((5, 7))

    def test_structure_2_3_boundary_block_empty(self):
        # alpha = 1 divides s1 = 3, so X*(3) degenerates to ties and is
        # not stored; greedy is canonical on it.
        sol = build_two_action(2, 3)
        assert sol.i_max == 3
        assert sol.x_star == ((2,), (7,))
        assert sol.xi == 8
        table = build_outcome_table(Ruleset((2, 3)), 12)
        assert table.opts[12] == 3  # the would-be X*(3) heap plays greedy

    def test_structure_4_6(self):
        sol = build_two_action(4, 6)
        assert sol.x_star == ((4, 5), (14, 15))
        assert sol.xi == 16

    def test_structure_3_7_greedy_dominant(self):
        sol = build_two_action(3, 7)
        assert sol.x_star == ((3, 4, 5, 6),)
        assert sol.xi == 7

    def test_block_bases_and_widths(self):
        for s2 in range(1, 20):
            for s1 in range(s2 + 1, 21):
                sol = build_two_action(s2, s1)
                assert sol.i_max == s1 // sol.alpha
                expected_blocks = sol.i_max - (1 if s1 % sol.alpha == 0 else 0)
                assert len(sol.x_star) == expected_blocks
                for i, block in enumerate(sol.x_star, start=1):
                    assert block[0] == i * s2 + (i - 1) * s1
                    assert len(block) == sol.alpha
                    assert s1 - i * sol.alpha >= 1

    def test_blocks_disjoint_and_increasing(self):
        for s2, s1 in ((5, 7), (3, 5), (7, 12), (9, 10)):
            sol = build_two_action(s2, s1)
            flat = [y for block in sol.x_star for y in block]
            assert flat == sorted(set(flat))

    def test_xi_is_one_past_largest_member(self):
        for s2 in range(1, 20):
            for s1 in range(s2 + 1, 21):
                sol = build_two_action(s2, s1)
                assert sol.xi == max(sol.members) + 1

    def test_xi_neighbor_pairs(self):
        for s2 in range(1, 20):
            assert build_two_action(s2, s2 + 1).xi == 2 * s2 * s2

    def test_one_x_star_heap_per_residue(self):
        # The residue rule of the module docstring, against the blocks
        # build_two_action lists from the paper's formula, on every pair
        # with s1 <= 300: X*(i) covers residues [s1 - i*alpha,
        # s1 - (i-1)*alpha) at heaps r + 2(i-1)*s1, so no residue holds two
        # X* heaps, and _residue_block finds each block from its residues.
        for s1 in range(2, 301):
            for s2 in range(1, s1):
                sol = build_two_action(s2, s1)
                a = sol.alpha
                k = (s1 - 1) // a
                assert len(sol.x_star) == k, (s2, s1)
                residues = [y % s1 for block in sol.x_star for y in block]
                assert len(set(residues)) == len(residues), (s2, s1)
                for i, block in enumerate(sol.x_star, start=1):
                    lo, hi = s1 - i * a, s1 - (i - 1) * a
                    assert block == tuple(range(lo + 2 * (i - 1) * s1, hi + 2 * (i - 1) * s1)), (s2, s1, i)
                    assert _residue_block(sol, lo) == _residue_block(sol, hi - 1) == i, (s2, s1, i)
                assert _residue_block(sol, s1 - k * a - 1) is None, (s2, s1)
                assert sol.xi == s1 + (k - 1) * (s1 + s2) == (s1 + s2) * -(-s2 // a) - s2, (s2, s1)

    def test_block_index(self):
        sol = build_two_action(5, 7)
        assert sol.block_index(5) == 1
        assert sol.block_index(6) == 1
        assert sol.block_index(17) == 2
        assert sol.block_index(30) == 3
        assert sol.block_index(7) is None
        assert sol.block_index(31) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            build_two_action(7, 5)
        with pytest.raises(ValueError):
            build_two_action(0, 3)
        with pytest.raises(ValueError):
            build_two_action(3, 3)
        # Refused before the X* blocks are allocated, so this costs nothing.
        with pytest.raises(ValueError, match="above the supported"):
            build_two_action(1, TABLE_HEAP_LIMIT)

    def test_as_dict_schema(self):
        assert build_two_action(5, 7).as_dict() == {
            "s2": 5,
            "s1": 7,
            "alpha": 2,
            "i_max": 3,
            "xi": 31,
            "x_star": [[5, 6], [17, 18], [29, 30]],
        }


class TestTwoActionOutcome:
    def test_matches_frozen_table_5_7(self):
        sol = build_two_action(5, 7)
        assert tuple(two_action_outcome(sol, x) for x in range(56)) == O_57

    def test_case_zero_band_before_block(self):
        # Block X*(2) = {17,18} has outcome 3; the three heaps before it
        # are a zero band.
        sol = build_two_action(5, 7)
        assert [two_action_outcome(sol, x) for x in (14, 15, 16)] == [0, 0, 0]

    def test_case_congruent_inheritance(self):
        # 34 = 6 + 2*14, so it inherits o(6) = 5 from block 1.
        sol = build_two_action(5, 7)
        assert two_action_outcome(sol, 34) == two_action_outcome(sol, 6) == 5

    def test_congruent_x_star_members_are_a_theorem_violation(self):
        # 5 and 19 share residue 5 mod 7, which the residue rule of the
        # module docstring forbids, so 19 is no X* heap.  The rules read
        # s2, s1 and alpha only: this forged listing gets the outcomes,
        # opts and block indices of the real {5,7}.
        forged = TwoActionSolution(s2=5, s1=7, alpha=2, i_max=3, xi=31, x_star=((5, 6), (19, 20)))
        sol = build_two_action(5, 7)
        assert 19 in forged.members and forged.block_index(19) is None
        for x in range(100):
            assert two_action_outcome(forged, x) == two_action_outcome(sol, x), x
            if x >= 5:
                assert two_action_opt(forged, x) == two_action_opt(sol, x), x
            assert forged.block_index(x) == sol.block_index(x), x

    def test_case_high_residue_reflection(self):
        # 41 mod 14 = 13 >= 7, so o(41) = 7 - o(34).
        sol = build_two_action(5, 7)
        assert two_action_outcome(sol, 41) == 7 - two_action_outcome(sol, 34) == 2

    def test_case_class_never_meets_x_star(self):
        # 42 = 0 mod 14: greedy alternation all the way down, outcome 0.
        sol = build_two_action(5, 7)
        assert two_action_outcome(sol, 42) == 0

    def test_greedy_dominant_branch(self):
        sol = build_two_action(3, 7)
        table = build_outcome_table(Ruleset((3, 7)), 60)
        for x in range(61):
            assert two_action_outcome(sol, x) == table.outcomes[x], x
        assert two_action_outcome(sol, 6) == 0  # forced 3;3 parity race

    def test_rejects_negative_heap(self):
        with pytest.raises(ValueError):
            two_action_outcome(build_two_action(5, 7), -1)

    def test_equals_dp_for_all_small_pairs(self):
        for s2 in range(1, 10):
            for s1 in range(s2 + 1, 11):
                sol = build_two_action(s2, s1)
                span = 3 * sol.xi
                table = build_outcome_table(Ruleset((s2, s1)), span)
                for x in range(span + 1):
                    assert two_action_outcome(sol, x) == table.outcomes[x], (s2, s1, x)
                    if x >= s2:
                        assert two_action_opt(sol, x) == table.opts[x], (s2, s1, x)


class TestOutcomesFromXi:
    """The 3*s1 outcomes from xi - s1 that convergence_point's check reads."""

    def test_frozen_5_7(self):
        # xi = 31, so the window is heaps 24..44, all in O_57.
        assert _outcomes_from_xi(build_two_action(5, 7)) == list(O_57[24:45])

    def test_equals_dp_for_every_pair_up_to_40(self):
        for rs in rulesets_with_max_at_most(40, (2,)):
            s2, s1 = rs.actions
            sol = build_two_action(s2, s1)
            table = build_outcome_table(rs, sol.xi + 2 * s1 - 1)
            assert _outcomes_from_xi(sol) == list(table.outcomes[sol.xi - s1:]), rs

    def test_congruent_x_star_members_are_a_theorem_violation(self):
        # The same forged {5,7} listing as in TestTwoActionOutcome: the
        # window reads residues, not x_star, so it is the real one.
        forged = TwoActionSolution(s2=5, s1=7, alpha=2, i_max=3, xi=31, x_star=((5, 6), (19, 20)))
        assert _outcomes_from_xi(forged) == list(O_57[24:45])


class TestTwoActionOpt:
    def test_values_5_7(self):
        sol = build_two_action(5, 7)
        assert two_action_opt(sol, 5) == 5
        assert two_action_opt(sol, 7) == 7
        assert two_action_opt(sol, 17) == 5
        assert two_action_opt(sol, 31) == 7

    def test_terminal_rejected(self):
        with pytest.raises(ValueError):
            two_action_opt(build_two_action(5, 7), 4)


class TestComplementaryStrategy:
    def test_next_action_script(self):
        sol = build_two_action(5, 7)
        assert complementary_next(sol) == 5
        assert complementary_next(sol, 7) == 5
        assert complementary_next(sol, 5) == 7
        with pytest.raises(ValueError):
            complementary_next(sol, 6)

    @pytest.mark.parametrize("s2,s1", [(5, 7), (4, 6), (5, 8), (7, 9)])
    def test_realizes_x_star_outcomes_against_optimal_negative(self, s2, s1):
        """Positive scripted by complementary_next, Negative playing from
        the exact table: from any heap in X*(i) the result is s1 - i*alpha.
        """
        sol = build_two_action(s2, s1)
        rs = sol.ruleset
        table = build_outcome_table(rs, max(sol.members))
        for i, block in enumerate(sol.x_star, start=1):
            for x in block:
                heap, score = x, 0
                last_negative = None
                positives_turn = True
                while not rs.is_terminal(heap):
                    if positives_turn:
                        action = complementary_next(sol, last_negative)
                        assert action <= heap, (x, heap)
                        score += action
                    else:
                        action = table.opts[heap]
                        last_negative = action
                        score -= action
                    heap -= action
                    positives_turn = not positives_turn
                assert score == s1 - i * sol.alpha == table.outcomes[x], (x, i)
