"""Property tests: closed forms, the complementary strategy, period probes,
the convergence and period certificates, resumed tables and their
period-filled tails, the optimal-action tie-break and two-pile grids
against independent computations.

Hypothesis runs derandomized with a bounded example count, so every run
checks the same cases.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cumsub import (
    Mover,
    Ruleset,
    build_grid,
    build_outcome_table,
    build_two_action,
    canonical_trace,
    complementary_next,
    convergence_point,
    default_x_max,
    eventual_period,
    minimax_values,
    row_period,
    two_action_opt,
    two_pile_minimax,
    two_action_outcome,
)
from cumsub.analysis import _trace_summaries

pairs = st.integers(2, 80).flatmap(lambda s1: st.tuples(st.integers(1, s1 - 1), st.just(s1)))

rulesets = st.integers(2, 12).flatmap(
    lambda m: st.lists(st.integers(1, m - 1), min_size=1, max_size=3, unique=True).map(
        lambda rest: Ruleset(tuple(sorted(rest)) + (m,))
    )
)

wide_rulesets = st.integers(2, 40).flatmap(
    lambda m: st.lists(st.integers(1, m - 1), min_size=1, max_size=min(4, m - 1), unique=True).map(
        lambda rest: Ruleset(tuple(sorted(rest)) + (m,))
    )
)


def sized_action_sets(top):
    """Rulesets of 2 to 5 distinct actions drawn from 1..top."""
    return st.integers(2, 5).flatmap(
        lambda k: st.lists(st.integers(1, top), min_size=k, max_size=k, unique=True).map(
            lambda acts: Ruleset(tuple(sorted(acts)))
        )
    )


sized_rulesets = sized_action_sets(15)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pairs)
def test_two_action_closed_form_matches_dp(pair):
    s2, s1 = pair
    sol = build_two_action(s2, s1)
    rs = Ruleset((s2, s1))
    table = build_outcome_table(rs, default_x_max(rs))
    for x in range(table.x_max + 1):
        assert two_action_outcome(sol, x) == table.outcomes[x], x
        assert (sol.block_index(x) is not None) == (x in sol.members), x
        if x >= s2:
            assert two_action_opt(sol, x) == table.opts[x], x


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rulesets)
def test_grid_row_zero_period_matches_single_pile(rs):
    # Row 0 is the single-pile game.  The width puts the probe's last-third
    # tail past the convergence bound 2*m^2 with 4*m heaps beyond it.
    m = rs.max_action
    width = 3 * m * m + 12 * m + 3
    grid = build_grid(rs, width, 1)
    table = build_outcome_table(rs, width - 1)
    assert grid.values[0] == table.outcomes
    report = row_period(grid, 0)
    assert report.period == eventual_period(table, report.tail_start).period


@settings(derandomize=True, max_examples=40, deadline=None)
@given(sized_rulesets)
def test_trace_summaries_match_trace_replay(rs):
    x_cap = 150
    mine, theirs, plies = _trace_summaries(rs, x_cap)
    table = build_outcome_table(rs, x_cap)
    for x in range(x_cap + 1):
        trace = canonical_trace(rs, x, table=table)
        largest = {Mover.POSITIVE: 0, Mover.NEGATIVE: 0}
        heap = x
        for move in trace.moves:
            sac = rs.greedy_action(heap) - move.action
            largest[move.mover] = max(largest[move.mover], sac)
            heap -= move.action
        assert (mine[x], theirs[x]) == (largest[Mover.POSITIVE], largest[Mover.NEGATIVE]), x
        assert plies[x] == len(trace.moves), x
        positive_last = bool(trace.moves) and trace.moves[-1].mover is Mover.POSITIVE
        assert positive_last == (plies[x] % 2 == 1), x


def _largest_maximizers(rs, x_max):
    """opt(h) from an explicit two-table minimax: one value table per mover.

    Positive's largest action maximizing s + vn[h-s], where vn is the value
    with Negative to move, which minimizes -s + vp[h-s].  None at terminal
    heaps.  Shares no code with the single-table DP.
    """
    vp = [0] * (x_max + 1)
    vn = [0] * (x_max + 1)
    opts = [None] * (x_max + 1)
    for h in range(rs.min_action, x_max + 1):
        playable = [s for s in rs.actions if s <= h]
        vp[h] = max(s + vn[h - s] for s in playable)
        vn[h] = min(-s + vp[h - s] for s in playable)
        opts[h] = max(s for s in playable if s + vn[h - s] == vp[h])
    return opts


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sized_rulesets)
def test_opt_is_largest_maximizer_of_two_table_minimax(rs):
    x_max = 200
    assert list(build_outcome_table(rs, x_max).opts) == _largest_maximizers(rs, x_max)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(wide_rulesets)
def test_certified_xi_matches_full_table(rs):
    m = rs.max_action
    table = build_outcome_table(rs, default_x_max(rs))
    last = max(x for x in range(table.x_max + 1) if table.opts[x] != m)
    assert convergence_point(rs).xi == convergence_point(rs, table).xi == last + 1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(wide_rulesets)
def test_opt_is_max_from_certified_xi_far_past_window(rs):
    # Read from the two-table minimax, not the DP, which fills this range.
    m = rs.max_action
    xi = convergence_point(rs).xi
    opts = _largest_maximizers(rs, 3 * default_x_max(rs))
    assert opts[xi - 1] != m
    assert all(opt == m for opt in opts[xi:])


def _naive_period(values, start, p_cap):
    """First p <= p_cap with values[x] == values[x+p] on the whole tail."""
    for p in range(1, p_cap + 1):
        if all(values[x] == values[x + p] for x in range(start, len(values) - p)):
            return p
    return None


def _period_or_none(table, tail_start):
    try:
        return eventual_period(table, tail_start).period
    except ValueError:
        return None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(wide_rulesets, st.data())
def test_divisor_period_matches_all_p_scan(rs, data):
    # Any tail_start, periodic from there or not: only divisors of 2*max S
    # are tried, yet the answer is the one every p <= 2*max S would give.
    m = rs.max_action
    full = build_outcome_table(rs, default_x_max(rs))
    tail_start = data.draw(st.integers(0, full.x_max - 4 * m))
    short = build_outcome_table(rs, tail_start + 4 * m)
    for table in (full, short):
        assert _period_or_none(table, tail_start) == _naive_period(
            table.outcomes, tail_start, 2 * m
        ), table.x_max


@settings(derandomize=True, max_examples=40, deadline=None)
@given(wide_rulesets)
def test_certified_period_holds_far_past_window(rs):
    m = rs.max_action
    xi = convergence_point(rs).xi
    report = eventual_period(build_outcome_table(rs, xi + 4 * m), xi)
    assert report.verified_up_to == default_x_max(rs)
    far = minimax_values(rs, 3 * default_x_max(rs))
    assert _naive_period(far, xi, 2 * m) == report.period


@settings(derandomize=True, max_examples=40, deadline=None)
@given(wide_rulesets)
def test_period_in_report_matches_full_table(rs):
    report = convergence_point(rs)
    full = build_outcome_table(rs, default_x_max(rs))
    assert report.period == eventual_period(full, report.xi)


contiguous_rulesets = st.integers(2, 12).flatmap(
    lambda m: st.integers(1, m - 1).map(lambda lo: Ruleset(tuple(range(lo, m + 1))))
)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.one_of(rulesets, contiguous_rulesets), st.integers(0, 300), st.data())
def test_resumed_table_equals_fresh_table(rs, n, data):
    # Split below min S, below max S (inside the first window), or anywhere.
    lo, hi = rs.min_action, rs.max_action
    k = data.draw(st.one_of(st.integers(0, lo - 1), st.integers(0, hi - 1), st.integers(0, n)))
    k = min(k, n)
    fresh = build_outcome_table(rs, n)
    assert build_outcome_table(rs, n, build_outcome_table(rs, k)) == fresh
    greedy_from = n + 1
    while greedy_from > 0 and fresh.opts[greedy_from - 1] == hi:
        greedy_from -= 1
    assert fresh.greedy_from == greedy_from


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(wide_rulesets, contiguous_rulesets), st.data())
def test_certified_tail_matches_independent_references(rs, data):
    # Past the run of 4*max S heaps with opt = max S that stops the DP, the
    # table is filled by period; fresh and resumed builds, split below,
    # inside and after that run, must still equal the references everywhere.
    m = rs.max_action
    x_max = 3 * default_x_max(rs)
    outcomes = minimax_values(rs, x_max)
    opts = _largest_maximizers(rs, x_max)
    last = max(x for x, opt in enumerate(opts) if opt != m)
    splits = [
        data.draw(st.integers(0, last)),
        data.draw(st.integers(last + 1, last + 4 * m)),
        data.draw(st.integers(last + 4 * m + 1, x_max)),
    ]
    tables = [build_outcome_table(rs, x_max)]
    tables += [build_outcome_table(rs, x_max, build_outcome_table(rs, k)) for k in splits]
    for table in tables:
        assert table.outcomes == outcomes
        assert list(table.opts) == opts
        assert table.greedy_from == last + 1


def _complementary_score(sol, table, x):
    """Final score from heap x with Positive scripted by complementary_next
    and Negative playing opt from the table; None once the script asks for
    an action larger than the heap."""
    rs = sol.ruleset
    heap, score, last_negative, positives_turn = x, 0, None, True
    while not rs.is_terminal(heap):
        if positives_turn:
            action = complementary_next(sol, last_negative)
            if action > heap:
                return None
            score += action
        else:
            action = last_negative = table.opts[heap]
            score -= action
        heap -= action
        positives_turn = not positives_turn
    return score


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pairs)
def test_complementary_play_attains_x_star_outcomes(pair):
    # From every X* heap the scripted Positive attains o(x).  The one
    # exception is X*(1) = [s2, s1) when 2*s2 < s1: Negative can answer s2
    # there, and the complement s1 is larger than the heap left.
    s2, s1 = pair
    sol = build_two_action(s2, s1)
    table = build_outcome_table(sol.ruleset, max(sol.members))
    for i, block in enumerate(sol.x_star, start=1):
        for x in block:
            score = _complementary_score(sol, table, x)
            if score is None:
                assert i == 1 and 2 * s2 < s1, (x, i)
            else:
                assert score == table.outcomes[x], x


grid_shapes = st.tuples(sized_action_sets(12), st.integers(1, 60), st.integers(1, 60))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(grid_shapes)
def test_grid_matches_two_pile_oracle(shape):
    # Rectangles, sides shorter than max S included: the per-diagonal
    # offsets of the wavefront fill are where a shape bug would show.
    rs, width, height = shape
    grid = build_grid(rs, width, height)
    memo = {}
    for x2 in range(height):
        for x1 in range(width):
            v = grid.values[x2][x1]
            assert type(v) is int, (x1, x2)
            assert v == two_pile_minimax(rs, x1, x2, memo), (x1, x2)
    for x2 in range(min(width, height)):
        for x1 in range(x2):
            assert grid.values[x2][x1] == grid.values[x1][x2], (x1, x2)
    dead = build_outcome_table(rs, width - 1).outcomes
    for x2 in range(min(rs.min_action, height)):
        assert grid.values[x2] == dead, x2
