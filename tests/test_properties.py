"""Property tests: closed forms, the complementary strategy, line periods,
the convergence and period certificates, the trace summaries, the
observation checks and the sacrifice scan past their cut, tables of every
length and their period-filled tails, the optimal-action tie-break,
two-pile grids, their exports, and both minimax oracles against
independent computations.

Hypothesis runs derandomized with a bounded example count, so every run
checks the same cases.
"""

from __future__ import annotations

import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cumsub import analysis, core, multipile

from cumsub import (
    Mover,
    Ruleset,
    SacrificeFinding,
    build_grid,
    build_outcome_table,
    build_two_action,
    canonical_trace,
    complementary_next,
    convergence_point,
    default_x_max,
    eventual_period,
    export_grid,
    minimax_values,
    row_period,
    scan_sacrifice_conjecture,
    two_action_opt,
    two_pile_values,
    two_action_outcome,
)
from cumsub.analysis import _trace_summaries
from cumsub.closed_form import _outcomes_from_xi
from test_multipile import _reference_export

pairs = st.integers(2, 80).flatmap(lambda s1: st.tuples(st.integers(1, s1 - 1), st.just(s1)))
wide_pairs = st.integers(2, 150).flatmap(lambda s1: st.tuples(st.integers(1, s1 - 1), st.just(s1)))

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
    # Row 0 is the single-pile game.  The grid of height 1 holds no shift
    # certificate, so the report comes from a square certified apart from
    # it; the width puts 4*m heaps past the convergence bound 2*m^2 in the
    # table, so eventual_period can read the tail from the reported start.
    m = rs.max_action
    width = 3 * m * m + 12 * m + 3
    grid = build_grid(rs, width, 1)
    table = build_outcome_table(rs, width - 1)
    assert grid.values[0] == table.outcomes
    report = row_period(grid, 0)
    assert report.period == eventual_period(table, report.tail_start).period


def _replayed_sacrifices(rs, x, table):
    """Each player's largest sacrifice on the canonical trace from x,
    replayed move by move, and whether Positive moves last."""
    trace = canonical_trace(rs, x, table=table)
    largest = {Mover.POSITIVE: 0, Mover.NEGATIVE: 0}
    heap = x
    for move in trace.moves:
        sac = rs.playable(heap)[-1] - move.action
        largest[move.mover] = max(largest[move.mover], sac)
        heap -= move.action
    positive_last = bool(trace.moves) and trace.moves[-1].mover is Mover.POSITIVE
    return largest[Mover.POSITIVE], largest[Mover.NEGATIVE], positive_last


def _check_summaries_by_replay(rs, x_cap):
    """_trace_summaries(rs, x_cap) against canonical traces replayed move by
    move: each player's largest sacrifice and who moves last, at every start
    heap up to x_cap, read at its period cell from the cut on."""
    stop, mine, theirs, last = _trace_summaries(rs, x_cap)
    table = build_outcome_table(rs, x_cap)
    assert len(mine) == len(theirs) == len(last) == stop <= x_cap + 1
    for x in range(x_cap + 1):
        c = x if x < stop else core._period_cell(x, stop, 2 * rs.max_action)
        assert (mine[c], theirs[c], last[c]) == _replayed_sacrifices(rs, x, table), x


@settings(derandomize=True, max_examples=40, deadline=None)
@given(sized_rulesets)
def test_trace_summaries_match_trace_replay(rs):
    _check_summaries_by_replay(rs, 150)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rs=sized_rulesets, x_cap=st.none())
# The pass stops at greedy_from + max S; these put that cut at x_cap
# (one heap read from the block below it) and at x_cap + 1 (none), once
# inside a greedy run that ends below xi = 71 and once from xi on.
@example(rs=Ruleset((2, 7, 10, 11)), x_cap=43)
@example(rs=Ruleset((2, 7, 10, 11)), x_cap=42)
@example(rs=Ruleset((2, 7, 10, 11)), x_cap=82)
@example(rs=Ruleset((2, 7, 10, 11)), x_cap=81)
def test_trace_summaries_past_the_cut_match_trace_replay(rs, x_cap):
    # default_x_max lies 4*max S heaps past the bound on xi, so the DP
    # pass reaches its certificate, the summaries stop at xi + max S, and
    # the rest is read by period.
    if x_cap is None:
        x_cap = default_x_max(rs)
    else:
        cut = build_outcome_table(rs, x_cap).greedy_from + rs.max_action
        assert cut in (x_cap, x_cap + 1)
    _check_summaries_by_replay(rs, x_cap)


scan_rulesets = st.integers(4, 22).flatmap(
    lambda m: st.lists(st.integers(1, m - 1), min_size=3, max_size=4, unique=True).map(
        lambda rest: Ruleset(tuple(sorted(rest)) + (m,))
    )
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rs=scan_rulesets, x_cap=st.integers(0, 200))
# No ruleset with max S <= 15 has a double sacrifice at or past its cut
# greedy_from + max S, so these do.  {4,6,7,16,21} cuts at 115 and has
# one at 73 = 115 - 2*21: x_cap = 115 reads it shifted to 115, and
# x_cap = 114 reads no heap past the cut.  Its block hits 73 and 94 recur
# three periods past the cut at 241 = x_cap and 262, and further by 300.
# {2,3,12,20} cuts at 72 and has them at 51 and 71, read again at 91,
# 111, 131, 151, ...
@example(rs=Ruleset((4, 6, 7, 16, 21)), x_cap=115)
@example(rs=Ruleset((4, 6, 7, 16, 21)), x_cap=114)
@example(rs=Ruleset((4, 6, 7, 16, 21)), x_cap=200)
@example(rs=Ruleset((4, 6, 7, 16, 21)), x_cap=241)
@example(rs=Ruleset((4, 6, 7, 16, 21)), x_cap=300)
@example(rs=Ruleset((2, 3, 12, 20)), x_cap=200)
def test_sacrifice_scan_matches_trace_replay(rs, x_cap):
    # The scan sweeps this one ruleset, against a canonical trace
    # replayed from every start heap up to x_cap.
    table = build_outcome_table(rs, x_cap)
    expected = []
    for x in range(x_cap + 1):
        pos, neg, _ = _replayed_sacrifices(rs, x, table)
        if pos and neg:
            expected.append(SacrificeFinding(rs, x, pos, neg, consistent=neg < pos))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "rulesets_with_max_at_most", lambda max_s, sizes: [rs])
        assert scan_sacrifice_conjecture(rs.max_action, x_cap) == expected


observed_cases = st.integers(2, 20).flatmap(
    lambda s1: st.tuples(
        st.integers(1, s1 - 1).map(lambda s2: Ruleset((s2, s1))),
        # 2*s1^2 + s1 bounds the cut greedy_from + max S, so x_cap also
        # reaches 2*s1 heaps past it.
        st.integers(0, 2 * s1 * s1 + 3 * s1),
    )
)

# Predicates on (Positive sacrifices, Negative sacrifices, Positive moves
# last) that fire, beside the two observations, which hold on every pair
# with max S <= 40 and so never reach the counterexample path.
_firing_predicates = {
    "positive-sacrifices": lambda pos, neg, pos_last: pos,
    "negative-sacrifices": lambda pos, neg, pos_last: neg,
    "positive-sacrifices-last": lambda pos, neg, pos_last: pos and pos_last,
    "negative-moves-last": lambda pos, neg, pos_last: not pos_last,
    "greedy-positive-last": lambda pos, neg, pos_last: pos_last and not (pos or neg),
}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=observed_cases, name=st.sampled_from(["last-move", "one-greedy", *_firing_predicates]))
# {5,7} first has Positive sacrifice and move last at 17 (5;7;5): at
# x_cap = 17 that heap is the last one read, and at 16 there is none.
@example(case=(Ruleset((5, 7)), 17), name="positive-sacrifices-last")
@example(case=(Ruleset((5, 7)), 16), name="positive-sacrifices-last")
def test_check_observation_matches_trace_replay(case, name):
    # The first heap <= x_cap whose replayed trace violates, with that
    # heap's trace as the witness; the check holds when there is none.
    rs, x_cap = case
    if name in _firing_predicates:
        observation = ("patched-sweep", name, _firing_predicates[name])
    else:
        observation = analysis._OBSERVATIONS[name]
    table = build_outcome_table(rs, x_cap)
    violated = observation[2]
    first = next((x for x in range(x_cap + 1) if violated(*_replayed_sacrifices(rs, x, table))), None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(analysis._OBSERVATIONS, name, observation)
        report = analysis.check_observation(name, rs, x_cap)
    assert report.observation == observation[1]
    assert report.holds is (first is None)
    assert report.counterexample_x == first
    assert report.witness == (None if first is None else canonical_trace(rs, first))


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
@given(wide_pairs)
@example((149, 150))  # xi = 2*149^2, the largest the property draws
def test_closed_form_convergence_matches_the_dp(pair):
    # convergence_point answers a pair from the closed form alone; the
    # caller's table takes it through the DP certificate.
    rs = Ruleset(pair)
    table = build_outcome_table(rs, default_x_max(rs))
    report = convergence_point(rs)
    assert report == convergence_point(rs, table)
    m = rs.max_action
    window = table.outcomes[report.xi - m:report.xi + 2 * m]
    assert _outcomes_from_xi(build_two_action(*pair)) == list(window)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(wide_pairs, st.lists(st.integers(0, 10**12), min_size=1, max_size=20))
@example((149, 150), [10**12, 10**12 - 1, 2 * 149**2 - 1])
def test_two_action_closed_form_far_out_matches_the_periodic_dp(pair, heaps):
    # Past xi the outcomes repeat with period 2*s1 and opt is s1, so the
    # DP's 2*s1 heaps from xi hold the answer at every heap, however far.
    s2, s1 = pair
    sol = build_two_action(s2, s1)
    table = build_outcome_table(Ruleset(pair), sol.xi + 2 * s1 - 1)
    for x in heaps:
        y = x if x < sol.xi else sol.xi + (x - sol.xi) % (2 * s1)
        assert two_action_outcome(sol, x) == table.outcomes[y], x
        if x >= s2:
            assert two_action_opt(sol, x) == table.opts[y], x


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
    # The period holds on every heap, so a longer table reports the same.
    assert report == eventual_period(build_outcome_table(rs, 3 * default_x_max(rs)), xi)
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
    # A short table is a prefix of a longer one, and convergence_point
    # handed it re-solves to the report it gives with no table at all.
    lo, hi = rs.min_action, rs.max_action
    k = data.draw(st.one_of(st.integers(0, lo - 1), st.integers(0, hi - 1), st.integers(0, n)))
    k = min(k, n)
    fresh = build_outcome_table(rs, n)
    short = build_outcome_table(rs, k)
    assert short.outcomes == fresh.outcomes[:k + 1]
    assert short.opts == fresh.opts[:k + 1]
    assert convergence_point(rs, short) == convergence_point(rs)
    greedy_from = n + 1
    while greedy_from > 0 and fresh.opts[greedy_from - 1] == hi:
        greedy_from -= 1
    assert fresh.greedy_from == greedy_from


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(wide_rulesets, contiguous_rulesets), st.data())
def test_certified_tail_matches_independent_references(rs, data):
    # Past the run of 2*max S heaps with opt = max S that stops the DP, the
    # table is filled by period; tables ending below xi, within 4*max S
    # heaps of it and past those must still equal the references on every
    # heap they hold.
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
    for k in (x_max, *splits):
        table = build_outcome_table(rs, k)
        assert table.outcomes == outcomes[:k + 1]
        assert list(table.opts) == opts[:k + 1]
        assert table.greedy_from == 1 + max(x for x, opt in enumerate(opts[:k + 1]) if opt != m)


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
    # Rectangles, sides shorter than max S included: the cells below
    # max S and the rows of a tall grid past its width are where a shape
    # bug would show.
    rs, width, height = shape
    grid = build_grid(rs, width, height)
    assert all(type(v) is int for row in grid.values for v in row)
    assert grid.values == two_pile_values(rs, width, height)
    # build_grid copies mirrored cells, so this loop checks the builder
    # against itself; the oracle equality above is the independent check.
    for x2 in range(min(width, height)):
        for x1 in range(x2):
            assert grid.values[x2][x1] == grid.values[x1][x2], (x1, x2)
    dead = build_outcome_table(rs, width - 1).outcomes
    for x2 in range(min(rs.min_action, height)):
        assert grid.values[x2] == dead, x2


certifying_grids = st.tuples(sized_action_sets(8), st.integers(24, 160), st.integers(24, 160))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(certifying_grids)
@example((Ruleset((5, 7)), 160, 120))
@example((Ruleset((1, 2, 3, 5, 8)), 60, 160))
def test_certified_grid_rows_match_two_pile_oracle(shape):
    # Sides from 3 max S (the least start of a certified row) to 160: most
    # rows certify, many right after their mirrored cells, and the rows of
    # a tall grid past its width repeat as whole rows, so the oracle checks
    # every cell and row filled by period.
    rs, width, height = shape
    assert build_grid(rs, width, height).values == two_pile_values(rs, width, height)


shifted_grids = st.tuples(sized_action_sets(6), st.integers(70, 200), st.integers(70, 300))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(shifted_grids)
@example((Ruleset((5, 7)), 400, 100))
@example((Ruleset((2, 3, 5)), 150, 600))
@example((Ruleset((5, 7)), 60, 400))
@example((Ruleset((1, 2, 3, 5, 8)), 23, 300))
def test_shifted_grid_rows_match_two_pile_oracle(shape):
    # Sides of 70 or more let the shift certificate fire on most of these
    # rulesets, so rows past T + 2 max S are copies, past the width of a
    # tall grid too.  The last two examples are too narrow for it: {5,7}
    # at width 60 certifies rows but not the shift, and {1,2,3,5,8} at
    # width 23, below 3 max S, certifies no row at all.
    rs, width, height = shape
    assert build_grid(rs, width, height).values == two_pile_values(rs, width, height)


export_sides = st.one_of(st.integers(1, 60), st.integers(61, 150))
export_shapes = st.tuples(
    sized_action_sets(9), export_sides, export_sides, st.sampled_from(["csv", "pgm", "ppm"])
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(shape=export_shapes)
@example(shape=(Ruleset((5, 7)), 130, 60, "csv"))
@example(shape=(Ruleset((5, 7)), 60, 130, "ppm"))
@example(shape=(Ruleset((2, 3, 5)), 80, 150, "pgm"))
@example(shape=(Ruleset((1, 2, 3, 5, 8)), 60, 400, "pgm"))
def test_export_matches_per_cell_writer(tmp_path_factory, shape):
    # Sides up to 150 put max S <= 9 grids on both sides of the shift
    # certificate: where it fires, most rows are written as slices of the
    # row max S before them in the output.  {5,7} fires at
    # 130x60 but not at 60x130; {2,3,5} fires on a tall grid.
    # {1,2,3,5,8} at 60x400 stores rows below 24 only, so the rows past
    # its width are written from the certificate.
    rs, width, height, fmt = shape
    grid = build_grid(rs, width, height)
    assert grid.value_set == frozenset(v for row in grid.values for v in row)
    path = tmp_path_factory.mktemp("export") / f"grid.{fmt}"
    export_grid(grid, fmt, str(path))
    assert path.read_bytes() == _reference_export(grid, fmt)


narrow_tall_strips = sized_action_sets(12).flatmap(
    lambda rs: st.integers(1, 2 * rs.max_action + 3).flatmap(
        lambda w: st.tuples(
            st.just(rs), st.just(w), st.integers(w + 6 * rs.max_action, w + 16 * rs.max_action)
        )
    )
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(narrow_tall_strips)
@example((Ruleset((5, 7)), 1, 200))
@example((Ruleset((11, 12)), 27, 219))
def test_narrow_tall_strip_rows_match_two_pile_oracle(shape):
    # Strips at most 2 max S + 3 wide, too narrow for the shift
    # certificate: rows past the width are solved until max S of them in
    # a row equal the rows 2 max S below, and the rest repeat by period.
    # {5,7} at width 1 has rows past the width below 2 max S, which have
    # no row 2 max S below to compare; {11,12} repeats no whole row by
    # height 219, so every row is solved.
    rs, width, height = shape
    assert build_grid(rs, width, height).values == two_pile_values(rs, width, height)


def _game_tree_value(rs, piles, positive, memo):
    """Value of the position by top-down search, the player to move an argument.

    Every move removes s in S from one pile; Positive adds s to the score
    and maximizes, Negative subtracts it and minimizes, and a position
    with no move is worth 0.  Memoized on (piles, positive).
    """
    key = (piles, positive)
    if key not in memo:
        children = [
            (s, piles[:i] + (p - s,) + piles[i + 1:])
            for i, p in enumerate(piles)
            for s in rs.actions
            if s <= p
        ]
        if not children:
            memo[key] = 0
        elif positive:
            memo[key] = max(s + _game_tree_value(rs, after, False, memo) for s, after in children)
        else:
            memo[key] = min(-s + _game_tree_value(rs, after, True, memo) for s, after in children)
    return memo[key]


one_rulesets = st.integers(2, 12).flatmap(
    lambda m: st.sets(st.integers(1, m), max_size=3).map(
        lambda rest: Ruleset(tuple(sorted(rest | {1, m})))
    )
)
oracle_rulesets = st.one_of(rulesets, contiguous_rulesets, one_rulesets)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(oracle_rulesets)
@example(Ruleset((1, 2)))
@example(Ruleset((5, 6, 7)))
def test_minimax_values_match_game_tree_search(rs):
    memo = {}
    expected = tuple(_game_tree_value(rs, (h,), True, memo) for h in range(61))
    assert minimax_values(rs, 60) == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(oracle_rulesets)
@example(Ruleset((1, 2)))
@example(Ruleset((5, 6, 7)))
def test_two_pile_values_match_game_tree_search(rs):
    tree = {}
    expected = tuple(
        tuple(_game_tree_value(rs, (x1, x2), True, tree) for x1 in range(13)) for x2 in range(13)
    )
    assert two_pile_values(rs, 13, 13) == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(oracle_rulesets)
def test_minimax_values_prefix(rs):
    # Tables cut below min S, inside the first max S heaps and past them
    # are prefixes of one longer table.
    top = 3 * rs.max_action
    full = minimax_values(rs, top)
    for n in range(top + 1):
        assert minimax_values(rs, n) == full[:n + 1], n


def _names_used(code):
    """Global, attribute and free names of a code object and the ones nested in it."""
    names = set(code.co_names) | set(code.co_freevars)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names_used(const)
    return names


def test_oracles_share_no_code_with_the_builders():
    # The oracles are only independent while they call none of the code
    # they check.
    builders = {
        "build_outcome_table", "_solved_table", "_solve", "_table_generic", "_table_contiguous",
        "greedy_from",
        "build_grid", "_solve_row", "_solve_rows", "_shift_holds", "_certify_shift",
        "ShiftCertificate",
    }
    for oracle in (core.minimax_values, multipile.two_pile_values):
        names = _names_used(oracle.__code__)
        assert names, oracle
        assert not names & builders, (oracle.__name__, names & builders)
