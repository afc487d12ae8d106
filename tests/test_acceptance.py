"""Acceptance suite: eleven go/no-go criteria for the whole package.

Each criterion prints one line, "criterion NN <name>: PASS/FAIL (<time>)",
visible under `pytest -s`.  Criteria with a stated wall-clock budget
enforce it with an assertion on the measured time of the criterion body.
All value comparisons are exact integer equality; nothing is approximate.

 1 table-reproduction      frozen 56-row table for S={5,7}, < 1 ms
 2 worked-example          o(7)=1 and opt(7)=2 for S={2,3}
 3 oracle-equivalence      DP vs independent minimax, 200 seeded rulesets, < 10 s
 4 convergence-sweep       xi <= 2(max S)^2, greedy tail, period 2*max S, < 30 s
 5 two-action-closed-form  closed form == DP for all pairs to 20, < 10 s
 6 full-support            sawtooth closed form == DP, xi = s1
 7 truncation-table        tr rows m=2..10 with distinct counts, < 5 s
 8 duality-sweep           distinct-count and mirror laws m=2..60, < 60 s
 9 canonical-traces        two frozen optimal-play traces
10 two-pile-properties     300x300 grid invariants plus line reports, < 30 s
11 observation-scanners    two-action trace regularities, s1 <= 12
"""

from __future__ import annotations

import functools
import random
import time

from cumsub import (
    Ruleset,
    build_grid,
    build_outcome_table,
    build_two_action,
    canonical_trace,
    check_duality_conjecture,
    column_period,
    convergence_point,
    default_x_max,
    duality_conjecture_report,
    eventual_period,
    full_support_opt,
    full_support_outcome,
    minimax_values,
    observation_sweep_report,
    row_period,
    rulesets_with_max_at_most,
    tr_sequence,
    two_action_opt,
    two_action_outcome,
    two_pile_values,
)

# o(x) and opt(x) for S={5,7}, x = 0..55: the 112-value reference table.
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

# tr^m(a) rows for m = 2..10 and their distinct-value counts.
TR_ROWS = {
    2: (1,),
    3: (1, 2),
    4: (1, 2, 3),
    5: (1, 2, 2, 4),
    6: (1, 2, 2, 3, 5),
    7: (1, 2, 2, 2, 3, 6),
    8: (1, 2, 2, 2, 3, 4, 7),
    9: (1, 2, 2, 2, 2, 3, 4, 8),
    10: (1, 2, 2, 2, 2, 3, 3, 5, 9),
}
TR_DISTINCT = (1, 2, 3, 3, 4, 4, 5, 5, 5)  # m = 2..10


def criterion(number: int, name: str, limit: float | None = None):
    """Wrap a criterion body: time it, enforce the budget, print one line."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if limit is not None and elapsed >= limit:
                    raise AssertionError(
                        f"time budget {limit}s exceeded: {elapsed:.4f}s"
                    )
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"criterion {number:02d} {name}: FAIL ({elapsed:.4f}s)")
                raise
            print(f"criterion {number:02d} {name}: PASS ({elapsed:.4f}s)")

        return wrapper

    return decorate


@criterion(1, "table-reproduction", limit=0.001)
def test_criterion_01_table_reproduction():
    table = build_outcome_table(Ruleset((5, 7)), 55)
    assert table.outcomes == O_57
    assert table.opts == OPT_57


@criterion(2, "worked-example")
def test_criterion_02_worked_example():
    table = build_outcome_table(Ruleset((2, 3)), 7)
    assert table.outcome(7) == 1
    assert table.opts[7] == 2


@criterion(3, "oracle-equivalence", limit=10.0)
def test_criterion_03_oracle_equivalence():
    rng = random.Random(57300)
    for _ in range(200):
        size = rng.choice((2, 3, 4))
        actions = tuple(sorted(rng.sample(range(1, 16), size)))
        ruleset = Ruleset(actions)
        table = build_outcome_table(ruleset, 300)
        assert table.outcomes == minimax_values(ruleset, 300), ruleset


@criterion(4, "convergence-sweep", limit=30.0)
def test_criterion_04_convergence_sweep():
    for ruleset in rulesets_with_max_at_most(12, [2, 3]):
        m = ruleset.max_action
        table = build_outcome_table(ruleset, default_x_max(ruleset))
        report = convergence_point(ruleset, table)
        assert report.xi <= 2 * m * m, ruleset
        assert report.converged_action == m, ruleset
        assert report.bound_satisfied, ruleset
        for x in range(report.xi, table.x_max - 2 * m + 1):
            assert table.outcomes[x] == table.outcomes[x + 2 * m], (ruleset, x)


@criterion(5, "two-action-closed-form", limit=10.0)
def test_criterion_05_two_action_closed_form():
    for s2 in range(1, 20):
        for s1 in range(s2 + 1, 21):
            sol = build_two_action(s2, s1)
            span = 3 * sol.xi
            table = build_outcome_table(Ruleset((s2, s1)), span)
            for x in range(span + 1):
                assert two_action_outcome(sol, x) == table.outcomes[x], (s2, s1, x)
                if x >= s2:
                    assert two_action_opt(sol, x) == table.opts[x], (s2, s1, x)
    assert build_two_action(5, 7).members == frozenset({5, 6, 17, 18, 29, 30})
    assert build_two_action(5, 7).xi == 31
    for s2 in range(1, 20):
        assert build_two_action(s2, s2 + 1).xi == 2 * s2 * s2


@criterion(6, "full-support")
def test_criterion_06_full_support():
    for s1 in range(2, 16):
        ruleset = Ruleset(tuple(range(1, s1 + 1)))
        table = build_outcome_table(ruleset, 10 * s1)
        for x in range(10 * s1 + 1):
            assert full_support_outcome(s1, x) == table.outcomes[x], (s1, x)
            if x >= 1:
                assert full_support_opt(s1, x) == table.opts[x], (s1, x)
        assert convergence_point(ruleset).xi == s1


@criterion(7, "truncation-table", limit=5.0)
def test_criterion_07_truncation_table():
    for m, expected in TR_ROWS.items():
        profile = tr_sequence(m)
        assert profile.tr == expected, m
        assert len(profile.x_values) == TR_DISTINCT[m - 2], m


@criterion(8, "duality-sweep", limit=60.0)
def test_criterion_08_duality_sweep():
    for m in range(2, 61):
        result = check_duality_conjecture(tr_sequence(m))
        assert result.count_ok, (m, result.distinct_count, result.expected_distinct)
        assert result.deltas_ok, (m, result.deltas, result.reversed_tail_multiplicities)
    # The same sweep in report form must come out clean.
    report = duality_conjecture_report(2, 60)
    assert report["verdict"] == "holds"
    assert report["swept_space"] == {"m_count": 59}


@criterion(9, "canonical-traces")
def test_criterion_09_canonical_traces():
    trace = canonical_trace(Ruleset((1, 5, 7)), 18)
    assert trace.actions == (5, 7, 5, 1)
    assert trace.final_score == 2
    trace = canonical_trace(Ruleset((2, 10, 13, 14)), 35)
    assert trace.actions == (10, 13, 10, 2)
    assert trace.final_score == 5


@criterion(10, "two-pile-properties", limit=30.0)
def test_criterion_10_two_pile_properties():
    ruleset = Ruleset((5, 7))
    grid = build_grid(ruleset, 300, 300)
    # Symmetry and bounds on the full grid.  build_grid copies mirrored
    # cells, so symmetry checks the builder against itself; the oracle
    # comparison below and tests/test_multipile.py's whole-grid oracle
    # tests are the independent checks.
    for x2 in range(300):
        row = grid.values[x2]
        assert all(0 <= v <= 7 for v in row), x2
        for x1 in range(x2):
            assert row[x1] == grid.values[x1][x2], (x1, x2)
    # Dead-pile rows reproduce the single-pile table.
    single = build_outcome_table(ruleset, 299)
    for x2 in range(5):
        assert grid.values[x2] == single.outcomes, x2
    # Exact agreement with the explicit two-pile game-tree oracle.
    assert grid.values == two_pile_values(ruleset, 300, 300)
    # Line reports: every row and column has a certified least period
    # dividing 14 = 2*max S, and a column reports what its row does.
    rows = [row_period(grid, i) for i in range(300)]
    columns = [column_period(grid, i) for i in range(300)]
    assert all(14 % r.period == 0 for r in rows)
    assert [(r.period, r.tail_start) for r in rows] == [(c.period, c.tail_start) for c in columns]
    periods = sorted({r.period for r in rows})
    print(f"line reports: {len(rows) + len(columns)} certified, periods {periods}")


@criterion(11, "observation-scanners")
def test_criterion_11_observation_scanners():
    for name in ("last-move", "one-greedy"):
        report = observation_sweep_report(name, 12, 200)
        assert report["verdict"] == "holds", (name, report["counterexamples"])
        assert report["swept_space"]["rulesets"] == 66  # pairs within {1..12}
