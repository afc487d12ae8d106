"""Tests for two-pile grids, the shift certificate, line reports, and grid export.

Grid ground truth: o(x1, x2) is symmetric, bounded by 0..max S, and any
row with x2 < min S is a dead pile, so it must reproduce the single-pile
table exactly.  Line ground truth for S={5,7}: row and column 12 have
least period 14 from x1 = 35 on, the main diagonal is identically 0
(mirror play), and the offset diagonals k=3 and k=-10 settle to period
7.  Every report is also checked against whole grids from the
independent two-pile oracle, and must not depend on the grid it was
asked about.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

import pytest

from cumsub import (
    GridOutcome,
    Ruleset,
    build_grid,
    build_outcome_table,
    column_period,
    diagonal_period,
    export_grid,
    row_period,
    two_pile_values,
)
from cumsub import multipile
from cumsub.core import TABLE_HEAP_LIMIT
from cumsub.multipile import _certify_shift, periodicity_reports


@pytest.fixture(scope="module")
def grid57():
    return build_grid(Ruleset((5, 7)), 120, 120)


@pytest.fixture(scope="module")
def grid23():
    return build_grid(Ruleset((2, 3)), 12, 9)


class TestBuildGrid:
    def test_dead_pile_rows_equal_single_pile(self, grid57):
        table = build_outcome_table(Ruleset((5, 7)), 119)
        for x2 in range(5):
            assert grid57.values[x2] == table.outcomes, x2

    def test_dead_pile_columns_equal_single_pile(self, grid57):
        table = build_outcome_table(Ruleset((5, 7)), 119)
        for x1 in range(5):
            column = tuple(grid57.values[x2][x1] for x2 in range(120))
            assert column == table.outcomes, x1

    def test_symmetry(self, grid57):
        # build_grid copies each mirrored cell, so this checks the builder
        # against itself; test_matches_oracle_on_whole_grid is the
        # independent check.
        for x2 in range(120):
            for x1 in range(x2):
                assert grid57.values[x2][x1] == grid57.values[x1][x2]

    def test_bounds(self, grid57):
        assert all(0 <= v <= 7 for row in grid57.values for v in row)

    def test_terminal_zone_is_zero(self, grid57):
        for x2 in range(5):
            for x1 in range(5):
                assert grid57.outcome(x1, x2) == 0

    def test_main_diagonal_is_zero(self, grid57):
        # The second player can mirror on equal piles, pinning the score.
        assert all(grid57.outcome(t, t) == 0 for t in range(120))

    def test_matches_two_pile_oracle(self, grid57):
        assert grid57.values == two_pile_values(Ruleset((5, 7)), 120, 120)

    @pytest.mark.parametrize("actions", [(5, 7), (2, 3, 5)])
    @pytest.mark.parametrize(
        "width, height", [(90, 7), (7, 90), (41, 40), (40, 41), (1, 50), (50, 1)]
    )
    def test_matches_oracle_on_whole_grid(self, actions, width, height):
        # Square, nearly square, wide and tall: mirrored cells, solved
        # cells and the rows of a tall grid past its width, solved until
        # they repeat as whole rows, all meet here.
        _assert_matches_oracle(build_grid(Ruleset(actions), width, height))

    def test_outcome_range_checks(self, grid23):
        with pytest.raises(ValueError):
            grid23.outcome(12, 0)
        with pytest.raises(ValueError):
            grid23.outcome(0, -1)

    def test_minimal_grid(self):
        grid = build_grid(Ruleset((5, 7)), 1, 1)
        assert grid.values == ((0,),)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_grid(Ruleset((5, 7)), 0, 10)

    def test_rejects_grid_above_cell_limit(self):
        # Refused before any list is allocated, so this costs nothing.
        for width, height in ((100_000, 100_000), (TABLE_HEAP_LIMIT, 1), (1, TABLE_HEAP_LIMIT)):
            with pytest.raises(ValueError, match="above the supported"):
                build_grid(Ruleset((5, 7)), width, height)

    @pytest.mark.parametrize(
        "actions, width, height",
        [
            ((1, 10**8), 2, 2),
            ((3, 10**8), 1, 1000),
            ((2, 5, 10**8), 1000, 1),
            ((10**7, 10**8), 3, 4),
            ((1, 500), 1, 1000),
        ],
    )
    def test_actions_larger_than_grid_cost_nothing(self, actions, width, height):
        # A grid's memory must not grow with max S: these grids are small
        # and their largest actions huge or half a side long.
        _assert_matches_oracle(build_grid(Ruleset(actions), width, height))

    def test_tall_grid_memory_matches_its_transpose(self):
        # Rows past the width are stored to the width only, and once they
        # repeat as whole rows the later ones share the tuples 2 max S
        # below, so a row stored past the width or copied instead of shared
        # would change no value: only memory shows it.  A tall grid must
        # cost no more than its transpose does.
        rs = Ruleset((5, 7))

        def peak(width, height):
            tracemalloc.start()
            try:
                build_grid(rs, width, height)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        tall, wide = peak(40, 1500), peak(1500, 40)
        assert tall < 1.3 * wide
        assert tall < wide, (tall, wide)

    def test_rows_certified_inside_the_mirrored_cells(self):
        # Every row of {1,2,3,5,8} repeats from x1 = 24 = 3 max S on, so
        # rows above that already repeat in their mirrored cells, certify
        # after max S solved cells and are filled by period.
        _assert_matches_oracle(build_grid(Ruleset((1, 2, 3, 5, 8)), 200, 200))

    def test_tall_grid_rows_repeat_whole(self):
        # Rows x2 >= 60 are solved over the whole width until m of them in
        # a row equal the rows 2m below, and repeat by period 2m from
        # there: a width of 60 is too narrow for the shift certificate of
        # {5,7}.
        rs = Ruleset((5, 7))
        tall = build_grid(rs, 60, 400)
        _assert_matches_oracle(tall)
        assert tall.values == tuple(zip(*build_grid(rs, 400, 60).values))

    @pytest.mark.parametrize(
        "actions, width, height, solved",
        [((5, 7), 40, 1500, 30), ((40, 41), 100, 300, 200), ((5, 7), 1, 200, 44)],
    )
    def test_tall_grid_solves_rows_until_they_repeat(
        self, monkeypatch, actions, width, height, solved
    ):
        # {5,7} at width 40 has no shift certificate; rows 63..69 equal the
        # rows 14 below, so rows 40..69 are solved, each from x1 = 0, and
        # each later row is the very tuple 14 below it.  {40,41} repeats no
        # whole row by height 300, so all 200 rows are solved.  At width 1,
        # the single-pile game, rows below 2m = 14 have no row 2m below to
        # compare, and rows 38..44 end the first run.
        rs = Ruleset(actions)
        calls = _row_solves(monkeypatch, rs, width, height)
        assert [first for first, _ in calls] == list(range(width)) + [0] * solved
        grid = build_grid(rs, width, height)
        _assert_matches_oracle(grid)
        lag = 2 * rs.max_action
        repeat = width + solved
        assert all(grid.values[x2] is grid.values[x2 - lag] for x2 in range(repeat, height))

    def test_rows_stop_solving_near_the_main_diagonal(self, monkeypatch):
        # A certificate that never fires leaves every value right, so only
        # the work shows it.  On {5,7} each row certifies by x1 = x2 + 45
        # and is filled by period from there; rows past x2 = 48 are copies
        # (TestShiftCertificate).
        calls = _row_solves(monkeypatch, Ruleset((5, 7)), 300, 300)
        assert [x2 for x2, _ in calls] == list(range(49))
        assert all(start <= x2 + 45 for x2, start in calls), max(s - x for x, s in calls)

    @pytest.mark.parametrize("actions, side, solved", [((1, 2, 3, 5, 8), 47, 47), ((5, 7), 300, 49)])
    def test_row_starts_count_only_solved_cells(self, monkeypatch, actions, side, solved):
        # A row's start ends a run of max S solved cells, so it is at
        # least x2 + max S, past the mirrored cells, even where those
        # already repeat; a row with no room for that run returns W + 1.
        # At width 47 the shift certificate of {1,2,3,5,8} cannot fire, so
        # every row is solved.
        m = actions[-1]
        calls = _row_solves(monkeypatch, Ruleset(actions), side, side)
        assert [x2 for x2, _ in calls] == list(range(solved))
        assert [(x2, start) for x2, start in calls if start < min(x2 + m, side + 1)] == []

    def test_grid_where_no_row_certifies(self):
        # 3 max S = 123 exceeds the width, so every cell is solved.
        _assert_matches_oracle(build_grid(Ruleset((40, 41)), 100, 300))

    def test_value_set(self, grid23):
        assert grid23.value_set == {v for row in grid23.values for v in row}
        assert grid23.value_set is grid23.value_set


class TestShiftCertificate:
    @pytest.mark.parametrize(
        "actions, start",
        [((5, 7), 35), ((2, 3, 5), 7), ((1, 2, 3, 5, 8), 8), ((4, 9, 11), 99),
         ((9, 10), 152), ((3, 50, 90), 270)],
    )
    def test_shift_start(self, actions, start):
        # The least T from which the shift holds over large windows of
        # the grid, so the certificate fires as early as it can.
        shift = _certify_shift(Ruleset(actions))
        assert (shift.m, shift.start) == (actions[-1], start)

    def test_shift_check_compares_each_pair_past_both_starts(self):
        # Forged rows for m = 2, T = 2, width 40: rows 2 and 3 are zero and
        # start at 4, rows 4 and 5 start at 20.  Each pair (y, y + 2) must
        # agree on x1 in [2, max(4, 20 - 2) + 4) = [2, 22); one cell at
        # x1 = 21 that differs, in either pair, or a row past the width
        # must stop the certificate.
        def holds(bad_row=None, bad_x1=None, b=20):
            rows = [(0,) * 40 for _ in range(6)]
            if bad_row is not None:
                rows[bad_row] = tuple(int(x == bad_x1 + 2) for x in range(40))
            return multipile._shift_holds(rows, [1, 1, 4, 4, b, b], 2, 2, 40)

        assert holds()
        assert not holds(bad_row=4, bad_x1=21)
        assert not holds(bad_row=5, bad_x1=21)
        assert holds(bad_row=4, bad_x1=22)  # the row repeats from there on
        assert not holds(b=41)

    @pytest.mark.parametrize("width, height", [(300, 300), (100, 400), (400, 100), (100, 100)])
    def test_rows_past_the_shift_are_copies(self, monkeypatch, width, height):
        # Rows x2 >= T + 2m = 49 of {5,7} are built from the mirrors of
        # cells x1 < T + m and row x2 - m shifted by m, and solve nothing;
        # past the width of a tall grid the mirrors are read from the last
        # 2m cells of the certificate's rows.
        rs = Ruleset((5, 7))
        calls = _row_solves(monkeypatch, rs, width, height)
        assert [x2 for x2, _ in calls] == list(range(49))
        grid = build_grid(rs, width, height)
        assert grid.shift.start == 35
        _assert_matches_oracle(grid)

    @pytest.mark.parametrize(
        "actions, side", [((5, 7), 300), ((2, 3, 5), 200), ((1, 2, 3, 5, 8), 200), ((4, 9, 11), 450)]
    )
    def test_line_reports_match_the_oracle_grid(self, actions, side):
        # Least period and least start of every line whose start lies at
        # least two periods of 2 max S inside an oracle grid, checked cell
        # by cell there.  The reports come from a grid of a fifth of the side.
        rs = Ruleset(actions)
        values = two_pile_values(rs, side, side)
        grid = build_grid(rs, side // 5, side // 5)
        lag = 2 * rs.max_action
        checked = 0
        for x in range(side // 5):
            for report, line in (
                (row_period(grid, x), values[x]),
                (column_period(grid, x), [row[x] for row in values]),
                (diagonal_period(grid, x), [values[t + x][t] for t in range(side - x)]),
                (diagonal_period(grid, -x), [values[t - x][t] for t in range(x, side)]),
            ):
                t0 = max(0, -report.index) if report.kind == "diagonal" else 0
                checked += _assert_least_period_and_start(line, report, t0, lag)
        assert checked > side // 5 * 3, checked

    def test_reports_do_not_depend_on_the_grid(self):
        # Reports are facts about the infinite grid: a grid with its own
        # certificate, one without (20x20) and a large one must agree on
        # every line they share.
        rs = Ruleset((5, 7))
        big = build_grid(rs, 1200, 1200)
        for grid in (build_grid(rs, 120, 90), build_grid(rs, 20, 20)):
            for x2 in range(grid.height):
                assert row_period(grid, x2) == row_period(big, x2)
            for x1 in range(grid.width):
                assert column_period(grid, x1) == column_period(big, x1)
            for k in range(1 - grid.width, grid.height):
                assert diagonal_period(grid, k) == diagonal_period(big, k)
        assert build_grid(rs, 20, 20).shift is None

    def test_no_certificate_under_the_cap_is_refused(self, monkeypatch):
        # {5,7} certifies on no square below 99 cells a side; with squares
        # capped at 70 a line report must refuse, not guess.
        monkeypatch.setattr(multipile, "TABLE_HEAP_LIMIT", 5000)
        grid = build_grid(Ruleset((5, 7)), 20, 20)
        for probe in (lambda: row_period(grid, 3), lambda: diagonal_period(grid, 0),
                      lambda: periodicity_reports(grid)):
            with pytest.raises(ValueError, match="no two-pile shift certificate"):
                probe()
        # An action too large for any square under the cap costs nothing.
        with pytest.raises(ValueError, match="no two-pile shift certificate"):
            _certify_shift(Ruleset((1, 10**8)))

    def test_square_stops_once_no_certificate_can_fire(self, monkeypatch):
        # Row 0 of {40,41}, the single-pile game with xi = 3200, certifies
        # in neither square (sides 328 and 632 under this cap), so each
        # stops after that row instead of solving all of its rows.
        monkeypatch.setattr(multipile, "TABLE_HEAP_LIMIT", 400_000)
        solve, rows = multipile._solve_row, []

        def spy(row, first, *args):
            rows.append(first)
            return solve(row, first, *args)

        monkeypatch.setattr(multipile, "_solve_row", spy)
        with pytest.raises(ValueError, match="no two-pile shift certificate"):
            _certify_shift(Ruleset((40, 41)))
        assert rows == [0, 0]
        # Stopping must not cost a certificate: {5,7} fires on its second
        # square, of side 112, at row T + 2m - 1 = 48.
        rows.clear()
        shift = _certify_shift(Ruleset((5, 7)))
        assert len(shift.rows[0]) == 112
        assert rows[-49:] == list(range(49))


class TestTwoPileOracle:
    def test_single_pile_consistency(self):
        rs = Ruleset((2, 3))
        outcomes = build_outcome_table(rs, 25).outcomes
        values = two_pile_values(rs, 26, 26)
        assert values[0] == outcomes
        assert tuple(row[0] for row in values) == outcomes

    def test_large_piles_match_grid(self):
        # Depth-first search ran out of recursion here.
        rs = Ruleset((1, 2))
        assert two_pile_values(rs, 601, 601) == build_grid(rs, 601, 601).values

    def test_terminal(self):
        assert two_pile_values(Ruleset((5, 7)), 1, 1) == ((0,),)
        assert two_pile_values(Ruleset((5, 7)), 5, 5) == ((0,) * 5,) * 5

    def test_rejects_negative(self):
        for width, height in ((-1, 3), (3, -1), (0, 3), (3, 0)):
            with pytest.raises(ValueError, match="at least 1x1"):
                two_pile_values(Ruleset((5, 7)), width, height)

    def test_rejects_grid_above_cell_limit(self):
        # Refused before any row is allocated, so this costs nothing.
        for width, height in ((100_000, 100_000), (TABLE_HEAP_LIMIT, 1), (1, TABLE_HEAP_LIMIT)):
            with pytest.raises(ValueError, match="above the supported"):
                two_pile_values(Ruleset((5, 7)), width, height)


class TestLineProbes:
    def test_row_12_period(self, grid57):
        report = row_period(grid57, 12)
        assert (report.kind, report.index) == ("row", 12)
        assert report.period == 14
        assert report.tail_start == 35

    def test_column_12_period(self, grid57):
        report = column_period(grid57, 12)
        assert (report.kind, report.period) == ("column", 14)

    @pytest.mark.parametrize(
        "actions, width, height", [((5, 7), 120, 120), ((5, 7), 200, 45), ((2, 3, 5), 45, 200)]
    )
    def test_column_equals_gathered_column(self, actions, width, height):
        # A column is read from the certificate as the matching row; the
        # transposed grid, built without a certificate of its own, holds
        # each column as a row and answers from a square of its own.
        grid = build_grid(Ruleset(actions), width, height)
        transposed = GridOutcome(grid.ruleset, height, width, tuple(zip(*grid.values)))
        for x1 in range(width):
            column, row = column_period(grid, x1), row_period(transposed, x1)
            assert (column.kind, column.index) == ("column", x1)
            assert (column.period, column.tail_start) == (row.period, row.tail_start), x1

    def test_index_range_checks(self, grid57):
        with pytest.raises(ValueError):
            row_period(grid57, 120)
        with pytest.raises(ValueError):
            column_period(grid57, -1)

    def test_short_lines_certified_on_a_square_of_their_own(self, grid57):
        # A 60x30 grid holds no shift certificate, so its lines are
        # answered from a square certified apart from it.
        wide = build_grid(Ruleset((5, 7)), 60, 30)
        tall = build_grid(Ruleset((5, 7)), 30, 60)
        assert wide.shift is None and tall.shift is None
        assert column_period(wide, 0) == column_period(grid57, 0)
        assert row_period(tall, 0) == row_period(grid57, 0)
        assert (row_period(tall, 0).period, row_period(tall, 0).tail_start) == (14, 24)

    def test_far_edge_rows_report_their_period(self, grid57):
        # Row 118 repeats only from x1 = 126 on, past the width: the walk
        # back reads the cells past it from the certificate.
        report = row_period(grid57, 118)
        assert (report.period, report.tail_start) == (14, 126)
        assert report == row_period(build_grid(Ruleset((5, 7)), 300, 300), 118)

    def test_report_dict_schema(self, grid57):
        d = row_period(grid57, 12).as_dict()
        assert d == {
            "kind": "row",
            "index": 12,
            "period": 14,
            "tail_start": 35,
        }


class TestDiagonalProbes:
    def test_main_diagonal_constant(self, grid57):
        report = diagonal_period(grid57, 0)
        assert (report.period, report.tail_start) == (1, 0)

    def test_offset_diagonals(self, grid57):
        assert diagonal_period(grid57, 3).period == 7
        assert diagonal_period(grid57, -10).period == 7

    def test_negative_offset_coordinates(self, grid57):
        # Diagonal (t, t-10) starts at t = 10; tail_start is in t.
        report = diagonal_period(grid57, -10)
        assert report.tail_start == 27
        assert diagonal_period(grid57, -119).tail_start == 119  # a single cell

    def test_diagonal_off_the_grid_rejected(self, grid57):
        # 20 cells on the grid are enough: the certificate answers for the line.
        assert diagonal_period(grid57, 100).period == 7
        for k in (120, -120):
            with pytest.raises(ValueError, match="outside grid"):
                diagonal_period(grid57, k)


class TestPeriodicityReports:
    def test_shared_schema(self, grid57):
        reports = periodicity_reports(grid57, max_diag=10)
        lines, diagonals = reports["lines"], reports["diagonals"]
        assert lines["conjecture"] == "two-pile-line-periodicity"
        assert lines["parameters"]["period_cap"] == 14
        assert lines["swept_space"] == {"rows": 120, "columns": 120}
        assert (lines["verdict"], lines["counterexamples"]) == ("holds", [])
        assert diagonals["conjecture"] == "two-pile-diagonal-periodicity"
        assert diagonals["parameters"]["period_cap"] == 7
        assert (diagonals["verdict"], diagonals["counterexamples"]) == ("holds", [])
        assert diagonals["swept_space"] == {"diagonals": 21}

    def test_rejects_negative_max_diag(self, grid57):
        with pytest.raises(ValueError, match="max_diag must be nonnegative"):
            periodicity_reports(grid57, max_diag=-1)

    def test_verdicts_read_from_the_certificate_alone(self, monkeypatch):
        # The certificate settles every line, so no line period is computed.
        find, calls = multipile._least_period_and_start, []

        def spy(*args):
            calls.append(args)
            return find(*args)

        monkeypatch.setattr(multipile, "_least_period_and_start", spy)
        reports = periodicity_reports(build_grid(Ruleset((5, 7)), 1200, 1200))
        assert calls == []
        shape = {"ruleset": [5, 7], "width": 1200, "height": 1200}
        assert reports == {
            "lines": {
                "conjecture": "two-pile-line-periodicity",
                "parameters": {**shape, "period_cap": 14},
                "swept_space": {"rows": 1200, "columns": 1200},
                "counterexamples": [],
                "verdict": "holds",
            },
            "diagonals": {
                "conjecture": "two-pile-diagonal-periodicity",
                "parameters": {**shape, "period_cap": 7, "max_diag": 50},
                "swept_space": {"diagonals": 101},
                "counterexamples": [],
                "verdict": "holds",
            },
        }
        # A grid with no certificate of its own still needs a square under
        # the cap; below 99 cells a side {5,7} has none.
        grid = build_grid(Ruleset((5, 7)), 20, 20)
        monkeypatch.setattr(multipile, "TABLE_HEAP_LIMIT", 5000)
        with pytest.raises(ValueError, match="no two-pile shift certificate"):
            periodicity_reports(grid)
        assert calls == []

    @pytest.mark.parametrize("shape", [(60, 60), (200, 45), (45, 200)])
    def test_max_diag_past_grid_is_clipped(self, shape):
        # Only -(W-1) <= k <= H-1 names a diagonal, so a huge max_diag must
        # cost no more than W + H and report the same diagonals.  The sweep
        # takes milliseconds; over every k in [-max_diag, max_diag] it would
        # run for hours, and even max_diag = 10**7 takes seconds.
        grid = build_grid(Ruleset((5, 7)), *shape)
        start = time.perf_counter()
        huge = periodicity_reports(grid, max_diag=10**12)
        assert time.perf_counter() - start < 1.0
        edge = periodicity_reports(grid, max_diag=grid.width + grid.height)
        assert huge["diagonals"]["parameters"].pop("max_diag") == 10**12
        edge["diagonals"]["parameters"].pop("max_diag")
        assert huge == edge
        assert huge["diagonals"]["swept_space"]["diagonals"] > 0


# (actions, width, height, shift start T or None).  The shift certificate
# fires on all but the first, so most of their rows are written from the
# row max S below or above; {3,4,11} is tall, and {1,12} has two-digit CSV
# values.  Row 0 of {5,8,12} lacks 5 of its 13 values, which first show
# by row 10, so its value set needs more than the first rows.  Rows from
# T + 2 max S on are not stored: the top rows of {5,7} at 300x300 are
# written going down from the certificate alone, {5,7} at 400x120 is
# wide, and {1,2,3,5,8} at 60x400 reads the first cells of its rows past
# the width by period and their last cells by the shift.
_EXPORT_GRIDS = [
    ((2, 3, 5), 37, 23, None),
    ((5, 7), 120, 90, 35),
    ((2, 3), 60, 60, 5),
    ((3, 4, 11), 200, 300, 11),
    ((1, 12), 150, 150, 12),
    ((5, 8, 12), 140, 100, 36),
    ((5, 7), 300, 300, 35),
    ((5, 7), 400, 120, 35),
    ((1, 2, 3, 5, 8), 60, 400, 8),
]


def _grid_id(shape):
    actions, width, height, _ = shape
    return f"{'_'.join(map(str, actions))}-{width}x{height}"


@functools.cache
def _export_grid(shape):
    actions, width, height, start = shape
    grid = build_grid(Ruleset(actions), width, height)
    assert (grid.shift and grid.shift.start) == start
    return grid


class TestExports:
    def test_csv_round_trip(self, grid23, tmp_path):
        path = tmp_path / "grid.csv"
        export_grid(grid23, "csv", str(path))
        text = "".join(",".join(map(str, row)) + "\n" for row in grid23.values)
        assert path.read_text() == text

    def test_csv_layout(self, grid23, tmp_path):
        path = tmp_path / "grid.csv"
        export_grid(grid23, "csv", str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        # First line is the x2 = 0 row, header-free.
        assert lines[0] == ",".join(str(v) for v in grid23.values[0])

    def test_pgm_header_and_pixels(self, grid23, tmp_path):
        path = tmp_path / "grid.pgm"
        export_grid(grid23, "pgm", str(path))
        blob = path.read_bytes()
        header = b"P5\n12 9\n255\n"
        assert blob.startswith(header)
        body = blob[len(header):]
        assert len(body) == 12 * 9
        # Row x2 = 0 sits at the bottom of the image.
        for x1 in range(12):
            for x2 in range(9):
                expected = grid23.values[x2][x1] * 255 // 3
                assert body[(9 - 1 - x2) * 12 + x1] == expected, (x1, x2)

    def test_ppm_header_and_colormap(self, grid23, tmp_path):
        path = tmp_path / "grid.ppm"
        export_grid(grid23, "ppm", str(path))
        blob = path.read_bytes()
        header = b"P6\n12 9\n255\n"
        assert blob.startswith(header)
        body = blob[len(header):]
        assert len(body) == 3 * 12 * 9
        # Outcome 0 renders pure blue; max outcome renders pure red.
        def pixel(x1, x2):
            i = 3 * ((9 - 1 - x2) * 12 + x1)
            return tuple(body[i:i + 3])

        assert grid23.values[0][0] == 0 and pixel(0, 0) == (0, 0, 255)
        assert grid23.values[0][3] == 3 and pixel(3, 0) == (255, 0, 0)

    @pytest.mark.parametrize(
        "shape, fmt",
        [
            # The unshifted grid keeps the bare format as its id.
            pytest.param(shape, fmt, id=f"{_grid_id(shape)}-{fmt}" if shape[3] else fmt)
            for shape in _EXPORT_GRIDS
            for fmt in ("csv", "pgm", "ppm")
        ],
    )
    def test_bytes_match_per_cell_writer(self, shape, fmt, tmp_path):
        # Rows, columns and the image flip all have to line up, with the
        # shift certificate and without.  The reference writes one cell at
        # a time.
        grid = _export_grid(shape)
        path = tmp_path / f"grid.{fmt}"
        export_grid(grid, fmt, str(path))
        assert path.read_bytes() == _reference_export(grid, fmt)

    @pytest.mark.parametrize("shape", _EXPORT_GRIDS, ids=_grid_id)
    def test_value_set_matches_every_cell(self, shape):
        grid = _export_grid(shape)
        assert grid.value_set == frozenset(v for row in grid.values for v in row)

    @pytest.mark.parametrize("shape", _EXPORT_GRIDS, ids=_grid_id)
    def test_rows_encode_both_ways_with_tokens_of_any_width(self, shape):
        # Image tokens all have one width, so only tokens of several widths
        # show a slice offset taken from the wrong row going down.
        grid = _export_grid(shape)
        token = {v: "x" * (v + 1) for v in grid.value_set}
        rows = [":".join(token[v] for v in row) for row in grid.values]
        assert list(multipile._encoded_rows(grid, token, ":", descending=False)) == rows
        assert list(multipile._encoded_rows(grid, token, ":", descending=True)) == rows[::-1]

    @pytest.mark.parametrize("shape", _EXPORT_GRIDS, ids=_grid_id)
    def test_outcome_matches_the_oracle(self, shape):
        # outcome reads a certified grid's cells from the certificate, and
        # the per-cell writer reads outcome.
        grid = _export_grid(shape)
        values = two_pile_values(grid.ruleset, grid.width, grid.height)
        for x2, row in enumerate(values):
            assert tuple(grid.outcome(x1, x2) for x1 in range(grid.width)) == row, x2

    def test_certified_grid_builds_no_values_until_read(self, tmp_path):
        # A certified grid stores only its T + 2 max S solved rows; line
        # reports, the value set, single cells and every export read the
        # certificate, and the whole grid is built only when values is.
        rs = Ruleset((5, 7))
        grid = build_grid(rs, 300, 300)
        assert grid.shift.start == 35 and len(grid.rows) == 49
        periodicity_reports(grid)
        row_period(grid, 299)
        column_period(grid, 299)
        diagonal_period(grid, -299)
        assert grid.value_set == frozenset(range(8))
        assert grid.outcome(299, 298) == grid.outcome(298, 299)
        for fmt in ("csv", "pgm", "ppm"):
            export_grid(grid, fmt, str(tmp_path / f"grid.{fmt}"))
        assert "values" not in grid.__dict__
        assert grid.values == two_pile_values(rs, 300, 300)
        assert grid.values[:49] == grid.rows

    def test_pixel_level_out_of_range_rejected_before_writing(self, tmp_path):
        grid = GridOutcome(Ruleset((2, 3)), 2, 1, ((0, -1),))
        for fmt in ("pgm", "ppm"):
            path = tmp_path / f"grid.{fmt}"
            with pytest.raises(ValueError):
                export_grid(grid, fmt, str(path))
            assert not path.exists()

    def test_unknown_format_rejected(self, grid23, tmp_path):
        with pytest.raises(ValueError):
            export_grid(grid23, "png", str(tmp_path / "grid.png"))

    def test_missing_directory_raises_oserror(self, grid23, tmp_path):
        with pytest.raises(OSError):
            export_grid(grid23, "csv", str(tmp_path / "no" / "such" / "dir.csv"))


def _row_solves(monkeypatch, ruleset, width, height):
    """(first solved x1, returned start) of each _solve_row call of one build."""
    solve, calls = multipile._solve_row, []

    def spy(row, first, *args):
        start = solve(row, first, *args)
        calls.append((first, start))
        return start

    monkeypatch.setattr(multipile, "_solve_row", spy)
    build_grid(ruleset, width, height)
    return calls


def _assert_least_period_and_start(line, report, t0, lag):
    """Check a report against line[i] = the line at t = t0 + i, if it fits.

    The line repeats with report.period from report.tail_start on, not
    from the t before it, and no smaller divisor of lag repeats from there
    on, over every cell up to two periods of lag past the start.  Returns
    whether the line was long enough to check.
    """
    p, start = report.period, report.tail_start - t0
    if start + 2 * lag > len(line):
        return False
    assert lag % p == 0, report
    assert all(line[t] == line[t + p] for t in range(start, len(line) - p)), report
    assert start == 0 or line[start - 1] != line[start - 1 + p], report
    for q in range(1, p):
        if lag % q == 0:
            assert any(line[t] != line[t + q] for t in range(start, len(line) - q)), (report, q)
    return True


def _assert_matches_oracle(grid):
    assert grid.values == two_pile_values(grid.ruleset, grid.width, grid.height)


def _reference_export(grid, fmt):
    """Per-cell export: CSV rows x2 ascending, image rows x2 descending."""
    if fmt == "csv":
        text = ""
        for x2 in range(grid.height):
            text += ",".join(str(grid.outcome(x1, x2)) for x1 in range(grid.width)) + "\n"
        return text.encode("ascii")
    m = grid.ruleset.max_action
    blob = bytearray(f"{'P6' if fmt == 'ppm' else 'P5'}\n{grid.width} {grid.height}\n255\n".encode())
    for x2 in range(grid.height - 1, -1, -1):
        for x1 in range(grid.width):
            level = grid.outcome(x1, x2) * 255 // m
            blob += bytes((level, 0, 255 - level)) if fmt == "ppm" else bytes((level,))
    return bytes(blob)
