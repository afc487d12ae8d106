"""Tests for two-pile grids, periodicity probes, and grid export.

Grid ground truth: o(x1, x2) is symmetric, bounded by 0..max S, and any
row with x2 < min S is a dead pile, so it must reproduce the single-pile
table exactly.  Probe ground truth on the 120x120 grid for S={5,7}: row
and column 12 have eventual period 14, the main diagonal is identically
0 (mirror play), and the offset diagonals k=3 and k=-10 settle to
period 7.  Line probes near the far edge legitimately find nothing
because periodicity sets in only around x2 + 10, which falls inside the
evidence window there; those lines are reported as candidates, never
asserted to be aperiodic.
"""

from __future__ import annotations

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
from cumsub.multipile import periodicity_reports


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
        # cells and the rows of a tall grid past its width all meet here.
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
        # Rows past the width read their off-grid mirrors from the tails
        # of certified rows, so a row stored past the width would change
        # no value: only memory shows it.  A tall grid must cost about what
        # its transpose does (its extra row tuples make up the few percent
        # between them).
        rs = Ruleset((5, 7))

        def peak(width, height):
            tracemalloc.start()
            try:
                build_grid(rs, width, height)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40, 1500) < 1.3 * peak(1500, 40)

    def test_rows_certified_inside_the_mirrored_cells(self):
        # Every row of {1,2,3,5,8} repeats from x1 = 24 = 3 max S on, so
        # rows above that carry a full run in from their mirrored cells,
        # solve one cell and are filled by period.
        _assert_matches_oracle(build_grid(Ruleset((1, 2, 3, 5, 8)), 200, 200))

    def test_tall_grid_reads_certified_off_grid_mirrors(self):
        # Rows x2 >= 60 take the cells of the certified rows x1 from their
        # periodic tails at x2, and solve the others.
        rs = Ruleset((5, 7))
        tall = build_grid(rs, 60, 400)
        _assert_matches_oracle(tall)
        assert tall.values == tuple(zip(*build_grid(rs, 400, 60).values))

    def test_rows_stop_solving_near_the_main_diagonal(self, monkeypatch):
        # A certificate that never fires leaves every value right, so only
        # the work shows it.  On {5,7} each row x2 < W - 45 certifies by
        # x1 = x2 + 45 and is filled by period from there.
        calls = _row_solves(monkeypatch, Ruleset((5, 7)), 300, 300)
        rows = [(x2, start) for x2, start in calls if x2 < 255]
        assert len(rows) > 200
        assert all(start <= x2 + 45 for x2, start in rows), max(s - x for x, s in rows)

    def test_rows_certified_inside_the_mirrored_cells_solve_one_cell(self, monkeypatch):
        # The run a row carries in from its mirrored cells changes no
        # value, only the work: without it each row x2 >= 3 max S of
        # {1,2,3,5,8} would solve max S cells before it certifies.
        calls = _row_solves(monkeypatch, Ruleset((1, 2, 3, 5, 8)), 400, 400)
        rows = [(x2, start) for x2, start in calls if x2 >= 24]
        assert [x2 for x2, _ in rows] == list(range(24, 400))
        assert all(start == x2 + 1 for x2, start in rows), [r for r in rows if r[1] != r[0] + 1][:5]

    def test_grid_where_no_row_certifies(self):
        # 3 max S = 123 exceeds the width, so every cell is solved.
        _assert_matches_oracle(build_grid(Ruleset((40, 41)), 100, 300))

    def test_value_set(self, grid23):
        assert grid23.value_set == {v for row in grid23.values for v in row}
        assert grid23.value_set is grid23.value_set


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
        assert report.tail_start == 80
        assert report.verified_up_to == 119

    def test_column_12_period(self, grid57):
        report = column_period(grid57, 12)
        assert (report.kind, report.period) == ("column", 14)

    @pytest.mark.parametrize(
        "actions, width, height", [((5, 7), 120, 120), ((5, 7), 200, 45), ((2, 3, 5), 45, 200)]
    )
    def test_column_equals_gathered_column(self, actions, width, height):
        # Columns may be read from the matching row; probing the transposed
        # grid's rows gathers every column cell by cell instead.
        grid = build_grid(Ruleset(actions), width, height)
        transposed = GridOutcome(grid.ruleset, height, width, tuple(zip(*grid.values)))
        for x1 in range(width):
            column, row = column_period(grid, x1), row_period(transposed, x1)
            assert (column.kind, column.index) == ("column", x1)
            assert (column.period, column.tail_start, column.verified_up_to) == (
                row.period, row.tail_start, row.verified_up_to
            ), x1

    def test_index_range_checks(self, grid57):
        with pytest.raises(ValueError):
            row_period(grid57, 120)
        with pytest.raises(ValueError):
            column_period(grid57, -1)

    def test_short_lines_rejected(self):
        # Probes need 6 * max S points: 42 for S={5,7}.
        wide = build_grid(Ruleset((5, 7)), 60, 30)
        with pytest.raises(ValueError):
            column_period(wide, 0)
        tall = build_grid(Ruleset((5, 7)), 30, 60)
        with pytest.raises(ValueError):
            row_period(tall, 0)

    def test_far_edge_rows_report_no_period(self, grid57):
        # Periodicity in row x2 sets in near x2 + 10; for rows close to
        # the far edge that is inside the window, so the probe reports
        # None rather than inventing a period.
        assert row_period(grid57, 118).period is None

    def test_report_dict_schema(self, grid57):
        d = row_period(grid57, 12).as_dict()
        assert d == {
            "kind": "row",
            "index": 12,
            "period": 14,
            "tail_start": 80,
            "verified_up_to": 119,
        }


class TestDiagonalProbes:
    def test_main_diagonal_constant(self, grid57):
        report = diagonal_period(grid57, 0)
        assert report.period == 1
        assert report.tail_start == 80
        assert report.verified_up_to == 119

    def test_offset_diagonals(self, grid57):
        assert diagonal_period(grid57, 3).period == 7
        assert diagonal_period(grid57, -10).period == 7

    def test_negative_offset_coordinates(self, grid57):
        # Diagonal (t, t-10) starts at t = 10; tail/verified are in t.
        report = diagonal_period(grid57, -10)
        assert report.tail_start == 83
        assert report.verified_up_to == 119

    def test_short_diagonal_rejected(self, grid57):
        with pytest.raises(ValueError):
            diagonal_period(grid57, 100)


class TestPeriodicityReports:
    def test_shared_schema(self, grid57):
        reports = periodicity_reports(grid57, max_diag=10)
        lines, diagonals = reports["lines"], reports["diagonals"]
        assert lines["conjecture"] == "two-pile-line-periodicity"
        assert lines["parameters"]["period_cap"] == 14
        assert lines["swept_space"] == {"rows": 120, "columns": 120}
        # Far-edge lines cannot show their period inside the window yet;
        # they surface as candidates, not as refutations.
        assert lines["verdict"] == "candidate-counterexamples"
        assert len(lines["counterexamples"]) == 66
        assert all(c["period"] is None for c in lines["counterexamples"])
        assert diagonals["conjecture"] == "two-pile-diagonal-periodicity"
        assert diagonals["verdict"] == "holds"
        assert diagonals["swept_space"] == {"diagonals": 21}

    def test_rejects_negative_max_diag(self, grid57):
        with pytest.raises(ValueError, match="max_diag must be nonnegative"):
            periodicity_reports(grid57, max_diag=-1)

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

    @pytest.mark.parametrize("fmt", ["csv", "pgm", "ppm"])
    def test_bytes_match_per_cell_writer(self, fmt, tmp_path):
        # Non-square, three actions: rows, columns and the image flip all
        # have to line up.  The reference writes one cell at a time.
        grid = build_grid(Ruleset((2, 3, 5)), 37, 23)
        path = tmp_path / f"grid.{fmt}"
        export_grid(grid, fmt, str(path))
        assert path.read_bytes() == _reference_export(grid, fmt)

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

    def spy(row, todo, *args):
        start = solve(row, todo, *args)
        calls.append((todo[0], start))
        return start

    monkeypatch.setattr(multipile, "_solve_row", spy)
    build_grid(ruleset, width, height)
    return calls


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
