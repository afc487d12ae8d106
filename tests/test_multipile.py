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
    two_pile_minimax,
)
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
        memo = {}
        for total in range(23):
            for x1 in range(total + 1):
                x2 = total - x1
                expected = two_pile_minimax(Ruleset((5, 7)), x1, x2, memo)
                assert grid57.outcome(x1, x2) == expected, (x1, x2)

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
        rs = Ruleset(actions)
        grid = build_grid(rs, width, height)
        memo = {}
        for x2 in range(height):
            for x1 in range(width):
                assert grid.values[x2][x1] == two_pile_minimax(rs, x1, x2, memo), (x1, x2)

    def test_value_set(self, grid23):
        assert grid23.value_set == {v for row in grid23.values for v in row}
        assert grid23.value_set is grid23.value_set


class TestTwoPileOracle:
    def test_single_pile_consistency(self):
        rs = Ruleset((2, 3))
        table = build_outcome_table(rs, 25)
        memo = {}
        for x in range(26):
            assert two_pile_minimax(rs, x, 0, memo) == table.outcomes[x]
            assert two_pile_minimax(rs, 0, x, memo) == table.outcomes[x]

    def test_shared_memo_across_rulesets(self):
        memo = {}
        two_pile_minimax(Ruleset((1, 2)), 7, 3, memo)
        expected = build_grid(Ruleset((2, 3)), 8, 4).outcome(7, 3)
        assert expected == 2
        assert two_pile_minimax(Ruleset((2, 3)), 7, 3, memo) == expected

    def test_large_piles_match_grid(self):
        # Depth-first search ran out of recursion here.
        rs = Ruleset((1, 2))
        grid = build_grid(rs, 601, 601)
        memo = {}
        for x1, x2 in ((600, 600), (600, 599), (37, 598), (599, 0)):
            assert two_pile_minimax(rs, x1, x2, memo) == grid.outcome(x1, x2), (x1, x2)

    def test_memo_grows_in_place(self):
        # A larger request extends the cached rows instead of rebuilding
        # them, so a sweep through one memo fills each cell once.
        rs = Ruleset((2, 3))
        memo = {}
        two_pile_minimax(rs, 10, 10, memo)
        rows = memo[rs.actions][0]
        first = rows[0]
        assert two_pile_minimax(rs, 40, 25, memo) == build_grid(rs, 41, 26).outcome(40, 25)
        assert memo[rs.actions][0] is rows and rows[0] is first
        assert len(rows) == 26 and all(len(row) == 41 for row in rows)

    def test_terminal(self):
        assert two_pile_minimax(Ruleset((5, 7)), 0, 0) == 0
        assert two_pile_minimax(Ruleset((5, 7)), 4, 4) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            two_pile_minimax(Ruleset((5, 7)), -1, 3)


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
