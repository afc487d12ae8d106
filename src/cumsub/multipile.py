"""Two-pile play: outcome grids, periodicity probes, CSV/image export.

With two heaps, a move removes s pebbles from exactly one heap (s from
the shared action set), and the game ends only when neither heap admits
a move.  o(x1, x2) is defined by the same sign-flip recursion as the
single-pile game, maximized over both piles.  No closed form is known;
this module computes grids exactly and probes rows, columns, and
diagonals for eventual periodicity to feed the open conjectures.

Grids are filled row by row.  A move lowers one pile, so cell (x1, x2)
reads only cells to its left in its own row and cells of its column in
lower rows: a row solved left to right is exact once the rows below it
are.  A row stops solving where a certificate shows that it repeats with
period 2 max S from there on, over the whole infinite row, and the rest
is filled by period.  This is the single-pile certificate carried to
rows; build_grid holds the proof.

The rules treat both piles alike, so o(x1, x2) = o(x2, x1): swapping
the piles maps each move of one position onto a move of the other with
the same s, and the recursion carries the equality up from the terminal
cells.  So a row copies its cells left of the main diagonal from the
rows below, a tall grid reads its rows past the width from the periodic
tails of certified rows, and a column reads the matching row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import getitem, itemgetter

from .analysis import conjecture_report
from .core import TABLE_HEAP_LIMIT, Report, Ruleset

_CSV_ENCODING = "ascii"


@dataclass(frozen=True)
class GridOutcome:
    """Outcomes o(x1, x2) for 0 <= x1 < width, 0 <= x2 < height.

    values is indexed values[x2][x1]: one row per second-pile size.
    """

    ruleset: Ruleset
    width: int
    height: int
    values: tuple[tuple[int, ...], ...]

    def outcome(self, x1: int, x2: int) -> int:
        if not (0 <= x1 < self.width and 0 <= x2 < self.height):
            raise ValueError(
                f"position ({x1},{x2}) outside grid {self.width}x{self.height}"
            )
        return self.values[x2][x1]

    @cached_property
    def value_set(self) -> frozenset[int]:
        """The distinct outcomes in the grid, scanned once per grid."""
        return frozenset().union(*self.values)


@dataclass(frozen=True)
class LinePeriodReport(Report):
    """Eventual-period probe along one grid line.

    The verdict is windowed: period is None when no candidate holds over
    the evidence window, the last third of the line, which must span at
    least two full periods.  tail_start and verified_up_to are the first
    and last t of that window.  For rows index is x2, for columns x1, for
    diagonals the offset k of the line (t, t+k).
    """

    kind: str
    index: int
    period: int | None
    tail_start: int
    verified_up_to: int


def build_grid(ruleset: Ruleset, width: int, height: int) -> GridOutcome:
    """Exact two-pile table: o = max over both piles of s - o(after).

    Filled row by row, x2 = 0, 1, ...  Cell (x1, x2) reads (x1 - s, x2)
    to its left in its own row and (x1, x2 - s) in the rows below, so a
    row solved left to right is exact once the rows below it are.  Cells
    with no move at all (both piles below min S) are 0.  In row x2 < W the
    cells x1 < x2 copy their mirrors (x2, x1) from the rows below; the
    rest are solved until the row is certified periodic, and the cells
    after that are filled by period.

    The certificate.  Let m = max S.  Row x2 repeats with period 2m from
    X on, over the whole infinite row, when
      (a) the m cells X - m .. X - 1 equal the cells 2m to their left,
      (b) X >= 3m, and
      (c) X >= the start of every row x2 - s, s in S, s <= x2.
    Proof, by induction on x1 >= X.  Both x1 and x1 - 2m are at least m,
    so both cells play every action on pile 1, and the same actions on
    pile 2, which depend on x2 alone.  So o(x1, x2) and o(x1 - 2m, x2) are
    one function of the m cells to their left in row x2 and of the cells
    in rows x2 - s of their own column.  The cells to the left agree by
    (a), and then by induction; the lower cells agree by (c), because rows
    x2 - s repeat from their starts on.  Rows below min S read no lower
    row; row 0 is the single-pile game.  A row's start is the least
    X >= x2 + 1 meeting (a) to (c), found by a run counter while solving;
    the counter starts from the run of mirrored cells that ends at x2 - 1.
    So a row whose mirrored cells already hold a certificate solves one
    cell, and its start is x2 + 1, not always the least X meeting (a) to
    (c).  A row that never certifies gets start W + 1, so no row above it
    certifies through it.

    A tall grid's rows x2 >= W have every mirror (x2, x1) off the grid.
    When row x1 is certified, that mirror is its tail, read at the cell of
    the last 2m congruent to x2; the other cells are solved, and these
    rows are not certified themselves.  Rows are stored to width W only,
    so memory stays proportional to the grid whatever max S is.
    """
    _check_grid(width, height)
    acts = ruleset.actions
    m = acts[-1]
    lag, never = 2 * m, width + 1
    # Pile-1 actions past the least one that x1 < max S can play.
    playable = [acts[1:bisect_right(acts, x1)] for x1 in range(min(m, width))]
    rows: list[tuple[int, ...]] = []
    starts: list[int] = []  # row x2 repeats with period 2m from starts[x2] on
    for x2 in range(min(width, height)):
        row = list(map(itemgetter(x2), rows))  # x1 < x2: the mirrors
        row += [None] * (width - x2)
        floor = max([3 * m] + [starts[x2 - s] for s in acts if s <= x2])
        run = 0  # mirrored cells ending at x2 - 1 that equal the cell 2m to their left
        while run < m and x2 - run > lag and row[x2 - run - 1] == row[x2 - run - 1 - lag]:
            run += 1
        start = _solve_row(row, range(x2, width), rows, acts, playable, floor, run)
        if start < width:  # the rest by period 2m
            rem = width - start
            row[start:] = (row[start - lag:start] * (rem // lag + 1))[:rem]
        rows.append(tuple(row))
        starts.append(start)
    if height > width:  # rows x2 >= W: mirrors off the grid
        blank = (None,) * width
        tails = [r if x <= width else blank for r, x in zip(rows, starts)]
        todo = [x1 for x1, x in enumerate(starts) if x > width]
        for x2 in range(width, height):
            # A certified row holds at least 2m cells (b): index x2 in its last 2m.
            phase = width - lag + (x2 - width) % lag if 3 * m <= width else 0
            row = list(map(itemgetter(phase), tails))
            _solve_row(row, todo, rows, acts, playable, never, 0)
            rows.append(tuple(row))
    return GridOutcome(ruleset=ruleset, width=width, height=height, values=tuple(rows))


def _check_grid(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise ValueError(f"grid must be at least 1x1, got {width}x{height}")
    if width * height >= TABLE_HEAP_LIMIT:
        raise ValueError(
            f"grid {width}x{height} has {width * height} cells, "
            f"above the supported {TABLE_HEAP_LIMIT}"
        )


def _solve_row(
    row: list, todo: Sequence[int], rows: list, acts: tuple, playable: list, floor: int, run: int
) -> int:
    """Solve the cells x1 in todo of row len(rows) of a grid, left to right.

    The cells left of each one and the rows below must be filled.  Stops
    at the first x1 + 1 >= floor that ends a run of max S cells equal to
    the cells 2 max S to their left, counting the run the row came in
    with, and returns it; otherwise solves every cell and returns W + 1.
    The loop has the shape of minimax_values.
    """
    x2 = len(rows)
    lo, rest, m = acts[0], acts[1:], acts[-1]
    lag = 2 * m
    downs = [(s, rows[x2 - s]) for s in acts if s <= x2]  # pile-2 moves
    i = bisect_left(todo, lo)
    if i:  # pile 1 has no move: these cells all hold the single-pile o(x2)
        v = max([s - r[todo[0]] for s, r in downs], default=0)
        for x1 in todo[:i]:
            row[x1] = v
    for x1 in todo[i:]:
        v = lo - row[x1 - lo]
        for s in rest if x1 >= m else playable[x1]:
            up = s - row[x1 - s]
            if up > v:
                v = up
        for s, r in downs:
            up = s - r[x1]
            if up > v:
                v = up
        row[x1] = v
        if x1 >= lag and v == row[x1 - lag]:
            run += 1
            if run >= m and x1 >= floor - 1:
                return x1 + 1
        else:
            run = 0
    return len(row) + 1


def two_pile_values(ruleset: Ruleset, width: int, height: int) -> tuple[tuple[int, ...], ...]:
    """Independent two-pile oracle: o(x1, x2) for x1 < width, x2 < height.

    Rows are indexed [x2][x1], the shape of GridOutcome.values, and the
    grids build_grid refuses are refused here too, by the same check,
    before any row is allocated.  Filled bottom-up, row by row, with one
    value table per player to move, so it shares no solving code with
    build_grid and has no recursion to run out of.  It reads no mirror cell and fills nothing by
    period, so the symmetry and the row certificate build_grid relies on
    are checked here, not assumed.

    The loop has the shape of minimax_values: the pile-2 moves of row b,
    into rows b - s, are collected once per row; on a cell where pile 1
    can move, its least action seeds best and worst, and every other
    move updates them with plain comparisons.
    """
    _check_grid(width, height)
    acts = ruleset.actions
    lo, rest, m = acts[0], acts[1:], acts[-1]
    vp: list[list[int]] = []  # Positive to move
    vn: list[list[int]] = []  # Negative to move
    for b in range(height):
        rp: list[int] = []
        rn: list[int] = []
        downs = [(s, vp[b - s], vn[b - s]) for s in acts if s <= b]  # pile-2 moves
        for a in range(width):
            if a < lo:  # pile 1 has no move
                rp.append(max([s + n[a] for s, p, n in downs], default=0))
                rn.append(min([p[a] - s for s, p, n in downs], default=0))
                continue
            best = lo + rn[a - lo]
            worst = rp[a - lo] - lo
            for s in rest if a >= m else rest[:bisect_right(rest, a)]:
                up = s + rn[a - s]
                if up > best:
                    best = up
                down = rp[a - s] - s
                if down < worst:
                    worst = down
            for s, p, n in downs:
                up = s + n[a]
                if up > best:
                    best = up
                down = p[a] - s
                if down < worst:
                    worst = down
            rp.append(best)
            rn.append(worst)
        vp.append(rp)
        vn.append(rn)
    return tuple(map(tuple, vp))


def _line_report(
    kind: str, index: int, line: Sequence[int], p_max: int, t0: int = 0
) -> LinePeriodReport:
    """Minimal period on the last-third tail of a line starting at t = t0.

    A period p <= p_max counts only when the tail spans at least two of it.
    """
    n = len(line)
    tail = (2 * n) // 3
    period = None
    for p in range(1, min(p_max, (n - tail) // 2) + 1):
        if line[tail:n - p] == line[tail + p:]:
            period = p
            break
    return LinePeriodReport(kind, index, period, t0 + tail, t0 + n - 1)


def row_period(grid: GridOutcome, x2: int) -> LinePeriodReport:
    """Probe row x2 for an eventual period p <= 2*max S."""
    if not 0 <= x2 < grid.height:
        raise ValueError(f"row {x2} outside grid height {grid.height}")
    m = grid.ruleset.max_action
    if grid.width < 6 * m:
        raise ValueError(f"row too short: need width >= {6 * m}, got {grid.width}")
    return _line_report("row", x2, grid.values[x2], 2 * m)


def column_period(grid: GridOutcome, x1: int) -> LinePeriodReport:
    """Probe column x1 for an eventual period p <= 2*max S.

    By symmetry, column x1 < H of a grid with H <= W is row x1 cut to the
    height; other columns are gathered cell by cell.
    """
    if not 0 <= x1 < grid.width:
        raise ValueError(f"column {x1} outside grid width {grid.width}")
    m = grid.ruleset.max_action
    if grid.height < 6 * m:
        raise ValueError(f"column too short: need height >= {6 * m}, got {grid.height}")
    if x1 < grid.height <= grid.width:  # o(x1, x2) = o(x2, x1): the column is row x1
        column = grid.values[x1][:grid.height]
    else:
        column = list(map(itemgetter(x1), grid.values))
    return _line_report("column", x1, column, 2 * m)


def diagonal_period(grid: GridOutcome, k: int) -> LinePeriodReport:
    """Probe the diagonal (t, t+k) for an eventual period p <= 4*max S."""
    t0, t1 = max(0, -k), min(grid.width, grid.height - k)
    line = list(map(getitem, grid.values[t0 + k:t1 + k], range(t0, t1)))
    m = grid.ruleset.max_action
    if len(line) < 6 * m:
        raise ValueError(
            f"diagonal k={k} too short: need >= {6 * m} points, got {len(line)}"
        )
    return _line_report("diagonal", k, line, 4 * m, t0)


def _write_pnm(grid: GridOutcome, path: str, color: bool) -> None:
    m = grid.ruleset.max_action
    magic = "P6" if color else "P5"
    header = f"{magic}\n{grid.width} {grid.height}\n255\n".encode("ascii")
    pixel = {}
    for v in grid.value_set:
        level = v * 255 // m
        # bytes() refuses a level outside 0..255 before the file is opened.
        pixel[v] = bytes((level, 0, 255 - level)) if color else bytes((level,))
    with open(path, "wb") as fh:
        fh.write(header)
        # Image rows run top to bottom, so emit x2 descending: row 0 lands
        # at the bottom, matching plot-style axis orientation.
        for row in reversed(grid.values):
            fh.write(b"".join(map(pixel.__getitem__, row)))


def export_grid(grid: GridOutcome, fmt: str, path: str) -> None:
    """Write the grid as csv (header-free rows), pgm (gray), or ppm (blue-red).

    Images scale o linearly onto 0..255 with max S at full intensity; the
    ppm colormap runs from pure blue at 0 to pure red at max S.
    """
    if fmt == "csv":
        text = {v: str(v) for v in grid.value_set}
        with open(path, "w", encoding=_CSV_ENCODING, newline="\n") as fh:
            for row in grid.values:
                fh.write(",".join(map(text.__getitem__, row)))
                fh.write("\n")
    elif fmt == "pgm":
        _write_pnm(grid, path, color=False)
    elif fmt == "ppm":
        _write_pnm(grid, path, color=True)
    else:
        raise ValueError(f"unknown export format {fmt!r}; expected csv, pgm, or ppm")


def periodicity_reports(grid: GridOutcome, max_diag: int = 50) -> dict:
    """Row/column and diagonal period sweeps in the shared conjecture schema."""
    if max_diag < 0:
        raise ValueError(f"max_diag must be nonnegative, got {max_diag}")
    line_reports = [row_period(grid, x2) for x2 in range(grid.height)]
    line_reports += [column_period(grid, x1) for x1 in range(grid.width)]
    m = grid.ruleset.max_action
    diag_reports = []
    # Only -(W-1) <= k <= H-1 names a diagonal of the grid.
    for k in range(max(-max_diag, 1 - grid.width), min(max_diag, grid.height - 1) + 1):
        length = min(grid.width, grid.height - k) - max(0, -k)
        if length >= 6 * m:
            diag_reports.append(diagonal_period(grid, k))
    shape = {"ruleset": list(grid.ruleset.actions), "width": grid.width, "height": grid.height}
    lines = conjecture_report(
        conjecture="two-pile-line-periodicity",
        parameters={**shape, "period_cap": 2 * m},
        swept_space={"rows": grid.height, "columns": grid.width},
        counterexamples=[r.as_dict() for r in line_reports if r.period is None],
        decisive=False,
    )
    diagonals = conjecture_report(
        conjecture="two-pile-diagonal-periodicity",
        parameters={**shape, "period_cap": 4 * m, "max_diag": max_diag},
        swept_space={"diagonals": len(diag_reports)},
        counterexamples=[r.as_dict() for r in diag_reports if r.period is None],
        decisive=False,
    )
    return {"lines": lines, "diagonals": diagonals}
