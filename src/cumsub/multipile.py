"""Two-pile play: outcome grids, periodicity probes, CSV/image export.

With two heaps, a move removes s pebbles from exactly one heap (s from
the shared action set), and the game ends only when neither heap admits
a move.  o(x1, x2) is defined by the same sign-flip recursion as the
single-pile game, maximized over both piles.  No closed form is known;
this module computes grids exactly and probes rows, columns, and
diagonals for eventual periodicity to feed the open conjectures.

Grids are filled one anti-diagonal d = x1 + x2 at a time.  Every move
lowers x1 + x2 by its s >= 1, so each cell depends only on earlier
diagonals and the cells of one diagonal are independent of each other:
a diagonal is a few whole-list operations, not a per-cell loop.

The rules treat both piles alike, so o(x1, x2) = o(x2, x1): swapping
the piles maps each move of one position onto a move of the other with
the same s, and the recursion carries the equality up from the terminal
cells.  So a diagonal solves its cells only up to its midpoint and copies
the rest from their mirrors, and a column reads the matching row.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
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

    Filled by anti-diagonals d = x1 + x2 in increasing order.  A move by s
    leads from diagonal d to diagonal d - s, so each diagonal reads only
    finished ones and the order is exact.  Diagonal d is stored for x1 in
    [lo, hi] = [max(0, d-H+1), min(d, W-1)].  For each s the vertical
    predecessors (x1, x2-s) are a contiguous slice of diagonal d - s that
    ends early where x2 < s, and the horizontal ones (x1-s, x2) a slice
    that starts late where x1 < s; infinities, which no minimum picks,
    fill the cells with no such move.  Nothing is padded, so memory stays
    proportional to the grid whatever max S is.  Cells with no move at
    all (both piles below min S) come out as -inf and are reset to 0.

    By symmetry only x1 <= d // 2 is solved; cells x1 in (d // 2, d - lo]
    copy their mirror d - x1 with one reversed slice.  On a grid wider than
    tall, cells x1 > d - lo have their mirror at x2 = x1 >= H, off the
    grid, and are solved like the first half.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid must be at least 1x1, got {width}x{height}")
    if width * height >= TABLE_HEAP_LIMIT:
        raise ValueError(
            f"grid {width}x{height} has {width * height} cells, "
            f"above the supported {TABLE_HEAP_LIMIT}"
        )
    no_move = float("-inf")
    off_grid = [float("inf")] * min(width, height)  # longest diagonal
    last_dead = 2 * ruleset.min_action - 2  # last diagonal with a cell that has no move
    diags: list[list] = []

    def cells(d: int, first: int, last: int) -> list:
        """Cells x1 = first..last of diagonal d, from diagonals below d."""
        n = last - first + 1
        if n <= 0:
            return []
        best = None
        for s in ruleset.actions:
            if s > d:
                break
            prev = diags[d - s]
            a = first - max(0, d - s - height + 1)  # where (first, d - first - s) sits in prev
            v = prev[a:a + n]
            v += off_grid[:n - len(v)]  # cells x2 < s have no vertical move
            if s > first:  # cells x1 < s have no horizontal move
                k = min(n, s - first)
                h = off_grid[:k] + prev[:n - k]
            else:
                h = prev[a - s:a - s + n]
            cand = [s - (p if p < q else q) for p, q in zip(h, v)]
            best = cand if best is None else [x if x > y else y for x, y in zip(best, cand)]
        if best is None:
            return [0] * n
        if d <= last_dead:
            return [0 if x == no_move else x for x in best]
        return best

    for d in range(width + height - 1):
        lo, hi = max(0, d - height + 1), min(d, width - 1)
        mid = min(hi, max(lo - 1, d // 2))  # last x1 solved before the mirror
        top = min(hi, max(mid, d - lo))  # last x1 whose mirror d - x1 is on the grid
        diag = cells(d, lo, mid)
        diag += diag[d - top - lo:d - mid - lo][::-1]  # x1 in (mid, top] from d - x1
        diag += cells(d, top + 1, hi)  # wide grids: mirror (d - x1, x1) has x1 >= height
        diags.append(diag)
    rows = []
    for x2 in range(height):
        # Cell (x1, x2) is entry x1 - lo of diagonal x1 + x2: entry x1 while
        # that diagonal starts at x1 = 0 (x1 + x2 < height), then height - 1 - x2.
        k = min(width, height - x2)
        slots = chain(range(k), repeat(height - 1 - x2, width - k))
        rows.append(tuple(map(getitem, diags[x2:x2 + width], slots)))
    return GridOutcome(ruleset=ruleset, width=width, height=height, values=tuple(rows))


def two_pile_minimax(
    ruleset: Ruleset, x1: int, x2: int, memo: dict | None = None
) -> int:
    """Independent two-pile oracle: explicit game values by player to move.

    Filled bottom-up, row by row, with one value table per mover, so it
    shares no code with build_grid and has no recursion to run out of.
    It reads no anti-diagonal and no mirror cell, so the symmetry
    build_grid relies on is checked here, not assumed.  A caller's memo
    keeps the tables per ruleset; a larger request fills only the new
    cells, so a sweep through one memo costs one fill of its final size.

    The loop has the shape of minimax_values: the pile-2 moves of row b,
    into rows b - s, are collected once per row; on a cell where pile 1
    can move, its least action seeds best and worst, and every other
    move updates them with plain comparisons.
    """
    if x1 < 0 or x2 < 0:
        raise ValueError(f"pile sizes must be nonnegative, got ({x1},{x2})")
    memo = {} if memo is None else memo
    vp, vn = memo.setdefault(ruleset.actions, ([], []))  # Positive, Negative to move
    if x2 < len(vp) and x1 < len(vp[0]):
        return vp[x2][x1]
    width = max(x1 + 1, len(vp[0]) if vp else 0)
    acts = ruleset.actions
    lo, rest, m = acts[0], acts[1:], acts[-1]
    for b in range(max(x2 + 1, len(vp))):
        if b == len(vp):
            vp.append([])
            vn.append([])
        rp, rn = vp[b], vn[b]
        downs = [(s, vp[b - s], vn[b - s]) for s in acts if s <= b]  # pile-2 moves
        for a in range(len(rp), width):
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
    return vp[x2][x1]


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
