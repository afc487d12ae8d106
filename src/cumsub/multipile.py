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
"""

from __future__ import annotations

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

    period is None when no candidate holds over the evidence window (the
    last third of the line, requiring at least two full periods there).
    For rows index is x2, for columns x1, for diagonals the offset k of
    the line (t, t+k); tail_start and verified_up_to are t coordinates.
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
    for d in range(width + height - 1):
        lo = max(0, d - height + 1)
        n = min(d, width - 1) - lo + 1
        best = None
        for s in ruleset.actions:
            if s > d:
                break
            prev = diags[d - s]
            a = lo - max(0, d - s - height + 1)  # where (lo, d - lo - s) sits in prev
            v = prev[a:a + n]
            v += off_grid[:n - len(v)]  # cells x2 < s have no vertical move
            if s > lo:  # cells x1 < s have no horizontal move
                k = min(n, s - lo)
                h = off_grid[:k] + prev[:n - k]
            else:
                h = prev[a - s:a - s + n]
            cand = [s - (p if p < q else q) for p, q in zip(h, v)]
            best = cand if best is None else [x if x > y else y for x, y in zip(best, cand)]
        if best is None:
            best = [0] * n
        elif d <= last_dead:
            best = [0 if x == no_move else x for x in best]
        diags.append(best)
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

    Filled bottom-up with one value table per mover, so it shares no code
    with build_grid and has no recursion to run out of.  A caller's memo
    keeps the tables per ruleset; a larger request fills only the new
    cells, so a sweep through one memo costs one fill of its final size.
    """
    if x1 < 0 or x2 < 0:
        raise ValueError(f"pile sizes must be nonnegative, got ({x1},{x2})")
    memo = {} if memo is None else memo
    vp, vn = memo.setdefault(ruleset.actions, ([], []))  # Positive, Negative to move
    if x2 < len(vp) and x1 < len(vp[0]):
        return vp[x2][x1]
    width = max(x1 + 1, len(vp[0]) if vp else 0)
    acts = ruleset.actions
    for b in range(max(x2 + 1, len(vp))):
        if b == len(vp):
            vp.append([])
            vn.append([])
        rp, rn = vp[b], vn[b]
        for a in range(len(rp), width):
            after = [(s, a - s, b) for s in acts if s <= a] + [(s, a, b - s) for s in acts if s <= b]
            rp.append(max((s + vn[b2][a2] for s, a2, b2 in after), default=0))
            rn.append(min((-s + vp[b2][a2] for s, a2, b2 in after), default=0))
    return vp[x2][x1]


def _line_report(
    kind: str, index: int, line: list[int], p_max: int, t0: int = 0
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
    return _line_report("row", x2, list(grid.values[x2]), 2 * m)


def column_period(grid: GridOutcome, x1: int) -> LinePeriodReport:
    """Probe column x1 for an eventual period p <= 2*max S."""
    if not 0 <= x1 < grid.width:
        raise ValueError(f"column {x1} outside grid width {grid.width}")
    m = grid.ruleset.max_action
    if grid.height < 6 * m:
        raise ValueError(f"column too short: need height >= {6 * m}, got {grid.height}")
    return _line_report("column", x1, list(map(itemgetter(x1), grid.values)), 2 * m)


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
    line_reports = [row_period(grid, x2) for x2 in range(grid.height)]
    line_reports += [column_period(grid, x1) for x1 in range(grid.width)]
    m = grid.ruleset.max_action
    diag_reports = []
    for k in range(-max_diag, max_diag + 1):
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
