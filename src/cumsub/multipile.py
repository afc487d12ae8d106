"""Two-pile play: outcome grids, periodicity probes, CSV/image export.

With two heaps, a move removes s pebbles from exactly one heap (s from
the shared action set), and the game ends only when neither heap admits
a move.  o(x1, x2) is defined by the same sign-flip recursion as the
single-pile game, maximized over both piles.  No closed form is known;
this module computes grids exactly and probes rows, columns, and
diagonals for eventual periodicity to feed the open conjectures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import conjecture_report, smallest_period
from .core import Report, Ruleset

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
    """Exact two-pile table: o = max over both piles of s - o(after)."""
    if width < 1 or height < 1:
        raise ValueError(f"grid must be at least 1x1, got {width}x{height}")
    acts = ruleset.actions
    rows: list[list[int]] = []
    for x2 in range(height):
        row = [0] * width
        for x1 in range(width):
            best = None
            for s in acts:
                if s > x1:
                    break
                v = s - row[x1 - s]
                if best is None or v > best:
                    best = v
            for s in acts:
                if s > x2:
                    break
                v = s - rows[x2 - s][x1]
                if best is None or v > best:
                    best = v
            if best is not None:
                row[x1] = best
        rows.append(row)
    return GridOutcome(
        ruleset=ruleset,
        width=width,
        height=height,
        values=tuple(tuple(r) for r in rows),
    )


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
    """Minimal period on the last-third tail of a line starting at t = t0."""
    tail = (2 * len(line)) // 3
    period = smallest_period(line, tail, p_max)
    return LinePeriodReport(kind, index, period, t0 + tail, t0 + len(line) - 1)


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
    line = [grid.values[x2][x1] for x2 in range(grid.height)]
    return _line_report("column", x1, line, 2 * m)


def diagonal_period(grid: GridOutcome, k: int) -> LinePeriodReport:
    """Probe the diagonal (t, t+k) for an eventual period p <= 4*max S."""
    t0 = max(0, -k)
    line: list[int] = []
    t = t0
    while t < grid.width and t + k < grid.height:
        line.append(grid.values[t + k][t])
        t += 1
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
    body = bytearray()
    # Image rows run top to bottom, so emit x2 descending: row 0 lands at
    # the bottom, matching plot-style axis orientation.
    for x2 in range(grid.height - 1, -1, -1):
        for v in grid.values[x2]:
            level = v * 255 // m
            if color:
                body += bytes((level, 0, 255 - level))
            else:
                body.append(level)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def export_grid(grid: GridOutcome, fmt: str, path: str) -> None:
    """Write the grid as csv (header-free rows), pgm (gray), or ppm (blue-red).

    Images scale o linearly onto 0..255 with max S at full intensity; the
    ppm colormap runs from pure blue at 0 to pure red at max S.
    """
    if fmt == "csv":
        with open(path, "w", encoding=_CSV_ENCODING, newline="\n") as fh:
            for row in grid.values:
                fh.write(",".join(str(v) for v in row))
                fh.write("\n")
    elif fmt == "pgm":
        _write_pnm(grid, path, color=False)
    elif fmt == "ppm":
        _write_pnm(grid, path, color=True)
    else:
        raise ValueError(f"unknown export format {fmt!r}; expected csv, pgm, or ppm")


def read_grid_csv(path: str) -> tuple[tuple[int, ...], ...]:
    """Parse a grid CSV written by export_grid back into a value matrix."""
    rows: list[tuple[int, ...]] = []
    with open(path, "r", encoding=_CSV_ENCODING) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(tuple(int(tok) for tok in line.split(",")))
    return tuple(rows)


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
