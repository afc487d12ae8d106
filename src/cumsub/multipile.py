"""Two-pile play: outcome grids, certified line periods, CSV/image export.

With two heaps, a move removes s pebbles from exactly one heap (s from
the shared action set), and the game ends only when neither heap admits
a move.  o(x1, x2) is defined by the same sign-flip recursion as the
single-pile game, maximized over both piles.  No closed form is known;
this module computes grids exactly and certifies the eventual period of
every row, column and diagonal of the infinite grid.

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
rows below, and a column is the matching row.  Rows past the width of a
tall grid are solved whole until they repeat by period 2 max S.

A second certificate covers the whole plane: with m = max S, once the
certified rows show o(x1 + m, x2 + m) = o(x1, x2) on a band of m rows
from some T on, the shift holds for all x1, x2 >= T.  build_grid then
neither solves nor stores any later row: the grid keeps its T + 2m
solved rows and the certificate, which gives any cell of the infinite
grid, and GridOutcome.values builds the whole grid only when it is first
read.  The line reports read each line's least period and least start
from the certificate, and it alone settles the periodicity sweeps: row
and column periods divide 2m, diagonal periods divide m.  The exports
read it too: where a row and the row m before it in the file are both at
least T, most of the row is a slice of that row's encoding, the rest is
read from the certificate, and the distinct values are those of the rows
below T + m.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt
from operator import itemgetter

from .analysis import conjecture_report
from .core import TABLE_HEAP_LIMIT, Report, Ruleset, _fill_period, _least_period, _period_cell

_CSV_ENCODING = "ascii"


@dataclass(frozen=True)
class ShiftCertificate:
    """o(x1 + m, x2 + m) = o(x1, x2) for all x1, x2 >= start, with m = max S.

    rows[x2] is row x2 for x2 < start + m, stored at least up to
    row_starts[x2], from which on the row repeats with period 2m.  With the
    shift and the symmetry of o they give every cell of the infinite grid.
    build_grid holds the proof.
    """

    m: int
    start: int
    rows: tuple[tuple[int, ...], ...]
    row_starts: tuple[int, ...]

    def cell(self, x1: int, x2: int) -> int:
        """o(x1, x2) for any x1, x2 >= 0."""
        lo, hi = (x1, x2) if x1 <= x2 else (x2, x1)
        if lo >= self.start:  # shift down to a stored row
            k = (lo - self.start) // self.m * self.m
            lo, hi = lo - k, hi - k
        a = self.row_starts[lo]
        return self.rows[lo][hi if hi < a else _period_cell(hi, a, 2 * self.m)]

    def row_start(self, x2: int) -> int:
        """An X from which row x2 repeats with period 2m; not always the least.

        Above the stored rows, let k be the multiple of m that puts
        y = x2 - k in [start, start + m).  Cell (x1, x2) is cell (x1 - k, y)
        whenever x1 - k >= start, so row x2 repeats where row y does and
        both x1 - k and x1 - k - 2m are at least start: from
        k + max(row_starts[y], start + 2m) on.
        """
        if x2 < self.start + self.m:
            return self.row_starts[x2]
        k = (x2 - self.start) // self.m * self.m
        return k + max(self.row_starts[x2 - k], self.start + 2 * self.m)


@dataclass(frozen=True)
class GridOutcome:
    """Outcomes o(x1, x2) for 0 <= x1 < width, 0 <= x2 < height.

    rows are the rows x2 = 0, 1, ... that build_grid solved, indexed
    rows[x2][x1].  shift is the diagonal-shift certificate build_grid found
    in them, or None; without it, rows holds every row of the grid.  With
    it, rows stops at T + 2m, and every cell is read from the certificate.
    """

    ruleset: Ruleset
    width: int
    height: int
    rows: tuple[tuple[int, ...], ...]
    shift: ShiftCertificate | None = field(default=None, compare=False, repr=False)

    def outcome(self, x1: int, x2: int) -> int:
        if not (0 <= x1 < self.width and 0 <= x2 < self.height):
            raise ValueError(
                f"position ({x1},{x2}) outside grid {self.width}x{self.height}"
            )
        return self.shift.cell(x1, x2) if self.shift else self.rows[x2][x1]

    @cached_property
    def values(self) -> tuple[tuple[int, ...], ...]:
        """Every row of the grid, indexed values[x2][x1]; built on first read.

        Past the solved rows, row x2 >= T + 2m is two copies: its cells
        x1 < T + m are their mirrors, and its cells x1 >= T + m are row
        x2 - m shifted right by m.  (Cells T <= x1 < T + m are not shifts:
        their twins (x1 - m, x2 - m) have a coordinate below T.)  A mirror
        past the width is in the last 2m cells of a certificate row.
        """
        shift, width = self.shift, self.width
        if shift is None:
            return self.rows
        m, t, rows = shift.m, shift.start, list(self.rows)
        for x2 in range(len(rows), self.height):
            j = x2 if x2 < width else _period_cell(x2, width, 2 * m)
            rows.append(tuple(map(itemgetter(j), shift.rows)) + rows[x2 - m][t:width - m])
        return tuple(rows)

    @cached_property
    def value_set(self) -> frozenset[int]:
        """The distinct outcomes, read from the shift certificate's rows if any.

        By the shift and symmetry, each cell of the infinite grid lies on
        one of its rows x2 < T + m, the grid's own, and each of these
        repeats with period 2m from a start at least 2m before the width.
        """
        return frozenset().union(*(self.shift.rows if self.shift else self.rows))

    @cached_property
    def certificate(self) -> ShiftCertificate:
        """The grid's own shift certificate, or one found on a square of its own.

        The square is solved only as far as the certificate needs, and
        its side doubles from 8 max S up to the largest square under
        TABLE_HEAP_LIMIT cells; past that, ValueError.  Either certificate
        proves the same facts, so what is read from it does not depend on
        the grid's shape.
        """
        return self.shift or _certify_shift(self.ruleset)


@dataclass(frozen=True)
class LinePeriodReport(Report):
    """Certified least period and least start of one line of the infinite grid.

    For rows index is x2, for columns x1, for diagonals the offset k of the
    line (t, t+k).  The line repeats with period from tail_start on, and
    from no earlier t; for diagonals tail_start is in t.
    """

    kind: str
    index: int
    period: int
    tail_start: int


def build_grid(ruleset: Ruleset, width: int, height: int) -> GridOutcome:
    """Exact two-pile table: o = max over both piles of s - o(after).

    Filled row by row, x2 = 0, 1, ...  Cell (x1, x2) reads (x1 - s, x2)
    to its left in its own row and (x1, x2 - s) in the rows below, so a
    row solved left to right is exact once the rows below it are.  Cells
    with no move at all (both piles below min S) are 0.  In row x2 < W the
    cells x1 < x2 copy their mirrors (x2, x1) from the rows below; the
    rest are solved until the row is certified periodic, and the cells
    after that are filled by period.  Once the shift certificate below
    fires, no later row is solved, and none is stored: the grid keeps its
    T + 2m solved rows and the certificate, and GridOutcome.values copies
    the later rows only when it is first read.

    The row certificate.  Let m = max S.  Row x2 repeats with period 2m
    from X on, over the whole infinite row, when
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
    X >= x2 + m meeting (a) to (c), found by a run counter over its solved
    cells.  A row that never certifies gets start W + 1, so no row above
    it certifies through it.

    The shift certificate.  Let T >= m, and suppose that for every x2 in
    [T, T + m) rows x2 and x2 + m are certified, with starts a and b, and
    o(x1 + m, x2 + m) = o(x1, x2) for x1 in [T, max(a, b - m) + 2m).  Then
    o(x1 + m, x2 + m) = o(x1, x2) for all x1, x2 >= T.  Proof.  From
    c = max(a, b - m) > T on, both sides repeat with period 2m in x1, and
    [T, c + 2m) holds a whole period of them, so they agree on every
    x1 >= T.  By symmetry the same holds with x1 and x2 swapped, which
    covers every cell with min(x1, x2) in [T, T + m).  The other cells,
    both coordinates at least T + m >= 2m, play every action on both
    piles, and so do their twins shifted by m; a cell reads only cells
    with both coordinates at least T, whose twins its twin reads, and
    these agree by induction on x1 + x2.  Every row y < T is certified
    too: y plus some multiple of min S lies in [T, T + m), and by (c) a
    row is certified only above certified rows.  After each solved row
    x2, T = x2 - 2m + 1 is tried.  By (c) with s = m, no row starts
    before row x2 - m does, and the check needs b <= W - 2m for every row
    of [T + m, T + 2m); so once a row starts past W - 2m, no later T can
    fire, since each band holds that row or one a multiple of m above it.

    Once it fires, each row x2 >= T + 2m is its mirrors and a shift of
    row x2 - m; GridOutcome.values holds that copy rule.

    A tall grid's rows x2 >= W have every mirror off the grid.  Without
    the shift they are solved whole until max S of them in a row, each
    x2 >= 2m, equal the rows 2m below; every later row X then equals row
    X - 2m.  Proof.  The run ends at 3m - 1 or later, so X - 2m >= m, and
    rows X and X - 2m play every pile-2 move and the same pile-1 moves.
    Rows X - s, s in S, equal the rows 2m below them, so the two agree by
    induction on x1, and then on X.  Rows are stored to width W only and
    repeats share one tuple, so memory stays proportional to the grid
    whatever max S is.
    """
    _check_grid(width, height)
    rows, shift = _solve_rows(ruleset.actions, width, height)
    return GridOutcome(ruleset, width, height, tuple(rows), shift)


def _solve_rows(
    acts: tuple, width: int, height: int, certify_only: bool = False
) -> tuple[list, ShiftCertificate | None]:
    """Rows x2 < height of a grid, solved until the shift certificate fires.

    Returns the rows solved and the certificate, or every row and None.
    With certify_only, it returns the rows so far and None as soon as a
    row starts past W - 2 max S, from where no certificate can fire.
    """
    m = acts[-1]
    lag = 2 * m
    # Pile-1 actions past the least one that x1 < max S can play.
    playable = [acts[1:bisect_right(acts, x1)] for x1 in range(min(m, width))]
    rows: list[tuple[int, ...]] = []
    starts: list[int] = []  # row x2 repeats with period 2m from starts[x2] on
    for x2 in range(min(width, height)):
        row = list(map(itemgetter(x2), rows))  # x1 < x2: the mirrors
        row += [None] * (width - x2)
        floor = max([3 * m] + [starts[x2 - s] for s in acts if s <= x2])
        start = _solve_row(row, x2, rows, acts, playable, floor)
        _fill_period(row, start, lag)  # the rest by period 2m
        rows.append(tuple(row))
        starts.append(start)
        t = x2 - lag + 1
        if t >= m and _shift_holds(rows, starts, t, m, width):
            return rows, ShiftCertificate(m, t, tuple(rows[:t + m]), tuple(starts[:t + m]))
        if certify_only and start > width - lag:
            return rows, None
    run = 0  # consecutive rows x2 >= 2m equal to row x2 - 2m
    for x2 in range(width, height):  # rows x2 >= W: mirrors off the grid
        row = [None] * width
        _solve_row(row, 0, rows, acts, playable, width + 1)
        rows.append(tuple(row))
        run = run + 1 if x2 >= lag and rows[x2] == rows[x2 - lag] else 0
        if run >= m:  # every later row repeats by period 2m
            rows += [None] * (height - x2 - 1)
            _fill_period(rows, x2 + 1, lag)
            break
    return rows, None


def _shift_holds(rows: list, starts: list, t: int, m: int, width: int) -> bool:
    """The shift certificate of build_grid with T = t, on rows t .. t + 2m - 1."""
    for y in range(t + m - 1, t - 1, -1):
        end = max(starts[y], starts[y + m] - m) + 2 * m
        # An uncertified row has start W + 1, which puts end + m past the width.
        if end + m > width or rows[y][t:end] != rows[y + m][t + m:end + m]:
            return False
    return True


def _certify_shift(ruleset: Ruleset) -> ShiftCertificate:
    """The shift certificate found on squares doubling from 8 max S.

    Each square is solved only until its certificate fires or can no
    longer fire.
    """
    cap = isqrt(TABLE_HEAP_LIMIT - 1)
    side = min(8 * ruleset.max_action, cap)
    while True:
        shift = _solve_rows(ruleset.actions, side, side, certify_only=True)[1]
        if shift is not None:
            return shift
        if side == cap:
            raise ValueError(
                f"no two-pile shift certificate for {ruleset} on a square grid "
                f"under the supported {TABLE_HEAP_LIMIT} cells"
            )
        side = min(2 * side, cap)


def _check_grid(width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise ValueError(f"grid must be at least 1x1, got {width}x{height}")
    if width * height >= TABLE_HEAP_LIMIT:
        raise ValueError(
            f"grid {width}x{height} has {width * height} cells, "
            f"above the supported {TABLE_HEAP_LIMIT}"
        )


def _solve_row(row: list, first: int, rows: list, acts: tuple, playable: list, floor: int) -> int:
    """Solve the cells x1 >= first of row len(rows) of a grid, left to right.

    The cells left of first and the rows below must be filled.  Stops at
    the first x1 + 1 >= floor that ends a run of max S solved cells equal
    to the cells 2 max S to their left, and returns it; otherwise solves
    every cell and returns W + 1.  The loop has the shape of
    minimax_values.
    """
    x2, width = len(rows), len(row)
    lo, rest, m = acts[0], acts[1:], acts[-1]
    lag, run = 2 * m, 0
    downs = [(s, rows[x2 - s]) for s in acts if s <= x2]  # pile-2 moves
    if first < lo:  # pile 1 has no move: these cells all hold the single-pile o(x2)
        v = max([s - r[first] for s, r in downs], default=0)
        row[first:lo] = [v] * (min(lo, width) - first)
    for x1 in range(max(first, lo), width):
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
    return width + 1


def two_pile_values(ruleset: Ruleset, width: int, height: int) -> tuple[tuple[int, ...], ...]:
    """Independent two-pile oracle: o(x1, x2) for x1 < width, x2 < height.

    Rows are indexed [x2][x1], the shape of GridOutcome.values, and the
    grids build_grid refuses are refused here too, by the same check,
    before any row is allocated.  Filled bottom-up, row by row, with one
    value table per player to move, so it shares no solving code with
    build_grid and has no recursion to run out of.  It reads no mirror
    cell and fills or copies nothing by period or shift, so the symmetry
    and the row and shift certificates build_grid relies on are checked
    here, not assumed.

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


def row_period(grid: GridOutcome, x2: int) -> LinePeriodReport:
    """Least period (a divisor of 2*max S) and least start of row x2."""
    if not 0 <= x2 < grid.height:
        raise ValueError(f"row {x2} outside grid height {grid.height}")
    return _row_report(grid, "row", x2)


def column_period(grid: GridOutcome, x1: int) -> LinePeriodReport:
    """Least period (a divisor of 2*max S) and least start of column x1.

    By symmetry column x1 is row x1.
    """
    if not 0 <= x1 < grid.width:
        raise ValueError(f"column {x1} outside grid width {grid.width}")
    return _row_report(grid, "column", x1)


def _row_report(grid: GridOutcome, kind: str, r: int) -> LinePeriodReport:
    """Report on row r of the infinite grid, read from the certificate."""
    cert = grid.certificate
    end = cert.row_start(r)
    line = [cert.cell(x1, r) for x1 in range(end)]
    period, start = _least_period_and_start(line, end, 2 * cert.m)
    return LinePeriodReport(kind, r, period, start)


def diagonal_period(grid: GridOutcome, k: int) -> LinePeriodReport:
    """Least period (a divisor of max S) and least start of the diagonal (t, t+k).

    From t >= max(T, T - k) on, both coordinates are at least the shift
    certificate's T, so the diagonal repeats with period max S there.
    """
    if not -grid.width < k < grid.height:
        raise ValueError(f"diagonal k={k} outside grid {grid.width}x{grid.height}")
    cert = grid.certificate
    t0 = max(0, -k)
    end = max(cert.start, cert.start - k) + cert.m
    line = [cert.cell(t, t + k) for t in range(t0, end)]
    period, start = _least_period_and_start(line, end - t0, cert.m)
    return LinePeriodReport("diagonal", k, period, t0 + start)


def _least_period_and_start(line: Sequence[int], end: int, lag: int) -> tuple[int, int]:
    """Least period and least start of a line with line[t] = line[t + lag] for t >= end - lag.

    line holds at least t < end.  The least period divides lag.  The least
    start is found by walking back from end - lag while the cell below
    still repeats.
    """
    period = _least_period(line[end - lag:end])
    t = end - lag
    while t and line[t - 1] == line[t - 1 + period]:
        t -= 1
    return period, t


def _encoded_rows(grid: GridOutcome, token: dict, sep: str | bytes, descending: bool) -> Iterator:
    """Each row as sep.join of its cells' tokens, x2 ascending or descending.

    With the shift certificate (T, m), cells [T, W - m) of a row y >= T
    are cells [T + m, W) of row y + m.  So a row whose partner m rows back
    in the output order is encoded takes that stretch from a slice of the
    partner's encoding, and encodes only the cells outside it: the first
    T + m going up, the first T and the last m going down.  A slice
    offset is the summed widths of the partner's cell tokens before it,
    each with its separator.  Only the last m encodings are held, each
    with its row's first T + m and last m cells.

    Rows y >= T + 2m are not stored.  Their first T + m cells are column y
    of the certificate's rows by symmetry, read by period past the width.
    Their last m cells (x1, y), W - m <= x1 < W, are cells (x1 - k, y - k)
    for any multiple k of m that keeps both coordinates at least T.  Let
    k0 be the one that puts W - m - k0 in [T, T + m).  Below y = T + k0,
    the k that puts y - k in [T, T + m) makes them a slice of certificate
    row y - k, inside the width.  From there on, k0 puts x1 - k0 in the
    stored rows [T, T + 2m), and by symmetry they are column y - k0 of
    those rows, read by period past the width: the shift check holds
    each of these rows periodic from 2m before the width on.  The m rows
    that the descending pass writes first have no partner; each is its
    first T + m cells, then cells T .. T + m - 1 of the rows m, 2m, ...
    below it, down to a stored row, whose cells from T on end it.
    """
    def encode(cells):
        return sep.join(map(token.__getitem__, cells))

    rows, shift, w = grid.rows, grid.shift, grid.width
    order = range(grid.height - 1, -1, -1) if descending else range(grid.height)
    if shift is None:  # every row is stored and none is a shift
        yield from (encode(rows[y]) for y in order)
        return
    t, m, n, cert = shift.start, shift.m, len(rows), shift.rows

    # columns[j] is cells x1 < T + m of row j, by symmetry; only j < H is read.
    columns = list(zip(*(row[:grid.height] for row in cert)))

    def head(y):  # the first T + m cells of row y >= n
        return columns[y if y < w else _period_cell(y, w, 2 * m)]

    k0 = (w - m - t) // m * m
    ends = rows[w - m - k0:w - k0]  # rows W - m .. W - 1 shifted down by k0

    def tail(y):  # cells W - m .. W - 1 of row y >= n
        if y < t + k0:  # a slice of certificate row y - k
            k = (y - t) // m * m
            return cert[y - k][w - m - k:w - k]
        j = y - k0
        return tuple(map(itemgetter(j if j < w else _period_cell(j, w, 2 * m)), ends))

    size = {v: len(tok) + len(sep) for v, tok in token.items()}

    def span(cells):  # bytes or characters that cells take, each with its separator
        return sum(map(size.__getitem__, cells))

    back = deque(maxlen=m)  # back[0] is the row m back in the output order
    for y in order:
        if y < n:
            first, last = rows[y][:t + m], rows[y][w - m:]
        else:
            first, last = head(y), tail(y)
        if descending and y >= t and len(back) == m:  # partner y + m
            partner, partner_first, _ = back[0]
            line = sep.join((encode(first[:t]), partner[span(partner_first):], encode(last)))
        elif not descending and y >= t + m:  # partner y - m
            partner, partner_first, partner_last = back[0]
            end = len(partner) - span(partner_last)
            line = sep.join((encode(first), partner[span(partner_first[:t]):end]))
        elif y < n:
            line = encode(rows[y])
        else:  # the top m rows going down
            cells, z = list(first), y - m
            while z >= n and len(cells) < w:
                cells += head(z)[t:]
                z -= m
            if len(cells) < w:  # cell x1 of row y is cell x1 - (y - z) of row z
                cells += rows[z][t:w - y + z]
            line = encode(cells[:w])
        back.append((line, first, last))
        yield line


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
        fh.writelines(_encoded_rows(grid, pixel, b"", descending=True))


def export_grid(grid: GridOutcome, fmt: str, path: str) -> None:
    """Write the grid as csv (header-free rows), pgm (gray), or ppm (blue-red).

    Images scale o linearly onto 0..255 with max S at full intensity; the
    ppm colormap runs from pure blue at 0 to pure red at max S.
    """
    if fmt == "csv":
        text = {v: str(v) for v in grid.value_set}
        with open(path, "w", encoding=_CSV_ENCODING, newline="\n") as fh:
            for line in _encoded_rows(grid, text, ",", descending=False):
                fh.write(line)
                fh.write("\n")
    elif fmt == "pgm":
        _write_pnm(grid, path, color=False)
    elif fmt == "ppm":
        _write_pnm(grid, path, color=True)
    else:
        raise ValueError(f"unknown export format {fmt!r}; expected csv, pgm, or ppm")


def periodicity_reports(grid: GridOutcome, max_diag: int = 50) -> dict:
    """Row/column and diagonal period sweeps in the shared conjecture schema.

    The shift certificate proves that every row and column period divides
    2 max S and every diagonal period divides max S, so both verdicts hold
    with no line visited; with no certificate under the cap, ValueError.
    """
    if max_diag < 0:
        raise ValueError(f"max_diag must be nonnegative, got {max_diag}")
    m = grid.certificate.m
    # Only -(W-1) <= k <= H-1 names a diagonal of the grid.
    ks = range(max(-max_diag, 1 - grid.width), min(max_diag, grid.height - 1) + 1)
    shape = {"ruleset": list(grid.ruleset.actions), "width": grid.width, "height": grid.height}
    lines = conjecture_report(
        conjecture="two-pile-line-periodicity",
        parameters={**shape, "period_cap": 2 * m},
        swept_space={"rows": grid.height, "columns": grid.width},
        counterexamples=[],
    )
    diagonals = conjecture_report(
        conjecture="two-pile-diagonal-periodicity",
        parameters={**shape, "period_cap": m, "max_diag": max_diag},
        swept_space={"diagonals": len(ks)},
        counterexamples=[],
    )
    return {"lines": lines, "diagonals": diagonals}
