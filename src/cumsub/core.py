"""Exact solving of cumulative subtraction games.

Two players, Positive and Negative, alternately remove pebbles from a
shared heap; every move removes s pebbles for some s in a fixed action
set S.  Pebbles taken by Positive add to a running score, pebbles taken
by Negative subtract from it, and the game ends once the heap is smaller
than the least action.  Positive moves first and maximizes the final
score, Negative minimizes it.

This module holds the ground truth for everything else in the package:
the outcome/optimal-action table computed by dynamic programming, an
independently implemented minimax oracle used to cross-check that table,
and canonical optimal-play traces.
"""

from __future__ import annotations

import bisect
import operator
from collections import deque
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Iterable, NamedTuple

# A table holds each heap in several lists and tuples, some tens of
# bytes a heap in all, so this many heaps is on the order of 1 GB.  A
# larger table is refused before anything is allocated.
TABLE_HEAP_LIMIT = 20_000_000


class Mover(Enum):
    """The player about to move.  Positive maximizes, Negative minimizes."""

    POSITIVE = "positive"
    NEGATIVE = "negative"

    @property
    def sign(self) -> int:
        return 1 if self is Mover.POSITIVE else -1

    @property
    def opponent(self) -> "Mover":
        return Mover.NEGATIVE if self is Mover.POSITIVE else Mover.POSITIVE


@dataclass(frozen=True)
class Ruleset:
    """A finite action set: at least two strictly increasing positive moves."""

    actions: tuple[int, ...]

    def __post_init__(self) -> None:
        # Built from a list, not a generator: a generator-built tuple is
        # resized from a spare slot, and every freed one refills CPython's
        # small-tuple free lists, so a long sweep keeps growing its heap.
        # operator.index refuses 5.9 and "5" instead of coercing them.
        acts = tuple([operator.index(a) for a in self.actions])
        object.__setattr__(self, "actions", acts)
        if len(acts) < 2:
            raise ValueError(f"need at least two actions, got {acts!r}")
        if acts[0] < 1:
            raise ValueError(f"actions must be positive, got {acts!r}")
        if any(b <= a for a, b in zip(acts, acts[1:])):
            raise ValueError(f"actions must be strictly increasing, got {acts!r}")

    @property
    def min_action(self) -> int:
        return self.actions[0]

    @property
    def max_action(self) -> int:
        return self.actions[-1]

    @property
    def is_two_action(self) -> bool:
        return len(self.actions) == 2

    @property
    def is_contiguous(self) -> bool:
        return self.max_action - self.min_action == len(self.actions) - 1

    @property
    def is_full_support(self) -> bool:
        """True for S = {1, 2, ..., max}."""
        return self.min_action == 1 and self.is_contiguous

    def is_terminal(self, heap: int) -> bool:
        return heap < self.min_action

    def playable(self, heap: int) -> tuple[int, ...]:
        return tuple(s for s in self.actions if s <= heap)

    def greedy_action(self, heap: int) -> int:
        """Largest playable action; playing anything smaller is a sacrifice."""
        i = bisect.bisect_right(self.actions, heap)
        if i == 0:
            raise ValueError(f"no playable action from heap {heap} in {self}")
        return self.actions[i - 1]

    def __str__(self) -> str:
        return "{" + ",".join(str(a) for a in self.actions) + "}"


@dataclass(frozen=True)
class OutcomeTable:
    """Outcomes o(x) and optimal actions opt(x) for all heaps 0..x_max.

    o(x) is the final score under optimal play from heap x with Positive
    to move; opt(x) is the largest action attaining it (None at terminal
    heaps).  Because the game is symmetric up to sign, the same table
    prescribes optimal play for Negative as well.  greedy_from is the
    least heap from which opt = max S on every heap up to x_max, and
    x_max + 1 when opt(x_max) is not max S; terminal heaps count as not
    max S.  Once that run spans 2*max S heaps, opt = max S on every larger
    heap too (see build_outcome_table).
    """

    ruleset: Ruleset
    x_max: int
    outcomes: tuple[int, ...]
    opts: tuple[int | None, ...]
    greedy_from: int

    def outcome(self, x: int) -> int:
        if not 0 <= x <= self.x_max:
            raise ValueError(f"heap {x} outside table range 0..{self.x_max}")
        return self.outcomes[x]


class Move(NamedTuple):
    mover: Mover
    action: int
    score_after: int


def to_json(obj):
    """JSON-ready form of a report value: dataclasses become dicts of their
    fields in declaration order, a Ruleset its action list, a Mover its
    value, a Move a dict, and tuples lists."""
    if isinstance(obj, Ruleset):
        return list(obj.actions)
    if isinstance(obj, Mover):
        return obj.value
    if isinstance(obj, Move):
        return {k: to_json(v) for k, v in obj._asdict().items()}
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [to_json(v) for v in obj]
    return obj


class Report:
    """Base of the frozen report dataclasses: one JSON shape for all of them."""

    def as_dict(self) -> dict:
        return to_json(self)


@dataclass(frozen=True)
class PlayTrace(Report):
    """A completed play, recorded move by move."""

    start_heap: int
    start_score: int
    moves: tuple[Move, ...]
    final_score: int

    @property
    def actions(self) -> tuple[int, ...]:
        return tuple(m.action for m in self.moves)


def _check_x_max(x_max: int) -> None:
    if x_max < 0:
        raise ValueError(f"x_max must be nonnegative, got {x_max}")
    if x_max >= TABLE_HEAP_LIMIT:
        raise ValueError(
            f"x_max {x_max} needs a table of {x_max + 1} heaps, "
            f"above the supported {TABLE_HEAP_LIMIT}"
        )


def _table_generic(ruleset: Ruleset, o: list[int], opts: list[int | None], start: int, last: int) -> int:
    """Solve heaps from start on; stop once 4*max S heaps in a row have opt max S.

    last is the last heap below the first solved one whose opt is not
    max S, terminal heaps included, and the last such heap up to the stop
    is returned.  Solving stops at heap last + 4*max S, or at the top heap
    if no such run occurs.  The run is 4*max S rather than the 2*max S
    that certifies the tail, so that the 4*max S heaps from xi that
    eventual_period reads in convergence_point's self-check are all
    solved here, never filled.
    """
    acts = ruleset.actions
    m = ruleset.max_action
    for x in range(max(ruleset.min_action, start), len(o)):
        best = None
        best_s = None
        for s in acts:
            if s > x:
                break
            v = s - o[x - s]
            # >= so that the largest action wins ties.
            if best is None or v >= best:
                best, best_s = v, s
        o[x] = best
        opts[x] = best_s
        if best_s != m:
            last = x
        elif x - last >= 4 * m:
            break
    return last


def _table_contiguous(ruleset: Ruleset, o: list[int], opts: list[int | None], start: int, last: int) -> int:
    """Sliding-window variant for contiguous action sets {lo, ..., hi}.

    With g(y) = y + o(y), the recursion becomes o(x) = x - min g(y) over
    the window x-hi <= y <= x-lo, so a monotone deque gives each entry in
    amortized O(1).  The deque keeps the smallest y among equal g values
    in front, which reproduces the largest-action tie-break exactly.  From
    a resumed start, the deque is refilled from the solved heaps in
    [start-hi, start-lo); g(y) = y on terminal heaps, where o = 0.  Stops
    and returns as _table_generic does.
    """
    lo, hi = ruleset.min_action, ruleset.max_action
    first = max(lo, start)
    g: list[int] = [0] * len(o)
    window: deque[int] = deque()
    for y in range(max(0, start - hi), min(first, len(o))):
        g[y] = y + o[y]
        if y < start - lo:
            while window and g[window[-1]] > g[y]:
                window.pop()
            window.append(y)
    for x in range(first, len(o)):
        y_new = x - lo
        while window and g[window[-1]] > g[y_new]:
            window.pop()
        window.append(y_new)
        cut = x - hi
        while window[0] < cut:
            window.popleft()
        y = window[0]
        o[x] = x - g[y]
        opts[x] = x - y
        g[x] = x + o[x]
        if y != cut:
            last = x
        elif x - last >= 4 * hi:
            break
    return last


def build_outcome_table(ruleset: Ruleset, x_max: int, table: OutcomeTable | None = None) -> OutcomeTable:
    """Solve the game exactly for every heap 0..x_max.

    Terminal heaps get outcome 0 and no action.  Elsewhere
    o(x) = max(s - o(x-s)) over playable s, and opt(x) is the largest
    maximizing action, so traces driven by opt are deterministic.  Given
    a smaller table of the same ruleset, only the heaps above its x_max
    are computed, resuming from its greedy_from; the result is the table
    a fresh call would build.

    The DP stops at the first heap n that ends a run of 4*max S heaps
    with opt = m = max S (or at x_max), and heaps above n are filled by
    period 2m: o(x) = o(x-2m) and opt(x) = m.  That is exact.  opt = m
    on 2m consecutive heaps, all at or above m since m is not playable
    below it, gives o(x) = m - o(x-m) = o(x-2m) on the top m of them.
    For x >= m, o(x) and opt(x) depend only on the window o[x-m .. x-1],
    so the window above n repeats the one 2m heaps lower, and with it
    every later value.  A smaller table that already ends in such a run
    is only filled.
    """
    _check_x_max(x_max)
    done = table or OutcomeTable(ruleset, -1, (), (), 0)
    if done.ruleset != ruleset or done.x_max > x_max:
        raise ValueError("supplied table is not a prefix of this one")
    m = ruleset.max_action
    n = done.x_max
    # The last heap whose opt is not m; the terminal heaps count.
    last = max(done.greedy_from, min(ruleset.min_action, x_max + 1)) - 1
    o: list[int] = [*done.outcomes, *[0] * (x_max - n)]
    opts: list[int | None] = [*done.opts, *[None] * (x_max - n)]
    if n - last < 4 * m:
        kernel = _table_contiguous if ruleset.is_contiguous else _table_generic
        last = kernel(ruleset, o, opts, n + 1, last)
        n = min(last + 4 * m, x_max)
    if n < x_max:
        block = o[n + 1 - 2 * m:n + 1]
        o[n + 1:] = (block * ((x_max - n) // (2 * m) + 1))[:x_max - n]
        opts[n + 1:] = [m] * (x_max - n)
    return OutcomeTable(
        ruleset=ruleset, x_max=x_max, outcomes=tuple(o), opts=tuple(opts), greedy_from=last + 1
    )


def minimax_values(ruleset: Ruleset, x_max: int) -> tuple[int, ...]:
    """Game values for heaps 0..x_max from an explicit two-player search.

    Deliberately not the single-table recursion: the minimizing player is
    carried explicitly, with one value table per player to move, so this
    serves as an independent oracle for build_outcome_table.
    """
    _check_x_max(x_max)
    vp: list[int] = [0] * (x_max + 1)  # Positive to move
    vn: list[int] = [0] * (x_max + 1)  # Negative to move
    for h in range(ruleset.min_action, x_max + 1):
        best = None
        worst = None
        for s in ruleset.actions:
            if s > h:
                break
            up = s + vn[h - s]
            down = -s + vp[h - s]
            if best is None or up > best:
                best = up
            if worst is None or down < worst:
                worst = down
        vp[h] = best
        vn[h] = worst
    return tuple(vp)


def canonical_trace(
    ruleset: Ruleset,
    x: int,
    start_score: int = 0,
    table: OutcomeTable | None = None,
) -> PlayTrace:
    """Play both sides with opt() from heap x and record every move.

    The starting score only shifts the recorded scores; it never changes
    which actions are played.
    """
    if x < 0:
        raise ValueError(f"start heap must be nonnegative, got {x}")
    if table is None:
        table = build_outcome_table(ruleset, x)
    elif table.ruleset != ruleset or table.x_max < x:
        raise ValueError("supplied table does not cover this game")
    heap = x
    score = start_score
    mover = Mover.POSITIVE
    moves: list[Move] = []
    while not ruleset.is_terminal(heap):
        action = table.opts[heap]
        score += mover.sign * action
        moves.append(Move(mover, action, score))
        heap -= action
        mover = mover.opponent
    return PlayTrace(start_heap=x, start_score=start_score, moves=tuple(moves), final_score=score)


def rulesets_with_max_at_most(max_s: int, sizes: Iterable[int]) -> list[Ruleset]:
    """All rulesets over {1..max_s} of the given sizes, in lexicographic order."""
    from itertools import combinations

    out: list[Ruleset] = []
    for size in sizes:
        if size < 2 or size > max_s:
            continue
        for combo in combinations(range(1, max_s + 1), size):
            out.append(Ruleset(combo))
    return out
