"""Exact solving of cumulative subtraction games.

Two players, Positive and Negative, alternately remove pebbles from a
shared heap; every move removes s pebbles for some s in a fixed action
set S.  Pebbles taken by Positive add to a running score, pebbles taken
by Negative subtract from it, and the game ends once the heap is smaller
than the least action.  Positive moves first and maximizes the final
score, Negative minimizes it.

This module holds the ground truth for everything else in the package:
the outcome/optimal-action table, solved in one pass up to a certificate
and filled by period past it, an independently implemented minimax
oracle used to cross-check that table, and canonical optimal-play traces.
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

# The least |S| at which a contiguous set solves faster on the deque
# kernel than on the generic one.  The generic kernel's cost per heap
# grows with |S| and the deque kernel's does not: timed per heap on
# {m-|S|+1, ..., m} up to default_x_max for 4 <= m <= 100, they cross
# between |S| = 4 and 5 at every m, and pairs up to {1999,2000} stay on
# the generic side.
DEQUE_MIN_ACTIONS = 5


class TheoremViolationError(RuntimeError):
    """A computation contradicted a proven statement; the solver is buggy."""


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


def _table_generic(ruleset: Ruleset, limit: int, keep: int | None = None) -> tuple[list[int], list[tuple[int, int]], int]:
    """Solve heaps 0..limit in order; stop once 2*max S heaps in a row have opt max S.

    Returns o, the sparse opts and last.  o holds the outcomes up to that
    stop or to limit, the top heap solved, which is min(last + 2*max S,
    limit).  last is the last heap whose opt is not max S, terminal heaps
    included, so the stop is last + 2*max S, the run that certifies the
    tail (see build_outcome_table).  Every other solved heap has opt
    max S, so the sparse opts record only the non-greedy heaps that are
    not terminal, as (index in o, opt) pairs in heap order.

    With keep = None, o starts at heap 0, so an index in o is its heap.
    With keep set, at least max S, the kernel solves chunks of keep
    heaps and between them trims o to its last keep heaps and drops the
    pairs recorded so far, so it holds O(keep) heaps whatever the stop.
    o then still ends at the top heap and holds at least its last keep
    heaps, which is all that convergence_point reads besides last.

    The largest playable action seeds best: max S from heap max S on,
    and below it the largest action bisect finds playable.  The other
    playable actions follow in descending order and replace best only
    when strictly better, so the largest maximizer wins every tie.
    """
    acts = ruleset.actions
    m = ruleset.max_action
    run = 2 * m
    desc = acts[-2::-1]  # the actions below max S, largest first
    first = min(ruleset.min_action, limit + 1)
    o: list[int] = [0] * first
    sparse: list[tuple[int, int]] = []
    last = first - 1
    base = 0  # heaps trimmed off the front: o[i] is heap base + i
    start, step = first, limit + 1 if keep is None else keep
    while True:
        # Indices, not heaps: both count from base.  An index below max S
        # is its heap, since the first trim leaves keep >= max S of them.
        end = min(limit + 1 - base, start + step)
        for x in range(start, end):
            if x >= m:
                best_s, rest = m, desc
            else:
                i = bisect.bisect_right(acts, x)
                best_s, rest = acts[i - 1], desc[len(acts) - i:]
            best = best_s - o[x - best_s]
            for s in rest:
                v = s - o[x - s]
                if v > best:
                    best, best_s = v, s
            o.append(best)
            if best_s != m:
                last = x
                sparse.append((x, best_s))
            elif x - last >= run:
                return o, sparse, base + last
        if end == limit + 1 - base:
            return o, sparse, base + last
        drop = len(o) - keep
        del o[:drop]
        sparse.clear()
        base += drop
        last -= drop
        start = end - drop


def _table_contiguous(ruleset: Ruleset, limit: int, keep: int | None = None) -> tuple[list[int], list[tuple[int, int]], int]:
    """Sliding-window variant for contiguous action sets {lo, ..., hi}.

    _solved_table sends it the contiguous sets of at least
    DEQUE_MIN_ACTIONS actions.  On fewer the generic kernel is faster per
    heap, and it keeps no list g, so a pair such as {1999,2000} peaks at
    about half the memory there.

    With g(y) = y + o(y), the recursion becomes o(x) = x - min g(y) over
    the window x-hi <= y <= x-lo, so a monotone deque gives each entry in
    amortized O(1).  The deque keeps the smallest y among equal g values
    in front, which reproduces the largest-action tie-break exactly.
    g(y) = y on terminal heaps, where o = 0.  Stops after 2*max S greedy
    heaps, and takes keep and returns as _table_generic does.  g and the
    deque hold indices counted from the trimmed base, so a trim of d heaps
    lowers every g value and every deque entry by d: o(x) = x - g(y) is
    unchanged, and so is the order of g in the deque.
    """
    lo, hi = ruleset.min_action, ruleset.max_action
    run = 2 * hi
    first = min(lo, limit + 1)
    o: list[int] = [0] * first
    sparse: list[tuple[int, int]] = []
    g: list[int] = list(range(first))
    last = first - 1
    window: deque[int] = deque()
    base = 0
    start, step = first, limit + 1 if keep is None else keep
    while True:
        end = min(limit + 1 - base, start + step)
        for x in range(start, end):
            y_new = x - lo
            while window and g[window[-1]] > g[y_new]:
                window.pop()
            window.append(y_new)
            cut = x - hi
            if window[0] < cut:  # cut rises by one a heap, so only the front falls out
                window.popleft()
            y = window[0]
            v = x - g[y]
            o.append(v)
            g.append(x + v)
            if y != cut:
                last = x
                sparse.append((x, x - y))
            elif x - last >= run:
                return o, sparse, base + last
        if end == limit + 1 - base:
            return o, sparse, base + last
        drop = len(o) - keep
        del o[:drop]
        g = [v - drop for v in g[drop:]]
        window = deque([y - drop for y in window])
        sparse.clear()
        base += drop
        last -= drop
        start = end - drop


def _solve(ruleset: Ruleset, limit: int, keep: int | None = None) -> tuple[list[int], list[tuple[int, int]], int]:
    """One DP pass by the kernel this ruleset is fastest on; both return the same.

    A contiguous set of at least DEQUE_MIN_ACTIONS actions goes to the
    deque kernel, every other set to the generic one.
    """
    deque_kernel = ruleset.is_contiguous and len(ruleset.actions) >= DEQUE_MIN_ACTIONS
    kernel = _table_contiguous if deque_kernel else _table_generic
    return kernel(ruleset, limit, keep)


def _fill_period(seq: list, start: int, lag: int) -> None:
    """Repeat seq[start - lag:start] over seq[start:], which is empty when start >= len(seq)."""
    n = len(seq) - start
    if n > 0:
        seq[start:] = (seq[start - lag:start] * (n // lag + 1))[:n]


def _least_period(block) -> int:
    """Least p dividing len(block) with block[p:] == block[:-p]: the least
    period of block repeated forever, since p then splits it into equal parts."""
    n = len(block)
    # block[p % n] == block[0] rejects most divisors before any slice is built.
    return next(
        p for p in range(1, n + 1) if n % p == 0 and block[p % n] == block[0] and block[p:] == block[:n - p]
    )


def _period_cell(x: int, start: int, lag: int) -> int:
    """The index in the block [start - lag, start) that x >= start repeats by period lag."""
    return start - lag + (x - start) % lag


def build_outcome_table(ruleset: Ruleset, x_max: int) -> OutcomeTable:
    """Solve the game exactly for every heap 0..x_max.

    Terminal heaps get outcome 0 and no action.  Elsewhere
    o(x) = max(s - o(x-s)) over playable s, and opt(x) is the largest
    maximizing action, so traces driven by opt are deterministic.

    The DP solves heaps from 0 in one pass and stops at the first heap n
    that ends a run of 2*max S heaps with opt = m = max S (or at x_max),
    and heaps above n are filled by period 2m: o(x) = o(x-2m) and
    opt(x) = m.  That is exact.  opt = m on 2m consecutive heaps, all at
    or above m since m is not playable below it, gives
    o(x) = m - o(x-m) = o(x-2m) on the top m of them.  For x >= m, o(x)
    and opt(x) depend only on the window o[x-m .. x-1], so the window
    above n repeats the one 2m heaps lower, and with it every later value.
    """
    _check_x_max(x_max)
    return _solved_table(ruleset, x_max, x_max)


def _solved_table(ruleset: Ruleset, limit: int, x_max: int) -> OutcomeTable:
    """One kernel pass over heaps 0..limit, stopped by a greedy run of
    2*max S heaps, then a fill by period up to x_max.

    The table ends at x_max or at the kernel's stop, whichever is larger,
    so x_max = 0 gives the solved heaps alone.  The run keeps the fill
    exact (see build_outcome_table).  The kernel's sparse opts expand into
    the table's: None below min S, max S elsewhere, and each recorded pair
    patched in.
    """
    o, sparse, last = _solve(ruleset, limit)
    n, m = len(o), ruleset.max_action
    o += [0] * (x_max + 1 - n)
    _fill_period(o, n, 2 * m)
    outcomes = tuple(o)
    del o  # one list at a time: never both lists and both tuples at once
    size, lo = len(outcomes), ruleset.min_action
    opts: list[int | None] = [None] * min(lo, size) + [m] * (size - lo)
    for x, s in sparse:
        opts[x] = s
    return OutcomeTable(ruleset, size - 1, outcomes, tuple(opts), greedy_from=last + 1)


def minimax_values(ruleset: Ruleset, x_max: int) -> tuple[int, ...]:
    """Game values for heaps 0..x_max from an explicit two-player search.

    Deliberately not the single-table recursion: the minimizing player is
    carried explicitly, with one value table per player to move, so this
    serves as an independent oracle for build_outcome_table.  It keeps
    values only, with no tie-break, and solves every heap up to x_max
    with none of the DP's shortcuts (no deque, no stop at a certificate,
    no tail filled by period), and it shares no code with the kernels.

    Only the loop is tuned: on a nonterminal heap the least action is
    always playable, so it seeds both best and worst, and the other
    actions update them with plain comparisons.  Below max S the actions
    after the least are cut to the playable ones by bisect.
    """
    _check_x_max(x_max)
    acts = ruleset.actions
    lo, rest, m = acts[0], acts[1:], acts[-1]
    vp: list[int] = [0] * (x_max + 1)  # Positive to move
    vn: list[int] = [0] * (x_max + 1)  # Negative to move
    for h in range(lo, x_max + 1):
        best = lo + vn[h - lo]
        worst = vp[h - lo] - lo
        for s in rest if h >= m else rest[:bisect.bisect_right(rest, h)]:
            up = s + vn[h - s]
            if up > best:
                best = up
            down = vp[h - s] - s
            if down < worst:
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
    opts, lo = table.opts, ruleset.min_action
    mover, waiting, sign = Mover.POSITIVE, Mover.NEGATIVE, 1
    moves: list[Move] = []
    while heap >= lo:
        action = opts[heap]
        score += sign * action
        moves.append(Move(mover, action, score))
        heap -= action
        mover, waiting, sign = waiting, mover, -sign
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
