"""Convergence, periodicity, and regularity scanners for optimal play.

Every game with at least two actions eventually settles: from some heap
size onward the optimal action is constantly the largest action, and
that happens no later than 2*(max S)^2.  Past that point the outcome
sequence is periodic with period dividing 2*max S.  This module locates
the convergence point without a table: a pair by the two-action closed
form, any other set by one DP pass that keeps O(max S) heaps and stops
once its greedy_from lies 2*max S heaps below its top, which proves that
opt stays max S on every larger heap.  Every source, a caller's table
included, gives the 3*max S outcomes from xi - max S, and one check
certifies them and the eventual period from xi.  The module also
provides falsification sweeps for observed regularities of optimal play
(who sacrifices, who moves last, how large sacrifices are).  Those
sweeps stop their DP pass at the same 2*max S heaps.  Each start
heap past greedy_from + max S has the trace summaries of the one a
multiple of 2*max S below it, so no scan reads a heap past that cut; only
the sacrifice scan, which lists every hit, grows with the heaps past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, mul

from . import core
from .closed_form import _outcomes_from_xi, build_two_action
from .core import (
    OutcomeTable,
    PlayTrace,
    Report,
    Ruleset,
    TheoremViolationError,
    _solved_table,
    canonical_trace,
    rulesets_with_max_at_most,
)

# A convergence pass holds O(max S) heaps however many it solves, so its
# bound is one of time, not memory.  {1,3999,4000} solves 3.2*10^7 heaps
# in 11 s (0.35 us a heap, CPython 3.11 on a 2-vCPU VM), so this many
# take about 35 s.  A set with no certificate within them is refused.
CONVERGENCE_HEAP_LIMIT = 100_000_000

# The least number of heaps a convergence pass keeps, and solves between
# trims.  A trim costs O(keep), since the deque kernel rebases every kept
# g value: trims every 4*max S heaps made the kernels of trunc 2 60 about
# 15% slower.  With this floor no pass of trunc 2 60 trims at all, since
# the longest solves 3,602 heaps.  4096 heaps take well under 1 MiB.
CONVERGENCE_KEEP_MIN = 4096


def convergence_bound(ruleset: Ruleset) -> int:
    """Proven upper bound for the convergence point: 2*(max S)^2."""
    return 2 * ruleset.max_action ** 2


def default_x_max(ruleset: Ruleset) -> int:
    """Heap by which convergence_point must find its certificate: bound + 4*max S."""
    return convergence_bound(ruleset) + 4 * ruleset.max_action


@dataclass(frozen=True)
class PeriodReport(Report):
    period: int
    tail_start: int


@dataclass(frozen=True)
class ConvergenceReport(Report):
    ruleset: Ruleset
    xi: int
    converged_action: int
    bound_satisfied: bool
    period: PeriodReport


@dataclass(frozen=True)
class ObservationReport(Report):
    observation: str
    ruleset: Ruleset
    holds: bool
    counterexample_x: int | None = None
    witness: PlayTrace | None = None


@dataclass(frozen=True)
class SacrificeFinding(Report):
    """A start heap whose canonical trace contains sacrifices by both players.

    Sacrifice size is greedy-at-that-heap minus the action played; when a
    player sacrifices more than once, the largest size is recorded.
    `consistent` is the conjectured relation: Negative's sacrifice strictly
    smaller than Positive's.
    """

    ruleset: Ruleset
    x: int
    positive_sacrifice: int
    negative_sacrifice: int
    consistent: bool


def convergence_point(ruleset: Ruleset, table: OutcomeTable | None = None) -> ConvergenceReport:
    """Smallest heap from which the optimal action is constant onward.

    The constant action is always m = max S.  Every source gives xi and
    the window of 3m outcomes from xi - m, and one check certifies it.  A
    caller's table of this ruleset is read once it reaches greedy_from +
    2m - 1 or default_x_max (a table of another ruleset raises
    ValueError); from build_outcome_table, all of its window is solved
    heaps.  Otherwise no table is built.  A pair takes xi and the window
    from the two-action closed form (see closed_form).  Any other set runs
    one DP pass from heap 0 that keeps only its last max(3m,
    CONVERGENCE_KEEP_MIN) heaps, and stops once greedy_from lies 2m heaps
    below its top, or at default_x_max; its window is its last 3m heaps,
    which no trim drops.  That run certifies opt = m on every heap from
    xi = greedy_from on (see build_outcome_table), so the report is the
    same whatever table the caller passes.

    The check asks for o(x) + o(x - m) = m, which opt = m makes true, on
    each heap x = xi, ..., xi + 2m - 1, so a wrong outcome anywhere in the
    window is a theorem violation.  These 2m equations make [xi + m,
    xi + 2m) repeat [xi - m, xi): o(x) = m - o(x - m) = o(x - 2m) there.
    Each o(x) with x >= m depends only on the m values below it, so o has
    period 2m from xi - m on, and its least period from xi is that of the
    2m outcomes from xi repeated (see core._least_period).

    Both no-table paths hold O(max S) heaps, so a max S above
    TABLE_HEAP_LIMIT // 5 raises ValueError before anything is allocated;
    the window needs only 3*max S, but the cap stays, so no exit code
    changes.  A DP pass with no certificate within
    CONVERGENCE_HEAP_LIMIT solved heaps raises ValueError once it has
    solved them.  xi beyond the proven bound 2*(max S)^2, no certificate
    by default_x_max, or a window off the recurrence is a theorem
    violation.
    """
    m = ruleset.max_action
    bound = convergence_bound(ruleset)
    cap = default_x_max(ruleset)
    if table is not None and table.ruleset != ruleset:
        raise ValueError(f"supplied table is for {table.ruleset}, not {ruleset}")
    if table is not None and table.x_max >= min(table.greedy_from + 2 * m - 1, cap):
        xi, top = table.greedy_from, table.x_max
        window = table.outcomes[xi - m:xi + 2 * m]
    elif 5 * m > core.TABLE_HEAP_LIMIT:
        raise ValueError(f"max S = {m} lies above the supported {core.TABLE_HEAP_LIMIT // 5}")
    elif ruleset.is_two_action:
        sol = build_two_action(ruleset.min_action, m)
        xi, top = sol.xi, sol.xi + 2 * m - 1
        window = _outcomes_from_xi(sol)
    else:
        limit = min(cap, CONVERGENCE_HEAP_LIMIT - 1)
        o, _, last = core._solve(ruleset, limit, max(3 * m, CONVERGENCE_KEEP_MIN))
        xi, top = last + 1, min(last + 2 * m, limit)
        if top < min(last + 2 * m, cap):
            raise ValueError(
                f"the convergence certificate of {ruleset} lies above the supported {CONVERGENCE_HEAP_LIMIT} solved heaps"
            )
        window = o[-3 * m:]
    if xi > top + 1 - 2 * m:
        raise TheoremViolationError(f"no convergence certificate by heap {top} for {ruleset}")
    if xi > bound:
        raise TheoremViolationError(f"xi = {xi} lies beyond the convergence bound {bound} for {ruleset}")
    if set(map(add, window[m:], window[:2 * m])) != {m}:
        raise TheoremViolationError(f"o(x) + o(x - {m}) != {m} on a heap x from xi = {xi} to {xi + 2 * m - 1} for {ruleset}")
    return ConvergenceReport(
        ruleset=ruleset,
        xi=xi,
        converged_action=m,
        bound_satisfied=xi <= bound,
        period=PeriodReport(period=core._least_period(window[m:]), tail_start=xi),
    )


def eventual_period(table: OutcomeTable, tail_start: int) -> PeriodReport:
    """Least p with o(x) = o(x+p) on every heap x >= tail_start, certified.

    The table must hold the 4*max S heaps from tail_start, so its x_max
    must reach tail_start + 4*max S - 1.  Eventually o has period
    2*max S, so by the Fine-Wilf lemma (1965) its least period divides
    2*max S.  The 4*max S heaps from tail_start must repeat at lag
    2*max S.  Each o(x) with x >= max S depends only on the max S values
    below it, so 3*max S heaps repeating at that lag repeat those windows,
    and with them every later value: the period 2*max S holds on every
    heap from tail_start on, not just inside the window, and the least
    period is the least cyclic shift that leaves the first 2*max S
    unchanged (see core._least_period).  A tail not yet periodic raises
    ValueError; the tail from convergence_point's xi is always periodic.
    """
    m = table.ruleset.max_action
    if tail_start < 0 or tail_start > table.x_max:
        raise ValueError(f"tail_start {tail_start} outside table range 0..{table.x_max}")
    if tail_start + 4 * m - 1 > table.x_max:
        raise ValueError(
            f"window too small: need tail_start + {4 * m - 1} <= x_max, "
            f"got tail_start={tail_start}, x_max={table.x_max}"
        )
    tail = table.outcomes[tail_start:tail_start + 4 * m]
    if tail[2 * m:] != tail[:2 * m]:
        raise ValueError(
            f"no period dividing {2 * m} on tail [{tail_start}, {table.x_max}] for {table.ruleset}"
        )
    return PeriodReport(period=core._least_period(tail[:2 * m]), tail_start=tail_start)


def _trace_summaries(ruleset: Ruleset, x_cap: int) -> tuple[int, list[int], list[int], list[bool]]:
    """Summaries of the canonical trace from every start heap h <= x_cap.

    Returns stop and three lists of length stop.  mine[h] and theirs[h]
    are the largest sacrifices (greedy at that heap minus the action
    played, 0 for none) by the player to move at h and by the other
    player, and last[h] is whether the player to move at h moves last.
    Both follow one opt, so the trace from h is a move and then the trace
    from h - opt(h) with roles swapped: one linear pass fills all three.
    A heap x with stop <= x <= x_cap has the summaries of heap
    core._period_cell(x, stop, 2*max S), so the first heap <= x_cap whose
    summaries satisfy a predicate, if any, lies below stop.

    The DP pass stops once 2*max S heaps in a row have opt max S, or at
    min(x_cap, TABLE_HEAP_LIMIT - 1), and only its solved heaps are read,
    so an x_cap past the run costs nothing.  From greedy_from on,
    opt(h) = greedy(h) = m = max S up to x_cap (see build_outcome_table),
    so no sacrifice is made there and mine[h] = theirs[h-m], theirs[h] =
    mine[h-m] and last[h] = not last[h-m].  Applied twice, all three
    repeat with period 2m from greedy_from + m on, so the summary pass
    stops at stop = min(x_cap + 1, greedy_from + m), which the solved
    heaps reach, and the heaps past it repeat the block [stop - 2m, stop).
    Heaps below m cannot play m, so greedy_from >= m and the block never
    starts below heap 0.  A negative x_cap, or one past a pass that stops
    at the heap cap short of its run, raises ValueError.
    """
    if x_cap < 0:
        raise ValueError(f"x_cap must be nonnegative, got {x_cap}")
    m = ruleset.max_action
    table = _solved_table(ruleset, min(x_cap, core.TABLE_HEAP_LIMIT - 1), 0)
    if x_cap > table.x_max and table.greedy_from > table.x_max + 1 - 2 * m:
        raise ValueError(f"the trace certificate of {ruleset} lies above the supported {core.TABLE_HEAP_LIMIT} heaps")
    opts = table.opts
    stop = min(x_cap + 1, table.greedy_from + m)
    greedy = [0] * stop
    for a in ruleset.actions:  # each action is greedy from itself up to the next
        greedy[a:] = [a] * (stop - a)
    mine = [0] * stop
    theirs = [0] * stop
    last = [False] * stop
    for h in range(ruleset.min_action, stop):
        a = opts[h]
        c = h - a
        sac = greedy[h] - a
        mine[h] = sac if sac > theirs[c] else theirs[c]
        theirs[h] = mine[c]
        last[h] = not last[c]
    return stop, mine, theirs, last


# Observation name -> (sweep title, report label, predicate).  The
# predicate flags a violation from (Positive sacrifices, Negative
# sacrifices, Positive moves last) on one canonical trace.
_OBSERVATIONS = {
    # Whoever sacrifices plays the last move (vacuous without sacrifices).
    "last-move": (
        "two-action-sacrificer-plays-last", "sacrificer-plays-last",
        lambda pos, neg, pos_last: neg if pos_last else pos,
    ),
    # At least one player plays greedily throughout.
    "one-greedy": (
        "two-action-one-player-all-greedy", "one-player-all-greedy",
        lambda pos, neg, _: pos and neg,
    ),
}


def check_observation(name: str, ruleset: Ruleset, x_cap: int) -> ObservationReport:
    """First start heap x <= x_cap whose canonical trace violates observation `name`.

    Only the heaps below _trace_summaries' stop are read (see there), so
    any x_cap past that cut gives the same report at the same cost.  The
    observations are stated for two-action games; the failing trace is
    replayed only as the witness.
    """
    if name not in _OBSERVATIONS:
        raise ValueError(f"unknown observation {name!r}; expected one of {sorted(_OBSERVATIONS)}")
    _, label, violated = _OBSERVATIONS[name]
    if not ruleset.is_two_action:
        raise ValueError(f"observation is stated for two-action games, got {ruleset}")
    stop, mine, theirs, last = _trace_summaries(ruleset, x_cap)
    for x in range(stop):
        if violated(mine[x] > 0, theirs[x] > 0, last[x]):
            return ObservationReport(label, ruleset, False, x, canonical_trace(ruleset, x))
    return ObservationReport(label, ruleset, True)


def scan_sacrifice_conjecture(max_s: int, x_cap: int) -> list[SacrificeFinding]:
    """Sweep 4- and 5-action rulesets over {1..max_s} for double-sacrifice traces.

    Conjectured relation under test: when both players sacrifice in one
    optimal play, Negative's sacrifice is strictly smaller than Positive's.
    A hit h in _trace_summaries' block [stop - 2*max S, stop) recurs at
    h + 2*max S, h + 4*max S, ... up to x_cap, so only this scan's output
    grows with x_cap, and only it refuses x_cap >= TABLE_HEAP_LIMIT.
    """
    if max_s < 4:
        raise ValueError(f"need max_s >= 4 for multi-action sacrifice games, got {max_s}")
    if x_cap >= core.TABLE_HEAP_LIMIT:
        raise ValueError(f"x_cap {x_cap} lies above the supported {core.TABLE_HEAP_LIMIT - 1}")
    findings: list[SacrificeFinding] = []
    for ruleset in rulesets_with_max_at_most(max_s, (4, 5)):
        stop, mine, theirs, _ = _trace_summaries(ruleset, x_cap)
        lag = 2 * ruleset.max_action
        # Sacrifices are >= 0, so the product is positive just when both are.
        hits = list(compress(range(stop), map(mul, mine, theirs)))
        cells = sorted([(x, x) for x in hits] + [
            (x, h) for h in hits if h >= stop - lag for x in range(h + lag, x_cap + 1, lag)
        ])
        findings += [
            SacrificeFinding(ruleset, x, mine[h], theirs[h], consistent=theirs[h] < mine[h])
            for x, h in cells
        ]
    return findings


def conjecture_report(
    conjecture: str,
    parameters: dict,
    swept_space: dict,
    counterexamples: list[dict],
) -> dict:
    """Uniform JSON shape for every conjecture/observation sweep."""
    return {
        "conjecture": conjecture,
        "parameters": parameters,
        "swept_space": swept_space,
        "counterexamples": counterexamples,
        "verdict": "falsified" if counterexamples else "holds",
    }


def sacrifice_conjecture_report(max_s: int, x_cap: int) -> dict:
    findings = scan_sacrifice_conjecture(max_s, x_cap)
    return conjecture_report(
        conjecture="negative-sacrifice-smaller",
        parameters={"max_s": max_s, "x_cap": x_cap},
        swept_space={
            "ruleset_sizes": [4, 5],
            "positions_with_both_sacrificing": len(findings),
        },
        counterexamples=[f.as_dict() for f in findings if not f.consistent],
    )


def observation_sweep_report(name: str, max_s: int, x_cap: int) -> dict:
    """Check one of the two-action observations on every pair with max <= max_s."""
    if max_s < 2:
        raise ValueError(f"need max_s >= 2, got {max_s}")
    pairs = rulesets_with_max_at_most(max_s, (2,))
    reports = [check_observation(name, ruleset, x_cap) for ruleset in pairs]
    return conjecture_report(
        conjecture=_OBSERVATIONS[name][0],
        parameters={"max_s": max_s, "x_cap": x_cap},
        swept_space={"rulesets": len(pairs)},
        counterexamples=[r.as_dict() for r in reports if not r.holds],
    )
