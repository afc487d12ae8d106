"""Convergence, periodicity, and regularity scanners for optimal play.

Every game with at least two actions eventually settles: from some heap
size onward the optimal action is constantly the largest action, and
that happens no later than 2*(max S)^2.  Past that point the outcome
sequence is periodic with period dividing 2*max S.  This module locates
the convergence point, stopping the table as soon as its greedy_from
lies 2*max S heaps below its top, which proves that opt stays max S on
every larger heap; it also certifies the eventual period and provides
falsification sweeps for observed regularities of optimal play (who
sacrifices, who moves last, how large sacrifices are).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    OutcomeTable,
    PlayTrace,
    Report,
    Ruleset,
    build_outcome_table,
    canonical_trace,
    rulesets_with_max_at_most,
)


class TheoremViolationError(RuntimeError):
    """A computation contradicted a proven statement; the solver is buggy."""


def convergence_bound(ruleset: Ruleset) -> int:
    """Proven upper bound for the convergence point: 2*(max S)^2."""
    return 2 * ruleset.max_action ** 2


def default_x_max(ruleset: Ruleset) -> int:
    """Table size used by the analysis entry points: bound plus a guard window."""
    return convergence_bound(ruleset) + 4 * ruleset.max_action


@dataclass(frozen=True)
class PeriodReport(Report):
    period: int
    tail_start: int
    verified_up_to: int


@dataclass(frozen=True)
class ConvergenceReport(Report):
    ruleset: Ruleset
    xi: int
    converged_action: int
    verified_up_to: int
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

    The constant action is always max S.  The search starts from the
    caller's table of this ruleset, extended to 8*max S heaps if shorter
    (a table of another ruleset raises ValueError), or from a fresh one of
    8*max S heaps, and grows it in place, doubling up to default_x_max,
    until its greedy_from lies at least 2*max S heaps below its top.  That
    run certifies opt = max S on every heap from xi = greedy_from on, not
    just inside the table (see build_outcome_table).  A non-greedy opt
    beyond the proven bound 2*(max S)^2, or no certificate by
    default_x_max, is reported as a theorem violation.  The table builder
    solves the 4*max S heaps from xi by DP and fills only above them, so
    the period check reads no filled heap.  Since the certificate covers
    every heap, verified_up_to is only a floor: max(final table x_max,
    default_x_max).  The same table, grown to xi + 4*max S heaps if
    shorter, then certifies the period from xi (see eventual_period);
    failing there is a theorem violation too.
    """
    m = ruleset.max_action
    bound = convergence_bound(ruleset)
    cap = default_x_max(ruleset)
    if table is None or table.x_max < 8 * m:
        table = build_outcome_table(ruleset, 8 * m, table)
    elif table.ruleset != ruleset:
        raise ValueError("supplied table is not a prefix of this one")
    while table.greedy_from > table.x_max + 1 - 2 * m:
        if table.x_max >= cap:
            raise TheoremViolationError(
                f"no convergence certificate by heap {table.x_max} for {ruleset}"
            )
        table = build_outcome_table(ruleset, min(2 * table.x_max, cap), table)
    xi = table.greedy_from
    if xi > bound + 1:
        raise TheoremViolationError(
            f"opt({xi - 1}) = {table.opts[xi - 1]} != {m} beyond the convergence bound {bound} for {ruleset}"
        )
    if table.x_max < xi + 4 * m:
        table = build_outcome_table(ruleset, xi + 4 * m, table)
    try:
        period = eventual_period(table, xi)
    except ValueError as exc:
        raise TheoremViolationError(f"{exc} past the certified xi") from exc
    return ConvergenceReport(
        ruleset=ruleset,
        xi=xi,
        converged_action=m,
        verified_up_to=max(table.x_max, cap),
        bound_satisfied=xi <= bound,
        period=period,
    )


def eventual_period(table: OutcomeTable, tail_start: int) -> PeriodReport:
    """Least p with o(x) = o(x+p) on every heap x >= tail_start, certified.

    The table must reach tail_start + 4*max S.  Eventually o has period
    2*max S, so by the Fine-Wilf lemma (1965) its least period divides
    2*max S, and only those divisors are tried, on the 4*max S heaps from
    tail_start.  Each o(x) with x >= max S depends only on the max S values
    below it, so 3*max S heaps repeating at lag p repeat those windows, and
    with them every later value: the period holds on every heap from
    tail_start on, not just inside the window.  verified_up_to is
    therefore only a floor, max(table x_max, default_x_max), as in
    ConvergenceReport.  A tail not yet periodic raises ValueError; the
    tail from convergence_point's xi is always periodic.
    """
    m = table.ruleset.max_action
    if tail_start < 0 or tail_start > table.x_max:
        raise ValueError(f"tail_start {tail_start} outside table range 0..{table.x_max}")
    if tail_start + 4 * m > table.x_max:
        raise ValueError(
            f"window too small: need tail_start + {4 * m} <= x_max, "
            f"got tail_start={tail_start}, x_max={table.x_max}"
        )
    tail = table.outcomes[tail_start:tail_start + 4 * m]
    for p in range(1, 2 * m + 1):
        if (2 * m) % p == 0 and tail[p:] == tail[:-p]:
            top = max(table.x_max, default_x_max(table.ruleset))
            return PeriodReport(period=p, tail_start=tail_start, verified_up_to=top)
    raise ValueError(
        f"no period dividing {2 * m} on tail [{tail_start}, {table.x_max}] for {table.ruleset}"
    )


def _trace_summaries(ruleset: Ruleset, x_cap: int) -> tuple[list[int], list[int], list[int]]:
    """Summaries of the canonical trace from every start heap h <= x_cap.

    mine[h] and theirs[h] are the largest sacrifices (greedy at that heap
    minus the action played, 0 for none) by the player to move at h and by
    the other player; plies[h] is the number of moves.  Both players follow
    the same opt, so the trace from h is one move followed by the trace from
    h - opt(h) with the roles swapped, and one linear pass fills all three.
    """
    opts = build_outcome_table(ruleset, x_cap).opts
    greedy = [0] * (x_cap + 1)
    for a in ruleset.actions:  # each action is greedy from itself up to the next
        greedy[a:] = [a] * (x_cap + 1 - a)
    mine = [0] * (x_cap + 1)
    theirs = [0] * (x_cap + 1)
    plies = [0] * (x_cap + 1)
    for h in range(ruleset.min_action, x_cap + 1):
        a = opts[h]
        c = h - a
        sac = greedy[h] - a
        mine[h] = sac if sac > theirs[c] else theirs[c]
        theirs[h] = mine[c]
        plies[h] = plies[c] + 1
    return mine, theirs, plies


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


def check_observation(name: str, ruleset: Ruleset, xs: Iterable[int]) -> ObservationReport:
    """First start heap in xs whose canonical trace violates observation `name`.

    The observations are stated for two-action games; the failing trace is
    replayed only as the witness.
    """
    if name not in _OBSERVATIONS:
        raise ValueError(f"unknown observation {name!r}; expected one of {sorted(_OBSERVATIONS)}")
    _, label, violated = _OBSERVATIONS[name]
    if not ruleset.is_two_action:
        raise ValueError(f"observation is stated for two-action games, got {ruleset}")
    xs = list(xs)
    if min(xs, default=0) < 0:
        raise ValueError(f"start heaps must be nonnegative, got {min(xs)}")
    mine, theirs, plies = _trace_summaries(ruleset, max(xs, default=0))
    for x in xs:
        if violated(mine[x] > 0, theirs[x] > 0, plies[x] % 2 == 1):
            return ObservationReport(label, ruleset, False, x, canonical_trace(ruleset, x))
    return ObservationReport(label, ruleset, True)


def scan_sacrifice_conjecture(max_s: int, x_cap: int) -> list[SacrificeFinding]:
    """Sweep 4- and 5-action rulesets over {1..max_s} for double-sacrifice traces.

    Conjectured relation under test: when both players sacrifice in one
    optimal play, Negative's sacrifice is strictly smaller than Positive's.
    """
    if max_s < 4:
        raise ValueError(f"need max_s >= 4 for multi-action sacrifice games, got {max_s}")
    if x_cap < 0:
        raise ValueError(f"x_cap must be nonnegative, got {x_cap}")
    findings: list[SacrificeFinding] = []
    for ruleset in rulesets_with_max_at_most(max_s, (4, 5)):
        mine, theirs, _ = _trace_summaries(ruleset, x_cap)
        findings += [
            SacrificeFinding(ruleset, x, p, n, consistent=n < p)
            for x, (p, n) in enumerate(zip(mine, theirs))
            if p > 0 and n > 0
        ]
    return findings


def conjecture_report(
    conjecture: str,
    parameters: dict,
    swept_space: dict,
    counterexamples: list[dict],
    decisive: bool = True,
) -> dict:
    """Uniform JSON shape for every conjecture/observation sweep.

    decisive=False marks sweeps whose failures are window-limited
    observations (e.g. a period not yet visible on a finite grid line)
    rather than outright refutations.
    """
    if not counterexamples:
        verdict = "holds"
    else:
        verdict = "falsified" if decisive else "candidate-counterexamples"
    return {
        "conjecture": conjecture,
        "parameters": parameters,
        "swept_space": swept_space,
        "counterexamples": counterexamples,
        "verdict": verdict,
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
    if x_cap < 0:
        raise ValueError(f"x_cap must be nonnegative, got {x_cap}")
    pairs = rulesets_with_max_at_most(max_s, (2,))
    reports = [check_observation(name, ruleset, range(x_cap + 1)) for ruleset in pairs]
    return conjecture_report(
        conjecture=_OBSERVATIONS[name][0],
        parameters={"max_s": max_s, "x_cap": x_cap},
        swept_space={"rulesets": len(pairs)},
        counterexamples=[r.as_dict() for r in reports if not r.holds],
    )
