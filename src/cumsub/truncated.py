"""Convergence-interval profiles for truncated action sets {a, ..., m}.

For fixed m, each game S = {a..m} (1 <= a < m) converges at some xi, and
tr(a) = ceil(xi / (2m)) records which length-2m interval xi lands in
(intervals taken half-open so a boundary xi = 2jm counts as j).  The
resulting sequence tr(1..m-1) is non-decreasing; its set of distinct
values, their first differences, and their multiplicities carry a
striking mirror structure that this module measures:

* distinct-count law: the number of distinct tr values is
  floor(sqrt(4m - 7));
* mirror law: the first differences of the distinct values equal the
  reversed multiplicities of all values except 1.

Also measured: tr(a) = 2 for all 2 <= a <= ceil(m/2), and the relation
between the last first-difference and the multiplicity of the value 2
(the published closed form floor(m/2) overshoots by one for even m; both
computed quantities are reported next to it).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .analysis import TheoremViolationError, conjecture_report, convergence_point
from .core import Report, Ruleset


@dataclass(frozen=True)
class TruncationProfile(Report):
    m: int
    tr: tuple[int, ...]
    x_values: tuple[int, ...]          # distinct tr values, increasing
    deltas: tuple[int, ...]            # first differences of x_values
    multiplicities: tuple[int, ...]    # count of each x_value in tr


@dataclass(frozen=True)
class DualityTheoremReport(Report):
    m: int
    early_a_range: tuple[int, int]     # tr(a) = 2 is asserted on this a range
    early_all_two: bool
    last_delta: int
    multiplicity_of_two: int
    stated_value: int                  # published closed form floor(m/2)
    delta_equals_multiplicity: bool
    matches_stated: bool


@dataclass(frozen=True)
class DualityConjectureReport(Report):
    m: int
    distinct_count: int
    expected_distinct: int             # floor(sqrt(4m - 7))
    count_ok: bool
    deltas: tuple[int, ...]
    reversed_tail_multiplicities: tuple[int, ...]
    deltas_ok: bool
    passed: bool


def tr_sequence(m: int) -> TruncationProfile:
    """Compute tr(1..m-1) for the family {a..m} by exact convergence search."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    tr: list[int] = []
    for a in range(1, m):
        ruleset = Ruleset(tuple(range(a, m + 1)))
        xi = convergence_point(ruleset).xi
        tr.append(-(-xi // (2 * m)))
    xs = sorted(set(tr))
    # Exact-size tuples (from lists) keep the free lists flat; see Ruleset.
    deltas = tuple([b - a for a, b in zip(xs, xs[1:])])
    mult = tuple([tr.count(v) for v in xs])
    return TruncationProfile(
        m=m, tr=tuple(tr), x_values=tuple(xs), deltas=deltas, multiplicities=mult
    )


def check_duality_theorem(profile: TruncationProfile) -> DualityTheoremReport:
    """Verify the proven parts of the tr structure for one m (m >= 3)."""
    m = profile.m
    if m < 3:
        raise ValueError(f"theorem check needs m >= 3, got {m}")
    hi = -(-m // 2)  # ceil(m/2)
    early_all_two = all(profile.tr[a - 1] == 2 for a in range(2, hi + 1))
    last_delta = profile.deltas[-1]
    try:
        m2 = profile.multiplicities[profile.x_values.index(2)]
    except ValueError:
        m2 = 0
    stated = m // 2
    return DualityTheoremReport(
        m=m,
        early_a_range=(2, hi),
        early_all_two=early_all_two,
        last_delta=last_delta,
        multiplicity_of_two=m2,
        stated_value=stated,
        delta_equals_multiplicity=last_delta == m2,
        matches_stated=last_delta == stated and m2 == stated,
    )


def check_duality_conjecture(profile: TruncationProfile) -> DualityConjectureReport:
    """Check the distinct-count law and the delta/multiplicity mirror for one m."""
    m = profile.m
    expected = math.isqrt(4 * m - 7)
    distinct = len(profile.x_values)
    # tr(1) = 1 always, so dropping the value 1 means dropping the head.
    tail_mult = tuple([
        mult
        for value, mult in zip(profile.x_values, profile.multiplicities)
        if value != 1
    ])
    reversed_tail = tuple(reversed(tail_mult))
    count_ok = distinct == expected
    deltas_ok = profile.deltas == reversed_tail
    return DualityConjectureReport(
        m=m,
        distinct_count=distinct,
        expected_distinct=expected,
        count_ok=count_ok,
        deltas=profile.deltas,
        reversed_tail_multiplicities=reversed_tail,
        deltas_ok=deltas_ok,
        passed=count_ok and deltas_ok,
    )


def sweep_truncated(m_min: int, m_max: int, csv_dir: str | None = None) -> list[dict]:
    """Profile every m in [m_min, m_max]; optionally emit one CSV per m.

    Each CSV, named tr_{m}.csv, holds rows (a, tr(a)) under the header "a,tr".
    The proven parts of each theorem check are enforced, not reported:
    early_all_two or delta_equals_multiplicity false for some m raises
    TheoremViolationError before that m's CSV is written.  matches_stated
    is not among them, because the published floor(m/2) is off by one for
    even m.
    """
    if not 2 <= m_min <= m_max:
        raise ValueError(f"need 2 <= m_min <= m_max, got {m_min}, {m_max}")
    reports: list[dict] = []
    for m in range(m_min, m_max + 1):
        profile = tr_sequence(m)
        theorem = check_duality_theorem(profile).as_dict() if m >= 3 else None
        if theorem and not (theorem["early_all_two"] and theorem["delta_equals_multiplicity"]):
            raise TheoremViolationError(f"proven tr structure fails at m={m}: {theorem}")
        conjecture = check_duality_conjecture(profile)
        report = profile.as_dict()
        report["theorem"] = theorem
        report["conjecture"] = {"pass": conjecture.passed, "details": conjecture.as_dict()}
        reports.append(report)
        if csv_dir is not None:
            path = os.path.join(csv_dir, f"tr_{m}.csv")
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write("a,tr\n")
                for a, value in enumerate(profile.tr, start=1):
                    fh.write(f"{a},{value}\n")
    return reports


def duality_conjecture_report(m_min: int, m_max: int) -> dict:
    """The conjecture verdicts of sweep_truncated in the shared conjecture schema.

    Like sweep_truncated, it raises TheoremViolationError when a proven part
    of the tr structure fails.
    """
    reports = sweep_truncated(m_min, m_max)
    return conjecture_report(
        conjecture="truncated-duality",
        parameters={"m_min": m_min, "m_max": m_max},
        swept_space={"m_count": len(reports)},
        counterexamples=[
            r["conjecture"]["details"] for r in reports if not r["conjecture"]["pass"]
        ],
    )
