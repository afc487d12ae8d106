"""Closed-form optimal play for full-support and two-action games.

Full support S = {1..s1}: the outcome sequence is the fixed sawtooth
0,1,...,s1,s1-1,...,1 repeated with period 2*s1, and greedy play is
optimal from heap s1 onward.

Two actions S = {s2, s1} with s2 < s1: writing alpha = s1 - s2, the only
heaps where the smaller action is strictly better form blocks

    X*(i) = { i*s2 + (i-1)*s1 + delta : 0 <= delta < alpha },

one block per i >= 1 with i*s2 > (i-1)*s1 (equivalently i*alpha < s1).
From a heap in X*(i), Positive opens with s2 and then keeps the move sum
of every round at s1 + s2, collecting i*s2 - (i-1)*s1 = s1 - i*alpha.
Everywhere else greedy is optimal, and convergence happens at
xi = (s1+s2)*ceil(s2/alpha) - s2, one past the largest X* member.

Outcomes follow optimal play directly.  Off X* both players take s1, so
play descends from x by s1 until the first heap y that is in X* or
terminal; o(x) = o(y) after an even number of steps and s1 - o(y) after
an odd number.  o(y) is s1 - i*alpha on X*(i) for i >= 2.  X*(1) is
exactly [s2, s1), where only s2 is playable: there, as at terminal heaps,
o(y) is the s2 parity race, s2 if y // s2 is odd and 0 otherwise.

convergence_point answers every pair from here, with build_two_action's xi
and the 3*s1 outcomes from xi - s1 that _outcomes_from_xi gives, which it
checks as it checks a DP pass's.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

from .core import TABLE_HEAP_LIMIT, Report, Ruleset, TheoremViolationError


def full_support_outcome(s1: int, x: int) -> int:
    """o(x) for S = {1..s1}: position of x on the 2*s1-periodic sawtooth."""
    if s1 < 2:
        raise ValueError(f"full support needs s1 >= 2, got {s1}")
    if x < 0:
        raise ValueError(f"heap must be nonnegative, got {x}")
    r = x % (2 * s1)
    return r if r <= s1 else 2 * s1 - r


def full_support_opt(s1: int, x: int) -> int:
    """opt(x) for S = {1..s1}: take everything while you can, else s1."""
    if s1 < 2:
        raise ValueError(f"full support needs s1 >= 2, got {s1}")
    if x < 1:
        raise ValueError(f"heap {x} is terminal; no action exists")
    return x if x < s1 else s1


@dataclass(frozen=True)
class TwoActionSolution(Report):
    """Everything derivable in closed form for S = {s2, s1}.

    x_star[i-1] is the block X*(i); only nonempty blocks are stored, so
    when alpha divides s1 the list stops one short of i_max (the boundary
    block degenerates to ties, where greedy is canonical).
    """

    s2: int
    s1: int
    alpha: int
    i_max: int
    xi: int
    x_star: tuple[tuple[int, ...], ...]

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(y for block in self.x_star for y in block)

    @cached_property
    def _stops(self) -> list[list[int]]:
        """Per residue r mod s1, ascending: the heaps where a descent by s1 ending
        in r stops, namely r itself and the X* members above it congruent to r."""
        period = 2 * self.s1
        if len({y % period for y in self.members}) != len(self.members):
            raise TheoremViolationError(
                f"two X* members are congruent mod {period} for S={{{self.s2},{self.s1}}}"
            )
        stops = [[r] for r in range(self.s1)]
        for y in sorted(self.members):
            if y >= self.s1:
                stops[y % self.s1].append(y)
        return stops

    @property
    def ruleset(self) -> Ruleset:
        return Ruleset((self.s2, self.s1))

    def block_index(self, x: int) -> int | None:
        """i with x in X*(i), or None.

        X*(i) starts at i*(s1+s2) - s1 and holds alpha heaps.
        """
        i, delta = divmod(x + self.s1, self.s1 + self.s2)
        return i if delta < self.alpha and 1 <= i <= len(self.x_star) else None


def build_two_action(s2: int, s1: int) -> TwoActionSolution:
    if not 1 <= s2 < s1:
        raise ValueError(f"need 1 <= s2 < s1, got s2={s2}, s1={s1}")
    # The X* blocks store up to s1 - 1 heaps, capped as table heaps are.
    if s1 >= TABLE_HEAP_LIMIT:
        raise ValueError(f"s1 {s1} is at or above the supported limit {TABLE_HEAP_LIMIT}")
    alpha = s1 - s2
    i_max = s1 // alpha
    blocks: list[tuple[int, ...]] = []
    i = 1
    while i * s2 > (i - 1) * s1:
        base = i * s2 + (i - 1) * s1
        blocks.append(tuple(range(base, base + alpha)))
        i += 1
    xi = (s1 + s2) * (-(-s2 // alpha)) - s2
    return TwoActionSolution(
        s2=s2, s1=s1, alpha=alpha, i_max=i_max, xi=xi, x_star=tuple(blocks)
    )


def two_action_opt(sol: TwoActionSolution, x: int) -> int:
    """opt(x): the smaller action exactly on X*, greedy everywhere else."""
    if x < sol.s2:
        raise ValueError(f"heap {x} is terminal for {{{sol.s2},{sol.s1}}}; no action exists")
    return sol.s2 if x in sol.members else sol.s1


def _stop_outcome(sol: TwoActionSolution, y: int) -> int:
    """o(y) at a heap y where a descent by s1 stops: terminal or in X*."""
    if y < sol.s1:  # terminal or X*(1): the s2 parity race
        return sol.s2 if (y // sol.s2) % 2 else 0
    return sol.s1 - sol.block_index(y) * sol.alpha


def two_action_outcome(sol: TwoActionSolution, x: int) -> int:
    """o(x) without dynamic programming: the descent rule of the module docstring."""
    if x < 0:
        raise ValueError(f"heap must be nonnegative, got {x}")
    s1 = sol.s1
    stops = sol._stops[x % s1]
    y = stops[bisect.bisect_right(stops, x) - 1]
    base = _stop_outcome(sol, y)
    return s1 - base if (x - y) // s1 % 2 else base


def _outcomes_from_xi(sol: TwoActionSolution) -> list[int]:
    """o(x) for the 3*s1 heaps x = xi - s1, ..., xi + 2*s1 - 1, in one pass over residues.

    Each of them descends by s1 to the last stop of its residue mod s1,
    with no bisect: the largest X* member of that residue, or the residue
    itself.  Past xi that holds since every X* member lies below xi.
    Below xi, no member y of a heap x's residue lies above x, since
    y >= x + s1 >= xi would follow.  The blocks ascend, so one pass over
    them leaves each residue's last member in place, with no stop lists,
    and checks that no two members are congruent mod 2*s1, as _stops
    does.  A residue has three heaps in the window, s1 apart, so their
    descents alternate between an even and an odd number of steps.
    """
    s1, period = sol.s1, 2 * sol.s1
    lo = sol.xi - s1
    last = list(range(s1))
    seen = bytearray(period)
    for block in sol.x_star:
        for y in block:
            if seen[y % period]:
                raise TheoremViolationError(
                    f"two X* members are congruent mod {period} for S={{{sol.s2},{s1}}}"
                )
            seen[y % period] = 1
            last[y % s1] = y
    window = [0] * (3 * s1)
    for r, y in enumerate(last):
        i = (r - lo) % s1  # heap lo + i is the first of residue r in the window
        v = _stop_outcome(sol, y)
        if (lo + i - y) // s1 % 2:
            v = s1 - v
        window[i] = window[i + 2 * s1] = v
        window[i + s1] = s1 - v
    return window


def complementary_next(sol: TwoActionSolution, negatives_last: int | None = None) -> int:
    """Positive's scripted reply: open with s2, then complement Negative.

    Complementing keeps every full round summing to s1 + s2, which is what
    realizes the X* outcomes, with one exception: from X*(1) = [s2, s1)
    with 2*s2 < s1, Negative can answer s2, and the complement s1 is then
    larger than the heap left (first seen at {1,4}, heap 3).
    """
    if negatives_last is None:
        return sol.s2
    if negatives_last == sol.s1:
        return sol.s2
    if negatives_last == sol.s2:
        return sol.s1
    raise ValueError(
        f"{negatives_last} is not an action of {{{sol.s2},{sol.s1}}}"
    )
