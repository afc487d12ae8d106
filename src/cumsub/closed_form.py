"""Closed-form optimal play for full-support and two-action games.

Full support S = {1..s1}: the outcome sequence is the fixed sawtooth
0,1,...,s1,s1-1,...,1 repeated with period 2*s1, and greedy play is
optimal from heap s1 onward.

Two actions S = {s2, s1} with s2 < s1: writing alpha = s1 - s2, the only
heaps where the smaller action is strictly better form blocks

    X*(i) = { i*s2 + (i-1)*s1 + delta : 0 <= delta < alpha },

one block per i >= 1 with i*s2 > (i-1)*s1 (equivalently i*alpha < s1),
so k = (s1 - 1) // alpha blocks.  From a heap in X*(i), Positive opens
with s2 and then keeps the move sum of every round at s1 + s2, collecting
i*s2 - (i-1)*s1 = s1 - i*alpha.  Everywhere else greedy is optimal, and
convergence happens at xi = (s1+s2)*ceil(s2/alpha) - s2 = s1 + (k-1)*(s1+s2),
one past the largest X* member.

Each residue mod s1 holds at most one X* heap.  Since s2 = s1 - alpha,

    i*s2 + (i-1)*s1 + delta = 2*(i-1)*s1 + (s1 - i*alpha + delta),

and 0 < s1 - i*alpha <= s1 - i*alpha + delta < s1 - (i-1)*alpha <= s1.  So
X*(i) holds one heap of each residue r in [s1 - i*alpha, s1 - (i-1)*alpha),
namely r + 2*(i-1)*s1, and no other.  These intervals are disjoint, so a
residue r lies in at most one of them: r lies in the i-th exactly when
(i-1)*alpha <= s1 - 1 - r < i*alpha, that is, in block
i(r) = (s1 - 1 - r) // alpha + 1, which exists when i(r)*alpha < s1.
Writing x = q*s1 + r, opt(x) = s2 exactly when i(r) exists and
q = 2*(i(r) - 1).

Outcomes follow optimal play directly.  Off X* both players take s1, so
play descends from x through q*s1 + r, (q-1)*s1 + r, ... down to r, and
stops at the first X* heap on the way.  That is the X* heap of r when
i(r) >= 2 exists and q >= 2*(i(r) - 1); otherwise play reaches r, which
is terminal or in X*(1) = [s2, s1).  Either way the descent takes a
number of steps of q's parity, so o(x) = v for even q and s1 - v for odd
q, where v is the outcome where it stops: s1 - i*alpha on X*(i) for
i >= 2, and at r, where only s2 is playable or nothing is, the s2 parity
race, s2 if r // s2 is odd and 0 otherwise.  These rules read s2, s1 and
alpha, never the x_star listing.

convergence_point answers every pair from here, with build_two_action's xi
and the 3*s1 outcomes from xi - s1 that _outcomes_from_xi gives, which it
checks as it checks a DP pass's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import TABLE_HEAP_LIMIT, Report, Ruleset


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

    @property
    def ruleset(self) -> Ruleset:
        return Ruleset((self.s2, self.s1))

    def block_index(self, x: int) -> int | None:
        """i with x in X*(i), or None: x = q*s1 + r is the X* heap of its
        residue r, which lies in block _residue_block(self, r) = i when
        q = 2*(i-1) (see the module docstring)."""
        q, r = divmod(x, self.s1)
        i = _residue_block(self, r)
        return i if i is not None and q == 2 * (i - 1) else None


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


def _residue_block(sol: TwoActionSolution, r: int) -> int | None:
    """i with X*(i) holding a heap of residue r mod s1, or None (module docstring)."""
    i = (sol.s1 - 1 - r) // sol.alpha + 1
    return i if i * sol.alpha < sol.s1 else None


def two_action_opt(sol: TwoActionSolution, x: int) -> int:
    """opt(x): the smaller action exactly on X*, greedy everywhere else."""
    if x < sol.s2:
        raise ValueError(f"heap {x} is terminal for {{{sol.s2},{sol.s1}}}; no action exists")
    return sol.s2 if sol.block_index(x) else sol.s1


def two_action_outcome(sol: TwoActionSolution, x: int) -> int:
    """o(x) in O(1), without dynamic programming: the descent by s1 of the
    module docstring stops at the X* heap of x's residue r when that heap
    lies above r and not above x, and at r otherwise."""
    if x < 0:
        raise ValueError(f"heap must be nonnegative, got {x}")
    s1 = sol.s1
    q, r = divmod(x, s1)
    i = _residue_block(sol, r)
    if i is not None and i >= 2 and 2 * (i - 1) <= q:
        v = s1 - i * sol.alpha
    else:
        v = sol.s2 if r // sol.s2 % 2 else 0
    return s1 - v if q % 2 else v


def _outcomes_from_xi(sol: TwoActionSolution) -> list[int]:
    """o(x) for the 3*s1 heaps x = xi - s1, ..., xi + 2*s1 - 1, in one pass over residues.

    The first s1 of them, lo = xi - s1 up to xi - 1, hold each residue
    once.  Each lies at or above the X* heap of its residue, since that
    heap is below xi, so its descent stops there (or at r) as in
    two_action_outcome.  Every heap from xi on plays s1, so the two heaps
    s1 and 2*s1 above it have outcomes s1 - v and v.
    """
    s1 = sol.s1
    lo = sol.xi - s1
    window = [0] * (3 * s1)
    for j in range(s1):
        q, r = divmod(lo + j, s1)
        i = _residue_block(sol, r)
        v = s1 - i * sol.alpha if i is not None and i >= 2 else (sol.s2 if r // sol.s2 % 2 else 0)
        if q % 2:
            v = s1 - v
        window[j] = window[j + 2 * s1] = v
        window[j + s1] = s1 - v
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
