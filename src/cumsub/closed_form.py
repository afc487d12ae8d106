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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .analysis import TheoremViolationError
from .core import Report, Ruleset


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
    def _by_residue(self) -> dict[int, tuple[int, int]]:
        """(member, block index) by residue mod 2*s1; X* residues are pairwise distinct."""
        period = 2 * self.s1
        out = {y % period: (y, i) for i, block in enumerate(self.x_star, start=1) for y in block}
        if len(out) != len(self.members):
            raise TheoremViolationError(
                f"two X* members are congruent mod {period} for S={{{self.s2},{self.s1}}}"
            )
        return out

    @property
    def ruleset(self) -> Ruleset:
        return Ruleset((self.s2, self.s1))

    @property
    def greedy_dominant(self) -> bool:
        """True when 2*s2 <= s1: sacrifices never beat greedy play."""
        return 2 * self.s2 <= self.s1

    def block_index(self, x: int) -> int | None:
        """i with x in X*(i), or None.

        X*(i) starts at i*(s1+s2) - s1 and holds alpha heaps.
        """
        i, delta = divmod(x + self.s1, self.s1 + self.s2)
        return i if delta < self.alpha and 1 <= i <= len(self.x_star) else None


def build_two_action(s2: int, s1: int) -> TwoActionSolution:
    if not 1 <= s2 < s1:
        raise ValueError(f"need 1 <= s2 < s1, got s2={s2}, s1={s1}")
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


def _greedy_dominant_outcome(s2: int, s1: int, x: int) -> int:
    # 2*s2 <= s1: below s1 only s2 is playable and the game is a pure
    # parity race; from s1 on both players take s1 every round.
    if x < s1:
        if x < s2:
            return 0
        return s2 if (x // s2) % 2 else 0
    q, r = divmod(x, s1)
    base = _greedy_dominant_outcome(s2, s1, r)
    return s1 - base if q % 2 else base


def two_action_outcome(sol: TwoActionSolution, x: int) -> int:
    """o(x) without dynamic programming.

    For 2*s2 > s1 the cases are tried in order: (a) x in X*(i) gives
    s1 - i*alpha; (b) the outcome-many heaps just below min X*(i) give 0;
    (c) heaps congruent mod 2*s1 to a smaller X* member inherit its
    outcome; (d) heaps with residue in {s1..2*s1-1} give s1 - o(x - s1).
    Anything left is a heap whose class never meets X*: both players run
    greedy into the terminal zone, outcome 0.
    """
    if x < 0:
        raise ValueError(f"heap must be nonnegative, got {x}")
    if sol.greedy_dominant:
        return _greedy_dominant_outcome(sol.s2, sol.s1, x)
    i = sol.block_index(x)
    if i is not None:  # (a)
        return sol.s1 - i * sol.alpha
    # (b): each window lies between X*(i-1) and X*(i), so only the first block above x can match.
    i = (x + sol.s1) // (sol.s1 + sol.s2) + 1
    if i <= len(sol.x_star):
        y = sol.x_star[i - 1][0]
        if y - (sol.s1 - i * sol.alpha) <= x:
            return 0
    hit = sol._by_residue.get(x % (2 * sol.s1))  # (c)
    if hit is not None and hit[0] < x:
        return sol.s1 - hit[1] * sol.alpha
    if x % (2 * sol.s1) >= sol.s1:  # (d), recursing at most once
        return sol.s1 - two_action_outcome(sol, x - sol.s1)
    return 0


def complementary_next(sol: TwoActionSolution, negatives_last: int | None = None) -> int:
    """Positive's scripted reply: open with s2, then complement Negative.

    Complementing keeps every full round summing to s1 + s2, which is what
    realizes the X* outcomes.
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
