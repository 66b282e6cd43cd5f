"""Stochastic orders and dependence relations on equiprobable payoffs.

Decision procedures are exact.  The concave order is decided through
prefix sums of sorted values (integrated quantile functions agree at the
grid points ``k/n`` and are affine in between, so the grid comparison is
exact).  The better-hedge relation is decided in one sweep over the
levels of the risk: states join the cut ``w <= level`` one level at a
time, an array over the observed payments keeps the difference of the
two counts, and its prefix sums are checked after each level.  The
counter-monotone relation is one sort of the states by the risk, after
which ``f`` may never rise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, pairwise
from operator import neg
from typing import Optional

from .space import (
    Payoff,
    RationalLike,
    _common_nums,
    _from_ints,
    _with_scalar,
    as_fraction,
    equal_in_distribution,
)

__all__ = [
    "MpsStep",
    "concave_order",
    "fsd",
    "recognize_mps",
    "counter_monotone",
    "better_hedge",
    "is_best_hedge",
    "stop_loss",
]


@dataclass(frozen=True)
class MpsStep:
    """One mean-preserving-spread move: shift ``delta`` from state ``donor`` to state ``recipient``.

    State indices are 1-based.  Applying the step to ``f`` requires
    ``f[donor] <= f[recipient]``, so the move takes mass from a low-value
    state to a high-value one and preserves the mean.
    """

    donor: int
    recipient: int
    delta: Fraction

    def __post_init__(self) -> None:
        if self.donor == self.recipient:
            raise ValueError("donor and recipient states must differ")
        if self.donor < 1 or self.recipient < 1:
            raise ValueError("state indices are 1-based")
        d = as_fraction(self.delta)
        if d < 0:
            raise ValueError(f"delta must be >= 0, got {d}")
        object.__setattr__(self, "delta", d)

    def check_states(self, f: Payoff) -> None:
        """Raise ``ValueError`` naming the donor or recipient state that ``f`` does not have."""
        for name, state in (("donor", self.donor), ("recipient", self.recipient)):
            if state > len(f):
                raise ValueError(f"step {name} state {state} exceeds payoff length {len(f)}")

    def apply(self, f: Payoff) -> Payoff:
        self.check_states(f)
        i, j = self.donor - 1, self.recipient - 1
        if f.nums[i] > f.nums[j]:
            raise ValueError(
                f"step does not apply: f[{self.donor}]={f[self.donor]} exceeds "
                f"f[{self.recipient}]={f[self.recipient]}"
            )
        nums, delta, d = _with_scalar(f, self.delta)
        vals = list(nums)
        vals[i] -= delta
        vals[j] += delta
        return _from_ints(tuple(vals), d)


def concave_order(f: Payoff, g: Payoff) -> bool:
    """Whether ``f`` dominates ``g`` in the concave order (``f`` is less risky).

    With both value lists sorted ascending, prefix sums of ``f`` must
    dominate those of ``g`` at every cut, with equality for the full sum.
    """
    f._check_same_length(g)
    (fs, gs), _ = _common_nums(f, g)
    pf, pg = list(accumulate(sorted(fs))), list(accumulate(sorted(gs)))
    return pf[-1] == pg[-1] and all(a >= b for a, b in zip(pf, pg))


def fsd(f: Payoff, g: Payoff) -> bool:
    """First-order stochastic dominance of ``f`` over ``g`` (sorted componentwise)."""
    f._check_same_length(g)
    (fs, gs), _ = _common_nums(f, g)
    return all(a >= b for a, b in zip(sorted(fs), sorted(gs)))


def stop_loss(f: Payoff, cap: RationalLike) -> Fraction:
    """Expected capped payoff ``E[min(f, cap)]``, exact."""
    nums, c, d = _with_scalar(f, cap)
    return Fraction(sum(min(v, c) for v in nums), d * len(nums))


def recognize_mps(f: Payoff, g: Payoff) -> Optional[MpsStep]:
    """Find the step with ``g = f - delta*1_donor + delta*1_recipient``, if any.

    Returns the lexicographically smallest ``(donor, recipient)`` witness,
    or ``None`` when ``g`` is not a mean preserving spread of ``f``.  A
    zero-delta witness exists whenever ``f == g`` and ``n >= 2``.
    """
    f._check_same_length(g)
    (fs, gs), den = _common_nums(f, g)
    diff = [b - a for a, b in zip(fs, gs)]
    moved = [i for i, d in enumerate(diff) if d != 0]
    if not moved:
        for s1 in range(len(fs)):
            for s2 in range(len(fs)):
                if s1 != s2 and fs[s1] <= fs[s2]:
                    return MpsStep(s1 + 1, s2 + 1, Fraction(0))
        return None
    if len(moved) != 2:
        return None
    i, j = moved
    if diff[i] < 0 < diff[j] and diff[i] == -diff[j]:
        donor, recipient = i, j
    elif diff[j] < 0 < diff[i] and diff[j] == -diff[i]:
        donor, recipient = j, i
    else:
        return None
    if fs[donor] > fs[recipient]:
        return None
    return MpsStep(donor + 1, recipient + 1, Fraction(-diff[donor], den))


def counter_monotone(f: Payoff, w: Payoff) -> bool:
    """Whether ``f`` and ``w`` move in opposite directions across all state pairs.

    Equivalently, every value of ``f`` on one level of ``w`` is at least
    every value on the next higher level.  With the states sorted by
    ``w`` ascending and, within a level, by ``f`` descending, that says
    ``f`` never rises along the sorted states.
    """
    f._check_same_length(w)
    # only comparisons within f and within w, so each keeps its own denominator
    rising = [v for _, v in sorted(zip(w.nums, map(neg, f.nums)))]  # -f, which must never fall
    return all(a <= b for a, b in pairwise(rising))


def better_hedge(f: Payoff, g: Payoff, w: Payoff) -> bool:
    """Whether ``f`` is a better hedge for risk ``w`` than ``g``.

    Requires ``f`` and ``g`` equally distributed, and
    ``P(f <= t | w <= level) <= P(g <= t | w <= level)`` for every payment
    ``t`` and level with ``P(w <= level) > 0``.  Both sides are step
    functions, so checking levels at the observed values of ``w`` and
    payments at the observed values of ``f`` is exact.  The states are
    swept once in order of ``w``, so the cost is ``O(n log n + L*P)`` for
    ``L`` levels and ``P`` payments.
    """
    f._check_same_length(g)
    f._check_same_length(w)
    if not equal_in_distribution(f, g):
        return False
    # equally distributed, so f and g share a denominator and their numerators compare
    fs, gs = f.nums, g.nums
    rank = {t: k for k, t in enumerate(sorted(set(fs)))}
    # gap[k] accumulates count_g - count_f at payment k over the states with w <= level,
    # so its prefix sums are count_g(t) - count_f(t) for every payment t
    gap = [0] * len(rank)
    states = sorted(zip(w.nums, fs, gs))
    # the last level's cut holds every state, where the counts agree: f and g are equally distributed
    for (level, a, b), (next_level, _, _) in pairwise(states):
        gap[rank[b]] += 1
        gap[rank[a]] -= 1
        if next_level != level and min(accumulate(gap)) < 0:
            return False
    return True


def is_best_hedge(f: Payoff, w: Payoff) -> bool:
    """Whether ``f`` is a better hedge for ``w`` than every payoff with its distribution.

    Quantifies over all rearrangements of ``f`` by checking one: the
    counter-monotone rearrangement, which places the largest values of
    ``f`` on the lowest values of ``w``.  Every cut ``w <= level`` is a
    prefix of the states sorted by ``w``, so on it that rearrangement
    holds the top-k values of ``f``, which first-order dominate the k
    values any rearrangement ``g`` puts there: ``count_cm <= count_g`` at
    every payment, and beating the counter-monotone one beats every ``g``.
    """
    f._check_same_length(w)
    ws = w.nums
    order = sorted(range(len(ws)), key=lambda i: (ws[i], i))
    desc = sorted(f.nums, reverse=True)
    countermono = [0] * len(ws)
    for rank, i in enumerate(order):
        countermono[i] = desc[rank]
    return better_hedge(f, _from_ints(tuple(countermono), f.den), w)
