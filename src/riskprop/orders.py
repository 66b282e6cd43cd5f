"""Stochastic orders and dependence relations on equiprobable payoffs.

Decision procedures are exact.  The concave order is decided through
prefix sums of sorted values (integrated quantile functions agree at the
grid points ``k/n`` and are affine in between, so the grid comparison is
exact); the better-hedge relation is decided on the finite grid of
observed values, where both conditional distribution functions are step
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .space import Payoff, RationalLike, as_fraction, equal_in_distribution

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
        if f[self.donor] > f[self.recipient]:
            raise ValueError(
                f"step does not apply: f[{self.donor}]={f[self.donor]} exceeds "
                f"f[{self.recipient}]={f[self.recipient]}"
            )
        vals = list(f.values)
        vals[self.donor - 1] -= self.delta
        vals[self.recipient - 1] += self.delta
        return Payoff(tuple(vals))


def concave_order(f: Payoff, g: Payoff) -> bool:
    """Whether ``f`` dominates ``g`` in the concave order (``f`` is less risky).

    With both value lists sorted ascending, prefix sums of ``f`` must
    dominate those of ``g`` at every cut, with equality for the full sum.
    """
    f._check_same_length(g)
    fs, gs = f.ascending(), g.ascending()
    pf = pg = Fraction(0)
    n = len(fs)
    for k in range(n):
        pf += fs[k]
        pg += gs[k]
        if k < n - 1:
            if pf < pg:
                return False
        elif pf != pg:
            return False
    return True


def fsd(f: Payoff, g: Payoff) -> bool:
    """First-order stochastic dominance of ``f`` over ``g`` (sorted componentwise)."""
    f._check_same_length(g)
    return all(a >= b for a, b in zip(f.ascending(), g.ascending()))


def stop_loss(f: Payoff, cap: RationalLike) -> Fraction:
    """Expected capped payoff ``E[min(f, cap)]``, exact."""
    c = as_fraction(cap)
    return Fraction(sum(min(v, c) for v in f.values), len(f))


def recognize_mps(f: Payoff, g: Payoff) -> Optional[MpsStep]:
    """Find the step with ``g = f - delta*1_donor + delta*1_recipient``, if any.

    Returns the lexicographically smallest ``(donor, recipient)`` witness,
    or ``None`` when ``g`` is not a mean preserving spread of ``f``.  A
    zero-delta witness exists whenever ``f == g`` and ``n >= 2``.
    """
    f._check_same_length(g)
    diff = [b - a for a, b in zip(f.values, g.values)]
    moved = [i for i, d in enumerate(diff) if d != 0]
    if not moved:
        for s1 in range(1, len(f) + 1):
            for s2 in range(1, len(f) + 1):
                if s1 != s2 and f[s1] <= f[s2]:
                    return MpsStep(s1, s2, Fraction(0))
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
    if f.values[donor] > f.values[recipient]:
        return None
    return MpsStep(donor + 1, recipient + 1, -diff[donor])


def counter_monotone(f: Payoff, w: Payoff) -> bool:
    """Whether ``f`` and ``w`` move in opposite directions across all state pairs."""
    f._check_same_length(w)
    n = len(f)
    for s, t in combinations(range(n), 2):
        if (f.values[s] - f.values[t]) * (w.values[s] - w.values[t]) > 0:
            return False
    return True


def _cut_states(w: Payoff, level: Fraction) -> list[int]:
    return [i for i, v in enumerate(w.values) if v <= level]


def better_hedge(f: Payoff, g: Payoff, w: Payoff) -> bool:
    """Whether ``f`` is a better hedge for risk ``w`` than ``g``.

    Requires ``f`` and ``g`` equally distributed, and
    ``P(f <= t | w <= level) <= P(g <= t | w <= level)`` for every payment
    ``t`` and level with ``P(w <= level) > 0``.  Both sides are step
    functions, so checking levels at the observed values of ``w`` and
    payments at the merged values of ``f`` and ``g`` is exact.
    """
    f._check_same_length(g)
    f._check_same_length(w)
    if not equal_in_distribution(f, g):
        return False
    payments = sorted(set(f.values) | set(g.values))
    for level in sorted(set(w.values)):
        cut = _cut_states(w, level)
        for t in payments:
            count_f = sum(1 for i in cut if f.values[i] <= t)
            count_g = sum(1 for i in cut if g.values[i] <= t)
            if count_f > count_g:
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
    order = sorted(range(len(w)), key=lambda i: (w.values[i], i))
    asc = f.ascending()
    countermono_vals = [Fraction(0)] * len(w)
    for rank, i in enumerate(order):
        countermono_vals[i] = asc[len(w) - 1 - rank]
    return better_hedge(f, Payoff(tuple(countermono_vals)), w)
