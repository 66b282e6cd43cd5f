"""Finite equiprobable probability spaces with exact rational arithmetic.

A payoff lives on a state space ``{1, ..., n}`` in which every state has
probability ``1/n``.  Every quantity is a :class:`fractions.Fraction`;
nothing in this module rounds.  Continuous distributions enter only
through :class:`QuantileTable`, a left-continuous increasing step
function on ``(0, 1)`` that can be coarsened back onto a dyadic
equiprobable space with :func:`dyadic_condition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, Fraction]

__all__ = [
    "Payoff",
    "Lottery",
    "QuantileTable",
    "as_fraction",
    "expectation",
    "variance",
    "equal_in_distribution",
    "dyadic_condition",
]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce to an exact rational.

    Floats are rejected: a binary float may not be the number the caller
    meant, and this library never loses precision silently.  Use strings
    ("2.5", "1/3") or ints for literals.
    """
    if type(x) is Fraction:
        return x  # immutable, so sharing it is unobservable
    if isinstance(x, float):
        raise TypeError(f"expected an exact rational (int, str, or Fraction), got float {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class Payoff:
    """A random payoff on ``n`` equiprobable states.

    State ``s`` (1-based) pays ``values[s - 1]`` with probability ``1/n``.
    Instances are immutable and hashable; arithmetic returns new payoffs
    and preserves the state count.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(as_fraction(v) for v in self.values)
        if not vals:
            raise ValueError("a payoff needs at least one state")
        object.__setattr__(self, "values", vals)

    @classmethod
    def of(cls, *values: RationalLike) -> "Payoff":
        if len(values) == 1 and isinstance(values[0], (tuple, list)):
            values = tuple(values[0])
        return cls(tuple(values))

    @classmethod
    def constant(cls, value: RationalLike, n: int) -> "Payoff":
        return cls(tuple([as_fraction(value)] * n))

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"

    def __getitem__(self, state: int) -> Fraction:
        """Value in 1-based state ``state``."""
        if not 1 <= state <= len(self.values):
            raise IndexError(f"state {state} out of range 1..{len(self.values)}")
        return self.values[state - 1]

    def _check_same_length(self, other: "Payoff") -> None:
        if len(self.values) != len(other.values):
            raise ValueError(
                f"length mismatch: {len(self.values)} vs {len(other.values)} states"
            )

    def __add__(self, other: Union["Payoff", RationalLike]) -> "Payoff":
        if isinstance(other, Payoff):
            self._check_same_length(other)
            return Payoff(tuple(a + b for a, b in zip(self.values, other.values)))
        c = as_fraction(other)
        return Payoff(tuple(v + c for v in self.values))

    __radd__ = __add__

    def __sub__(self, other: Union["Payoff", RationalLike]) -> "Payoff":
        if isinstance(other, Payoff):
            self._check_same_length(other)
            return Payoff(tuple(a - b for a, b in zip(self.values, other.values)))
        c = as_fraction(other)
        return Payoff(tuple(v - c for v in self.values))

    def __rsub__(self, other: RationalLike) -> "Payoff":
        c = as_fraction(other)
        return Payoff(tuple(c - v for v in self.values))

    def __neg__(self) -> "Payoff":
        return Payoff(tuple(-v for v in self.values))

    def __mul__(self, scalar: RationalLike) -> "Payoff":
        c = as_fraction(scalar)
        return Payoff(tuple(c * v for v in self.values))

    __rmul__ = __mul__

    def min_value(self) -> Fraction:
        return min(self.values)

    def max_value(self) -> Fraction:
        return max(self.values)

    def ascending(self) -> tuple[Fraction, ...]:
        """Values sorted ascending (ties keep original state order)."""
        return tuple(sorted(self.values))

    def permute(self, mapping: Sequence[int]) -> "Payoff":
        """Rearranged payoff: new state ``k`` takes the value of old state ``mapping[k-1]``.

        ``mapping`` must be a permutation of ``1..n`` (1-based states).
        """
        if sorted(mapping) != list(range(1, len(self.values) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.values)}: {mapping!r}")
        return Payoff(tuple(self.values[s - 1] for s in mapping))

    def lottery(self) -> "Lottery":
        return Lottery.from_payoff(self)

    def quantile_table(self) -> "QuantileTable":
        return QuantileTable.from_payoff(self)


def expectation(f: Payoff) -> Fraction:
    """Mean payoff, exact: ``(1/n) * sum(values)``."""
    return Fraction(sum(f.values), len(f.values))


def variance(f: Payoff) -> Fraction:
    """Population variance, exact."""
    m = expectation(f)
    return Fraction(sum((v - m) ** 2 for v in f.values), len(f.values))


def equal_in_distribution(f: Payoff, g: Payoff) -> bool:
    """Whether ``f`` and ``g`` induce the same lottery.

    On a common equiprobable space this holds exactly when ``g`` is a
    permutation of ``f``, i.e. the sorted value lists coincide.
    """
    f._check_same_length(g)
    return sorted(f.values) == sorted(g.values)


@dataclass(frozen=True)
class Lottery:
    """A finite distribution over monetary outcomes.

    ``atoms`` is sorted by value (strictly increasing); probabilities are
    positive rationals summing exactly to one.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        atoms = tuple((as_fraction(v), as_fraction(p)) for v, p in self.atoms)
        if not atoms:
            raise ValueError("a lottery needs at least one atom")
        values = [v for v, _ in atoms]
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("lottery values must be strictly increasing")
        if any(p <= 0 for _, p in atoms):
            raise ValueError("lottery probabilities must be positive")
        if sum(p for _, p in atoms) != 1:
            raise ValueError("lottery probabilities must sum to 1")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_payoff(cls, f: Payoff) -> "Lottery":
        n = len(f.values)
        atoms = tuple(
            (v, Fraction(len(list(grp)), n))
            for v, grp in groupby(sorted(f.values))
        )
        return cls(atoms)


@dataclass(frozen=True)
class QuantileTable:
    """Left-continuous increasing step function on ``(0, 1)``.

    ``pieces`` lists ``(t_k, q_k)`` with ``0 < t_1 < ... < t_m = 1`` and
    strictly increasing ``q_k``; the function takes value ``q_k`` on
    ``(t_{k-1}, t_k]`` (with ``t_0 = 0``).  This is the left-continuous
    inverse of a distribution function.
    """

    pieces: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pieces = tuple((as_fraction(t), as_fraction(q)) for t, q in self.pieces)
        if not pieces:
            raise ValueError("a quantile table needs at least one piece")
        ts = [t for t, _ in pieces]
        qs = [q for _, q in pieces]
        if ts[0] <= 0 or ts[-1] != 1:
            raise ValueError("piece endpoints must satisfy 0 < t_1 and t_m = 1")
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise ValueError("piece endpoints must be strictly increasing")
        if any(a >= b for a, b in zip(qs, qs[1:])):
            raise ValueError("quantile values must be strictly increasing")
        object.__setattr__(self, "pieces", pieces)

    @classmethod
    def from_pieces(cls, pieces: Iterable[tuple[RationalLike, RationalLike]]) -> "QuantileTable":
        """Build a table, merging adjacent pieces with equal values."""
        raw = [(as_fraction(t), as_fraction(q)) for t, q in pieces]
        merged: list[tuple[Fraction, Fraction]] = []
        for t, q in raw:
            if merged and merged[-1][1] == q:
                merged[-1] = (t, q)
            else:
                merged.append((t, q))
        return cls(tuple(merged))

    @classmethod
    def constant(cls, value: RationalLike) -> "QuantileTable":
        return cls(((Fraction(1), as_fraction(value)),))

    @classmethod
    def from_lottery(cls, lot: Lottery) -> "QuantileTable":
        pieces = []
        acc = Fraction(0)
        for v, p in lot.atoms:
            acc += p
            pieces.append((acc, v))
        return cls(tuple(pieces))

    @classmethod
    def from_payoff(cls, f: Payoff) -> "QuantileTable":
        return cls.from_lottery(Lottery.from_payoff(f))

    def __call__(self, t: RationalLike) -> Fraction:
        """Value at ``t`` in ``(0, 1]`` (left-continuous)."""
        t = as_fraction(t)
        if not 0 < t <= 1:
            raise ValueError(f"argument must lie in (0, 1], got {t}")
        for end, q in self.pieces:
            if t <= end:
                return q
        raise AssertionError("unreachable: pieces end at 1")

    def integrate(self, a: RationalLike, b: RationalLike) -> Fraction:
        """Exact integral of the step function over ``(a, b] ⊆ (0, 1)``."""
        a, b = as_fraction(a), as_fraction(b)
        if not 0 <= a <= b <= 1:
            raise ValueError(f"integration bounds must satisfy 0 <= a <= b <= 1, got ({a}, {b})")
        total = Fraction(0)
        prev = Fraction(0)
        for end, q in self.pieces:
            lo = max(prev, a)
            hi = min(end, b)
            if hi > lo:
                total += q * (hi - lo)
            prev = end
            if prev >= b:
                break
        return total

    def total_integral(self) -> Fraction:
        return self.integrate(0, 1)


def dyadic_condition(q: QuantileTable, level: int) -> Payoff:
    """Average ``q`` over the dyadic partition of ``(0, 1)`` at ``level``.

    Returns the ``2**level``-state equiprobable payoff whose k-th value is
    the mean of ``q`` over ``((k-1)/2**level, k/2**level]``, computed by
    exact integration.  These coarsenings nest: averaging adjacent pairs
    of the level ``n+1`` payoff reproduces level ``n``.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    m = 2**level
    values = []
    for k in range(m):
        lo = Fraction(k, m)
        hi = Fraction(k + 1, m)
        values.append(q.integrate(lo, hi) * m)
    return Payoff(tuple(values))
