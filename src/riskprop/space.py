"""Finite equiprobable probability spaces with exact rational arithmetic.

A payoff lives on a state space ``{1, ..., n}`` in which every state has
probability ``1/n``.  Every quantity is exact; nothing in this module
rounds.  A :class:`Payoff` stores one integer vector: its numerators
``nums`` over one positive denominator ``den``, reduced so that
``gcd(den, *nums) == 1``.  Its arithmetic, equality, hash and the
distribution test run on these integers.  ``Payoff.values`` is the
public ``Fraction`` tuple, but it is an O(n) view built on every
access, so library code reads ``nums`` and ``den``.  Values from
outside enter through :func:`as_fraction`, which refuses floats.
Scalar results (means, values, parameters) are :class:`fractions.Fraction`.
Continuous distributions enter only
through :class:`QuantileTable`, a left-continuous increasing step
function on ``(0, 1)`` that can be coarsened back onto a dyadic
equiprobable space with :func:`dyadic_condition`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
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


class Payoff:
    """A random payoff on ``n`` equiprobable states.

    State ``s`` (1-based) pays ``nums[s - 1] / den`` with probability
    ``1/n``.  ``nums`` is a tuple of ints and ``den`` a positive int with
    ``gcd(den, *nums) == 1``; this canonical form is unique per payoff, so
    equality, hashing and distribution tests compare integers.  Instances
    are immutable and hashable; arithmetic returns new payoffs and
    preserves the state count.
    """

    __slots__ = ("nums", "den")

    nums: tuple[int, ...]
    den: int

    def __init__(self, values: Iterable[RationalLike]) -> None:
        # a separate step, under the name that bench/tracer.py wraps to count constructions
        self.__post_init__(values)

    def __post_init__(self, values: Iterable[RationalLike]) -> None:
        """Coerce ``values`` with :func:`as_fraction` and store them in canonical form.

        Only payoffs built from outside values pass through here; results
        of arithmetic are built from their integers by :func:`_from_ints`.
        """
        ratios = [as_fraction(v).as_integer_ratio() for v in values]
        if not ratios:
            raise ValueError("a payoff needs at least one state")
        den = lcm(*[d for _, d in ratios])
        _SET_NUMS(self, tuple([p * (den // d) for p, d in ratios]))
        _SET_DEN(self, den)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The state values as ``Fraction``s, built on every access in O(n).

        Library code reads ``nums`` and ``den`` instead.
        """
        den = self.den
        return tuple([Fraction(v, den) for v in self.nums])

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _from_ints, (self.nums, self.den)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Payoff(values={self.values!r})"

    @classmethod
    def of(cls, *values: RationalLike) -> "Payoff":
        if len(values) == 1 and isinstance(values[0], (tuple, list)):
            values = tuple(values[0])
        return cls(tuple(values))

    @classmethod
    def constant(cls, value: RationalLike, n: int) -> "Payoff":
        if n < 1:
            raise ValueError("a payoff needs at least one state")
        c = as_fraction(value)
        return _from_ints((c.numerator,) * n, c.denominator)

    def __len__(self) -> int:
        return len(self.nums)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"

    def __getitem__(self, state: int) -> Fraction:
        """Value in 1-based state ``state``."""
        if not 1 <= state <= len(self.nums):
            raise IndexError(f"state {state} out of range 1..{len(self.nums)}")
        return Fraction(self.nums[state - 1], self.den)

    def _check_same_length(self, other: "Payoff") -> None:
        if len(self.nums) != len(other.nums):
            raise ValueError(
                f"length mismatch: {len(self.nums)} vs {len(other.nums)} states"
            )

    def __add__(self, other: Union["Payoff", RationalLike]) -> "Payoff":
        if isinstance(other, Payoff):
            self._check_same_length(other)
            (a, b), d = _common_nums(self, other)
            return _from_ints(tuple([x + y for x, y in zip(a, b)]), d)
        a, c, d = _with_scalar(self, other)
        return _from_ints(tuple([x + c for x in a]), d)

    __radd__ = __add__

    def __sub__(self, other: Union["Payoff", RationalLike]) -> "Payoff":
        if isinstance(other, Payoff):
            self._check_same_length(other)
            (a, b), d = _common_nums(self, other)
            return _from_ints(tuple([x - y for x, y in zip(a, b)]), d)
        a, c, d = _with_scalar(self, other)
        return _from_ints(tuple([x - c for x in a]), d)

    def __rsub__(self, other: RationalLike) -> "Payoff":
        a, c, d = _with_scalar(self, other)
        return _from_ints(tuple([c - x for x in a]), d)

    def __neg__(self) -> "Payoff":
        return _from_ints(tuple([-x for x in self.nums]), self.den)

    def __mul__(self, scalar: RationalLike) -> "Payoff":
        c = as_fraction(scalar)
        p = c.numerator
        return _from_ints(tuple([p * x for x in self.nums]), self.den * c.denominator)

    __rmul__ = __mul__

    def min_value(self) -> Fraction:
        return Fraction(min(self.nums), self.den)

    def max_value(self) -> Fraction:
        return Fraction(max(self.nums), self.den)

    def ascending(self) -> tuple[Fraction, ...]:
        """Values sorted ascending."""
        den = self.den
        return tuple([Fraction(v, den) for v in sorted(self.nums)])

    def permute(self, mapping: Sequence[int]) -> "Payoff":
        """Rearranged payoff: new state ``k`` takes the value of old state ``mapping[k-1]``.

        ``mapping`` must be a permutation of ``1..n`` (1-based states).
        """
        nums = self.nums
        if sorted(mapping) != list(range(1, len(nums) + 1)):
            raise ValueError(f"not a permutation of 1..{len(nums)}: {mapping!r}")
        return _from_ints(tuple([nums[s - 1] for s in mapping]), self.den)


_SET_NUMS = Payoff.nums.__set__
_SET_DEN = Payoff.den.__set__
_new = object.__new__


def _from_ints(nums: tuple[int, ...], den: int) -> Payoff:
    """The payoff ``nums / den`` (``den > 0``, ``nums`` nonempty), reduced to canonical form."""
    g = gcd(den, *nums)
    if g != 1:
        nums = tuple([v // g for v in nums])
        den //= g
    p = _new(Payoff)
    _SET_NUMS(p, nums)
    _SET_DEN(p, den)
    return p


def _nums_over(f: Payoff, d: int) -> tuple[int, ...]:
    """The numerators of ``f`` over ``d``, a multiple of ``f.den``."""
    k = d // f.den
    return f.nums if k == 1 else tuple([v * k for v in f.nums])


def _common_nums(*payoffs: Payoff) -> tuple[list[tuple[int, ...]], int]:
    """The numerators of ``payoffs`` over the lcm ``d`` of their denominators, and ``d``."""
    d = lcm(*(p.den for p in payoffs))
    return [_nums_over(p, d) for p in payoffs], d


def _with_scalar(f: Payoff, c: RationalLike) -> tuple[tuple[int, ...], int, int]:
    """``f``'s numerators and the rational ``c``'s numerator over their lcm ``d``, and ``d``."""
    c = as_fraction(c)
    q = c.denominator
    d = lcm(f.den, q)
    return _nums_over(f, d), c.numerator * (d // q), d


def expectation(f: Payoff) -> Fraction:
    """Mean payoff, exact: ``(1/n) * sum(values)``."""
    return Fraction(sum(f.nums), f.den * len(f.nums))


def variance(f: Payoff) -> Fraction:
    """Population variance, exact."""
    n, total = len(f.nums), sum(f.nums)
    # each squared deviation is (n*v - total)^2 / (n*den)^2; their mean divides by n once more
    return Fraction(sum((n * v - total) ** 2 for v in f.nums), n**3 * f.den**2)


def equal_in_distribution(f: Payoff, g: Payoff) -> bool:
    """Whether ``f`` and ``g`` induce the same lottery.

    On a common equiprobable space this holds exactly when ``g`` is a
    permutation of ``f``, i.e. the sorted value lists coincide.  Equal
    multisets of values share their canonical denominator, so the test
    compares sorted numerators.
    """
    f._check_same_length(g)
    return f.den == g.den and sorted(f.nums) == sorted(g.nums)


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
        n = len(f.nums)
        atoms = tuple(
            (Fraction(v, f.den), Fraction(len(list(grp)), n))
            for v, grp in groupby(sorted(f.nums))
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
