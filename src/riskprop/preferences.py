"""Preference models over payoffs: expected utility, the dual model, and friends.

Every evaluator is exact.  Utilities and distortions are both
``PiecewiseLinearFn``s with rational breakpoints, so values, certainty
equivalents and compensation amounts are exact rationals.

The dual model uses the Choquet convention with values sorted
descending against increments of the distortion at the grid ``k/n``;
an identity distortion reduces to the expectation, a distortion below
the identity gives weak risk aversion, a convex one strong risk
aversion.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .space import Payoff, RationalLike, _nums_over, as_fraction, expectation, variance

__all__ = [
    "PiecewiseLinearFn",
    "Comparison",
    "PreferenceModel",
    "expected_value_model",
    "expected_utility_model",
    "dual_model",
    "mean_variance_model",
    "eu_value",
    "dual_value",
    "mv_compare",
    "certainty_equivalent",
    "rho",
]

@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Piecewise linear function through rational breakpoints, extended affinely beyond the ends."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = tuple((as_fraction(x), as_fraction(y)) for x, y in self.breakpoints)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        xs = tuple(x for x, _ in pts)
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        object.__setattr__(self, "breakpoints", pts)
        slopes = tuple((y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(pts, pts[1:]))
        icepts = [y - s * x for (x, y), s in zip(pts, slopes)]
        xden = lcm(*(x.denominator for x in xs))
        q = lcm(*(c.denominator for c in icepts + list(slopes)))
        # derived once; not dataclass fields, so eq and repr see only the breakpoints.  The
        # integer form holds the abscissae over their lcm ``_xden`` and piece ``j`` as
        # ``(_icepts[j] + _islopes[j] * x) / _q``, with ``_q`` the lcm of its denominators.
        # ``_weights`` caches the distortion increments per grid size ``n`` (see ``dual_value``).
        vars(self).update(
            xs=xs, slopes=slopes, _xden=xden, _xnums=_numerators(xs, xden),
            _q=q, _icepts=_numerators(icepts, q), _islopes=_numerators(slopes, q), _weights={},
        )

    @classmethod
    def identity(cls) -> "PiecewiseLinearFn":
        return cls(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))

    def __call__(self, x: RationalLike) -> Fraction:
        x = as_fraction(x)
        num, den = x.numerator, x.denominator
        xnums = self._xnums
        # floor(x * _xden) lies below an integer abscissa exactly when x * _xden does
        j = bisect.bisect_right(xnums, num * self._xden // den, 1, len(xnums) - 1) - 1
        return Fraction(self._icepts[j] * den + self._islopes[j] * num, self._q * den)

    def _scaled_sum(self, nums: Sequence[int], d: int) -> int:
        """``q * d * sum(u(v / d) for v in nums)``, exact, for ``d`` a multiple of ``_xden``."""
        xnums, icepts, islopes = self._xnums, self._icepts, self._islopes
        m, hi = d // self._xden, len(xnums) - 1
        total = 0
        for v in nums:
            # the piece holding v / d, found as in __call__: v // m is floor(v / d * _xden)
            j = bisect.bisect_right(xnums, v // m, 1, hi) - 1
            total += icepts[j] * d + islopes[j] * v
        return total

    def is_concave(self) -> bool:
        s = self.slopes
        return all(a >= b for a, b in zip(s, s[1:]))

    def is_convex(self) -> bool:
        s = self.slopes
        return all(a <= b for a, b in zip(s, s[1:]))

    def strictly_increasing(self) -> bool:
        return all(s > 0 for s in self.slopes)

    def nondecreasing(self) -> bool:
        return all(s >= 0 for s in self.slopes)


def _numerators(values, d: int) -> list[int]:
    """Numerators of the rationals ``values`` over ``d``, a multiple of every denominator."""
    return [v.numerator * (d // v.denominator) for v in values]


def eu_value(u: PiecewiseLinearFn, f: Payoff) -> Fraction:
    """Average utility ``(1/n) * sum(u(f(s)))``, exact, summed as integers over one denominator."""
    d = lcm(u._xden, f.den)
    return Fraction(u._scaled_sum(_nums_over(f, d), d), u._q * d * len(f))


def _increments(g: PiecewiseLinearFn, n: int) -> tuple[tuple[int, ...], int]:
    """Increments ``g(k/n) - g((k-1)/n)``, validated, as integers over their lcm."""
    grid = [g(Fraction(k, n)) for k in range(n + 1)]
    if grid[0] != 0 or grid[-1] != 1:
        raise ValueError("distortion must satisfy g(0) = 0 and g(1) = 1")
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise ValueError("distortion must be increasing")
    weights = [b - a for a, b in zip(grid, grid[1:])]
    wden = lcm(*(wt.denominator for wt in weights))
    return tuple(_numerators(weights, wden)), wden


def dual_value(g: PiecewiseLinearFn, f: Payoff) -> Fraction:
    """Choquet value: descending values weighted by distortion increments of ``k/n``.

    The increments are kept per ``n`` on the distortion itself.
    """
    n = len(f)
    if n not in g._weights:
        g._weights[n] = _increments(g, n)
    weights, wden = g._weights[n]
    ordered = sorted(f.nums, reverse=True)
    return Fraction(sum(v * wt for v, wt in zip(ordered, weights)), f.den * wden)


class Comparison(enum.Enum):
    BETTER = "better"
    WORSE = "worse"
    INDIFFERENT = "indifferent"
    INCOMPARABLE = "incomparable"


def mv_compare(f: Payoff, g: Payoff) -> Comparison:
    """Mean-variance partial order: better mean and lower variance."""
    f._check_same_length(g)
    em_f, em_g = expectation(f), expectation(g)
    va_f, va_g = variance(f), variance(g)
    if em_f == em_g and va_f == va_g:
        return Comparison.INDIFFERENT
    if em_f >= em_g and va_f <= va_g:
        return Comparison.BETTER
    if em_f <= em_g and va_f >= va_g:
        return Comparison.WORSE
    return Comparison.INCOMPARABLE


@dataclass(frozen=True)
class PreferenceModel:
    """A law-invariant preference over payoffs.

    ``family`` fixes the model's properties.  Every model is monotone.
    The ``ev``, ``eu`` and ``dual`` models are complete and secular, with a
    total evaluator (``value``); the mean-variance model (``mv``) is
    neither and carries only the partial-order comparator.
    """

    name: str
    family: str  # "ev" | "eu" | "dual" | "mv"
    utility: Optional[PiecewiseLinearFn] = None
    distortion: Optional[PiecewiseLinearFn] = None

    def has_total_evaluator(self) -> bool:
        return self.family != "mv"

    def value(self, f: Payoff) -> Fraction:
        if self.family == "ev":
            return expectation(f)
        if self.family == "eu":
            return eu_value(self.utility, f)
        if self.family == "dual":
            return dual_value(self.distortion, f)
        raise ValueError(f"model {self.name!r} has no total evaluator")


def expected_value_model(name: str = "expected-value") -> PreferenceModel:
    return PreferenceModel(name=name, family="ev")


def expected_utility_model(u: PiecewiseLinearFn, name: str = "expected-utility") -> PreferenceModel:
    if not u.strictly_increasing():
        raise ValueError("utility must be strictly increasing")
    return PreferenceModel(name=name, family="eu", utility=u)


def dual_model(distortion: PiecewiseLinearFn, name: str = "dual") -> PreferenceModel:
    """A dual model; the distortion is nondecreasing with ``g(0) = 0`` and ``g(1) = 1``."""
    if not isinstance(distortion, PiecewiseLinearFn):
        raise TypeError(f"distortion must be a PiecewiseLinearFn, got {type(distortion).__name__}")
    if not distortion.nondecreasing():
        raise ValueError("distortion must be increasing")
    if distortion(0) != 0 or distortion(1) != 1:
        raise ValueError("distortion must satisfy g(0) = 0 and g(1) = 1")
    return PreferenceModel(name=name, family="dual", distortion=distortion)


def mean_variance_model(name: str = "mean-variance") -> PreferenceModel:
    # not secular: no compensation makes a high-variance payoff indifferent
    # to a low-variance one at every level, and the order is incomplete
    return PreferenceModel(name=name, family="mv")


def _require_secular(m: PreferenceModel, what: str) -> None:
    if not m.has_total_evaluator():
        raise ValueError(
            f"{what} needs a monotone, secular model with a total evaluator; "
            f"{m.name!r} is not"
        )


def _rho_eu(u: PiecewiseLinearFn, g: Payoff, f: Payoff) -> Fraction:
    """Exact root of ``mean(u(f - r)) = mean(u(g))`` in ``r``, in one integer sweep over the kinks.

    ``phi(r) = sum(u(f(s) - r)) - sum(u(g(s)))`` is strictly decreasing
    and piecewise linear, with slope ``-D`` where ``D`` sums the slopes of
    ``u`` active at each ``f(s) - r``.  With ``d`` the lcm of the
    denominators of ``f``, ``g`` and the abscissae, the sweep holds the
    integers ``r * d``, ``phi * q * d`` and ``D * q``.  It starts at
    ``r = min f - max x``, where every argument lies on the top piece
    ``c + s * x``, so ``sum(u(f(s) - r))`` is ``n * c + s * (sum(f) - n * r)``
    in closed form.  It moves ``r`` up through the interior kinks ``f(s) - x_j`` in
    order, built as one ascending run per kink from the sorted ``f``,
    updating ``phi`` by ``-D * dr`` and ``D`` by ``slopes[j-1] - slopes[j]``,
    and solves the affine piece on which ``phi`` first drops to <= 0.
    """
    d = lcm(u._xden, f.den, g.den)
    fs, n, m, islopes = sorted(_nums_over(f, d)), len(f), d // u._xden, u._islopes
    r = fs[0] - u._xnums[-1] * m
    top = n * u._icepts[-1] * d + islopes[-1] * (sum(fs) - n * r)
    value = top - u._scaled_sum(_nums_over(g, d), d)
    active = islopes[-1] * n
    kinks = []
    for j in range(len(islopes) - 1, 0, -1):  # descending abscissae give ascending runs
        x, dd = u._xnums[j] * m, islopes[j - 1] - islopes[j]
        kinks += [(v - x, dd) for v in fs]
    kinks.sort()
    for k, dd in kinks:
        at_k = value - active * (k - r)
        if at_k <= 0:
            break
        r, value, active = k, at_k, active + dd
    return Fraction(r * active + value, d * active)


def certainty_equivalent(m: PreferenceModel, f: Payoff) -> Fraction:
    """The constant the model finds indifferent to ``f``: ``-rho(m, f, 0)``."""
    _require_secular(m, "certainty_equivalent")
    return -rho(m, f, Payoff.constant(0, len(f)))


def rho(m: PreferenceModel, g: Payoff, f: Payoff) -> Fraction:
    """Compensation making ``f - rho`` indifferent to ``g``: the strength of preference for ``f`` over ``g``.

    Positive exactly when the model prefers ``f``; with ``f`` constant at
    zero it is the negated certainty equivalent of ``g``.
    """
    _require_secular(m, "rho")
    f._check_same_length(g)
    if m.family == "eu":
        return _rho_eu(m.utility, g, f)
    return m.value(f) - m.value(g)  # ev and dual values translate one for one
