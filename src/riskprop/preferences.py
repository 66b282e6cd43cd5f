"""Preference models over payoffs: expected utility, the dual model, and friends.

Built-in evaluators are exact.  Utilities and distortions are piecewise
linear with rational breakpoints, so certainty equivalents and
compensation amounts solve to exact rationals; a user-supplied float
evaluator falls back to bisection at tolerance 1e-12.

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
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Optional, Union

from .space import Payoff, RationalLike, as_fraction, expectation, variance

__all__ = [
    "PiecewiseLinearFn",
    "Comparison",
    "PreferenceModel",
    "expected_value_model",
    "expected_utility_model",
    "dual_model",
    "mean_variance_model",
    "custom_model",
    "eu_value",
    "dual_value",
    "mv_compare",
    "certainty_equivalent",
    "rho",
]

BISECTION_TOL = 1e-12

Distortion = Union["PiecewiseLinearFn", Callable[[Fraction], Fraction]]


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
        # derived once; not dataclass fields, so eq, hash and repr see only the breakpoints
        object.__setattr__(self, "xs", xs)
        slopes = tuple((y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(pts, pts[1:]))
        object.__setattr__(self, "slopes", slopes)

    @classmethod
    def identity(cls) -> "PiecewiseLinearFn":
        return cls(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))

    def __call__(self, x: RationalLike) -> Fraction:
        x = as_fraction(x)
        pts = self.breakpoints
        idx = bisect.bisect_left(self.xs, x)
        if idx == 0:
            (x1, y1), s = pts[0], self.slopes[0]
            return y1 + s * (x - x1)
        if idx == len(pts):
            (x2, y2), s = pts[-1], self.slopes[-1]
            return y2 + s * (x - x2)
        x2, y2 = pts[idx]
        if x == x2:
            return y2
        x1, y1 = pts[idx - 1]
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)

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

    def inverse(self, y: RationalLike) -> Fraction:
        """Exact preimage for a strictly increasing function."""
        if not self.strictly_increasing():
            raise ValueError("inverse needs a strictly increasing function")
        y = as_fraction(y)
        pts = self.breakpoints
        ys = [py for _, py in pts]
        idx = bisect.bisect_left(ys, y)
        if idx == 0:
            (x1, y1), s = pts[0], self.slopes[0]
            return x1 + (y - y1) / s
        if idx == len(pts):
            (x2, y2), s = pts[-1], self.slopes[-1]
            return x2 + (y - y2) / s
        x2, y2 = pts[idx]
        if y == y2:
            return x2
        x1, y1 = pts[idx - 1]
        return x1 + (x2 - x1) * (y - y1) / (y2 - y1)


def eu_value(u: PiecewiseLinearFn, f: Payoff) -> Fraction:
    """Average utility ``(1/n) * sum(u(f(s)))``, exact."""
    return Fraction(sum(u(v) for v in f.values), len(f))


@lru_cache(maxsize=1024)
def _distortion_weights(g: Distortion, n: int) -> tuple[Fraction, ...]:
    """Increments ``g(k/n) - g((k-1)/n)``, validated as a distortion on the grid."""
    grid = [g(Fraction(k, n)) for k in range(n + 1)]
    if grid[0] != 0 or grid[-1] != 1:
        raise ValueError("distortion must satisfy g(0) = 0 and g(1) = 1")
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise ValueError("distortion must be increasing")
    return tuple(b - a for a, b in zip(grid, grid[1:]))


def dual_value(g: Distortion, f: Payoff) -> Fraction:
    """Choquet value: descending values weighted by distortion increments of ``k/n``."""
    weights = _distortion_weights(g, len(f))
    ordered = sorted(f.values, reverse=True)
    return sum((v * wt for v, wt in zip(ordered, weights)), Fraction(0))


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

    Complete models carry a total evaluator (``value``); the mean-variance
    model instead carries only the partial-order comparator.  ``family``
    selects exact algebra for the built-ins; ``custom`` models solve by
    bisection.
    """

    name: str
    family: str  # "ev" | "eu" | "dual" | "mv" | "custom"
    monotone: bool
    secular: bool
    complete: bool
    utility: Optional[PiecewiseLinearFn] = None
    distortion: Optional[Distortion] = None
    evaluator: Optional[Callable[[Payoff], float]] = None

    def has_total_evaluator(self) -> bool:
        return self.family in ("ev", "eu", "dual", "custom")

    def value(self, f: Payoff) -> Union[Fraction, float]:
        if self.family == "ev":
            return expectation(f)
        if self.family == "eu":
            return eu_value(self.utility, f)
        if self.family == "dual":
            return dual_value(self.distortion, f)
        if self.family == "custom":
            return self.evaluator(f)
        raise ValueError(f"model {self.name!r} has no total evaluator")

    def compare(self, f: Payoff, g: Payoff) -> Comparison:
        if self.family == "mv":
            return mv_compare(f, g)
        a, b = self.value(f), self.value(g)
        if a > b:
            return Comparison.BETTER
        if a < b:
            return Comparison.WORSE
        return Comparison.INDIFFERENT


def expected_value_model() -> PreferenceModel:
    return PreferenceModel(
        name="expected-value", family="ev", monotone=True, secular=True, complete=True
    )


def expected_utility_model(u: PiecewiseLinearFn, name: str = "expected-utility") -> PreferenceModel:
    if not u.strictly_increasing():
        raise ValueError("utility must be strictly increasing")
    return PreferenceModel(
        name=name, family="eu", monotone=True, secular=True, complete=True, utility=u
    )


def dual_model(distortion: Distortion, name: str = "dual") -> PreferenceModel:
    if isinstance(distortion, PiecewiseLinearFn):
        if not distortion.nondecreasing():
            raise ValueError("distortion must be increasing")
        if distortion(Fraction(0)) != 0 or distortion(Fraction(1)) != 1:
            raise ValueError("distortion must satisfy g(0) = 0 and g(1) = 1")
    return PreferenceModel(
        name=name,
        family="dual",
        monotone=True,
        secular=True,
        complete=True,
        distortion=distortion,
    )


def mean_variance_model() -> PreferenceModel:
    # not secular: no compensation makes a high-variance payoff indifferent
    # to a low-variance one at every level, and the order is incomplete
    return PreferenceModel(
        name="mean-variance", family="mv", monotone=True, secular=False, complete=False
    )


def custom_model(
    evaluator: Callable[[Payoff], float],
    name: str = "custom",
    monotone: bool = True,
    secular: bool = True,
) -> PreferenceModel:
    return PreferenceModel(
        name=name,
        family="custom",
        monotone=monotone,
        secular=secular,
        complete=True,
        evaluator=evaluator,
    )


def _require_secular(m: PreferenceModel, what: str) -> None:
    if not (m.monotone and m.secular and m.has_total_evaluator()):
        raise ValueError(
            f"{what} needs a monotone, secular model with a total evaluator; "
            f"{m.name!r} is not"
        )


def _bisect_decreasing(fn: Callable[[float], float], lo: float, hi: float) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo < 0 or fhi > 0:
        raise ValueError(
            "bracket failure: evaluator is not monotone on the bracket "
            f"[{lo}, {hi}] (endpoint signs {flo:+.3g}, {fhi:+.3g})"
        )
    while hi - lo > BISECTION_TOL:
        mid = (lo + hi) / 2
        if fn(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _rho_eu(u: PiecewiseLinearFn, g: Payoff, f: Payoff) -> Fraction:
    """Exact root of ``mean(u(f - r)) = mean(u(g))`` in ``r``, in one sweep over the kinks.

    ``phi(r) = sum(u(f(s) - r)) - len(f) * mean(u(g))`` is strictly
    decreasing and piecewise linear, with slope ``-D`` where ``D`` sums
    the slopes of ``u`` active at each ``f(s) - r``.  It is evaluated once,
    at ``r = min f - max x`` where every argument sits on the top piece;
    the sweep then moves ``r`` up through the interior kinks
    ``f(s) - x_j`` in increasing order, updating ``phi`` by ``-D * dr``
    and ``D`` by ``slopes[j-1] - slopes[j]``, and solves the affine piece
    on which ``phi`` first drops to zero or below.
    """
    slopes = u.slopes
    r = f.min_value() - u.xs[-1]
    value = sum(u(v - r) for v in f.values) - eu_value(u, g) * len(f)
    active = slopes[-1] * len(f)
    interior = [(x, slopes[j - 1] - slopes[j]) for j, x in enumerate(u.xs[1:-1], 1)]
    kinks = sorted(((v - x, dd) for v in f.values for x, dd in interior), key=itemgetter(0))
    for k, dd in kinks:
        at_k = value - active * (k - r)
        if at_k <= 0:
            break
        r, value, active = k, at_k, active + dd
    return r + value / active


def certainty_equivalent(m: PreferenceModel, f: Payoff) -> Union[Fraction, float]:
    """The constant the model finds indifferent to ``f``."""
    _require_secular(m, "certainty_equivalent")
    if m.family == "ev":
        return expectation(f)
    if m.family == "dual":
        return m.value(f)  # constants evaluate to themselves
    if m.family == "eu":
        return m.utility.inverse(eu_value(m.utility, f))
    lo, hi = float(f.min_value()), float(f.max_value())
    if lo == hi:
        return lo
    target = m.value(f)
    n = len(f)
    return _bisect_decreasing(
        lambda c: target - m.value(Payoff.constant(Fraction(c), n)), lo, hi
    )


def rho(m: PreferenceModel, g: Payoff, f: Payoff) -> Union[Fraction, float]:
    """Compensation making ``f - rho`` indifferent to ``g``: the strength of preference for ``f`` over ``g``.

    Positive exactly when the model prefers ``f``; with ``f`` constant at
    zero it is the negated certainty equivalent of ``g``.
    """
    _require_secular(m, "rho")
    f._check_same_length(g)
    if m.family == "ev":
        return expectation(f) - expectation(g)
    if m.family == "dual":
        return m.value(f) - m.value(g)  # Choquet values translate one-for-one
    if m.family == "eu":
        return _rho_eu(m.utility, g, f)
    spread = float(f.max_value() - g.min_value()) + 1.0
    target = m.value(g)
    return _bisect_decreasing(
        lambda r: m.value(f - Fraction(r)) - target, -spread, spread
    )
