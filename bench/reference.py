"""Reference computations written apart from ``riskprop``.

Nothing here imports the package under test.  Every function works on
plain tuples of :class:`fractions.Fraction` (payoff values, one per
equiprobable state) and on model objects in the package's JSON file
format, and each uses a different formula from the one the package
uses wherever a second formula exists:

* expected utility interpolates the utility's breakpoints directly;
* the Choquet (dual) value integrates the distortion of the decumulative
  distribution layer by layer instead of weighting sorted values;
* the concave order is decided by the stop-loss oracle
  ``E[min(f, c)] >= E[min(g, c)]`` at every observed cap ``c``;
* the better-hedge relation counts conditional events state by state;
* contract membership tests are pairwise or moment based.

The benchmark checks the package's outputs against these.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

Values = Sequence[Fraction]


# ---------------------------------------------------------------------------
# models


def breakpoints(model: Mapping) -> list[tuple[Fraction, Fraction]]:
    """The ``fn`` breakpoints of a model object, as exact pairs."""
    return [(Fraction(x), Fraction(y)) for x, y in model["fn"]["breakpoints"]]


def _piece(pts: Sequence[tuple[Fraction, Fraction]], x: Fraction):
    """The two breakpoints whose segment (or affine extension) covers ``x``."""
    if x <= pts[0][0]:
        return pts[0], pts[1]
    if x >= pts[-1][0]:
        return pts[-2], pts[-1]
    k = next(i for i in range(1, len(pts)) if x <= pts[i][0])
    return pts[k - 1], pts[k]


def interpolate(pts: Sequence[tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    """Piecewise-linear interpolation through ``pts``, extended affinely past both ends."""
    (x1, y1), (x2, y2) = _piece(pts, x)
    return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


def _slope(pts: Sequence[tuple[Fraction, Fraction]], x: Fraction) -> Fraction:
    (x1, y1), (x2, y2) = _piece(pts, x)
    return (y2 - y1) / (x2 - x1)


def eu_value(pts: Sequence[tuple[Fraction, Fraction]], f: Values) -> Fraction:
    """Expected utility: the mean of the interpolated utility over the states."""
    return sum((interpolate(pts, v) for v in f), Fraction(0)) / len(f)


def choquet_value(pts: Sequence[tuple[Fraction, Fraction]], f: Values) -> Fraction:
    """Dual value ``min f + sum_j (v_j - v_{j-1}) * g(P(f >= v_j))`` over the distinct values."""
    n = len(f)
    levels = sorted(set(f))
    total = levels[0]
    for lo, hi in zip(levels, levels[1:]):
        at_least = sum(1 for v in f if v >= hi)
        total += (hi - lo) * interpolate(pts, Fraction(at_least, n))
    return total


def mean(f: Values) -> Fraction:
    return sum(f, Fraction(0)) / len(f)


def model_value(model: Mapping, f: Values) -> Fraction:
    """Value of payoff ``f`` under an ``ev``, ``eu`` or ``dual`` model object."""
    kind = model["type"]
    if kind == "ev":
        return mean(f)
    if kind == "eu":
        return eu_value(breakpoints(model), f)
    if kind == "dual":
        return choquet_value(breakpoints(model), f)
    raise ValueError(f"no reference evaluator for model type {kind!r}")


def compensates(model: Mapping, x: Values, y: Values, r: Fraction) -> bool:
    """Whether ``r`` solves ``V(x - r) == V(y)`` exactly."""
    return model_value(model, [v - r for v in x]) == model_value(model, y)


def eu_more_risk_averse(model_a: Mapping, model_b: Mapping) -> bool:
    """Arrow-Pratt: ``u_B`` is a concave transform of ``u_A``.

    Both utilities are increasing and piecewise linear, so the transform
    ``u_B o u_A^-1`` has slope ``u_B'(x) / u_A'(x)`` at ``u_A(x)``; it is
    concave exactly when that ratio never rises from one piece of the
    merged breakpoint grid to the next (the two affine end pieces included).
    """
    pa, pb = breakpoints(model_a), breakpoints(model_b)
    grid = sorted({x for x, _ in pa} | {x for x, _ in pb})
    probes = [grid[0] - 1] + [(a + b) / 2 for a, b in zip(grid, grid[1:])] + [grid[-1] + 1]
    ratios = [_slope(pb, x) / _slope(pa, x) for x in probes]
    return all(r1 >= r2 for r1, r2 in zip(ratios, ratios[1:]))


def distortion_convex(model: Mapping) -> bool:
    """Yaari: a convex distortion makes the dual model strongly risk averse."""
    pts = breakpoints(model)
    s = [_slope(pts, (a + b) / 2) for (a, _), (b, _) in zip(pts, pts[1:])]
    return all(a <= b for a, b in zip(s, s[1:]))


def distortion_dominated(model: Mapping) -> bool:
    """A distortion below the identity makes the dual model weakly risk averse."""
    return all(y <= x for x, y in breakpoints(model))


# ---------------------------------------------------------------------------
# orders


def equal_in_distribution(f: Values, g: Values) -> bool:
    return len(f) == len(g) and sorted(f) == sorted(g)


def concave_geq(f: Values, g: Values) -> bool:
    """Stop-loss oracle: ``f`` is less risky than ``g`` in the concave order."""
    if len(f) != len(g) or sum(f) != sum(g):
        return False
    for c in set(f) | set(g):
        if sum(min(v, c) for v in f) < sum(min(v, c) for v in g):
            return False
    return True


def fsd(f: Values, g: Values) -> bool:
    """First-order dominance: ``P(f > t) >= P(g > t)`` at every observed ``t``."""
    return all(
        sum(1 for v in f if v > t) >= sum(1 for v in g if v > t) for t in set(f) | set(g)
    )


def better_hedge(f: Values, g: Values, w: Values) -> bool:
    """``f =d g`` and ``P(f <= t | w <= l) <= P(g <= t | w <= l)`` at every observed ``t`` and ``l``."""
    if not equal_in_distribution(f, g):
        return False
    for level in set(w):
        cut = [s for s in range(len(w)) if w[s] <= level]
        for t in set(f):
            if sum(1 for s in cut if f[s] <= t) > sum(1 for s in cut if g[s] <= t):
                return False
    return True


# ---------------------------------------------------------------------------
# contract membership for a risk ``w``


def is_fi(f: Values, w: Values) -> bool:
    """Full insurance: ``w + f`` is constant."""
    return len({a + b for a, b in zip(w, f)}) == 1


def is_pr(f: Values, w: Values) -> bool:
    """Proportional: ``f + c*w`` constant for a coverage ``c`` in ``(0, 1]``.

    The coverage is the least-squares slope ``-cov(f, w) / var(w)``; a
    constant ``w`` admits any coverage, so ``f`` must then be constant.
    """
    mw, mf = mean(w), mean(f)
    var_w = sum((a - mw) ** 2 for a in w)
    if var_w == 0:
        return len(set(f)) == 1
    c = -sum((a - mw) * (b - mf) for a, b in zip(w, f)) / var_w
    return 0 < c <= 1 and len({b + c * a for a, b in zip(w, f)}) == 1


def is_is(f: Values, w: Values) -> bool:
    """Indemnity schedule: the payment is a weakly increasing function of the loss ``-w``."""
    for s, t in combinations(range(len(w)), 2):
        if w[s] == w[t] and f[s] != f[t]:
            return False
        if w[s] > w[t] and f[s] > f[t]:
            return False
        if w[s] < w[t] and f[s] < f[t]:
            return False
    return True


def is_dl(f: Values, w: Values) -> bool:
    """Deductible-limit: the payment is ``clamp(loss - b, floor, cap)`` for some shift ``b``.

    With the lowest payment as floor and the highest as cap, every payment
    strictly between them lies on one slope-one line ``loss - b``; the
    floor points sit at or below that line and the cap points at or above.
    """
    if not is_is(f, w):
        return False
    points = {(-a, b) for a, b in zip(w, f)}
    floor, cap = min(f), max(f)
    if floor == cap:
        return True
    shifts = {loss - pay for loss, pay in points if floor < pay < cap}
    if len(shifts) > 1:
        return False
    lo = max(loss - floor for loss, pay in points if pay == floor)
    hi = min(loss - cap for loss, pay in points if pay == cap)
    if shifts:
        (b,) = shifts
        return lo <= b <= hi
    return lo <= hi


def is_cs(f: Values, w: Values) -> bool:
    """Contingency schedule: ``f`` and ``w`` never move the same way between two states."""
    return all((f[s] - f[t]) * (w[s] - w[t]) <= 0 for s, t in combinations(range(len(w)), 2))


MEMBERSHIP = {"fi": is_fi, "pr": is_pr, "dl": is_dl, "is": is_is, "cs": is_cs}
