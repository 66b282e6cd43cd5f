"""Insurance contracts for a given risk: construction, classification, pricing.

A contract for risk ``w`` is identified with its state-contingent net
payoff.  Five nested classes are recognized:

* full (``fi``): ``-w - premium``;
* proportional (``pr``): ``-(1 - excess) * w - premium`` with excess in ``[0, 1)``;
* deductible-limit (``dl``): ``min((-w - deductible)^+, limit) - premium``;
* indemnity schedule (``is``): a weakly increasing function of the loss ``-w``;
* contingency schedule (``cs``): counter-monotone with ``w``.

Classification is exact: proportional membership is solved linearly over
state pairs, deductible-limit membership by fitting the three-piece
shape against the observed (loss, payment) scatter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Optional, Sequence, Union

from .orders import counter_monotone
from .space import Payoff, RationalLike, _common_nums, _from_ints, as_fraction, expectation

__all__ = [
    "InsuranceKind",
    "InsuranceContract",
    "PremiumPrinciple",
    "make_contract",
    "classify",
    "classify_detailed",
    "is_member",
    "premium",
    "fair_principle",
    "loading_principle",
]


class InsuranceKind(enum.Enum):
    FULL = "fi"
    PROPORTIONAL = "pr"
    DEDUCTIBLE_LIMIT = "dl"
    INDEMNITY_SCHEDULE = "is"
    CONTINGENCY_SCHEDULE = "cs"

    @classmethod
    def from_tag(cls, tag: Union[str, "InsuranceKind"]) -> "InsuranceKind":
        if isinstance(tag, InsuranceKind):
            return tag
        try:
            return cls(tag)
        except ValueError:
            raise ValueError(f"unknown insurance kind {tag!r}; expected one of fi, pr, dl, is, cs")


KIND_ORDER = (
    InsuranceKind.FULL,
    InsuranceKind.PROPORTIONAL,
    InsuranceKind.DEDUCTIBLE_LIMIT,
    InsuranceKind.INDEMNITY_SCHEDULE,
    InsuranceKind.CONTINGENCY_SCHEDULE,
)


@dataclass(frozen=True)
class InsuranceContract:
    payoff: Payoff
    declared_kind: InsuranceKind
    params: Mapping[str, object]


def _loss(w: Payoff) -> Payoff:
    return -w


def make_contract(
    w: Payoff,
    kind: Union[str, InsuranceKind],
    *,
    premium: RationalLike = 0,
    excess: Optional[RationalLike] = None,
    deductible: Optional[RationalLike] = None,
    limit: Optional[RationalLike] = None,
    schedule: Optional[Sequence[tuple[RationalLike, RationalLike]]] = None,
    payoff: Optional[Payoff] = None,
) -> InsuranceContract:
    """Build a contract of the given kind for risk ``w``; the payoff is computed exactly.

    Parameter requirements by kind: proportional needs ``excess`` in
    ``[0, 1)``; deductible-limit needs ``deductible`` and ``limit >= 0``;
    indemnity schedule needs ``schedule``, a map from every realized loss
    to a weakly increasing payment; contingency schedule needs an explicit
    ``payoff`` that is validated counter-monotone with ``w``.
    """
    kind = InsuranceKind.from_tag(kind)
    pi = as_fraction(premium)
    loss = _loss(w)

    if kind is InsuranceKind.FULL:
        return InsuranceContract(loss - pi, kind, {"premium": pi})

    if kind is InsuranceKind.PROPORTIONAL:
        if excess is None:
            raise ValueError("proportional contract needs excess")
        eps = as_fraction(excess)
        if not 0 <= eps < 1:
            raise ValueError(f"excess must lie in [0, 1), got {eps}")
        return InsuranceContract(
            loss * (1 - eps) - pi, kind, {"excess": eps, "premium": pi}
        )

    if kind is InsuranceKind.DEDUCTIBLE_LIMIT:
        if deductible is None or limit is None:
            raise ValueError("deductible-limit contract needs deductible and limit")
        d = as_fraction(deductible)
        lam = as_fraction(limit)
        if lam < 0:
            raise ValueError(f"limit must be >= 0, got {lam}")
        # the loss and the three parameters as integers over one denominator
        den = lcm(loss.den, d.denominator, lam.denominator, pi.denominator)
        dn, ln, pn = (c.numerator * (den // c.denominator) for c in (d, lam, pi))
        k = den // loss.den
        vals = tuple([min(max(lv * k - dn, 0), ln) - pn for lv in loss.nums])
        return InsuranceContract(
            _from_ints(vals, den), kind, {"deductible": d, "limit": lam, "premium": pi}
        )

    if kind is InsuranceKind.INDEMNITY_SCHEDULE:
        if schedule is None:
            raise ValueError("indemnity-schedule contract needs a schedule")
        table = {as_fraction(lv): as_fraction(pay) for lv, pay in schedule}
        points = sorted(table.items())
        for (l1, p1), (l2, p2) in zip(points, points[1:]):
            if p1 > p2:
                raise ValueError(
                    f"schedule must be weakly increasing in the loss: "
                    f"payment drops from {p1} at loss {l1} to {p2} at loss {l2}"
                )
        losses = loss.values
        missing = sorted(set(losses) - set(table))
        if missing:
            raise ValueError(f"schedule does not cover realized losses {missing}")
        vals = tuple(table[lv] - pi for lv in losses)
        return InsuranceContract(
            Payoff(vals), kind, {"schedule": tuple(points), "premium": pi}
        )

    if kind is InsuranceKind.CONTINGENCY_SCHEDULE:
        if payoff is None:
            raise ValueError("contingency-schedule contract needs an explicit payoff")
        if not counter_monotone(payoff, w):
            raise ValueError("payoff is not counter-monotone with the risk")
        return InsuranceContract(payoff, kind, {})

    raise AssertionError("unreachable")


def _fit_full(f: Payoff, w: Payoff) -> Optional[dict]:
    total = w + f
    if all(v == total.nums[0] for v in total.nums):
        return {"premium": Fraction(-total.nums[0], total.den)}
    return None


def _fit_proportional(f: Payoff, w: Payoff) -> Optional[dict]:
    # f + (1 - excess) * w must be constant with coverage (1 - excess) in (0, 1]
    fs, ws = f.nums, w.nums
    pair = next(
        ((s, t) for s in range(len(ws)) for t in range(s + 1, len(ws)) if ws[s] != ws[t]),
        None,
    )
    if pair is None:
        if all(v == fs[0] for v in fs):
            return {"excess": Fraction(0), "premium": -(f[1] + w[1])}
        return None
    s, t = pair
    coverage = Fraction((fs[t] - fs[s]) * w.den, (ws[s] - ws[t]) * f.den)
    if not 0 < coverage <= 1:
        return None
    # with coverage = p/q, f + coverage * w scaled by f.den * q * w.den is an integer vector
    p, q = coverage.numerator, coverage.denominator
    scaled = {a * q * w.den + p * b * f.den for a, b in zip(fs, ws)}
    if len(scaled) != 1:
        return None
    return {"excess": 1 - coverage, "premium": Fraction(-scaled.pop(), f.den * q * w.den)}


def _loss_profile(f: Payoff, w: Payoff) -> Optional[tuple[list[tuple[int, int]], int]]:
    """Distinct (loss, payment) points if ``f`` is a weakly increasing function of the loss.

    The points come as numerators over one denominator ``d``, returned with them.
    """
    (fs, ws), d = _common_nums(f, w)
    table: dict[int, int] = {}
    for wv, pay in zip(ws, fs):
        if table.setdefault(-wv, pay) != pay:
            return None
    points = sorted(table.items())
    for (_, p1), (_, p2) in zip(points, points[1:]):
        if p1 > p2:
            return None
    return points, d


def _fit_deductible_limit(f: Payoff, w: Payoff) -> Optional[dict]:
    profile = _loss_profile(f, w)
    if profile is None:
        return None
    points, d = profile
    if len({pay for _, pay in points}) == 1:
        premium = Fraction(-points[0][1], d)
        return {"deductible": Fraction(0), "limit": Fraction(0), "premium": premium}
    # Some point must lie on the slope-one segment, so its loss minus
    # payment determines deductible + premium; scan the candidates.
    for b in sorted({lv - pay for lv, pay in points}):
        low = sorted({pay for lv, pay in points if pay > lv - b})
        high = sorted({pay for lv, pay in points if pay < lv - b})
        if len(low) > 1 or len(high) > 1:
            continue
        on_line = [pay for lv, pay in points if pay == lv - b]
        floor = low[0] if low else min(pay for _, pay in points)
        cap = high[0] if high else max(pay for _, pay in points)
        if cap < floor:
            continue
        if on_line and (min(on_line) < floor or max(on_line) > cap):
            continue
        return {
            "deductible": Fraction(b + floor, d),
            "limit": Fraction(cap - floor, d),
            "premium": Fraction(-floor, d),
        }
    return None


def _fit_indemnity(f: Payoff, w: Payoff) -> Optional[dict]:
    profile = _loss_profile(f, w)
    if profile is None:
        return None
    points, d = profile
    schedule = tuple((Fraction(lv, d), Fraction(pay, d)) for lv, pay in points)
    return {"schedule": schedule, "premium": Fraction(0)}


def _fit_contingency(f: Payoff, w: Payoff) -> Optional[dict]:
    return {} if counter_monotone(f, w) else None


# kind -> fitter returning the fitted parameters, or None for a non-member
_FITTERS: dict[InsuranceKind, Callable[[Payoff, Payoff], Optional[dict]]] = {
    InsuranceKind.FULL: _fit_full,
    InsuranceKind.PROPORTIONAL: _fit_proportional,
    InsuranceKind.DEDUCTIBLE_LIMIT: _fit_deductible_limit,
    InsuranceKind.INDEMNITY_SCHEDULE: _fit_indemnity,
    InsuranceKind.CONTINGENCY_SCHEDULE: _fit_contingency,
}


def is_member(kind: Union[str, InsuranceKind], f: Payoff, w: Payoff) -> bool:
    """Whether ``f`` belongs to one insurance class for risk ``w``; runs only that class's fitter."""
    f._check_same_length(w)
    return _FITTERS[InsuranceKind.from_tag(kind)](f, w) is not None


def classify_detailed(f: Payoff, w: Payoff) -> dict[InsuranceKind, dict]:
    """Every insurance class ``f`` belongs to for risk ``w``, with fitted parameters."""
    f._check_same_length(w)
    fits = ((kind, _FITTERS[kind](f, w)) for kind in KIND_ORDER)
    return {kind: fit for kind, fit in fits if fit is not None}


def classify(f: Payoff, w: Payoff) -> frozenset[InsuranceKind]:
    """Every insurance class ``f`` belongs to for risk ``w``."""
    return frozenset(classify_detailed(f, w))


@dataclass(frozen=True)
class PremiumPrinciple:
    """Pricing map with the translation property ``price(h + c) = price(h) + theta * c``."""

    name: str
    base: Callable[[Payoff], Fraction]
    theta: Fraction

    def __post_init__(self) -> None:
        theta = as_fraction(self.theta)
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta}")
        object.__setattr__(self, "theta", theta)


def premium(pp: PremiumPrinciple, h: Payoff) -> Fraction:
    """Price of indemnity payoff ``h`` under the principle."""
    return pp.base(h)


def fair_principle() -> PremiumPrinciple:
    """Actuarially fair pricing: the premium is the expected indemnity."""
    return PremiumPrinciple("fair", expectation, Fraction(1))


def loading_principle(load: RationalLike) -> PremiumPrinciple:
    """Expected value plus a proportional loading: ``(1 + load) * E[h]``."""
    lam = as_fraction(load)
    if lam < 0:
        raise ValueError(f"load must be >= 0, got {lam}")
    factor = 1 + lam

    def base(h: Payoff) -> Fraction:
        return factor * expectation(h)

    return PremiumPrinciple(f"loading[{lam}]", base, factor)
