"""Insurance contracts for a given risk: construction, classification, pricing.

A contract for risk ``w`` is identified with its state-contingent net
payoff.  Five classes are recognized, nested as fi ⊂ pr ⊂ is,
fi ⊂ dl ⊂ is and is ⊂ cs:

* full (``fi``): ``-w - premium``;
* proportional (``pr``): ``-(1 - excess) * w - premium`` with excess in ``[0, 1)``;
* deductible-limit (``dl``): ``min((-w - deductible)^+, limit) - premium``;
* indemnity schedule (``is``): a weakly increasing function of the loss ``-w``;
* contingency schedule (``cs``): counter-monotone with ``w``.

Classification is exact and starts from the (loss, payment) profile.
Each of fi, pr, dl and is makes the payment a weakly increasing function
of the loss, which makes it counter-monotone with ``w``; without such a
profile only cs can hold.  On the profile's points, full membership asks
for a constant payment minus loss, proportional membership for one line
of slope in ``(0, 1]``, and deductible-limit membership for a fit of the
three-piece shape.  :func:`classify_detailed` computes the profile once
for all five classes.
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


def _full_from(points: list[tuple[int, int]], d: int) -> Optional[dict]:
    # f + w, the payment minus the loss, must be constant
    premium = points[0][0] - points[0][1]
    if all(lv - pay == premium for lv, pay in points):
        return {"premium": Fraction(premium, d)}
    return None


def _proportional_from(points: list[tuple[int, int]], d: int) -> Optional[dict]:
    # the points must lie on one line of slope coverage = 1 - excess in (0, 1]
    l0, p0 = points[0]
    if len(points) == 1:
        return {"excess": Fraction(0), "premium": Fraction(l0 - p0, d)}
    l1, p1 = points[1]
    coverage = Fraction(p1 - p0, l1 - l0)
    if not 0 < coverage <= 1:
        return None
    a, b = coverage.numerator, coverage.denominator
    if any((pay - p0) * b != (lv - l0) * a for lv, pay in points):
        return None
    return {"excess": 1 - coverage, "premium": Fraction(a * l0 - b * p0, b * d)}


def _deductible_limit_from(points: list[tuple[int, int]], d: int) -> Optional[dict]:
    lowest, highest = points[0][1], points[-1][1]  # payments rise with the loss
    if lowest == highest:
        return {"deductible": Fraction(0), "limit": Fraction(0), "premium": Fraction(-lowest, d)}
    # Some point must lie on the slope-one segment, so its loss minus
    # payment determines deductible + premium; scan the candidates.
    for b in sorted({lv - pay for lv, pay in points}):
        low = {pay for lv, pay in points if pay > lv - b}
        if len(low) > 1:
            break  # the points above the line only gain members as b grows
        high = {pay for lv, pay in points if pay < lv - b}
        if len(high) > 1:
            continue
        on_line = [pay for lv, pay in points if pay == lv - b]
        floor = low.pop() if low else lowest
        cap = high.pop() if high else highest
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


def _indemnity_from(points: list[tuple[int, int]], d: int) -> dict:
    schedule = tuple((Fraction(lv, d), Fraction(pay, d)) for lv, pay in points)
    return {"schedule": schedule, "premium": Fraction(0)}


def _on_profile(
    fit: Callable[[list[tuple[int, int]], int], Optional[dict]]
) -> Callable[[Payoff, Payoff], Optional[dict]]:
    """The fitter ``(f, w)`` that runs ``fit`` on the loss profile; no profile, no fit."""

    def fitter(f: Payoff, w: Payoff) -> Optional[dict]:
        profile = _loss_profile(f, w)
        return None if profile is None else fit(*profile)

    return fitter


_fit_full = _on_profile(_full_from)
_fit_proportional = _on_profile(_proportional_from)
_fit_deductible_limit = _on_profile(_deductible_limit_from)
_fit_indemnity = _on_profile(_indemnity_from)


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
    """Every insurance class ``f`` belongs to for risk ``w``, with fitted parameters.

    Keys come in ``KIND_ORDER``.  Without a loss profile only cs can
    hold; with one, is and cs hold and only fi, pr and dl are fitted.
    """
    f._check_same_length(w)
    profile = _loss_profile(f, w)
    if profile is None:
        fits = {InsuranceKind.CONTINGENCY_SCHEDULE: _fit_contingency(f, w)}
    else:
        fits = {
            InsuranceKind.FULL: _full_from(*profile),
            InsuranceKind.PROPORTIONAL: _proportional_from(*profile),
            InsuranceKind.DEDUCTIBLE_LIMIT: _deductible_limit_from(*profile),
            InsuranceKind.INDEMNITY_SCHEDULE: _indemnity_from(*profile),
            InsuranceKind.CONTINGENCY_SCHEDULE: {},
        }
    return {kind: fit for kind, fit in fits.items() if fit is not None}


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
