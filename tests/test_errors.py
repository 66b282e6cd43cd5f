"""Each input check the other tests do not reach raises ``ValueError`` with its own message."""

import re
from dataclasses import replace
from fractions import Fraction as F

import pytest

from riskprop import (
    Lottery,
    PiecewiseLinearFn,
    PremiumPrinciple,
    QuantileTable,
    Rearrangement,
    SearchBudget,
    check_weak_risk_aversion,
    dual_value,
    dyadic_condition,
    expectation,
    make_contract,
    replay_witness,
)
from riskprop.orders import MpsStep
from conftest import P, build_zoo

ZOO = build_zoo()
W = P(-2, -1, 0)
TABLE = QuantileTable(((F(1, 2), F(0)), (F(1), F(1))))
SMALL = SearchBudget(max_n=3, exhaustive_n=3, trials=10, seed=0)


def _holding_report():
    return check_weak_risk_aversion(ZOO["expected_value"], SMALL)


def _renamed_violation():
    report = check_weak_risk_aversion(ZOO["eu_convex_kink"], SMALL)
    assert report.violated
    return replace(report, property="no_such_property", head="no_such_property")


CASES = {
    "pr without excess": (lambda: make_contract(W, "pr"), "proportional contract needs excess"),
    "dl without deductible": (
        lambda: make_contract(W, "dl", limit=1),
        "deductible-limit contract needs deductible and limit",
    ),
    "dl without limit": (
        lambda: make_contract(W, "dl", deductible=1),
        "deductible-limit contract needs deductible and limit",
    ),
    "is without schedule": (
        lambda: make_contract(W, "is"),
        "indemnity-schedule contract needs a schedule",
    ),
    "cs without payoff": (
        lambda: make_contract(W, "cs"),
        "contingency-schedule contract needs an explicit payoff",
    ),
    "theta zero": (lambda: PremiumPrinciple("zero", expectation, F(0)), "theta must be positive, got 0"),
    "theta negative": (
        lambda: PremiumPrinciple("negative", expectation, F(-1, 2)),
        "theta must be positive, got -1/2",
    ),
    "rearrangement repeats a state": (
        lambda: Rearrangement((1, 1)),
        "not a permutation of 1..2: (1, 1)",
    ),
    "step from state 0": (lambda: MpsStep(0, 1, F(1)), "state indices are 1-based"),
    "empty lottery": (lambda: Lottery(()), "a lottery needs at least one atom"),
    "lottery with a zero probability": (
        lambda: Lottery(((F(0), F(0)), (F(1), F(1)))),
        "lottery probabilities must be positive",
    ),
    "empty quantile table": (lambda: QuantileTable(()), "a quantile table needs at least one piece"),
    "quantile endpoints repeat": (
        lambda: QuantileTable(((F(1), F(0)), (F(1), F(1)))),
        "piece endpoints must be strictly increasing",
    ),
    "quantile at zero": (lambda: TABLE(0), "argument must lie in (0, 1], got 0"),
    "integration bounds reversed": (
        lambda: TABLE.integrate(F(1, 2), F(1, 4)),
        "integration bounds must satisfy 0 <= a <= b <= 1, got (1/2, 1/4)",
    ),
    "negative dyadic level": (lambda: dyadic_condition(TABLE, -1), "level must be >= 0"),
    "empty value grid": (lambda: SearchBudget(value_grid=()), "value grid must be nonempty"),
    "replay without witness": (
        lambda: replay_witness(_holding_report(), ZOO["expected_value"]),
        "report has no witness",
    ),
    "replay of an unknown property": (
        lambda: replay_witness(_renamed_violation(), ZOO["eu_convex_kink"]),
        "cannot replay property 'no_such_property'",
    ),
    "decreasing distortion": (
        lambda: dual_value(
            PiecewiseLinearFn(((F(0), F(0)), (F(1, 3), F(1)), (F(2, 3), F(1, 2)), (F(1), F(1)))),
            P(0, 1, 2),
        ),
        "distortion must be increasing",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_value_error_names_the_problem(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
