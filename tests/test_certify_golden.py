"""Every certify and compare report over the zoo matches a recorded digest.

The matrix is every public check over the ``conftest.build_zoo()`` models
at two budgets: ten certify properties per model (the premium check under
both the fair and a 1/5-loading principle, so eleven reports), and the
eight compare properties over all 25 ordered pairs, 510 reports in all.
Each report contributes its serialized JSON and the ``repr`` of its
witness, which shows whether ``lhs``/``rhs`` are ``Fraction``.  Any change
to a verdict, witness, trial count, note or neutrality detail changes the
digest.
"""

import hashlib
from fractions import Fraction as F

from riskprop import (
    SearchBudget,
    check_neutrality,
    check_premium_propensity,
    check_propensity,
    check_strong_risk_aversion,
    check_weak_risk_aversion,
    compare_propensity,
    compare_strong,
    compare_weak,
    fair_principle,
    loading_principle,
)
from riskprop.certify import PROPENSITY_KINDS
from riskprop.serialize import dumps, report_to_obj
from conftest import build_zoo

BUDGETS = (
    SearchBudget(max_n=4, exhaustive_n=3, trials=8, seed=1),
    SearchBudget(
        max_n=3, exhaustive_n=3, trials=8, seed=2,
        value_grid=(F(-3, 2), F(-1, 3), F(0), F(1, 2), F(2)),
    ),
)

DIGEST = "a3080680fd413f4d"


def _reports():
    zoo = build_zoo()
    names = sorted(zoo)
    principles = (fair_principle(), loading_principle(F(1, 5)))
    for budget in BUDGETS:
        for name in names:
            m = zoo[name]
            yield check_weak_risk_aversion(m, budget)
            yield check_strong_risk_aversion(m, budget)
            yield check_neutrality(m, budget)
            for pp in principles:
                yield check_premium_propensity(m, pp, budget)
            for kind in PROPENSITY_KINDS:
                yield check_propensity(kind, m, budget)
        for a in names:
            for b in names:
                mA, mB = zoo[a], zoo[b]
                yield compare_weak(mA, mB, budget)
                yield compare_strong(mA, mB, budget)
                for kind in PROPENSITY_KINDS:
                    yield compare_propensity(kind, mA, mB, budget)


def test_zoo_reports_unchanged():
    digest = hashlib.sha256()
    count = 0
    for r in _reports():
        digest.update(dumps(report_to_obj(r)).encode())
        digest.update(repr(r.witness).encode() + b"\n")
        count += 1
    assert count == 510
    assert digest.hexdigest()[:16] == DIGEST
