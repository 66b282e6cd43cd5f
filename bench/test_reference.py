"""Hand-computed cases for the benchmark's reference computations.

Run with ``python3 -m pytest bench/test_reference.py``.
"""

from fractions import Fraction as F

import reference as R

CONCAVE = {"type": "eu", "fn": {"breakpoints": [["-1", "-1"], ["0", "0"], ["1", "1/2"]]}}
CONVEX_KINK = {"type": "eu", "fn": {"breakpoints": [["-1", "-1/2"], ["0", "0"], ["1", "1"]]}}
CONVEX_DIST = {"type": "dual", "fn": {"breakpoints": [["0", "0"], ["1/2", "1/4"], ["1", "1"]]}}
NONCONVEX_DIST = {
    "type": "dual",
    "fn": {"breakpoints": [["0", "0"], ["1/3", "1/4"], ["2/3", "13/20"], ["1", "1"]]},
}


def v(*xs):
    return tuple(F(x) for x in xs)


def test_eu_value_interpolates_and_extends():
    # u(2) = 1/2 + 2 * (1/2) - 1/2 = 1 on the top piece, u(-2) = -2 on the bottom piece
    assert R.model_value(CONCAVE, v(2, -2)) == F(-1, 2)
    # u(1/2) = 1/4, u(-1/2) = -1/2, u(0) = 0
    assert R.model_value(CONCAVE, v("1/2", "-1/2", 0)) == F(-1, 12)


def test_choquet_value_layers():
    # one layer of height 2 reached with probability 1/2: g(1/2) = 1/4
    assert R.model_value(CONVEX_DIST, v(0, 2)) == F(1, 2)
    # floor 1 plus a layer of height 3 with probability 1/3: g(1/3) = 1/6
    assert R.model_value(CONVEX_DIST, v(1, 1, 4)) == F(3, 2)
    identity = {"type": "dual", "fn": {"breakpoints": [["0", "0"], ["1", "1"]]}}
    assert R.model_value(identity, v(1, 1, 4)) == 2


def test_compensation_equation():
    # V(x - r) == V(y) with x = (1, 1), y = (0, 2) under the concave utility:
    # V(y) = (0 + 1) / 2 = 1/2 and V(1 - r) = (1 - r) / 2 on the top piece, so r = 0
    assert R.compensates(CONCAVE, v(1, 1), v(0, 2), F(0))
    assert not R.compensates(CONCAVE, v(1, 1), v(0, 2), F(1, 2))


def test_model_attitudes():
    assert R.eu_more_risk_averse(CONVEX_KINK, CONCAVE)
    assert not R.eu_more_risk_averse(CONCAVE, CONVEX_KINK)
    assert R.distortion_convex(CONVEX_DIST) and R.distortion_dominated(CONVEX_DIST)
    assert not R.distortion_convex(NONCONVEX_DIST) and R.distortion_dominated(NONCONVEX_DIST)


def test_stop_loss_oracle():
    assert R.concave_geq(v(1, 1), v(0, 2))
    assert not R.concave_geq(v(0, 2), v(1, 1))  # cap 1: 1 < 2
    assert not R.concave_geq(v(0, 3), v(1, 1))  # means differ


def test_fsd():
    assert R.fsd(v(1, 2), v(0, 2))
    assert not R.fsd(v(1, 1), v(0, 2))


def test_better_hedge_counts():
    w = v(0, 1)
    assert R.better_hedge(v(1, 0), v(0, 1), w)
    assert not R.better_hedge(v(0, 1), v(1, 0), w)  # on w <= 0: 1 state <= 0 against 0
    assert not R.better_hedge(v(1, 0), v(1, 1), w)  # not equally distributed


def test_membership_viticulturist():
    rain, drought, grapes = v(1, 0, 0), v(0, 1, 0), v(0, 1, 1)
    assert all(R.MEMBERSHIP[k](rain, grapes) for k in ("fi", "pr", "dl", "is", "cs"))
    assert not any(R.MEMBERSHIP[k](drought, grapes) for k in ("fi", "pr", "dl", "is", "cs"))


def test_membership_separates_classes():
    # half coverage: proportional, not full
    w = v(0, 2, 4)
    assert R.is_pr(v(0, -1, -2), w) and not R.is_fi(v(0, -1, -2), w)
    losses_0123 = v(0, -1, -2, -3)
    # deductible 1, limit 1: a step schedule, not proportional
    step = v(0, 0, 1, 1)
    assert R.is_is(step, losses_0123) and R.is_dl(step, losses_0123)
    assert R.is_cs(step, losses_0123) and not R.is_pr(step, losses_0123)
    # deductible 1/2, limit 2: payments 0, 1/2, 3/2, 2
    assert R.is_dl(v(0, "1/2", "3/2", 2), losses_0123)
    # increasing but with two slope-one shifts: an indemnity schedule only
    assert R.is_is(v(0, 1, 1, 2), losses_0123) and not R.is_dl(v(0, 1, 1, 2), losses_0123)
    # tied risk values with different payments: contingency but no schedule
    assert R.is_cs(v(0, 1), v(0, 0)) and not R.is_is(v(0, 1), v(0, 0))
