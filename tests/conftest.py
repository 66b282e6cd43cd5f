import random
from fractions import Fraction

import pytest

from riskprop import (
    Payoff,
    PiecewiseLinearFn,
    dual_model,
    expected_utility_model,
    expected_value_model,
)


def P(*values) -> Payoff:
    return Payoff.of(*values)


F = Fraction


def concave_utility() -> PiecewiseLinearFn:
    # slope 1 below zero, 1/2 above
    return PiecewiseLinearFn(((F(-1), F(-1)), (F(0), F(0)), (F(1), F(1, 2))))


def convex_kink_utility() -> PiecewiseLinearFn:
    # slope 1/2 below zero, 1 above
    return PiecewiseLinearFn(((F(-1), F(-1, 2)), (F(0), F(0)), (F(1), F(1))))


def convex_distortion() -> PiecewiseLinearFn:
    return PiecewiseLinearFn(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1))))


def nonconvex_dominated_distortion() -> PiecewiseLinearFn:
    # below the identity everywhere but with slopes 3/4, 6/5, 21/20
    return PiecewiseLinearFn(
        ((F(0), F(0)), (F(1, 3), F(1, 4)), (F(2, 3), F(13, 20)), (F(1), F(1)))
    )


def build_zoo() -> dict:
    return {
        "eu_concave": expected_utility_model(concave_utility(), name="eu-concave"),
        "eu_convex_kink": expected_utility_model(convex_kink_utility(), name="eu-convex-kink"),
        "dual_convex": dual_model(convex_distortion(), name="dual-convex"),
        "dual_nonconvex": dual_model(
            nonconvex_dominated_distortion(), name="dual-nonconvex-dominated"
        ),
        "expected_value": expected_value_model(),
    }


def random_pl_models(seed: int, count: int) -> list:
    """``count`` random piecewise-linear models, EU and dual in turn, drawn from ``seed``.

    EU: 3 to 5 breakpoints at distinct integers in -4..6, each slope ``k/j``
    with ``k`` in 1..6 and ``j`` in 1..3.  Dual: 1 to 4 interior kinks at
    multiples of 1/12, integer increments 0..5 normalised to ``g(1) = 1``.
    """
    rng = random.Random(seed)
    models = []
    while len(models) < count:
        i = len(models)
        if i % 2 == 0:
            xs = sorted(rng.sample(range(-4, 7), rng.randint(3, 5)))
            ys = [F(0)]
            for a, b in zip(xs, xs[1:]):
                ys.append(ys[-1] + F(rng.randint(1, 6), rng.randint(1, 3)) * (b - a))
            fn, family = PiecewiseLinearFn(tuple(zip(map(F, xs), ys))), expected_utility_model
        else:
            xs = [0, *sorted(rng.sample(range(1, 12), rng.randint(1, 4))), 12]
            steps = [rng.randint(0, 5) for _ in xs[1:]]
            if not any(steps):
                continue
            ys = [F(sum(steps[:k]), sum(steps)) for k in range(len(xs))]
            fn, family = PiecewiseLinearFn(tuple((F(x, 12), y) for x, y in zip(xs, ys))), dual_model
        models.append(family(fn, name=f"random-{seed}-{i}"))
    return models


@pytest.fixture(scope="session")
def zoo() -> dict:
    return build_zoo()


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        status = "PASS" if report.passed else "FAIL"
        name = report.nodeid.split("::")[-1]
        print(f"\n[acceptance] {status} {name} ({report.duration:.2f}s)")
