import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from riskprop import (
    MpsStep,
    Payoff,
    QuantileTable,
    better_hedge,
    concave_order,
    counter_monotone,
    dyadic_condition,
    expectation,
    fsd,
    is_best_hedge,
    recognize_mps,
    stop_loss,
)
from conftest import P


def stop_loss_oracle(f: Payoff, g: Payoff) -> bool:
    """Mean equality plus capped-expectation dominance on the merged value grid."""
    if sum(f.values) != sum(g.values):
        return False
    for c in set(f.values) | set(g.values):
        ef = sum(min(v, c) for v in f.values)
        eg = sum(min(v, c) for v in g.values)
        if ef < eg:
            return False
    return True


def random_payoff(rng, n, denominators=(1, 2)):
    return Payoff(
        tuple(F(rng.randint(-8, 8), rng.choice(denominators)) for _ in range(n))
    )


def random_spread_of(rng, f, steps=1):
    g = f
    for _ in range(steps):
        pairs = [
            (s1, s2)
            for s1 in range(1, len(f) + 1)
            for s2 in range(1, len(f) + 1)
            if s1 != s2 and g[s1] <= g[s2]
        ]
        if not pairs:
            return g
        s1, s2 = rng.choice(pairs)
        g = MpsStep(s1, s2, F(rng.randint(1, 4), 2)).apply(g)
    return g


class TestConcaveOrder:
    def test_mean_dominates_spread(self):
        assert concave_order(P(1, 1), P(0, 2))

    def test_asymmetry(self):
        assert not concave_order(P(0, 2), P(1, 1))

    def test_single_spread_pair(self):
        f, g = P(0, 2, 4), P(-1, 3, 4)
        assert stop_loss_oracle(f, g)
        assert concave_order(f, g)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            concave_order(P(1), P(1, 1))

    def test_agrees_with_stop_loss_oracle(self):
        rng = random.Random(101)
        for _ in range(400):
            n = rng.randint(1, 10)
            f = random_payoff(rng, n)
            if rng.random() < 0.5:
                g = random_spread_of(rng, f, rng.randint(1, 3))
            else:
                g = random_payoff(rng, n)
            assert concave_order(f, g) == stop_loss_oracle(f, g)

    def test_expectation_dominates(self):
        rng = random.Random(102)
        for _ in range(100):
            g = random_payoff(rng, rng.randint(1, 8))
            const = Payoff.constant(expectation(g), len(g))
            assert concave_order(const, g)

    def test_stop_loss_helper_matches_oracle_arithmetic(self):
        f = P(0, 2, 4)
        assert stop_loss(f, 3) == F(5, 3)
        assert stop_loss(f, -1) == -1


class TestFsd:
    def test_componentwise(self):
        assert fsd(P(1, 2), P(0, 2))

    def test_crossing(self):
        assert not fsd(P(0, 2), P(1, 1))

    def test_reflexive(self):
        assert fsd(P(3, 5, 7), P(3, 5, 7))


class TestRecognizeMps:
    def test_single_spread(self):
        step = recognize_mps(P(0, 2, 4), P(-1, 3, 4))
        assert step == MpsStep(1, 2, F(1))

    def test_identical_payoffs_get_zero_delta(self):
        assert recognize_mps(P(1, 1), P(1, 1)) == MpsStep(1, 2, F(0))

    def test_pure_swap_is_not_a_spread(self):
        assert recognize_mps(P(0, 2), P(2, 0)) is None

    def test_wrong_direction(self):
        # moving mass from the high state to the low one is a contraction
        assert recognize_mps(P(0, 2), P(1, 1)) is None

    def test_single_state_has_no_witness(self):
        assert recognize_mps(P(5), P(5)) is None

    def test_recognized_step_implies_concave_order(self):
        rng = random.Random(103)
        for _ in range(200):
            f = random_payoff(rng, rng.randint(2, 7))
            g = random_spread_of(rng, f)
            step = recognize_mps(f, g)
            assert step is not None
            assert step.apply(f) == g
            assert concave_order(f, g)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            MpsStep(1, 1, F(1))
        with pytest.raises(ValueError):
            MpsStep(1, 2, F(-1))
        with pytest.raises(ValueError):
            MpsStep(2, 1, F(1)).apply(P(0, 2))


class TestCounterMonotone:
    def test_rain_insurance(self):
        assert counter_monotone(P(1, 0, 0), P(0, 1, 1))

    def test_drought_insurance_is_not(self):
        assert not counter_monotone(P(0, 1, 0), P(0, 1, 1))

    def test_constant_payoff(self):
        rng = random.Random(104)
        for _ in range(20):
            w = random_payoff(rng, 4)
            assert counter_monotone(P(3, 3, 3, 3), w)


class TestBetterHedge:
    def test_rain_beats_drought_for_viticulturist(self):
        assert better_hedge(P(1, 0, 0), P(0, 1, 0), P(0, 1, 1))

    def test_reflexive(self):
        f = P(2, 0, 1)
        assert better_hedge(f, f, P(5, -1, 0))

    def test_drought_does_not_beat_rain(self):
        assert not better_hedge(P(0, 1, 0), P(1, 0, 0), P(0, 1, 1))

    def test_requires_equal_distribution(self):
        assert not better_hedge(P(1, 1), P(0, 2), P(0, 1))

    def test_counter_monotone_is_best_hedge_exhaustively(self):
        # counter-monotone contracts beat every rearrangement, checked over
        # all permutations for sizes up to 6
        rng = random.Random(105)
        for n in range(2, 7):
            for _ in range(8):
                w = random_payoff(rng, n, denominators=(1,))
                draws = sorted(
                    (F(rng.randint(-4, 4)) for _ in range(n)), reverse=True
                )
                order = sorted(range(n), key=lambda i: (w.values[i], i))
                vals = [F(0)] * n
                for rank, i in enumerate(order):
                    vals[i] = draws[rank]
                f = Payoff(tuple(vals))
                assert counter_monotone(f, w)
                for perm in set(permutations(f.values)):
                    assert better_hedge(f, Payoff(perm), w)

    def test_better_hedge_implies_concave_order_of_positions(self):
        rng = random.Random(106)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 5)
            w = random_payoff(rng, n)
            f = random_payoff(rng, n)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            g = f.permute(perm)
            if better_hedge(f, g, w):
                assert concave_order(w + f, w + g)
                checked += 1


class TestIsBestHedge:
    def test_matches_brute_force(self):
        rng = random.Random(107)
        grid = (F(-1), F(0), F(2))
        for _ in range(60):
            n = rng.randint(2, 5)
            w = Payoff(tuple(rng.choice(grid) for _ in range(n)))
            f = Payoff(tuple(rng.choice(grid) for _ in range(n)))
            brute = all(
                better_hedge(f, Payoff(perm), w) for perm in set(permutations(f.values))
            )
            assert is_best_hedge(f, w) == brute

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_tied_levels(self, data):
        # two- and three-value grids force several states of w onto one level
        n = data.draw(st.integers(min_value=1, max_value=6))
        grid = data.draw(st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=2),
            min_size=2, max_size=3, unique=True,
        ))
        values = st.lists(st.sampled_from(grid), min_size=n, max_size=n)
        w = Payoff(tuple(data.draw(values)))
        f = Payoff(tuple(data.draw(values)))
        brute = all(better_hedge(f, Payoff(perm), w) for perm in set(permutations(f.values)))
        assert is_best_hedge(f, w) == brute


class TestConditioningPreservesOrder:
    def test_discretized_pairs_stay_ordered(self):
        rng = random.Random(108)
        for _ in range(30):
            f = random_payoff(rng, rng.randint(2, 6))
            g = random_spread_of(rng, f, rng.randint(1, 2))
            qf, qg = QuantileTable.from_payoff(f), QuantileTable.from_payoff(g)
            for level in range(1, 5):
                assert concave_order(
                    dyadic_condition(qf, level), dyadic_condition(qg, level)
                )
