import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from riskprop import (
    Lottery,
    Payoff,
    PiecewiseLinearFn,
    QuantileTable,
    as_fraction,
    dyadic_condition,
    equal_in_distribution,
    expectation,
    variance,
)
from conftest import P

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
payoffs = st.lists(rationals, min_size=1, max_size=7).map(lambda vs: Payoff(tuple(vs)))


class TestPayoff:
    def test_requires_at_least_one_state(self):
        with pytest.raises(ValueError):
            Payoff(())

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            P(0.5, 1)

    def test_accepts_strings_and_ints(self):
        assert P("1/3", 2, "0.5").values == (F(1, 3), F(2), F(1, 2))

    def test_arithmetic(self):
        f = P(1, 2)
        assert (f + P(1, 0)).values == (F(2), F(2))
        assert (f - 1).values == (F(0), F(1))
        assert (2 * f).values == (F(2), F(4))
        assert (-f).values == (F(-1), F(-2))
        assert (3 - f).values == (F(2), F(1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            P(1, 2) + P(1, 2, 3)

    def test_state_indexing_is_one_based(self):
        f = P(5, 7)
        assert f[1] == 5 and f[2] == 7
        with pytest.raises(IndexError):
            f[0]

    def test_permute(self):
        assert P(1, 2, 3).permute((3, 1, 2)).values == (F(3), F(1), F(2))
        with pytest.raises(ValueError):
            P(1, 2).permute((1, 1))


class TestAsFraction:
    def test_returns_a_fraction_itself(self):
        x = F(3, 7)
        assert as_fraction(x) is x

    def test_converts_int_and_str(self):
        for raw, want in ((3, F(3)), ("5/2", F(5, 2)), ("-0.25", F(-1, 4))):
            got = as_fraction(raw)
            assert got == want and type(got) is F

    def test_fraction_subclass_becomes_a_fraction(self):
        class Tagged(F):
            pass

        got = as_fraction(Tagged(1, 2))
        assert got == F(1, 2) and type(got) is F

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)


class TestPiecewiseLinearFnHash:
    def test_equal_functions_are_interchangeable_keys(self):
        a = PiecewiseLinearFn(((F(0), F(0)), (F(1, 3), F(1, 4)), (F(1), F(1))))
        b = PiecewiseLinearFn((("0", 0), ("1/3", "1/4"), (1, "1")))
        assert a == b and a is not b
        assert hash(a) == hash(b)
        table = {a: "first"}
        table[b] = "second"
        assert table == {b: "second"}
        assert PiecewiseLinearFn.identity() not in table


class TestExpectation:
    def test_constant(self):
        assert expectation(P(1, 1, 1)) == 1

    def test_same_lottery_as_constant(self):
        assert expectation(P(0, 2, 1)) == 1

    def test_symmetric_cancellation(self):
        assert expectation(P(2, -1, -1)) == 0

    def test_variance(self):
        assert variance(P(0, 2)) == 1
        assert variance(P(3, 3, 3)) == 0


class TestEqualInDistribution:
    def test_rain_vs_drought(self):
        assert equal_in_distribution(P(1, 0, 0), P(0, 1, 0))

    def test_identity(self):
        assert equal_in_distribution(P(1, 2), P(1, 2))

    def test_different_counts(self):
        assert not equal_in_distribution(P(1, 1, 0), P(1, 0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            equal_in_distribution(P(1), P(1, 1))

    @given(payoffs, st.randoms(use_true_random=False))
    def test_equivalence_relation(self, f, rng):
        assert equal_in_distribution(f, f)
        perm = list(range(1, len(f) + 1))
        rng.shuffle(perm)
        g = f.permute(perm)
        rng.shuffle(perm)
        h = g.permute(perm)
        assert equal_in_distribution(f, g) and equal_in_distribution(g, f)
        assert equal_in_distribution(g, h)
        assert equal_in_distribution(f, h)


class TestLottery:
    def test_from_payoff_groups_values(self):
        lot = Lottery.from_payoff(P(1, 0, 0))
        assert lot.atoms == ((F(0), F(2, 3)), (F(1), F(1, 3)))

    def test_validation(self):
        with pytest.raises(ValueError):
            Lottery(((F(1), F(1, 2)),))  # probabilities must sum to 1
        with pytest.raises(ValueError):
            Lottery(((F(1), F(1, 2)), (F(1), F(1, 2))))  # strictly increasing values


class TestQuantileTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileTable(((F(1, 2), F(0)),))  # must end at 1
        with pytest.raises(ValueError):
            QuantileTable(((F(1, 2), F(1)), (F(1), F(0))))  # increasing values

    def test_call_is_left_continuous_inverse(self):
        q = QuantileTable.from_payoff(P(0, 2))
        assert q(F(1, 2)) == 0
        assert q(F(3, 4)) == 2
        assert q(1) == 2

    def test_integrate_exact(self):
        q = QuantileTable.from_pieces(((F(1, 4), F(0)), (F(1), F(4))))
        assert q.integrate(0, F(1, 2)) == 1
        assert q.total_integral() == 3

    def test_from_pieces_merges_equal_values(self):
        q = QuantileTable.from_pieces(((F(1, 2), F(1)), (F(1), F(1))))
        assert q.pieces == ((F(1), F(1)),)


class TestDyadicCondition:
    def test_constant(self):
        assert dyadic_condition(QuantileTable.constant(3), 2).values == (F(3),) * 4

    def test_partition_aligned_step(self):
        q = QuantileTable.from_pieces(((F(1, 2), F(0)), (F(1), F(1))))
        assert dyadic_condition(q, 1).values == (F(0), F(1))

    def test_misaligned_step_averages(self):
        # integral of the step over (0, 1/2] is 0*(1/4) + 4*(1/4) = 1, so
        # the cell average is 2
        q = QuantileTable.from_pieces(((F(1, 4), F(0)), (F(1), F(4))))
        assert dyadic_condition(q, 1).values == (F(2), F(4))

    def test_level_zero(self):
        q = QuantileTable.from_payoff(P(0, 1, 5))
        assert dyadic_condition(q, 0).values == (F(2),)

    @pytest.mark.parametrize("level", range(0, 6))
    def test_tower_property(self, level):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 6)
            f = Payoff(tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)))
            q = QuantileTable.from_payoff(f)
            assert expectation(dyadic_condition(q, level)) == q.total_integral()

    def test_nesting_by_pairwise_averaging(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(1, 6)
            f = Payoff(tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)))
            q = QuantileTable.from_payoff(f)
            for level in range(0, 4):
                fine = dyadic_condition(q, level + 1).values
                coarse = dyadic_condition(q, level).values
                paired = tuple(
                    (fine[2 * i] + fine[2 * i + 1]) / 2 for i in range(len(coarse))
                )
                assert paired == coarse
