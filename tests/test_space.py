import copy
import pickle
import random
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

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


# ---------------------------------------------------------------------------
# The integer-vector Payoff against an oracle: the earlier dataclass, which
# stored its values as a tuple of Fractions.


@dataclass(frozen=True)
class FractionPayoff:
    values: tuple[F, ...]

    def __post_init__(self) -> None:
        vals = tuple(as_fraction(v) for v in self.values)
        if not vals:
            raise ValueError("a payoff needs at least one state")
        object.__setattr__(self, "values", vals)

    def __add__(self, other):
        if isinstance(other, FractionPayoff):
            return FractionPayoff(tuple(a + b for a, b in zip(self.values, other.values)))
        c = as_fraction(other)
        return FractionPayoff(tuple(v + c for v in self.values))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, FractionPayoff):
            return FractionPayoff(tuple(a - b for a, b in zip(self.values, other.values)))
        c = as_fraction(other)
        return FractionPayoff(tuple(v - c for v in self.values))

    def __rsub__(self, other):
        c = as_fraction(other)
        return FractionPayoff(tuple(c - v for v in self.values))

    def __neg__(self):
        return FractionPayoff(tuple(-v for v in self.values))

    def __mul__(self, scalar):
        c = as_fraction(scalar)
        return FractionPayoff(tuple(c * v for v in self.values))

    __rmul__ = __mul__

    def permute(self, mapping):
        return FractionPayoff(tuple(self.values[s - 1] for s in mapping))


def _oracle_expectation(f: FractionPayoff) -> F:
    return F(sum(f.values), len(f.values))


def _oracle_variance(f: FractionPayoff) -> F:
    m = _oracle_expectation(f)
    return F(sum((v - m) ** 2 for v in f.values), len(f.values))


# built from integer draws, which hypothesis generates much faster than st.fractions
mixed = st.builds(F, st.integers(min_value=-36, max_value=36), st.integers(min_value=1, max_value=12))
scalars = st.one_of(st.just(F(0)), st.integers(-5, 5).map(F), mixed)


@st.composite
def payoff_pairs(draw):
    """Two value lists of one length (1..8), denominators up to 12."""
    n = draw(st.integers(min_value=1, max_value=8))
    same = st.lists(mixed, min_size=n, max_size=n)
    return draw(same), draw(same)


def _same_values(got: Payoff, want: FractionPayoff) -> bool:
    return (
        type(got) is Payoff
        and got.values == want.values
        and all(type(v) is F for v in got.values)
    )


def _canonical(p: Payoff) -> bool:
    return (
        type(p.den) is int
        and p.den > 0
        and all(type(v) is int for v in p.nums)
        and gcd(p.den, *p.nums) == 1
        and p.values == tuple(F(v, p.den) for v in p.nums)
    )


class TestIntegerPayoff:
    @settings(max_examples=300, deadline=None)
    @given(payoff_pairs(), scalars)
    def test_arithmetic_matches_oracle(self, pair, c):
        a, b = pair
        f, g = Payoff(tuple(a)), Payoff(tuple(b))
        of, og = FractionPayoff(tuple(a)), FractionPayoff(tuple(b))
        for got, want in (
            (f + g, of + og),
            (f - g, of - og),
            (-f, -of),
            (f * c, of * c),
            (c * f, c * of),
            (f + c, of + c),
            (c + f, c + of),
            (f - c, of - c),
            (c - f, c - of),
        ):
            assert _same_values(got, want)
            assert _canonical(got)

    @settings(max_examples=300, deadline=None)
    @given(payoff_pairs(), st.randoms(use_true_random=False))
    def test_readers_match_oracle(self, pair, rng):
        a, b = pair
        f, g = Payoff(tuple(a)), Payoff(tuple(b))
        of = FractionPayoff(tuple(a))
        assert _canonical(f)
        for got, want in (
            (f.min_value(), min(of.values)),
            (f.max_value(), max(of.values)),
            (expectation(f), _oracle_expectation(of)),
            (variance(f), _oracle_variance(of)),
        ):
            assert got == want and type(got) is F
        assert f.ascending() == tuple(sorted(of.values))
        assert all(f[s] == of.values[s - 1] and type(f[s]) is F for s in range(1, len(f) + 1))
        assert equal_in_distribution(f, g) == (sorted(a) == sorted(b))
        mapping = list(range(1, len(f) + 1))
        rng.shuffle(mapping)
        assert _same_values(f.permute(mapping), of.permute(mapping))
        assert equal_in_distribution(f, f.permute(mapping))
        assert str(f) == "(" + ", ".join(str(v) for v in of.values) + ")"

    @settings(max_examples=300, deadline=None)
    @given(payoff_pairs())
    def test_equal_payoffs_built_differently_agree(self, pair):
        a, _ = pair
        f = Payoff(tuple(a))
        scaled = Payoff(tuple(F(v.numerator * 6, v.denominator * 6) for v in a))
        as_strings = Payoff.of(*(str(v) for v in a))
        via_sum = (f + f) * F(1, 2)
        for other in (scaled, as_strings, via_sum, Payoff(f.values)):
            assert other == f and hash(other) == hash(f)
            assert (other.nums, other.den) == (f.nums, f.den)
        assert len({f, scaled, as_strings, via_sum}) == 1

    def test_equal_halves_are_one_payoff(self):
        half, two_quarters = Payoff.of(F(1, 2)), Payoff.of(F(2, 4))
        assert half == two_quarters and hash(half) == hash(two_quarters)
        assert (half.nums, half.den) == ((1,), 2)
        assert Payoff.of(0, 0).den == 1
        assert Payoff.of("1/3", "1/6").nums == (2, 1)

    @settings(max_examples=100, deadline=None)
    @given(payoff_pairs())
    def test_repr_is_unchanged(self, pair):
        a, _ = pair
        assert repr(Payoff(tuple(a))) == repr(FractionPayoff(tuple(a))).replace(
            "FractionPayoff", "Payoff", 1
        )

    def test_repr_literal(self):
        assert repr(P(1, "1/2")) == "Payoff(values=(Fraction(1, 1), Fraction(1, 2)))"

    def test_assignment_raises(self):
        f = P(1, 2)
        for name in ("values", "nums", "den", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, name, (1,))
        with pytest.raises(FrozenInstanceError):
            del f.nums
        assert f == P(1, 2)

    @settings(max_examples=100, deadline=None)
    @given(payoff_pairs())
    def test_copy_and_pickle_round_trip(self, pair):
        a, _ = pair
        f = Payoff(tuple(a))
        for other in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(other) is Payoff and other == f and hash(other) == hash(f)
            assert _canonical(other)

    def test_floats_are_refused(self):
        f = P(1, 2)
        for make in (
            lambda: Payoff((0.5,)),
            lambda: Payoff.of(1, 0.5),
            lambda: Payoff.constant(0.5, 2),
            lambda: f + 0.5,
            lambda: 0.5 + f,
            lambda: f - 0.5,
            lambda: 0.5 - f,
            lambda: f * 0.5,
            lambda: 0.5 * f,
        ):
            with pytest.raises(TypeError):
                make()

    def test_no_stored_fraction_tuple(self):
        f = P("1/2", 3)
        assert not hasattr(f, "__dict__")
        assert f.values is not f.values  # a view, built on access
        assert all(type(v) is int for v in f.nums)

    def test_constant_needs_a_state(self):
        with pytest.raises(ValueError):
            Payoff.constant(1, 0)
