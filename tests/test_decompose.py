import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from riskprop import (
    InsuranceKind,
    MpsStep,
    Payoff,
    Rearrangement,
    classify,
    concave_order,
    deductible_triple,
    equal_in_distribution,
    expectation,
    mps_chain,
    proportional_triple,
    recognize_mps,
    split_zero_mean,
)
from riskprop.decompose import MpsChain, _stable_argsort
from riskprop.space import _common_nums
from conftest import P


def random_zero_mean(rng, n):
    vals = [F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for _ in range(n)]
    f = Payoff(tuple(vals))
    return f - expectation(f)


class TestSplitZeroMean:
    def test_three_state_example(self):
        s = split_zero_mean(P(2, -1, -1))
        assert s.h == P(2, 1, 0)
        assert s.h_prime == P(0, 2, 1)

    def test_two_state_cancellation(self):
        s = split_zero_mean(P(1, -1))
        assert s.h == P(1, 0)
        assert s.h_prime == P(0, 1)

    def test_zero_payoff(self):
        s = split_zero_mean(P(0, 0, 0))
        assert s.h == s.h_prime == P(0, 0, 0)

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ValueError):
            split_zero_mean(P(1, 0))

    def test_split_contract(self):
        rng = random.Random(21)
        for _ in range(300):
            f = random_zero_mean(rng, rng.randint(2, 12))
            s = split_zero_mean(f)
            assert s.h - s.h_prime == f
            assert equal_in_distribution(s.h, s.h_prime)
            lo, hi = f.min_value(), f.max_value()
            assert all(lo <= v <= hi for v in s.h.values)
            assert all(lo <= v <= hi for v in s.h_prime.values)

    def test_round_trip_full_insurance(self):
        # the two halves support equally distributed full-insurance payoffs
        rng = random.Random(22)
        for _ in range(50)            :
            f = random_zero_mean(rng, rng.randint(2, 6))
            s = split_zero_mean(f)
            c = F(rng.randint(-3, 3))
            assert equal_in_distribution(-s.h + c, -s.h_prime + c)


def replay_and_validate(chain, f, g):
    """Replay the chain checking each spread is recognizable where applied."""
    current = f
    spreads = 0
    rearrangements = 0
    for el in chain.elements:
        if isinstance(el, MpsStep):
            spreads += 1
            nxt = el.apply(current)
            step = recognize_mps(current, nxt)
            assert step is not None
            current = nxt
        else:
            assert isinstance(el, Rearrangement)
            rearrangements += 1
            current = el.apply(current)
    assert current == g
    assert chain.replay(f) == g
    assert spreads <= len(f) - 1
    assert rearrangements <= 1


class TestMpsChain:
    def test_single_pinch(self):
        chain = mps_chain(P(1, 1), P(0, 2))
        assert chain.elements == (MpsStep(1, 2, F(1)),)

    def test_equal_payoffs_give_empty_chain(self):
        assert mps_chain(P(3, 1), P(3, 1)).elements == ()

    def test_constant_to_spread(self):
        f, g = P(1, 1, 1), P(0, 1, 2)
        chain = mps_chain(f, g)
        replay_and_validate(chain, f, g)

    def test_rejects_unordered_pair(self):
        with pytest.raises(ValueError):
            mps_chain(P(0, 2), P(1, 1))

    def test_replay_on_random_spread_sequences(self):
        rng = random.Random(23)
        for _ in range(150)            :
            n = rng.randint(2, 8)
            f = Payoff(tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(n)))
            g = f
            for _ in range(rng.randint(1, 4)):
                pairs = [
                    (a, b)
                    for a in range(1, n + 1)
                    for b in range(1, n + 1)
                    if a != b and g[a] <= g[b]
                ]
                a, b = rng.choice(pairs)
                g = MpsStep(a, b, F(rng.randint(0, 4), 2)).apply(g)
            if rng.random() < 0.5:
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                g = g.permute(perm)
            chain = mps_chain(f, g)
            replay_and_validate(chain, f, g)

    def test_replay_on_exhaustive_small_grid(self):
        grid = (F(-1), F(0), F(2))
        for fv in product(grid, repeat=3):
            for gv in product(grid, repeat=3):
                f, g = Payoff(fv), Payoff(gv)
                if concave_order(f, g):
                    replay_and_validate(mps_chain(f, g), f, g)


def quadratic_mps_chain(f, g):
    """Oracle: the chain builder that rescans for both states every round."""
    n = len(f)
    (fs, gs), den = _common_nums(f, g)
    perm = _stable_argsort(fs)
    current = [fs[i] for i in perm]
    target = sorted(gs)
    elements = []
    for _ in range(n):
        diffs = [i for i in range(n) if current[i] != target[i]]
        if not diffs:
            break
        i = diffs[0]
        j = next(k for k in range(i + 1, n) if current[k] < target[k])
        delta = min(current[i] - target[i], target[j] - current[j])
        elements.append(MpsStep(perm[i] + 1, perm[j] + 1, F(delta, den)))
        current[i] -= delta
        current[j] += delta
    after = [0] * n
    for pos, state in enumerate(perm):
        after[state] = current[pos]
    if tuple(after) != gs:
        used = [False] * n
        mapping = []
        for s in range(n):
            t = next(k for k in range(n) if not used[k] and after[k] == gs[s])
            used[t] = True
            mapping.append(t + 1)
        elements.append(Rearrangement(tuple(mapping)))
    return MpsChain(tuple(elements))


@st.composite
def concave_pairs(draw):
    """``(f, g)`` with ``g`` reached from ``f`` by spreads and a relabelling, ``n <= 12``."""
    n = draw(st.integers(2, 12))
    value = st.fractions(-6, 6, max_denominator=3)
    f = Payoff(tuple(draw(st.lists(value, min_size=n, max_size=n))))
    g = f
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.permutations(range(1, n + 1)))[:2]
        if g[a] > g[b]:
            a, b = b, a
        g = MpsStep(a, b, draw(st.fractions(0, 3, max_denominator=2))).apply(g)
    return f, g.permute(draw(st.permutations(range(1, n + 1))))


class TestLinearMpsChain:
    @settings(max_examples=300, deadline=None)
    @given(concave_pairs())
    def test_matches_quadratic_oracle(self, pair):
        f, g = pair
        chain = mps_chain(f, g)
        assert chain == (MpsChain(()) if f == g else quadratic_mps_chain(f, g))
        replay_and_validate(chain, f, g)


class TestProportionalTriple:
    def test_three_state_example(self):
        f = P(0, 2, 5)
        t = proportional_triple(f, MpsStep(1, 2, F(1)))
        assert t.f_tilde == P(0, -1, "-5/2")
        assert t.w_tilde == P(0, 3, "15/2")
        assert t.g_tilde == P(-1, 0, "-5/2")
        assert t.params["excess"] == F(2, 3)
        assert t.w_tilde + t.f_tilde == f
        assert t.w_tilde + t.g_tilde == P(-1, 3, 5)

    def test_two_state_example(self):
        t = proportional_triple(P(0, 4), MpsStep(1, 2, F(4)))
        assert t.f_tilde == P(0, -4)
        assert t.w_tilde == P(0, 8)
        assert t.params["excess"] == F(1, 2)

    def test_two_state_small_delta(self):
        t = proportional_triple(P(0, 4), MpsStep(1, 2, F(1)))
        assert t.f_tilde == P(0, -1)
        assert t.w_tilde == P(0, 5)
        assert t.params["excess"] == F(4, 5)
        assert t.w_tilde + t.f_tilde == P(0, 4)
        assert t.w_tilde + t.g_tilde == P(-1, 5)

    def test_rejects_flat_pinch(self):
        with pytest.raises(ValueError):
            proportional_triple(P(1, 1), MpsStep(1, 2, F(1)))
        with pytest.raises(ValueError):
            proportional_triple(P(0, 1), MpsStep(1, 2, F(0)))


@pytest.mark.parametrize("maker", [proportional_triple, deductible_triple])
def test_triples_reject_states_beyond_the_payoff(maker):
    with pytest.raises(ValueError, match="recipient state 9 exceeds payoff length 3"):
        maker(P(1, 2, 3), MpsStep(1, 9, F(1)))
    with pytest.raises(ValueError, match="donor state 4 exceeds payoff length 3"):
        maker(P(1, 2, 3), MpsStep(4, 1, F(1)))


class TestDeductibleTriple:
    def test_two_state_example(self):
        f = P(0, 2)
        t = deductible_triple(f, MpsStep(1, 2, F(2)))
        assert t.f_tilde == P(1, -1)
        assert t.g_tilde == P(-1, 1)
        assert t.w_tilde == P(-1, 3)
        assert t.params == {"deductible": F(-3), "limit": F(2), "premium": F(1)}
        assert t.w_tilde + t.g_tilde == P(-2, 4)

    def test_zero_spread_degenerates(self):
        t = deductible_triple(P(0, 2), MpsStep(1, 2, F(0)))
        assert t.f_tilde == t.g_tilde == P(0, 0)
        assert t.w_tilde == P(0, 2)

    def test_middle_band_example(self):
        f = P(0, 1, 3)
        t = deductible_triple(f, MpsStep(1, 3, F(2)))
        assert t.w_tilde + t.f_tilde == f
        assert t.w_tilde + t.g_tilde == P(-2, 1, 5)
        assert equal_in_distribution(t.f_tilde, t.g_tilde)
        # the contract reproduces its three-piece formula
        half = t.params["premium"]
        xi, lam = t.params["deductible"], t.params["limit"]
        rebuilt = tuple(
            min(max(-wv - xi, F(0)), lam) - half for wv in t.w_tilde.values
        )
        assert rebuilt == t.f_tilde.values


class TestTriplesClassify:
    def test_randomized_identities_and_membership(self):
        rng = random.Random(24)
        for _ in range(120):
            n = rng.randint(2, 6)
            f = Payoff(tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(n)))
            pairs = [
                (a, b)
                for a in range(1, n + 1)
                for b in range(1, n + 1)
                if a != b and f[a] < f[b]
            ]
            if not pairs:
                continue
            a, b = rng.choice(pairs)
            delta = F(rng.randint(1, 4), 2)
            step = MpsStep(a, b, delta)
            g = step.apply(f)

            t = proportional_triple(f, step)
            assert t.w_tilde + t.f_tilde == f
            assert t.w_tilde + t.g_tilde == g
            assert equal_in_distribution(t.f_tilde, t.g_tilde)
            assert InsuranceKind.PROPORTIONAL in classify(t.f_tilde, t.w_tilde)

            t = deductible_triple(f, step)
            assert t.w_tilde + t.f_tilde == f
            assert t.w_tilde + t.g_tilde == g
            assert equal_in_distribution(t.f_tilde, t.g_tilde)
            assert InsuranceKind.DEDUCTIBLE_LIMIT in classify(t.f_tilde, t.w_tilde)
