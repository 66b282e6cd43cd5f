import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from riskprop import (
    InsuranceKind,
    Payoff,
    classify,
    classify_detailed,
    expectation,
    fair_principle,
    is_member,
    loading_principle,
    make_contract,
    premium,
)
from riskprop.orders import counter_monotone
from conftest import P

FI = InsuranceKind.FULL
PR = InsuranceKind.PROPORTIONAL
DL = InsuranceKind.DEDUCTIBLE_LIMIT
IS = InsuranceKind.INDEMNITY_SCHEDULE
CS = InsuranceKind.CONTINGENCY_SCHEDULE

GRID = [F(k) for k in range(-3, 4)]


def _random_contract(rng: random.Random, kinds):
    """A random risk on ``GRID``, a kind drawn from ``kinds``, and a contract of that kind."""
    n = rng.randint(2, 5)
    w = Payoff(tuple(rng.choice(GRID) for _ in range(n)))
    pi = rng.choice(GRID)
    kind = rng.choice(kinds)
    if kind is FI:
        return kind, w, make_contract(w, kind, premium=pi)
    if kind is PR:
        return kind, w, make_contract(w, kind, premium=pi, excess=F(rng.randint(0, 3), 4))
    if kind is DL:
        return kind, w, make_contract(
            w, kind, premium=pi, deductible=rng.choice(GRID), limit=abs(rng.choice(GRID))
        )
    if kind is IS:
        losses = sorted(set((-w).values))
        payments = sorted(rng.choice(GRID) for _ in losses)
        return kind, w, make_contract(w, kind, premium=pi, schedule=list(zip(losses, payments)))
    draws = sorted((rng.choice(GRID) for _ in range(n)), reverse=True)
    order = sorted(range(n), key=lambda i: (w.values[i], i))
    vals = [F(0)] * n
    for rank, i in enumerate(order):
        vals[i] = draws[rank]
    return kind, w, make_contract(w, kind, payoff=Payoff(tuple(vals)))


class TestMakeContract:
    def test_full_insurance_with_negative_premium(self):
        c = make_contract(P(0, 1, 1), "fi", premium=-1)
        assert c.payoff == P(1, 0, 0)

    def test_proportional(self):
        c = make_contract(P(0, 2), "pr", excess=F(1, 2), premium=0)
        assert c.payoff == P(0, -1)

    def test_deductible_limit(self):
        c = make_contract(P(-1, 3), "dl", deductible=-3, limit=2, premium=1)
        assert c.payoff == P(1, -1)

    def test_indemnity_schedule(self):
        c = make_contract(
            P(0, -1, -2), "is", schedule=[(0, 0), (1, 1), (2, 1)], premium=0
        )
        assert c.payoff == P(0, 1, 1)

    def test_contingency_schedule_validates(self):
        c = make_contract(P(0, 1, 1), "cs", payoff=P(1, 0, 0))
        assert c.payoff == P(1, 0, 0)
        with pytest.raises(ValueError):
            make_contract(P(0, 1, 1), "cs", payoff=P(0, 1, 0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_contract(P(0, 1), "pr", excess=1, premium=0)
        with pytest.raises(ValueError):
            make_contract(P(0, 1), "dl", deductible=0, limit=-1, premium=0)
        with pytest.raises(ValueError):
            make_contract(P(0, -1), "is", schedule=[(0, 1), (1, 0)], premium=0)
        with pytest.raises(ValueError):
            make_contract(P(0, -1), "is", schedule=[(0, 0)], premium=0)
        with pytest.raises(ValueError):
            make_contract(P(0, 1), "bogus")

    def test_output_classifies_into_declared_kind(self):
        rng = random.Random(31)
        for _ in range(150):
            kind, w, c = _random_contract(rng, list(InsuranceKind))
            assert kind in classify(c.payoff, w), (kind, w, c.payoff)


class TestClassify:
    def test_rain_insurance_is_everything(self):
        kinds = classify(P(1, 0, 0), P(0, 1, 1))
        assert kinds == {FI, PR, DL, IS, CS}

    def test_drought_insurance_is_nothing(self):
        assert classify(P(0, 1, 0), P(0, 1, 1)) == frozenset()

    def test_constant_payoff(self):
        assert classify(P(2, 2), P(0, 5)) == {DL, IS, CS}
        assert classify(P(2, 2), P(3, 3)) == {FI, PR, DL, IS, CS}

    def test_fitted_parameters(self):
        detail = classify_detailed(P(1, 0, 0), P(0, 1, 1))
        assert detail[FI] == {"premium": F(-1)}
        assert detail[PR] == {"excess": F(0), "premium": F(-1)}
        dl = detail[DL]
        rebuilt = tuple(
            min(max(lv - dl["deductible"], F(0)), dl["limit"]) - dl["premium"]
            for lv in (0, -1, -1)
        )
        assert rebuilt == (F(1), F(0), F(0))

    def test_full_implies_proportional_and_deductible(self):
        grid = (F(-2), F(-1), F(0), F(1), F(2))
        for n in (1, 2, 3):
            for wv in product(grid, repeat=n):
                for pi in (F(-1), F(0), F(1)):
                    w = Payoff(wv)
                    kinds = classify(-w - pi, w)
                    assert {FI, PR, DL} <= kinds

    def test_pr_and_dl_without_fi_exists(self):
        # a slope-1/2 line through two realized loss points also fits a
        # deductible-limit curve, so the full class is a strict subset of
        # the intersection on two-state spaces
        f, w = P(0, 1), P(0, -2)
        kinds = classify(f, w)
        assert PR in kinds and DL in kinds
        assert FI not in kinds

    def test_inclusion_chain(self):
        grid = (F(-2), F(0), F(1), F(3))
        for n in (2, 3):
            for wv in product(grid, repeat=n):
                for fv in product(grid, repeat=n):
                    kinds = classify(Payoff(fv), Payoff(wv))
                    if PR in kinds or DL in kinds:
                        assert IS in kinds
                    if IS in kinds:
                        assert CS in kinds

    def test_wealth_shift_invariance(self):
        rng = random.Random(32)
        grid = [F(k, 2) for k in range(-6, 7)]
        for _ in range(150):
            n = rng.randint(1, 5)
            w = Payoff(tuple(rng.choice(grid) for _ in range(n)))
            f = Payoff(tuple(rng.choice(grid) for _ in range(n)))
            base = classify(f, w)
            for shift in (F(-3), F(5, 2)):
                assert classify(f, w + shift) == base

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classify(P(1), P(1, 2))

    def test_collinear_half_slope_points_fit_a_deductible_curve(self):
        # flat until 1, rise on [1, 3], capped at 2 passes through
        # (0,0), (2,1), (4,2) even though the secants all have slope 1/2
        f, w = P(0, 1, 2), P(0, -2, -4)
        detail = classify_detailed(f, w)
        assert DL in detail
        params = detail[DL]
        rebuilt = tuple(
            min(max(lv - params["deductible"], F(0)), params["limit"]) - params["premium"]
            for lv in (-w).values
        )
        assert rebuilt == f.values

    def test_four_collinear_half_slope_points_do_not_fit(self):
        # a slope-one segment meets a slope-half line once, and the two
        # flats absorb one distinct payment each, so four distinct
        # collinear points overflow the shape
        f, w = P(0, "1/2", 1, "3/2"), P(0, -1, -2, -3)
        assert DL not in classify(f, w)
        assert IS in classify(f, w)

    def test_deductible_fit_is_sound(self):
        rng = random.Random(35)
        grid = [F(k, 2) for k in range(-8, 9)]
        for _ in range(300):
            n = rng.randint(1, 6)
            w = Payoff(tuple(rng.choice(grid) for _ in range(n)))
            f = Payoff(tuple(rng.choice(grid) for _ in range(n)))
            detail = classify_detailed(f, w)
            if DL in detail:
                params = detail[DL]
                rebuilt = tuple(
                    min(max(lv - params["deductible"], F(0)), params["limit"])
                    - params["premium"]
                    for lv in (-w).values
                )
                assert rebuilt == f.values
                assert params["limit"] >= 0


def _classify_detailed_by_hand(f: Payoff, w: Payoff) -> dict:
    """``classify_detailed`` rebuilt one kind at a time: the kinds ``is_member`` accepts, in order."""
    detailed = classify_detailed(f, w)
    out = {kind: detailed.get(kind) for kind in (FI, PR, DL, IS) if is_member(kind, f, w)}
    if counter_monotone(f, w):
        out[CS] = {}
    return out


def _assert_membership_agrees(f: Payoff, w: Payoff) -> None:
    kinds = classify(f, w)
    for kind in InsuranceKind:
        assert is_member(kind, f, w) == is_member(kind.value, f, w) == (kind in kinds), (kind, f, w)
    detailed = classify_detailed(f, w)
    expected = _classify_detailed_by_hand(f, w)
    assert detailed == expected and list(detailed) == list(expected), (f, w)


small_payoffs = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=2), min_size=1, max_size=5
)


class TestIsMember:
    """``is_member`` answers one kind as ``classify_detailed`` does, which keeps its key order."""

    @settings(max_examples=300, deadline=None)
    @given(small_payoffs, st.data())
    def test_random_pairs(self, f_vals, data):
        n = len(f_vals)
        w_vals = data.draw(st.lists(st.sampled_from(GRID[1:-1]), min_size=n, max_size=n))
        _assert_membership_agrees(Payoff(tuple(f_vals)), Payoff(tuple(w_vals)))

    @pytest.mark.parametrize("kind", list(InsuranceKind), ids=lambda k: k.value)
    def test_contracts_and_swapped_rearrangements(self, kind):
        rng = random.Random(f"is_member:{kind.value}")
        for _ in range(40):
            _, w, c = _random_contract(rng, [kind])
            f = c.payoff
            assert is_member(kind, f, w)
            _assert_membership_agrees(f, w)
            for s, t in combinations(range(1, len(f) + 1), 2):
                perm = list(range(1, len(f) + 1))
                perm[s - 1], perm[t - 1] = t, s
                _assert_membership_agrees(f.permute(perm), w)

    def test_length_mismatch_and_unknown_kind(self):
        for kind in InsuranceKind:
            with pytest.raises(ValueError, match="length mismatch"):
                is_member(kind, P(1), P(1, 2))
        with pytest.raises(ValueError, match="unknown insurance kind"):
            is_member("hedging", P(1, 2), P(1, 2))


class TestPremiumPrinciples:
    def test_fair_premium_is_expected_indemnity(self):
        assert premium(fair_principle(), P(0, -2)) == -1

    def test_translation_axiom(self):
        rng = random.Random(33)
        for pp in (fair_principle(), loading_principle(F(1, 5))):
            for _ in range(100):
                n = rng.randint(1, 6)
                h = Payoff(tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)))
                gamma = F(rng.randint(-6, 6), rng.choice((1, 2)))
                assert premium(pp, h + gamma) == premium(pp, h) + pp.theta * gamma

    def test_loading_example(self):
        pp = loading_principle(F(1, 5))
        assert premium(pp, P(1, 1)) == F(6, 5)
        assert pp.theta == F(6, 5)

    def test_loading_validation(self):
        with pytest.raises(ValueError):
            loading_principle(F(-1, 2))

    def test_full_insurance_at_fair_premium_flattens_to_expected_wealth(self):
        rng = random.Random(34)
        pp = fair_principle()
        for _ in range(50):
            n = rng.randint(2, 6)
            w = Payoff(tuple(F(rng.randint(-5, 5)) for _ in range(n)))
            f = -w - premium(pp, -w)
            assert w + f == Payoff.constant(expectation(w), n)
