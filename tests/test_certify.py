from dataclasses import replace
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from riskprop import (
    Payoff,
    PiecewiseLinearFn,
    SearchBudget,
    better_hedge,
    check_neutrality,
    check_premium_propensity,
    check_propensity,
    check_strong_risk_aversion,
    check_weak_risk_aversion,
    compare_propensity,
    compare_strong,
    compare_weak,
    dual_model,
    equal_in_distribution,
    expectation,
    fair_principle,
    loading_principle,
    mean_variance_model,
    replay_witness,
    rho,
)
from riskprop.certify import (
    HOLDS,
    PROPENSITY_KINDS,
    VIOLATED,
    _alternatives,
    _kind_member,
    _law,
    _mixed_instances,
    _per_law,
    _random_instance,
    _rng,
    _shrink,
    _split_instances,
    _spread_pairs,
    _strictly_less,
)
from riskprop import certify
from riskprop.decompose import deductible_triple, proportional_triple
from riskprop.preferences import custom_model
from conftest import P, build_zoo

BUDGET = SearchBudget(max_n=4, exhaustive_n=4, trials=80, seed=0)
ZOO = build_zoo()


@pytest.fixture(scope="module")
def models():
    return build_zoo()


class TestWeakRiskAversion:
    def test_concave_holds(self, models):
        assert check_weak_risk_aversion(models["eu_concave"], BUDGET).verdict == HOLDS

    def test_convex_kink_violated_with_verified_witness(self, models):
        m = models["eu_convex_kink"]
        r = check_weak_risk_aversion(m, BUDGET)
        assert r.verdict == VIOLATED
        f = r.witness.payoffs["f"]
        assert m.value(f) > m.value(Payoff.constant(expectation(f), len(f)))
        assert replay_witness(r, m)

    def test_expected_value_holds(self, models):
        assert check_weak_risk_aversion(models["expected_value"], BUDGET).verdict == HOLDS

    def test_rejects_partial_order_models(self):
        with pytest.raises(ValueError):
            check_weak_risk_aversion(mean_variance_model(), BUDGET)


class TestStrongRiskAversion:
    def test_convex_distortion_holds(self, models):
        assert check_strong_risk_aversion(models["dual_convex"], BUDGET).verdict == HOLDS

    def test_nonconvex_dominated_distortion_violated(self, models):
        m = models["dual_nonconvex"]
        r = check_strong_risk_aversion(m, BUDGET)
        assert r.verdict == VIOLATED
        assert replay_witness(r, m)

    def test_concave_utility_holds(self, models):
        assert check_strong_risk_aversion(models["eu_concave"], BUDGET).verdict == HOLDS


class TestPropensity:
    def test_full_insurance_concave_holds(self, models):
        assert check_propensity("fi", models["eu_concave"], BUDGET).verdict == HOLDS

    def test_nonconvex_dual_separates_full_from_proportional(self, models):
        m = models["dual_nonconvex"]
        assert check_propensity("fi", m, BUDGET).verdict == HOLDS
        r = check_propensity("pr", m, BUDGET)
        assert r.verdict == VIOLATED
        assert replay_witness(r, m)

    def test_contingency_schedule_expected_value_holds(self, models):
        assert check_propensity("cs", models["expected_value"], BUDGET).verdict == HOLDS

    def test_unknown_kind(self, models):
        with pytest.raises(ValueError):
            check_propensity("xx", models["expected_value"], BUDGET)


class TestNeutrality:
    def test_expected_value_all_hold(self, models):
        r = check_neutrality(models["expected_value"], BUDGET)
        assert r.verdict == HOLDS
        assert set(r.details) == {
            "risk_neutrality",
            "full_insurance_neutrality",
            "hedging_neutrality",
            "dependence_neutrality",
            "expected_value_representation",
        }
        assert all(sub.verdict == HOLDS for sub in r.details.values())

    def test_concave_utility_fails_dependence_neutrality(self, models):
        m = models["eu_concave"]
        r = check_neutrality(m, BUDGET)
        assert r.verdict == VIOLATED
        sub = r.details["dependence_neutrality"]
        assert sub.verdict == VIOLATED
        assert replay_witness(sub, m)

    def test_identity_distortion_all_hold(self):
        m = dual_model(PiecewiseLinearFn.identity(), name="dual-identity")
        r = check_neutrality(m, BUDGET)
        assert r.verdict == HOLDS


class TestPremiumPropensity:
    def test_concave_fair_holds(self, models):
        r = check_premium_propensity(models["eu_concave"], fair_principle(), BUDGET)
        assert r.verdict == HOLDS

    def test_convex_kink_fair_violated(self, models):
        m = models["eu_convex_kink"]
        pp = fair_principle()
        r = check_premium_propensity(m, pp, BUDGET)
        assert r.verdict == VIOLATED
        assert replay_witness(r, m, pp=pp)
        w, f = r.witness.payoffs["w"], r.witness.payoffs["f"]
        assert f == -w - pp.base(-w)

    def test_replay_without_principle_names_it(self, models):
        m = models["eu_convex_kink"]
        r = check_premium_propensity(m, fair_principle(), BUDGET)
        with pytest.raises(ValueError, match="needs the argument pp"):
            replay_witness(r, m)

    def test_expected_value_loading_holds(self, models):
        r = check_premium_propensity(
            models["expected_value"], loading_principle(F(1, 5)), BUDGET
        )
        assert r.verdict == HOLDS


class TestCompareWeak:
    def test_neutral_vs_concave_holds(self, models):
        r = compare_weak(models["expected_value"], models["eu_concave"], BUDGET)
        assert r.verdict == HOLDS

    def test_reflexive(self, models):
        m = models["dual_convex"]
        assert compare_weak(m, m, BUDGET).verdict == HOLDS

    def test_concave_vs_neutral_violated(self, models):
        mA, mB = models["eu_concave"], models["expected_value"]
        r = compare_weak(mA, mB, BUDGET)
        assert r.verdict == VIOLATED
        assert replay_witness(r, mA, mB=mB)

    def test_replay_without_model_b_names_it(self, models):
        mA, mB = models["eu_concave"], models["expected_value"]
        r = compare_weak(mA, mB, BUDGET)
        with pytest.raises(ValueError, match="needs the argument mB"):
            replay_witness(r, mA)

    def test_rejects_non_secular(self, models):
        with pytest.raises(ValueError):
            compare_weak(mean_variance_model(), models["expected_value"], BUDGET)


class TestCompareStrong:
    def test_neutral_vs_convex_dual_holds(self, models):
        r = compare_strong(models["expected_value"], models["dual_convex"], BUDGET)
        assert r.verdict == HOLDS

    def test_reflexive(self, models):
        m = models["eu_concave"]
        assert compare_strong(m, m, BUDGET).verdict == HOLDS

    def test_strong_vs_weak_only_violated(self, models):
        mA, mB = models["dual_convex"], models["dual_nonconvex"]
        r = compare_strong(mA, mB, BUDGET)
        assert r.verdict == VIOLATED
        assert replay_witness(r, mA, mB=mB)


class TestComparePropensity:
    def test_full_insurance_neutral_vs_concave_holds(self, models):
        r = compare_propensity(
            "fi", models["expected_value"], models["eu_concave"], BUDGET
        )
        assert r.verdict == HOLDS

    def test_hedging_reflexive(self, models):
        m = models["dual_convex"]
        assert compare_propensity("hedging", m, m, BUDGET).verdict == HOLDS

    def test_proportional_convex_vs_nonconvex_violated(self, models):
        mA, mB = models["dual_convex"], models["dual_nonconvex"]
        r = compare_propensity("pr", mA, mB, BUDGET)
        assert r.verdict == VIOLATED
        assert replay_witness(r, mA, mB=mB)


class TestCrossChecks:
    def test_strong_ra_agrees_with_every_partial_propensity(self, models):
        budget = SearchBudget(max_n=4, exhaustive_n=4, trials=60, seed=1)
        for name, m in models.items():
            strong = check_strong_risk_aversion(m, budget).verdict
            for kind in ("pr", "dl", "is", "cs", "hedging"):
                assert check_propensity(kind, m, budget).verdict == strong, (name, kind)

    def test_neutrality_subverdicts_agree(self, models):
        # the four neutrality conditions are equivalent, so their verdicts
        # must agree model by model
        budget = SearchBudget(max_n=4, exhaustive_n=4, trials=80, seed=2)
        subs = (
            "risk_neutrality",
            "full_insurance_neutrality",
            "hedging_neutrality",
            "dependence_neutrality",
        )
        for name, m in models.items():
            r = check_neutrality(m, budget)
            verdicts = {sub: r.details[sub].verdict for sub in subs}
            assert len(set(verdicts.values())) == 1, (name, verdicts)


class TestReports:
    def test_determinism(self, models):
        m = models["dual_nonconvex"]
        r1 = check_propensity("dl", m, BUDGET)
        r2 = check_propensity("dl", m, BUDGET)
        assert r1 == r2

    def test_seed_changes_are_echoed(self, models):
        budget = SearchBudget(max_n=3, exhaustive_n=3, trials=10, seed=99)
        r = check_weak_risk_aversion(models["expected_value"], budget)
        assert r.seed == 99
        assert r.budget == budget

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_n=3, exhaustive_n=4)
        with pytest.raises(ValueError):
            SearchBudget(trials=-1)

    def test_budget_rejects_max_n_below_two(self):
        with pytest.raises(ValueError, match="max_n must be >= 2"):
            SearchBudget(max_n=1, exhaustive_n=1)

    def test_budget_caps_exhaustive_n_at_seven(self):
        assert SearchBudget(max_n=9, exhaustive_n=7).exhaustive_n == 7
        with pytest.raises(ValueError, match="exhaustive_n must be <= 7"):
            SearchBudget(max_n=9, exhaustive_n=8)

    def test_budget_caps_max_n_at_twelve(self):
        assert SearchBudget(max_n=12, exhaustive_n=4).max_n == 12
        with pytest.raises(ValueError, match="max_n must be <= 12"):
            SearchBudget(max_n=13, exhaustive_n=4)

    def test_budget_caps_value_grid_at_twelve(self):
        twelve = tuple(range(12))
        assert len(SearchBudget(value_grid=twelve + (0, 1)).value_grid) == 12  # counted after dedup
        with pytest.raises(ValueError, match="value grid must have at most 12 values"):
            SearchBudget(value_grid=twelve + (12,))

    def test_witnesses_are_small(self, models):
        # shrinking keeps counterexamples readable
        r = check_propensity("pr", models["dual_nonconvex"], BUDGET)
        assert len(r.witness.payoffs["w"]) <= 3


def _propensity_violation_fn(kind, m):
    """The predicate of the ``propensity[kind]`` row of the property table."""
    return certify._row("propensity", BUDGET, m, kind=kind).violation


def _compare_propensity_violation_fn(kind, mA, mB):
    """The predicate of the ``compare_propensity[kind]`` row of the property table."""
    return certify._row("compare_propensity", BUDGET, mA, mB, kind=kind).violation


def _structure_first(kind, sides):
    """Oracle: the propensity predicate with the structural conjunct tested before the values."""

    def violation(parts):
        w, f, g = parts["w"], parts["f"], parts["g"]
        if not equal_in_distribution(f, g):
            return None
        if kind == "hedging":
            if not better_hedge(f, g, w):
                return None
        elif not _kind_member(kind, f, w):
            return None
        lhs, rhs = sides(w + f, w + g)
        return (lhs, rhs) if _strictly_less(lhs, rhs) else None

    return violation


@st.composite
def insurance_instances(draw):
    """(kind, w, f, g) with a contract of the kind on ``w`` as the starting point."""
    kind = draw(st.sampled_from(PROPENSITY_KINDS))
    n = draw(st.integers(2, BUDGET.max_n))
    w, contract = _random_instance(kind, draw(st.randoms(use_true_random=False)), BUDGET, n)
    any_payoff = st.lists(
        st.sampled_from(BUDGET.value_grid), min_size=n, max_size=n
    ).map(lambda vs: Payoff(tuple(vs)))

    def rearranged(p):
        return st.permutations(p.values).map(lambda vs: Payoff(tuple(vs)))

    f, g = draw(st.one_of(
        # the contract against an equally distributed alternative
        st.tuples(st.just(contract), rearranged(contract)),
        # a rearranged contract (mostly outside the kind) against the contract,
        # which for cs and hedging is the better hedge
        rearranged(contract).map(lambda p: (p, contract)),
        # any payoff, mostly outside the kind, against a rearrangement of it
        any_payoff.flatmap(lambda p: st.tuples(st.just(p), rearranged(p))),
        # g mostly not a rearrangement of f
        st.tuples(st.one_of(st.just(contract), any_payoff), any_payoff),
    ))
    return kind, w, f, g


class TestPropensityPredicateOrder:
    """Testing the value gap before structure changes no predicate result."""

    @settings(max_examples=500, deadline=None)
    @given(insurance_instances(), st.sampled_from(sorted(ZOO)))
    def test_check_predicate_matches_structure_first(self, inst, name):
        kind, w, f, g = inst
        m = ZOO[name]
        parts = {"w": w, "f": f, "g": g}
        oracle = _structure_first(kind, lambda wf, wg: (m.value(wf), m.value(wg)))
        assert _propensity_violation_fn(kind, m)(parts) == oracle(parts)

    @settings(max_examples=500, deadline=None)
    @given(insurance_instances(), st.sampled_from(sorted(ZOO)), st.sampled_from(sorted(ZOO)))
    def test_compare_predicate_matches_structure_first(self, inst, a, b):
        kind, w, f, g = inst
        mA, mB = ZOO[a], ZOO[b]
        parts = {"w": w, "f": f, "g": g}
        oracle = _structure_first(kind, lambda wf, wg: (rho(mB, wg, wf), rho(mA, wg, wf)))
        assert _compare_propensity_violation_fn(kind, mA, mB)(parts) == oracle(parts)


class TestReplayEnforcesStructure:
    """A witness that keeps a strict value gap but loses the structure does not replay."""

    def test_compare_propensity_non_member_rearrangement(self, models):
        mA, mB = models["expected_value"], models["dual_nonconvex"]
        r = compare_propensity("pr", mA, mB, BUDGET)
        assert r.verdict == VIOLATED and replay_witness(r, mA, mB=mB)
        w, f, g = (r.witness.payoffs[k] for k in ("w", "f", "g"))
        candidates = []
        for vs in sorted(set(permutations(f.values))):
            f2 = Payoff(vs)
            gap = _strictly_less(rho(mB, w + g, w + f2), rho(mA, w + g, w + f2))
            if gap and not _kind_member("pr", f2, w):
                candidates.append(f2)
        assert candidates
        for f2 in candidates:
            payoffs = {**r.witness.payoffs, "f": f2}
            tampered = replace(r, witness=replace(r.witness, payoffs=payoffs))
            assert not replay_witness(tampered, mA, mB=mB)

    def test_hedging_witness_with_contract_and_alternative_swapped(self, models):
        r = check_propensity("hedging", models["dual_nonconvex"], BUDGET)
        assert r.verdict == VIOLATED
        w, f, g = (r.witness.payoffs[k] for k in ("w", "f", "g"))
        swapped = replace(r, witness=replace(r.witness, payoffs={"w": w, "f": g, "g": f}))
        m = models["dual_convex"]
        assert _strictly_less(m.value(w + g), m.value(w + f))
        assert not better_hedge(g, f, w)
        assert not replay_witness(swapped, m)

    def test_full_insurance_neutrality_witness_without_structure(self, models):
        m = models["eu_concave"]
        r = check_neutrality(m, replace(BUDGET, seed=2)).details["full_insurance_neutrality"]
        assert r.verdict == VIOLATED and replay_witness(r, m)
        w, g = r.witness.payoffs["w"], r.witness.payoffs["g"]
        # f = w is no full insurance for w and not distributed as g; the values still differ
        assert not _kind_member("fi", w, w) and not equal_in_distribution(w, g)
        assert m.value(w + w) != m.value(w + g)
        tampered = replace(r, witness=replace(r.witness, payoffs={"w": w, "f": w, "g": g}))
        assert not replay_witness(tampered, m)

    def test_hedging_neutrality_witness_with_hedges_swapped(self, models):
        m = models["eu_concave"]
        r = check_neutrality(m, replace(BUDGET, seed=2)).details["hedging_neutrality"]
        assert r.verdict == VIOLATED and replay_witness(r, m)
        w, f, g = (r.witness.payoffs[k] for k in ("w", "f", "g"))
        assert not better_hedge(g, f, w) and m.value(w + g) != m.value(w + f)
        swapped = replace(r, witness=replace(r.witness, payoffs={"w": w, "f": g, "g": f}))
        assert not replay_witness(swapped, m)

    def test_neutrality_report_replays_through_first_violated_entry(self, models):
        m = models["eu_concave"]
        r = check_neutrality(m, replace(BUDGET, seed=2))
        first = next(d for d in r.details.values() if d.violated)
        assert first.property.startswith("risk_neutrality") and r.witness == first.witness
        assert replay_witness(r, m)
        f = r.witness.payoffs["f"]
        flat = {"f": Payoff.constant(expectation(f), len(f))}  # V(E[f]) == V(f) on a constant
        assert not replay_witness(replace(r, witness=replace(r.witness, payoffs=flat)), m)


FRACTIONAL_GRID = (F(-3, 2), F(-1, 3), F(0), F(1, 2), F(2))
GRIDS = {"default": SearchBudget().value_grid, "fractional": FRACTIONAL_GRID}


def _eager_search(kind, sides, budget, split_n):
    """Oracle: an insurance propensity search that factors every phase-1 spread pair.

    A copy of the search before phase 1 tested the value gap on the sums
    first, with the structure-first predicate and no memo.  Returns
    ``(verdict, trials_run, witness payoffs, (lhs, rhs))``.
    """
    violation = _structure_first(kind, sides)
    if kind == "fi":
        phase1 = ((w, f, g) for _, w, f, g in _split_instances(budget.value_grid, split_n))
    else:
        phase1 = (
            (t.w_tilde, t.f_tilde, t.g_tilde)
            for source in ((kind,) if kind in ("pr", "dl") else ("pr", "dl"))
            for f0, step in _spread_pairs(budget.value_grid, source == "pr")
            for t in [(proportional_triple if source == "pr" else deductible_triple)(f0, step)]
        )
    trials_run = 0
    for w, f, g in phase1:
        trials_run += 1
        parts = {"w": w, "f": f, "g": g}
        if violation(parts) is not None:
            return (VIOLATED, trials_run) + _shrink(parts, violation)
    for t in range(budget.trials):
        rng = _rng(budget.seed, t)
        for w, f, g in _mixed_instances(kind, rng, budget):
            alternatives = [g] if g is not None else _alternatives(rng, f, budget)
            trials_run += 1
            seen = set()
            for g in alternatives:
                key = _law(w + g)
                if key in seen:
                    continue
                seen.add(key)
                parts = {"w": w, "f": f, "g": g}
                if violation(parts) is not None:
                    return (VIOLATED, trials_run) + _shrink(parts, violation)
    return HOLDS, trials_run, None, None


def _outcome(report):
    w = report.witness
    return (
        report.verdict,
        report.trials_run,
        None if w is None else dict(w.payoffs),
        None if w is None else (w.lhs, w.rhs),
    )


def _small_budget(grid, seed):
    return SearchBudget(max_n=4, exhaustive_n=3, trials=6, seed=seed, value_grid=GRIDS[grid])


class TestLazyPhaseOne:
    """Factoring phase-1 spread pairs only on a strict value gap, and the per-search memo, change no report."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(PROPENSITY_KINDS),
        st.sampled_from(sorted(ZOO)),
        st.sampled_from(sorted(GRIDS)),
        st.integers(0, 3),
    )
    def test_check_propensity_matches_eager_oracle(self, kind, name, grid, seed):
        m, budget = ZOO[name], _small_budget(grid, seed)
        oracle = _eager_search(
            kind, lambda wf, wg: (m.value(wf), m.value(wg)), budget, budget.exhaustive_n
        )
        assert _outcome(check_propensity(kind, m, budget)) == oracle

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(PROPENSITY_KINDS),
        st.sampled_from(sorted(ZOO)),
        st.sampled_from(sorted(ZOO)),
        st.sampled_from(sorted(GRIDS)),
        st.integers(0, 3),
    )
    def test_compare_propensity_matches_eager_oracle(self, kind, a, b, grid, seed):
        mA, mB, budget = ZOO[a], ZOO[b], _small_budget(grid, seed)
        oracle = _eager_search(
            kind,
            lambda wf, wg: (rho(mB, wg, wf), rho(mA, wg, wf)),
            budget,
            min(budget.exhaustive_n, 4),
        )
        assert _outcome(compare_propensity(kind, mA, mB, budget)) == oracle

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_phase1_sums_are_the_factored_sums(self, grid):
        for strict, factor in ((True, proportional_triple), (False, deductible_triple)):
            for f0, step in _spread_pairs(GRIDS[grid], strict):
                t = factor(f0, step)
                assert (t.w_tilde + t.f_tilde, t.w_tilde + t.g_tilde) == (f0, step.apply(f0))
        for h, w, f, g in _split_instances(GRIDS[grid], 4):
            assert (w + f, w + g) == (Payoff.constant(expectation(h), len(h)), h)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(sorted(ZOO)),
        st.sampled_from(sorted(ZOO)),
        st.lists(st.sampled_from(FRACTIONAL_GRID + (F(5, 7),)), min_size=1, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_memo_matches_direct_evaluation_on_rearrangements(self, a, b, vals, rnd):
        mA, mB = ZOO[a], ZOO[b]
        value = _per_law(mA, mA.value)
        rho_b = _per_law(mB, lambda g, f: rho(mB, g, f))
        f = Payoff(tuple(vals))
        g = Payoff(tuple(rnd.choice(vals) for _ in vals))
        for _ in range(4):
            perm_f = Payoff(tuple(rnd.sample(vals, len(vals))))
            perm_g = g.permute(rnd.sample(range(1, len(g) + 1), len(g)))
            assert value(perm_f) == mA.value(perm_f) == mA.value(f)
            assert rho_b(perm_g, perm_f) == rho(mB, perm_g, perm_f) == rho(mB, g, f)

    def test_full_memo_starts_over(self, monkeypatch):
        m = ZOO["dual_nonconvex"]
        calls = []
        value = _per_law(m, lambda f: calls.append(f) or m.value(f))
        monkeypatch.setattr(certify, "_MEMO_ENTRIES", 2)
        for vals in ((0, 1), (1, 0), (0, 2), (2, 1), (1, 0), (0, 1)):
            assert value(P(*vals)) == m.value(P(*vals))
        # (1, 0) first hits the entry of (0, 1); at (2, 1) the full memo starts over
        assert len(calls) == 4
        budget = _small_budget("fractional", 1)
        want = _outcome(compare_propensity("dl", ZOO["eu_concave"], m, budget))
        monkeypatch.setattr(certify, "_MEMO_ENTRIES", 3)
        assert _outcome(compare_propensity("dl", ZOO["eu_concave"], m, budget)) == want

    def test_custom_models_skip_the_memo(self):
        m = custom_model(lambda f: expectation(f))
        assert _per_law(m, m.value) == m.value
