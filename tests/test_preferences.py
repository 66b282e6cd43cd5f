import bisect
import random
from fractions import Fraction as F
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from riskprop import (
    Comparison,
    Payoff,
    PiecewiseLinearFn,
    certainty_equivalent,
    dual_model,
    dual_value,
    eu_value,
    expectation,
    expected_utility_model,
    expected_value_model,
    mean_variance_model,
    mv_compare,
    rho,
)
from riskprop.preferences import _rho_eu
from conftest import P, concave_utility, convex_distortion


# p -> p^2 through its values at the grid points the tests use (n = 2 and 3)
square = PiecewiseLinearFn(tuple((p, p * p) for p in (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))))


class TestPiecewiseLinearFn:
    def test_evaluation_and_extension(self):
        u = concave_utility()
        assert u(F(-2)) == -2
        assert u(F(1, 2)) == F(1, 4)
        assert u(F(3)) == F(3, 2)

    def test_inverse(self):
        """The certainty equivalent of a constant is that constant: it inverts ``u`` at ``u(x)``."""
        m = expected_utility_model(concave_utility())
        for x in (F(-5), F(-1, 3), F(0), F(2, 3), F(4)):
            for n in (1, 3):
                assert certainty_equivalent(m, Payoff.constant(x, n)) == x

    def test_shape_predicates(self):
        assert concave_utility().is_concave()
        assert not concave_utility().is_convex()
        assert convex_distortion().is_convex()
        assert PiecewiseLinearFn.identity().is_concave()

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn(((F(0), F(0)),))
        with pytest.raises(ValueError):
            PiecewiseLinearFn(((F(0), F(0)), (F(0), F(1))))


class TestEuValue:
    def test_identity_reduces_to_expectation(self):
        u = PiecewiseLinearFn(((F(0), F(0)), (F(1), F(1))))
        assert eu_value(u, P(0, 2)) == 1

    def test_kinked(self):
        assert eu_value(concave_utility(), P(-1, 1)) == F(-1, 4)

    def test_constant(self):
        assert eu_value(concave_utility(), P(3, 3)) == F(3, 2)


class TestDualValue:
    def test_identity_is_expectation(self):
        rng = random.Random(41)
        ident = PiecewiseLinearFn.identity()
        for _ in range(40):
            f = Payoff(tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(rng.randint(1, 6))))
            assert dual_value(ident, f) == expectation(f)

    def test_square_distortion(self):
        assert dual_value(square, P(0, 2)) == F(1, 2)

    def test_constant(self):
        assert dual_value(square, P(5, 5, 5)) == 5

    def test_invalid_distortion(self):
        with pytest.raises(ValueError, match=r"g\(0\) = 0 and g\(1\) = 1"):
            dual_value(PiecewiseLinearFn(((F(0), F(0)), (F(1), F(1, 2)))), P(0, 1))

    def test_dual_model_checks_the_distortion(self):
        with pytest.raises(ValueError, match=r"g\(0\) = 0 and g\(1\) = 1"):
            dual_model(PiecewiseLinearFn(((F(0), F(0)), (F(1), F(1, 2)))))
        with pytest.raises(ValueError, match=r"g\(0\) = 0 and g\(1\) = 1"):
            dual_model(PiecewiseLinearFn(((F(0), F(1, 4)), (F(1), F(1)))))
        with pytest.raises(TypeError, match="distortion must be a PiecewiseLinearFn, got function"):
            dual_model(lambda p: p * p)
        assert dual_model(square).distortion is square


class TestMvCompare:
    def test_lower_variance_wins(self):
        assert mv_compare(P(1, 1), P(0, 2)) is Comparison.BETTER

    def test_higher_variance_loses(self):
        assert mv_compare(P(0, 2), P(1, 1)) is Comparison.WORSE
        assert mv_compare(P(0, 1), P(1, 1)) is Comparison.WORSE

    def test_incomparable(self):
        assert mv_compare(P(0, 4), P(1, 1)) is Comparison.INCOMPARABLE

    def test_indifferent(self):
        f = P(1, 3)
        assert mv_compare(f, f) is Comparison.INDIFFERENT
        assert mv_compare(P(1, 3), P(3, 1)) is Comparison.INDIFFERENT


class TestCertaintyEquivalent:
    def test_expected_value_model(self):
        m = expected_value_model()
        assert certainty_equivalent(m, P(0, 3)) == F(3, 2)

    def test_kinked_utility(self):
        m = expected_utility_model(concave_utility())
        assert certainty_equivalent(m, P(-1, 1)) == F(-1, 4)

    def test_dual_square(self):
        m = dual_model(square)
        assert certainty_equivalent(m, P(0, 2)) == F(1, 2)

    def test_mean_variance_rejected(self):
        with pytest.raises(ValueError):
            certainty_equivalent(mean_variance_model(), P(0, 1))


class TestRho:
    def test_zero_for_equal_payoffs(self):
        m = expected_utility_model(concave_utility())
        assert rho(m, P(-1, 1), P(-1, 1)) == 0

    def test_expected_value_is_mean_difference(self):
        m = expected_value_model()
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(1, 6)
            f = Payoff(tuple(F(rng.randint(-6, 6)) for _ in range(n)))
            g = Payoff(tuple(F(rng.randint(-6, 6)) for _ in range(n)))
            assert rho(m, g, f) == expectation(f) - expectation(g)

    def test_kinked_utility_on_negative_branch(self):
        m = expected_utility_model(concave_utility())
        assert rho(m, P(-1, 1), P(0, 0)) == F(1, 4)

    def test_mean_variance_rejected(self):
        with pytest.raises(ValueError):
            rho(mean_variance_model(), P(0, 1), P(1, 0))

    def test_length_mismatch(self):
        m = expected_value_model()
        with pytest.raises(ValueError):
            rho(m, P(0, 1), P(1,))


def _rho_eu_kink_scan(u: PiecewiseLinearFn, g: Payoff, f: Payoff) -> F:
    """The earlier ``_rho_eu``: evaluate phi at every kink and interpolate at the sign change."""
    target = eu_value(u, g)

    def phi(r):
        return eu_value(u, f - r) - target

    kinks = sorted({fv - bx for fv in f.values for bx in u.xs})
    first, last = kinks[0], kinks[-1]
    phi_first = phi(first)
    if phi_first <= 0:
        return first + phi_first / u.slopes[-1]
    prev_k, prev_v = first, phi_first
    for k in kinks[1:]:
        v = phi(k)
        if v <= 0:
            return prev_k + (k - prev_k) * prev_v / (prev_v - v)
        prev_k, prev_v = k, v
    return last + phi(last) / u.slopes[0]


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def increasing_utilities(draw, min_points=2, max_points=5):
    xs = sorted(draw(st.sets(rationals, min_size=min_points, max_size=max_points)))
    rises = draw(st.lists(
        st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
        min_size=len(xs), max_size=len(xs),
    ))
    ys, y = [], F(0)
    for rise in rises:
        y += rise
        ys.append(y)
    return PiecewiseLinearFn(tuple(zip(xs, ys)))


@st.composite
def payoff_pairs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    vals = st.lists(rationals, min_size=n, max_size=n).map(lambda vs: Payoff(tuple(vs)))
    return draw(vals), draw(vals)


class TestExactCompensation:
    """``_rho_eu`` solves ``sum(u(f - r)) = sum(u(g))`` exactly and matches the kink scan."""

    @settings(max_examples=200, deadline=None)
    @given(increasing_utilities(), payoff_pairs())
    def test_solves_equation_and_matches_scan(self, u, fg):
        f, g = fg
        r = _rho_eu(u, g, f)
        assert sum(u(v - r) for v in f.values) == sum(u(v) for v in g.values)
        assert r == _rho_eu_kink_scan(u, g, f)

    @settings(deadline=None)
    @given(increasing_utilities(), payoff_pairs(max_n=1))
    def test_single_state(self, u, fg):
        f, g = fg
        r = _rho_eu(u, g, f)
        assert u(f[1] - r) == u(g[1])
        assert r == f[1] - g[1] == _rho_eu_kink_scan(u, g, f)
        assert _same(r, _rho_sweep_oracle(u, g, f))

    @settings(deadline=None)
    @given(increasing_utilities(max_points=2), payoff_pairs())
    def test_affine_utility_without_interior_kink(self, u, fg):
        f, g = fg
        assert _rho_eu(u, g, f) == expectation(f) - expectation(g) == _rho_eu_kink_scan(u, g, f)

    @settings(deadline=None)
    @given(increasing_utilities(min_points=3), payoff_pairs(), st.data())
    def test_root_on_a_kink(self, u, fg, data):
        f, _ = fg
        k = data.draw(st.sampled_from([v - x for v in f.values for x in u.xs]))
        assert _rho_eu(u, f - k, f) == k == _rho_eu_kink_scan(u, f - k, f)
        assert _same(_rho_eu(u, f - k, f), _rho_sweep_oracle(u, f - k, f))


# Oracles: the earlier Fraction bodies of ``PiecewiseLinearFn.__call__``,
# ``eu_value``, ``dual_value`` and ``_rho_eu``, before they ran on integers.


def _call_oracle(u: PiecewiseLinearFn, x: F) -> F:
    pts = u.breakpoints
    idx = bisect.bisect_left(u.xs, x)
    if idx == 0:
        (x1, y1), s = pts[0], u.slopes[0]
        return y1 + s * (x - x1)
    if idx == len(pts):
        (x2, y2), s = pts[-1], u.slopes[-1]
        return y2 + s * (x - x2)
    x2, y2 = pts[idx]
    if x == x2:
        return y2
    x1, y1 = pts[idx - 1]
    return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


def _eu_oracle(u: PiecewiseLinearFn, f: Payoff) -> F:
    return F(sum(_call_oracle(u, v) for v in f.values), len(f))


def _dual_oracle(g, f: Payoff):
    n = len(f)
    grid = [g(F(k, n)) for k in range(n + 1)]
    weights = [b - a for a, b in zip(grid, grid[1:])]
    ordered = sorted(f.values, reverse=True)
    return sum((v * wt for v, wt in zip(ordered, weights)), F(0))


def _rho_sweep_oracle(u: PiecewiseLinearFn, g: Payoff, f: Payoff) -> F:
    slopes = u.slopes
    r = f.min_value() - u.xs[-1]
    value = sum(_call_oracle(u, v - r) for v in f.values) - _eu_oracle(u, g) * len(f)
    active = slopes[-1] * len(f)
    interior = [(x, slopes[j - 1] - slopes[j]) for j, x in enumerate(u.xs[1:-1], 1)]
    kinks = sorted(((v - x, dd) for v in f.values for x, dd in interior), key=itemgetter(0))
    for k, dd in kinks:
        at_k = value - active * (k - r)
        if at_k <= 0:
            break
        r, value, active = k, at_k, active + dd
    return r + value / active


mixed = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def mixed_payoffs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return Payoff(tuple(draw(st.lists(mixed, min_size=n, max_size=n))))


@st.composite
def distortions(draw):
    inner = sorted(draw(st.sets(
        st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12), max_size=4
    )))
    heights = sorted(draw(st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=12),
        min_size=len(inner), max_size=len(inner),
    )))
    return PiecewiseLinearFn(((F(0), F(0)),) + tuple(zip(inner, heights)) + ((F(1), F(1)),))


def _same(got, want) -> bool:
    return got == want and type(got) is type(want)


def _inverse_oracle(u: PiecewiseLinearFn, y: F) -> F:
    """The deleted ``PiecewiseLinearFn.inverse``: the exact preimage of ``y`` under increasing ``u``."""
    pts = u.breakpoints
    idx = bisect.bisect_left([py for _, py in pts], y)
    if idx == 0:
        (x1, y1), s = pts[0], u.slopes[0]
        return x1 + (y - y1) / s
    if idx == len(pts):
        (x2, y2), s = pts[-1], u.slopes[-1]
        return x2 + (y - y2) / s
    x2, y2 = pts[idx]
    if y == y2:
        return x2
    x1, y1 = pts[idx - 1]
    return x1 + (x2 - x1) * (y - y1) / (y2 - y1)


def _models():
    return [
        expected_value_model(),
        expected_utility_model(concave_utility()),
        dual_model(convex_distortion()),
    ]


class TestModelLaws:
    def test_law_invariance_of_value(self):
        rng = random.Random(43)
        for m in _models():
            for _ in range(60):
                n = rng.randint(1, 6)
                f = Payoff(tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(n)))
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                assert m.value(f) == m.value(f.permute(perm))

    def test_law_invariance_of_rho(self):
        rng = random.Random(44)
        for m in _models():
            for _ in range(40):
                n = rng.randint(2, 5)
                f = Payoff(tuple(F(rng.randint(-5, 5)) for _ in range(n)))
                g = Payoff(tuple(F(rng.randint(-5, 5)) for _ in range(n)))
                pf, pg = list(range(1, n + 1)), list(range(1, n + 1))
                rng.shuffle(pf)
                rng.shuffle(pg)
                assert rho(m, g, f) == rho(m, g.permute(pg), f.permute(pf))

    def test_sign_characterizes_preference(self):
        rng = random.Random(45)
        for m in _models():
            for _ in range(60):
                n = rng.randint(2, 5)
                f = Payoff(tuple(F(rng.randint(-5, 5)) for _ in range(n)))
                g = Payoff(tuple(F(rng.randint(-5, 5)) for _ in range(n)))
                assert (m.value(f) >= m.value(g)) == (rho(m, g, f) >= 0)

    @settings(max_examples=200, deadline=None)
    @given(increasing_utilities(), mixed_payoffs())
    def test_certainty_equivalent_is_negated_rho_against_zero(self, u, f):
        """For EU, ``-rho(m, f, 0)`` is the preimage of ``E[u(f)]`` that the deleted ``inverse`` found."""
        assert _same(certainty_equivalent(expected_utility_model(u), f), _inverse_oracle(u, eu_value(u, f)))

    def test_monotone_in_constant_additions(self):
        for m in _models():
            f = P(-1, 0, 2)
            assert m.value(f + F(1, 2)) > m.value(f)

    def test_concave_utility_jensen(self):
        rng = random.Random(47)
        u = concave_utility()
        for _ in range(60):
            n = rng.randint(1, 6)
            f = Payoff(tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(n)))
            const = Payoff.constant(expectation(f), n)
            assert eu_value(u, const) >= eu_value(u, f)


class TestIntegerKernels:
    """The integer kernels return the earlier Fraction results, in value and type."""

    @settings(max_examples=200, deadline=None)
    @given(increasing_utilities(), mixed)
    def test_call_matches_oracle(self, u, x):
        assert _same(u(x), _call_oracle(u, x))

    @settings(deadline=None)
    @given(increasing_utilities(), st.data())
    def test_call_at_breakpoints(self, u, data):
        x, y = data.draw(st.sampled_from(u.breakpoints))
        assert _same(u(x), y)

    @settings(max_examples=200, deadline=None)
    @given(increasing_utilities(), mixed_payoffs())
    def test_eu_value_matches_oracle(self, u, f):
        assert _same(eu_value(u, f), _eu_oracle(u, f))

    @settings(max_examples=200, deadline=None)
    @given(increasing_utilities(), mixed_payoffs(), st.data())
    def test_rho_eu_matches_sweep(self, u, f, data):
        g = data.draw(mixed_payoffs(min_n=len(f), max_n=len(f)))
        assert _same(_rho_eu(u, g, f), _rho_sweep_oracle(u, g, f))

    @settings(max_examples=200, deadline=None)
    @given(distortions(), mixed_payoffs())
    def test_dual_value_matches_oracle(self, g, f):
        assert _same(dual_value(g, f), _dual_oracle(g, f))



class TestDistortionWeightCache:
    """A ``PiecewiseLinearFn`` keeps its increments per ``n`` on the instance, with no shared cache."""

    def test_equal_distinct_distortions_skip_the_lru_cache(self):
        g1, g2 = convex_distortion(), convex_distortion()
        f = P(3, -1, 2)
        assert dual_value(g1, f) == dual_value(g2, f) == _dual_oracle(g1, f)
        assert set(g1._weights) == set(g2._weights) == {3}
        assert g1 == g2 and hash(g1) == hash(g2) == hash((g1.breakpoints,)) and repr(g1) == repr(g2)

    @settings(max_examples=100, deadline=None)
    @given(distortions(), st.lists(mixed_payoffs(), min_size=1, max_size=6))
    def test_warm_cache_matches_oracle(self, g, fs):
        for f in fs + fs:
            assert _same(dual_value(g, f), _dual_oracle(g, f))
