"""The integer-vector readers in orders, decompose, insurance and the shrinker against oracles.

Each oracle is the earlier body of the function, which read
``Payoff.values`` as ``Fraction``s; the ported functions must return the
same values of the same types, or raise the same error.
"""

from fractions import Fraction as F
from itertools import combinations
from typing import Optional

from hypothesis import given, settings, strategies as st

from riskprop import Payoff, decompose, insurance, orders
from riskprop.certify import _toward_zero
from riskprop.decompose import InsuranceTriple, MpsChain, Rearrangement, ZeroMeanSplit
from riskprop.orders import MpsStep
from riskprop.space import equal_in_distribution, expectation

# ---------------------------------------------------------------------------
# oracles: the earlier Fraction bodies


def apply_oracle(step: MpsStep, f: Payoff) -> Payoff:
    step.check_states(f)
    if f[step.donor] > f[step.recipient]:
        raise ValueError(
            f"step does not apply: f[{step.donor}]={f[step.donor]} exceeds "
            f"f[{step.recipient}]={f[step.recipient]}"
        )
    vals = list(f.values)
    vals[step.donor - 1] -= step.delta
    vals[step.recipient - 1] += step.delta
    return Payoff(tuple(vals))


def concave_order_oracle(f: Payoff, g: Payoff) -> bool:
    f._check_same_length(g)
    fs, gs = f.ascending(), g.ascending()
    pf = pg = F(0)
    n = len(fs)
    for k in range(n):
        pf += fs[k]
        pg += gs[k]
        if k < n - 1:
            if pf < pg:
                return False
        elif pf != pg:
            return False
    return True


def fsd_oracle(f: Payoff, g: Payoff) -> bool:
    f._check_same_length(g)
    return all(a >= b for a, b in zip(f.ascending(), g.ascending()))


def stop_loss_oracle(f: Payoff, cap: F) -> F:
    return F(sum(min(v, cap) for v in f.values), len(f))


def recognize_mps_oracle(f: Payoff, g: Payoff) -> Optional[MpsStep]:
    f._check_same_length(g)
    diff = [b - a for a, b in zip(f.values, g.values)]
    moved = [i for i, d in enumerate(diff) if d != 0]
    if not moved:
        for s1 in range(1, len(f) + 1):
            for s2 in range(1, len(f) + 1):
                if s1 != s2 and f[s1] <= f[s2]:
                    return MpsStep(s1, s2, F(0))
        return None
    if len(moved) != 2:
        return None
    i, j = moved
    if diff[i] < 0 < diff[j] and diff[i] == -diff[j]:
        donor, recipient = i, j
    elif diff[j] < 0 < diff[i] and diff[j] == -diff[i]:
        donor, recipient = j, i
    else:
        return None
    if f.values[donor] > f.values[recipient]:
        return None
    return MpsStep(donor + 1, recipient + 1, -diff[donor])


def counter_monotone_oracle(f: Payoff, w: Payoff) -> bool:
    f._check_same_length(w)
    for s, t in combinations(range(len(f)), 2):
        if (f.values[s] - f.values[t]) * (w.values[s] - w.values[t]) > 0:
            return False
    return True


def better_hedge_oracle(f: Payoff, g: Payoff, w: Payoff) -> bool:
    f._check_same_length(g)
    f._check_same_length(w)
    if not equal_in_distribution(f, g):
        return False
    payments = sorted(set(f.values) | set(g.values))
    for level in sorted(set(w.values)):
        cut = [i for i, v in enumerate(w.values) if v <= level]
        for t in payments:
            count_f = sum(1 for i in cut if f.values[i] <= t)
            count_g = sum(1 for i in cut if g.values[i] <= t)
            if count_f > count_g:
                return False
    return True


def is_best_hedge_oracle(f: Payoff, w: Payoff) -> bool:
    f._check_same_length(w)
    order = sorted(range(len(w)), key=lambda i: (w.values[i], i))
    asc = f.ascending()
    vals = [F(0)] * len(w)
    for rank, i in enumerate(order):
        vals[i] = asc[len(w) - 1 - rank]
    return better_hedge_oracle(f, Payoff(tuple(vals)), w)


def split_zero_mean_oracle(f: Payoff) -> ZeroMeanSplit:
    if expectation(f) != 0:
        raise ValueError(f"payoff must have zero mean, got {expectation(f)}")
    x = f.values
    n = len(x)
    if all(v == 0 for v in x):
        zero = Payoff.constant(0, n)
        return ZeroMeanSplit(zero, zero)
    remaining = list(range(n))
    first = min(i for i in remaining if x[i] > 0)
    order = [first]
    remaining.remove(first)
    partial = x[first]
    while remaining:
        zeros = [i for i in remaining if x[i] == 0]
        if zeros:
            pick = zeros[0]
        elif partial == 0:
            pick = remaining[0]
        elif partial > 0:
            pick = min(i for i in remaining if x[i] < 0)
        else:
            pick = min(i for i in remaining if x[i] > 0)
        order.append(pick)
        remaining.remove(pick)
        partial += x[pick]
    h_vals = [F(0)] * n
    hp_vals = [F(0)] * n
    running = F(0)
    for state in order:
        hp_vals[state] = running
        running += x[state]
        h_vals[state] = running
    return ZeroMeanSplit(Payoff(tuple(h_vals)), Payoff(tuple(hp_vals)))


def mps_chain_oracle(f: Payoff, g: Payoff) -> MpsChain:
    if not concave_order_oracle(f, g):
        raise ValueError("mps_chain requires concave_order(f, g)")
    if f == g:
        return MpsChain(())
    n = len(f)
    perm = sorted(range(n), key=lambda i: (f.values[i], i))
    current = [f.values[i] for i in perm]
    target = sorted(g.values)
    elements = []
    for _ in range(n):
        diffs = [i for i in range(n) if current[i] != target[i]]
        if not diffs:
            break
        i = diffs[0]
        j = next(k for k in range(i + 1, n) if current[k] < target[k])
        delta = min(current[i] - target[i], target[j] - current[j])
        elements.append(MpsStep(perm[i] + 1, perm[j] + 1, delta))
        current[i] -= delta
        current[j] += delta
    after = [F(0)] * n
    for pos, state in enumerate(perm):
        after[state] = current[pos]
    if tuple(after) != g.values:
        used = [False] * n
        mapping = []
        for s in range(n):
            t = next(k for k in range(n) if not used[k] and after[k] == g.values[s])
            used[t] = True
            mapping.append(t + 1)
        elements.append(Rearrangement(tuple(mapping)))
    return MpsChain(tuple(elements))


def proportional_triple_oracle(f: Payoff, step: MpsStep) -> InsuranceTriple:
    step.check_states(f)
    m1, m2 = f[step.donor], f[step.recipient]
    if step.delta == 0 or m1 == m2:
        raise ValueError(
            "proportional factorization needs delta > 0 and strictly increasing "
            "donor -> recipient values; perturb the flat spread first"
        )
    if m1 > m2:
        raise ValueError("step does not apply: donor value exceeds recipient value")
    a = (m1 - m2) / step.delta - 1
    f_tilde = f * (F(1) / (a + 1))
    w_tilde = f_tilde * a
    g_vals = list(f_tilde.values)
    g_vals[step.donor - 1], g_vals[step.recipient - 1] = (
        g_vals[step.recipient - 1],
        g_vals[step.donor - 1],
    )
    excess = 1 + F(1) / a
    return InsuranceTriple(
        w_tilde, f_tilde, Payoff(tuple(g_vals)), kind="pr",
        params={"excess": excess, "premium": F(0)},
    )


def deductible_triple_oracle(f: Payoff, step: MpsStep) -> InsuranceTriple:
    step.check_states(f)
    m1, m2 = f[step.donor], f[step.recipient]
    if m1 > m2:
        raise ValueError("step does not apply: donor value exceeds recipient value")
    half = step.delta / 2
    n = len(f)
    low_side = [
        i != step.recipient - 1 and (f.values[i] <= m1 or f.values[i] < m2) for i in range(n)
    ]
    f_vals, g_vals, w_vals = [], [], []
    for i in range(n):
        if low_side[i]:
            f_vals.append(half)
            g_vals.append(-half if i == step.donor - 1 else half)
            w_vals.append(f.values[i] - half)
        else:
            f_vals.append(-half)
            g_vals.append(half if i == step.recipient - 1 else -half)
            w_vals.append(f.values[i] + half)
    return InsuranceTriple(
        Payoff(tuple(w_vals)), Payoff(tuple(f_vals)), Payoff(tuple(g_vals)), kind="dl",
        params={"deductible": -m2 - half, "limit": 2 * half, "premium": half},
    )


def fit_full_oracle(f: Payoff, w: Payoff) -> Optional[dict]:
    total = w + f
    if all(v == total.values[0] for v in total.values):
        return {"premium": -total.values[0]}
    return None


def fit_proportional_oracle(f: Payoff, w: Payoff) -> Optional[dict]:
    pairs = [
        (s, t) for s in range(len(w)) for t in range(s + 1, len(w)) if w.values[s] != w.values[t]
    ]
    if not pairs:
        if all(v == f.values[0] for v in f.values):
            return {"excess": F(0), "premium": -(f.values[0] + w.values[0])}
        return None
    s, t = pairs[0]
    coverage = (f.values[t] - f.values[s]) / (w.values[s] - w.values[t])
    if not 0 < coverage <= 1:
        return None
    const = f.values[0] + coverage * w.values[0]
    if any(f.values[i] + coverage * w.values[i] != const for i in range(len(w))):
        return None
    return {"excess": 1 - coverage, "premium": -const}


def loss_profile_oracle(f: Payoff, w: Payoff):
    table = {}
    for lv, pay in zip((-w).values, f.values):
        if lv in table and table[lv] != pay:
            return None
        table[lv] = pay
    points = sorted(table.items())
    for (_, p1), (_, p2) in zip(points, points[1:]):
        if p1 > p2:
            return None
    return points


def fit_deductible_limit_oracle(f: Payoff, w: Payoff) -> Optional[dict]:
    points = loss_profile_oracle(f, w)
    if points is None:
        return None
    if len({pay for _, pay in points}) == 1:
        return {"deductible": F(0), "limit": F(0), "premium": -points[0][1]}
    for b in sorted({lv - pay for lv, pay in points}):
        low = sorted({pay for lv, pay in points if pay > lv - b})
        high = sorted({pay for lv, pay in points if pay < lv - b})
        if len(low) > 1 or len(high) > 1:
            continue
        on_line = [pay for lv, pay in points if pay == lv - b]
        floor = low[0] if low else min(pay for _, pay in points)
        cap = high[0] if high else max(pay for _, pay in points)
        if cap < floor:
            continue
        if on_line and (min(on_line) < floor or max(on_line) > cap):
            continue
        return {"deductible": b + floor, "limit": cap - floor, "premium": -floor}
    return None


def fit_indemnity_oracle(f: Payoff, w: Payoff) -> Optional[dict]:
    points = loss_profile_oracle(f, w)
    if points is None:
        return None
    return {"schedule": tuple(points), "premium": F(0)}


def fit_contingency_oracle(f: Payoff, w: Payoff) -> Optional[dict]:
    return {} if counter_monotone_oracle(f, w) else None


def dl_contract_oracle(w: Payoff, d: F, lam: F, pi: F) -> Payoff:
    return Payoff(tuple(min(max(lv - d, F(0)), lam) - pi for lv in (-w).values))


def toward_zero_oracle(v: F) -> list[F]:
    out = []
    if v.denominator != 1:
        out.append(F(int(v)))
    if v > 0:
        out.append(v - 1 if v >= 1 else F(0))
    elif v < 0:
        out.append(v + 1 if v <= -1 else F(0))
    return [c for c in out if c != v]


# ---------------------------------------------------------------------------
# inputs: denominators up to 12, n = 1..8, with related pairs mixed in

# built from integer draws, which hypothesis generates much faster than st.fractions
mixed = st.builds(F, st.integers(min_value=-36, max_value=36), st.integers(min_value=1, max_value=12))
deltas = st.builds(F, st.integers(min_value=0, max_value=24), st.integers(min_value=1, max_value=12))


def outcome(fn, *args):
    """The result's repr (which shows every value's type), or the error's type and message."""
    try:
        return "ok", repr(fn(*args))
    except (ValueError, IndexError) as exc:
        return "error", type(exc), str(exc)


@st.composite
def payoff(draw, n):
    return Payoff(tuple(draw(st.lists(mixed, min_size=n, max_size=n))))


@st.composite
def payoff_pairs(draw):
    """``(f, g)``: ``g`` unrelated, a rearrangement of ``f``, ``f`` after spreads, or ``f`` itself."""
    n = draw(st.integers(min_value=1, max_value=8))
    f = draw(payoff(n))
    how = draw(st.sampled_from(("random", "rearranged", "spread", "same")))
    if how == "random":
        return f, draw(payoff(n))
    if how == "rearranged":
        return f, f.permute(draw(st.permutations(range(1, n + 1))))
    if how == "same":
        return f, f
    g = f
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if n < 2:
            break
        s1, s2 = draw(st.permutations(range(1, n + 1)))[:2]
        if g[s1] > g[s2]:
            s1, s2 = s2, s1
        g = apply_oracle(MpsStep(s1, s2, draw(deltas)), g)
    return f, g


@st.composite
def contracts(draw):
    """``(w, f)``: ``f`` random, or a contract of one of the five kinds on ``w``, possibly rearranged."""
    n = draw(st.integers(min_value=1, max_value=8))
    w = draw(payoff(n))
    pi = draw(mixed)
    kind = draw(st.sampled_from(("random", "fi", "pr", "dl", "is", "cs")))
    if kind == "random":
        f = draw(payoff(n))
    elif kind == "fi":
        f = -w - pi
    elif kind == "pr":
        f = (-w) * (1 - F(draw(st.integers(min_value=0, max_value=11)), 12)) - pi
    elif kind == "dl":
        f = dl_contract_oracle(w, draw(mixed), abs(draw(mixed)), pi)
    elif kind == "is":
        losses = sorted(set((-w).values))
        pays = sorted(draw(st.lists(mixed, min_size=len(losses), max_size=len(losses))))
        table = dict(zip(losses, pays))
        f = Payoff(tuple(table[lv] - pi for lv in (-w).values))
    else:
        draws = sorted(draw(st.lists(mixed, min_size=n, max_size=n)), reverse=True)
        order = sorted(range(n), key=lambda i: (w.values[i], i))
        vals = [F(0)] * n
        for rank, i in enumerate(order):
            vals[i] = draws[rank]
        f = Payoff(tuple(vals))
    if draw(st.booleans()):
        f = f.permute(draw(st.permutations(range(1, n + 1))))
    return w, f


@st.composite
def tied_hedges(draw):
    """``(f, g, w)``: up to 12 states, ``g`` a rearrangement of ``f``, ``w`` on at most 3 levels."""
    n = draw(st.integers(min_value=1, max_value=12))
    f = draw(payoff(n))
    g = f.permute(draw(st.permutations(range(1, n + 1))))
    levels = draw(st.lists(mixed, min_size=1, max_size=3))
    w = Payoff(tuple(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))))
    return f, g, w


@st.composite
def steps(draw):
    """``(f, step)`` with the step's states inside ``f``, in either value order."""
    n = draw(st.integers(min_value=2, max_value=8))
    f = draw(payoff(n))
    s1, s2 = draw(st.permutations(range(1, n + 1)))[:2]
    return f, MpsStep(s1, s2, draw(deltas))


# ---------------------------------------------------------------------------


class TestOrders:
    @settings(max_examples=200, deadline=None)
    @given(payoff_pairs(), mixed)
    def test_pair_relations(self, pair, cap):
        f, g = pair
        for new, old in (
            (orders.concave_order, concave_order_oracle),
            (orders.fsd, fsd_oracle),
            (orders.recognize_mps, recognize_mps_oracle),
            (orders.counter_monotone, counter_monotone_oracle),
            (orders.is_best_hedge, is_best_hedge_oracle),
        ):
            assert outcome(new, f, g) == outcome(old, f, g)
            assert outcome(new, g, f) == outcome(old, g, f)
        assert outcome(orders.stop_loss, f, cap) == outcome(stop_loss_oracle, f, cap)

    @settings(max_examples=200, deadline=None)
    @given(payoff_pairs(), st.data())
    def test_better_hedge(self, pair, data):
        f, g = pair
        w = data.draw(payoff(len(f)))
        assert outcome(orders.better_hedge, f, g, w) == outcome(better_hedge_oracle, f, g, w)
        assert outcome(orders.better_hedge, g, f, w) == outcome(better_hedge_oracle, g, f, w)

    @settings(max_examples=200, deadline=None)
    @given(tied_hedges())
    def test_level_sweeps(self, case):
        f, g, w = case
        assert orders.better_hedge(f, g, w) == better_hedge_oracle(f, g, w)
        assert orders.better_hedge(g, f, w) == better_hedge_oracle(g, f, w)
        assert orders.counter_monotone(f, w) == counter_monotone_oracle(f, w)
        assert orders.counter_monotone(g, w) == counter_monotone_oracle(g, w)

    @settings(max_examples=200, deadline=None)
    @given(steps())
    def test_step_apply(self, case):
        f, step = case
        assert outcome(step.apply, f) == outcome(apply_oracle, step, f)


class TestDecompose:
    @settings(max_examples=200, deadline=None)
    @given(payoff_pairs())
    def test_split_zero_mean(self, pair):
        f, _ = pair
        for h in (f, f - expectation(f)):
            assert outcome(decompose.split_zero_mean, h) == outcome(split_zero_mean_oracle, h)

    @settings(max_examples=200, deadline=None)
    @given(payoff_pairs())
    def test_mps_chain(self, pair):
        f, g = pair
        assert outcome(decompose.mps_chain, f, g) == outcome(mps_chain_oracle, f, g)

    @settings(max_examples=200, deadline=None)
    @given(steps())
    def test_triples(self, case):
        f, step = case
        for new, old in (
            (decompose.proportional_triple, proportional_triple_oracle),
            (decompose.deductible_triple, deductible_triple_oracle),
        ):
            assert outcome(new, f, step) == outcome(old, f, step)


class TestInsurance:
    @settings(max_examples=300, deadline=None)
    @given(contracts())
    def test_fitters(self, case):
        w, f = case
        for new, old in (
            (insurance._fit_full, fit_full_oracle),
            (insurance._fit_proportional, fit_proportional_oracle),
            (insurance._fit_deductible_limit, fit_deductible_limit_oracle),
            (insurance._fit_indemnity, fit_indemnity_oracle),
            (insurance._fit_contingency, fit_contingency_oracle),
        ):
            assert outcome(new, f, w) == outcome(old, f, w)

    @settings(max_examples=300, deadline=None)
    @given(contracts())
    def test_classify_detailed(self, case):
        w, f = case
        oracles = (
            fit_full_oracle,
            fit_proportional_oracle,
            fit_deductible_limit_oracle,
            fit_indemnity_oracle,
            fit_contingency_oracle,
        )
        fits = ((kind, fit(f, w)) for kind, fit in zip(insurance.KIND_ORDER, oracles))
        want = {kind: fit for kind, fit in fits if fit is not None}
        # the repr shows the key order, the params and their types
        assert outcome(insurance.classify_detailed, f, w) == ("ok", repr(want))
        if insurance._loss_profile(f, w) is None:
            assert set(want) <= {insurance.InsuranceKind.CONTINGENCY_SCHEDULE}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=8).flatmap(payoff), mixed, mixed, mixed)
    def test_deductible_limit_contract(self, w, d, lam, pi):
        got = outcome(lambda: insurance.make_contract(w, "dl", deductible=d, limit=lam, premium=pi).payoff)
        want = (
            outcome(dl_contract_oracle, w, d, lam, pi)
            if lam >= 0
            else ("error", ValueError, f"limit must be >= 0, got {lam}")
        )
        assert got == want


class TestShrinkCandidates:
    @settings(max_examples=200, deadline=None)
    @given(mixed, st.integers(min_value=1, max_value=6))
    def test_toward_zero(self, v, scale):
        den = v.denominator * scale  # a payoff's denominator is a multiple of each value's
        got = [F(c, den) for c in _toward_zero(v.numerator * scale, den)]
        want = toward_zero_oracle(v)
        assert got == want and all(type(c) is F for c in want)
