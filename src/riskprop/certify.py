"""Search-based certification of risk-attitude properties on concrete models.

Every check searches a finite budget of instances for a strict
counterexample to a universally quantified property.  A ``violated``
verdict carries a witness that re-evaluates to a strict inequality under
exact arithmetic; ``holds_on_budget`` is not a proof, and the budget is
echoed in the report.

Each check runs two phases, in deterministic order:

* phase 1, structured sweeps: instances derived from the constructive
  decompositions (zero-mean splits for full-insurance style properties,
  single-spread triples for partial-insurance ones, spread pairs for the
  concave-order ones) over the budget's value grid.  Because every
  property tested is law invariant, these sweeps enumerate one sorted
  representative per distribution, which is exhaustive at the
  distribution level.  Sweep sizes are capped at ``exhaustive_n`` for
  the split-based derivations and at 3 on the full grid plus 4 on the
  fixed subgrid (-1, 0, 1, 2) for the spread grids.
* phase 2, seeded random trials: each trial draws its generator from
  ``(seed, trial_index)``, so reports are reproducible and independent
  of evaluation order.  Propensity-style checks sweep every distinct
  rearrangement of the alternative payoff when ``n <= exhaustive_n``
  (deduplicated by the distribution of ``w + g``), and a random sample
  of rearrangements otherwise.

The first violation in this deterministic order is minimized (drop
states, then shrink values toward zero, re-verifying the full predicate
at each step) and reported.

The insurance propensity predicates (search, shrinking and replay alike)
test their conjuncts in this order: equal distributions of ``f`` and
``g``, then the strict value gap, then the structure (``f`` a contract
of the kind on ``w``, or for hedging a better hedge than ``g``).  The
order changes cost, never results.

Two more devices change cost, never results.  Phase 1 of an insurance
propensity search knows each instance's sums before its parts: a spread
pair ``f0 -> g0 = step.apply(f0)`` factors into ``(w, f, g)`` with
``w + f = f0`` and ``w + g = g0``, so the value gap is tested on
``(f0, g0)`` and the pair is factored only when that gap is strict (a
split of ``h`` has the sums ``(E[h], h)``).  And each search evaluates
``V`` and ``rho`` through a memo keyed on the laws of the payoffs, built
with the search and dropped when it returns; every built-in model is law
invariant, and ``custom`` models skip the memo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .decompose import deductible_triple, proportional_triple, split_zero_mean
from .insurance import (
    PremiumPrinciple,
    is_member,
    make_contract,
)
from .orders import MpsStep, better_hedge, concave_order
from .preferences import PreferenceModel, rho
from .space import Payoff, _from_ints, as_fraction, equal_in_distribution, expectation

__all__ = [
    "SearchBudget",
    "Witness",
    "CertificateReport",
    "HOLDS",
    "VIOLATED",
    "check_weak_risk_aversion",
    "check_strong_risk_aversion",
    "check_propensity",
    "check_neutrality",
    "check_premium_propensity",
    "compare_weak",
    "compare_strong",
    "compare_propensity",
    "replay_witness",
    "PROPENSITY_KINDS",
]

HOLDS = "holds_on_budget"
VIOLATED = "violated"

PROPENSITY_KINDS = ("fi", "pr", "dl", "is", "cs", "hedging")

FLOAT_TOL = 1e-9

_SUBGRID4 = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2))
_DELTAS = (Fraction(1, 2), Fraction(1), Fraction(2))
_PREMIUMS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
_EXCESSES = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
_LIMITS = (Fraction(0), Fraction(1), Fraction(2), Fraction(7, 2))
_DEDUCTIBLES = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1))
_MEMO_ENTRIES = 1 << 14  # per memo; the demo-budget searches use under 1,000


def _default_grid() -> tuple[Fraction, ...]:
    return tuple(Fraction(k) for k in (-2, -1, 0, 1, 2))


@dataclass(frozen=True)
class SearchBudget:
    """Finite search effort: sizes, trial count, seed, and the value grid for generation."""

    max_n: int = 5
    exhaustive_n: int = 4
    trials: int = 300
    seed: int = 0
    value_grid: tuple[Fraction, ...] = field(default_factory=_default_grid)

    def __post_init__(self) -> None:
        if self.max_n < 2:
            raise ValueError("max_n must be >= 2")
        if self.max_n > 12:  # random instances build n^2 state pairs and n-state payoffs
            raise ValueError("max_n must be <= 12")
        if self.exhaustive_n > 7:  # 7! = 5,040 rearrangements per trial; larger n is sampled
            raise ValueError("exhaustive_n must be <= 7")
        if self.exhaustive_n > self.max_n:
            raise ValueError("exhaustive_n must not exceed max_n")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        grid = tuple(sorted({as_fraction(v) for v in self.value_grid}))
        if not grid:
            raise ValueError("value grid must be nonempty")
        if len(grid) > 12:  # the structured sweeps enumerate C(len + n - 1, n) payoffs
            raise ValueError("value grid must have at most 12 values")
        object.__setattr__(self, "value_grid", grid)


@dataclass(frozen=True)
class Witness:
    """Concrete payoffs on which the property fails, with both evaluated sides."""

    relation: str
    payoffs: Mapping[str, Payoff]
    lhs: Union[Fraction, float]
    rhs: Union[Fraction, float]


@dataclass(frozen=True)
class CertificateReport:
    property: str
    verdict: str
    witness: Optional[Witness]
    trials_run: int
    seed: int
    budget: SearchBudget
    notes: tuple[str, ...] = ()
    details: Mapping[str, "CertificateReport"] = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED


CONTINUITY_NOTE = (
    "continuity of the preference is an assumption of this property and is not checked"
)


# a violation predicate: the violated (lhs, rhs) pair, or None; search, shrinking and
# replay call it on the parts alone, and alternative sweeps also pass the prebuilt sums
Sums = tuple[Payoff, Payoff]
Predicate = Callable[..., Optional[tuple]]


def _strictly_less(a, b) -> bool:
    """Strict violation test honoring the float tolerance for inexact evaluators."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a < b
    return float(a) < float(b) - FLOAT_TOL


def _values_differ(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a != b
    return abs(float(a) - float(b)) > FLOAT_TOL


def _rng(seed: int, trial: int) -> random.Random:
    return random.Random(f"riskprop:{seed}:{trial}")


def _random_payoff(rng: random.Random, grid: Sequence[Fraction], n: int) -> Payoff:
    return Payoff(tuple(rng.choice(grid) for _ in range(n)))


def _distinct_permutations(f: Payoff) -> list[Payoff]:
    seen = set()
    out = []
    for perm in permutations(f.nums):
        if perm not in seen:
            seen.add(perm)
            out.append(_from_ints(perm, f.den))
    return out


def _sampled_permutations(rng: random.Random, f: Payoff, count: int) -> list[Payoff]:
    out = []
    vals = list(f.nums)
    for _ in range(count):
        rng.shuffle(vals)
        out.append(_from_ints(tuple(vals), f.den))
    return out


def _alternatives(rng: random.Random, f: Payoff, budget: SearchBudget) -> list[Payoff]:
    if len(f) <= budget.exhaustive_n:
        return _distinct_permutations(f)
    return _sampled_permutations(rng, f, 20)


def _law(p: Payoff) -> tuple[int, ...]:
    """The distribution of ``p`` as one flat tuple: size, denominator, sorted numerators."""
    return (len(p.nums), p.den, *sorted(p.nums))


def _per_law(m: PreferenceModel, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` of payoffs memoized on their laws, for one search; ``custom`` models skip the memo.

    Every built-in model is law invariant, so the memo changes cost, never
    results.  It starts over when full, which bounds its memory at any budget.
    """
    if m.family == "custom":
        return fn
    memo: dict = {}

    def call(*payoffs: Payoff):
        key = sum(map(_law, payoffs), ())  # unambiguous: each law leads with its size
        if key not in memo:
            if len(memo) >= _MEMO_ENTRIES:
                memo.clear()
            memo[key] = fn(*payoffs)
        return memo[key]

    return call


# ---------------------------------------------------------------------------
# phase-1 instance grids (model independent, cached across checks)


@lru_cache(maxsize=64)
def _grid_distributions(grid: tuple[Fraction, ...], n: int) -> tuple[Payoff, ...]:
    """One sorted representative per distribution over the grid."""
    ints = Payoff(grid)  # the ascending grid as integers over one denominator
    return tuple(
        _from_ints(vals, ints.den) for vals in combinations_with_replacement(ints.nums, n)
    )


@lru_cache(maxsize=64)
def _split_instances(
    grid: tuple[Fraction, ...], n_max: int
) -> tuple[tuple[Payoff, Payoff, Payoff, Payoff], ...]:
    """(h, w, f, g) with w + f constant at E[h], w + g = h, f a full insurance for w, g =d f."""
    out = []
    for n in range(2, n_max + 1):
        for h in _grid_distributions(grid, n):
            mean = expectation(h)
            split = split_zero_mean(h - mean)
            w = split.h
            f = -w + mean
            g = -split.h_prime + mean
            out.append((h, w, f, g))
    return tuple(out)


@lru_cache(maxsize=64)
def _spread_pairs(
    grid: tuple[Fraction, ...], strict: bool
) -> tuple[tuple[Payoff, MpsStep], ...]:
    """(f, step) spread instances, one sorted representative per distribution.

    Full grid at n <= 3, the fixed subgrid at n = 4; on a sorted payoff
    every donor < recipient state pair is a valid pinch, and relabelled
    instances add nothing for law-invariant properties.
    """
    out = []
    spaces = [(grid, n) for n in (2, 3)] + [(_SUBGRID4, 4)]
    for space, n in spaces:
        deltas = _DELTAS if n <= 3 else _DELTAS[:2]
        for f in _grid_distributions(tuple(space), n):
            for s1 in range(1, n + 1):
                for s2 in range(s1 + 1, n + 1):
                    if strict and f.nums[s1 - 1] == f.nums[s2 - 1]:
                        continue
                    for delta in deltas:
                        out.append((f, MpsStep(s1, s2, delta)))
    return tuple(out)


# ---------------------------------------------------------------------------
# witness shrinking


def _drop_state(p: Payoff, idx: int) -> Payoff:
    return _from_ints(p.nums[:idx] + p.nums[idx + 1 :], p.den)


def _toward_zero(v: int, den: int) -> list[int]:
    """Shrink candidates for the value ``v / den``, as numerators over ``den``."""
    out = []
    if v % den:
        out.append((abs(v) // den) * den * (1 if v > 0 else -1))  # truncate toward zero
    if v > 0:
        out.append(v - den if v >= den else 0)
    elif v < 0:
        out.append(v + den if v <= -den else 0)
    return [c for c in out if c != v]


def _shrink(
    payoffs: dict[str, Payoff],
    predicate: Callable[[dict[str, Payoff]], Optional[tuple]],
) -> tuple[dict[str, Payoff], tuple]:
    """Greedy witness minimization; the predicate re-verifies the full violation."""
    current = dict(payoffs)
    sides = predicate(current)
    assert sides is not None, "shrinking must start from a verified violation"
    budget = 200
    improved = True
    while improved and budget > 0:
        improved = False
        n = len(next(iter(current.values())))
        if n > 2:
            for idx in range(n):
                candidate = {k: _drop_state(p, idx) for k, p in current.items()}
                budget -= 1
                trial = predicate(candidate)
                if trial is not None:
                    current, sides = candidate, trial
                    improved = True
                    break
        if improved:
            continue
        for key in sorted(current):
            p = current[key]
            for idx in range(len(p)):
                for cand in _toward_zero(p.nums[idx], p.den):
                    vals = list(p.nums)
                    vals[idx] = cand
                    candidate = dict(current)
                    candidate[key] = _from_ints(tuple(vals), p.den)
                    budget -= 1
                    trial = predicate(candidate)
                    if trial is not None:
                        current, sides = candidate, trial
                        improved = True
                        break
                if improved or budget <= 0:
                    break
            if improved or budget <= 0:
                break
    return current, sides


def _report_violation(
    prop: str,
    relation: str,
    payoffs: dict[str, Payoff],
    predicate: Callable[[dict[str, Payoff]], Optional[tuple]],
    trials_run: int,
    budget: SearchBudget,
    notes: tuple[str, ...] = (),
) -> CertificateReport:
    shrunk, (lhs, rhs) = _shrink(payoffs, predicate)
    return CertificateReport(
        property=prop,
        verdict=VIOLATED,
        witness=Witness(relation, shrunk, lhs, rhs),
        trials_run=trials_run,
        seed=budget.seed,
        budget=budget,
        notes=notes,
    )


def _report_holds(
    prop: str, trials_run: int, budget: SearchBudget, notes: tuple[str, ...] = ()
) -> CertificateReport:
    return CertificateReport(
        property=prop,
        verdict=HOLDS,
        witness=None,
        trials_run=trials_run,
        seed=budget.seed,
        budget=budget,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# absolute attitudes


def _require_total(m: PreferenceModel) -> None:
    if not m.has_total_evaluator():
        raise ValueError(
            f"this check needs a model with a total evaluator; {m.name!r} "
            f"only provides a partial order"
        )


def check_weak_risk_aversion(m: PreferenceModel, budget: SearchBudget) -> CertificateReport:
    """Search for a payoff the model prefers to its own expectation."""
    _require_total(m)
    prop = f"weak_risk_aversion[{m.name}]"
    value = _per_law(m, m.value)

    def violation(parts: dict[str, Payoff]) -> Optional[tuple]:
        f = parts["f"]
        lhs = value(Payoff.constant(expectation(f), len(f)))
        rhs = value(f)
        return (lhs, rhs) if _strictly_less(lhs, rhs) else None

    trials_run = 0
    for n in range(2, budget.exhaustive_n + 1):
        for f in _grid_distributions(budget.value_grid, n):
            trials_run += 1
            if violation({"f": f}) is not None:
                return _report_violation(
                    prop, "V(E[f]) < V(f)", {"f": f}, violation, trials_run, budget
                )
    for t in range(budget.trials):
        rng = _rng(budget.seed, t)
        f = _random_payoff(rng, budget.value_grid, rng.randint(2, budget.max_n))
        trials_run += 1
        if violation({"f": f}) is not None:
            return _report_violation(
                prop, "V(E[f]) < V(f)", {"f": f}, violation, trials_run, budget
            )
    return _report_holds(prop, trials_run, budget)


def _random_spread_chain(
    rng: random.Random, f: Payoff, steps: int
) -> Optional[Payoff]:
    g = f
    for _ in range(steps):
        states = list(range(1, len(f) + 1))
        rng.shuffle(states)
        found = None
        for s1 in states:
            for s2 in states:
                if s1 != s2 and g.nums[s1 - 1] <= g.nums[s2 - 1]:
                    found = (s1, s2)
                    break
            if found:
                break
        if not found:
            return None
        g = MpsStep(found[0], found[1], rng.choice(_DELTAS)).apply(g)
    return g


def check_strong_risk_aversion(m: PreferenceModel, budget: SearchBudget) -> CertificateReport:
    """Search concave-order pairs (built from spreads) for a preference reversal."""
    _require_total(m)
    prop = f"strong_risk_aversion[{m.name}]"
    value = _per_law(m, m.value)

    def violation(parts: dict[str, Payoff]) -> Optional[tuple]:
        f, g = parts["f"], parts["g"]
        if not concave_order(f, g):
            return None
        lhs, rhs = value(f), value(g)
        return (lhs, rhs) if _strictly_less(lhs, rhs) else None

    trials_run = 0
    for f, step in _spread_pairs(budget.value_grid, False):
        g = step.apply(f)
        trials_run += 1
        if violation({"f": f, "g": g}) is not None:
            return _report_violation(
                prop,
                "V(f) < V(g) with f >=cv g",
                {"f": f, "g": g},
                violation,
                trials_run,
                budget,
                (CONTINUITY_NOTE,),
            )
    for t in range(budget.trials):
        rng = _rng(budget.seed, t)
        f = _random_payoff(rng, budget.value_grid, rng.randint(2, budget.max_n))
        g = _random_spread_chain(rng, f, rng.randint(1, 3))
        trials_run += 1
        if g is not None and violation({"f": f, "g": g}) is not None:
            return _report_violation(
                prop,
                "V(f) < V(g) with f >=cv g",
                {"f": f, "g": g},
                violation,
                trials_run,
                budget,
                (CONTINUITY_NOTE,),
            )
    return _report_holds(prop, trials_run, budget, (CONTINUITY_NOTE,))


def _kind_member(kind: str, f: Payoff, w: Payoff) -> bool:
    return is_member(kind, f, w)


def _random_instance(
    kind: str, rng: random.Random, budget: SearchBudget, n: int
) -> Optional[tuple[Payoff, Payoff]]:
    """A random (w, contract payoff) pair of the requested kind."""
    grid = budget.value_grid
    w = _random_payoff(rng, grid, n)
    pi = rng.choice(_PREMIUMS)
    if kind == "fi":
        return w, make_contract(w, "fi", premium=pi).payoff
    if kind == "pr":
        return w, make_contract(w, "pr", premium=pi, excess=rng.choice(_EXCESSES)).payoff
    if kind == "dl":
        return w, make_contract(
            w,
            "dl",
            premium=pi,
            deductible=rng.choice(_DEDUCTIBLES),
            limit=rng.choice(_LIMITS),
        ).payoff
    if kind == "is":
        losses = sorted(set((-w).values))
        payments = sorted(rng.choice(grid) for _ in losses)
        schedule = list(zip(losses, payments))
        return w, make_contract(w, "is", premium=pi, schedule=schedule).payoff
    if kind in ("cs", "hedging"):
        draws = sorted((rng.choice(grid) for _ in range(n)), reverse=True)
        order = sorted(range(n), key=lambda i: (w.nums[i], i))
        vals = [Fraction(0)] * n
        for rank, i in enumerate(order):
            vals[i] = draws[rank]
        return w, Payoff(tuple(vals))
    raise ValueError(f"unknown propensity kind {kind!r}")


def _mixed_instances(
    kind: str, rng: random.Random, budget: SearchBudget
) -> Iterator[tuple[Payoff, Payoff, Optional[Payoff]]]:
    """Per-trial candidates (w, f, g_or_None); g None means sweep rearrangements."""
    n = rng.randint(2, budget.max_n)
    if kind in ("pr", "dl", "is", "cs", "hedging") and rng.random() < 0.34:
        f0 = _random_payoff(rng, budget.value_grid, n)
        states = [(s1, s2) for s1 in range(1, n + 1) for s2 in range(1, n + 1) if s1 != s2]
        rng.shuffle(states)
        for s1, s2 in states:
            if f0.nums[s1 - 1] < f0.nums[s2 - 1]:
                step = MpsStep(s1, s2, rng.choice(_DELTAS))
                if kind == "pr":
                    maker = proportional_triple
                elif kind == "dl":
                    maker = deductible_triple
                else:
                    maker = proportional_triple if rng.random() < 0.5 else deductible_triple
                t = maker(f0, step)
                yield t.w_tilde, t.f_tilde, t.g_tilde
                return
        return
    inst = _random_instance(kind, rng, budget, n)
    if inst is not None:
        w, f = inst
        yield w, f, None


def _insurance_violation_fn(kind: str, sides: Callable[[Payoff, Payoff], tuple]) -> Predicate:
    """Insurance propensity predicate over ``(lhs, rhs) = sides(w+f, w+g)``; see the module docstring."""

    def violation(parts: dict[str, Payoff], sums: Optional[Sums] = None) -> Optional[tuple]:
        w, f, g = parts["w"], parts["f"], parts["g"]
        if not equal_in_distribution(f, g):
            return None
        lhs, rhs = sides(*(sums or (w + f, w + g)))
        if not _strictly_less(lhs, rhs):
            return None
        if kind == "hedging":
            return (lhs, rhs) if better_hedge(f, g, w) else None
        return (lhs, rhs) if _kind_member(kind, f, w) else None

    return violation


def _value_sides(m: PreferenceModel) -> Callable[[Payoff, Payoff], tuple]:
    """``(f, g) -> (V(f), V(g))`` with a fresh memo."""
    value = _per_law(m, m.value)
    return lambda f, g: (value(f), value(g))


def _rho_sides(mA: PreferenceModel, mB: PreferenceModel) -> Callable[[Payoff, Payoff], tuple]:
    """``(f, g) -> (rho_B(g, f), rho_A(g, f))`` with a fresh memo per model."""
    rho_a = _per_law(mA, lambda g, f: rho(mA, g, f))
    rho_b = _per_law(mB, lambda g, f: rho(mB, g, f))
    return lambda f, g: (rho_b(g, f), rho_a(g, f))


def _propensity_violation_fn(kind: str, m: PreferenceModel) -> Predicate:
    return _insurance_violation_fn(kind, _value_sides(m))


def _compare_propensity_violation_fn(
    kind: str, mA: PreferenceModel, mB: PreferenceModel
) -> Predicate:
    return _insurance_violation_fn(kind, _rho_sides(mA, mB))


def _sweep_alternatives(
    w: Payoff, f: Payoff, alternatives: Iterable[Payoff], test: Predicate
) -> Optional[tuple[Payoff, tuple]]:
    """Test ``(w, f, g)`` for each alternative ``g``, deduplicated by the distribution of ``w + g``.

    Law invariance makes the deduplication exact.  ``test`` gets the parts
    and the sums ``(w + f, w + g)``: ``w + f`` is built once per sweep and
    ``w + g`` once per alternative.
    """
    wf = w + f
    seen = set()
    for g in alternatives:
        wg = w + g
        key = _law(wg)
        if key in seen:
            continue
        seen.add(key)
        sides = test({"w": w, "f": f, "g": g}, (wf, wg))
        if sides is not None:
            return g, sides
    return None


def _insurance_search(
    prop: str,
    relation: str,
    kind: str,
    sides: Callable[[Payoff, Payoff], tuple],
    budget: SearchBudget,
    split_n: int,
) -> CertificateReport:
    """Both phases of an insurance propensity search with the value gap ``sides(w + f, w + g)``.

    Phase 1 knows each instance's sums before its parts: ``(E[h], h)`` for
    the split of ``h`` (sizes up to ``split_n``), ``(f0, step.apply(f0))``
    for a spread pair, which is factored through its pr or dl purchase only
    when the gap on the sums is strict.
    """
    notes = () if kind == "fi" else (CONTINUITY_NOTE,)
    violation = _insurance_violation_fn(kind, sides)
    trials_run = 0

    def finish(parts: dict[str, Payoff]) -> CertificateReport:
        return _report_violation(prop, relation, parts, violation, trials_run, budget, notes)

    if kind == "fi":
        for h, w, f, g in _split_instances(budget.value_grid, split_n):
            trials_run += 1
            parts = {"w": w, "f": f, "g": g}
            if violation(parts, (Payoff.constant(expectation(h), len(h)), h)) is not None:
                return finish(parts)
    else:
        for source in (kind,) if kind in ("pr", "dl") else ("pr", "dl"):
            factor = proportional_triple if source == "pr" else deductible_triple
            for f0, step in _spread_pairs(budget.value_grid, source == "pr"):
                trials_run += 1
                g0 = step.apply(f0)
                if not _strictly_less(*sides(f0, g0)):
                    continue
                triple = factor(f0, step)
                parts = {"w": triple.w_tilde, "f": triple.f_tilde, "g": triple.g_tilde}
                if violation(parts, (f0, g0)) is not None:
                    return finish(parts)

    for t in range(budget.trials):
        rng = _rng(budget.seed, t)
        for w, f, g in _mixed_instances(kind, rng, budget):
            if g is not None:
                trials_run += 1
                if violation({"w": w, "f": f, "g": g}) is not None:
                    return finish({"w": w, "f": f, "g": g})
                continue
            alts = _alternatives(rng, f, budget)
            trials_run += 1
            hit = _sweep_alternatives(w, f, alts, violation)
            if hit is not None:
                return finish({"w": w, "f": f, "g": hit[0]})
    return _report_holds(prop, trials_run, budget, notes)


def check_propensity(
    kind: str, m: PreferenceModel, budget: SearchBudget
) -> CertificateReport:
    """Search for an insurance contract the model likes less than an equally distributed alternative.

    ``kind`` is one of ``fi, pr, dl, is, cs, hedging``.
    """
    if kind not in PROPENSITY_KINDS:
        raise ValueError(f"kind must be one of {PROPENSITY_KINDS}, got {kind!r}")
    _require_total(m)
    return _insurance_search(
        f"propensity[{kind}][{m.name}]",
        "V(w+f) < V(w+g)",
        kind,
        _value_sides(m),
        budget,
        budget.exhaustive_n,
    )


def check_premium_propensity(
    m: PreferenceModel, pp: PremiumPrinciple, budget: SearchBudget
) -> CertificateReport:
    """Full-insurance propensity with the premium pinned to the principle's price of the loss."""
    _require_total(m)
    prop = f"premium_propensity[{pp.name}][{m.name}]"
    value = _per_law(m, m.value)

    def violation(parts: dict[str, Payoff], sums: Optional[Sums] = None) -> Optional[tuple]:
        w, f, g = parts["w"], parts["f"], parts["g"]
        if f != -w - pp.base(-w):
            return None
        if not equal_in_distribution(f, g):
            return None
        wf, wg = sums or (w + f, w + g)
        lhs, rhs = value(wf), value(wg)
        return (lhs, rhs) if _strictly_less(lhs, rhs) else None

    trials_run = 0
    for h, w0, f0, g0 in _split_instances(budget.value_grid, budget.exhaustive_n):
        # shift the premium-free split instance so the price matches the principle
        mean = expectation(h)
        gamma = (pp.base(-w0) + mean) / pp.theta
        w = w0 + gamma
        f = f0 - gamma
        g = g0 - gamma
        trials_run += 1
        if violation({"w": w, "f": f, "g": g}) is not None:
            return _report_violation(
                prop, "V(w+f) < V(w+g)", {"w": w, "f": f, "g": g}, violation, trials_run, budget
            )
    for t in range(budget.trials):
        rng = _rng(budget.seed, t)
        n = rng.randint(2, budget.max_n)
        w = _random_payoff(rng, budget.value_grid, n)
        f = -w - pp.base(-w)
        trials_run += 1
        hit = _sweep_alternatives(w, f, _alternatives(rng, f, budget), violation)
        if hit is not None:
            g_found, _ = hit
            return _report_violation(
                prop,
                "V(w+f) < V(w+g)",
                {"w": w, "f": f, "g": g_found},
                violation,
                trials_run,
                budget,
            )
    return _report_holds(prop, trials_run, budget)


def check_neutrality(m: PreferenceModel, budget: SearchBudget) -> CertificateReport:
    """Check the neutrality family: risk, full-insurance, hedging, dependence, and the expected-value representation."""
    _require_total(m)
    prop = f"neutrality[{m.name}]"
    sub_budget = replace(budget, trials=max(1, budget.trials // 4))
    details: dict[str, CertificateReport] = {}
    value = _per_law(m, m.value)

    def equality_search(
        name: str,
        relation: str,
        instances: Iterator[dict[str, Payoff]],
        check: Callable[[dict[str, Payoff]], Optional[tuple]],
    ) -> CertificateReport:
        trials_run = 0
        for parts in instances:
            trials_run += 1
            if check(parts) is not None:
                return _report_violation(
                    name, relation, parts, check, trials_run, sub_budget
                )
        return _report_holds(name, trials_run, sub_budget)

    def risk_neutral_check(parts: dict[str, Payoff]) -> Optional[tuple]:
        f = parts["f"]
        lhs = value(Payoff.constant(expectation(f), len(f)))
        rhs = value(f)
        return (lhs, rhs) if _values_differ(lhs, rhs) else None

    def one_payoff_instances() -> Iterator[dict[str, Payoff]]:
        for n in range(2, min(budget.exhaustive_n, 4) + 1):
            for f in _grid_distributions(budget.value_grid, n):
                yield {"f": f}
        for t in range(sub_budget.trials):
            rng = _rng(budget.seed, 10_000 + t)
            yield {"f": _random_payoff(rng, budget.value_grid, rng.randint(2, budget.max_n))}

    details["risk_neutrality"] = equality_search(
        f"risk_neutrality[{m.name}]", "V(E[f]) != V(f)", one_payoff_instances(), risk_neutral_check
    )

    def pair_check(structural: Callable[[dict[str, Payoff]], bool]):
        def check(parts: dict[str, Payoff]) -> Optional[tuple]:
            if not structural(parts):
                return None
            lhs = value(parts["w"] + parts["f"])
            rhs = value(parts["w"] + parts["g"])
            return (lhs, rhs) if _values_differ(lhs, rhs) else None

        return check

    def fi_instances() -> Iterator[dict[str, Payoff]]:
        for _, w, f, g in _split_instances(budget.value_grid, min(budget.exhaustive_n, 4)):
            yield {"w": w, "f": f, "g": g}
        for t in range(sub_budget.trials):
            rng = _rng(budget.seed, 20_000 + t)
            n = rng.randint(2, budget.max_n)
            w = _random_payoff(rng, budget.value_grid, n)
            f = -w - rng.choice(_PREMIUMS)
            for g in _sampled_permutations(rng, f, 6):
                yield {"w": w, "f": f, "g": g}

    details["full_insurance_neutrality"] = equality_search(
        f"full_insurance_neutrality[{m.name}]",
        "V(w+f) != V(w+g) with f full insurance, g =d f",
        fi_instances(),
        pair_check(
            lambda parts: equal_in_distribution(parts["f"], parts["g"])
            and _kind_member("fi", parts["f"], parts["w"])
        ),
    )

    def hedging_instances() -> Iterator[dict[str, Payoff]]:
        for t in range(sub_budget.trials):
            rng = _rng(budget.seed, 30_000 + t)
            n = rng.randint(2, budget.max_n)
            inst = _random_instance("cs", rng, budget, n)
            if inst is None:
                continue
            w, f = inst
            for g in _sampled_permutations(rng, f, 6):
                yield {"w": w, "f": f, "g": g}

    details["hedging_neutrality"] = equality_search(
        f"hedging_neutrality[{m.name}]",
        "V(w+f) != V(w+g) with f a better hedge than g",
        hedging_instances(),
        pair_check(lambda parts: better_hedge(parts["f"], parts["g"], parts["w"])),
    )

    def dependence_instances() -> Iterator[dict[str, Payoff]]:
        for t in range(sub_budget.trials):
            rng = _rng(budget.seed, 40_000 + t)
            n = rng.randint(2, budget.max_n)
            w = _random_payoff(rng, budget.value_grid, n)
            f = _random_payoff(rng, budget.value_grid, n)
            for g in _sampled_permutations(rng, f, 6):
                yield {"w": w, "f": f, "g": g}

    details["dependence_neutrality"] = equality_search(
        f"dependence_neutrality[{m.name}]",
        "V(w+f) != V(w+g) with g =d f",
        dependence_instances(),
        pair_check(lambda parts: equal_in_distribution(parts["f"], parts["g"])),
    )

    notes = ()
    if m.monotone:

        def ev_check(parts: dict[str, Payoff]) -> Optional[tuple]:
            f, g = parts["f"], parts["g"]
            lhs, rhs = value(f), value(g)
            model_pref = not _strictly_less(lhs, rhs)
            ev_pref = expectation(f) >= expectation(g)
            return (lhs, rhs) if model_pref != ev_pref else None

        def ev_instances() -> Iterator[dict[str, Payoff]]:
            for t in range(sub_budget.trials):
                rng = _rng(budget.seed, 50_000 + t)
                n = rng.randint(2, budget.max_n)
                yield {
                    "f": _random_payoff(rng, budget.value_grid, n),
                    "g": _random_payoff(rng, budget.value_grid, n),
                }

        details["expected_value_representation"] = equality_search(
            f"expected_value_representation[{m.name}]",
            "(V(f) >= V(g)) disagrees with (E[f] >= E[g])",
            ev_instances(),
            ev_check,
        )
    else:
        notes = ("expected-value representation check skipped: model is not monotone",)

    verdict = HOLDS if all(r.verdict == HOLDS for r in details.values()) else VIOLATED
    first_bad = next((r for r in details.values() if r.violated), None)
    return CertificateReport(
        property=prop,
        verdict=verdict,
        witness=first_bad.witness if first_bad else None,
        trials_run=sum(r.trials_run for r in details.values()),
        seed=budget.seed,
        budget=budget,
        notes=notes,
        details=details,
    )


# ---------------------------------------------------------------------------
# comparative attitudes


def _require_comparable(mA: PreferenceModel, mB: PreferenceModel) -> None:
    for m in (mA, mB):
        if not (m.monotone and m.secular and m.has_total_evaluator()):
            raise ValueError(
                f"comparative checks need monotone, secular models with total "
                f"evaluators; {m.name!r} is not"
            )


def compare_weak(
    mA: PreferenceModel, mB: PreferenceModel, budget: SearchBudget
) -> CertificateReport:
    """Search for a payoff whose risk elimination B values less than A does."""
    _require_comparable(mA, mB)
    prop = f"compare_weak[{mA.name} vs {mB.name}]"
    sides = _rho_sides(mA, mB)

    def violation(parts: dict[str, Payoff]) -> Optional[tuple]:
        g = parts["g"]
        lhs, rhs = sides(Payoff.constant(expectation(g), len(g)), g)
        return (lhs, rhs) if _strictly_less(lhs, rhs) else None

    trials_run = 0
    for n in range(2, min(budget.exhaustive_n, 4) + 1):
        for g in _grid_distributions(budget.value_grid, n):
            trials_run += 1
            if violation({"g": g}) is not None:
                return _report_violation(
                    prop, "rho_B(g, E[g]) < rho_A(g, E[g])", {"g": g}, violation, trials_run, budget
                )
    for t in range(budget.trials):
        rng = _rng(budget.seed, t)
        g = _random_payoff(rng, budget.value_grid, rng.randint(2, budget.max_n))
        trials_run += 1
        if violation({"g": g}) is not None:
            return _report_violation(
                prop, "rho_B(g, E[g]) < rho_A(g, E[g])", {"g": g}, violation, trials_run, budget
            )
    return _report_holds(prop, trials_run, budget)


def compare_strong(
    mA: PreferenceModel, mB: PreferenceModel, budget: SearchBudget
) -> CertificateReport:
    """Search concave-order pairs for a risk reduction B values less than A does."""
    _require_comparable(mA, mB)
    prop = f"compare_strong[{mA.name} vs {mB.name}]"
    sides = _rho_sides(mA, mB)

    def violation(parts: dict[str, Payoff]) -> Optional[tuple]:
        f, g = parts["f"], parts["g"]
        if not concave_order(f, g):
            return None
        lhs, rhs = sides(f, g)
        return (lhs, rhs) if _strictly_less(lhs, rhs) else None

    trials_run = 0
    for f, step in _spread_pairs(budget.value_grid, False):
        g = step.apply(f)
        trials_run += 1
        if violation({"f": f, "g": g}) is not None:
            return _report_violation(
                prop,
                "rho_B(g,f) < rho_A(g,f) with f >=cv g",
                {"f": f, "g": g},
                violation,
                trials_run,
                budget,
                (CONTINUITY_NOTE,),
            )
    for t in range(budget.trials):
        rng = _rng(budget.seed, t)
        f = _random_payoff(rng, budget.value_grid, rng.randint(2, budget.max_n))
        g = _random_spread_chain(rng, f, rng.randint(1, 3))
        trials_run += 1
        if g is not None and violation({"f": f, "g": g}) is not None:
            return _report_violation(
                prop,
                "rho_B(g,f) < rho_A(g,f) with f >=cv g",
                {"f": f, "g": g},
                violation,
                trials_run,
                budget,
                (CONTINUITY_NOTE,),
            )
    return _report_holds(prop, trials_run, budget, (CONTINUITY_NOTE,))


def compare_propensity(
    kind: str, mA: PreferenceModel, mB: PreferenceModel, budget: SearchBudget
) -> CertificateReport:
    """Search for an insurance acquisition B values less than A does."""
    if kind not in PROPENSITY_KINDS:
        raise ValueError(f"kind must be one of {PROPENSITY_KINDS}, got {kind!r}")
    _require_comparable(mA, mB)
    return _insurance_search(
        f"compare_propensity[{kind}][{mA.name} vs {mB.name}]",
        "rho_B(w+g, w+f) < rho_A(w+g, w+f)",
        kind,
        _rho_sides(mA, mB),
        budget,
        min(budget.exhaustive_n, 4),
    )


# ---------------------------------------------------------------------------
# witness replay


def replay_witness(
    report: CertificateReport,
    m: Optional[PreferenceModel] = None,
    mB: Optional[PreferenceModel] = None,
    pp: Optional[PremiumPrinciple] = None,
) -> bool:
    """Re-evaluate a violated report's witness from scratch; True when it still violates strictly.

    Pass the same model(s) (and premium principle, for premium checks)
    that produced the report.
    """
    if report.witness is None:
        raise ValueError("report has no witness")
    w = report.witness
    prop = report.property
    parts = dict(w.payoffs)
    if prop.startswith("weak_risk_aversion"):
        f = parts["f"]
        return _strictly_less(
            m.value(Payoff.constant(expectation(f), len(f))), m.value(f)
        )
    if prop.startswith("strong_risk_aversion"):
        f, g = parts["f"], parts["g"]
        return concave_order(f, g) and _strictly_less(m.value(f), m.value(g))
    if prop.startswith("propensity["):
        kind = prop.split("[")[1].rstrip("]").split("]")[0]
        return _propensity_violation_fn(kind, m)(parts) is not None
    if prop.startswith("premium_propensity"):
        wp, f, g = parts["w"], parts["f"], parts["g"]
        return (
            f == -wp - pp.base(-wp)
            and equal_in_distribution(f, g)
            and _strictly_less(m.value(wp + f), m.value(wp + g))
        )
    if prop.startswith("risk_neutrality"):
        f = parts["f"]
        return _values_differ(
            m.value(Payoff.constant(expectation(f), len(f))), m.value(f)
        )
    if prop.startswith(("full_insurance_neutrality", "hedging_neutrality", "dependence_neutrality", "neutrality")):
        if set(parts) == {"f"}:
            f = parts["f"]
            return _values_differ(
                m.value(Payoff.constant(expectation(f), len(f))), m.value(f)
            )
        if set(parts) == {"f", "g"}:
            f, g = parts["f"], parts["g"]
            model_pref = not _strictly_less(m.value(f), m.value(g))
            return model_pref != (expectation(f) >= expectation(g))
        wp, f, g = parts["w"], parts["f"], parts["g"]
        return _values_differ(m.value(wp + f), m.value(wp + g))
    if prop.startswith("expected_value_representation"):
        f, g = parts["f"], parts["g"]
        model_pref = not _strictly_less(m.value(f), m.value(g))
        return model_pref != (expectation(f) >= expectation(g))
    if prop.startswith("compare_weak"):
        g = parts["g"]
        f = Payoff.constant(expectation(g), len(g))
        return _strictly_less(rho(mB, g, f), rho(m, g, f))
    if prop.startswith("compare_strong"):
        f, g = parts["f"], parts["g"]
        return concave_order(f, g) and _strictly_less(rho(mB, g, f), rho(m, g, f))
    if prop.startswith("compare_propensity"):
        kind = prop.split("[")[1].split("]")[0]
        return _compare_propensity_violation_fn(kind, m, mB)(parts) is not None
    raise ValueError(f"cannot replay property {prop!r}")
