"""Search-based certification of risk-attitude properties on concrete models.

Every check searches a finite budget of instances for a strict
counterexample to a universally quantified property.  A ``violated``
verdict carries a witness that re-evaluates to a strict inequality under
exact arithmetic; ``holds_on_budget`` is not a proof, and the budget is
echoed in the report.

Each property is one row of a table (``_ROWS``, built into a
:class:`Property`): its report name, the relation its witness violates,
an exact violation predicate over the named parts ``f``, ``g``, ``w``,
an instance stream and notes.  One driver, :func:`_search`, counts and
tests the stream's trials in order, shrinks the first violation with the
row's own predicate (drop states, then move values toward zero) and
builds the report.  A public check validates its inputs, builds its row
and calls the driver; :func:`replay_witness` rebuilds the row a report
names and calls its predicate.  Every stream runs two phases:

* phase 1, structured sweeps over the budget's value grid: zero-mean
  splits for full-insurance style properties, single-spread triples for
  partial-insurance ones, spread pairs for the concave-order ones.
  Every property tested is law invariant, so one sorted representative
  per distribution is exhaustive at the distribution level.  Split-based
  sweeps stop at ``exhaustive_n`` states, spread grids at 3 states on
  the full grid plus 4 on the fixed subgrid (-1, 0, 1, 2).
* phase 2, seeded random trials: trial ``t`` draws from ``(seed, t)``,
  so reports are reproducible.  Propensity-style checks sweep every
  distinct rearrangement of the alternative payoff when
  ``n <= exhaustive_n`` (deduplicated by the law of ``w + g``) and a
  random sample of them otherwise.

Three devices change cost, never results.  The insurance propensity
predicates test equal distributions of ``f`` and ``g``, then the strict
value gap, then the structure (``f`` a contract of the kind on ``w``, or
for hedging a better hedge than ``g``).  Phase 1 of those searches knows
each instance's sums before its parts (``(E[h], h)`` for the split of
``h``; ``(f0, step.apply(f0))`` for a spread pair), so a spread pair is
factored into ``(w, f, g)`` only when the gap on its sums is strict.
And each search evaluates ``V`` and ``rho`` through a memo keyed on the
laws of the payoffs, dropped when the search returns; ``custom`` models
skip it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, permutations
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .decompose import deductible_triple, proportional_triple, split_zero_mean
from .insurance import PremiumPrinciple, is_member, make_contract
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
Sides = Callable[[Payoff, Payoff], tuple]


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


def _sampled_permutations(rng: random.Random, f: Payoff, count: int) -> list[Payoff]:
    out = []
    vals = list(f.nums)
    for _ in range(count):
        rng.shuffle(vals)
        out.append(_from_ints(tuple(vals), f.den))
    return out


def _alternatives(rng: random.Random, f: Payoff, budget: SearchBudget) -> list[Payoff]:
    if len(f) <= budget.exhaustive_n:  # every distinct rearrangement, in first-seen order
        return [_from_ints(perm, f.den) for perm in dict.fromkeys(permutations(f.nums))]
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


def _value_sides(m: PreferenceModel) -> Sides:
    """``(f, g) -> (V(f), V(g))`` with a fresh memo."""
    value = _per_law(m, m.value)
    return lambda f, g: (value(f), value(g))


def _rho_sides(mA: PreferenceModel, mB: PreferenceModel) -> Sides:
    """``(f, g) -> (rho_B(g, f), rho_A(g, f))`` with a fresh memo per model."""
    rho_a = _per_law(mA, lambda g, f: rho(mA, g, f))
    rho_b = _per_law(mB, lambda g, f: rho(mB, g, f))
    return lambda f, g: (rho_b(g, f), rho_a(g, f))


def _if_less(sides: tuple) -> Optional[tuple]:
    """The ``(lhs, rhs)`` pair when ``lhs < rhs`` strictly, else None."""
    return sides if _strictly_less(*sides) else None


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


def _shrink_candidates(current: dict[str, Payoff]) -> Iterator[Optional[dict[str, Payoff]]]:
    """Every state dropped (above two states), then each value moved toward zero, key by key;
    a None after each value marks where the shrinker checks its budget."""
    n = len(next(iter(current.values())))
    if n > 2:
        for idx in range(n):
            yield {k: _drop_state(p, idx) for k, p in current.items()}
    for key in sorted(current):
        p = current[key]
        for idx in range(len(p)):
            for cand in _toward_zero(p.nums[idx], p.den):
                vals = list(p.nums)
                vals[idx] = cand
                yield {**current, key: _from_ints(tuple(vals), p.den)}
            yield None


def _shrink(
    payoffs: dict[str, Payoff],
    predicate: Callable[[dict[str, Payoff]], Optional[tuple]],
) -> tuple[dict[str, Payoff], tuple]:
    """Greedy witness minimization; the predicate re-verifies the full violation.

    The first violating candidate replaces the witness and the candidates start over.
    """
    current = dict(payoffs)
    sides = predicate(current)
    assert sides is not None, "shrinking must start from a verified violation"
    budget = 200
    while budget > 0:
        for candidate in _shrink_candidates(current):
            if candidate is None:
                if budget <= 0:
                    return current, sides
                continue
            budget -= 1
            trial = predicate(candidate)
            if trial is not None:
                current, sides = candidate, trial
                break
        else:
            break
    return current, sides


# ---------------------------------------------------------------------------
# the property table and the search driver


class _Sweep(NamedTuple):
    """One trial that tests ``(w, f, g)`` for each alternative ``g``."""

    w: Payoff
    f: Payoff
    alternatives: list[Payoff]


# one trial of an instance stream: None (an instance with nothing to test), the parts,
# a (parts, sums) pair whose sums (w + f, w + g) are already built, or a _Sweep
Trial = Union[None, dict, tuple, _Sweep]


@dataclass(frozen=True)
class Property:
    """One row of the property table.

    ``violation`` is the exact predicate that search, shrinking and replay
    share; ``instances`` yields phase 1, then phase 2, one item per trial.
    """

    name: str
    relation: str
    violation: Predicate
    instances: Iterable[Trial]
    notes: tuple[str, ...] = ()


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


def _search(prop: Property, budget: SearchBudget) -> CertificateReport:
    """Count and test the row's trials in order; shrink and report the first violation."""
    violation = prop.violation
    trials_run = 0
    for trial in prop.instances:
        trials_run += 1
        if isinstance(trial, _Sweep):
            hit = _sweep_alternatives(trial.w, trial.f, trial.alternatives, violation)
            parts = hit and {"w": trial.w, "f": trial.f, "g": hit[0]}
        elif isinstance(trial, tuple):
            parts = trial[0] if violation(*trial) is not None else None
        else:
            parts = trial if trial is not None and violation(trial) is not None else None
        if parts is not None:
            shrunk, (lhs, rhs) = _shrink(parts, violation)
            witness = Witness(prop.relation, shrunk, lhs, rhs)
            return CertificateReport(
                prop.name, VIOLATED, witness, trials_run, budget.seed, budget, prop.notes
            )
    return CertificateReport(prop.name, HOLDS, None, trials_run, budget.seed, budget, prop.notes)


# ---------------------------------------------------------------------------
# random instances


def _random_trials(budget: SearchBudget, offset: int = 0) -> Iterator[tuple[random.Random, int]]:
    """Phase 2: each trial's generator, seeded by ``(seed, offset + t)``, and its first draw, n."""
    for t in range(budget.trials):
        rng = _rng(budget.seed, offset + t)
        yield rng, rng.randint(2, budget.max_n)


def _random_spread_chain(
    rng: random.Random, f: Payoff, steps: int
) -> Optional[Payoff]:
    g = f
    for _ in range(steps):
        states = list(range(1, len(f) + 1))
        rng.shuffle(states)
        pairs = ((a, b) for a in states for b in states if a != b)
        found = next(((a, b) for a, b in pairs if g.nums[a - 1] <= g.nums[b - 1]), None)
        if found is None:
            return None
        g = MpsStep(*found, rng.choice(_DELTAS)).apply(g)
    return g


def _kind_member(kind: str, f: Payoff, w: Payoff) -> bool:
    return is_member(kind, f, w)


def _random_instance(
    kind: str, rng: random.Random, budget: SearchBudget, n: int
) -> tuple[Payoff, Payoff]:
    """A random (w, contract payoff) pair of the requested kind."""
    grid = budget.value_grid
    w = _random_payoff(rng, grid, n)
    pi = rng.choice(_PREMIUMS)
    if kind == "fi":
        return w, make_contract(w, "fi", premium=pi).payoff
    if kind == "pr":
        return w, make_contract(w, "pr", premium=pi, excess=rng.choice(_EXCESSES)).payoff
    if kind == "dl":
        deductible, limit = rng.choice(_DEDUCTIBLES), rng.choice(_LIMITS)
        return w, make_contract(w, "dl", premium=pi, deductible=deductible, limit=limit).payoff
    if kind == "is":
        losses = sorted(set((-w).values))
        payments = sorted(rng.choice(grid) for _ in losses)
        schedule = list(zip(losses, payments))
        return w, make_contract(w, "is", premium=pi, schedule=schedule).payoff
    if kind in ("cs", "hedging"):
        draws = sorted((rng.choice(grid) for _ in range(n)), reverse=True)
        order = sorted(range(n), key=lambda i: (w.nums[i], i))
        drawn = dict(zip(order, draws))  # the larger draws where w is smaller
        return w, Payoff(tuple(drawn[i] for i in range(n)))
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
        pinch = next(((a, b) for a, b in states if f0.nums[a - 1] < f0.nums[b - 1]), None)
        if pinch is not None:
            step = MpsStep(*pinch, rng.choice(_DELTAS))
            source = kind if kind in ("pr", "dl") else ("pr" if rng.random() < 0.5 else "dl")
            t = (proportional_triple if source == "pr" else deductible_triple)(f0, step)
            yield t.w_tilde, t.f_tilde, t.g_tilde
        return
    w, f = _random_instance(kind, rng, budget, n)
    yield w, f, None


# the structures of the neutrality pairs (w, f, g)
def _is_full_insurance(w: Payoff, f: Payoff, g: Payoff) -> bool:
    return equal_in_distribution(f, g) and _kind_member("fi", f, w)


def _is_better_hedge(w: Payoff, f: Payoff, g: Payoff) -> bool:
    return better_hedge(f, g, w)


def _is_rearrangement(w: Payoff, f: Payoff, g: Payoff) -> bool:
    return equal_in_distribution(f, g)


def _insured(rng: random.Random, budget: SearchBudget, n: int) -> tuple[Payoff, Payoff]:
    """A random ``w`` with a full insurance at a random premium."""
    w = _random_payoff(rng, budget.value_grid, n)
    return w, -w - rng.choice(_PREMIUMS)


def _independent(rng: random.Random, budget: SearchBudget, n: int) -> tuple[Payoff, Payoff]:
    return _random_payoff(rng, budget.value_grid, n), _random_payoff(rng, budget.value_grid, n)


# ---------------------------------------------------------------------------
# the property table: a row builder takes the value gap ``sides`` (``(V(x), V(y))``,
# or ``(rho_B(y, x), rho_A(y, x))`` in a comparison), the budget, the size cap
# ``n_max`` of its grid and split sweeps, the propensity kind and the premium
# principle, and returns the row's predicate, instance stream and notes


def _expectation_row(key, test, offset, sides, budget, n_max, kind, pp):
    """``test(*sides(E[x], x))``: grid distributions, then random payoffs."""

    def violation(parts: dict[str, Payoff]) -> Optional[tuple]:
        x = parts[key]
        lhs, rhs = sides(Payoff.constant(expectation(x), len(x)), x)
        return (lhs, rhs) if test(lhs, rhs) else None

    def trials() -> Iterator[Trial]:
        for n in range(2, n_max + 1):
            yield from ({key: x} for x in _grid_distributions(budget.value_grid, n))
        for rng, n in _random_trials(budget, offset):
            yield {key: _random_payoff(rng, budget.value_grid, n)}

    return violation, trials(), ()


def _spread_row(sides, budget, n_max, kind, pp):
    """``f >=cv g`` with ``sides(f, g)`` increasing: spread pairs, then random spread chains."""

    def violation(parts: dict[str, Payoff]) -> Optional[tuple]:
        f, g = parts["f"], parts["g"]
        return _if_less(sides(f, g)) if concave_order(f, g) else None

    def trials() -> Iterator[Trial]:
        for f, step in _spread_pairs(budget.value_grid, False):
            yield {"f": f, "g": step.apply(f)}
        for rng, n in _random_trials(budget):
            f = _random_payoff(rng, budget.value_grid, n)
            g = _random_spread_chain(rng, f, rng.randint(1, 3))
            yield None if g is None else {"f": f, "g": g}

    return violation, trials(), (CONTINUITY_NOTE,)


def _insurance_row(sides, budget, n_max, kind, pp):
    """A contract ``f`` of the kind on ``w`` and ``g =d f`` with ``sides(w+f, w+g)`` increasing.

    Conjunct order and the lazy factoring of phase 1 are in the module docstring.
    """

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

    def trials() -> Iterator[Trial]:
        if kind == "fi":
            for h, w, f, g in _split_instances(budget.value_grid, n_max):
                yield {"w": w, "f": f, "g": g}, (Payoff.constant(expectation(h), len(h)), h)
        else:
            for source in (kind,) if kind in ("pr", "dl") else ("pr", "dl"):
                factor = proportional_triple if source == "pr" else deductible_triple
                for f0, step in _spread_pairs(budget.value_grid, source == "pr"):
                    g0 = step.apply(f0)
                    if not _strictly_less(*sides(f0, g0)):
                        yield None
                        continue
                    t = factor(f0, step)
                    yield {"w": t.w_tilde, "f": t.f_tilde, "g": t.g_tilde}, (f0, g0)
        for t in range(budget.trials):
            rng = _rng(budget.seed, t)
            for w, f, g in _mixed_instances(kind, rng, budget):
                if g is None:
                    yield _Sweep(w, f, _alternatives(rng, f, budget))
                else:
                    yield {"w": w, "f": f, "g": g}

    return violation, trials(), () if kind == "fi" else (CONTINUITY_NOTE,)


def _premium_row(sides, budget, n_max, kind, pp):
    """A full insurance priced by ``pp`` with ``sides(w+f, w+g)`` increasing for some ``g =d f``."""

    def violation(parts: dict[str, Payoff], sums: Optional[Sums] = None) -> Optional[tuple]:
        w, f, g = parts["w"], parts["f"], parts["g"]
        if f != -w - pp.base(-w) or not equal_in_distribution(f, g):
            return None
        return _if_less(sides(*(sums or (w + f, w + g))))

    def trials() -> Iterator[Trial]:
        for h, w0, f0, g0 in _split_instances(budget.value_grid, n_max):
            # shift the premium-free split instance so the price matches the principle
            gamma = (pp.base(-w0) + expectation(h)) / pp.theta
            yield {"w": w0 + gamma, "f": f0 - gamma, "g": g0 - gamma}
        for rng, n in _random_trials(budget):
            w = _random_payoff(rng, budget.value_grid, n)
            f = -w - pp.base(-w)
            yield _Sweep(w, f, _alternatives(rng, f, budget))

    return violation, trials(), ()


def _pair_row(structure, offset, draw, splits, sides, budget, n_max, kind, pp):
    """``structure(w, f, g)`` with ``V(w+f) != V(w+g)``: the splits if ``splits``, then per random
    trial ``(w, f) = draw(rng, budget, n)`` against six rearrangements of ``f``, one trial each."""

    def violation(parts: dict[str, Payoff]) -> Optional[tuple]:
        w, f, g = parts["w"], parts["f"], parts["g"]
        if not structure(w, f, g):
            return None
        lhs, rhs = sides(w + f, w + g)
        return (lhs, rhs) if _values_differ(lhs, rhs) else None

    def trials() -> Iterator[Trial]:
        for _, w, f, g in _split_instances(budget.value_grid, n_max) if splits else ():
            yield {"w": w, "f": f, "g": g}
        for rng, n in _random_trials(budget, offset):
            w, f = draw(rng, budget, n)
            for g in _sampled_permutations(rng, f, 6):
                yield {"w": w, "f": f, "g": g}

    return violation, trials(), ()


def _ev_row(sides, budget, n_max, kind, pp):
    """``(V(f) >= V(g))`` against ``(E[f] >= E[g])`` for two random payoffs per trial."""

    def violation(parts: dict[str, Payoff]) -> Optional[tuple]:
        f, g = parts["f"], parts["g"]
        lhs, rhs = sides(f, g)
        model_pref = not _strictly_less(lhs, rhs)
        return (lhs, rhs) if model_pref != (expectation(f) >= expectation(g)) else None

    def trials() -> Iterator[Trial]:
        for rng, n in _random_trials(budget, 50_000):
            f, g = _independent(rng, budget, n)
            yield {"f": f, "g": g}

    return violation, trials(), ()


# report-name head -> (row builder, relation, grid and split sweeps capped at 4 states)
_ROWS: dict[str, tuple[Callable[..., tuple], str, bool]] = {
    "weak_risk_aversion": (
        partial(_expectation_row, "f", _strictly_less, 0), "V(E[f]) < V(f)", False
    ),
    "strong_risk_aversion": (_spread_row, "V(f) < V(g) with f >=cv g", False),
    "propensity": (_insurance_row, "V(w+f) < V(w+g)", False),
    "premium_propensity": (_premium_row, "V(w+f) < V(w+g)", False),
    "risk_neutrality": (
        partial(_expectation_row, "f", _values_differ, 10_000), "V(E[f]) != V(f)", True
    ),
    "full_insurance_neutrality": (
        partial(_pair_row, _is_full_insurance, 20_000, _insured, True),
        "V(w+f) != V(w+g) with f full insurance, g =d f",
        True,
    ),
    "hedging_neutrality": (
        partial(_pair_row, _is_better_hedge, 30_000, partial(_random_instance, "cs"), False),
        "V(w+f) != V(w+g) with f a better hedge than g",
        True,
    ),
    "dependence_neutrality": (
        partial(_pair_row, _is_rearrangement, 40_000, _independent, False),
        "V(w+f) != V(w+g) with g =d f",
        True,
    ),
    "expected_value_representation": (
        _ev_row, "(V(f) >= V(g)) disagrees with (E[f] >= E[g])", True
    ),
    "compare_weak": (
        partial(_expectation_row, "g", _strictly_less, 0), "rho_B(g, E[g]) < rho_A(g, E[g])", True
    ),
    "compare_strong": (_spread_row, "rho_B(g,f) < rho_A(g,f) with f >=cv g", True),
    "compare_propensity": (_insurance_row, "rho_B(w+g, w+f) < rho_A(w+g, w+f)", True),
}

_NEUTRALITY = tuple(head for head in _ROWS if head.endswith(("_neutrality", "_representation")))


def _row(head: str, budget: SearchBudget, m, mB=None, pp=None, kind=None, sides=None) -> Property:
    """The row ``head`` for model ``m``, or for a ``compare_`` head, for ``mB`` against ``m``.

    ``sides`` defaults to the model's value gap with a fresh memo.
    """
    build, relation, capped = _ROWS[head]
    comparative = head.startswith("compare_")
    subject = f"{m.name} vs {mB.name}" if comparative else m.name
    name = head + "".join(f"[{tag}]" for tag in (kind, pp and pp.name, subject) if tag)
    if sides is None:
        sides = _rho_sides(m, mB) if comparative else _value_sides(m)
    n_max = min(budget.exhaustive_n, 4) if capped else budget.exhaustive_n
    return Property(name, relation, *build(sides, budget, n_max, kind, pp))


# ---------------------------------------------------------------------------
# public checks


def _require_total(m: PreferenceModel) -> None:
    if not m.has_total_evaluator():
        raise ValueError(
            f"this check needs a model with a total evaluator; {m.name!r} "
            f"only provides a partial order"
        )


def _require_comparable(mA: PreferenceModel, mB: PreferenceModel) -> None:
    for m in (mA, mB):
        if not (m.monotone and m.secular and m.has_total_evaluator()):
            raise ValueError(
                f"comparative checks need monotone, secular models with total "
                f"evaluators; {m.name!r} is not"
            )


def _check(head: str, budget: SearchBudget, m, mB=None, pp=None, kind=None) -> CertificateReport:
    """Validate a public check's inputs, build its row and search it."""
    if kind is not None and kind not in PROPENSITY_KINDS:
        raise ValueError(f"kind must be one of {PROPENSITY_KINDS}, got {kind!r}")
    if mB is None:
        _require_total(m)
    else:
        _require_comparable(m, mB)
    return _search(_row(head, budget, m, mB, pp, kind), budget)


def check_weak_risk_aversion(m: PreferenceModel, budget: SearchBudget) -> CertificateReport:
    """Search for a payoff the model prefers to its own expectation."""
    return _check("weak_risk_aversion", budget, m)


def check_strong_risk_aversion(m: PreferenceModel, budget: SearchBudget) -> CertificateReport:
    """Search concave-order pairs (built from spreads) for a preference reversal."""
    return _check("strong_risk_aversion", budget, m)


def check_propensity(
    kind: str, m: PreferenceModel, budget: SearchBudget
) -> CertificateReport:
    """Search for an insurance contract the model likes less than an equally distributed alternative.

    ``kind`` is one of ``fi, pr, dl, is, cs, hedging``.
    """
    return _check("propensity", budget, m, kind=kind)


def check_premium_propensity(
    m: PreferenceModel, pp: PremiumPrinciple, budget: SearchBudget
) -> CertificateReport:
    """Full-insurance propensity with the premium pinned to the principle's price of the loss."""
    return _check("premium_propensity", budget, m, pp=pp)


def check_neutrality(m: PreferenceModel, budget: SearchBudget) -> CertificateReport:
    """Check the neutrality family: risk, full-insurance, hedging, dependence, and the expected-value representation."""
    _require_total(m)
    sub_budget = replace(budget, trials=max(1, budget.trials // 4))
    heads, notes = _NEUTRALITY, ()
    if not m.monotone:
        heads = heads[:-1]
        notes = ("expected-value representation check skipped: model is not monotone",)
    sides = _value_sides(m)  # one memo for the whole family
    details = {h: _search(_row(h, sub_budget, m, sides=sides), sub_budget) for h in heads}
    first_bad = next((r for r in details.values() if r.violated), None)
    return CertificateReport(
        property=f"neutrality[{m.name}]",
        verdict=VIOLATED if first_bad else HOLDS,
        witness=first_bad.witness if first_bad else None,
        trials_run=sum(r.trials_run for r in details.values()),
        seed=budget.seed,
        budget=budget,
        notes=notes,
        details=details,
    )


def compare_weak(
    mA: PreferenceModel, mB: PreferenceModel, budget: SearchBudget
) -> CertificateReport:
    """Search for a payoff whose risk elimination B values less than A does."""
    return _check("compare_weak", budget, mA, mB)


def compare_strong(
    mA: PreferenceModel, mB: PreferenceModel, budget: SearchBudget
) -> CertificateReport:
    """Search concave-order pairs for a risk reduction B values less than A does."""
    return _check("compare_strong", budget, mA, mB)


def compare_propensity(
    kind: str, mA: PreferenceModel, mB: PreferenceModel, budget: SearchBudget
) -> CertificateReport:
    """Search for an insurance acquisition B values less than A does."""
    return _check("compare_propensity", budget, mA, mB, kind=kind)


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
    that produced the report.  The witness goes through the predicate of
    the table row named by the report; a neutrality report names the row
    of its first violated entry in ``details``.
    """
    if report.witness is None:
        raise ValueError("report has no witness")
    named = next((r for r in report.details.values() if r.violated), report)
    head, _, rest = named.property.partition("[")
    if head not in _ROWS:
        raise ValueError(f"cannot replay property {report.property!r}")
    needs = (
        ("m", m, True),
        ("mB", mB, head.startswith("compare_")),
        ("pp", pp, head == "premium_propensity"),
    )
    for arg, value, needed in needs:
        if needed and value is None:
            raise ValueError(f"replaying {named.property!r} needs the argument {arg}")
    kind = rest.split("]")[0] if head in ("propensity", "compare_propensity") else None
    prop = _row(head, named.budget, m, mB, pp, kind)
    return prop.violation(dict(report.witness.payoffs)) is not None
