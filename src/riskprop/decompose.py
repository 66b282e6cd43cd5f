"""Constructive decompositions: zero-mean splits, spread chains, insurance triples.

Three exact engines:

* :func:`split_zero_mean` writes a zero-mean payoff ``f`` as ``h - h'``
  with ``h`` and ``h'`` equally distributed, via a cumulative-sum
  rearrangement whose partial sums stay inside ``[min f, max f]``.
* :func:`mps_chain` turns a concave-order pair into an explicit chain of
  mean-preserving-spread steps (at most ``n - 1``) plus at most one
  closing rearrangement, replayable exactly.
* :func:`proportional_triple` / :func:`deductible_triple` factor a single
  spread ``f -> g`` through an insurance purchase: a background risk,
  a contract of the requested kind, and an equally distributed
  alternative whose purchase yields ``g`` instead of ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .orders import MpsStep, concave_order
from .space import Payoff, _common_nums, _from_ints, _with_scalar, expectation

__all__ = [
    "ZeroMeanSplit",
    "Rearrangement",
    "MpsChain",
    "InsuranceTriple",
    "split_zero_mean",
    "mps_chain",
    "proportional_triple",
    "deductible_triple",
]


@dataclass(frozen=True)
class ZeroMeanSplit:
    """Witness that ``h - h_prime`` equals a zero-mean payoff, with ``h`` a rearrangement of ``h_prime``."""

    h: Payoff
    h_prime: Payoff

    def difference(self) -> Payoff:
        return self.h - self.h_prime


@dataclass(frozen=True)
class Rearrangement:
    """A pure permutation of states: new state ``k`` receives old state ``mapping[k-1]``'s value (1-based)."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(1, len(self.mapping) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.mapping)}: {self.mapping!r}")

    def apply(self, f: Payoff) -> Payoff:
        return f.permute(self.mapping)


ChainElement = Union[MpsStep, Rearrangement]


@dataclass(frozen=True)
class MpsChain:
    """Sequence of spread steps and rearrangements mapping one payoff to another."""

    elements: tuple[ChainElement, ...]

    def replay(self, f: Payoff) -> Payoff:
        current = f
        for element in self.elements:
            current = element.apply(current)
        return current

    @property
    def spread_count(self) -> int:
        return sum(1 for e in self.elements if isinstance(e, MpsStep))


@dataclass(frozen=True)
class InsuranceTriple:
    """Background risk plus contract pair factoring one spread through an insurance choice.

    ``w_tilde + f_tilde`` reproduces the original payoff and
    ``w_tilde + g_tilde`` the spread one; ``f_tilde`` and ``g_tilde`` are
    equally distributed and ``f_tilde`` belongs to the target contract
    class for ``w_tilde``.
    """

    w_tilde: Payoff
    f_tilde: Payoff
    g_tilde: Payoff
    kind: str
    params: Mapping[str, Fraction] = field(default_factory=dict)


def split_zero_mean(f: Payoff) -> ZeroMeanSplit:
    """Split a zero-mean payoff ``f`` exactly as ``h - h_prime`` with ``h`` a rearrangement of ``h_prime``.

    States are visited in an order whose running sums never leave
    ``[min f, max f]``: start from a positive value, then repeatedly pick
    a zero if available, anything if the running sum is zero, and
    otherwise a value of the opposite sign (smallest state index breaks
    every tie).  ``h`` carries the running sums, ``h_prime`` the same sums
    delayed by one step, so ``h - h_prime = f`` statewise.
    """
    if expectation(f) != 0:
        raise ValueError(f"payoff must have zero mean, got {expectation(f)}")
    x = f.nums  # signs and sums over one denominator are all the walk needs
    n = len(x)
    if all(v == 0 for v in x):
        zero = Payoff.constant(0, n)
        return ZeroMeanSplit(zero, zero)

    # ascending state lists with a pointer each; every zero follows the first positive state
    pos = [i for i, v in enumerate(x) if v > 0]
    neg = [i for i, v in enumerate(x) if v < 0]
    order = [pos[0]] + [i for i, v in enumerate(x) if v == 0]
    partial = x[pos[0]]
    p, q = 1, 0
    while p < len(pos) or q < len(neg):
        # at a zero sum the rest sums to zero, so both signs remain; take the smaller state
        if partial < 0 or (partial == 0 and pos[p] < neg[q]):
            pick, p = pos[p], p + 1
        else:
            pick, q = neg[q], q + 1
        order.append(pick)
        partial += x[pick]

    h_vals = [0] * n
    hp_vals = [0] * n
    running = 0
    for state in order:
        hp_vals[state] = running
        running += x[state]
        h_vals[state] = running
    return ZeroMeanSplit(_from_ints(tuple(h_vals), f.den), _from_ints(tuple(hp_vals), f.den))


def _stable_argsort(values: Sequence[int]) -> list[int]:
    return sorted(range(len(values)), key=lambda i: (values[i], i))


def mps_chain(f: Payoff, g: Payoff) -> MpsChain:
    """Chain of spread steps (plus at most one rearrangement) mapping ``f`` to ``g`` exactly.

    Requires ``concave_order(f, g)``.  On the ascending sorted copies,
    each round moves mass from the first state still above its target to
    the first state below it; both move monotonically toward the target,
    so every move is a valid spread and at least one state is finished
    per round (at most ``n - 1`` steps).  A final rearrangement restores
    ``g``'s state arrangement when needed.
    """
    if not concave_order(f, g):
        raise ValueError("mps_chain requires concave_order(f, g)")
    if f == g:
        return MpsChain(())

    n = len(f)
    (fs, gs), den = _common_nums(f, g)
    perm = _stable_argsort(fs)
    current = [fs[i] for i in perm]
    target = sorted(gs)

    elements: list[ChainElement] = []
    for _ in range(n):
        diffs = [i for i in range(n) if current[i] != target[i]]
        if not diffs:
            break
        i = diffs[0]
        assert current[i] > target[i], "first unfinished state must sit above its target"
        j = next(k for k in range(i + 1, n) if current[k] < target[k])
        delta = min(current[i] - target[i], target[j] - current[j])
        elements.append(MpsStep(perm[i] + 1, perm[j] + 1, Fraction(delta, den)))
        current[i] -= delta
        current[j] += delta

    after = [0] * n
    for pos, state in enumerate(perm):
        after[state] = current[pos]
    if tuple(after) != gs:
        used = [False] * n
        mapping = []
        for s in range(n):
            t = next(
                k for k in range(n) if not used[k] and after[k] == gs[s]
            )
            used[t] = True
            mapping.append(t + 1)
        elements.append(Rearrangement(tuple(mapping)))
    return MpsChain(tuple(elements))


def proportional_triple(f: Payoff, step: MpsStep) -> InsuranceTriple:
    """Factor the spread ``f -> step.apply(f)`` through a proportional insurance purchase.

    Requires ``f[donor] < f[recipient]`` strictly and ``delta > 0``.  With
    ``a = (m1 - m2)/delta - 1 < -1`` the contract is
    ``f_tilde = f / (a + 1)``, the risk ``w_tilde = a * f_tilde``, and the
    alternative ``g_tilde`` swaps the contract's donor and recipient
    values; the contract covers the fraction ``-1/a`` of the loss, i.e.
    percentage excess ``1 + 1/a`` in ``(0, 1)``, at premium zero.
    """
    step.check_states(f)
    n1, n2 = f.nums[step.donor - 1], f.nums[step.recipient - 1]
    if step.delta == 0 or n1 == n2:
        raise ValueError(
            "proportional factorization needs delta > 0 and strictly increasing "
            "donor -> recipient values; perturb the flat spread first"
        )
    if n1 > n2:
        raise ValueError("step does not apply: donor value exceeds recipient value")
    a = Fraction(n1 - n2, f.den) / step.delta - 1
    f_tilde = f * (Fraction(1) / (a + 1))
    w_tilde = f_tilde * a
    g_vals = list(f_tilde.nums)
    g_vals[step.donor - 1], g_vals[step.recipient - 1] = (
        g_vals[step.recipient - 1],
        g_vals[step.donor - 1],
    )
    g_tilde = _from_ints(tuple(g_vals), f_tilde.den)
    excess = 1 + Fraction(1) / a
    return InsuranceTriple(
        w_tilde,
        f_tilde,
        g_tilde,
        kind="pr",
        params={"excess": excess, "premium": Fraction(0)},
    )


def deductible_triple(f: Payoff, step: MpsStep) -> InsuranceTriple:
    """Factor the spread ``f -> step.apply(f)`` through a deductible-limit insurance purchase.

    ``step.delta`` is the full transferred amount; writing it as ``2*half``,
    states split into those paying at most ``f[donor]``, strictly between
    the pinched values, and at least ``f[recipient]``.  The contract pays
    ``half`` on the low side and ``-half`` on the high side, which equals
    ``min((-w_tilde - xi)^+, 2*half) - half`` with deductible
    ``xi = -f[recipient] - half``, limit ``2*half``, premium ``half``.
    """
    step.check_states(f)
    half = step.delta / 2
    # f's numerators and half's numerator h over their common denominator d
    x, h, d = _with_scalar(f, half)
    n1, n2 = x[step.donor - 1], x[step.recipient - 1]
    if n1 > n2:
        raise ValueError("step does not apply: donor value exceeds recipient value")
    f_vals, g_vals, w_vals = [], [], []
    for i, v in enumerate(x):
        # low side: states paying at most f[donor] or strictly below f[recipient]
        # (ties with a flat pinch go low); the recipient always sits on the high side
        if i != step.recipient - 1 and (v <= n1 or v < n2):
            f_vals.append(h)
            g_vals.append(-h if i == step.donor - 1 else h)
            w_vals.append(v - h)
        else:
            f_vals.append(-h)
            g_vals.append(h if i == step.recipient - 1 else -h)
            w_vals.append(v + h)

    xi = Fraction(-n2 - h, d)
    return InsuranceTriple(
        _from_ints(tuple(w_vals), d),
        _from_ints(tuple(f_vals), d),
        _from_ints(tuple(g_vals), d),
        kind="dl",
        params={"deductible": xi, "limit": 2 * half, "premium": half},
    )
