"""The four benchmark workloads: inputs, operations and output checks.

Each workload is a fixed list of operations of one kind.  An operation
returns its output; :func:`Workload.check` tests the outputs of one pass
against :mod:`reference` and each call's expected verdict.  The CLI
workloads call ``riskprop.cli.main`` in process, as a user's
``riskprop certify`` / ``riskprop compare`` call would run; ``decide_batch``
calls the library directly.  Functions are looked up on their modules at
call time so that the traced run sees its wrappers.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import reference as R

MODELS_DIR = os.path.join("bench", "models")
ZOO = ("eu_concave", "eu_convex_kink", "dual_convex", "dual_nonconvex", "expected_value")

HOLDS, VIOLATED = "holds_on_budget", "violated"
EXIT_OK, EXIT_VIOLATED = 0, 3

PARTIAL = ("pr", "dl", "is", "cs", "hedging")
COMPARE_PROPS = ("weak", "strong", "fi") + PARTIAL
CERTIFY_PROPS = ("weak_ra", "strong_ra", "fi") + PARTIAL

# Every zoo call that ends violated.  All of them stop in the
# deterministic structured phase, so the set does not depend on the seed.
REFUTE_CERTIFY = (
    ("eu_convex_kink", ("weak_ra", "fi", "premium_fi")),  # not weakly risk averse
    ("eu_convex_kink", ("strong_ra",) + PARTIAL),  # nor strongly
    ("dual_nonconvex", ("strong_ra",) + PARTIAL),  # weakly but not strongly
    ("eu_concave", ("neutrality",)),  # only expected value is neutral
    ("eu_convex_kink", ("neutrality",)),
    ("dual_convex", ("neutrality",)),
    ("dual_nonconvex", ("neutrality",)),
)
# (A, B) pairs where B is not weakly more risk averse than A (Yaari fails) ...
REFUTE_WEAK_PAIRS = (
    ("dual_convex", "dual_nonconvex"),
    ("dual_convex", "eu_concave"),
    ("dual_convex", "eu_convex_kink"),
    ("dual_convex", "expected_value"),
    ("dual_nonconvex", "eu_concave"),
    ("dual_nonconvex", "eu_convex_kink"),
    ("dual_nonconvex", "expected_value"),
    ("eu_concave", "dual_nonconvex"),
    ("eu_concave", "eu_convex_kink"),
    ("eu_concave", "expected_value"),
    ("expected_value", "eu_convex_kink"),
)
# ... and where B is not strongly more risk averse than A (Ross fails);
# dual_nonconvex -> dual_convex is the pair where Yaari holds and Ross fails.
REFUTE_STRONG_PAIRS = REFUTE_WEAK_PAIRS + (
    ("dual_nonconvex", "dual_convex"),
    ("eu_concave", "dual_convex"),
    ("eu_convex_kink", "dual_nonconvex"),
    ("expected_value", "dual_nonconvex"),
)

COMPARE_EU_PAIR = ("eu_convex_kink", "eu_concave")


def budget_flags(seed: int) -> list[str]:
    """The search budget of ``demos/06_certification.py``, with the default value grid."""
    return ["--max-n", "5", "--exhaustive-n", "4", "--trials", "120", "--seed", str(seed)]


@dataclass
class Workload:
    name: str
    operations: list[Callable[[], object]]
    check: Callable[[list], list[str]]
    witness_states: Callable[[list], int] = field(default=lambda outputs: 0)


# ---------------------------------------------------------------------------
# CLI workloads


@dataclass(frozen=True)
class CliCall:
    command: str  # "certify" or "compare"
    prop: str
    models: tuple[str, ...]  # one model for certify, (A, B) for compare
    argv: tuple[str, ...]

    def __call__(self) -> tuple[int, str]:
        from riskprop import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(self.argv))
        return code, out.getvalue() + err.getvalue()


def _model_path(name: str) -> str:
    return os.path.join(MODELS_DIR, f"{name}.json")


def certify_call(model: str, prop: str, flags: list[str]) -> CliCall:
    argv = ["certify", "--property", prop, "--model", _model_path(model)] + flags
    return CliCall("certify", prop, (model,), tuple(argv))


def compare_call(a: str, b: str, prop: str, flags: list[str]) -> CliCall:
    argv = ["compare", "--property", prop, "--model-a", _model_path(a), "--model-b", _model_path(b)]
    return CliCall("compare", prop, (a, b), tuple(argv + flags))


def load_models() -> dict[str, dict]:
    models = {}
    for name in ZOO:
        with open(_model_path(name)) as fh:
            models[name] = json.load(fh)
    return models


def _payoff(obj: dict) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in obj["values"])


def _parse_reports(calls: list[CliCall], outputs: list, expect_code: int) -> tuple[list, list[str]]:
    reports, problems = [], []
    for call, (code, text) in zip(calls, outputs):
        if code != expect_code:
            problems.append(f"{' '.join(call.argv)}: exit {code}, expected {expect_code}")
            reports.append(None)
            continue
        report = json.loads(text)
        seed = int(call.argv[call.argv.index("--seed") + 1])
        if report["seed"] != seed or report["budget"]["seed"] != seed:
            problems.append(f"{' '.join(call.argv)}: report does not echo seed {seed}")
        reports.append(report)
    return reports, problems


def _holds_check(calls: list[CliCall], premises: list[str]) -> Callable[[list], list[str]]:
    def check(outputs: list) -> list[str]:
        problems = list(premises)
        reports, more = _parse_reports(calls, outputs, EXIT_OK)
        problems += more
        for call, report in zip(calls, reports):
            verdict = report["verdict"] if report else None
            if verdict != HOLDS:
                problems.append(f"{' '.join(call.argv)}: verdict {verdict}, expected {HOLDS}")
        return problems

    return check


def compare_eu(seed: int) -> Workload:
    models = load_models()
    a, b = COMPARE_EU_PAIR
    flags = budget_flags(seed)
    calls = [compare_call(a, b, prop, flags) for prop in COMPARE_PROPS]
    premises = []
    if not R.eu_more_risk_averse(models[a], models[b]):
        premises.append(f"{b} is not an Arrow-Pratt more risk averse utility than {a}")
    return Workload("compare_eu", calls, _holds_check(calls, premises))


def certify_dual(seed: int) -> Workload:
    models = load_models()
    flags = budget_flags(seed)
    calls = [certify_call("dual_convex", prop, flags) for prop in CERTIFY_PROPS]
    calls += [certify_call("dual_nonconvex", prop, flags) for prop in ("weak_ra", "fi")]
    premises = []
    if not R.distortion_convex(models["dual_convex"]):
        premises.append("dual_convex: distortion is not convex")
    if not R.distortion_dominated(models["dual_nonconvex"]):
        premises.append("dual_nonconvex: distortion is not below the identity")
    return Workload("certify_dual", calls, _holds_check(calls, premises))


# ---------------------------------------------------------------------------
# refute: witness re-verification


def _const(x: Fraction, n: int) -> tuple[Fraction, ...]:
    return (x,) * n


def _add(x, y) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(x, y))


def _structural(kind: str, w, f, g) -> bool:
    if not R.equal_in_distribution(f, g):
        return False
    if kind == "hedging":
        return R.better_hedge(f, g, w)
    return R.MEMBERSHIP[kind](f, w)


def _verify_neutrality(m: dict, report: dict) -> list[str]:
    problems = []
    violated = {k: r for k, r in report["details"].items() if r["verdict"] == VIOLATED}
    if not violated or report["witness"] not in [r["witness"] for r in violated.values()]:
        problems.append("neutrality: top witness is not one of the violated sub-checks")
    V = lambda x: R.model_value(m, x)  # noqa: E731
    for key, sub in violated.items():
        wit = sub["witness"]
        p = {k: _payoff(v) for k, v in wit["payoffs"].items()}
        lhs, rhs = Fraction(wit["lhs"]), Fraction(wit["rhs"])
        if key == "risk_neutrality":
            f = p["f"]
            ok = (lhs, rhs) == (V(_const(R.mean(f), len(f))), V(f)) and lhs != rhs
        elif key == "expected_value_representation":
            f, g = p["f"], p["g"]
            ok = (lhs, rhs) == (V(f), V(g)) and (lhs >= rhs) != (R.mean(f) >= R.mean(g))
        else:
            w, f, g = p["w"], p["f"], p["g"]
            if key == "full_insurance_neutrality":
                structural = R.equal_in_distribution(f, g) and R.is_fi(f, w)
            elif key == "hedging_neutrality":
                structural = R.better_hedge(f, g, w)
            else:
                structural = R.equal_in_distribution(f, g)
            ok = structural and (lhs, rhs) == (V(_add(w, f)), V(_add(w, g))) and lhs != rhs
        if not ok:
            problems.append(f"neutrality: {key} witness does not re-verify")
    return problems


def verify_witness(call: CliCall, report: dict, models: dict[str, dict]) -> list[str]:
    """Re-check a violated report's witness with the reference evaluators only."""
    wit = report["witness"]
    if wit is None:
        return [f"{' '.join(call.argv)}: violated without a witness"]
    p = {k: _payoff(v) for k, v in wit["payoffs"].items()}
    lhs, rhs = Fraction(wit["lhs"]), Fraction(wit["rhs"])
    prop = call.prop
    if call.command == "certify":
        m = models[call.models[0]]
        V = lambda x: R.model_value(m, x)  # noqa: E731
        if prop == "neutrality":
            return _verify_neutrality(m, report)
        if prop == "weak_ra":
            f = p["f"]
            ok = (lhs, rhs) == (V(_const(R.mean(f), len(f))), V(f))
        elif prop == "strong_ra":
            f, g = p["f"], p["g"]
            ok = R.concave_geq(f, g) and (lhs, rhs) == (V(f), V(g))
        else:
            w, f, g = p["w"], p["f"], p["g"]
            if prop == "premium_fi":  # fair price: f = -w - E[-w]
                structural = R.equal_in_distribution(f, g) and f == tuple(
                    R.mean(w) - x for x in w
                )
            else:
                structural = _structural(prop, w, f, g)
            ok = structural and (lhs, rhs) == (V(_add(w, f)), V(_add(w, g)))
    else:
        ma, mb = models[call.models[0]], models[call.models[1]]
        if prop == "weak":
            y = p["g"]
            x, structural = _const(R.mean(y), len(y)), True
        elif prop == "strong":
            x, y = p["f"], p["g"]
            structural = R.concave_geq(x, y)
        else:
            w, f, g = p["w"], p["f"], p["g"]
            x, y = _add(w, f), _add(w, g)
            structural = _structural(prop, w, f, g)
        # lhs = rho_B, rhs = rho_A, each solving V(x - rho) == V(y) exactly
        ok = structural and R.compensates(mb, x, y, lhs) and R.compensates(ma, x, y, rhs)
    if ok and lhs < rhs:
        return []
    return [f"{' '.join(call.argv)}: witness does not re-verify"]


def refute(seed: int) -> Workload:
    models = load_models()
    flags = budget_flags(seed)
    calls = [certify_call(m, prop, flags) for m, props in REFUTE_CERTIFY for prop in props]
    calls += [compare_call(a, b, prop, flags) for a, b in REFUTE_WEAK_PAIRS for prop in ("weak", "fi")]
    calls += [
        compare_call(a, b, prop, flags)
        for a, b in REFUTE_STRONG_PAIRS
        for prop in ("strong",) + PARTIAL
    ]

    def check(outputs: list) -> list[str]:
        reports, problems = _parse_reports(calls, outputs, EXIT_VIOLATED)
        for call, report in zip(calls, reports):
            if report is None:
                continue
            if report["verdict"] != VIOLATED:
                problems.append(f"{' '.join(call.argv)}: verdict {report['verdict']}")
                continue
            problems += verify_witness(call, report, models)
        return problems

    def witness_states(outputs: list) -> int:
        total = 0
        for _, text in outputs:
            wit = json.loads(text)["witness"]
            total += sum(len(p["values"]) for p in wit["payoffs"].values())
        return total

    return Workload("refute", calls, check, witness_states=witness_states)


# ---------------------------------------------------------------------------
# decide_batch: library decisions on seeded random payoffs

DECIDE_OPS = 1000
DECIDE_MAX_N = 12
BEST_HEDGE_MAX_N = 4
_DELTAS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


@dataclass(frozen=True)
class DecideCase:
    f: object  # riskprop Payoff
    g: object  # f after one to three mean-preserving spreads
    step: object  # a strict spread of f, for the insurance triples
    g0: tuple[Fraction, ...]  # f after ``step``, computed here

    def __call__(self) -> tuple:
        from riskprop import decompose, insurance, orders

        f, g, step = self.f, self.g, self.step
        split = decompose.split_zero_mean(f - Fraction(sum(f.values), len(f)))
        chain = decompose.mps_chain(f, g)
        triples = (decompose.proportional_triple(f, step), decompose.deductible_triple(f, step))
        hedges = tuple(
            (
                insurance.classify_detailed(t.f_tilde, t.w_tilde),
                orders.better_hedge(t.f_tilde, t.g_tilde, t.w_tilde),
            )
            for t in triples
        )
        best = ()
        if len(f) <= BEST_HEDGE_MAX_N:
            w = triples[0].w_tilde
            best = tuple(
                (orders.is_best_hedge(h, w), orders.counter_monotone(h, w))
                for h in (triples[0].f_tilde, triples[0].g_tilde)
            )
        return (
            orders.concave_order(f, g),
            orders.concave_order(g, f),
            orders.fsd(f + 1, g),
            split,
            chain.replay(f),
            triples,
            hedges,
            best,
        )


def _random_values(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for _ in range(n))


def decide_cases(seed: int) -> list[DecideCase]:
    from riskprop.orders import MpsStep
    from riskprop.space import Payoff

    rng = random.Random(f"decide_batch:{seed}")
    cases = []
    while len(cases) < DECIDE_OPS:
        # sizes cycle through 2..DECIDE_MAX_N so that every seed has the same mix
        n = 2 + len(cases) % (DECIDE_MAX_N - 1)
        fv = _random_values(rng, n)
        strict = [(a, b) for a in range(n) for b in range(n) if fv[a] < fv[b]]
        if not strict:
            continue
        gv = list(fv)
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice([(a, b) for a in range(n) for b in range(n) if a != b and gv[a] <= gv[b]])
            delta = rng.choice(_DELTAS)
            gv[a] -= delta
            gv[b] += delta
        a, b = rng.choice(strict)
        delta = rng.choice(_DELTAS)
        g0 = list(fv)
        g0[a] -= delta
        g0[b] += delta
        cases.append(
            DecideCase(Payoff(fv), Payoff(tuple(gv)), MpsStep(a + 1, b + 1, delta), tuple(g0))
        )
    return cases


def check_decision(case: DecideCase, out: tuple) -> list[str]:
    cv, cv_rev, dom, split, replayed, triples, hedges, best = out
    f, g = case.f.values, case.g.values
    bad = []
    if cv != R.concave_geq(f, g) or cv_rev != R.concave_geq(g, f):
        bad.append("concave_order disagrees with the stop-loss oracle")
    if not cv:
        bad.append("a spread of f is not concave-order dominated by f")
    if dom != R.fsd(tuple(v + 1 for v in f), g):
        bad.append("fsd disagrees with the reference")
    centered = tuple(v - R.mean(f) for v in f)
    h, hp = split.h.values, split.h_prime.values
    if tuple(a - b for a, b in zip(h, hp)) != centered or not R.equal_in_distribution(h, hp):
        bad.append("zero-mean split: h - h' != f or h, h' not equally distributed")
    if replayed.values != g:
        bad.append("spread chain does not replay to g")
    for t, (kinds, hedge) in zip(triples, hedges):
        w, ft, gt = t.w_tilde.values, t.f_tilde.values, t.g_tilde.values
        if _add(w, ft) != f or _add(w, gt) != case.g0 or not R.equal_in_distribution(ft, gt):
            bad.append(f"{t.kind} triple: w+f != f0, w+g != g0 or f, g not equally distributed")
        expected = {k for k, member in R.MEMBERSHIP.items() if member(ft, w)}
        if {k.value for k in kinds} != expected or t.kind not in expected:
            bad.append(f"{t.kind} triple: classify_detailed disagrees with the membership tests")
        if hedge != R.better_hedge(ft, gt, w):
            bad.append(f"{t.kind} triple: better_hedge disagrees with the reference")
    w = triples[0].w_tilde.values
    hs = (triples[0].f_tilde.values, triples[0].g_tilde.values)
    for h, (is_best, cm) in zip(hs, best):
        if not is_best == cm == R.is_cs(h, w):
            bad.append("is_best_hedge, counter_monotone and the reference disagree")
    return bad


def decide_batch(seed: int) -> Workload:
    cases = decide_cases(seed)

    def check(outputs: list) -> list[str]:
        problems = []
        for i, (case, out) in enumerate(zip(cases, outputs)):
            problems += [f"case {i}: {p}" for p in check_decision(case, out)]
        return problems

    return Workload("decide_batch", cases, check)


WORKLOADS = {
    "compare_eu": compare_eu,
    "certify_dual": certify_dual,
    "refute": refute,
    "decide_batch": decide_batch,
}
