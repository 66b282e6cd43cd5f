"""Command-line front end.

Subcommands: ``order``, ``classify``, ``decompose``, ``hedge``,
``preference``, ``certify``, ``compare``.  Inputs are JSON files (see
serialize); results are deterministic JSON on stdout or ``--out``.

Exit codes: 0 success / property holds on budget, 2 malformed input,
3 a certificate reports a violation.  The environment variable
``RISKPROP_SEED`` overrides the default search seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Any, Optional, Sequence

from . import certify as C
from . import serialize as S
from .decompose import mps_chain, proportional_triple, deductible_triple, split_zero_mean
from .insurance import classify_detailed, fair_principle, loading_principle
from .orders import MpsStep, better_hedge, concave_order, fsd, recognize_mps
from .preferences import certainty_equivalent, mv_compare, rho
from .space import Payoff, equal_in_distribution

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATED = 3


def _json_int(text: str) -> Any:
    # an int too long to convert stays text, which the field parsers reject by name
    return int(text) if len(text.lstrip("-")) <= S.MAX_DIGITS else text


def _load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=_json_int)
    except FileNotFoundError:
        raise S.InputError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise S.InputError(f"{path}: invalid JSON ({exc})")


def _load_payoff(path: str) -> Payoff:
    return S.payoff_from_obj(_load_json(path), where=path)


def _load_model(path: str):
    return S.model_from_obj(_load_json(path), where=path)


def _default_seed() -> int:
    raw = os.environ.get("RISKPROP_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise S.InputError(f"RISKPROP_SEED: expected an integer, got {raw!r}")


def _budget_from_args(args: argparse.Namespace) -> C.SearchBudget:
    kwargs: dict[str, Any] = {}
    if args.max_n is not None:
        kwargs["max_n"] = args.max_n
    if args.exhaustive_n is not None:
        kwargs["exhaustive_n"] = args.exhaustive_n
    if args.trials is not None:
        kwargs["trials"] = args.trials
    kwargs["seed"] = args.seed if args.seed is not None else _default_seed()
    if args.grid is not None:
        kwargs["value_grid"] = tuple(
            S.parse_rational(v.strip(), "--grid") for v in args.grid.split(",")
        )
    try:
        return C.SearchBudget(**kwargs)
    except ValueError as exc:
        raise S.InputError(f"budget: {exc}")


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--exhaustive-n", type=int, default=None, dest="exhaustive_n")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", type=str, default=None, help="comma-separated rationals")


def _emit(obj: Any, out: Optional[str]) -> None:
    text = S.dumps(obj)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@lru_cache(maxsize=None)  # built once per process; parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="riskprop", description=__doc__)
    parser.add_argument("--out", default=None, help="write the JSON result to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="stochastic order checks between two payoffs")
    p_order.add_argument("f")
    p_order.add_argument("g")
    p_order.add_argument("--cv", action="store_true", help="concave order only")
    p_order.add_argument("--fsd", action="store_true", help="first-order dominance only")
    p_order.add_argument("--mps", action="store_true", help="single-spread recognition only")

    p_classify = sub.add_parser("classify", help="insurance classes of f for risk w")
    p_classify.add_argument("f")
    p_classify.add_argument("w")

    p_dec = sub.add_parser("decompose", help="constructive decompositions")
    dec_sub = p_dec.add_subparsers(dest="mode", required=True)
    d_split = dec_sub.add_parser("split", help="zero-mean split")
    d_split.add_argument("f")
    d_chain = dec_sub.add_parser("chain", help="spread chain from f to g")
    d_chain.add_argument("f")
    d_chain.add_argument("g")
    for mode in ("proportional", "deductible"):
        d = dec_sub.add_parser(mode, help=f"{mode} insurance triple for one spread")
        d.add_argument("f")
        d.add_argument("donor", type=int)
        d.add_argument("recipient", type=int)
        d.add_argument("delta")

    p_hedge = sub.add_parser("hedge", help="better-hedge comparison of f and g against risk w")
    p_hedge.add_argument("f")
    p_hedge.add_argument("g")
    p_hedge.add_argument("w")

    p_pref = sub.add_parser("preference", help="evaluate a preference model")
    p_pref.add_argument("model")
    group = p_pref.add_mutually_exclusive_group(required=True)
    group.add_argument("--value", metavar="F")
    group.add_argument("--ce", metavar="F")
    group.add_argument("--rho", nargs=2, metavar=("G", "F"))
    group.add_argument("--mv-compare", nargs=2, metavar=("F", "G"), dest="mv")

    p_cert = sub.add_parser("certify", help="certify a property of one model")
    p_cert.add_argument("--property", required=True, choices=(
        "weak_ra", "strong_ra", "neutrality", "premium_fi",
        "fi", "pr", "dl", "is", "cs", "hedging",
    ))
    p_cert.add_argument("--model", required=True)
    p_cert.add_argument("--principle", choices=("fair", "loading"), default="fair")
    p_cert.add_argument("--loading", default="1/5")
    _add_budget_args(p_cert)

    p_cmp = sub.add_parser("compare", help="comparative attitude of model B against model A")
    p_cmp.add_argument("--property", required=True, choices=(
        "weak", "strong", "fi", "pr", "dl", "is", "cs", "hedging",
    ))
    p_cmp.add_argument("--model-a", required=True, dest="model_a")
    p_cmp.add_argument("--model-b", required=True, dest="model_b")
    _add_budget_args(p_cmp)

    return parser


def _run_order(args: argparse.Namespace) -> tuple[Any, int]:
    f, g = _load_payoff(args.f), _load_payoff(args.g)
    wanted = [name for name, on in (("cv", args.cv), ("fsd", args.fsd), ("mps", args.mps)) if on]
    if not wanted:
        wanted = ["cv", "fsd", "mps"]
    out: dict[str, Any] = {}
    try:
        if "cv" in wanted:
            out["cv"] = concave_order(f, g)
        if "fsd" in wanted:
            out["fsd"] = fsd(f, g)
        if "mps" in wanted:
            step = recognize_mps(f, g)
            out["mps"] = S.step_to_obj(step) if step else None
    except ValueError as exc:
        raise S.InputError(str(exc))
    return out, EXIT_OK


def _run_classify(args: argparse.Namespace) -> tuple[Any, int]:
    f, w = _load_payoff(args.f), _load_payoff(args.w)
    try:
        detailed = classify_detailed(f, w)
    except ValueError as exc:
        raise S.InputError(str(exc))
    return S.classification_to_obj(detailed), EXIT_OK


def _run_decompose(args: argparse.Namespace) -> tuple[Any, int]:
    f = _load_payoff(args.f)
    try:
        if args.mode == "split":
            return S.split_to_obj(split_zero_mean(f)), EXIT_OK
        if args.mode == "chain":
            g = _load_payoff(args.g)
            return S.chain_to_obj(mps_chain(f, g)), EXIT_OK
        step = MpsStep(args.donor, args.recipient, S.parse_rational(args.delta, "delta"))
        maker = proportional_triple if args.mode == "proportional" else deductible_triple
        return S.triple_to_obj(maker(f, step)), EXIT_OK
    except ValueError as exc:
        raise S.InputError(str(exc))


def _run_hedge(args: argparse.Namespace) -> tuple[Any, int]:
    f, g, w = _load_payoff(args.f), _load_payoff(args.g), _load_payoff(args.w)
    try:
        return (
            {
                "equal_in_distribution": equal_in_distribution(f, g),
                "better_hedge": better_hedge(f, g, w),
            },
            EXIT_OK,
        )
    except ValueError as exc:
        raise S.InputError(str(exc))


def _run_preference(args: argparse.Namespace) -> tuple[Any, int]:
    m = _load_model(args.model)
    try:
        if args.value is not None:
            return {"value": S.format_fraction(m.value(_load_payoff(args.value)))}, EXIT_OK
        if args.ce is not None:
            ce = certainty_equivalent(m, _load_payoff(args.ce))
            return {"certainty_equivalent": S.format_fraction(ce)}, EXIT_OK
        if args.rho is not None:
            g, f = _load_payoff(args.rho[0]), _load_payoff(args.rho[1])
            return {"rho": S.format_fraction(rho(m, g, f))}, EXIT_OK
        f, g = _load_payoff(args.mv[0]), _load_payoff(args.mv[1])
        return {"comparison": mv_compare(f, g).value}, EXIT_OK
    except ValueError as exc:
        raise S.InputError(str(exc))


def _run_certify(args: argparse.Namespace) -> tuple[Any, int]:
    m = _load_model(args.model)
    budget = _budget_from_args(args)
    try:
        if args.property == "weak_ra":
            report = C.check_weak_risk_aversion(m, budget)
        elif args.property == "strong_ra":
            report = C.check_strong_risk_aversion(m, budget)
        elif args.property == "neutrality":
            report = C.check_neutrality(m, budget)
        elif args.property == "premium_fi":
            pp = (
                fair_principle()
                if args.principle == "fair"
                else loading_principle(S.parse_rational(args.loading, "--loading"))
            )
            report = C.check_premium_propensity(m, pp, budget)
        else:
            report = C.check_propensity(args.property, m, budget)
    except ValueError as exc:
        raise S.InputError(str(exc))
    return S.report_to_obj(report), (EXIT_VIOLATED if report.violated else EXIT_OK)


def _run_compare(args: argparse.Namespace) -> tuple[Any, int]:
    mA, mB = _load_model(args.model_a), _load_model(args.model_b)
    budget = _budget_from_args(args)
    try:
        if args.property == "weak":
            report = C.compare_weak(mA, mB, budget)
        elif args.property == "strong":
            report = C.compare_strong(mA, mB, budget)
        else:
            report = C.compare_propensity(args.property, mA, mB, budget)
    except ValueError as exc:
        raise S.InputError(str(exc))
    return S.report_to_obj(report), (EXIT_VIOLATED if report.violated else EXIT_OK)


_RUNNERS = {
    "order": _run_order,
    "classify": _run_classify,
    "decompose": _run_decompose,
    "hedge": _run_hedge,
    "preference": _run_preference,
    "certify": _run_certify,
    "compare": _run_compare,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result, code = _RUNNERS[args.command](args)
    except S.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(result, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
