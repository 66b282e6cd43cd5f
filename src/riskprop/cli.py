"""Command-line front end.

Subcommands: ``order``, ``classify``, ``decompose``, ``hedge``,
``preference``, ``certify``, ``compare``.  Inputs are JSON files (see
serialize); results are deterministic JSON on stdout or ``--out``, which
is opened before the command runs and left as it was if the command fails.

Exit codes: 0 success / property holds on budget, 2 malformed input or
a file that cannot be read or written, 3 a certificate reports a
violation.  The environment variable ``RISKPROP_SEED`` overrides the
default search seed.
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
MAX_MESSAGE = 300  # characters of a diagnostic printed; the input it repeats may be any length


def _json_int(text: str) -> Any:
    # an int too long to convert stays text, which the field parsers reject by name
    return int(text) if len(text.lstrip("-")) <= S.MAX_DIGITS else text


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except FileNotFoundError:
        raise S.InputError(f"{path}: file not found")
    except OSError as exc:
        raise S.InputError(f"{path}: cannot read ({exc.strerror})")
    except UnicodeDecodeError as exc:
        raise S.InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except json.JSONDecodeError as exc:
        raise S.InputError(f"{path}: invalid JSON ({exc})")
    except RecursionError:
        raise S.InputError(f"{path}: invalid JSON (nested too deeply)")


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
    kwargs: dict[str, Any] = {
        key: getattr(args, key) for key in ("max_n", "exhaustive_n", "trials")
        if getattr(args, key) is not None
    }
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


def _claim_out(path: str) -> bool:
    """Open ``--out`` for writing without truncating it; True when this creates the file."""
    create = not os.path.exists(path)
    try:  # O_EXCL: a file that appears meanwhile is never taken for one this created
        os.close(os.open(path, os.O_WRONLY | (os.O_CREAT | os.O_EXCL if create else 0), 0o666))
    except OSError as exc:
        raise S.InputError(f"--out {path}: cannot write ({exc.strerror})")
    return create


def _emit(obj: Any, out: Optional[str]) -> None:
    text = S.dumps(obj)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise S.InputError(f"--out {out}: cannot write ({exc.strerror})")
    else:
        sys.stdout.write(text)


# per command, each --property spelling: (the public check in certify, its propensity kind);
# the check is looked up when it runs, so wrappers installed on certify see the call
_CHECKS: dict[str, dict[str, tuple[str, Optional[str]]]] = {
    "certify": dict(
        weak_ra=("check_weak_risk_aversion", None), strong_ra=("check_strong_risk_aversion", None),
        neutrality=("check_neutrality", None), premium_fi=("check_premium_propensity", None),
        **{kind: ("check_propensity", kind) for kind in C.PROPENSITY_KINDS},
    ),
    "compare": dict(
        weak=("compare_weak", None), strong=("compare_strong", None),
        **{kind: ("compare_propensity", kind) for kind in C.PROPENSITY_KINDS},
    ),
}


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
    p_cert.add_argument("--property", required=True, choices=tuple(_CHECKS["certify"]))
    p_cert.add_argument("--model", required=True)
    p_cert.add_argument("--principle", choices=("fair", "loading"), help="premium_fi; default fair")
    p_cert.add_argument("--loading", help="with --principle loading; default 1/5")
    _add_budget_args(p_cert)

    p_cmp = sub.add_parser("compare", help="comparative attitude of model B against model A")
    p_cmp.add_argument("--property", required=True, choices=tuple(_CHECKS["compare"]))
    p_cmp.add_argument("--model-a", required=True, dest="model_a")
    p_cmp.add_argument("--model-b", required=True, dest="model_b")
    _add_budget_args(p_cmp)

    return parser


def _run_order(args: argparse.Namespace) -> tuple[Any, int]:
    f, g = _load_payoff(args.f), _load_payoff(args.g)
    flags = (("cv", args.cv), ("fsd", args.fsd), ("mps", args.mps))
    wanted = [name for name, on in flags if on] or ["cv", "fsd", "mps"]
    out: dict[str, Any] = {}
    if "cv" in wanted:
        out["cv"] = concave_order(f, g)
    if "fsd" in wanted:
        out["fsd"] = fsd(f, g)
    if "mps" in wanted:
        step = recognize_mps(f, g)
        out["mps"] = S.step_to_obj(step) if step else None
    return out, EXIT_OK


def _run_classify(args: argparse.Namespace) -> tuple[Any, int]:
    f, w = _load_payoff(args.f), _load_payoff(args.w)
    return S.classification_to_obj(classify_detailed(f, w)), EXIT_OK


def _run_decompose(args: argparse.Namespace) -> tuple[Any, int]:
    f = _load_payoff(args.f)
    if args.mode == "split":
        return S.split_to_obj(split_zero_mean(f)), EXIT_OK
    if args.mode == "chain":
        g = _load_payoff(args.g)
        return S.chain_to_obj(mps_chain(f, g)), EXIT_OK
    step = MpsStep(args.donor, args.recipient, S.parse_rational(args.delta, "delta"))
    maker = proportional_triple if args.mode == "proportional" else deductible_triple
    return S.triple_to_obj(maker(f, step)), EXIT_OK


def _run_hedge(args: argparse.Namespace) -> tuple[Any, int]:
    f, g, w = _load_payoff(args.f), _load_payoff(args.g), _load_payoff(args.w)
    out = {"equal_in_distribution": equal_in_distribution(f, g), "better_hedge": better_hedge(f, g, w)}
    return out, EXIT_OK


def _run_preference(args: argparse.Namespace) -> tuple[Any, int]:
    m = _load_model(args.model)
    if args.value is not None:
        return {"value": S.format_fraction(m.value(_load_payoff(args.value)))}, EXIT_OK
    if args.ce is not None:
        ce = certainty_equivalent(m, _load_payoff(args.ce))
        return {"certainty_equivalent": S.format_fraction(ce)}, EXIT_OK
    if args.rho is not None:
        g, f = _load_payoff(args.rho[0]), _load_payoff(args.rho[1])
        return {"rho": S.format_fraction(rho(m, g, f))}, EXIT_OK
    if m.family != "mv":
        raise S.InputError(f"--mv-compare: needs a model of type mv, got {m.family}")
    f, g = _load_payoff(args.mv[0]), _load_payoff(args.mv[1])
    return {"comparison": mv_compare(f, g).value}, EXIT_OK


def _run_check(args: argparse.Namespace) -> tuple[Any, int]:
    name, kind = _CHECKS[args.command][args.property]
    premium = name == "check_premium_propensity"
    principle, loading = getattr(args, "principle", None), getattr(args, "loading", None)
    for flag, value in (("--principle", principle), ("--loading", loading)):
        if value is not None and not premium:
            raise S.InputError(f"{flag}: applies only to --property premium_fi")
    if loading is not None and principle != "loading":
        raise S.InputError("--loading: applies only with --principle loading")
    paths = (args.model,) if args.command == "certify" else (args.model_a, args.model_b)
    call = [kind] if kind else []
    call += [_load_model(path) for path in paths]
    budget = _budget_from_args(args)
    if principle == "loading":
        rate = S.parse_rational("1/5" if loading is None else loading, "--loading")
        try:
            call.append(loading_principle(rate))
        except ValueError as exc:
            raise S.InputError(f"--loading: {exc}")
    elif premium:
        call.append(fair_principle())
    report = getattr(C, name)(*call, budget)
    return S.report_to_obj(report), (EXIT_VIOLATED if report.violated else EXIT_OK)


_RUNNERS = {
    "order": _run_order,
    "classify": _run_classify,
    "decompose": _run_decompose,
    "hedge": _run_hedge,
    "preference": _run_preference,
    "certify": _run_check,
    "compare": _run_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    created = done = False
    try:  # the one error boundary: malformed input and failed reads or writes exit 2
        if args.out:  # before the command runs, so a bad path costs no work
            created = _claim_out(args.out)
        result, code = _RUNNERS[args.command](args)
        _emit(result, args.out)
        done = True
    except ValueError as exc:
        text = str(exc)
        cut = f"... ({len(text) - MAX_MESSAGE} more characters)" if len(text) > MAX_MESSAGE else ""
        print(f"error: {text[:MAX_MESSAGE]}{cut}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if created and not done:  # a failed command leaves no new file behind
            os.remove(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
