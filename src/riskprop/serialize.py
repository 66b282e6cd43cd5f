"""JSON codecs for payoffs, models, classifications, decompositions, and reports.

Rationals travel as strings: the emitter always writes ``"p/q"``; the
parser additionally accepts integers and terminating decimal strings
("2.5"), both converted exactly.  JSON floats are rejected so precision
is never lost silently.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Mapping

from .certify import CertificateReport, SearchBudget, Witness
from .decompose import InsuranceTriple, MpsChain, Rearrangement, ZeroMeanSplit
from .insurance import KIND_ORDER, InsuranceKind
from .orders import MpsStep
from .preferences import (
    PiecewiseLinearFn,
    PreferenceModel,
    dual_model,
    expected_utility_model,
    expected_value_model,
    mean_variance_model,
)
from .space import Payoff

__all__ = [
    "InputError",
    "format_fraction",
    "parse_rational",
    "payoff_to_obj",
    "payoff_from_obj",
    "model_to_obj",
    "model_from_obj",
    "step_to_obj",
    "split_to_obj",
    "chain_to_obj",
    "triple_to_obj",
    "report_to_obj",
    "dumps",
]


class InputError(ValueError):
    """Malformed input; the message names the offending field."""


MAX_DIGITS = 4300  # Python's default limit for converting between int and str


# the digit groups of a rational string, loosely; Fraction itself rejects bad syntax
_RATIONAL_PARTS = re.compile(
    r"\s*[-+]?(?P<num>[\d_]*)"
    r"(?:\s*/\s*(?P<den>[\d_]+)|(?:\.(?P<frac>[\d_]*))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)\s*"
)


def _check_digits(text: str, where: str) -> None:
    """Reject ``text`` if ``Fraction(text)`` would build an int of more than MAX_DIGITS digits.

    Checked before the ``Fraction`` is built: for ``1e999999999`` it would
    compute a billion-digit power of ten.
    """
    m = _RATIONAL_PARTS.fullmatch(text)
    if m is None:
        return  # Fraction reports the syntax error
    num, den, frac, exp = (sum(map(str.isdigit, m[k] or "")) for k in ("num", "den", "frac", "exp"))
    if exp > MAX_DIGITS:
        raise InputError(f"{where}: exponent needs more than {MAX_DIGITS} digits")
    if m["den"] is None:
        shift = int(m["exp"] or 0) - frac  # the value is int(num frac) * 10**shift
        num, den = num + frac + max(shift, 0), 1 + max(-shift, 0)
    for part, digits in (("numerator", num), ("denominator", den)):
        if digits > MAX_DIGITS:
            raise InputError(f"{where}: {part} needs more than {MAX_DIGITS} digits")


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, float):
        raise InputError(
            f"{where}: JSON numbers with a fractional part are inexact; "
            f"write the value as a string such as \"5/2\" or \"2.5\""
        )
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        _check_digits(value, where)
        try:
            return Fraction(value)
        except ValueError:  # its message repeats the whole literal
            raise InputError(f"{where}: cannot parse rational from {value!r}")
        except ZeroDivisionError:
            raise InputError(f"{where}: zero denominator in {value!r}")
    raise InputError(f"{where}: expected an int or rational string, got {type(value).__name__}")


def payoff_to_obj(f: Payoff) -> dict:
    return {"n": len(f), "values": [format_fraction(v) for v in f.values]}


def payoff_from_obj(obj: Any, where: str = "payoff") -> Payoff:
    if not isinstance(obj, Mapping):
        raise InputError(f"{where}: expected an object with 'values'")
    values = obj.get("values")
    if not isinstance(values, list) or not values:
        raise InputError(f"{where}.values: expected a nonempty array")
    vals = tuple(
        parse_rational(v, f"{where}.values[{i}]") for i, v in enumerate(values)
    )
    if "n" in obj:
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise InputError(f"{where}.n: expected an integer")
        if n != len(vals):
            raise InputError(f"{where}.n: declared {n} states but found {len(vals)} values")
    return Payoff(vals)


def _breakpoints_from_obj(obj: Any, where: str) -> PiecewiseLinearFn:
    if not isinstance(obj, Mapping) or "breakpoints" not in obj:
        raise InputError(f"{where}: expected an object with 'breakpoints'")
    pts = obj["breakpoints"]
    if not isinstance(pts, list) or len(pts) < 2:
        raise InputError(f"{where}.breakpoints: expected an array of at least two [x, y] pairs")
    parsed = []
    for i, pair in enumerate(pts):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(f"{where}.breakpoints[{i}]: expected an [x, y] pair")
        parsed.append(
            (
                parse_rational(pair[0], f"{where}.breakpoints[{i}][0]"),
                parse_rational(pair[1], f"{where}.breakpoints[{i}][1]"),
            )
        )
    try:
        return PiecewiseLinearFn(tuple(parsed))
    except ValueError as exc:
        raise InputError(f"{where}.breakpoints: {exc}")


def model_from_obj(obj: Any, where: str = "model") -> PreferenceModel:
    if not isinstance(obj, Mapping):
        raise InputError(f"{where}: expected an object with 'type'")
    mtype = obj.get("type")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"{where}.name: expected a string")
    if name == "":
        raise InputError(f"{where}.name: expected a non-empty string")
    named = {} if name is None else {"name": name}  # no name: the family's default
    if mtype == "ev":
        return expected_value_model(**named)
    if mtype == "mv":
        return mean_variance_model(**named)
    if mtype in ("eu", "dual"):
        fn = _breakpoints_from_obj(obj.get("fn"), f"{where}.fn")
        try:
            return (expected_utility_model if mtype == "eu" else dual_model)(fn, **named)
        except ValueError as exc:
            raise InputError(f"{where}.fn: {exc}")
    raise InputError(f"{where}.type: expected one of eu, dual, mv, ev, got {mtype!r}")


def model_to_obj(m: PreferenceModel) -> dict:
    obj: dict[str, Any] = {"type": m.family, "name": m.name}
    fn = m.utility or m.distortion  # eu and dual carry one function each
    if fn is not None:
        obj["fn"] = {"breakpoints": [[format_fraction(x), format_fraction(y)] for x, y in fn.breakpoints]}
    return obj


def _params_to_obj(params: Mapping[str, Any]) -> dict:
    out: dict[str, Any] = {}
    for key, val in params.items():
        if isinstance(val, Fraction):
            out[key] = format_fraction(val)
        else:  # an is schedule of (loss, payment) pairs
            out[key] = [[format_fraction(a), format_fraction(b)] for a, b in val]
    return out


def classification_to_obj(detailed: Mapping[InsuranceKind, Mapping[str, Any]]) -> dict:
    kinds = [k.value for k in KIND_ORDER if k in detailed]
    params = {k.value: _params_to_obj(detailed[k]) for k in detailed}
    return {"kinds": kinds, "params": params}


def step_to_obj(step: MpsStep) -> dict:
    return {
        "donor": step.donor,
        "recipient": step.recipient,
        "delta": format_fraction(step.delta),
    }


def split_to_obj(split: ZeroMeanSplit) -> dict:
    return {"h": payoff_to_obj(split.h), "h_prime": payoff_to_obj(split.h_prime)}


def chain_to_obj(chain: MpsChain) -> dict:
    elements = []
    for el in chain.elements:
        if isinstance(el, MpsStep):
            elements.append({"spread": step_to_obj(el)})
        elif isinstance(el, Rearrangement):
            elements.append({"permutation": list(el.mapping)})
        else:
            raise AssertionError(f"unknown chain element {el!r}")
    return {"elements": elements, "spread_count": chain.spread_count}


def triple_to_obj(t: InsuranceTriple) -> dict:
    return {
        "kind": t.kind,
        "w_tilde": payoff_to_obj(t.w_tilde),
        "f_tilde": payoff_to_obj(t.f_tilde),
        "g_tilde": payoff_to_obj(t.g_tilde),
        "params": _params_to_obj(t.params),
    }


def _witness_to_obj(w: Witness) -> dict:
    return {
        "relation": w.relation,
        "payoffs": {k: payoff_to_obj(p) for k, p in sorted(w.payoffs.items())},
        "lhs": format_fraction(w.lhs),
        "rhs": format_fraction(w.rhs),
    }


def _budget_to_obj(b: SearchBudget) -> dict:
    return {
        "max_n": b.max_n,
        "exhaustive_n": b.exhaustive_n,
        "trials": b.trials,
        "seed": b.seed,
        "value_grid": [format_fraction(v) for v in b.value_grid],
    }


def report_to_obj(r: CertificateReport) -> dict:
    obj: dict[str, Any] = {
        "property": r.property,
        "verdict": r.verdict,
        "witness": _witness_to_obj(r.witness) if r.witness else None,
        "trials": r.trials_run,
        "seed": r.seed,
        "budget": _budget_to_obj(r.budget),
    }
    if r.notes:
        obj["notes"] = list(r.notes)
    if r.details:
        obj["details"] = {k: report_to_obj(v) for k, v in sorted(r.details.items())}
    return obj


def dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
