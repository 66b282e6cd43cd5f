import contextlib
import io
import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from riskprop import (
    SearchBudget,
    check_neutrality,
    check_premium_propensity,
    check_propensity,
    check_strong_risk_aversion,
    check_weak_risk_aversion,
    compare_propensity,
    compare_strong,
    compare_weak,
    fair_principle,
    loading_principle,
)
from riskprop.certify import PROPENSITY_KINDS
from riskprop.cli import main
from riskprop.serialize import dumps, model_to_obj, payoff_from_obj, payoff_to_obj, report_to_obj
from conftest import P, build_zoo


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "f": write("f.json", {"n": 2, "values": ["1", "1"]}),
        "g": write("g.json", {"n": 2, "values": ["0", "2"]}),
        "rain": write("rain.json", {"n": 3, "values": ["1", "0", "0"]}),
        "drought": write("drought.json", {"n": 3, "values": ["0", "1", "0"]}),
        "grapes": write("grapes.json", {"n": 3, "values": ["0", "1", "1"]}),
        "zm": write("zm.json", {"n": 3, "values": ["2", "-1", "-1"]}),
        "eu_concave": write(
            "eu_concave.json",
            {
                "type": "eu",
                "name": "eu-concave",
                "fn": {"breakpoints": [["-1", "-1"], ["0", "0"], ["1", "1/2"]]},
            },
        ),
        "eu_convex": write(
            "eu_convex.json",
            {
                "type": "eu",
                "name": "eu-convex-kink",
                "fn": {"breakpoints": [["-1", "-1/2"], ["0", "0"], ["1", "1"]]},
            },
        ),
        "ev": write("ev.json", {"type": "ev"}),
        "dir": tmp_path,
        "write": write,
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestOrder:
    def test_cv_flag(self, capsys, files):
        code, out = run(capsys, ["order", "--cv", files["f"], files["g"]])
        assert code == 0
        assert out == {"cv": True}

    def test_all_checks_by_default(self, capsys, files):
        code, out = run(capsys, ["order", files["f"], files["g"]])
        assert code == 0
        assert out["cv"] is True
        assert out["fsd"] is False
        assert out["mps"] == {"donor": 1, "recipient": 2, "delta": "1/1"}


class TestClassify:
    def test_viticulturist_instance(self, capsys, files):
        code, out = run(capsys, ["classify", files["rain"], files["grapes"]])
        assert code == 0
        assert out["kinds"] == ["fi", "pr", "dl", "is", "cs"]
        assert out["params"]["fi"] == {"premium": "-1/1"}

    def test_no_memberships(self, capsys, files):
        code, out = run(capsys, ["classify", files["drought"], files["grapes"]])
        assert code == 0
        assert out["kinds"] == []


class TestDecompose:
    def test_split(self, capsys, files):
        code, out = run(capsys, ["decompose", "split", files["zm"]])
        assert code == 0
        assert out["h"]["values"] == ["2/1", "1/1", "0/1"]
        assert out["h_prime"]["values"] == ["0/1", "2/1", "1/1"]

    def test_split_rejects_nonzero_mean(self, capsys, files):
        assert main(["decompose", "split", files["f"]]) == 2

    def test_chain(self, capsys, files):
        code, out = run(capsys, ["decompose", "chain", files["f"], files["g"]])
        assert code == 0
        assert out["spread_count"] == 1
        assert out["elements"][0]["spread"] == {
            "donor": 1,
            "recipient": 2,
            "delta": "1/1",
        }

    def test_chain_of_a_pure_permutation(self, capsys, files):
        swapped = files["write"]("swapped.json", {"n": 2, "values": ["2", "0"]})
        code, out = run(capsys, ["decompose", "chain", files["g"], swapped])
        assert code == 0
        assert out == {"elements": [{"permutation": [2, 1]}], "spread_count": 0}

    def test_triples(self, capsys, files):
        code, out = run(
            capsys, ["decompose", "proportional", files["g"], "1", "2", "1"]
        )
        assert code == 0
        assert out["kind"] == "pr"
        assert out["f_tilde"]["values"] == ["0/1", "-1/1"]
        code, out = run(capsys, ["decompose", "deductible", files["g"], "1", "2", "2"])
        assert code == 0
        assert out["params"]["limit"] == "2/1"


class TestHedge:
    def test_rain_vs_drought(self, capsys, files):
        code, out = run(
            capsys, ["hedge", files["rain"], files["drought"], files["grapes"]]
        )
        assert code == 0
        assert out == {"better_hedge": True, "equal_in_distribution": True}


class TestPreference:
    def test_value(self, capsys, files):
        code, out = run(capsys, ["preference", files["eu_concave"], "--value", files["g"]])
        assert code == 0
        assert out == {"value": "1/2"}

    def test_ce_and_rho(self, capsys, files):
        code, out = run(capsys, ["preference", files["ev"], "--ce", files["g"]])
        assert code == 0 and out == {"certainty_equivalent": "1/1"}
        code, out = run(
            capsys, ["preference", files["ev"], "--rho", files["g"], files["f"]]
        )
        assert code == 0 and out == {"rho": "0/1"}

    def test_mv_compare(self, capsys, files):
        mv = files["write"]("mv.json", {"type": "mv"})
        code, out = run(
            capsys, ["preference", mv, "--mv-compare", files["f"], files["g"]]
        )
        assert code == 0 and out == {"comparison": "better"}


class TestCertify:
    BUDGET_ARGS = ["--trials", "40", "--max-n", "4", "--exhaustive-n", "3"]

    def test_weak_ra_holds(self, capsys, files):
        code, out = run(
            capsys,
            ["certify", "--property", "weak_ra", "--model", files["eu_concave"]]
            + self.BUDGET_ARGS,
        )
        assert code == 0
        assert out["verdict"] == "holds_on_budget"
        assert out["budget"]["trials"] == 40

    def test_weak_ra_violated_exit_code(self, capsys, files):
        code, out = run(
            capsys,
            ["certify", "--property", "weak_ra", "--model", files["eu_convex"]]
            + self.BUDGET_ARGS,
        )
        assert code == 3
        assert out["verdict"] == "violated"
        assert out["witness"]["payoffs"]["f"]["values"]

    def test_premium_principle_variant(self, capsys, files):
        code, out = run(
            capsys,
            [
                "certify",
                "--property",
                "premium_fi",
                "--model",
                files["eu_concave"],
                "--principle",
                "loading",
                "--loading",
                "1/5",
            ]
            + self.BUDGET_ARGS,
        )
        assert code == 0

    def test_seed_env_override(self, capsys, files, monkeypatch):
        monkeypatch.setenv("RISKPROP_SEED", "17")
        code, out = run(
            capsys,
            ["certify", "--property", "weak_ra", "--model", files["ev"]]
            + self.BUDGET_ARGS,
        )
        assert code == 0
        assert out["seed"] == 17


class TestCompare:
    def test_weak_holds(self, capsys, files):
        code, out = run(
            capsys,
            [
                "compare",
                "--property",
                "weak",
                "--model-a",
                files["ev"],
                "--model-b",
                files["eu_concave"],
                "--trials",
                "30",
                "--max-n",
                "3",
                "--exhaustive-n",
                "3",
            ],
        )
        assert code == 0
        assert out["verdict"] == "holds_on_budget"

    def test_fi_violated(self, capsys, files):
        code, out = run(
            capsys,
            [
                "compare",
                "--property",
                "fi",
                "--model-a",
                files["eu_concave"],
                "--model-b",
                files["ev"],
                "--trials",
                "30",
                "--max-n",
                "3",
                "--exhaustive-n",
                "3",
            ],
        )
        assert code == 3
        assert out["verdict"] == "violated"


class TestInputHandling:
    def test_float_values_rejected(self, files, capsys):
        bad = files["write"]("bad.json", {"n": 2, "values": [0.5, 1]})
        assert main(["order", "--cv", bad, files["g"]]) == 2
        err = capsys.readouterr().err
        assert "values[0]" in err

    def test_missing_file(self, files):
        assert main(["order", "--cv", "/nonexistent.json", files["g"]]) == 2

    def test_wrong_state_count(self, files, capsys):
        bad = files["write"]("badn.json", {"n": 3, "values": ["1", "2"]})
        assert main(["classify", bad, files["g"]]) == 2

    def test_order_length_mismatch(self, files, capsys):
        three = files["write"]("f3.json", {"n": 3, "values": ["1", "2", "3"]})
        assert main(["order", three, files["g"]]) == 2
        err = capsys.readouterr().err
        assert "length mismatch: 3 vs 2 states" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["proportional", "deductible"])
    def test_decompose_state_out_of_range(self, files, capsys, mode):
        three = files["write"]("f3.json", {"n": 3, "values": ["1", "2", "3"]})
        assert main(["decompose", mode, three, "1", "9", "1"]) == 2
        err = capsys.readouterr().err
        assert "recipient state 9 exceeds payoff length 3" in err
        assert "Traceback" not in err

    def test_budget_max_n_below_two(self, files, capsys):
        argv = ["certify", "--property", "weak_ra", "--model", files["ev"],
                "--max-n", "1", "--exhaustive-n", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "budget: max_n must be >= 2" in err
        assert "Traceback" not in err

    def test_budget_exhaustive_n_above_seven(self, files, capsys):
        argv = ["certify", "--property", "weak_ra", "--model", files["ev"],
                "--max-n", "9", "--exhaustive-n", "9"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "budget: exhaustive_n must be <= 7" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-n", "13"], "budget: max_n must be <= 12"),
            (["--grid", ",".join(str(k) for k in range(13))], "budget: value grid must have at most 12 values"),
            (["--trials", "100001"], "budget: trials must be <= 100000"),
        ],
    )
    def test_budget_caps(self, files, capsys, flags, message):
        argv = ["certify", "--property", "weak_ra", "--model", files["ev"]] + flags
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1e999999999", "numerator needs more than 4300 digits"),
            ("1e5000", "numerator needs more than 4300 digits"),
            ("1e-5000", "denominator needs more than 4300 digits"),
            ("1/" + "3" * 4301, "denominator needs more than 4300 digits"),
            ("1e" + "9" * 4301, "exponent needs more than 4300 digits"),
        ],
        ids=["1e999999999", "1e5000", "1e-5000", "long-denominator", "long-exponent"],
    )
    def test_oversized_rational_rejected_before_parsing(self, files, capsys, value, message):
        bad = files["write"]("huge.json", {"n": 2, "values": ["1", value]})
        assert main(["order", bad, files["g"]]) == 2
        err = capsys.readouterr().err
        assert f"huge.json.values[1]: {message}" in err
        assert "Traceback" not in err

    def test_oversized_json_integer_rejected_by_field(self, files, capsys):
        path = files["dir"] / "bigint.json"
        path.write_text('{"n": 2, "values": [1, 1' + "0" * 4300 + "]}")
        assert main(["order", str(path), files["g"]]) == 2
        err = capsys.readouterr().err
        assert "bigint.json.values[1]: numerator needs more than 4300 digits" in err
        assert "Traceback" not in err

    def test_largest_rational_still_parses(self, files, capsys):
        big = files["write"]("big.json", {"n": 3, "values": ["1e4299", "-1e-4299", -int("9" * 4300)]})
        code, out = run(capsys, ["order", big, files["write"]("g3.json", {"values": [0, 1, 2]})])
        assert code == 0 and out is not None

    @pytest.mark.parametrize("n", ["2", True, 2.0, None])
    def test_state_count_must_be_an_integer(self, files, capsys, n):
        bad = files["write"]("badn.json", {"n": n, "values": ["1", "2"]})
        assert main(["order", bad, files["g"]]) == 2
        err = capsys.readouterr().err
        assert ".n: expected an integer" in err
        assert "Traceback" not in err

    def test_bad_model_type(self, files):
        bad = files["write"]("badm.json", {"type": "nope"})
        assert main(["preference", bad, "--value", files["f"]]) == 2

    @pytest.mark.parametrize("name", [{"a": 1}, ["eu"], 7], ids=["object", "list", "number"])
    def test_model_name_must_be_a_string(self, files, capsys, name):
        bad = files["write"]("badname.json", {
            "type": "eu", "name": name, "fn": {"breakpoints": [["-1", "-1"], ["0", "0"], ["1", "1/2"]]},
        })
        argv = ["certify", "--property", "weak_ra", "--model", bad, "--trials", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "badname.json.name: expected a string" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_model_name_must_not_be_empty(self, files, capsys):
        bad = files["write"]("emptyname.json", {"type": "ev", "name": ""})
        argv = ["certify", "--property", "weak_ra", "--model", bad, "--trials", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "emptyname.json.name: expected a non-empty string" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_out_file(self, files, tmp_path):
        target = tmp_path / "result.json"
        assert main(["--out", str(target), "order", "--cv", files["f"], files["g"]]) == 0
        assert json.loads(target.read_text()) == {"cv": True}

    def test_payoff_file_not_utf8(self, files, capsys):
        path = files["dir"] / "latin1.json"
        path.write_bytes(b'{"n": 2, "values": ["\xe9", "1"]}')
        assert main(["order", str(path), files["g"]]) == 2
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_payoff_file_is_a_directory(self, files, capsys):
        assert main(["order", str(files["dir"]), files["g"]]) == 2
        err = capsys.readouterr().err
        assert f"{files['dir']}: cannot read" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("opener", ["[", '{"a": '], ids=["array", "object"])
    def test_deeply_nested_json(self, files, capsys, opener):
        path = files["dir"] / "deep.json"
        path.write_text(opener * 100_000)
        assert main(["order", str(path), files["f"]]) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid JSON (nested too deeply)" in err
        assert "Traceback" not in err

    def test_out_into_missing_directory(self, files, tmp_path, capsys):
        target = tmp_path / "missing" / "result.json"
        assert main(["--out", str(target), "order", "--cv", files["f"], files["g"]]) == 2
        captured = capsys.readouterr()
        assert f"--out {target}: cannot write" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestDeterminism:
    def test_byte_identical_output(self, capsys, files):
        argv = ["certify", "--property", "weak_ra", "--model", files["eu_convex"],
                "--trials", "30", "--max-n", "3", "--exhaustive-n", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_payoff_round_trip(self):
        for f in (P(1, 0, 0), P("1/3", "-5/2", 7, 0)):
            assert payoff_from_obj(payoff_to_obj(f)) == f

    def test_emit_parse_identity_via_json(self):
        f = P("2/3", "-1/6")
        text = dumps(payoff_to_obj(f))
        assert payoff_from_obj(json.loads(text)) == f

    def test_model_round_trip(self):
        from riskprop.serialize import model_from_obj, model_to_obj
        from conftest import build_zoo

        for m in build_zoo().values():
            again = model_from_obj(json.loads(dumps(model_to_obj(m))))
            assert again == m

    @pytest.mark.parametrize("mtype", ["ev", "mv", "eu", "dual"])
    def test_named_model_round_trip(self, mtype):
        from riskprop.serialize import model_from_obj, model_to_obj

        obj = {"type": mtype, "name": f"my {mtype}"}
        if mtype in ("eu", "dual"):
            obj["fn"] = {"breakpoints": [["0/1", "0/1"], ["1/2", "1/3"], ["1/1", "1/1"]]}  # as emitted
        assert model_to_obj(model_from_obj(obj)) == obj


class TestOutBeforeRun:
    """``--out`` is opened before the command runs, and a failed command leaves it as it was."""

    def test_bad_path_exits_before_the_search(self, files, tmp_path, capsys, monkeypatch):
        from riskprop import certify

        calls = []
        monkeypatch.setattr(certify, "compare_propensity", lambda *a: calls.append(a))
        target = tmp_path / "missing" / "x.json"
        argv = ["--out", str(target), "compare", "--property", "fi",
                "--model-a", files["eu_convex"], "--model-b", files["eu_concave"]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--out {target}: cannot write (No such file or directory)" in err
        assert "Traceback" not in err and calls == []

    def test_failed_command_leaves_existing_file_unchanged(self, files, tmp_path, capsys):
        target = tmp_path / "kept.json"
        target.write_text("previous result\n")
        bad = files["write"]("bad.json", {"values": []})
        assert main(["--out", str(target), "order", bad, files["g"]]) == 2
        assert "bad.json.values: expected a nonempty array" in capsys.readouterr().err
        assert target.read_text() == "previous result\n"

    def test_failed_command_creates_no_file(self, files, tmp_path, capsys):
        target = tmp_path / "new.json"
        bad = files["write"]("bad.json", {"values": []})
        assert main(["--out", str(target), "order", bad, files["g"]]) == 2
        assert not target.exists()

    def test_successful_command_replaces_existing_file(self, files, tmp_path, capsys):
        target = tmp_path / "old.json"
        target.write_text("x" * 1000)
        assert main(["--out", str(target), "order", "--cv", files["f"], files["g"]]) == 0
        assert json.loads(target.read_text()) == {"cv": True}
        assert capsys.readouterr().out == ""


EU = {"type": "eu", "fn": {"breakpoints": [["0", "0"], ["1", "1"]]}}
DUAL = {"type": "dual", "fn": {"breakpoints": [["0", "0"], ["1", "1"]]}}


class TestExitTwoMessages:
    """Each malformed input exits 2 with a message naming the bad field, and no traceback."""

    def _fails(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_invalid_json(self, files, capsys):
        path = files["dir"] / "broken.json"
        path.write_text("{not json")
        self._fails(capsys, ["order", str(path), files["g"]], f"{path}: invalid JSON (")

    def test_seed_not_an_integer(self, files, capsys, monkeypatch):
        monkeypatch.setenv("RISKPROP_SEED", "abc")
        argv = ["certify", "--property", "weak_ra", "--model", files["ev"], "--trials", "0"]
        self._fails(capsys, argv, "RISKPROP_SEED: expected an integer, got 'abc'")

    @pytest.mark.parametrize(
        "value, message",
        [
            ("x/", "x.json.values[0]: cannot parse rational from 'x/'"),
            ([1], "x.json.values[0]: expected an int or rational string, got list"),
            (True, "x.json.values[0]: expected an int or rational string, got bool"),
        ],
        ids=["unparsable", "list", "bool"],
    )
    def test_bad_value(self, files, capsys, value, message):
        bad = files["write"]("x.json", {"values": [value, "1"]})
        self._fails(capsys, ["order", bad, files["g"]], message)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([1, 2], "p.json: expected an object with 'values'"),
            ({"values": []}, "p.json.values: expected a nonempty array"),
        ],
        ids=["not-an-object", "empty-values"],
    )
    def test_bad_payoff(self, files, capsys, obj, message):
        self._fails(capsys, ["order", files["write"]("p.json", obj), files["g"]], message)

    @pytest.mark.parametrize(
        "obj, message",
        [
            (["eu"], "m.json: expected an object with 'type'"),
            ({"type": "eu"}, "m.json.fn: expected an object with 'breakpoints'"),
            (
                {"type": "eu", "fn": {"breakpoints": [["0", "0"]]}},
                "m.json.fn.breakpoints: expected an array of at least two [x, y] pairs",
            ),
            (
                {"type": "eu", "fn": {"breakpoints": [["0", "0"], ["1"]]}},
                "m.json.fn.breakpoints[1]: expected an [x, y] pair",
            ),
            (
                {"type": "eu", "fn": {"breakpoints": [["1", "1"], ["0", "0"]]}},
                "m.json.fn.breakpoints: breakpoint abscissae must be strictly increasing",
            ),
            (
                {"type": "eu", "fn": {"breakpoints": [["0", "1"], ["1", "0"]]}},
                "m.json.fn: utility must be strictly increasing",
            ),
            (
                {"type": "dual", "fn": {"breakpoints": [["0", "0"], ["1/2", "1"], ["1", "1/2"]]}},
                "m.json.fn: distortion must be increasing",
            ),
            (
                {"type": "dual", "fn": {"breakpoints": [["0", "0"], ["1", "1/2"]]}},
                "m.json.fn: distortion must satisfy g(0) = 0 and g(1) = 1",
            ),
        ],
        ids=[
            "not-an-object", "no-fn", "one-breakpoint", "not-a-pair", "unsorted",
            "decreasing-utility", "decreasing-distortion", "unnormalised-distortion",
        ],
    )
    def test_bad_model(self, files, capsys, obj, message):
        bad = files["write"]("m.json", obj)
        self._fails(capsys, ["preference", bad, "--value", files["g"]], message)

    def test_value_of_a_partial_order_model(self, files, capsys):
        mv = files["write"]("mv.json", {"type": "mv"})
        self._fails(
            capsys, ["preference", mv, "--value", files["g"]],
            "model 'mean-variance' has no total evaluator",
        )

    @pytest.mark.parametrize(
        "prop, flags, message",
        [
            ("weak_ra", ["--principle", "loading", "--loading", "x"],
             "--principle: applies only to --property premium_fi"),
            ("weak_ra", ["--principle", "fair"], "--principle: applies only to --property premium_fi"),
            ("fi", ["--loading", "1/3"], "--loading: applies only to --property premium_fi"),
            ("premium_fi", ["--loading", "1/3"], "--loading: applies only with --principle loading"),
            ("premium_fi", ["--principle", "fair", "--loading", "1/3"],
             "--loading: applies only with --principle loading"),
            ("premium_fi", ["--principle", "loading", "--loading", "-1"], "--loading: load must be >= 0"),
        ],
        ids=["both-on-weak-ra", "principle-on-weak-ra", "loading-on-fi", "loading-alone",
             "loading-with-fair", "negative-loading"],
    )
    def test_bad_principle_flags(self, files, capsys, prop, flags, message):
        argv = ["certify", "--property", prop, "--model", files["ev"], "--trials", "0", *flags]
        self._fails(capsys, argv, message)

    def _fails_briefly(self, capsys, argv, message):
        """Exit 2 naming the field, with the echoed input cut short."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "more characters)" in err
        assert "Traceback" not in err and len(err.encode()) < 500

    def test_long_model_type_is_cut(self, files, capsys):
        bad = files["write"]("m.json", {"type": "x" * 100_000})
        self._fails_briefly(capsys, ["preference", bad, "--value", files["g"]],
                            "m.json.type: expected one of eu, dual, mv, ev, got 'xxx")

    @pytest.mark.parametrize("value", ["x" * 100_000, "1/0" + " " * 100_000], ids=["literal", "zero"])
    def test_long_payoff_value_is_cut(self, files, capsys, value):
        bad = files["write"]("x.json", {"values": [value, "1"]})
        self._fails_briefly(capsys, ["order", bad, files["g"]], "x.json.values[0]: ")

    def test_long_seed_is_cut(self, files, capsys, monkeypatch):
        monkeypatch.setenv("RISKPROP_SEED", "x" * 100_000)
        argv = ["certify", "--property", "weak_ra", "--model", files["ev"], "--trials", "0"]
        self._fails_briefly(capsys, argv, "RISKPROP_SEED: expected an integer, got 'xxx")

    def test_long_model_name_is_cut_in_certify(self, files, capsys):
        mv = files["write"]("mv.json", {"type": "mv", "name": "x" * 100_000})
        argv = ["certify", "--property", "weak_ra", "--model", mv, "--trials", "0"]
        self._fails_briefly(capsys, argv, "weak_risk_aversion needs a monotone, secular model "
                                          "with a total evaluator; 'xxx")

    def test_long_model_name_is_cut_in_preference(self, files, capsys):
        mv = files["write"]("mv.json", {"type": "mv", "name": "x" * 100_000})
        self._fails_briefly(capsys, ["preference", mv, "--value", files["g"]], "model 'xxx")

    @pytest.mark.parametrize("mtype", ["eu", "dual", "ev"])
    def test_mv_compare_needs_an_mv_model(self, files, capsys, mtype):
        fn = {"fn": {"breakpoints": [["0", "0"], ["1", "1"]]}} if mtype != "ev" else {}
        m = files["write"]("m.json", {"type": mtype, **fn})
        argv = ["preference", m, "--mv-compare", files["f"], files["g"]]
        self._fails(capsys, argv, f"--mv-compare: needs a model of type mv, got {mtype}")


class TestPropertyDispatch:
    """Every ``--property`` choice prints the library's report and exits 3 exactly on a violation."""

    BUDGET = SearchBudget(max_n=3, exhaustive_n=3, trials=6, seed=4)
    BUDGET_ARGS = ["--max-n", "3", "--exhaustive-n", "3", "--trials", "6", "--seed", "4"]
    ZOO = build_zoo()
    MODELS = {"eu_concave": ZOO["eu_concave"], "eu_convex": ZOO["eu_convex_kink"],
              "dual": ZOO["dual_nonconvex"], "ev": ZOO["expected_value"]}

    @pytest.fixture
    def model_files(self, files):
        return {key: files["write"](f"{key}.json", model_to_obj(m)) for key, m in self.MODELS.items()}

    def _matches(self, capsys, argv, report):
        code = main(argv + self.BUDGET_ARGS)
        assert capsys.readouterr().out == dumps(report_to_obj(report))
        assert code == (3 if report.violated else 0)

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize(
        "prop", ["weak_ra", "strong_ra", "neutrality", "premium_fi", *PROPENSITY_KINDS]
    )
    def test_certify(self, capsys, model_files, prop, model):
        m, b = self.MODELS[model], self.BUDGET
        report = {
            "weak_ra": lambda: check_weak_risk_aversion(m, b),
            "strong_ra": lambda: check_strong_risk_aversion(m, b),
            "neutrality": lambda: check_neutrality(m, b),
            "premium_fi": lambda: check_premium_propensity(m, fair_principle(), b),
        }.get(prop, lambda: check_propensity(prop, m, b))()
        self._matches(capsys, ["certify", "--property", prop, "--model", model_files[model]], report)

    def test_certify_premium_with_loading(self, capsys, model_files):
        report = check_premium_propensity(
            self.MODELS["eu_convex"], loading_principle(F(1, 3)), self.BUDGET
        )
        argv = ["certify", "--property", "premium_fi", "--model", model_files["eu_convex"],
                "--principle", "loading", "--loading", "1/3"]
        self._matches(capsys, argv, report)

    @pytest.mark.parametrize("principle, pp", [("fair", fair_principle()),
                                               ("loading", loading_principle(F(1, 5)))])
    def test_certify_premium_principle_defaults(self, capsys, model_files, principle, pp):
        report = check_premium_propensity(self.MODELS["eu_convex"], pp, self.BUDGET)
        argv = ["certify", "--property", "premium_fi", "--model", model_files["eu_convex"],
                "--principle", principle]
        self._matches(capsys, argv, report)

    @pytest.mark.parametrize("pair", [("ev", "eu_concave"), ("eu_concave", "dual")])
    @pytest.mark.parametrize("prop", ["weak", "strong", *PROPENSITY_KINDS])
    def test_compare(self, capsys, model_files, prop, pair):
        mA, mB = (self.MODELS[k] for k in pair)
        b = self.BUDGET
        report = {
            "weak": lambda: compare_weak(mA, mB, b),
            "strong": lambda: compare_strong(mA, mB, b),
        }.get(prop, lambda: compare_propensity(prop, mA, mB, b))()
        argv = ["compare", "--property", prop,
                "--model-a", model_files[pair[0]], "--model-b", model_files[pair[1]]]
        self._matches(capsys, argv, report)


PROPERTY_CHOICES = {
    "certify": ["weak_ra", "strong_ra", "neutrality", "premium_fi", "fi", "pr", "dl", "is", "cs", "hedging"],
    "compare": ["weak", "strong", "fi", "pr", "dl", "is", "cs", "hedging"],
}


@pytest.mark.parametrize("command", sorted(PROPERTY_CHOICES))
def test_property_choices_in_help_order(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = re.search(r"--property \{([^}]*)\}", capsys.readouterr().out)
    assert listed[1].split(",") == PROPERTY_CHOICES[command]


# fuzzed command lines

FUZZ_PAYOFFS = {
    "p2": {"n": 2, "values": ["1", "-1"]},
    "p3": {"n": 3, "values": ["0", "1/2", "-2"]},
    "p3b": {"values": [1, 0, 0]},
    "huge": {"n": 2, "values": ["1e4299", "-1"]},
}
FUZZ_MODELS = {
    "ev": {"type": "ev"},
    "mv": {"type": "mv", "name": "x[y]"},
    "eu": {"type": "eu", "name": "a]b[c", "fn": {"breakpoints": [["-1", "-1"], ["0", "0"], ["1", "1/2"]]}},
    "dual": {"type": "dual", "fn": {"breakpoints": [["0", "0"], ["1/2", "1/4"], ["1", "1"]]}},
}
FUZZ_BAD = {  # file name -> raw content
    "deep_array.json": b"[" * 100_000,
    "deep_object.json": b'{"a": ' * 100_000,
    "deep_values.json": b'{"n": 2, "values": ' + b"[" * 900 + b"]" * 900 + b"}",
    "deep_fn.json": b'{"type": "eu", "fn": {"breakpoints": ' + b"[" * 900 + b"]" * 900 + b"}}",
    "truncated.json": b'{"n": 2, "values": ["1"',
    "latin1.json": b'{"n": 2, "values": ["\xe9", "1"]}',
    "empty.json": b"",
}
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from(["1", "-1", "1/2", "0", "2", "x", "", "1e5", "eu", "dual", "ev", "mv"]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(["n", "values", "type", "name", "fn", "breakpoints"]), kids,
                        max_size=4),
    ),
    max_leaves=10,
)
FUZZ_BUDGET = ["--max-n", "3", "--exhaustive-n", "2", "--trials", "5"]
BUDGET_OVERRIDES = {
    "--seed": ["1", "-7", "x"],
    "--grid": ["-1,0,1", "1/2", "", "a,b"],
    "--trials": ["0", "-1"],
    "--max-n": ["1", "2", "13"],
    "--exhaustive-n": ["0", "3", "8"],
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, content in FUZZ_BAD.items():
        (root / name).write_bytes(content)
    for name, obj in {**FUZZ_PAYOFFS, **FUZZ_MODELS}.items():
        (root / f"{name}.json").write_text(json.dumps(obj))
    return {
        "payoff": [str(root / f"{name}.json") for name in FUZZ_PAYOFFS],
        "model": [str(root / f"{name}.json") for name in FUZZ_MODELS],
        "bad": [str(root / name) for name in [*FUZZ_BAD, "gen.json", "missing.json"]] + [str(root)],
        "gen": root / "gen.json",
        "out": [str(root / "out.json"), str(root / "missing" / "out.json")],
    }


@st.composite
def fuzz_argv(draw, paths):
    """A command line of a real subcommand with its real flags, over the files in ``paths``:
    each input file is well formed five times in six, else malformed or generated."""
    pick = lambda *options: draw(st.sampled_from(options))
    well_formed = lambda: draw(st.integers(0, 5)) > 0
    payoff = lambda: pick(*paths["payoff"]) if well_formed() else pick(*paths["bad"])
    model = lambda: pick(*paths["model"]) if well_formed() else pick(*paths["bad"])
    command = pick("order", "classify", "decompose", "hedge", "preference", "certify", "compare")
    argv = ["--out", pick(*paths["out"])] if draw(st.booleans()) else []
    argv.append(command)
    if command == "order":
        argv += draw(st.lists(st.sampled_from(["--cv", "--fsd", "--mps"]), max_size=2)) + [payoff(), payoff()]
    elif command in ("classify", "hedge"):
        argv += [payoff() for _ in range(2 if command == "classify" else 3)]
    elif command == "decompose":
        mode = pick("split", "chain", "proportional", "deductible")
        argv += [mode, payoff()]
        if mode == "chain":
            argv.append(payoff())
        elif mode != "split":
            argv += [pick("1", "2", "0", "9", "x"), pick("1", "3", "-1"), pick("1", "1/2", "-1", "x")]
    elif command == "preference":
        argv += [model(), *pick(["--value", payoff()], ["--ce", payoff()], ["--rho", payoff(), payoff()],
                                ["--mv-compare", payoff(), payoff()])]
    else:
        argv += ["--property", pick(*PROPERTY_CHOICES[command], "bogus")]
        if command == "certify":
            argv += ["--model", model()]
            if draw(st.booleans()):
                argv += ["--principle", pick("fair", "loading", "x"), "--loading", pick("1/5", "0", "-1", "x")]
        else:
            argv += ["--model-a", model(), "--model-b", model()]
        argv += FUZZ_BUDGET
        for flag in draw(st.lists(st.sampled_from(sorted(BUDGET_OVERRIDES)), max_size=2, unique=True)):
            argv += [flag, pick(*BUDGET_OVERRIDES[flag])]
    if draw(st.integers(0, 9)) == 0:  # an argument argparse rejects, or a help request
        argv.insert(draw(st.integers(0, len(argv))), pick("--bogus", "-h", "extra"))
    return argv


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    gen=st.one_of(JSON_VALUES.map(lambda v: json.dumps(v).encode()), st.sampled_from(sorted(FUZZ_BAD.values()))),
)
def test_fuzzed_command_line_exits_cleanly(fuzz_files, data, gen):
    """Exit 0, 2 or 3, never a traceback; ``gen.json`` holds a generated JSON text."""
    fuzz_files["gen"].write_bytes(gen)
    argv = data.draw(fuzz_argv(fuzz_files))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
