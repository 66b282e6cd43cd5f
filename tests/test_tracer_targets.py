"""Every function the benchmark's traced run wraps must exist under its traced name.

``bench/tracer.py`` looks each ``(module, attribute)`` of ``TRACED`` up at
install time; a rename in the package would make ``bench/run.py --trace 1``
fail.  The tracer module is loaded from its file; the one test that installs
it does so in a subprocess.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from riskprop.serialize import model_to_obj
from conftest import build_zoo

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_tracer().TRACED


@pytest.mark.parametrize("module_name, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_target_resolves(module_name, attr):
    home = importlib.import_module(f"riskprop.{module_name}")
    if "." in attr:
        # methods are looked up in the class's own namespace, as Tracer.install does
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(home, cls_name))[meth])
    else:
        assert callable(getattr(home, attr))


# Runs in a fresh interpreter: the installed wrappers replace module globals for the
# rest of the process.  argv: the tracer's path, then three model files (EU, EU, dual).
_FIDELITY_SCRIPT = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
import riskprop.cli
tracer = tracer_module.Tracer()
tracer.install()
eu_a, eu_b, dual = sys.argv[2:5]
budget = ["--max-n", "3", "--exhaustive-n", "3", "--trials", "5"]
calls = [
    ["compare", "--property", "pr", "--model-a", eu_a, "--model-b", eu_b],
    ["certify", "--property", "pr", "--model", eu_b],
    ["certify", "--property", "pr", "--model", dual],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [sys.modules["riskprop.cli"].main(argv + budget) for argv in calls]
print(json.dumps({"codes": codes, "totals": tracer.snapshot()}))
"""


def test_traced_run_counts_the_model_kernels(tmp_path):
    """A traced CLI run counts calls in every preference kernel the benchmark reports.

    A refactor that stops calling a traced name through its module global (a
    dispatch table bound at import, say) would make its counters read 0, so
    the run also counts the CLI's calls of the public checks.  Comparing two
    EU models reaches ``_rho_eu`` but not ``eu_value``, so the run also
    certifies on an EU model.
    """
    zoo = build_zoo()
    paths = []
    for key in ("eu_convex_kink", "eu_concave", "dual_convex"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(model_to_obj(zoo[key])))
        paths.append(str(path))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _FIDELITY_SCRIPT, TRACER_PATH, *paths],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0, 0]
    for name in ("eu_value", "_rho_eu", "dual_value", "PreferenceModel.value"):
        assert out["totals"][f"preferences.{name}.calls"] > 0, name
    for name in ("check_propensity", "compare_propensity"):
        assert out["totals"][f"certify.{name}.calls"] > 0, name
    # the insurance row calls the rearrangement sweep itself
    assert out["totals"]["certify._sweep_alternatives.evaluated"] > 0
