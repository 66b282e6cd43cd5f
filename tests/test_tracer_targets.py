"""Every function the benchmark's traced run wraps must exist under its traced name.

``bench/tracer.py`` looks each ``(module, attribute)`` of ``TRACED`` up at
install time; a rename in the package would make ``bench/run.py --trace 1``
fail.  The tracer module is loaded from its file and nothing is installed.
"""

import importlib
import importlib.util
import os

import pytest

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
