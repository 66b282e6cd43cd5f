"""Every name a module exports in ``__all__`` must exist in it.

A deletion that leaves its ``__all__`` entry behind breaks
``from riskprop.<module> import *`` only when someone runs it.
"""

import importlib

import pytest

MODULES = ["space", "orders", "decompose", "insurance", "preferences", "certify", "serialize"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"riskprop.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
