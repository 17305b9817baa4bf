"""Public names of the layer modules."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["quantum", "pump", "opa", "homodyne", "dsp", "tomography"])
def test_all_names_resolve_once(name):
    module = importlib.import_module(f"sqzsim.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
