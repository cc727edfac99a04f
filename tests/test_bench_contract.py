"""The benchmark tracer wraps pfgames functions by name; every name it lists
must resolve the way ``Tracer.install`` resolves it, so that moving or
deleting a traced function fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = load_layers()


@pytest.mark.parametrize(
    "group, module_name, owner_name, functions", LAYERS, ids=[layer[0] for layer in LAYERS]
)
def test_traced_layer_resolves(group, module_name, owner_name, functions):
    module = importlib.import_module(f"pfgames.{module_name}")
    owner = getattr(module, owner_name) if owner_name else module
    for name in functions:
        # a class owner must define the method itself: an inherited one is
        # missing from its __dict__, and the tracer would fail to wrap it
        found = owner.__dict__[name] if owner_name else getattr(module, name)
        if isinstance(found, classmethod):
            found = found.__func__
        assert callable(found), f"{group}: {owner_name or module_name}.{name}"
