"""The benchmark's tracer must find every function it wraps in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "mod_name, attr",
    [(mod, attr) for mod, attr, _layer in tracer.SPANNED + tracer.COUNTED],
)
def test_tracer_target_resolves(mod_name, attr):
    module = importlib.import_module(f"hodgewalk.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer replaces the entry in the class's own namespace
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
