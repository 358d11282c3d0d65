"""The functions and methods that the per-layer tracer of bench/spans.py
names still exist, so a rename cannot silently drop a span."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("entry", spans.FUNCTIONS, ids=lambda e: e[-1])
def test_traced_function_resolves(entry):
    mod_name, attr, _name = entry
    module = importlib.import_module("sextic19." + mod_name)
    assert callable(getattr(module, attr, None)), entry


@pytest.mark.parametrize("entry", spans.METHODS + spans.COUNTED,
                         ids=lambda e: e[-1])
def test_traced_method_resolves(entry):
    mod_name, cls_name, meth, _name = entry
    module = importlib.import_module("sextic19." + mod_name)
    # the tracer replaces the method on the class that defines it
    assert callable(vars(getattr(module, cls_name)).get(meth)), entry
