"""bench/micro.py reads the rational leaves of record 10's raw elements and
checks x * x^-1 = 1 on every inverse it times, so a change to the stored
form of a field element must not silently break the traced benchmark."""

import importlib.util
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _micro():
    spec = importlib.util.spec_from_file_location(
        "bench_micro", ROOT / "bench" / "micro.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_numberfield_micro_runs(corpus):
    micro = _micro()
    fields = micro.micro_fields(corpus)    # checks each degree over Q
    assert [f[0] for f in fields] == ["d1", "d2", "d3", "d4", "d6", "d8",
                                      "d12"]
    metrics = {}
    micro.numberfield_micro(fields, random.Random(1), metrics)
    names = [n for n in micro.micro_names() if n.startswith("numberfield.")]
    assert sorted(metrics) == sorted(names)
    assert all(v > 0 for v in metrics.values())
