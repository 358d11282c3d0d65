"""The in-package check of corpus/schema.json against jsonschema, and the
exit codes of a mutated corpus."""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import jsonschema_valid
from sextic19 import database
from sextic19.cli import main

ROOT = Path(__file__).resolve().parent.parent

with open(database.default_corpus_path()) as _fh:
    CORPUS = json.load(_fh)
with open(database._schema_path()) as _fh:
    SCHEMA = json.load(_fh)
RAT = re.compile(SCHEMA["definitions"]["rat"]["pattern"])


def _valid(doc, schema=SCHEMA):
    return database._violation(doc, schema,
                               database._check_schema(schema)) is None


def _nodes(value, path=()):
    """(path, value) for every node of a JSON value, the value first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield from _nodes(sub, path + (key,))


REQUIRED = {key for _, node in _nodes(SCHEMA) if isinstance(node, dict)
            for key in node.get("required", ())}
OTHER_TYPES = [None, True, 7, 7.0, 1.5, "7", [], {}]


def _at(rec, path):
    """(container, key) of the node of rec at path."""
    for key in path[:-1]:
        rec = rec[key]
    return rec, path[-1]


def _pick(rec, pick, wanted):
    """The path of one node below rec that `wanted(node)` accepts."""
    paths = [p for p, node in _nodes(rec) if p and wanted(node)]
    return paths[pick % len(paths)]


def drop_required(rec, pick):
    keys = [(p, k) for p, node in _nodes(rec) if isinstance(node, dict)
            for k in node if k in REQUIRED]
    path, key = keys[pick % len(keys)]
    parent, key = _at(rec, path + (key,))
    del parent[key]


def swap_type(rec, pick):
    path = _pick(rec, pick, lambda node: True)
    parent, key = _at(rec, path)
    others = [v for v in OTHER_TYPES if type(v) is not type(parent[key])]
    parent[key] = copy.deepcopy(others[pick % len(others)])


def bad_rational(rec, pick):
    path = _pick(rec, pick, lambda n: isinstance(n, str) and RAT.search(n))
    parent, key = _at(rec, path)
    parent[key] = ("1.5", "1/0")[pick % 2]


def nested_rational(rec, pick):
    path = _pick(rec, pick, lambda n: isinstance(n, str) and RAT.search(n))
    parent, key = _at(rec, path)
    parent[key] = ["1", "2"]


def id_40(rec, pick):
    rec["id"] = 40


def power_0(rec, pick):
    path = _pick(rec, pick, lambda n: isinstance(n, dict) and "power" in n)
    parent, key = _at(rec, path + ("power",))
    parent[key] = 0


def bad_kind(rec, pick):
    path = _pick(rec, pick, lambda n: isinstance(n, dict) and "kind" in n)
    parent, key = _at(rec, path + ("kind",))
    parent[key] = "nowhere"


def matrix_2x3(rec, pick):
    rec["symmetry"] = {"matrix": [["1", "0", "0"], ["0", "1", "0"]],
                       "moebius": ["1", "0", "0", "1"]}


def true_for_integer(rec, pick):
    path = _pick(rec, pick, lambda n: type(n) is int)
    parent, key = _at(rec, path)
    parent[key] = True


def zero_denominator_in_3(rec, pick):
    rec["parametrization"]["y"][0]["coeffs"][0] = "1/0"


def nested_coefficient_in_3(rec, pick):
    rec["p"][0] = ["1", "2"]


MUTATIONS = [drop_required, swap_type, bad_rational, nested_rational, id_40,
             power_0, bad_kind, matrix_2x3, true_for_integer]


def _list_exit(doc):
    """(exit code, stderr) of `sextic19 --corpus <doc> list`."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["--corpus", path, "list"])
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(mutate=st.sampled_from(MUTATIONS), index=st.integers(0, 2),
       pick=st.integers(0, 10 ** 4))
@example(mutate=zero_denominator_in_3, index=2, pick=0)
@example(mutate=nested_coefficient_in_3, index=2, pick=0)
def test_mutated_corpus_agrees_with_jsonschema_and_exits_cleanly(
        mutate, index, pick):
    # the first three records keep each example cheap; curve 1 is over a
    # tower, 2 over a cubic field and 3 over Q with a symmetry
    doc = copy.deepcopy(dict(CORPUS, curves=CORPUS["curves"][:3]))
    mutate(doc["curves"][index], pick)
    valid = _valid(doc)
    assert valid == jsonschema_valid(doc, SCHEMA)
    code, err = _list_exit(doc)
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: ")
    if not valid:
        assert code == 2 and err.startswith("error: schema violation at ")


@pytest.mark.parametrize("curve, kind, key", [
    (1, "pair", "t1"), (1, "pair", "t2"), (2, "roots", "poly"),
    (5, "value", "t"), (38, "double_roots", "component"),
])
def test_location_without_its_key_exits_2(curve, kind, key):
    doc = copy.deepcopy(CORPUS)
    rec = doc["curves"][curve - 1]
    loc = next(c["location"] for c in [rec["odd"]] + rec["even"]
               if c["location"]["kind"] == kind)
    del loc[key]
    assert not _valid(doc) and not jsonschema_valid(doc, SCHEMA)
    code, err = _list_exit(doc)
    assert code == 2 and err.startswith("error: schema violation at ")


@pytest.mark.parametrize("curve, section, key", [
    (36, "pencil", "h"), (34, "pencil", "basepoint_factor"),
    (34, "printed_implicit", "terms"), (24, "conic_reduction", "solution"),
    (16, "alt_parametrization", "x"),
])
def test_optional_section_without_its_key_exits_2(curve, section, key):
    doc = copy.deepcopy(CORPUS)
    del doc["curves"][curve - 1][section][key]
    assert not _valid(doc) and not jsonschema_valid(doc, SCHEMA)
    code, err = _list_exit(doc)
    assert code == 2 and err.startswith("error: schema violation at ")


def test_shipped_corpus_is_valid():
    assert _valid(CORPUS) and jsonschema_valid(CORPUS, SCHEMA)


@pytest.mark.parametrize("schema, value, valid", [
    ({"type": "integer"}, 1, True),
    ({"type": "integer"}, 1.0, True),      # draft 7: an integral number
    ({"type": "integer"}, True, False),
    ({"type": "integer"}, 1.5, False),
    ({"type": "boolean"}, 0, False),
    ({"type": "number"}, False, False),
    ({"const": 1}, True, False),
    ({"const": 1}, 1.0, True),
    ({"enum": ["a", "b"]}, "c", False),
    ({"pattern": "^a"}, "ab", True),
    ({"pattern": "b"}, "ab", True),        # unanchored, like re.search
    ({"pattern": "^a"}, 5, True),          # pattern only constrains strings
    ({"minimum": 1}, True, True),          # a boolean is not a number
    ({"maximum": 3}, 4, False),
    ({"minItems": 1, "maxItems": 2}, [], False),
    ({"minItems": 1, "maxItems": 2}, [1, 2, 3], False),
    ({"required": ["a"]}, [], True),       # required only constrains objects
    ({"required": ["a"]}, {}, False),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, 3, False),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -3, True),
    ({"items": {"$ref": "#/definitions/s"}, "definitions": {
        "s": {"type": "string"}}}, ["a", 1], False),
])
def test_keyword_semantics_match_jsonschema(schema, value, valid):
    assert _valid(value, schema) is valid
    assert jsonschema_valid(value, schema) is valid


@pytest.mark.parametrize("schema", [
    {"type": "object", "additionalProperties": False},
    {"properties": {"a": {"format": "date"}}},
    {"type": ["string", "null"]},
    {"$ref": "#/definitions/missing"},
    {"items": [{"type": "string"}]},
    {"const": [1]},
    {"enum": ["a", {"b": 1}]},
])
def test_unsupported_schema_is_refused(schema):
    with pytest.raises(database.CorpusError):
        database._check_schema(schema)


def test_schema_violation_names_its_path(tmp_path):
    doc = copy.deepcopy(CORPUS)
    doc["curves"][2]["odd"]["n"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(database.CorpusError,
                       match="^schema violation at curves/2/odd/n: True "):
        database.load_corpus(str(bad))


def test_load_corpus_does_not_import_jsonschema():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    code = ("import sys, sextic19.database as d; d.load_corpus(); "
            "assert 'jsonschema' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
