"""The compiled schema check of `database` against the interpretive checker
it replaced (`oracles.interpretive_violation`): the same first violation,
path and message, on the cases and mutations of test_schema."""

import copy

import pytest
from hypothesis import example, given, settings, strategies as st

import test_schema
from oracles import interpretive_violation
from sextic19 import database

CORPUS, SCHEMA = test_schema.CORPUS, test_schema.SCHEMA
KEYWORD_CASES = next(
    mark.args[1]
    for mark in test_schema.test_keyword_semantics_match_jsonschema.pytestmark
    if mark.name == "parametrize")


def _both(doc, schema=SCHEMA):
    """(compiled, interpretive) first violation of schema by doc."""
    refs = database._check_schema(schema)
    return (database._violation(doc, schema, refs),
            interpretive_violation(doc, schema, refs))


def _first_three(index, mutate, pick):
    doc = copy.deepcopy(dict(CORPUS, curves=CORPUS["curves"][:3]))
    mutate(doc["curves"][index], pick)
    return doc


def test_shipped_corpus_has_no_violation():
    assert _both(CORPUS) == (None, None)


@pytest.mark.parametrize("schema, value, valid", KEYWORD_CASES)
def test_keyword_cases_agree(schema, value, valid):
    compiled, interpretive = _both(value, schema)
    assert compiled == interpretive
    assert (compiled is None) is valid


@settings(max_examples=60, deadline=None)
@given(mutate=st.sampled_from(test_schema.MUTATIONS),
       index=st.integers(0, 2), pick=st.integers(0, 10 ** 4))
@example(mutate=test_schema.zero_denominator_in_3, index=2, pick=0)
@example(mutate=test_schema.nested_coefficient_in_3, index=2, pick=0)
def test_mutated_corpus_first_violation_agrees(mutate, index, pick):
    compiled, interpretive = _both(_first_three(index, mutate, pick))
    assert compiled == interpretive


@pytest.mark.parametrize("mutate", test_schema.MUTATIONS,
                         ids=lambda m: m.__name__)
def test_every_mutation_agrees_on_the_first_picks(mutate):
    for index in range(3):
        for pick in range(6):
            doc = _first_three(index, mutate, pick)
            compiled, interpretive = _both(doc)
            assert compiled == interpretive, (index, pick)


def test_a_seen_valid_string_does_not_hide_a_later_violation():
    # "1" is first seen valid as a rational; the same value as an integer,
    # and a bad string, are still found at their own path
    doc = copy.deepcopy(dict(CORPUS, curves=CORPUS["curves"][:1]))
    minpoly = doc["curves"][0]["field_E"]["generators"][0]["minpoly"]
    at = ("curves", 0, "field_E", "generators", 0, "minpoly")
    for values, bad in [(["1", "1", 1], 2), (["1", "1.5", "1"], 1)]:
        minpoly[:] = values
        compiled, interpretive = _both(doc)
        assert compiled == interpretive
        assert compiled[0] == at + (bad,)


@pytest.mark.parametrize("schema, value", [
    ({"type": "string", "const": "a"}, 1),
    ({"const": "a", "enum": ["b"]}, "c"),
    ({"enum": ["b"], "oneOf": [{"type": "string"}, {"const": "c"}]}, "c"),
    ({"oneOf": [{"type": "integer"}], "pattern": "^a"}, "b"),
    ({"minimum": 2, "maximum": 0}, 1),
    ({"minItems": 2, "items": {"type": "string"}}, [1]),
    ({"maxItems": 1, "items": {"type": "string"}}, [1, 2]),
    ({"items": {"type": "string"}}, ["a", 1, 2]),
    ({"required": ["a"], "properties": {"b": {"type": "string"}}},
     {"b": 1}),
    ({"properties": {"b": {"type": "string"}, "a": {"type": "string"}}},
     {"a": 1, "b": 2}),
    ({"items": {"properties": {"a": {"items": {"const": 1}}}}},
     [{"a": [1]}, {"a": [1, 2]}]),
])
def test_two_violations_report_the_same_first(schema, value):
    # each instance breaks two keywords, or two items or properties
    compiled, interpretive = _both(value, schema)
    assert compiled is not None and compiled == interpretive
