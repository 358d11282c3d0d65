import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sextic19.database import (
    CorpusError,
    cross_check_record,
    default_corpus_path,
    load_corpus,
)

from sextic19.rationals import Rat, rat_str

from oracles import corpus_sha256, roundtrip_identity

ROOT = Path(__file__).resolve().parent.parent

CORPUS_SHA256 = (
    "3b399429f27952e5fce540dc6c586d1d5b8b696e5378a470864f3b47998b0d7d"
)


def test_loads_39_records(corpus):
    assert len(corpus) == 39
    assert [r.id for r in corpus] == list(range(1, 40))


def test_exactly_four_efields_differ(corpus):
    assert [r.id for r in corpus if r.flags["E_differs_from_F"]] == \
        [1, 16, 34, 36]


def test_expected_flags(corpus):
    assert [r.id for r in corpus if r.flags["has_symmetry"]] == [3, 28, 29, 37]
    assert [r.id for r in corpus if r.flags["autodual_claimed"]] == [26, 36, 38]
    assert [r.id for r in corpus if r.flags["has_alt_parametrization"]] == [16]
    assert [r.id for r in corpus if r.flags["has_printed_implicit"]] == [34, 36]


def test_multiset_sums(corpus):
    for rec in corpus:
        assert sum(rec.multiset) == 19
        assert len([n for n in rec.multiset if n % 2 == 1]) == 1
        delta = sum((n + 1) // 2 for n in rec.multiset)
        assert delta == 10


def test_claims_cover_multiset(corpus):
    for rec in corpus:
        claimed = [rec.odd_claim.stype.n]
        for c in rec.even_claims:
            claimed.extend([c.stype.n] * c.point_count())
        assert sorted(claimed) == sorted(rec.multiset), rec.id


def test_checksum_frozen():
    assert corpus_sha256() == CORPUS_SHA256


def test_roundtrip():
    assert roundtrip_identity()


def test_record3_fields(by_id):
    rec = by_id[3]
    assert rec.p.to_str() == "t^2 - 3"
    assert rec.field == __import__("sextic19.numberfield",
                                   fromlist=["QQ"]).QQ


def test_record36_field_descriptor(by_id):
    rec = by_id[36]
    assert rec.flags["E_differs_from_F"]
    assert rec.field_F_desc["generators"] == []
    assert rec.field_E_desc["generators"][0]["minpoly"] == ["1", "1", "1"]


def test_records_share_each_distinct_field():
    # a fresh load: the 39 records name 24 distinct fields, Q among them
    records = {r.id: r for r in load_corpus()}
    fields = {id(r.field): r.field for r in records.values()}
    assert len(fields) == len(set(fields.values())) == 24
    # a tower shares its levels with the records over them
    levels = {id(f): f for r in records.values()
              for f in r.field.tower_chain()}
    assert len(levels) == len(set(levels.values()))
    assert records[34].field.base is records[21].field
    assert records[12].field is records[6].field


def test_a_respelled_minpoly_names_the_same_field(tmp_path):
    # records 11, 35 and 38 are over Q[a]/(a^2 - 21); respell -21 in one
    doc = json.load(open(default_corpus_path()))
    data = doc["curves"][34]
    assert data["id"] == 35
    data["field_E"]["generators"][0]["minpoly"][0] = "-42/2"
    respelled = tmp_path / "respelled.json"
    respelled.write_text(json.dumps(doc))
    records = {r.id: r for r in load_corpus(str(respelled))}
    assert records[35].field is records[11].field is records[38].field
    assert len({id(r.field) for r in records.values()}) == 24


def test_truncated_file_rejected(tmp_path):
    with open(default_corpus_path()) as fh:
        text = fh.read()
    broken = tmp_path / "broken.json"
    broken.write_text(text[: len(text) // 2])
    with pytest.raises(Exception):
        load_corpus(str(broken))


def test_schema_violation_rejected(tmp_path):
    doc = json.load(open(default_corpus_path()))
    doc["curves"][0]["p"] = 12345
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CorpusError):
        load_corpus(str(bad))


def test_invariant_violation_rejected(tmp_path):
    doc = json.load(open(default_corpus_path()))
    doc["curves"][2]["multiset"] = [17, 1]    # sums to 18
    doc["curves"][2]["odd"]["n"] = 1
    bad = tmp_path / "badsum.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CorpusError) as err:
        load_corpus(str(bad))
    assert "19" in str(err.value)


def test_cross_check_simple_records(corpus):
    for rec in corpus[:6]:
        rep = cross_check_record(rec)
        assert rep["ok"], rep


def test_cross_check_printed_implicits(by_id):
    for rid in (34, 36):
        rep = cross_check_record(by_id[rid])
        assert rep["ok"], rep
        assert rep["checks"]["printed_implicit_matches"]["ok"]


def test_cross_check_alt_parametrization(by_id):
    rep = cross_check_record(by_id[16])
    assert rep["ok"], rep
    detail = rep["checks"]["alt_parametrization_same_curve"]["detail"]
    assert "diagonal" in detail or "unit" in detail


def test_cross_check_every_record(corpus):
    for rec in corpus:
        rep = cross_check_record(rec)
        assert rep["ok"], (rec.id, rep)


def _halved(coeff):
    """Half of a stored coefficient, nested or not."""
    if isinstance(coeff, str):
        return rat_str(Rat(coeff) / 2)
    return [_halved(c) for c in coeff]


def test_rows_with_one_key_are_summed(tmp_path, by_id):
    # no corpus record repeats a (ypow, lampow) key, so split every printed
    # implicit row and every pencil row of records 34 and 36 into two halves
    doc = json.load(open(default_corpus_path()))
    for data in doc["curves"]:
        if data["id"] in (34, 36):
            for part in (data["printed_implicit"], data["pencil"]):
                part["terms"] = [
                    dict(row, coeffs=[_halved(c) for c in row["coeffs"]])
                    for row in part["terms"] for _ in range(2)]
    split = tmp_path / "split_rows.json"
    split.write_text(json.dumps(doc))
    again = {r.id: r for r in load_corpus(str(split))}
    for rid in (34, 36):
        old, new = by_id[rid], again[rid]
        assert new.printed_implicit == old.printed_implicit
        assert new.printed_implicit_h == old.printed_implicit_h
        assert new.pencil == old.pencil     # rows over the same fields


def test_load_corpus_makes_223_list_products(monkeypatch):
    # each factor power, each power of a row's h and each product of
    # factors is made once; products started at one and a square past the
    # top bit of each power make 855
    from sextic19 import polynomial

    calls = []
    plist_mul = polynomial.plist_mul

    def counted(*args):
        calls.append(1)
        return plist_mul(*args)

    monkeypatch.setattr(polynomial, "plist_mul", counted)
    load_corpus()
    assert len(calls) == 223


def _counted_parses(monkeypatch):
    """The strings load_corpus parses as rationals, as it parses them."""
    from sextic19 import database

    texts = []
    parse = database.Rat

    def counted(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(database, "Rat", counted)
    return texts


def test_load_corpus_parses_each_rational_string_once(monkeypatch):
    # the corpus holds 2606 rational strings with 233 distinct values
    texts = _counted_parses(monkeypatch)
    load_corpus()
    assert len(texts) == len(set(texts)) == 233
    # the memo lives for one load: the next load parses them again
    load_corpus()
    assert len(texts) == 2 * 233


def test_load_corpus_leaves_no_garbage_cycle():
    load_corpus()
    gc.collect()
    gc.disable()
    try:
        load_corpus()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_and_load_corpus_do_not_import_dataclasses():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    code = ("import sys, sextic19.cli, sextic19.database as d; "
            "d.load_corpus(); "
            "assert not {'dataclasses', 'inspect'} & set(sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
