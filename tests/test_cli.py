import json
import os
import re

import pytest

from sextic19.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 39
    assert "A_17+A_2" in out


def test_list_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "list")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 39
    assert doc["items"][0]["id"] == 1


def test_show(capsys):
    code, out, _ = run_cli(capsys, "show", "3")
    assert code == 0
    assert "t^2 - 3" in out


def test_show_unknown_id(capsys):
    code, _, err = run_cli(capsys, "show", "40")
    assert code == 2
    assert "no record" in err


def test_verify_single_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "--jobs", "1", "verify", "25")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    item = doc["items"][0]
    assert sorted(item.keys()) == ["checks", "claims", "curve", "passed",
                                   "seconds"]
    assert item["checks"]["milnor_total"] == 19
    assert item["checks"]["delta_total"] == 10
    # curve 25 is over Q, whose place is at the first prime of the scan
    assert item["checks"]["map_degree_prime"] == 30011
    assert item["checks"]["distinct_prime"] == 30011
    assert sorted(doc) == ["command", "items", "load_seconds", "passed",
                           "seconds"]
    assert doc["load_seconds"] > 0


def test_verify_text_names_the_load_time(capsys):
    code, out, _ = run_cli(capsys, "--jobs", "1", "verify", "3")
    assert code == 0
    assert re.search(r"^1/1 certificates passed in \d+\.\ds "
                     r"\(corpus loaded in \d+\.\d{3}s\)$", out, re.M)


def test_verify_needs_ids(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


def test_verify_corrupted_corpus(tmp_path, capsys):
    import json as _json

    from sextic19.database import default_corpus_path

    doc = _json.load(open(default_corpus_path()))
    # swap two even locations of curve 25 (A_4 and A_2)
    evens = doc["curves"][24]["even"]
    evens[1]["location"], evens[2]["location"] = (
        evens[2]["location"], evens[1]["location"])
    bad = tmp_path / "corrupt.json"
    bad.write_text(_json.dumps(doc))
    code, out, _ = run_cli(capsys, "--corpus", str(bad), "--jobs", "1",
                           "verify", "25")
    assert code == 1
    assert "FAIL" in out


def test_truncated_corpus_exits_2(tmp_path, capsys):
    from sextic19.database import default_corpus_path

    with open(default_corpus_path()) as fh:
        text = fh.read()
    bad = tmp_path / "truncated.json"
    bad.write_text(text[:5000])
    code, out, err = run_cli(capsys, "--corpus", str(bad), "list")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not valid JSON" in err


def test_schema_violating_corpus_exits_2(tmp_path, capsys):
    bad = tmp_path / "curves5.json"
    bad.write_text('{"curves": 5}')
    code, out, err = run_cli(capsys, "--corpus", str(bad), "list")
    assert code == 2
    assert out == ""
    assert err.startswith("error: schema violation")


def test_undecodable_record_exits_2(tmp_path, capsys):
    from sextic19.database import default_corpus_path

    doc = json.load(open(default_corpus_path()))
    # z = x gives components with a common factor: schema-valid, not a curve
    par = doc["curves"][2]["parametrization"]
    par["z"] = par["x"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--corpus", str(bad), "list")
    assert code == 2
    assert out == ""
    assert err.startswith("error: record 3: ")
    assert "Traceback" not in err


def test_record_with_zero_y_and_z_names_the_factor(tmp_path, capsys):
    from sextic19.database import default_corpus_path

    doc = json.load(open(default_corpus_path()))
    par = doc["curves"][2]["parametrization"]
    par["y"] = par["z"] = [{"coeffs": ["0"], "power": 1}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--corpus", str(bad), "list")
    assert code == 2
    assert out == ""
    assert err.startswith("error: record 3: components share the factor t")
    assert "Traceback" not in err


def _zero_denominator(curve):
    curve["parametrization"]["y"][0]["coeffs"][0] = "1/0"


def _nested_rational(curve):
    curve["p"][0] = ["1", "2"]


@pytest.mark.parametrize("mutate", [_zero_denominator, _nested_rational])
def test_malformed_coefficient_names_its_record(tmp_path, capsys, mutate):
    from sextic19.database import default_corpus_path

    doc = json.load(open(default_corpus_path()))
    mutate(doc["curves"][2])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--corpus", str(bad), "--jobs", "1",
                             "verify", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: record 3: ")
    assert "Traceback" not in err


def _with_field_6(tmp_path, minpoly):
    """A corpus copy with record 6's field Q(i), i^2 + 1 = 0, given the
    modulus minpoly instead."""
    from sextic19.database import default_corpus_path

    doc = json.load(open(default_corpus_path()))
    doc["curves"][5]["field_E"]["generators"][0]["minpoly"] = minpoly
    bad = tmp_path / "field6.json"
    bad.write_text(json.dumps(doc))
    return bad


@pytest.mark.parametrize("minpoly", [["0", "0", "1"], ["1", "2", "1"]])
def test_modulus_that_is_not_squarefree_exits_2(tmp_path, capsys, minpoly):
    # t^2 and (t + 1)^2: Q[t]/(m) is not a field
    bad = _with_field_6(tmp_path, minpoly)
    code, out, err = run_cli(capsys, "--corpus", str(bad), "--jobs", "1",
                             "verify", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: record 6: the modulus of QQ[i] is not "
                          "squarefree over QQ")
    assert "Traceback" not in err


def test_reducible_squarefree_modulus_still_fails(tmp_path, capsys):
    # t^2 - 4 = (t - 2)(t + 2) is squarefree: irreducibility is not checked,
    # so the corpus loads and the record gets a FAIL
    bad = _with_field_6(tmp_path, ["-4", "0", "1"])
    code, out, _err = run_cli(capsys, "--corpus", str(bad), "--jobs", "1",
                              "verify", "6")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("kind", ["directory", "utf16"])
def test_unreadable_corpus_exits_2(tmp_path, capsys, kind):
    if kind == "directory":
        bad = tmp_path
    else:
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + '{"curves": []}'.encode("utf-16-le"))
    code, out, err = run_cli(capsys, "--corpus", str(bad), "list")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read the corpus %s: " % bad)
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", jobs, "verify", "3"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--jobs: must be at least 1" in out.err


def _cli_in_subprocess(*argv):
    """(exit code, stdout, stderr) of the CLI in a fresh interpreter, which
    prints whether sextic19.conic was imported as its last stdout line."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    paths = [str(root / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    code = ("import sys\n"
            "from sextic19.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('sextic19.conic' in sys.modules)\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_only_the_conic_commands_import_conic():
    code, out, _ = _cli_in_subprocess("--jobs", "1", "verify", "3")
    assert code == 0
    assert out.splitlines()[-1] == "False"
    # a ConicError still exits 2: the product of two 12-digit primes has no
    # factor below the trial bound
    code, out, err = _cli_in_subprocess(
        "conic-solve", str(100000000003 * 100000000019), "-1")
    assert code == 2
    assert out.splitlines() == ["True"]
    assert err.startswith("error: cannot factor")


def test_hilbert(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "6", "5", "3")
    assert code == 0
    assert "-1" in out
    code, out, _ = run_cli(capsys, "--json", "hilbert", "6", "5", "inf")
    assert json.loads(out)["symbol"] == 1


def test_hilbert_at_a_large_prime(capsys):
    # trial division up to the square root did not finish here
    code, out, _ = run_cli(capsys, "hilbert", "2", "3", "1000000000000000003")
    assert code == 0
    assert out.strip().endswith("= +1")


def test_hilbert_past_the_primality_bound_exits_2(capsys):
    code, out, err = run_cli(capsys, "hilbert", "2", "3",
                             "3317044064679887385961983")
    assert code == 2
    assert out == ""
    assert "neither inf nor a prime below" in err


@pytest.mark.parametrize("argv", [
    ("hilbert", "2", "3", "1"),
    ("hilbert", "2", "5", "0"),
    ("hilbert", "2", "5", "4"),
    ("hilbert", "2", "5", "9"),
    ("hilbert", "2", "5", "-3"),
    ("hilbert", "2", "5", "two"),
    ("hilbert", "0", "5", "3"),
    ("hilbert", "abc", "5", "3"),
    ("conic-solve", "0", "1"),
    ("conic-solve", "2", "1/0"),
])
def test_bad_conic_arguments_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_conic_solve_at_a_large_prime(capsys):
    # p = 10^18 + 3 is 3 mod 4, so (p, -1)_p = -1 and no witness is searched
    code, out, _ = run_cli(capsys, "--json", "conic-solve",
                           "1000000000000000003", "-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "unsolvable"
    assert "1000000000000000003" in doc["obstructions"]


def test_conic_solve_past_the_factoring_bound_exits_2(capsys):
    # the product of two 12-digit primes has no factor below the trial bound
    code, out, err = run_cli(capsys, "conic-solve",
                             str(100000000003 * 100000000019), "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot factor")
    assert "Traceback" not in err


def test_reduce_past_the_factoring_bound_exits_2(tmp_path, capsys):
    from sextic19.database import default_corpus_path

    doc = json.load(open(default_corpus_path()))
    # scaling curve 36's printed sextic by k scales the leading coefficient
    # of the pencil discriminant by k^4, which factorize refuses for a
    # product k of two 12-digit primes
    k = 100000000003 * 100000000019
    for term in doc["curves"][35]["printed_implicit"]["terms"]:
        term["coeffs"] = [str(int(c) * k) for c in term["coeffs"]]
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--corpus", str(scaled), "reduce", "36")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "primality bound" in err


def test_conic_solve(capsys):
    code, out, _ = run_cli(capsys, "--json", "conic-solve", "6", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "unsolvable"
    assert "3" in doc["obstructions"]


def test_dual(capsys):
    code, out, _ = run_cli(capsys, "dual", "33")
    assert code == 0
    assert "dual degree 5" in out


def test_reduce(capsys):
    code, out, _ = run_cli(capsys, "--json", "reduce", "36")
    assert code == 0
    doc = json.loads(out)
    assert doc["Q"] == "24*u^2 + 1620 - v^2"
    assert doc["solvability"]["verdict"] == "unsolvable"


def test_implicitize(capsys):
    code, out, _ = run_cli(capsys, "--json", "implicitize", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 6
    assert doc["map_degree"] == 1


def test_corpus_env_override(tmp_path, capsys, monkeypatch):
    import shutil

    from sextic19.database import default_corpus_path

    copy = tmp_path / "corpus_copy.json"
    shutil.copyfile(default_corpus_path(), copy)
    monkeypatch.setenv("SEXTIC19_CORPUS", str(copy))
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert len([l for l in out.splitlines() if l.strip()]) == 39


def test_verify_serial_loads_corpus_once(capsys, monkeypatch):
    from sextic19 import database

    loads = []
    load_corpus = database.load_corpus

    def counted(*args, **kwargs):
        loads.append(args)
        return load_corpus(*args, **kwargs)

    monkeypatch.setattr(database, "load_corpus", counted)
    code, out, _ = run_cli(capsys, "--json", "--jobs", "1", "verify",
                           "3", "28")
    assert code == 0
    assert len(loads) == 1
    doc = json.loads(out)
    assert [item["curve"] for item in doc["items"]] == [3, 28]


def test_verify_json_point_count(capsys):
    code, out, _ = run_cli(capsys, "--json", "--jobs", "1", "verify", "33")
    assert code == 0
    claims = json.loads(out)["items"][0]["claims"]
    counts = {c["claimed"]: c["point_count"] for c in claims}
    # the A_2 claim at the roots of t^3 - 3t - 3 stands for three points
    assert counts == {"A_1": 1, "A_8": 1, "A_2": 3, "A_4": 1}


def _without_seconds(out):
    doc = json.loads(out)
    del doc["seconds"], doc["load_seconds"]
    for item in doc["items"]:
        del item["seconds"]
    return doc


def _reports_at_one_and_two_jobs(capsys, monkeypatch, argv):
    """(exit code, report) of `verify` at --jobs 1 and --jobs 2; a pool
    worker that loaded the corpus would fail the run."""
    from sextic19 import database

    parent = os.getpid()
    load_corpus = database.load_corpus

    def parent_only(*args, **kwargs):
        assert os.getpid() == parent, "a pool worker loaded the corpus"
        return load_corpus(*args, **kwargs)

    monkeypatch.setattr(database, "load_corpus", parent_only)
    runs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "--json", "--jobs", jobs, *argv)
        runs.append((code, _without_seconds(out)))
    return runs


def test_verify_report_does_not_depend_on_jobs(capsys, monkeypatch):
    serial, pooled = _reports_at_one_and_two_jobs(
        capsys, monkeypatch, ["verify", "3", "28", "33"])
    assert serial == pooled
    assert serial[0] == 0


def test_verify_report_does_not_depend_on_earlier_runs(capsys, monkeypatch):
    # the records of a load share their fields, and a field keeps its place
    # mod p: two runs on one load and one on a fresh load report the same
    from sextic19 import database

    records = database.load_corpus()
    monkeypatch.setattr(database, "load_corpus", lambda path=None: records)
    runs = [run_cli(capsys, "--json", "verify", "--all") for _ in range(2)]
    monkeypatch.undo()
    runs.append(run_cli(capsys, "--json", "verify", "--all"))
    reports = [(code, _without_seconds(out)) for code, out, _err in runs]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0][0] == 0


def test_pool_workers_certify_the_parents_records(tmp_path, capsys,
                                                   monkeypatch):
    from sextic19.database import default_corpus_path

    doc = json.load(open(default_corpus_path()))
    # curve 3 is A_17 at the roots of t^2 - 3 and A_2 at infinity; claim
    # A_15 and A_4 instead, which keeps the Milnor total at 19
    curve = doc["curves"][2]
    curve["odd"]["n"], curve["even"][0]["n"] = 15, 4
    curve["multiset"] = [15, 4]
    bad = tmp_path / "wrong_index.json"
    bad.write_text(json.dumps(doc))
    serial, pooled = _reports_at_one_and_two_jobs(
        capsys, monkeypatch, ["--corpus", str(bad), "verify", "3", "28"])
    assert serial == pooled
    code, report = serial
    assert code == 1
    assert [item["passed"] for item in report["items"]] == [False, True]
    claims = report["items"][0]["claims"]
    assert [(c["claimed"], c["ok"]) for c in claims] == \
        [("A_15", False), ("A_4", False)]


@pytest.mark.parametrize("jobs, ids, workers", [
    ("64", ["3", "28"], [2]),
    ("2", ["3", "28", "33"], [2]),
    ("64", ["3"], []),
    (None, ["3", "28"], []),    # serial by default
])
def test_verify_starts_no_more_workers_than_tasks(capsys, monkeypatch, jobs,
                                                  ids, workers):
    # a stand-in pool records its size and maps in this process, so no
    # worker process is started whatever --jobs asks for
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    jobs_argv = ["--jobs", jobs] if jobs else []
    code, out, _ = run_cli(capsys, "--json", *jobs_argv, "verify", *ids)
    assert code == 0
    assert sizes == workers
    assert [item["curve"] for item in json.loads(out)["items"]] == \
        [int(i) for i in ids]
