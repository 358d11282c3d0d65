"""Command-line interface: corpus inspection, batch certification, and the
conic/Hilbert pipelines.

Exit codes: 0 on success, 1 when a requested verification fails, 2 on
usage or I/O errors and on a malformed corpus.
"""

import argparse
import json
import sys
import time

from .rationals import Rat, rat_str


def _load(args):
    from .database import CorpusError, load_corpus

    try:
        return load_corpus(args.corpus)
    except CorpusError as exc:
        raise SystemExit2(exc) from exc


def _conic(fn, *args):
    """fn(*args) for a function of the conic module, whose ConicError is a
    usage error.  The module is imported only by the commands that use it."""
    from .conic import ConicError

    try:
        return fn(*args)
    except ConicError as exc:
        raise SystemExit2(exc) from exc


def _record(args):
    """The corpus record named by args.id."""
    return _find(_load(args), args.id)


def _number(text, kind=Rat):
    """A numeric command-line argument, or a usage error."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit2("not a valid number: %r" % text) from None


def _emit(args, payload, human_lines):
    if args.json:
        json.dump(payload, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in human_lines:
            print(line)


def cmd_list(args):
    recs = _load(args)
    items = []
    lines = []
    for r in recs:
        flags = ",".join(k for k, v in r.flags.items() if v) or "-"
        items.append({
            "id": r.id, "name": r.name,
            "field": r.field_E_desc, "flags": sorted(
                k for k, v in r.flags.items() if v),
        })
        lines.append("%s  %s" % (r.describe(), flags))
    _emit(args, {"command": "list", "count": len(items), "items": items},
          lines)
    return 0


def cmd_show(args):
    rec = _record(args)
    lines = [
        rec.describe(),
        "  x = %s" % rec.x.to_str(),
        "  y = %s" % rec.y.to_str(),
        "  z = %s" % rec.z.to_str(),
        "  p = %s" % (rec.p.to_str() if rec.p is not None else "(none)"),
        "  odd: A_%d at %s" % (rec.odd_claim.stype.n,
                               rec.odd_claim.location.describe(rec.field)),
    ]
    for c in rec.even_claims:
        lines.append("  even: A_%d at %s"
                     % (c.stype.n, c.location.describe(rec.field)))
    if rec.notes:
        lines.append("  notes: %s" % rec.notes)
    _emit(args, {"command": "show", "item": rec.raw}, lines)
    return 0


def _find(recs, rid):
    for r in recs:
        if r.id == rid:
            return r
    raise SystemExit2("no record with id %s (valid: 1..%d)" % (rid, len(recs)))


class SystemExit2(Exception):
    pass


def _verify_worker(task):
    """The certificate of one task (id, curve, claims), as a dict.  Tasks
    are built from the records the parent loaded and reach pool workers
    pickled, so no worker reads the corpus."""
    from .singularity import certify

    rid, curve, claims = task
    return certify(curve, claims, curve_id=rid).to_dict()


def cmd_verify(args):
    t_load = time.perf_counter()
    recs = _load(args)
    load_seconds = time.perf_counter() - t_load
    if args.all:
        ids = [r.id for r in recs]
    elif args.ids:
        ids = args.ids
    else:
        raise SystemExit2("verify needs record ids or --all")
    tasks = [(rec.id, rec.curve, rec.claims)
             for rec in (_find(recs, rid) for rid in ids)]
    t0 = time.perf_counter()
    # a pool starts all of its workers at once, so start no idle ones
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_verify_worker, tasks))
    else:
        results = [_verify_worker(task) for task in tasks]
    passed = all(r["passed"] for r in results)
    lines = []
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        ck = r["checks"]
        lines.append(
            "curve %2s  %s  mu=%s delta=%s  (%.2fs)"
            % (r["curve"], status, ck.get("milnor_total"),
               ck.get("delta_total"), r["seconds"])
        )
        if not r["passed"]:
            for c in r["claims"]:
                if not c["ok"]:
                    lines.append("    claim %s at %s: %s %s" % (
                        c["claimed"], c["location"], c["computed"],
                        c["detail"]))
            lines.append("    checks: %s" % ck)
    lines.append(
        "%d/%d certificates passed in %.1fs (corpus loaded in %.3fs)"
        % (sum(r["passed"] for r in results), len(results),
           time.perf_counter() - t0, load_seconds)
    )
    _emit(args, {
        "command": "verify",
        "items": results,
        "passed": passed,
        "seconds": round(time.perf_counter() - t0, 6),
        "load_seconds": round(load_seconds, 6),
    }, lines)
    return 0 if passed else 1


def cmd_implicitize(args):
    from .curve import implicitize

    rec = _record(args)
    F, mapdeg = implicitize(rec.curve)
    lines = [
        "curve %d: implicit degree %d, map degree %d"
        % (rec.id, F.total_degree(), mapdeg),
        "F = %s" % F.to_str(),
    ]
    _emit(args, {
        "command": "implicitize",
        "id": rec.id,
        "degree": F.total_degree(),
        "map_degree": mapdeg,
        "equation": F.to_str(),
    }, lines)
    return 0


def cmd_dual(args):
    from .autodual import dual_degree_law

    rec = _record(args)
    deg, predicted = dual_degree_law(rec)
    ok = deg == predicted
    lines = [
        "curve %d: dual degree %d, predicted 30 - 19 - %d = %d  [%s]"
        % (rec.id, deg, rec.singular_point_count(), predicted,
           "ok" if ok else "MISMATCH")
    ]
    _emit(args, {
        "command": "dual", "id": rec.id, "degree": deg,
        "predicted": predicted, "ok": ok,
    }, lines)
    return 0 if ok else 1


def cmd_reduce(args):
    from .conic import pencil_reduce

    rec = _record(args)
    if rec.pencil is None or rec.printed_implicit is None:
        raise SystemExit2("record %d carries no pencil data" % rec.id)
    fld = rec.pencil.g0[0].field
    red = _conic(pencil_reduce, rec.printed_implicit.map_field(fld),
                 rec.pencil, fld)
    lines = [
        "curve %d pencil reduction:" % rec.id,
        "  P1 x-degree 2; coefficients of x^2, x, 1 have lambda-degrees %s"
        % [p.degree for p in reversed(red.p1)],
        "  D1 = %s" % red.d1.to_str("l"),
        "  D2 = %s" % red.d2.to_str("l"),
        "  Q  = %s" % red.qform.describe(),
    ]
    payload = {
        "command": "reduce", "id": rec.id,
        "D1": red.d1.to_str("l"), "D2": red.d2.to_str("l"),
        "Q": red.qform.describe(),
    }
    if red.solvability is not None:
        payload["solvability"] = red.solvability.to_dict()
        lines.append("  verdict: %s%s" % (
            red.solvability.verdict,
            " (obstruction at %s)" % ", ".join(
                str(p) for p in red.solvability.obstructions)
            if red.solvability.obstructions else "",
        ))
    _emit(args, payload, lines)
    return 0


def cmd_hilbert(args):
    from .conic import hilbert_symbol

    place = args.place if args.place in ("inf", "oo") \
        else _number(args.place, int)
    value = _conic(hilbert_symbol, _number(args.a), _number(args.b), place)
    _emit(args, {
        "command": "hilbert",
        "a": args.a, "b": args.b, "place": str(args.place),
        "symbol": value,
    }, ["(%s, %s)_%s = %+d" % (args.a, args.b, args.place, value)])
    return 0


def cmd_conic_solve(args):
    from .conic import conic_solvable_over_q

    prob = _conic(conic_solvable_over_q, _number(args.a), _number(args.b))
    lines = ["%s X^2 + %s Y^2 = 1: %s" % (args.a, args.b, prob.verdict)]
    if prob.witness:
        lines.append("  witness: X = %s, Y = %s"
                     % (rat_str(prob.witness[0]), rat_str(prob.witness[1])))
    if prob.obstructions:
        lines.append("  obstruction at places: %s"
                     % ", ".join(str(p) for p in prob.obstructions))
    _emit(args, {"command": "conic-solve", **prob.to_dict()}, lines)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sextic19",
        description="exact verification of the 39 maximal rational sextics",
    )
    ap.add_argument("--json", action="store_true",
                    help="machine-readable output")
    ap.add_argument("--corpus", help="path to a corpus file "
                    "(default: $SEXTIC19_CORPUS, else the bundled one)")
    ap.add_argument("--jobs", type=int, default=1,
                    help="parallel verification jobs (default: 1)")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the corpus")
    sp = sub.add_parser("show", help="show one record")
    sp.add_argument("id", type=int)
    sp = sub.add_parser("verify", help="certify singularity claims")
    sp.add_argument("ids", type=int, nargs="*")
    sp.add_argument("--all", action="store_true")
    sp = sub.add_parser("implicitize", help="implicit equation of a record")
    sp.add_argument("id", type=int)
    sp = sub.add_parser("dual", help="dual curve degree law")
    sp.add_argument("id", type=int)
    sp = sub.add_parser("reduce", help="pencil-of-cubics conic reduction")
    sp.add_argument("id", type=int)
    sp = sub.add_parser("hilbert", help="Hilbert symbol (a, b) at a place")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("place", help="inf, oo or a prime")
    sp = sub.add_parser("conic-solve", help="solve a X^2 + b Y^2 = 1 over Q")
    sp.add_argument("a")
    sp.add_argument("b")
    return ap


COMMANDS = {
    "list": cmd_list,
    "show": cmd_show,
    "verify": cmd_verify,
    "implicitize": cmd_implicitize,
    "dual": cmd_dual,
    "reduce": cmd_reduce,
    "hilbert": cmd_hilbert,
    "conic-solve": cmd_conic_solve,
}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error("argument --jobs: must be at least 1, not %d" % args.jobs)
    try:
        return COMMANDS[args.command](args)
    except SystemExit2 as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
