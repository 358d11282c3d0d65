"""The three workloads.  Each round runs a fixed list of operations, times
each one, and checks its output after the timing stops.

A round starts from a freshly loaded corpus, so that no state cached inside
the program (such as a field's table of inverses) carries from one round to
the next and every round of a run does the same work.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

import checks
from sextic19 import autodual, conic, curve, database, singularity
from sextic19.curve import MoebiusMap, ParameterLocation, ProjectiveMap
from sextic19.numberfield import QQ, FieldError, generator
from sextic19.polynomial import UniPoly
from sextic19.singularity import SingularityClaim, SingularityType

# The traced functions are called through their modules, so that the
# tracer's replacements (see spans.py) are the ones called.

# Curve 10 is the slowest certificate (its A_13 claim at quadratic roots
# adjoins a root to a quartic field); with two jobs it runs on one worker
# while the other six share the second.  Together they cover claims at
# quadratic and cubic roots, parameter pairs, fields of degree 1 to 6 and
# two-generator towers.  The whole corpus takes 103 s with two jobs, more
# than a run may last.
CORPUS_IDS = (10, 7, 34, 36, 33, 3, 28)

# Cheap certificates whose odd claim and first even claim cover odd claims
# at quadratic roots that adjoin a root and even claims at infinity and at
# quadratic roots.  A round takes about 6 s, so that a run has several and
# their median is robust to a slow spell of the machine.
REFUTE_IDS = (3, 28)
CHILD_TIMEOUT = 120


def cpu_seconds():
    """User plus system CPU time of this process and its waited children."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_child(cmd, env, cwd):
    """Run a command in its own process group; kill the group on timeout
    and wait for the command to end.  Returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=cwd, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err[-2000:])
    return proc.returncode, out


class Round:
    """Timings and outcomes of one round."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.slowest = 0.0
        self.attempted = 0
        self.failed = 0
        self.faults = {}
        self.problems = []
        self._checks = []

    def timed(self, fn, *args):
        """Run one operation; its wall and CPU time count for the round."""
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - t0
            self.cpu += cpu_seconds() - c0
            self.wall += wall
            self.slowest = max(self.slowest, wall)
            self.attempted += 1

    def fail(self, fault):
        self.failed += 1
        self.faults[fault] = self.faults.get(fault, 0) + 1

    def check(self, fn, *args):
        """Queue a checker; `run_checks` runs the queue once the round's
        timing (and tracing) is over."""
        self._checks.append((fn, args))

    def problem(self, text):
        self.problems.append(text)

    def run_checks(self):
        for fn, args in self._checks:
            self.problems.extend(fn(*args))
        self._checks = []


# ----------------------------------------------------------------------
# corpus


def program_env(root):
    """Environment for a child process that runs the checkout's program on
    its bundled corpus."""
    env = {k: v for k, v in os.environ.items() if k != "SEXTIC19_CORPUS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Workload:
    """One workload on the checkout at `root`; `run_round` runs a round."""

    name = None

    def __init__(self, root):
        self.root = root


class Corpus(Workload):
    """`sextic19 --json verify <ids>` as a child process at the default job
    count; traced, the same command runs in this process with one job."""

    name = "corpus"

    def __init__(self, root):
        super().__init__(root)
        self.env = program_env(root)
        self.implicit = {}

    def args(self, jobs=None):
        out = ["--json"]
        if jobs:
            out += ["--jobs", str(jobs)]
        return out + ["verify"] + [str(i) for i in CORPUS_IDS]

    def run_round(self, rng, recs, traced):
        rnd = Round()
        c0, t0 = cpu_seconds(), time.perf_counter()
        if traced:
            from sextic19 import cli

            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(self.args(jobs=1))
            out = buf.getvalue()
        else:
            code, out = run_child([sys.executable, "-m", "sextic19"]
                                  + self.args(), self.env, self.root)
        rnd.wall = time.perf_counter() - t0
        rnd.cpu = cpu_seconds() - c0
        rnd.attempted = len(CORPUS_IDS)
        try:
            doc = json.loads(out)
            items = {it["curve"]: it for it in doc["items"]}
        except (ValueError, KeyError, TypeError):
            for _ in CORPUS_IDS:
                rnd.fail("verify exited %s without a JSON report" % code)
            return rnd
        if code != 0:
            rnd.problem("verify exited %s" % code)
        by_id = {r.id: r for r in recs}
        for rid in CORPUS_IDS:
            item = items.get(rid)
            if item is None:
                rnd.fail("no certificate for a requested curve")
                continue
            rnd.slowest = max(rnd.slowest, item["seconds"])
            rnd.check(checks.check_corpus_item, item, by_id[rid])
            rnd.check(self.independent_check, by_id[rid],
                      draw_parameter(by_id[rid], rng))
        return rnd

    def independent_check(self, rec, probe):
        if rec.id not in self.implicit:
            self.implicit[rec.id] = curve.implicitize(rec.curve)[0]
        return checks.check_implicit_equation(rec, self.implicit[rec.id],
                                              probe)


def draw_parameter(rec, rng, avoid=()):
    """A small rational parameter outside every claimed location."""
    f = rec.field
    for _ in range(1000):
        t = f.from_rat(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
        if checks.outside_claims(rec, t) and \
                all(not f.eq(t, a) for a in avoid):
            return t
    raise RuntimeError("curve %d: no free parameter drawn" % rec.id)


# ----------------------------------------------------------------------
# refute


def _with(claims, changes):
    out = list(claims)
    for i, (n, loc) in changes.items():
        out[i] = SingularityClaim(SingularityType(n), loc)
    return out


def refute_ops(recs, rng):
    """(kind, record, claim list, changed indices) for one round.

    Each listed curve's odd claim and first even claim are perturbed.
    Kinds (a) and (b) are the same in every round; the parameters of kind
    (c) and the order of the operations come from the seed."""
    by_id = {r.id: r for r in recs}
    ops = []
    for rid in REFUTE_IDS:
        rec = by_id[rid]
        claims = rec.claims
        for i, c in enumerate(claims[:2]):
            n = c.stype.n
            lowest = 1 if n % 2 else 2
            for m in ((lowest,) if n > lowest else ()) + (n + 2,):
                ops.append(("a", rec, _with(claims, {i: (m, c.location)}),
                            [i]))
        odd, even = claims[0], claims[1]
        ops.append(("b", rec, _with(claims, {
            0: (odd.stype.n, even.location),
            1: (even.stype.n, odd.location)}), [0, 1]))
        for i, c in enumerate(claims[:2]):
            t0 = draw_parameter(rec, rng)
            if c.stype.n % 2:
                loc = ParameterLocation.at_pair(
                    t0, draw_parameter(rec, rng, avoid=(t0,)))
            else:
                loc = ParameterLocation.at_value(t0)
            ops.append(("c", rec, _with(claims, {i: (c.stype.n, loc)}), [i]))
    # the largest lowering of the corpus: A_2 claimed for curve 2's A_18
    rec2 = by_id[2]
    ops.append(("a", rec2, _with(rec2.claims, {
        1: (2, rec2.claims[1].location)}), [1]))
    rng.shuffle(ops)
    # the named fault: an A_odd claim at the non-squarefree (t - 1)^2
    rec3 = by_id[3]
    square = ParameterLocation.at_roots(UniPoly.from_ints(QQ, [1, -2, 1]))
    ops.append(("d", rec3, _with(rec3.claims, {0: (17, square)}), [0]))
    return ops


NAMED_FAULT = ("kind (d): FieldError 'quadratic is not squarefree' "
               "escapes certify")


class Refute(Workload):
    """Serial `singularity.certify` on false claim lists."""

    name = "refute"

    def run_round(self, rng, recs, traced):
        rnd = Round()
        for kind, rec, claims, changed in refute_ops(recs, rng):
            paper = checks.paper_types(rec)
            try:
                cert = rnd.timed(singularity.certify, rec.curve, claims,
                                 rec.id)
            except FieldError as exc:
                if kind == "d" and "not squarefree" in str(exc):
                    rnd.fail(NAMED_FAULT)
                else:
                    rnd.fail("kind (%s): FieldError %s" % (kind, exc))
                continue
            except Exception as exc:  # any other escape is counted, not fatal
                rnd.fail("kind (%s): %s %s" % (kind, type(exc).__name__, exc))
                continue
            rnd.check(checks.check_refutation, kind, cert, changed, paper)
        return rnd


# ----------------------------------------------------------------------
# global certificates


def _paper_pencil_36():
    base = UniPoly.from_ints(QQ, [9, -9, 1])
    return (base.scale(Fraction(6)),
            (UniPoly.from_ints(QQ, [-15, 1]) * base).scale(Fraction(2)))


CONIC_PAIRS = 40


class GlobalCerts(Workload):
    """Serial in-process run of every paper certificate except per-curve
    certification."""

    name = "global-certs"

    def run_round(self, rng, recs, traced):
        rnd = Round()
        by_id = {r.id: r for r in recs}
        for rec in recs:
            deg, _predicted = rnd.timed(autodual.dual_degree_law, rec)
            rnd.check(checks.check_dual_law, rec, deg)
        for rid in (26, 36, 38):
            rnd.check(checks.check_autodual, by_id[rid],
                      rnd.timed(autodual.certify_autodual, by_id[rid]))
        for rid in (34, 36):
            self.printed_equation(rnd, by_id[rid])
        self.pencils(rnd, by_id)
        obs = rnd.timed(conic.verify_case34_obstruction)
        if not (obs["ok"] and all(c["ok"] for c in obs["checks"].values())):
            rnd.problem("case 34: the congruence argument does not verify")
        rec24 = by_id[24]
        if not rnd.timed(conic.verify_case24_solution, rec24):
            rnd.problem("case 24: the printed witness is refused")
        cr = rec24.raw["conic_reduction"]
        rnd.check(checks.check_case24_witness, cr["equation"],
                  cr["solution"],
                  [Fraction(c) for c in
                   rec24.raw["field_E"]["generators"][0]["minpoly"]])
        for rid in (3, 28, 29, 37):
            T, m = by_id[rid].symmetry
            if not rnd.timed(curve.verify_symmetry, by_id[rid].curve, T, m):
                rnd.problem("curve %d: the stated symmetry fails" % rid)
        control = (ProjectiveMap.from_ints(QQ, [[1, 0, 0], [0, 1, 0],
                                                [0, 0, 1]]),
                   MoebiusMap.from_ints(QQ, -1, 0, 0, 1))
        if rnd.timed(curve.verify_symmetry, by_id[3].curve, *control):
            rnd.problem("curve 3: the perturbed control symmetry verifies")
        for rec in recs:
            rep = rnd.timed(database.cross_check_record, rec)
            if not rep["ok"]:
                rnd.problem("curve %d: cross-check fails" % rec.id)
            if rec.id == 16 and "diagonal" not in rep["checks"][
                    "alt_parametrization_same_curve"]["detail"]:
                rnd.problem("curve 16: the alternate parametrization "
                            "differs by no diagonal substitution")
        for _ in range(CONIC_PAIRS):
            a, b = (rng.choice([v for v in range(-60, 61) if v])
                    for _ in range(2))
            prob = rnd.timed(conic.conic_solvable_over_q, a, b)
            rnd.check(checks.check_conic, a, b, prob.verdict, prob.witness,
                      list(prob.trace["symbols"].values()))
        return rnd

    def printed_equation(self, rnd, rec):
        F, mapdeg = rnd.timed(curve.implicitize, rec.curve)
        printed = rec.printed_implicit.map_field(rec.field)
        if not (F.total_degree() == 6 and mapdeg == 1
                and F.scalar_multiple_of(printed) is not None):
            rnd.problem("curve %d: implicit equation differs from the "
                        "printed one" % rec.id)

    def pencils(self, rnd, by_id):
        reds = {}
        for rid in (34, 36):
            rec = by_id[rid]
            fld = rec.pencil.g0[0].field
            reds[rid] = rnd.timed(conic.pencil_reduce,
                                  rec.printed_implicit.map_field(fld),
                                  rec.pencil, fld)
        d1, d2 = _paper_pencil_36()
        red = reds[36]
        solv = red.solvability
        if not (red.d1 == d1 and red.d2 == d2
                and red.qform.u_coeff == 24 and red.qform.const == 1620
                and solv is not None and solv.verdict == "unsolvable"
                and 3 in solv.obstructions):
            rnd.problem("curve 36: pencil reduction differs from the paper")
        else:
            rnd.check(checks.check_conic, 24, 1620, solv.verdict,
                      solv.witness, list(solv.trace["symbols"].values()))
        fld = by_id[34].pencil.g0[0].field
        a = generator(fld)
        d_lambda = UniPoly(fld, [(-46 * a - 54).rep, (11 * a - 1).rep,
                                 fld.one])
        if reds[34].d1.monic() != d_lambda:
            rnd.problem("curve 34: pencil reduction differs from the paper")
        prob = rnd.timed(conic.conic_solvable_over_q, 6, 5)
        symbol = rnd.timed(conic.hilbert_symbol, 6, 5, 3)
        if not (prob.verdict == "unsolvable" and symbol == -1):
            rnd.problem("6u^2 + 5w^2 = 1 is not refuted by (6,5)_3 = -1")
        rnd.check(checks.check_conic, 6, 5, prob.verdict, prob.witness,
                  list(prob.trace["symbols"].values()))


WORKLOADS = {w.name: w for w in (Corpus, Refute, GlobalCerts)}
