"""Output checkers.  Each returns a list of problems; an empty list passes.

The checkers compare against the paper's data carried by the corpus record
(its multiset of A_n types) or against properties the method must have.
None compares with a saved copy of an earlier run.  `selfcheck` feeds each
checker a known-bad output and requires that it is refused.
"""

from fractions import Fraction
from math import gcd, isqrt

from sextic19.curve import implicitize
from sextic19.numberfield import QQ
from sextic19.polynomial import TriPoly


def type_index(name):
    """'A_13' -> 13; None for a missing type."""
    return int(name[2:]) if name else None


def paper_types(rec):
    """Claim index -> the paper's A_n index (the record's claims are the
    paper's list, checked against its multiset when the corpus loads)."""
    return [c.stype.n for c in rec.claims]


# ----------------------------------------------------------------------
# corpus


def check_corpus_item(item, rec):
    """A `verify --json` item certifies the paper's multiset of the record.

    The item lists the claims in the record's order; each certified type
    counts once per point of the record's claimed location."""
    bad = []
    ck = item.get("checks", {})
    if item.get("curve") != rec.id:
        bad.append("item is for curve %s" % item.get("curve"))
    if not item.get("passed"):
        bad.append("curve %d: certificate did not pass" % rec.id)
    for key, want in (("milnor_total", 19), ("delta_total", 10),
                      ("implicit_degree", 6), ("map_degree", 1),
                      ("points_distinct", True)):
        if ck.get(key) != want:
            bad.append("curve %d: %s = %r, expected %r"
                       % (rec.id, key, ck.get(key), want))
    claims = item.get("claims", [])
    if len(claims) != len(rec.claims):
        return bad + ["curve %d: %d claims reported, the record has %d"
                      % (rec.id, len(claims), len(rec.claims))]
    certified = []
    for i, claim in enumerate(claims):
        n = type_index(claim.get("computed"))
        if n is None or claim.get("computed") != claim.get("claimed"):
            bad.append("curve %d: claim %s computed %s"
                       % (rec.id, claim.get("claimed"), claim.get("computed")))
            continue
        certified.extend([n] * rec.claims[i].point_count())
    if sorted(certified) != sorted(rec.multiset):
        bad.append("curve %d: certified multiset %s, paper %s"
                   % (rec.id, sorted(certified), sorted(rec.multiset)))
    return bad


def _partial(F, i):
    f = F.field
    out = {}
    for e, c in F.terms.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = f.scalar_mul(Fraction(e[i]), c)
    return TriPoly(f, out)


def _eval(F, point):
    """F at a point, from tables of coordinate powers (F is homogeneous of
    degree at most six)."""
    f = F.field
    pows = []
    for v in point:
        row = [f.one]
        for _ in range(6):
            row.append(f.mul(row[-1], v))
        pows.append(row)
    acc = f.zero
    for (i, j, k), c in F.terms.items():
        acc = f.add(acc, f.mul(c, f.mul(pows[0][i],
                                        f.mul(pows[1][j], pows[2][k]))))
    return acc


def _claim_parameters(rec):
    """Finite rational parameters used by the claims, and the claimed
    polynomials, so that a drawn parameter can avoid them."""
    values, polys = [], []
    for c in rec.claims:
        loc = c.location
        if loc.kind == "value":
            values.append(loc.value)
        elif loc.kind == "pair":
            values.extend(t for t in loc.pair if t != "inf")
        elif loc.kind == "roots":
            polys.append(loc.poly)
    return values, polys


def outside_claims(rec, t):
    """True when the field element t is none of the claimed parameters."""
    f = rec.field
    values, polys = _claim_parameters(rec)
    return (all(not f.eq(t, v) for v in values)
            and all(not f.is_zero(p.eval(t)) for p in polys))


def check_implicit_equation(rec, F, probe):
    """Independent of the classifier: F vanishes identically on the
    parametrization, every partial of F vanishes at each claimed point, and
    the image of the parameter `probe` (outside the claims) is smooth."""
    bad = []
    f = rec.field
    curve = rec.curve
    if F.total_degree() != 6 or not F.is_homogeneous():
        return ["curve %d: F has degree %d" % (rec.id, F.total_degree())]
    # deg F(phi(t)) <= 36, so 37 zeros make it the zero polynomial
    for k in range(37):
        t = f.from_int(k - 18)
        if not f.is_zero(_eval(F, (curve.x.eval(t), curve.y.eval(t),
                                   curve.z.eval(t)))):
            bad.append("curve %d: F(phi(%d)) != 0" % (rec.id, k - 18))
            break
    grads = {}

    def gradient(fld, pt):
        if fld not in grads:
            G = F if fld == f else F.map_field(fld)
            grads[fld] = [_partial(G, i) for i in range(3)]
        return [_eval(d, pt) for d in grads[fld]]

    for claim in rec.claims:
        for fld, pt in curve.evaluate(claim.location):
            if not all(fld.is_zero(g) for g in gradient(fld, pt.coords)):
                bad.append("curve %d: grad F != 0 at the claimed %r"
                           % (rec.id, claim))
                break
    if not outside_claims(rec, probe):
        bad.append("curve %d: probe parameter is a claimed one" % rec.id)
    else:
        pt = curve.evaluate_at(probe).coords
        if all(f.is_zero(g) for g in gradient(f, pt)):
            bad.append("curve %d: image of %s is singular"
                       % (rec.id, f.to_str(probe)))
    return bad


# ----------------------------------------------------------------------
# refute


def check_refutation(kind, cert, changed, paper):
    """A perturbed claim list is rejected.

    `changed` lists the indices of the perturbed claims and `paper` the
    paper's type of every claim of the unperturbed list.  The untouched
    claims still certify their paper type; for kind (a), which keeps the
    location, the computed type there is the paper's type."""
    bad = []
    if cert.passed:
        bad.append("kind %s: a false claim list passed" % kind)
    for i, v in enumerate(cert.verdicts):
        if i in changed:
            if v.ok:
                bad.append("kind %s: perturbed claim %d accepted" % (kind, i))
            if kind == "a" and (v.computed is None
                                or v.computed.n != paper[i]):
                bad.append("kind a: computed %r at claim %d, paper A_%d"
                           % (v.computed, i, paper[i]))
        elif not v.ok or v.computed is None or v.computed.n != paper[i]:
            bad.append("kind %s: untouched claim %d computed %r, paper A_%d"
                       % (kind, i, v.computed, paper[i]))
    return bad


# ----------------------------------------------------------------------
# global certificates


def check_dual_law(rec, degree):
    """deg(dual) = 30 - 19 - #Sing, with #Sing the paper's point count."""
    want = 30 - 19 - len(rec.multiset)
    if degree != want:
        return ["curve %d: dual degree %d, law gives %d"
                % (rec.id, degree, want)]
    if rec.id == 33 and degree != 5:
        return ["curve 33: dual degree %d, paper 5" % degree]
    return []


def check_autodual(rec, report):
    bad = []
    cert = report.get("certificate", {})
    if not (report.get("ok") and report.get("dual_degree") == 6
            and cert.get("passed")):
        bad.append("curve %d: dual does not certify: %s"
                   % (rec.id, report.get("error", "")))
    if sorted(report.get("dual_multiset", [])) != sorted(rec.multiset):
        bad.append("curve %d: dual multiset %s, paper %s"
                   % (rec.id, report.get("dual_multiset"), rec.multiset))
    return bad


def hilbert_product(symbols):
    out = 1
    for s in symbols:
        out *= s
    return out


def small_height_solution(a, b, height):
    """A rational point of a X^2 + b Y^2 = 1 with X of height <= `height`,
    found by exhaustion in plain Fraction arithmetic, or None."""
    a, b = Fraction(a), Fraction(b)
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if gcd(p, q) != 1:
                continue
            X = Fraction(p, q)
            rest = (1 - a * X * X) / b
            if rest < 0:
                continue
            num, den = rest.numerator, rest.denominator
            rn, rd = isqrt(num), isqrt(den)
            if rn * rn == num and rd * rd == den:
                return X, Fraction(rn, rd)
    return None


def check_conic(a, b, verdict, witness, symbols, search_height=12):
    """A verdict on a X^2 + b Y^2 = 1 against its own witness or obstructing
    symbols: witnesses satisfy the equation in plain Fractions, the symbols
    multiply to 1, and no small-height point exists for 'unsolvable'."""
    bad = []
    a, b = Fraction(a), Fraction(b)
    if hilbert_product(symbols) != 1:
        bad.append("(%s, %s): Hilbert symbols multiply to -1" % (a, b))
    if verdict == "solvable":
        X, Y = (Fraction(str(w)) for w in witness)
        if a * X * X + b * Y * Y != 1:
            bad.append("(%s, %s): witness (%s, %s) is not a point"
                       % (a, b, X, Y))
    elif verdict == "unsolvable":
        if -1 not in symbols:
            bad.append("(%s, %s): unsolvable without an obstruction" % (a, b))
        pt = small_height_solution(a, b, search_height)
        if pt is not None:
            bad.append("(%s, %s): 'unsolvable' but %s is a point" % (a, b, pt))
    else:
        bad.append("(%s, %s): verdict %r" % (a, b, verdict))
    return bad


def _cubic_mul(x, y, modulus):
    """Product in Q[a]/(modulus) on Fraction coordinate lists."""
    d = len(modulus) - 1
    full = [Fraction(0)] * (2 * d - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            full[i + j] += xi * yj
    for k in range(2 * d - 2, d - 1, -1):
        hi = full[k]
        full[k] = Fraction(0)
        for j in range(d):
            full[k - d + j] -= hi * modulus[j]
    return full[:d]


def check_case24_witness(equation, solution, modulus):
    """The printed conic witness of curve 24 satisfies its equation, in
    plain Fraction arithmetic over Q[a]/(modulus)."""
    acc = [Fraction(0)] * (len(modulus) - 1)
    for c, v in zip(equation, solution):
        term = _cubic_mul([Fraction(q) for q in c],
                          _cubic_mul([Fraction(q) for q in v],
                                     [Fraction(q) for q in v], modulus),
                          modulus)
        acc = [s + t for s, t in zip(acc, term)]
    if any(acc) or not any(any(v) for v in solution):
        return ["curve 24: the printed witness is not a nontrivial point"]
    return []


# ----------------------------------------------------------------------
# self-check


class CheckerError(Exception):
    pass


def selfcheck(by_id):
    """Every checker refuses a known-bad output."""
    from sextic19.singularity import (
        Certificate, ClaimVerdict, SingularityType)

    failures = []

    def refuses(name, problems):
        if not problems:
            failures.append(name)

    rec = by_id[3]
    good_item = {
        "curve": 3, "passed": True,
        "checks": {"milnor_total": 19, "delta_total": 10,
                   "implicit_degree": 6, "map_degree": 1,
                   "points_distinct": True},
        "claims": [{"claimed": "A_17", "computed": "A_17"},
                   {"claimed": "A_2", "computed": "A_2"}],
    }
    if check_corpus_item(good_item, rec):
        failures.append("corpus checker refuses a good item")
    wrong_type = dict(good_item, claims=[
        {"claimed": "A_15", "computed": "A_15"},
        good_item["claims"][1]])
    refuses("corpus: certified multiset differs from the paper",
            check_corpus_item(wrong_type, rec))
    refuses("corpus: implicit degree 5", check_corpus_item(
        dict(good_item, checks=dict(good_item["checks"], implicit_degree=5)),
        rec))

    F, _ = implicitize(rec.curve)
    probe = QQ.from_int(5)
    if check_implicit_equation(rec, F, probe):
        failures.append("implicit checker refuses curve 3")
    x_pow = TriPoly(QQ, {(6, 0, 0): QQ.one})
    refuses("implicit: F + X^6 vanishes on phi",
            check_implicit_equation(rec, F + x_pow, probe))
    r25 = by_id[25]
    F25, _ = implicitize(r25.curve)
    refuses("implicit: probe at a claimed parameter",
            check_implicit_equation(r25, F25, QQ.from_int(0)))

    claims = rec.claims
    passing = Certificate(3, [
        ClaimVerdict(claims[0], SingularityType(17), True, [], ""),
        ClaimVerdict(claims[1], SingularityType(2), True, [], "")],
        {}, True, 0.0)
    refuses("refute: a certificate that passes a perturbed list",
            check_refutation("a", passing, [0], [17, 2]))
    wrong = Certificate(3, [
        ClaimVerdict(claims[0], SingularityType(15), False, [], ""),
        ClaimVerdict(claims[1], SingularityType(2), True, [], "")],
        {}, False, 0.0)
    refuses("refute: computed type differs from the paper",
            check_refutation("a", wrong, [0], [17, 2]))

    refuses("dual degree off by one",
            check_dual_law(rec, 30 - 19 - len(rec.multiset) + 1))
    refuses("autodual multiset differs", check_autodual(by_id[26], {
        "ok": True, "dual_degree": 6, "certificate": {"passed": True},
        "dual_multiset": [10, 4, 2, 2, 2]}))
    refuses("conic witness off the conic",
            check_conic(2, 7, "solvable", ("1/2", "1/3"), [1, 1]))
    refuses("Hilbert product -1",
            check_conic(6, 5, "unsolvable", None, [1, -1, 1]))
    refuses("'unsolvable' with a small point",
            check_conic(1, 1, "unsolvable", None, [-1, -1]))

    r24 = by_id[24]
    cr = r24.raw["conic_reduction"]
    modulus = [Fraction(c) for c in
               r24.raw["field_E"]["generators"][0]["minpoly"]]
    if check_case24_witness(cr["equation"], cr["solution"], modulus):
        failures.append("case-24 checker refuses the printed witness")
    refuses("case-24 witness off the conic", check_case24_witness(
        cr["equation"], [["1"], ["0"], ["0"]], modulus))
    if failures:
        raise CheckerError("checkers failed the self-check: %s"
                           % "; ".join(failures))
