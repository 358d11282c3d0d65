"""Field-of-definition machinery: pencil-of-cubics reduction to a conic,
Hilbert symbols over Q, conic solvability with witness search, and the two
fixed verifications (the integral congruence obstruction over Q(sqrt(-7))
and the printed witness over the cubic field of curve 24).
"""

from dataclasses import dataclass
from math import gcd, prod

from .numberfield import QQ, build_tower, generator
from .polynomial import (
    InexactDivision,
    TriPoly,
    UniPoly,
    determinant,
    homogenize_xy,
    hybrid_bezout,
    squarefree_odd_even_split,
)
from .rationals import (
    PRIME_TEST_BOUND,
    Rat,
    factorize,
    is_prime,
    rat_sqrt,
    rat_str,
)


# the largest height max(|p|, q) of X = p/q that the witness search tries
WITNESS_HEIGHT_BOUND = 100000


class ConicError(Exception):
    pass


def _squarefree_split(q):
    """(s, c, primes) with q = s * c^2, s a squarefree integer, c a positive
    rational and primes the list of primes dividing s, from one factorization
    of |num * den| = |s| t^2 (c = t / den).  A coefficient that factorize
    refuses (see rationals.FACTOR_TRIAL_BOUND) is reported as a ConicError."""
    q = Rat(q)
    num, den = int(q.numerator), int(q.denominator)
    try:
        fac = factorize(abs(num * den))
    except ValueError as exc:
        raise ConicError(str(exc)) from None
    primes = [p for p, e in fac.items() if e % 2]
    s = prod(primes) if num > 0 else -prod(primes)
    return s, Rat(prod(p ** (e // 2) for p, e in fac.items()), den), primes


def _places(pa, pb):
    """'inf', 2, and the odd primes of the two lists, sorted."""
    return ["inf", 2] + sorted(set(pa + pb) - {2})


# ----------------------------------------------------------------------
# Hilbert symbols over Q


def _vp(q, p):
    """p-adic valuation of a nonzero rational."""
    num, den = int(q.numerator), int(q.denominator)
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Rat(num, den)


def _legendre(u, p):
    """Legendre symbol of a p-adic unit rational mod an odd prime."""
    num = int(u.numerator) % p
    den = int(u.denominator) % p
    val = num * pow(den, -1, p) % p
    s = pow(val, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def _unit_mod8(u):
    num = int(u.numerator) % 8
    den = int(u.denominator) % 8
    return num * pow(den, -1, 8) % 8


def hilbert_symbol(a, b, place):
    """Hilbert symbol (a, b) at a finite prime or at 'inf'.

    a, b are nonzero rationals; the symbol is +1 iff a X^2 + b Y^2 = Z^2
    has a nontrivial solution over the completion.  A place is 'inf' (or
    'oo') or a prime below PRIME_TEST_BOUND, where is_prime is proven.
    """
    a, b = Rat(a), Rat(b)
    if a == 0 or b == 0:
        raise ConicError("Hilbert symbol requires nonzero entries")
    if place in ("inf", "oo"):
        return -1 if (a < 0 and b < 0) else 1
    if not (isinstance(place, int) and place < PRIME_TEST_BOUND
            and is_prime(place)):
        raise ConicError("place %r is neither inf nor a prime below %d"
                         % (place, PRIME_TEST_BOUND))
    p = place
    if p == 2:
        alpha, u = _vp(a, 2)
        beta, w = _vp(b, 2)
        eps_u = (_unit_mod8(u) - 1) // 2 % 2
        eps_w = (_unit_mod8(w) - 1) // 2 % 2
        om_u = 1 if _unit_mod8(u) in (3, 5) else 0
        om_w = 1 if _unit_mod8(w) in (3, 5) else 0
        exp = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if exp % 2 else 1
    alpha, u = _vp(a, p)
    beta, w = _vp(b, p)
    eps_p = (p - 1) // 2
    sign = -1 if (alpha * beta * eps_p) % 2 else 1
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(w, p)
    return sign


def relevant_places(a, b):
    """'inf', 2, and the odd primes dividing the squarefree parts."""
    return _places(_squarefree_split(a)[2], _squarefree_split(b)[2])


@dataclass
class ConicProblem:
    """Solvability record for a X^2 + b Y^2 = 1 over Q."""

    a: object
    b: object
    verdict: str                 # "solvable" | "unsolvable"
    witness: object = None       # (X, Y) rationals, exact
    obstructions: tuple = ()     # places with symbol -1
    trace: dict = None

    def to_dict(self):
        out = {
            "a": rat_str(self.a),
            "b": rat_str(self.b),
            "verdict": self.verdict,
            "obstructions": [str(p) for p in self.obstructions],
        }
        if self.witness is not None:
            out["witness"] = [rat_str(self.witness[0]), rat_str(self.witness[1])]
        if self.trace:
            out["trace"] = self.trace
        return out


def conic_solvable_over_q(a, b):
    """Decide a X^2 + b Y^2 = 1 over Q by Hilbert symbols; when solvable,
    produce an exact witness by increasing-height search on X."""
    a, b = Rat(a), Rat(b)
    if a == 0 or b == 0:
        raise ConicError("conic coefficients must be nonzero")
    sa, ca, pa = _squarefree_split(a)
    sb, cb, pb = _squarefree_split(b)
    places = _places(pa, pb)
    symbols = {str(v): hilbert_symbol(sa, sb, v) for v in places}
    bad = tuple(v for v in places if symbols[str(v)] == -1)
    trace = {
        "reduced": [str(sa), str(sb)],
        "square_parts": [rat_str(ca), rat_str(cb)],
        "symbols": symbols,
    }
    if bad:
        return ConicProblem(a, b, "unsolvable", obstructions=bad, trace=trace)
    witness = _conic_witness(Rat(sa), Rat(sb))
    if witness is None:  # pragma: no cover - Hasse-Minkowski guarantees one
        raise ConicError("no witness found below the height cap")
    X, Y = witness
    X, Y = X / ca, Y / cb
    if a * X * X + b * Y * Y != 1:
        raise ConicError("the witness does not satisfy the conic")
    return ConicProblem(a, b, "solvable", witness=(X, Y), trace=trace)


def _conic_witness(a, b):
    """Smallest-height X = p/q with (1 - a X^2)/b a rational square."""
    h = 0
    while h <= WITNESS_HEIGHT_BOUND:
        for q in range(1, h + 1):
            for p in range(-h, h + 1):
                if max(abs(p), q) != h or gcd(p, q) != 1:
                    continue
                X = Rat(p, q)
                rest = (1 - a * X * X) / b
                if rest < 0:
                    continue
                Y = rat_sqrt(rest)
                if Y is not None:
                    return X, Y
        h = h + 1 if h else 1
    return None


# ----------------------------------------------------------------------
# pencil reduction


@dataclass
class QForm:
    """Diagonal form u_coeff * u^2 + const - v^2 (the conic the pencil
    reduction ends at)."""

    u_coeff: object
    const: object
    field: object

    def describe(self):
        u = self.field.to_str(self.u_coeff)
        c = self.field.to_str(self.const)
        if ("+" in u[1:]) or ("-" in u[1:]) or "*" in u:
            u = "(%s)" % u
        if c.startswith("-") or ("+" in c[1:]) or ("-" in c[1:]):
            c = "(%s)" % c
        return "%s*u^2 + %s - v^2" % (u, c)


@dataclass
class PencilReduction:
    p1: list            # x-degree-indexed lambda-polynomials of P1
    d1: object          # UniPoly in lambda
    d2: object          # UniPoly in lambda
    qform: QForm
    solvability: object  # ConicProblem over Q, when applicable


def pencil_resultant(F, pencil, fld):
    """P(x, lambda) = Res_y(f, g_lambda), f = F(x, y, 1), as a
    lambda-degree-indexed list of x-polynomials: a hybrid Bezout
    determinant of TriPolys in (x, lambda), with the sign that
    pencil_reduce's docstring derives."""
    f_rows = [{} for _ in range(max(e[1] for e in F.terms) + 1)]
    for (ex, ey, _ez), c in F.terms.items():
        row = f_rows[ey]
        row[(ex, 0, 0)] = fld.add(row.get((ex, 0, 0), fld.zero), c)
    f_rows = [TriPoly(fld, row) for row in f_rows]
    g_rows = [TriPoly(fld, {(i, k, 0): c
                            for k, g in enumerate((pencil.g0, pencil.g1))
                            if j < len(g) for i, c in enumerate(g[j].coeffs)})
              for j in range(max(len(pencil.g0), len(pencil.g1)))]
    mu, d = len(g_rows) - 1, len(f_rows) - 1
    if mu > d:
        raise ConicError("the pencil has a larger y-degree than the sextic")
    P = determinant(hybrid_bezout(g_rows, f_rows))
    if (mu * (mu - 1) // 2 + mu * d) % 2:
        P = -P
    if P.is_zero():
        raise ConicError("the pencil resultant vanishes identically")
    return [UniPoly(fld, [P.terms.get((i, j, 0), fld.zero)
                          for i in range(max(e[0] for e in P.terms) + 1)])
            for j in range(max(e[1] for e in P.terms) + 1)]


def pencil_reduce(F, pencil, fld):
    """Resultant of the sextic with the cubic pencil, split off the known
    basepoint factor, and reduce to the diagonal conic.

    F is the homogeneous sextic (TriPoly over fld); `pencil` carries g0, g1
    (y-coefficient lists of x-polynomials for g_lambda = g0 + lambda*g1) and
    the basepoint divisor of Res_y.  Returns a PencilReduction whose d1 has
    degree two; the multiplicity-split of Discr_x P1 follows Yun, with the
    leading constant split into squarefree * square over Q.

    The resultant.  Let d and mu be the formal y-degrees of f = F(x, y, 1)
    and g_lambda.  P(x, lambda) = Res_y(f, g_lambda) is a polynomial
    identity in the coefficients, so it is a determinant of TriPolys in
    (x, lambda) with no evaluation grid: that of the hybrid Bezout matrix
    of g_lambda against f, of size d (polynomial.hybrid_bezout).  That
    determinant is (-1)^(mu(mu-1)/2) Res_y(g_lambda, f), and
    Res_y(g_lambda, f) = (-1)^(mu d) Res_y(f, g_lambda).  The corpus pencils
    have mu = 2 and d = 4: a 4 x 4 matrix, 16 memoized minors, and
    P = -det.
    """
    p_by_lambda = pencil_resultant(F, pencil, fld)
    # divide by the basepoint factor: P(x, lambda) = P1 * P2(x)
    try:
        p1_by_lambda = [pj.exact_div(pencil.basepoint) if not pj.is_zero()
                        else pj for pj in p_by_lambda]
    except InexactDivision as exc:
        raise ConicError(
            "the declared basepoint factor does not divide the resultant"
        ) from exc
    deg_x_p1 = max(pj.degree for pj in p1_by_lambda if not pj.is_zero())
    if deg_x_p1 != 2:
        raise ConicError(
            "P1 has x-degree %d; the pencil is not a double covering"
            % deg_x_p1
        )
    # P1 = A(lambda) x^2 + B(lambda) x + C(lambda)
    abc = []
    for i in range(3):
        vals = [pj.coeff(i) for pj in p1_by_lambda]
        abc.append(UniPoly(fld, vals))
    C_, B_, A_ = abc
    disc = B_ * B_ - A_ * C_.scale(fld.from_int(4))
    lead, odd, even = squarefree_odd_even_split(disc)
    if odd.degree != 2:
        raise ConicError(
            "the odd-multiplicity part of the discriminant has degree %d, "
            "expected two branch points" % odd.degree
        )
    if fld == QQ:
        s, c, _ = _squarefree_split(lead)
        d1 = odd.scale(fld.from_int(s))
        d2 = even.scale(fld.from_rat(c))
    else:
        d1 = odd.scale(lead)
        d2 = even
    # Q(u, v) = Discr_lambda(d1 - u^2) - v^2 for d1 = al^2 + bl + c:
    # (b^2 - 4ac) + 4a u^2 - v^2
    aa, bb, cc = d1.coeff(2), d1.coeff(1), d1.coeff(0)
    u_coeff = fld.scalar_mul(Rat(4), aa)
    const = fld.sub(
        fld.mul(bb, bb), fld.mul(fld.scalar_mul(Rat(4), aa), cc)
    )
    qform = QForm(u_coeff=u_coeff, const=const, field=fld)
    solv = None
    if fld == QQ and not fld.is_zero(const):
        solv = conic_solvable_over_q(u_coeff, const)
    return PencilReduction(
        p1=[C_, B_, A_], d1=d1, d2=d2, qform=qform, solvability=solv
    )


def verify_pencil_basepoints(rec):
    """The pencil passes through the eight assigned double points: the
    pullback of every member to the parameter line vanishes to the expected
    orders, with residual intersection degree exactly two."""
    fld = rec.field
    pencil = rec.pencil
    x, y, z = rec.curve.components()

    def pullback(g_rows):
        # the cubic whose y-degree-j row is an x-polynomial, at (x : y : z)
        terms = {(i, j): c for j, row in enumerate(g_rows)
                 for i, c in enumerate(row.coeffs)}
        if any(i + j > 3 for i, j in terms):
            raise ConicError("pencil member is not a cubic")
        return homogenize_xy(fld, terms, 3).substitute(
            (x, y, z), lambda c: UniPoly.const(fld, c))

    rows0 = [r.map_field(fld) for r in rec.pencil.g0]
    rows1 = [r.map_field(fld) for r in rec.pencil.g1]
    report = {"ok": True}

    # the quadratic whose roots carry the paired even singularities, and the
    # expected local orders, per record
    if rec.id == 36:
        quad = rec.even_claims[0].location.poly
        expect = {"zero_order": 4, "infinity_order": 4, "quad_power": 2}
        values = [rec.even_claims[1].location.value,
                  rec.even_claims[2].location.value]
    elif rec.id == 34:
        quad = rec.even_claims[0].location.poly
        expect = {"zero_order": 4, "infinity_order": 4, "quad_power": 4}
        values = []
    else:
        raise ConicError("no pencil data for record %d" % rec.id)

    for tag, rows in (("g0", rows0), ("g1", rows1)):
        u = pullback(rows)
        checks = {}
        ord0 = next(
            (i for i in range(u.degree + 1) if not fld.is_zero(u.coeff(i))),
            None,
        )
        checks["order_at_zero"] = ord0
        checks["order_at_infinity"] = 18 - u.degree
        quo = u
        ok = (
            ord0 is not None
            and ord0 >= expect["zero_order"]
            and 18 - u.degree >= expect["infinity_order"]
        )
        try:
            for _ in range(expect["quad_power"]):
                quo = quo.exact_div(quad)
            checks["quadratic_power_divides"] = True
        except InexactDivision:
            checks["quadratic_power_divides"] = False
            ok = False
        for v in values:
            lin = UniPoly(fld, (fld.neg(v), fld.one))
            try:
                quo2 = u.exact_div(lin * lin)
                checks.setdefault("value_orders", []).append(2)
            except InexactDivision:
                checks.setdefault("value_orders", []).append(0)
                ok = False
        report[tag] = checks
        report["ok"] = report["ok"] and ok

    # residual degree: generic member meets the curve twice off the basepoints
    generic = [r0 + r1 for r0, r1 in zip(rows0, rows1)]
    u = pullback(generic)
    forced = (
        expect["zero_order"] + expect["infinity_order"]
        + expect["quad_power"] * quad.degree + 2 * len(values)
    )
    report["residual_degree"] = 18 - forced
    report["ok"] = report["ok"] and (18 - forced == 2)
    return report


# ----------------------------------------------------------------------
# fixed verifications for the two non-rational conics


def verify_case34_obstruction():
    """Exact replay of the integral congruence argument over Q(sqrt(-7)).

    Every sub-assertion is checked in exact arithmetic; the trace records
    each one.  The conclusion: pi X^2 + a Y^2 = 1 has no point over the
    field, because any integral solution of the reduced congruence
    6 X^2 + 5 Y^2 = Z^2 mod 8 has X, Y, Z all even, contradicting
    primitivity since pi divides 2.
    """
    F = build_tower([("a", [7, 0, 1])])
    a = generator(F)
    pi = (1 - a) / 2
    checks = {}

    def put(name, ok, detail=""):
        checks[name] = {"ok": bool(ok), "detail": detail}

    put("pi4_minus_3pi3_is_8", (pi**4 - 3 * pi**3) == 8)
    put("pi_is_minus_2_minus_pi3", pi == -2 - pi**3)
    put("a_is_1_minus_2pi", a == 1 - 2 * pi)
    put("two_is_pi_minus_pi2", (pi - pi**2) == 2)

    # integral basis (1, pi): e0 + e1 a = (e0 + e1) - 2 e1 pi
    def in_pi_basis(elem):
        e0, e1 = F.coords(elem.rep)
        return e0 + e1, -2 * e1

    named = {"pi": pi, "a": a, "pi3": pi**3, "pi4": pi**4}
    basis = {e: in_pi_basis(v) for e, v in named.items()}
    put("pi_basis_coordinates_integral",
        all(c.denominator == 1 for xy in basis.values() for c in xy),
        "pi, a, pi^3 and pi^4 in the basis (1, pi)")
    # exact below: a fractional coordinate has already failed the report
    basis = {e: (int(x), int(y)) for e, (x, y) in basis.items()}
    r3, r4 = basis["pi3"], basis["pi4"]
    det = abs(r3[0] * r4[1] - r3[1] * r4[0])
    d1 = gcd(*r3, *r4)
    put(
        "quotient_is_Z8",
        det == 8 and d1 == 1,
        "index %d, first invariant factor %d (cyclic iff 1)" % (det, d1),
    )

    def residue_mod8(e):
        xx, yy = basis[e]
        return (xx + 6 * yy) % 8

    put("ideal_generators_vanish_mod8",
        residue_mod8("pi3") == 0 and residue_mod8("pi4") == 0)
    put("pi_residue_is_6", residue_mod8("pi") == 6,
        "pi = %d mod pi^3" % residue_mod8("pi"))
    put("a_residue_is_5", residue_mod8("a") == 5,
        "a = %d mod pi^3" % residue_mod8("a"))

    squares = sorted({(k * k) % 8 for k in range(8)})
    put("squares_mod_8", squares == [0, 1, 4], str(squares))

    all_even = True
    count = 0
    for X in range(8):
        for Y in range(8):
            for Z in range(8):
                if (6 * X * X + 5 * Y * Y - Z * Z) % 8 == 0:
                    count += 1
                    if X % 2 or Y % 2 or Z % 2:
                        all_even = False
    put("congruence_solutions_all_even", all_even,
        "%d solutions of 6X^2+5Y^2=Z^2 mod 8, all with X, Y, Z even" % count)

    ok = all(c["ok"] for c in checks.values())
    return {
        "ok": ok,
        "conclusion": "pi X^2 + a Y^2 = 1 has no solution over Q(sqrt(-7))"
                      if ok else "argument did not verify",
        "checks": checks,
    }


def verify_case24_solution(rec):
    """The printed witness satisfies the printed diagonal conic exactly and
    is nontrivial."""
    if rec.conic_reduction is None:
        raise ConicError("record %d has no conic data" % rec.id)
    fld = rec.field
    eq = rec.conic_reduction["equation"]
    sol = rec.conic_reduction["solution"]
    acc = fld.zero
    for c, v in zip(eq, sol):
        acc = fld.add(acc, fld.mul(c, fld.mul(v, v)))
    nontrivial = any(not fld.is_zero(v) for v in sol)
    return fld.is_zero(acc) and nontrivial
