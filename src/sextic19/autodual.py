"""Dual-curve singularity certification for the autodual classes.

The three corpus classes with five singular points have duals of degree six
again, with the same singularity multiset.  The dual is parametrized by the
same parameter, so its claims can be discovered rather than guessed:

  * a one-branch A_2k point of the curve with k >= 2 dualizes to a
    one-branch point at the same parameter;
  * an A_2 cusp dualizes to an inflection (smooth) and contributes nothing,
    while an inflection of the curve dualizes to an A_2 cusp of the dual,
    so the dual's A_2 parameters are the curve's inflection parameters:
    they are read off the gcd of the dual's Wronskian minors after the
    transported parameters are divided out;
  * a two-branch A_n with n >= 3 has tangent branches: both branches map to
    the shared tangent line, so the dual's odd point keeps the same
    parameter pair, while an A_1 (transverse branches) contributes nothing
    and the dual's A_1 comes from the bitangent pair, found by fitting the
    Moebius reparametrization that matches the dual's discovered claim
    locations to the original ones.

Discovery is heuristic; the certificate that follows is exact.
"""

from .curve import ParameterLocation, dual, wronskian_minors
from .numberfield import adjoin_root
from .polynomial import InexactDivision, UniPoly
from .singularity import SingularityClaim, SingularityType, certify


class AutodualError(Exception):
    pass


def dual_degree_law(rec):
    """deg(dual) together with the predicted 30 - 19 - #Sing."""
    d = dual(rec.curve)
    predicted = 30 - 19 - rec.singular_point_count()
    return d.degree, predicted


def _divide_location_factor(g, loc, fld):
    if loc.kind == "value":
        lin = UniPoly(fld, (fld.neg(loc.value), fld.one))
        return g.exact_div(lin)
    if loc.kind == "roots":
        return g.exact_div(loc.poly.monic())
    if loc.kind == "infinity":
        return g
    raise AutodualError("unexpected transported location kind %r" % loc.kind)


def _roots_to_locations(poly, fld):
    """A squarefree polynomial of degree <= 2 as claim locations: one value
    per root when `adjoin_root` finds its roots in fld, else its roots."""
    if poly.degree == 0:
        return []
    ext, roots = adjoin_root(fld, list(poly.coeffs))
    if ext == fld:
        return [ParameterLocation.at_value(r) for r in roots]
    return [ParameterLocation.at_roots(poly)]


def discover_dual_claims(rec, dual_curve):
    """Claim list for the dual of an autodual-record curve."""
    fld = rec.field
    transported = [
        c for c in rec.even_claims if c.stype.n >= 4
    ]
    needed_a2 = sum(1 for n in rec.multiset if n == 2)

    _comps, g = wronskian_minors(dual_curve)
    quotient = g.monic()
    for claim in transported:
        try:
            quotient = _divide_location_factor(quotient, claim.location, fld)
        except InexactDivision as exc:
            raise AutodualError(
                "transported parameter is not critical on the dual: %s" % exc
            )
    inflection_poly = quotient
    a2_locations = _roots_to_locations(inflection_poly, fld)
    a2_point_total = sum(loc.point_count() for loc in a2_locations)
    if a2_point_total + 1 == needed_a2:
        a2_locations.append(ParameterLocation.at_infinity())
        a2_point_total += 1
    if a2_point_total != needed_a2:
        raise AutodualError(
            "found %d dual cusp parameters, expected %d"
            % (a2_point_total, needed_a2)
        )

    odd_n = rec.odd_claim.stype.n
    if odd_n >= 3:
        odd_location = rec.odd_claim.location
    else:
        odd_location = _fit_odd_pair(rec, transported, a2_locations)

    claims = [SingularityClaim(SingularityType(odd_n), odd_location)]
    for claim in transported:
        claims.append(SingularityClaim(claim.stype, claim.location))
    for loc in a2_locations:
        claims.append(SingularityClaim(SingularityType(2), loc))
    return claims


def _conjugations(fld):
    """Field automorphisms to try when matching the dual against the
    original: the identity always, plus the nontrivial automorphism of a
    quadratic field (the dual may be equivalent to the conjugate model)."""
    yield lambda rep: rep
    if fld.degree == 2:
        base, b1 = fld.base, fld.modulus[1]

        def sigma(rep):
            # g -> -b1 - g, the other root of g^2 + b1 g + b0
            c0, c1 = fld.coords(rep)
            return fld.from_coords((base.sub(c0, base.mul(c1, b1)),
                                    base.neg(c1)))

        yield sigma


def _fit_odd_pair(rec, transported, a2_locations):
    """Location of the dual's A_1 pair: fit the affine reparametrization
    matching the dual's claim locations to the original's (possibly Galois
    conjugated) and pull the original's odd quadratic back through it.

    The dual shares every transported parameter with the original, so the
    map fixes infinity and sends each transported value v to sigma(v); the
    remaining degree of freedom is solved from the A_2 matching and the fit
    is then verified on every constraint.
    """
    fld = rec.field

    def conj_poly(sigma, poly):
        return UniPoly(fld, [sigma(c) for c in poly.coeffs])

    fixed_vals = []
    fixed_inf = False
    trans_quads = []
    for claim in transported:
        loc = claim.location
        if loc.kind == "value":
            fixed_vals.append(loc.value)
        elif loc.kind == "infinity":
            fixed_inf = True
        elif loc.kind == "roots":
            trans_quads.append(loc.poly.monic())
    orig_a2 = [c.location for c in rec.even_claims if c.stype.n == 2]
    if not fixed_inf:
        raise AutodualError("odd-pair fit expects a fixed point at infinity")

    p = rec.odd_claim.location.poly
    for sigma in _conjugations(fld):
        target_vals = [(v, sigma(v)) for v in fixed_vals]
        target_quads = [(q, conj_poly(sigma, q).monic()) for q in trans_quads]
        target_a2_vals = [sigma(l.value) for l in orig_a2 if l.kind == "value"]
        target_a2_quads = [conj_poly(sigma, l.poly).monic()
                           for l in orig_a2 if l.kind == "roots"]
        candidates = _affine_candidates(
            fld, target_vals, target_quads, a2_locations,
            target_a2_vals, target_a2_quads,
        )
        for alpha, beta in candidates:
            if fld.is_zero(alpha):
                continue
            if _check_affine_fit(fld, alpha, beta, target_vals, target_quads,
                                 a2_locations, target_a2_vals,
                                 target_a2_quads):
                lin = UniPoly(fld, (beta, alpha))
                pulled = conj_poly(sigma, p).compose(lin)
                return ParameterLocation.at_roots(pulled.monic())
    raise AutodualError("no affine reparametrization fits the dual claims")


def _affine_candidates(fld, target_vals, target_quads, a2_locations,
                       target_a2_vals, target_a2_quads):
    """Candidate (alpha, beta) for m(t) = alpha t + beta."""
    out = []
    # two pinned values determine the map outright
    if len(target_vals) >= 2:
        (u1, w1), (u2, w2) = target_vals[0], target_vals[1]
        den = fld.sub(u1, u2)
        if not fld.is_zero(den):
            alpha = fld.div(fld.sub(w1, w2), den)
            out.append((alpha, fld.sub(w1, fld.mul(alpha, u1))))
    # one pinned value; alpha from matching a quadratic pair:
    # q(alpha t + beta) proportional to r with beta = w - alpha u gives
    # alpha (r1 + 2u) = q1 + 2w for monic q, r
    if len(target_vals) == 1:
        u, w = target_vals[0]
        quad_pairs = list(target_quads) + [
            (r.poly.monic(), q)
            for r in a2_locations if r.kind == "roots"
            for q in target_a2_quads
        ]
        for r, q in quad_pairs:
            den = fld.add(r.coeff(1), fld.scalar_mul(2, u))
            num = fld.add(q.coeff(1), fld.scalar_mul(2, w))
            if not fld.is_zero(den):
                alpha = fld.div(num, den)
                out.append((alpha, fld.sub(w, fld.mul(alpha, u))))
    # value-to-value A_2 matching combined with an invariant quadratic
    for dloc in a2_locations:
        if dloc.kind != "value":
            continue
        for w in target_a2_vals:
            u = dloc.value
            for _r, q in target_quads:
                den = fld.add(q.coeff(1), fld.scalar_mul(2, u))
                num = fld.add(q.coeff(1), fld.scalar_mul(2, w))
                if not fld.is_zero(den):
                    alpha = fld.div(num, den)
                    out.append((alpha, fld.sub(w, fld.mul(alpha, u))))
    return out


def _check_affine_fit(fld, alpha, beta, target_vals, target_quads,
                      a2_locations, target_a2_vals, target_a2_quads):
    def mval(t):
        return fld.add(fld.mul(alpha, t), beta)

    lin = UniPoly(fld, (beta, alpha))
    for u, w in target_vals:
        if not fld.eq(mval(u), w):
            return False
    for r, q in target_quads:
        # m maps roots of r to roots of q: q(m(t)) proportional to r(t)
        if not q.compose(lin).monic() == r.monic():
            return False
    for dloc in a2_locations:
        if dloc.kind == "value":
            img = mval(dloc.value)
            if not any(fld.eq(img, w) for w in target_a2_vals):
                return False
        elif dloc.kind == "roots":
            comp_ok = any(
                q.compose(lin).monic() == dloc.poly.monic()
                for q in target_a2_quads
            )
            if not comp_ok:
                return False
        else:
            return False
    return True


def certify_autodual(rec):
    """Dual degree six plus a full certificate for the dual's discovered
    claims; reports whether the certified multiset equals the original."""
    dual_curve = dual(rec.curve)
    report = {"id": rec.id, "dual_degree": dual_curve.degree}
    if dual_curve.degree != 6:
        report["ok"] = False
        report["error"] = "dual degree %d" % dual_curve.degree
        return report
    try:
        claims = discover_dual_claims(rec, dual_curve)
    except AutodualError as exc:
        report["ok"] = False
        report["error"] = str(exc)
        return report
    cert = certify(dual_curve, claims, curve_id="dual of %d" % rec.id)
    dual_multiset = []
    for c in claims:
        dual_multiset.extend([c.stype.n] * c.point_count())
    report["certificate"] = cert.to_dict()
    report["dual_multiset"] = sorted(dual_multiset, reverse=True)
    report["multiset_equal"] = sorted(dual_multiset) == sorted(rec.multiset)
    report["ok"] = bool(cert.passed and report["multiset_equal"])
    return report
