"""Local classification of parametrized curve singularities and the
per-curve certificate.

Every corpus point is a double point: either one branch of type A_even
(classified from the multiplicity-two normal form, using only field
divisions) or two smooth branches of type A_odd (classified by the contact
order of the branches).  A certificate combines the per-claim local checks
with three global ones: the delta invariants of the claims add up to ten
(the budget), the parametrization is birational onto a sextic, and the
claims name pairwise disjoint parameters.

Soundness of the global checks.  Birationality and the degree of the
image come from `curve.image_degree`, which builds no implicit equation
when it need not: one fiber gcd of degree one certifies map degree one and
coprime components, and then the image has the degree n of the components
(see Image degree in the curve module).  Any other curve goes to
`curve.implicitize`, which builds the implicit equation.  A birational
parametrization identifies the parameters with the branches of the image,
and by the genus formula a rational sextic has sum_p delta(p) = 10.  By
the delta formula delta(p) = sum delta(B) + sum I(B, B') over the branches
B at p, with I(B, B') >= 1, that sum is at least the claimed total, plus 1
for every two branches through one point other than the two of one A_odd
claim, plus delta(p) >= 1 at every unclaimed singular point.  Disjoint
parameters make the claimed branches distinct, so a budget of ten forces
the claimed points to be pairwise distinct, with no unclaimed branch
through them and no unclaimed singularity.  `points_distinct` reports
distinctness only where all of these facts are certified.

Distinct parameters.  The claims name pairwise distinct parameters when
infinity is named at most once and the product P of t - t0 over the finite
parameters and of q over the `roots` locations is squarefree, that is,
gcd(P, P') = 1 over the curve's field.  The test first reduces each factor
at the field's place (see the modp module).  When every factor's leading
coefficient has a nonzero image, P keeps its degree mod p, so the gcd of
the reduced P and P' has degree at least deg gcd(P, P'), and a gcd of one
mod p certifies P squarefree.  Otherwise the exact gcd decides.
`certify` reports the prime of each certificate taken mod p, for the map
degree and for distinctness, and None where the exact gcd ran.

Resolution.  `verify_claim` runs three stages per claim, and a failure
names its stage.  `resolve` (ParameterLocation.resolve) turns the location
into parameters once, adjoining a root of a `roots` polynomial where none
lies in the curve's field; a claim it refuses names no point and counts
toward no total.  `evaluate` builds one germ per parameter
(RationalPlaneCurve.germ): the expansions of x, y and z around it and
their normalized image point.  The germ points are the claim's points; a
parameter where every component vanishes has no germ, and its claim names
no point.  `classify` runs the classifier on the germs.  Every pass
truncates the same germs, and the two-branch classifier compares their
points, which are canonical, by equality.  With a root adjoined, an even
claim is classified at that root only: an automorphism over the curve's
field maps the expansions at one root to those at a conjugate term by
term, so the classifier sees the same orders, and the same type, at every
conjugate.

Truncation.  Both classifiers read one order off truncated series: the
contact order i of two smooth branches (A_(2i-1)) or the first odd order
2k+1 of a one-branch double point (A_2k).  Each rewrites one coordinate in
powers of another by peeling (TruncatedSeries.in_powers_of), one leading
term at a time with an exact product, difference and division, so peeling
is exact below the truncation, like every other series operation.  An
order the classifier sees is therefore the exact order, and the truncation
only decides when to stop looking.  A classifier makes at most two passes:

- the smallest truncation that shows the claimed order: i + 1 for a claimed
  A_(2i-1), and 2k + 2 for a claimed A_2k;
- if that pass cannot see the order, one pass at the genus bound
  g = (d-1)(d-2)/2 of a parametrization of degree d: g + 1 for two
  branches, 2g + 2 for one branch.

The bound suffices.  The image of the map is irreducible of degree at most
d, so the delta invariant of any of its points is at most g.  By the delta
formula delta(p) = sum delta(B) + sum I(B, B') over the branches B at p,
two smooth branches have contact i = I(B1, B2) <= delta(p) <= g, and a
double-point branch whose first odd order is 2k + 1 has delta(B) = k <= g,
so 2k + 1 <= 2g + 1.  An order still unseen at the bound is therefore
infinite: the two parameters trace one branch of the image, or the branch
at one parameter is traced twice, which happens only when the map is not
birational.  The classifier then raises SingularityError and the claim
fails.
"""

import time

from . import modp
from .curve import CurveError, image_degree
from .numberfield import FieldError, plist_quotients
from .polynomial import PolynomialError, UniPoly, poly_gcd
from .series import SeriesError, TruncatedSeries


class SingularityError(Exception):
    pass


class TruncationExhausted(SingularityError):
    pass


# What the exact layers raise on input they cannot certify; `certify` turns
# these into FAIL verdicts and lets anything else (a bug) propagate.
_DOMAIN_ERRORS = (
    SingularityError, FieldError, SeriesError, PolynomialError, CurveError
)


class SingularityType:
    """The A_n type; mu = n, delta = ceil(n/2), one branch for even n and
    two smooth branches for odd n."""

    __slots__ = ("n",)

    def __init__(self, n):
        if n < 1:
            raise SingularityError("A_n requires n >= 1")
        self.n = n

    @property
    def mu(self):
        return self.n

    @property
    def delta(self):
        return (self.n + 1) // 2

    @property
    def branches(self):
        return 1 if self.n % 2 == 0 else 2

    def __eq__(self, other):
        return isinstance(other, SingularityType) and self.n == other.n

    def __repr__(self):
        return "A_%d" % self.n


class SingularityClaim:
    """A claimed type at a parameter location.  A `roots` location of
    degree g claims g conjugate singular points of the same type."""

    __slots__ = ("stype", "location")

    def __init__(self, stype, location):
        self.stype = stype
        self.location = location

    def point_count(self):
        if self.stype.n % 2 == 1:
            return 1
        return self.location.point_count()

    def __repr__(self):
        return "%r at %s" % (self.stype, self.location.kind)


# ----------------------------------------------------------------------
# local expansions


def _chart(f, point):
    """A chart where the point is finite: its last nonzero coordinate."""
    return next(i for i in (2, 1, 0) if not f.is_zero(point.coords[i]))


def _affine_branch(f, germ, trunc, chart):
    """Centered affine expansions (u(s), v(s)) of the branch of a germ,
    truncated at order trunc, in a chart where its point is finite: the two
    other expansions divided by the chart's one, as series quotients that
    share one inverse of its nonzero constant term."""
    exps = [p.coeffs for p in germ.expansions]
    ratios = plist_quotients(f, [exps[i] for i in range(3) if i != chart],
                             exps[chart], trunc)
    return tuple(TruncatedSeries(f, [f.zero] + r[1:], trunc) for r in ratios)


def _genus_bound(curve):
    """(d-1)(d-2)/2: the largest delta invariant a point of the image of a
    degree-d parametrization can have."""
    d = curve.degree
    return (d - 1) * (d - 2) // 2


def _classify(once, curve, where, claim_trunc, bound_trunc):
    """Run `once` at the claim's truncation and, if that cannot see the
    order, once more at the genus bound (see the module docstring)."""
    truncs = [bound_trunc]
    if claim_trunc is not None and claim_trunc < bound_trunc:
        truncs.insert(0, claim_trunc)
    for trunc in truncs:
        try:
            return once(curve, where, trunc)
        except TruncationExhausted:
            pass
    raise TruncationExhausted(
        "order unseen at the genus bound (truncation %d): the branches "
        "coincide, so the parametrization is not birational" % bound_trunc
    )


def branch_type_at(curve, germ, claimed=None):
    """A_even index of the one-branch double point of a germ of the curve.

    Expands the branch in an affine chart, takes a coordinate u of order
    two, and peels the other coordinate against powers of u
    (TruncatedSeries.in_powers_of); the first odd order 2k+1 it cannot peel
    gives A_2k.  Raises if the branch is smooth or has multiplicity greater
    than two.  A `claimed` A_n index sizes the first pass.
    """
    return _classify(
        _branch_type_once, curve, germ,
        None if claimed is None else claimed + 2,
        2 * _genus_bound(curve) + 2,
    )


def _branch_type_once(curve, germ, trunc):
    f = curve.field
    u, v = _affine_branch(f, germ, trunc, _chart(f, germ.point))
    ou, ov = u.order(), v.order()
    if ou is None and ov is None:
        raise SingularityError(
            "branch multiplicity exceeds two (no term below order %d)" % trunc
        )
    if (ou is not None and ou == 1) or (ov is not None and ov == 1):
        raise SingularityError("branch is smooth at the parameter")
    if ou is None or (ov is not None and ov < ou):
        u, v = v, u
        ou, ov = ov, ou
    if ou != 2:
        raise SingularityError(
            "branch multiplicity exceeds two (leading order %s)" % ou
        )
    stop = v.in_powers_of(u)[1]
    if stop is None:
        raise TruncationExhausted("order query hit the truncation")
    return SingularityType(stop - 1)


def two_branch_type(curve, germs, claimed=None):
    """A_odd index of the double point whose two smooth branches are the two
    germs `germs` of the curve.

    The second branch is rewritten as a graph v = h(u) by peeling its v
    against its u (TruncatedSeries.in_powers_of), and the intersection
    order i of the first branch with that graph gives A_(2i-1).  A
    `claimed` A_n index sizes the first pass.
    """
    if len(germs) != 2:
        raise SingularityError("two-branch location must have two parameters")
    return _classify(
        _two_branch_once, curve, germs,
        None if claimed is None else (claimed + 1) // 2 + 1,
        _genus_bound(curve) + 1,
    )


def _two_branch_once(curve, germs, trunc):
    f = curve.field
    g1, g2 = germs
    if not g1.point.same_point(g2.point):
        raise SingularityError("the two parameters map to different points")
    # equal points have equal zero patterns, so the chart chosen from the
    # first point is valid for the second as well
    chart = _chart(f, g1.point)
    u1, v1 = _affine_branch(f, g1, trunc, chart)
    u2, v2 = _affine_branch(f, g2, trunc, chart)
    # branch 1 and branch 2 are centered at the same affine point since the
    # images agree and the chart normalizes the denominator coordinate
    for u, v in ((u1, v1), (u2, v2)):
        ou, ov = u.order(), v.order()
        if not (ou == 1 or ov == 1):
            raise SingularityError("a branch is not smooth at the pair")
    if u2.order() != 1:
        u1, v1 = v1, u1
        u2, v2 = v2, u2
    h = v2.in_powers_of(u2)[0]      # v2 = h(u2)
    w = v1 - h.compose(u1)
    i = w.order()
    if i is None:
        raise TruncationExhausted("intersection order hit the truncation")
    return SingularityType(2 * i - 1)


# ----------------------------------------------------------------------
# certificates


class ClaimVerdict:
    """`resolved` is False for a claim whose location `resolve` refused."""

    __slots__ = ("claim", "computed", "ok", "points", "detail", "where",
                 "resolved")

    def __init__(self, claim, computed, ok, points, where, detail="",
                 resolved=True):
        self.claim = claim
        self.computed = computed
        self.ok = ok
        self.points = points
        self.where = where
        self.detail = detail
        self.resolved = resolved

    def to_dict(self):
        return {
            "claimed": "A_%d" % self.claim.stype.n,
            "computed": ("A_%d" % self.computed.n) if self.computed else None,
            "location": self.where,
            "points": self.points,
            "point_count": self.claim.point_count(),
            "ok": self.ok,
            "detail": self.detail,
        }


class Certificate:
    def __init__(self, curve_id, verdicts, checks, passed, seconds):
        self.curve_id = curve_id
        self.verdicts = verdicts
        self.checks = checks
        self.passed = passed
        self.seconds = seconds

    def to_dict(self):
        return {
            "curve": self.curve_id,
            "passed": self.passed,
            "claims": [v.to_dict() for v in self.verdicts],
            "checks": self.checks,
            "seconds": round(self.seconds, 6),
        }


def verify_claim(curve, claim):
    """The verdict on one claim: resolve, evaluate and classify (see
    Resolution in the module docstring)."""
    where = claim.location.describe(curve.field)
    try:
        work, params = claim.location.resolve(curve)
    except _DOMAIN_ERRORS as exc:
        return ClaimVerdict(claim, None, False, [], where,
                            "resolve: %s" % exc, resolved=False)
    try:
        germs = [work.germ(t) for t in params]
    except _DOMAIN_ERRORS as exc:
        return ClaimVerdict(claim, None, False, [], where,
                            "evaluate: %s" % exc)
    try:
        computed = _classify_claim(claim, curve, work, germs)
        ok = computed == claim.stype
        detail = "" if ok else "computed %r" % computed
    except _DOMAIN_ERRORS as exc:
        computed = None
        ok = False
        detail = "classify: %s" % exc
    return ClaimVerdict(claim, computed, ok, [repr(g.point) for g in germs],
                        where, detail)


def _classify_claim(claim, curve, work, germs):
    """The type at the germs of the parameters that `resolve` gave over
    `work`."""
    n = claim.stype.n
    if n % 2 == 1:
        return two_branch_type(work, germs, claimed=n)
    if work.field != curve.field:
        germs = germs[:1]     # one root stands for its conjugates
    elif len(germs) != claim.point_count():
        raise SingularityError("an A_even claim needs one parameter per point")
    types = {branch_type_at(work, g, claimed=n).n for g in germs}
    if len(types) != 1:
        raise SingularityError(
            "conjugate points computed different types %s" % types)
    return SingularityType(types.pop())


def _squarefree_prime(field, factors):
    """The prime of the field's place where the product P of the coefficient
    lists `factors` reduces to a squarefree polynomial, each factor keeping
    its degree, or None (see Distinct parameters in the module docstring)."""
    reduced = modp.at_place(field, factors)
    if reduced is None:
        return None
    p, bars = reduced
    prod = [1]
    for bar in bars:
        if not bar or not bar[-1]:
            return None
        prod = modp.mul(prod, bar, p)
    if len(modp.gcd(prod, modp.derivative(prod, p), p)) > 1:
        return None
    return p


def claimed_points_distinct(curve, claims):
    """(distinct, p): distinct is True when the claims name pairwise
    distinct parameters, infinity at most once and the product P of t - t0
    over the finite values and pair entries and of q over the `roots`
    locations squarefree over the curve's field; p is the prime that
    certified P squarefree, None where the exact gcd ran.  No root is
    adjoined.  Distinct parameters give distinct points once every claim is
    certified, the delta budget closes and the image is a birational
    sextic (see the module docstring)."""
    f = curve.field
    factors = []
    infinities = 0
    for claim in claims:
        loc = claim.location
        if loc.kind == "roots":
            factors.append(loc.poly.coeffs)
            continue
        for t in loc.resolve(curve)[1]:
            if t == "inf":
                infinities += 1
            else:
                factors.append((f.neg(t), f.one))
    if infinities > 1:
        return False, None
    p = _squarefree_prime(f, factors)
    if p is not None:
        return True, p
    prod = UniPoly.one(f)
    for c in factors:
        prod = prod * UniPoly(f, c)
    # a zero `roots` polynomial makes poly_gcd raise
    return poly_gcd(prod, prod.derivative()).degree == 0, None


def certify(curve, claims, curve_id=None):
    """Certificate for a claims list against a parametrized curve.

    Each claim gets one `verify_claim` verdict.  A claim or check that the
    exact layers cannot complete fails with a detail naming its stage; it
    does not abort the certificate.  A claim whose location cannot be
    resolved names no points and counts toward no total, nor toward the
    distinctness test."""
    t_start = time.perf_counter()
    verdicts = [verify_claim(curve, claim) for claim in claims]
    counted = [v.claim for v in verdicts if v.resolved]
    all_ok = all(v.ok for v in verdicts)

    mu_total = sum(c.stype.mu * c.point_count() for c in counted)
    delta_total = sum(c.stype.delta * c.point_count() for c in counted)
    checks = {
        "milnor_total": mu_total,
        "milnor_total_ok": mu_total == 19,
        "delta_total": delta_total,
        "delta_total_ok": delta_total == 10,
    }
    map_prime = distinct_prime = None
    try:
        degree, mapdeg, map_prime = image_degree(curve)
        checks["implicit_degree"] = degree
        checks["map_degree"] = mapdeg
        checks["implicit_ok"] = degree == 6 and mapdeg == 1
    except _DOMAIN_ERRORS as exc:
        checks["implicit_ok"] = False
        checks["implicit_error"] = str(exc)
    try:
        distinct, distinct_prime = claimed_points_distinct(curve, counted)
    except _DOMAIN_ERRORS as exc:
        distinct = False
        checks["distinct_error"] = str(exc)
    # the primes that certified map degree one and distinct parameters
    # modulo a place, None where the exact gcd ran or the check failed
    checks["map_degree_prime"] = map_prime
    checks["distinct_prime"] = distinct_prime
    # disjoint parameters prove the points distinct only together with the
    # certified claims, the closed budget and the birational sextic image
    checks["points_distinct"] = (
        distinct and all_ok and checks["delta_total_ok"]
        and checks["implicit_ok"]
    )

    passed = (
        all_ok
        and checks["milnor_total_ok"]
        and checks["delta_total_ok"]
        and checks["points_distinct"]
        and checks["implicit_ok"]
    )
    return Certificate(
        curve_id, verdicts, checks, passed, time.perf_counter() - t_start
    )
