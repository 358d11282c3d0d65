"""Rational plane curves and their global geometric operations.

A curve is a triple (x(t), y(t), z(t)) of polynomials over a number field
with no common factor.  Implicitization runs the classical resultant
Res_t(x Z - z X, y Z - z Y) through an interpolation driver (every value it
ever computes is a univariate resultant over the coefficient field), strips
the pure Z-power and the scalar content, and certifies the degree.
"""

from .numberfield import adjoin_root
from .polynomial import (
    InterpolationMismatch,
    UniPoly,
    homogenize_xy,
    interpolate_bivariate,
    poly_gcd,
    resultant,
    squarefree_decomposition,
)
from .rationals import Rat


class CurveError(Exception):
    pass


class DegenerateCurve(CurveError):
    pass


class ProjectivePoint:
    """Point of P^2 over a field, normalized so the first nonzero
    coordinate is one."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        if all(field.is_zero(c) for c in coords):
            raise CurveError("projective point with all coordinates zero")
        lead = next(c for c in coords if not field.is_zero(c))
        inv = field.inv(lead)
        self.field = field
        self.coords = tuple(field.mul(inv, c) for c in coords)

    def same_point(self, other):
        """Equality via vanishing cross product (no normalization pitfalls)."""
        f = self.field
        a, b = self.coords, other.coords
        for i, j in ((0, 1), (0, 2), (1, 2)):
            if not f.eq(f.mul(a[i], b[j]), f.mul(a[j], b[i])):
                return False
        return True

    def __repr__(self):
        return "(%s)" % " : ".join(self.field.to_str(c) for c in self.coords)


class ParameterLocation:
    """Values of the parameter t carrying a singularity.

    kinds:
      value        one finite parameter (raw field element)
      infinity     t = infinity
      roots        all roots of a squarefree polynomial (degree 2 or 3);
                   one singular point per root
      pair         two parameters mapped to one point (each finite or 'inf')
    """

    __slots__ = ("kind", "value", "poly", "pair")

    def __init__(self, kind, value=None, poly=None, pair=None):
        self.kind = kind
        self.value = value
        self.poly = poly
        self.pair = pair

    @classmethod
    def at_value(cls, value):
        return cls("value", value=value)

    @classmethod
    def at_infinity(cls):
        return cls("infinity")

    @classmethod
    def at_roots(cls, poly):
        return cls("roots", poly=poly)

    @classmethod
    def at_pair(cls, t1, t2):
        return cls("pair", pair=(t1, t2))

    def point_count(self):
        if self.kind == "roots":
            return self.poly.degree
        return 1

    def parameters(self, field):
        """(field or an extension of it, [parameters]), 'inf' for infinity.

        Where no root lies in `field`, a `roots` location adjoins one and
        Galois equivariance covers its conjugates.  Roots in `field` must
        number point_count(): a check of some roots of a reducible
        polynomial says nothing of the others.
        """
        if self.kind == "value":
            return field, [self.value]
        if self.kind == "infinity":
            return field, ["inf"]
        if self.kind == "pair":
            return field, list(self.pair)
        ext, roots = adjoin_root(field, list(self.poly.coeffs))
        if ext == field and len(roots) != self.point_count():
            raise CurveError(
                "%s has %d of its %d roots in the field; claim each factor "
                "separately" % (self.poly.to_str(), len(roots),
                                self.point_count()))
        return ext, roots

    def describe(self, field):
        if self.kind == "value":
            return "t = %s" % field.to_str(self.value)
        if self.kind == "infinity":
            return "t = inf"
        if self.kind == "roots":
            return "roots of %s" % self.poly.to_str()
        a, b = self.pair
        sa = "inf" if a == "inf" else field.to_str(a)
        sb = "inf" if b == "inf" else field.to_str(b)
        return "t in {%s, %s}" % (sa, sb)


class MoebiusMap:
    """t -> (a t + b) / (c t + d) with ad - bc != 0 over a field."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field, a, b, c, d):
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if field.is_zero(det):
            raise CurveError("Moebius map is singular")
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def from_ints(cls, field, a, b, c, d):
        return cls(field, *(field.from_int(v) for v in (a, b, c, d)))

    def __repr__(self):
        f = self.field
        return "t -> (%s*t + %s)/(%s*t + %s)" % tuple(
            f.to_str(v) for v in (self.a, self.b, self.c, self.d)
        )


class ProjectiveMap:
    """Invertible 3x3 matrix acting on (x : y : z)."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        if field.is_zero(self.det()):
            raise CurveError("projective map is singular")

    @classmethod
    def from_ints(cls, field, rows):
        return cls(field, [[field.from_int(v) for v in r] for r in rows])

    def det(self):
        f = self.field
        m = self.rows
        out = f.zero
        for j, sgn in ((0, 1), (1, -1), (2, 1)):
            minor = f.sub(
                f.mul(m[1][(j + 1) % 3], m[2][(j + 2) % 3]),
                f.mul(m[1][(j + 2) % 3], m[2][(j + 1) % 3]),
            )
            term = f.mul(m[0][j], minor)
            out = f.add(out, term) if sgn > 0 else f.sub(out, term)
        return out

    def inverse(self):
        f = self.field
        m = self.rows
        det = self.det()
        cof = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                a = m[(i + 1) % 3][(j + 1) % 3]
                b = m[(i + 1) % 3][(j + 2) % 3]
                c = m[(i + 2) % 3][(j + 1) % 3]
                d = m[(i + 2) % 3][(j + 2) % 3]
                cof[j][i] = f.div(f.sub(f.mul(a, d), f.mul(b, c)), det)
        return ProjectiveMap(f, cof)


class RationalPlaneCurve:
    """Parametrized plane curve (x(t) : y(t) : z(t)) over a number field."""

    def __init__(self, field, x, y, z, degree=None, check=True):
        self.field = field
        self.x, self.y, self.z = x, y, z
        maxdeg = max(x.degree, y.degree, z.degree)
        self.degree = maxdeg if degree is None else degree
        if check:
            if x.is_zero() and y.is_zero() and z.is_zero():
                raise DegenerateCurve("all components vanish")
            if self.degree != maxdeg:
                raise CurveError(
                    "declared degree %d but components have degree %d"
                    % (self.degree, maxdeg)
                )
            g = poly_gcd(x, poly_gcd(y, z))
            if g.degree > 0:
                raise CurveError("components share the factor %s" % g.to_str())

    def components(self):
        return (self.x, self.y, self.z)

    def map_field(self, new_field):
        if new_field == self.field:
            return self
        return RationalPlaneCurve(
            new_field,
            self.x.map_field(new_field),
            self.y.map_field(new_field),
            self.z.map_field(new_field),
            degree=self.degree,
            check=False,
        )

    def evaluate_at(self, t):
        """Image point at a parameter of self.field, or at 'inf'."""
        if t == "inf":
            coords = [c.coeff(self.degree) for c in self.components()]
        else:
            coords = [c.eval(t) for c in self.components()]
        return ProjectivePoint(self.field, coords)

    def evaluate(self, location):
        """Image point(s) for a ParameterLocation.

        Returns a list of (field, point) pairs, one per parameter; a `roots`
        location over an irreducible polynomial gives its points over the
        extension field.
        """
        ext, params = location.parameters(self.field)
        lifted = self.map_field(ext)
        return [(ext, lifted.evaluate_at(t)) for t in params]

    def apply_projective(self, pmap):
        f = self.field
        comps = self.components()
        new = []
        for i in range(3):
            acc = UniPoly.zero(f)
            for j in range(3):
                acc = acc + comps[j].scale(pmap.rows[i][j])
            new.append(acc)
        return RationalPlaneCurve(f, *new, check=False)

    def __repr__(self):
        return "curve of degree %d over %r" % (self.degree, self.field)


# ----------------------------------------------------------------------
# implicitization


def _interp_grid(field, count, bad):
    """`count` small-integer field values avoiding the predicate `bad`."""
    out = []
    k = 0
    while len(out) < count:
        v = field.from_int(k)
        if not bad(v):
            out.append(v)
        k += 1
        if k > 20 * count + 20:
            raise CurveError("could not build an interpolation grid")
    return out


def implicitize(curve, expected_degree=None):
    """Implicit equation of the image, primitive and content-normalized.

    Returns (F, mapdeg) where F is the homogeneous TriPoly cut out by the
    image and mapdeg is the degree of the parametrization onto it; for the
    corpus curves mapdeg must be 1 (birational) and deg F must be six.
    """
    f = curve.field
    x, y, z = curve.components()
    da = max(x.degree, z.degree)
    db = max(y.degree, z.degree)
    if da <= 0 or db <= 0:
        raise DegenerateCurve("image is a point")
    xa, za = x.coeff(da), z.coeff(da)
    yb, zb = y.coeff(db), z.coeff(db)

    def bad_x(v):
        return f.is_zero(f.sub(xa, f.mul(za, v)))

    def bad_y(v):
        return f.is_zero(f.sub(yb, f.mul(zb, v)))

    xs = _interp_grid(f, db + 1, bad_x)
    ys = _interp_grid(f, da + 1, bad_y)
    checks = zip(_interp_grid(f, db + 3, bad_x)[-2:],
                 _interp_grid(f, da + 3, bad_y)[-2:])

    def res_at(xv, yv):
        return resultant(x - z.scale(xv), y - z.scale(yv))

    try:
        terms = interpolate_bivariate(f, res_at, xs, ys, checks)
    except InterpolationMismatch as exc:
        raise CurveError(
            "implicitization interpolation is inconsistent") from exc
    if not terms:
        raise DegenerateCurve("implicitization produced the zero polynomial")
    total = max(l + k for (l, k) in terms)
    if total <= 1:
        raise DegenerateCurve("image is a point or a line")
    F = homogenize_xy(f, terms, total).normalized()
    mapdeg = _mapdeg_certificate(F)
    if mapdeg > 1:
        from .polynomial import tripoly_kth_root

        root = tripoly_kth_root(F, mapdeg)
        if root is None:
            raise CurveError(
                "resultant is not the %d-th power its restrictions indicate"
                % mapdeg
            )
        F = root.normalized()
    if expected_degree is not None and F.total_degree() != expected_degree:
        raise CurveError(
            "implicit degree %d, expected %d"
            % (F.total_degree(), expected_degree)
        )
    return F, mapdeg


def _mapdeg_certificate(F):
    """1 when F is certified squarefree by a squarefree line restriction;
    otherwise the common multiplicity over several probing lines."""
    f = F.field
    deg = F.total_degree()
    rng_points = [
        ((1, 0, 0), (0, 1, 1)),
        ((0, 1, 0), (1, 0, 1)),
        ((0, 0, 1), (1, 1, 0)),
        ((1, 2, 3), (3, 1, 2)),
        ((1, -1, 2), (2, 1, -1)),
        ((5, 1, -3), (1, 4, 1)),
    ]
    mults = []
    for p0i, p1i in rng_points:
        p0 = tuple(f.from_int(v) for v in p0i)
        p1 = tuple(f.from_int(v) for v in p1i)
        r = F.restrict_to_line(p0, p1)
        if r.degree != deg:
            continue
        g = poly_gcd(r, r.derivative())
        if g.degree == 0:
            return 1
        _, parts = squarefree_decomposition(r)
        from math import gcd as igcd

        m = 0
        for _, mult in parts:
            m = igcd(m, mult)
        mults.append(m)
    if not mults:
        raise CurveError("could not certify the map degree")
    return min(mults)


# ----------------------------------------------------------------------
# dual curve, reparametrization, symmetry


def _without_common_factor(polys):
    """(polys divided by g, g) for g the gcd of the nonzero polynomials among
    polys; g is that polynomial itself when only one is nonzero."""
    nonzero = [p for p in polys if not p.is_zero()]
    g = nonzero[0]
    for p in nonzero[1:]:
        g = poly_gcd(g, p)
    return [p.exact_div(g) if not p.is_zero() else p for p in polys], g


def wronskian_minors(curve):
    """The Wronskian minors of a parametrization divided by their gcd g, and
    g.  The divided minors parametrize the dual curve."""
    x, y, z = curve.components()
    dx, dy, dz = x.derivative(), y.derivative(), z.derivative()
    minors = (dy * z - dz * y, dz * x - dx * z, dx * y - dy * x)
    if all(m.is_zero() for m in minors):
        raise DegenerateCurve("dual of a line (or of a constant map)")
    return _without_common_factor(minors)


def dual(curve):
    """Dual parametrization from the Wronskian minors, common factor removed."""
    comps, _g = wronskian_minors(curve)
    return RationalPlaneCurve(curve.field, *comps, check=False)


def reparametrize(curve, moebius):
    """Precompose with t -> (a t + b)/(c t + d), clear denominators to the
    declared degree, remove any common polynomial factor."""
    f = curve.field
    n = curve.degree
    num = UniPoly(f, (moebius.b, moebius.a))
    den = UniPoly(f, (moebius.d, moebius.c))
    num_pows = [UniPoly.one(f)]
    den_pows = [UniPoly.one(f)]
    for _ in range(n):
        num_pows.append(num_pows[-1] * num)
        den_pows.append(den_pows[-1] * den)
    new = []
    for comp in curve.components():
        acc = UniPoly.zero(f)
        for i in range(comp.degree + 1):
            c = comp.coeff(i)
            if f.is_zero(c):
                continue
            acc = acc + (num_pows[i] * den_pows[n - i]).scale(c)
        new.append(acc)
    if all(p.is_zero() for p in new):
        raise DegenerateCurve("reparametrization collapsed the curve")
    new, _g = _without_common_factor(new)
    return RationalPlaneCurve(f, *new, check=False)


def triples_proportional(a, b):
    """Cross product of two polynomial 3-vectors vanishes identically."""
    pairs = ((0, 1), (0, 2), (1, 2))
    return all((a[i] * b[j] - a[j] * b[i]).is_zero() for i, j in pairs)


def verify_symmetry(curve, pmap, moebius):
    """True iff reparametrize(curve, moebius) and pmap(curve) agree as
    projective parametrizations."""
    lhs = reparametrize(curve, moebius).components()
    rhs = curve.apply_projective(pmap).components()
    return triples_proportional(lhs, rhs)
