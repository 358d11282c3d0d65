"""Rational plane curves and their global geometric operations.

A curve is a triple phi = (x(t), y(t), z(t)) of coprime polynomials over a
number field, of largest degree n.  Implicitization eliminates t with a
mu-basis of moving lines and certifies the degree of the map onto the image
with one polynomial gcd.  When that gcd shows a birational map, it gives
the degree of the image as well, with no elimination.

Moving lines.  A moving line of degree m is a triple (a, b, c) of
polynomials of degree <= m with a x + b y + c z = 0, a kernel vector of an
(n + m + 1) x 3(m + 1) linear system.  mu <= n/2 is the least degree of a
moving line and p is one of degree mu.  If q is one of degree n - mu whose
t^(n-mu) coefficient vector is not parallel to p's, then p, q is a basis of
the moving lines, a mu-basis, because x, y, z are coprime (Cox-Sederberg-
Chen, "The moving line ideal basis of planar rational curves", CAGD 15,
1998).  Without such a q the curve is refused; mu = 0 means a line.

Resultant.  For a mu-basis, R = Res_t(p . (X, Y, Z), q . (X, Y, Z)) is
c F^k: c a nonzero constant, F the irreducible implicit equation, k the
degree of the map (Sederberg-Chen, "Implicitization using moving curves and
surfaces", SIGGRAPH 1995).  R is, up to sign, the determinant of the hybrid
Bezout matrix of P = p . (X, Y, Z) and Q = q . (X, Y, Z) in t, of size
d = n - mu (polynomial.hybrid_bezout).

Map degree.  Take t0 with phi(t0) != phi(inf) and g the gcd of the 2 x 2
minors of (phi(t), phi(t0)).  By Lueroth phi = psi(r) with psi birational
and r of degree k.  The minors of psi vanish at r(t0), so every root of
r(t) - r(t0) is a root of g with at least its multiplicity.  With its
denominator cleared, r(t) - r(t0) has degree k because r(inf) != r(t0),
which phi(t0) != phi(inf) ensures; with inf in the fiber, g could miss a
parameter of it.  So deg g >= k, and deg g = 1 certifies k = 1.  Otherwise
the normalized R must be a (deg g)-th power, so that deg g divides
k <= deg g and k = deg g; if it is not, the next t0 of a fixed list is
tried, and past its end the curve is refused.

Each fiber is first tried modulo the prime of the field's place (see the
modp module).  With phi reduced there, a nonzero t^n coefficient of the
cross product of phi(inf) and phi(t0) mod p shows phi(t0) != phi(inf) over
the field and gives one minor that keeps its degree n mod p.  The gcd of
the reduced minors then has degree at least deg g, and t - t0 divides g,
so a gcd of degree one mod p certifies deg g = 1.  Any other fiber, and
every fiber of a field with no place below the bound or of a phi that does
not reduce, runs the exact gcd, which also decides whether
phi(t0) != phi(inf).

Image degree.  A factor h shared by x, y and z divides every minor, and so
does t - t0, with h(t0) != 0 because phi(t0) != 0.  So deg g = 1 also
certifies coprime components.  For coprime components and k = 1 the image
has degree n: a generic line a X + b Y + c Z meets it in deg F points,
each the image of k parameters, and those parameters are the n roots of
a x + b y + c z, none at infinity and none a common root of x, y and z
(Sendra-Winkler-Perez-Diaz, "Rational Algebraic Curves", Springer 2008,
ch. 4).  `image_degree` therefore reads (n, 1) off the first fiber with
deg g = 1, with no mu-basis and no resultant, when n > 1; for n = 1 the
image is a line, which `implicitize` refuses.  Any other first fiber falls
back to `implicitize`, so a map of degree k > 1 and a refused curve get
the same answer from both.
"""

from functools import reduce

from . import modp
from .numberfield import adjoin_root, nullspace
from .polynomial import (
    TriPoly,
    UniPoly,
    determinant,
    hybrid_bezout,
    poly_gcd,
    tripoly_kth_root,
)

_XYZ = ((1, 0, 0), (0, 1, 0), (0, 0, 1))    # the exponents of X, Y and Z


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
        """Normalized coordinates are canonical, so equal points have equal
        coordinate tuples."""
        return self.coords == other.coords

    def __repr__(self):
        return "(%s)" % " : ".join(self.field.to_str(c) for c in self.coords)


class Germ:
    """The expansions of (x, y, z) around one parameter and their image.

    `expansions` are the components in the local parameter s: the Taylor
    shifts x(t + s) at a finite t, and the reversals s^n x(1/s) at 'inf',
    for n the curve's degree.  Their constant terms are the coordinates of
    the image, and `point` is that image, normalized.  A common root of
    the components has no image, and the germ refuses it with CurveError.
    """

    __slots__ = ("expansions", "point")

    def __init__(self, field, expansions):
        self.expansions = expansions
        self.point = ProjectivePoint(field, [e.coeff(0) for e in expansions])


class ParameterLocation:
    """Values of the parameter t carrying a singularity.

    kinds:
      value        one finite parameter (raw field element)
      infinity     t = infinity
      roots        all roots of a squarefree polynomial (degree 2 or 3);
                   one singular point per root
      pair         two parameters mapped to one point (each finite or 'inf')

    The constructors build any location; `resolve`, called once per claim,
    refuses one it cannot turn into parameters of the curve.
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
            return max(self.poly.degree, 0)
        return 1

    def resolve(self, curve):
        """(curve over the parameters' field, [parameters]), 'inf' for
        infinity: `curve`, or `curve.map_field(ext)` if a root is adjoined.

        A `roots` polynomial of degree 2 or 3 adjoins one root where none
        lies in the curve's field.  Roots in the field must number
        point_count(): a check of some roots of a reducible polynomial says
        nothing of the others.
        """
        if self.kind == "value":
            return curve, [self.value]
        if self.kind == "infinity":
            return curve, ["inf"]
        if self.kind == "pair":
            return curve, list(self.pair)
        if self.poly.degree < 2:
            raise CurveError("the polynomial has degree %d; a roots location "
                             "needs degree 2 or 3" % self.poly.degree)
        ext, roots = adjoin_root(curve.field, list(self.poly.coeffs))
        if ext == curve.field and len(roots) != self.point_count():
            raise CurveError(
                "%s has %d of its %d roots in the field; claim each factor "
                "separately" % (self.poly.to_str(), len(roots),
                                self.point_count()))
        return curve.map_field(ext), roots

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
        """Expansion along the first row.  The cyclic minor of entry j,
        m[1][j+1] m[2][j+2] - m[1][j+2] m[2][j+1] with indices mod 3, is
        already the signed cofactor, so every term is added."""
        f = self.field
        m = self.rows
        out = f.zero
        for j in range(3):
            minor = f.sub(
                f.mul(m[1][(j + 1) % 3], m[2][(j + 2) % 3]),
                f.mul(m[1][(j + 2) % 3], m[2][(j + 1) % 3]),
            )
            out = f.add(out, f.mul(m[0][j], minor))
        return out


class RationalPlaneCurve:
    """Parametrized plane curve (x(t) : y(t) : z(t)) over a number field."""

    def __init__(self, field, x, y, z, check=True):
        self.field = field
        self.x, self.y, self.z = x, y, z
        self.degree = max(x.degree, y.degree, z.degree)
        if check:
            g = _common_factor((x, y, z))
            if g is None:
                raise DegenerateCurve("all components vanish")
            if g.degree > 0:
                raise CurveError("components share the factor %s"
                                 % g.monic().to_str())

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
            check=False,
        )

    def germ(self, t):
        """The Germ of the curve at a parameter of self.field, or at 'inf'."""
        if t == "inf":
            return Germ(self.field,
                        [c.reverse(self.degree) for c in self.components()])
        return Germ(self.field, [c.taylor_shift(t) for c in self.components()])

    def evaluate_at(self, t):
        """Image point at a parameter of self.field, or at 'inf': the point
        of its germ."""
        return self.germ(t).point

    def evaluate(self, location):
        """Image point(s) for a ParameterLocation.

        Returns a list of (field, point) pairs, one per parameter; a `roots`
        location over an irreducible polynomial gives its points over the
        extension field.
        """
        work, params = location.resolve(self)
        return [(work.field, work.evaluate_at(t)) for t in params]

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

# parameters t0 tried, in order, for the fiber of the map-degree certificate
FIBER_PARAMETERS = (7, 3, 5, 11, 13, 17)


def cross(a, b):
    """Cross product of two polynomial 3-vectors over one field: each minor
    a_i b_j - a_j b_i is one signed sum, reduced once (UniPoly.dot)."""
    f = a[0].field
    return tuple(UniPoly.dot(f, [(1, a[i], b[j]), (-1, a[j], b[i])])
                 for i, j in ((1, 2), (2, 0), (0, 1)))


def triples_proportional(a, b):
    """Cross product of two polynomial 3-vectors vanishes identically."""
    return all(c.is_zero() for c in cross(a, b))


def _constants(field, values):
    """Field elements as constant polynomials."""
    return tuple(UniPoly.const(field, v) for v in values)


def moving_lines(curve, m):
    """A basis of the moving lines of degree <= m, each a triple (a, b, c),
    from the kernel of the (n + m + 1) x 3(m + 1) system a x + b y + c z = 0
    in reduced row echelon form (numberfield.nullspace).

    The unknowns run from degree 0 up, so the basis vector of a free column
    has that column's degree, and the first basis vector has the least
    degree of any moving line of degree <= m.
    """
    f = curve.field
    phi = curve.components()
    width = 3 * (m + 1)     # unknown 3i + k: the t^i coefficient of entry k
    rows = [[phi[k % 3].coeff(j - k // 3) for k in range(width)]
            for j in range(max(c.degree for c in phi) + m + 1)]
    return [tuple(UniPoly(f, vec[k::3]) for k in range(3))
            for vec in nullspace(f, rows)]


def _fiber_degree_mod(phi, n, t0, p):
    """The degree of the gcd mod p of the minors of (phi(t), phi(t0)), for
    phi reduced mod p, or None when every minor's t^n coefficient, the
    cross product of phi(inf) and phi(t0), vanishes mod p."""
    at_t0 = [modp.value(c, t0, p) for c in phi]
    top = [c[n] if len(c) > n else 0 for c in phi]
    pairs = ((1, 2), (2, 0), (0, 1))
    if not any((top[i] * at_t0[j] - top[j] * at_t0[i]) % p
               for i, j in pairs):
        return None
    minors = [modp.sub([c * at_t0[j] for c in phi[i]],
                       [c * at_t0[i] for c in phi[j]], p) for i, j in pairs]
    return len(reduce(lambda a, b: modp.gcd(a, b, p),
                      [m for m in minors if m])) - 1


def _fiber_degree(curve, t0, at_infinity):
    """deg g for the fiber of t0, or None when phi(t0) = phi(inf): the
    exact gcd over the curve's field."""
    f = curve.field
    phi = curve.components()
    at_t0 = _constants(f, [c.eval(f.from_int(t0)) for c in phi])
    if triples_proportional(at_t0, at_infinity):
        return None
    return reduce(poly_gcd,
                  [m for m in cross(phi, at_t0) if not m.is_zero()]).degree


def _fiber_degrees(curve):
    """(deg g, p) for each t0 of FIBER_PARAMETERS with phi(t0) != phi(inf),
    g the monic gcd of the 2 x 2 minors of (phi(t), phi(t0)), and p the
    prime that certified deg g = 1, None where the exact gcd ran (see Map
    degree in the module docstring)."""
    f = curve.field
    phi = curve.components()
    n = max(c.degree for c in phi)
    p, reduced = modp.at_place(f, [c.coeffs for c in phi]) or (None, None)
    at_infinity = _constants(f, [c.coeff(n) for c in phi])
    for t0 in FIBER_PARAMETERS:
        if reduced and _fiber_degree_mod(reduced, n, t0, p) == 1:
            yield 1, p
            continue
        k = _fiber_degree(curve, t0, at_infinity)
        if k is not None:
            yield k, None


def image_degree(curve):
    """(deg F, mapdeg, p) as `implicitize` gives the degrees, with p the
    prime that certified map degree one, or None.  A first usable fiber of
    degree one certifies (n, 1) with no implicit equation (see Image
    degree in the module docstring); otherwise F is built."""
    n = max(c.degree for c in curve.components())
    if n > 1:
        k, p = next(_fiber_degrees(curve), (None, None))
        if k == 1:
            return n, 1, p
    F, mapdeg = implicitize(curve)
    return F.total_degree(), mapdeg, None


def implicitize(curve):
    """(F, mapdeg): the normalized homogeneous TriPoly cut out by the image
    and the degree of the parametrization onto it, certified as the module
    docstring says.  The corpus curves need deg F = 6 and mapdeg = 1."""
    f = curve.field
    phi = curve.components()
    n = max(c.degree for c in phi)
    half = n - n // 2       # 3(half + 1) unknowns > n + half + 1 equations
    lines = moving_lines(curve, half)
    p = lines[0]
    mu = max(c.degree for c in p)
    if mu == 0:
        raise DegenerateCurve("image is a point or a line")
    d = n - mu
    if d > half:
        lines = moving_lines(curve, d)
    lead_p = _constants(f, [c.coeff(mu) for c in p])
    q = next((v for v in lines if not triples_proportional(
        _constants(f, [c.coeff(d) for c in v]), lead_p)), None)
    if q is None:
        raise CurveError("no moving line of degree %d completes a mu-basis"
                         % d)
    P, Q = ([TriPoly(f, {e: c.coeff(i) for e, c in zip(_XYZ, v)})
             for i in range(deg + 1)] for v, deg in ((p, mu), (q, d)))
    R = determinant(hybrid_bezout(P, Q)).normalized()
    for k, _p in _fiber_degrees(curve):
        F = tripoly_kth_root(R, k)
        if F is not None:
            return F.normalized(), k
    raise CurveError("no fiber in %s certifies the map degree"
                     % (FIBER_PARAMETERS,))


# ----------------------------------------------------------------------
# dual curve, reparametrization, symmetry


def _common_factor(polys):
    """The gcd of the nonzero polynomials among polys, lowest degrees first
    so that the first Euclid runs on the shortest lists: that polynomial
    itself when only one is nonzero, None when none is."""
    nonzero = sorted((p for p in polys if not p.is_zero()),
                     key=lambda p: p.degree)
    return reduce(poly_gcd, nonzero) if nonzero else None


def _without_common_factor(polys):
    """(polys divided by g, g) for g = _common_factor(polys), not None; a g
    of one divides nothing."""
    g = _common_factor(polys)
    if g == UniPoly.one(g.field):
        return list(polys), g
    return [p.exact_div(g) if not p.is_zero() else p for p in polys], g


def wronskian_minors(curve):
    """The Wronskian minors of a parametrization divided by their gcd g, and
    g.  The divided minors parametrize the dual curve."""
    phi = curve.components()
    minors = cross([c.derivative() for c in phi], phi)
    if all(m.is_zero() for m in minors):
        raise DegenerateCurve("dual of a line (or of a constant map)")
    return _without_common_factor(minors)


def dual(curve):
    """Dual parametrization from the Wronskian minors, common factor removed."""
    comps, _g = wronskian_minors(curve)
    return RationalPlaneCurve(curve.field, *comps, check=False)


def reparametrize(curve, moebius):
    """Precompose with t -> (a t + b)/(c t + d), clear denominators to the
    curve's degree, remove any common polynomial factor."""
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


def verify_symmetry(curve, pmap, moebius):
    """True iff reparametrize(curve, moebius) and pmap(curve) agree as
    projective parametrizations."""
    lhs = reparametrize(curve, moebius).components()
    rhs = curve.apply_projective(pmap).components()
    return triples_proportional(lhs, rhs)
