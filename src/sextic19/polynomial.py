"""Dense univariate and trivariate polynomial arithmetic over a field.

UniPoly holds coefficients low-degree-first as raw field representations.
TriPoly holds homogeneous-or-not trivariate polynomials as a term map.
Products, signed sums of products (`UniPoly.dot`, `TriPoly.dot`), division
and gcds run on the integer kernels of numberfield, and powers on its one
square-and-multiply routine, `power`.
Univariate resultants are computed by a remainder-sequence algorithm over
the coefficient field; resultants whose coefficients are polynomials are
determinants of hybrid Bezout matrices of TriPolys.
"""

from math import gcd, lcm
from operator import mul

from .numberfield import (
    QQ,
    field_pow,
    field_sqrt,
    plist_compose,
    plist_divmod,
    plist_dot,
    plist_gcd,
    plist_mul,
    plist_shift,
    power,
    sparse_dot,
    sparse_mul,
)
from .rationals import Rat, int_kth_root


class PolynomialError(Exception):
    pass


class InexactDivision(PolynomialError):
    pass


def _poly_power(one, x, n):
    """x^n for n >= 0 by numberfield.power; a polynomial has no inverse."""
    n = int(n)
    if n < 0:
        raise PolynomialError("negative power %d of a polynomial" % n)
    return power(mul, one, x, n)


def power_str(var, i):
    """The monomial var^i as text; the empty string for i = 0."""
    if i == 0:
        return ""
    return var if i == 1 else "%s^%d" % (var, i)


def format_terms(field, terms):
    """A sum of (coefficient, monomial) pairs as text, in the given order.

    Zero coefficients are skipped and the empty monomial is the constant
    term.  A coefficient of 1 or -1 is written as the bare monomial, and a
    coefficient whose text contains '+', '-', '*' or '/' is parenthesized.
    """
    parts = []
    for c, mon in terms:
        if field.is_zero(c):
            continue
        cs = field.to_str(c)
        if not mon:
            parts.append(cs)
        elif cs == "1":
            parts.append(mon)
        elif cs == "-1":
            parts.append("-" + mon)
        else:
            if "+" in cs[1:] or "-" in cs[1:] or "*" in cs or "/" in cs:
                cs = "(%s)" % cs
            parts.append("%s*%s" % (cs, mon))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs, normalize=True):
        if normalize:
            coeffs = list(coeffs)
            while coeffs and field.is_zero(coeffs[-1]):
                coeffs.pop()
            coeffs = tuple(coeffs)
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- constructors

    @classmethod
    def zero(cls, field):
        return cls(field, (), normalize=False)

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,), normalize=False)

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one), normalize=False)

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(n) for n in ints])

    # -- basic queries

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise PolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and len(self.coeffs) == len(other.coeffs)
            and all(self.field.eq(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    # -- ring operations

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return UniPoly(f, out)

    def __sub__(self, other):
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            out.append(f.sub(self.coeff(i), other.coeff(i)))
        return UniPoly(f, out)

    def __neg__(self):
        f = self.field
        return UniPoly(f, [f.neg(c) for c in self.coeffs], normalize=False)

    def __mul__(self, other):
        return UniPoly(self.field,
                       plist_mul(self.field, self.coeffs, other.coeffs))

    @classmethod
    def dot(cls, field, terms):
        """The sum of sign * p * q over the terms (sign, p, q), sign 1 or
        -1, summed unreduced and reduced once (numberfield.plist_dot)."""
        return cls(field, plist_dot(field, [(sign, p.coeffs, q.coeffs)
                                            for sign, p, q in terms]),
                   normalize=False)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return UniPoly.zero(f)
        return UniPoly(f, [f.mul(c, x) for x in self.coeffs], normalize=False)

    def __pow__(self, n):
        return _poly_power(UniPoly.one(self.field), self, n)

    def derivative(self):
        f = self.field
        return UniPoly(
            f, [f.scalar_mul(Rat(i), self.coeffs[i]) for i in range(1, len(self.coeffs))]
        )

    def eval(self, x):
        """self(x): the composition with the constant x."""
        out = plist_compose(self.field, self.coeffs, [x])
        return out[0] if out else self.field.zero

    def compose(self, other):
        """self(other(t)), by Horner's rule (numberfield.plist_compose)."""
        return UniPoly(self.field,
                       plist_compose(self.field, self.coeffs, other.coeffs),
                       normalize=False)

    def taylor_shift(self, t0):
        """self(t + t0) (numberfield.plist_shift)."""
        return UniPoly(self.field, plist_shift(self.field, self.coeffs, t0))

    def reverse(self, n):
        """t^n * self(1/t), for n >= the degree."""
        if self.is_zero():
            return self
        if n < self.degree:
            raise PolynomialError("reverse needs n >= degree")
        pad = (self.field.zero,) * (n - self.degree)
        return UniPoly(self.field, pad + tuple(reversed(self.coeffs)))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = plist_divmod(self.field, self.coeffs, other.coeffs)
        f = self.field
        return UniPoly(f, quo), UniPoly(f, rem, normalize=False)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InexactDivision("division had a nonzero remainder")
        return q

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lc()))

    def map_field(self, new_field):
        if new_field == self.field:
            return self
        return UniPoly(
            new_field,
            [new_field.coerce(c, self.field) for c in self.coeffs],
            normalize=False,
        )

    def to_str(self, var="t"):
        return format_terms(self.field, (
            (self.coeffs[i], power_str(var, i))
            for i in range(self.degree, -1, -1)
        ))

    def __repr__(self):
        return self.to_str()


def poly_gcd(a, b):
    """Monic gcd over the coefficient field, by Euclid's algorithm
    (numberfield.plist_gcd)."""
    if a.is_zero() and b.is_zero():
        raise PolynomialError("gcd(0, 0) undefined")
    return UniPoly(a.field, plist_gcd(a.field, a.coeffs, b.coeffs),
                   normalize=False)


def resultant(a, b):
    """Classical resultant of two nonzero univariate polynomials.

    Remainder-sequence algorithm over the coefficient field; exact.
    """
    f = a.field
    if a.is_zero() or b.is_zero():
        raise PolynomialError("resultant needs nonzero inputs")
    m, n = a.degree, b.degree
    if m == 0 and n == 0:
        return f.one
    if m == 0:
        return field_pow(f, a.lc(), n)
    if n == 0:
        return field_pow(f, b.lc(), m)
    sign_flip = (m % 2 == 1) and (n % 2 == 1)
    if m < n:
        inner = resultant(b, a)
        return f.neg(inner) if sign_flip else inner
    r = a % b
    if r.is_zero():
        return f.zero
    lead = field_pow(f, b.lc(), m - r.degree)
    inner = resultant(b, r)
    out = f.mul(lead, inner)
    return f.neg(out) if sign_flip else out


def discriminant(a):
    """(-1)^(n(n-1)/2) * Res(a, a') / lc(a)."""
    f = a.field
    n = a.degree
    if n < 1:
        raise PolynomialError("discriminant needs degree >= 1")
    da = a.derivative()
    if da.is_zero():
        return f.zero
    res = resultant(a, da)
    res = f.div(res, a.lc())
    if (n * (n - 1) // 2) % 2:
        res = f.neg(res)
    return res


def squarefree_decomposition(a):
    """Yun's algorithm.  Returns (lc, [(monic factor, multiplicity), ...])."""
    f = a.field
    if a.is_zero():
        raise PolynomialError("squarefree decomposition of zero")
    lead = a.lc()
    a = a.monic()
    if a.degree == 0:
        return lead, []
    g = poly_gcd(a, a.derivative())
    out = []
    c = a.exact_div(g)
    d = a.derivative().exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        ai = poly_gcd(c, d) if not d.is_zero() else c.monic()
        if ai.degree > 0:
            out.append((ai, i))
        c = c.exact_div(ai)
        d = d.exact_div(ai) - c.derivative()
        i += 1
    return lead, out


def squarefree_odd_even_split(a):
    """Write a = lc * O * S^2 with O the monic product of odd-multiplicity
    factors and S monic.  Returns (lc, O, S)."""
    lead, parts = squarefree_decomposition(a)
    f = a.field
    odd = UniPoly.one(f)
    even = UniPoly.one(f)
    for fac, mult in parts:
        if mult % 2:
            odd = odd * fac
        even = even * fac ** (mult // 2)
    return lead, odd, even


def lagrange_interpolate(field, xs, ys):
    """Interpolating polynomial through (xs[i], ys[i]) by Newton differences."""
    n = len(xs)
    coeffs = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            num = field.sub(coeffs[i], coeffs[i - 1])
            den = field.sub(xs[i], xs[i - j])
            coeffs[i] = field.div(num, den)
    # Newton form to dense coefficients
    poly = UniPoly.zero(field)
    for i in range(n - 1, -1, -1):
        node = UniPoly(field, (field.neg(xs[i]), field.one))
        poly = poly * node + UniPoly.const(field, coeffs[i])
    return poly


# ----------------------------------------------------------------------
# trivariate polynomials


class TriPoly:
    """Trivariate polynomial as a map (ex, ey, ez) -> coefficient."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms, normalize=True):
        if normalize:
            terms = {e: c for e, c in terms.items() if not field.is_zero(c)}
        self.field = field
        self.terms = terms

    @classmethod
    def zero(cls, field):
        return cls(field, {}, normalize=False)

    @classmethod
    def const(cls, field, c):
        return cls(field, {(0, 0, 0): c})

    @classmethod
    def variable(cls, field, index):
        exp = tuple(1 if i == index else 0 for i in range(3))
        return cls(field, {exp: field.one}, normalize=False)

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        if not isinstance(other, TriPoly) or self.field != other.field:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.field.eq(c, other.terms[e]) for e, c in self.terms.items())

    def __add__(self, other):
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                out[e] = f.add(out[e], c)
            else:
                out[e] = c
        return TriPoly(f, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return TriPoly(f, {e: f.neg(c) for e, c in self.terms.items()},
                       normalize=False)

    def __mul__(self, other):
        return TriPoly(self.field,
                       sparse_mul(self.field, self.terms, other.terms),
                       normalize=False)

    @classmethod
    def dot(cls, field, terms):
        """The sum of sign * p * q over the terms (sign, p, q), sign 1 or
        -1, one reduction per monomial (numberfield.sparse_dot)."""
        return cls(field, sparse_dot(field, [(sign, p.terms, q.terms)
                                             for sign, p, q in terms]),
                   normalize=False)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return TriPoly.zero(f)
        return TriPoly(f, {e: f.mul(c, v) for e, v in self.terms.items()},
                       normalize=False)

    def __pow__(self, n):
        return _poly_power(self.const(self.field, self.field.one), self, n)

    def lead_term(self):
        """Lexicographically largest exponent and its coefficient."""
        e = max(self.terms)
        return e, self.terms[e]

    def normalized(self):
        """Scalar-normalize: integer-primitive with positive lex-lead over Q,
        monic lex-lead otherwise."""
        if self.is_zero():
            return self
        f = self.field
        if f == QQ:
            cs = self.terms.values()
            L = lcm(*[int(c.denominator) for c in cs])
            scale = Rat(L, gcd(*[int(c * L) for c in cs]))
            _, lead = self.lead_term()
            if lead * scale < 0:
                scale = -scale
            return self.scale(scale)
        _, lead = self.lead_term()
        return self.scale(f.inv(lead))

    def scalar_multiple_of(self, other):
        """Return c with self == c*other, or None."""
        f = self.field
        if self.is_zero() or other.is_zero():
            return f.one if (self.is_zero() and other.is_zero()) else None
        if set(self.terms) != set(other.terms):
            return None
        e0 = next(iter(self.terms))
        c = f.div(self.terms[e0], other.terms[e0])
        for e, v in self.terms.items():
            if not f.eq(v, f.mul(c, other.terms[e])):
                return None
        return c

    def substitute(self, forms, const):
        """self(forms[0], forms[1], forms[2]) for forms in one ring (UniPoly
        or TriPoly); `const` maps a coefficient into that ring.  Each power
        of a form is computed once."""
        acc = const(self.field.zero)
        powers = {}
        for exps, c in self.terms.items():
            term = const(c)
            for idx, e in enumerate(exps):
                if e:
                    if (idx, e) not in powers:
                        powers[(idx, e)] = forms[idx] ** e
                    term = term * powers[(idx, e)]
            acc = acc + term
        return acc

    def map_field(self, new_field):
        if new_field == self.field:
            return self
        return TriPoly(
            new_field,
            {e: new_field.coerce(c, self.field) for e, c in self.terms.items()},
            normalize=False,
        )

    def to_str(self, names=("X", "Y", "Z")):
        return format_terms(self.field, (
            (self.terms[e],
             "*".join(power_str(names[i], e[i]) for i in range(3) if e[i]))
            for e in sorted(self.terms, reverse=True)
        ))

    def __repr__(self):
        return self.to_str()


def determinant(rows):
    """Determinant of a square matrix of TriPolys by cofactor expansion along
    the rows, memoized on the columns left to each minor: 2^n minors, each
    one signed sum (TriPoly.dot)."""
    f = rows[0][0].field
    memo = {(): TriPoly.const(f, f.one)}

    def minor(cols):
        if cols not in memo:
            row = rows[len(rows) - len(cols)]
            memo[cols] = TriPoly.dot(f, [
                (-1 if pos % 2 else 1, row[c],
                 minor(cols[:pos] + cols[pos + 1:]))
                for pos, c in enumerate(cols) if not row[c].is_zero()])
        return memo[cols]

    return minor(tuple(range(len(rows))))


def hybrid_bezout(P, Q):
    """The hybrid Bezout matrix of two polynomials in an eliminated variable,
    given as coefficient lists, low first, of TriPolys, with
    deg P = mu <= deg Q = d.

    Its d rows are the rows s^0 .. s^(mu-1) of the Bezoutian
    (P(s) Q(t) - P(t) Q(s)) / (s - t), then the rows t^r P(t), r < d - mu.
    The Bezoutian rows s^k, k >= mu, are -sum_(j > k) Q_j t^(j-1-k) P(t), a
    triangular combination of those t^r P(t) with diagonal -Q_d, and the
    full Bezout determinant is +-Q_d^(d-mu) Res(P, Q); so the hybrid one is
    +-Res(P, Q), the Sylvester resultant with the formal degrees mu and d.
    The sign is (-1)^(mu(mu-1)/2): the tests compare the determinant with
    the Sylvester one for every mu <= 4 and d <= 6, which covers the
    implicitization of the corpus curves and their duals and the pencils.
    """
    mu, d = len(P) - 1, len(Q) - 1
    f = Q[-1].field
    zero = TriPoly.zero(f)
    P = list(P) + [zero] * (d - mu)
    # entry (a, i + j - 1 - a) of the Bezoutian rows gets
    # -(P_i Q_j - P_j Q_i) for each i <= a < min(j, mu): one signed sum
    # per entry
    entries = {}
    for i in range(mu):
        for j in range(i + 1, d + 1):
            for a in range(i, min(j, mu)):
                entries.setdefault((a, i + j - 1 - a), []).extend(
                    [(-1, P[i], Q[j]), (1, P[j], Q[i])])
    rows = [[TriPoly.dot(f, entries.get((a, c), ())) for c in range(d)]
            for a in range(mu)]
    rows += [[P[c - r] if 0 <= c - r <= mu else zero for c in range(d)]
             for r in range(d - mu)]
    return rows


def tripoly_kth_root(F, k):
    """Exact k-th root of a trivariate polynomial, or None.

    Greedy Newton peeling in lex order: the leading coefficient must have a
    k-th root in the field, and every further term is forced by exact
    division.  Verified by re-expansion before returning.
    """
    if k == 1:
        return F
    f = F.field
    e_lead, c_lead = F.lead_term()
    if any(v % k for v in e_lead):
        return None
    root_c = _field_kth_root(f, c_lead, k)
    if root_c is None:
        return None
    g_lead_exp = tuple(v // k for v in e_lead)
    G = TriPoly(f, {g_lead_exp: root_c}, normalize=False)
    denom = f.scalar_mul(Rat(k), field_pow(f, root_c, k - 1))
    for _ in range(len(F.terms) * k + 4):
        r = F - G ** k
        if r.is_zero():
            return G
        e_r, c_r = r.lead_term()
        new_exp = tuple(
            a - (k - 1) * b for a, b in zip(e_r, g_lead_exp)
        )
        if any(v < 0 for v in new_exp) or new_exp >= g_lead_exp:
            return None
        G = G + TriPoly(f, {new_exp: f.div(c_r, denom)}, normalize=False)
    return None


def _field_kth_root(field, c, k):
    while k % 2 == 0:
        c = field_sqrt(field, c)
        if c is None:
            return None
        k //= 2
    if k == 1 or field.eq(c, field.one):
        return c
    if field == QQ:
        # c is reduced, so a rational root is a k-th root of each part
        num, den = int(c.numerator), int(c.denominator)
        rn, rd = int_kth_root(abs(num), k), int_kth_root(den, k)
        if rn ** k != abs(num) or rd ** k != den:
            return None
        return Rat(-rn if num < 0 else rn, rd)
    return None


def homogenize_xy(field, xy_terms, degree):
    """Lift {(ex, ey): coeff} to a homogeneous TriPoly of the given degree."""
    out = {}
    for (ex, ey), c in xy_terms.items():
        ez = degree - ex - ey
        if ez < 0:
            raise PolynomialError("terms exceed the homogenization degree")
        out[(ex, ey, ez)] = c
    return TriPoly(field, out)
