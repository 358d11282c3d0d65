"""Independent oracles the tests compare the library against.

A fraction-free Sylvester/Bareiss determinant gives trivariate resultants
without interpolation, and an exhaustive height search looks for conic
points without Hilbert symbols.  A Fraction schoolbook multiply and an
extended-Euclid inverse check the number-field kernel.  The per-term loops
that the integer kernels replaced check them: a schoolbook product of
coefficient lists (`plist_mul` and the signed sums of `plist_dot`), long
division with one field.mul and one field.sub per term (`plist_divmod`),
Euclid's algorithm on field elements (`plist_gcd`), the term-by-term
TriPoly product (`sparse_mul` and `sparse_dot`) and Gauss-Jordan
elimination in field arithmetic (`nullspace`, through `moving_lines`).
Newton iteration and the per-term series inverse check the peeled
reversion and the series quotient of `TruncatedSeries`, and the series
loops that the integer kernels replaced check them term by term on
schoolbook products: peeling one leading term at a time in field
arithmetic (`in_powers_of`, `plist_peel`), Horner's rule for series and
polynomials (`compose`, `plist_compose`, `UniPoly.eval`), the inverse of a
unit as the reversed quotient of one long division (`invert_unit`,
`plist_quotients`) and the affine chart of a germ built from that inverse.
Implicitization by interpolating a grid of univariate resultants, with the
map degree read from squarefree restrictions of F to lines, checks the
moving-line implicitization, and the pencil resultant interpolated from a
grid checks its hybrid Bezout determinant.  Sixteen fixed separating
coordinates, with a squarefree product of per-claim value
polynomials, check the parameter test of point distinctness.  The Leibniz
sum over permutations checks the 3 x 3 determinant of `ProjectiveMap`.
Horner's rule in field arithmetic checks the image points that the germs
of `RationalPlaneCurve.germ` give.  The square root in Q[a]/(m), deg m >= 3,
that `modp.sqrt` replaced (roots of m mod p by an O(p) scan, Tonelli-Shanks,
and a Hensel lift solved from a Vandermonde system mod p^k) checks it.
jsonschema's draft-07 validator checks the in-package schema checker of
`database`, and the interpretive checker that walks the schema dicts at
every node checks its compiled form.  Squarefree parts built by the
per-prime loop check the one-factorization split of `conic`.  A few
helpers only the tests use (a rational-square test, a corpus digest, a
JSON round trip, a linear change of variables, the inverse of a projective
map, claims carried along a Moebius map, the corpus after seeded Moebius
and projective maps) live here too.  The library itself uses none of these.
"""

import hashlib
import json
import random
import re
from itertools import permutations
from math import gcd as igcd
from math import isqrt

from sextic19.conic import ConicError
from sextic19.curve import (
    CurveError,
    DegenerateCurve,
    MoebiusMap,
    ParameterLocation,
    ProjectiveMap,
    ProjectivePoint,
    reparametrize,
)
from sextic19.database import _TYPES, _same, default_corpus_path
from sextic19.numberfield import (
    QQ,
    FieldError,
    field_pow,
    plist_divmod,
    plist_mul,
)
from sextic19.polynomial import (
    InexactDivision,
    PolynomialError,
    TriPoly,
    UniPoly,
    homogenize_xy,
    lagrange_interpolate,
    poly_gcd,
    resultant,
    squarefree_decomposition,
    tripoly_kth_root,
)
from sextic19.rationals import Rat, factorize, is_prime, rat_sqrt
from sextic19.series import SeriesError, TruncatedSeries


def tri_exact_div(num, den):
    """Exact multivariate division (single divisor, no remainder)."""
    f = num.field
    if den.is_zero():
        raise ZeroDivisionError("trivariate division by zero")
    rem = dict(num.terms)
    out = {}
    de, dc = den.lead_term()
    dc_inv = f.inv(dc)
    while rem:
        e = max(rem)
        c = rem[e]
        q = tuple(a - b for a, b in zip(e, de))
        if any(v < 0 for v in q):
            raise InexactDivision("trivariate division is not exact")
        qc = f.mul(c, dc_inv)
        out[q] = qc
        for oe, oc in den.terms.items():
            te = (q[0] + oe[0], q[1] + oe[1], q[2] + oe[2])
            val = f.mul(qc, oc)
            cur = rem.get(te)
            new = f.sub(cur, val) if cur is not None else f.neg(val)
            if cur is not None and f.is_zero(new):
                del rem[te]
            elif f.is_zero(new):
                pass
            else:
                rem[te] = new
    return TriPoly(f, out)


class _TriRing:
    def __init__(self, field):
        self.field = field
        self.one = TriPoly(field, {(0, 0, 0): field.one}, normalize=False)
        self.zero = TriPoly.zero(field)

    def is_zero(self, x):
        return x.is_zero()

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def exact_div(self, x, y):
        return tri_exact_div(x, y)


def bareiss_determinant(matrix, ring):
    """Fraction-free Gaussian elimination determinant over a ring."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if ring.is_zero(m[k][k]):
            piv = None
            for i in range(k + 1, n):
                if not ring.is_zero(m[i][k]):
                    piv = i
                    break
            if piv is None:
                return ring.zero
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = ring.sub(
                    ring.mul(m[k][k], m[i][j]), ring.mul(m[i][k], m[k][j])
                )
                m[i][j] = ring.exact_div(num, prev)
            m[i][k] = ring.zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return ring.neg(det) if sign < 0 else det


def sylvester_matrix(a_coeffs, b_coeffs, ring):
    """Sylvester matrix for coefficient lists (low-first) over a ring."""
    m = len(a_coeffs) - 1
    n = len(b_coeffs) - 1
    size = m + n
    rows = []
    arow = list(reversed(a_coeffs))
    brow = list(reversed(b_coeffs))
    for i in range(n):
        rows.append([ring.zero] * i + arow + [ring.zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([ring.zero] * i + brow + [ring.zero] * (size - n - 1 - i))
    return rows


def tri_resultant_pair(a_coeffs, b_coeffs, field):
    """Resultant in an eliminated variable of two polynomials whose
    coefficients are TriPoly values (lists low-first).  Exact, via a
    fraction-free Sylvester determinant."""
    ring = _TriRing(field)
    a = list(a_coeffs)
    b = list(b_coeffs)
    while a and ring.is_zero(a[-1]):
        a.pop()
    while b and ring.is_zero(b[-1]):
        b.pop()
    if not a or not b:
        raise PolynomialError("resultant needs inputs nonzero in the variable")
    if len(a) == 1 and len(b) == 1:
        return ring.one
    if len(a) == 1:
        det = a[0]
        out = ring.one
        for _ in range(len(b) - 1):
            out = ring.mul(out, det)
        return out
    if len(b) == 1:
        det = b[0]
        out = ring.one
        for _ in range(len(a) - 1):
            out = ring.mul(out, det)
        return out
    return bareiss_determinant(sylvester_matrix(a, b, ring), ring)


def is_rat_square(q):
    return rat_sqrt(q) is not None


def squarefree_part(n):
    """Squarefree s with n = s * t^2 (sign preserved); returns (s, t)."""
    n = int(n)
    assert n != 0
    sign = -1 if n < 0 else 1
    s, t = sign, 1
    for p, e in factorize(abs(n)).items():
        if e % 2:
            s *= p
        t *= p ** (e // 2)
    return s, t


def rat_squarefree_split(q):
    """Write a nonzero rational q as s * c^2 with s a squarefree integer.

    Returns (s, c) with c a positive rational.
    """
    q = Rat(q)
    assert q != 0
    n = int(q.numerator) * int(q.denominator)
    s, t = squarefree_part(n)
    # q = n / den^2 with n = s t^2, so q = s * (t/den)^2
    return s, Rat(t, int(q.denominator))


def brute_force_conic_search(a, b, height):
    """Independent oracle: exhaust X of height <= `height` and test whether
    (1 - a X^2)/b is a rational square.  Returns a witness or None."""
    a, b = Rat(a), Rat(b)
    from math import gcd

    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if p != 0 and gcd(abs(p), q) != 1:
                continue
            X = Rat(p, q)
            rest = (1 - a * X * X) / b
            if rest < 0:
                continue
            Y = rat_sqrt(rest)
            if Y is not None:
                return X, Y
    return None


def schoolbook_plist_mul(field, a, b):
    """Product of two coefficient lists, one field.mul and one field.add per
    pair of terms."""
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if field.is_zero(ai):
            continue
        for j, bj in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return out


def schoolbook_plist_divmod(field, num, den):
    """Quotient and normalized remainder of num by den (den normalized), one
    field.mul and one field.sub per term of each elimination step."""
    num = list(num)
    dn = len(den) - 1
    inv_lead = field.inv(den[-1])
    quo = [field.zero] * max(0, len(num) - dn)
    while len(num) - 1 >= dn and num:
        if field.is_zero(num[-1]):
            num.pop()
            continue
        shift = len(num) - 1 - dn
        q = field.mul(num[-1], inv_lead)
        quo[shift] = q
        for i in range(dn + 1):
            num[shift + i] = field.sub(num[shift + i], field.mul(q, den[i]))
        num.pop()
    while num and field.is_zero(num[-1]):
        num.pop()
    return quo, num


def euclid_plist_gcd(field, a, b):
    """Monic gcd of two coefficient lists, not both zero, by Euclid's
    algorithm on field elements: one `plist_divmod` per step, each building
    the quotient and remainder as field elements, and the last nonzero
    remainder times the inverse of its leading coefficient."""
    a, b = list(a), list(b)
    for p in (a, b):
        while p and field.is_zero(p[-1]):
            p.pop()
    while b:
        a, b = b, plist_divmod(field, a, b)[1]
    return plist_mul(field, a, [field.inv(a[-1])]) if a else []


def per_term_invert_unit(u):
    """1/u mod s^n of a series with a nonzero constant term, one coefficient
    at a time: out_k = -(sum_(i=1..k) u_i out_(k-i)) / u_0."""
    f = u.field
    a0 = u.coeffs[0]
    if f.is_zero(a0):
        raise SeriesError("inversion requires a nonzero constant term")
    inv0 = f.inv(a0)
    n = u.trunc
    out = [f.zero] * n
    out[0] = inv0
    for k in range(1, n):
        acc = f.zero
        for i in range(1, k + 1):
            ai = u.coeffs[i]
            if f.is_zero(ai):
                continue
            acc = f.add(acc, f.mul(ai, out[k - i]))
        out[k] = f.neg(f.mul(acc, inv0))
    return TruncatedSeries(f, out, n)


def _schoolbook_series_mul(a, b):
    """a * b mod s^n, n the smaller truncation, by `schoolbook_plist_mul`."""
    n = min(a.trunc, b.trunc)
    return TruncatedSeries(
        a.field, schoolbook_plist_mul(a.field, a.coeffs[:n], b.coeffs[:n])[:n],
        n)


def division_invert_unit(u):
    """1/u mod s^n, for n = u.trunc: the reversed quotient of one long
    division of t^(2n-2) by t^(n-1) * u(1/t), one field.mul and one
    field.sub per term (`schoolbook_plist_divmod`)."""
    f = u.field
    if f.is_zero(u.coeffs[0]):
        raise SeriesError("inversion requires a nonzero constant term")
    n = u.trunc
    num = [f.zero] * (2 * n - 2) + [f.one]
    quo, _rem = schoolbook_plist_divmod(f, num, u.coeffs[::-1])
    return TruncatedSeries(f, quo[::-1], n)


def horner_compose(a, inner):
    """a(inner(s)) mod s^n by Horner's rule on series, one schoolbook
    product and one field.add per coefficient of a; requires inner(0) = 0."""
    f = a.field
    if not f.is_zero(inner.coeffs[0]):
        raise SeriesError("composition requires inner constant term zero")
    n = min(a.trunc, inner.trunc)
    acc = TruncatedSeries.zero(f, n)
    inner = inner.truncate(n)
    for c in reversed(a.coeffs[:n]):
        acc = _schoolbook_series_mul(acc, inner)
        if not f.is_zero(c):
            acc = TruncatedSeries(
                f, (f.add(acc.coeffs[0], c),) + acc.coeffs[1:], n)
    return acc


def peeled_in_powers_of(r, u):
    """(c, stop) with r = sum_m c_m u^m + rest below the truncation, as
    `TruncatedSeries.in_powers_of` gives them: the lowest term of the rest
    peeled while its order is a multiple of e = ord u, one field.div by the
    leading coefficient of u^m, one schoolbook product per new power of u
    and one field.mul and one field.sub per coefficient of each step."""
    f = r.field
    e = u.order()
    if not e:
        raise SeriesError("peeling requires a series u of positive order")
    n = min(r.trunc, u.trunc)
    r, u = r.truncate(n), u.truncate(n)
    powers = [TruncatedSeries(f, (f.one,), n)]
    c = [f.zero] * ((n - 1) // e + 1)
    while True:
        o = r.order()
        if o is None or o % e:
            return TruncatedSeries(f, c, len(c)), o
        m = o // e
        while len(powers) <= m:
            powers.append(_schoolbook_series_mul(powers[-1], u))
        c[m] = f.div(r.coeffs[o], powers[m].coeffs[o])
        r = r - powers[m].scale(c[m])


def inverse_affine_branch(germ, trunc, chart):
    """The centered affine expansions of `singularity._affine_branch`, each
    other expansion times the inverse of the chart's one
    (`division_invert_unit`), by schoolbook products."""
    f = germ.point.field
    series = [TruncatedSeries.from_poly(p, trunc) for p in germ.expansions]
    den_inv = division_invert_unit(series[chart])
    ratios = [_schoolbook_series_mul(series[i], den_inv)
              for i in range(3) if i != chart]
    return tuple(TruncatedSeries(f, (f.zero,) + r.coeffs[1:], r.trunc)
                 for r in ratios)


def horner_eval(p, x):
    """p(x) by Horner's rule in field arithmetic: one field.mul and one
    field.add per coefficient."""
    f = p.field
    acc = f.zero
    for c in reversed(p.coeffs):
        acc = f.add(f.mul(acc, x), c)
    return acc


def horner_poly_compose(p, q):
    """p(q(t)) by Horner's rule, one schoolbook product and one field.add
    per coefficient of p."""
    f = p.field
    acc = []
    for c in reversed(p.coeffs):
        acc = schoolbook_plist_mul(f, acc, q.coeffs) or [f.zero]
        acc[0] = f.add(acc[0], c)
    return UniPoly(f, acc)


def newton_reversion(u):
    """The compositional inverse of a series of order exactly 1 by Newton
    iteration with doubling precision (Brent and Kung, "Fast algorithms for
    manipulating formal power series", JACM 1978):
    g <- g - (u(g) - s) / u'(g)."""
    f = u.field
    if u.order() != 1:
        raise SeriesError("reversion requires a series of order exactly 1")
    n = u.trunc
    g = TruncatedSeries(f, (f.zero, f.inv(u.coeffs[1])), 2)
    prec = 2
    uder = TruncatedSeries(
        f, [f.scalar_mul(Rat(i), u.coeffs[i]) for i in range(1, n)],
        max(1, n - 1))
    while prec < n:
        prec = min(2 * prec, n)
        ut = u.truncate(prec)
        gt = g.truncate(prec)
        err = ut.compose(gt) - TruncatedSeries.identity(f, prec)
        corr = err * per_term_invert_unit(uder.truncate(prec).compose(gt))
        g = gt - corr
    return g.truncate(n)


def schoolbook_tri_mul(a, b):
    """Product of two TriPolys, one field.mul and one field.add per pair of
    terms."""
    f = a.field
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            prod = f.mul(c1, c2)
            if e in out:
                out[e] = f.add(out[e], prod)
            else:
                out[e] = prod
    return TriPoly(f, out)


def gauss_moving_lines(curve, m):
    """The moving lines of degree <= m by Gauss-Jordan elimination with one
    field.mul and one field.sub per entry of each row update."""
    f = curve.field
    phi = curve.components()
    width = 3 * (m + 1)     # unknown 3i + k: the t^i coefficient of entry k
    rows = [[phi[k % 3].coeff(j - k // 3) for k in range(width)]
            for j in range(max(c.degree for c in phi) + m + 1)]
    pivots = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows))
                    if not f.is_zero(rows[i][col])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][col])
        rows[r] = [f.mul(inv, v) for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not f.is_zero(row[col]):
                rows[i] = [v if f.is_zero(w) else f.sub(v, f.mul(row[col], w))
                           for v, w in zip(row, rows[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [f.zero] * width
        vec[free] = f.one
        for row, col in zip(rows, pivots):
            vec[col] = f.neg(row[free])
        basis.append(tuple(UniPoly(f, vec[k::3]) for k in range(3)))
    return basis


def strip_z_power(F):
    """Divide out the largest Z^k dividing every term; returns (poly, k)."""
    if F.is_zero():
        return F, 0
    k = min(e[2] for e in F.terms)
    if k == 0:
        return F, 0
    return TriPoly(
        F.field,
        {(e[0], e[1], e[2] - k): c for e, c in F.terms.items()},
        normalize=False,
    ), k


def apply_linear(F, matrix):
    """Substitute variables by the linear forms given by a 3x3 matrix:
    X_i -> sum_j matrix[i][j] * X_j."""
    f = F.field
    forms = [
        TriPoly(f, {
            (1, 0, 0): matrix[i][0],
            (0, 1, 0): matrix[i][1],
            (0, 0, 1): matrix[i][2],
        })
        for i in range(3)
    ]
    return F.substitute(forms, lambda c: TriPoly.const(f, c))


def leibniz_det(rows):
    """Determinant of a square matrix of integers or rationals: the sum over
    permutations p of sign(p) * prod_i rows[i][p(i)], the sign read off the
    inversion count."""
    n = len(rows)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= rows[i][p[i]]
        total += term
    return total


def fraction_mul(field, x, y):
    """Product in an extension field by schoolbook multiplication over the
    base field's own arithmetic, one rational operation at a time, then
    long division by the monic modulus.  Tower levels recurse here, so no
    level goes through ExtensionField.mul."""
    b = field.base
    bmul = b.mul if b == QQ else (lambda u, v: fraction_mul(b, u, v))
    d = field.degree
    full = [b.zero] * (2 * d - 1)
    for i, xi in enumerate(field.coords(x)):
        if b.is_zero(xi):
            continue
        for j, yj in enumerate(field.coords(y)):
            full[i + j] = b.add(full[i + j], bmul(xi, yj))
    m = field.modulus
    for i in range(2 * d - 2, d - 1, -1):
        hi = full[i]
        if not b.is_zero(hi):
            for j in range(d):
                full[i - d + j] = b.sub(full[i - d + j], bmul(hi, m[j]))
    return field.from_coords(full[:d])


def euclid_inv(field, x):
    """Inverse in an extension field by the extended Euclidean algorithm on
    x and the modulus over the base field."""
    b = field.base

    def trim(p):
        p = list(p)
        while p and b.is_zero(p[-1]):
            p.pop()
        return p

    r0, r1 = list(field.modulus), trim(field.coords(x))
    s0, s1 = [], [b.one]
    while r1:
        q, r = schoolbook_plist_divmod(b, r0, r1)
        r0, r1 = r1, r
        prod = schoolbook_plist_mul(b, q, s1)
        ns = list(s0) + [b.zero] * max(0, len(prod) - len(s0))
        for i, pi in enumerate(prod):
            ns[i] = b.sub(ns[i], pi)
        s0, s1 = s1, trim(ns)
    if len(r0) != 1:
        raise FieldError("modulus is reducible: gcd has degree %d"
                         % (len(r0) - 1))
    c = b.inv(r0[0])
    inv = [b.mul(c, s) for s in s0]
    return field.from_coords(inv + [b.zero] * (field.degree - len(inv)))


# ----------------------------------------------------------------------
# square roots in Q[a]/(m), deg m >= 3: the O(p) root scan, Tonelli-Shanks
# and the Hensel/Vandermonde lift that `modp.sqrt` replaced


def _tonelli_shanks(n, p):
    """Square root of n mod odd prime p, or None for a non-residue."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _rational_reconstruct(c, modulus):
    """Recover p/q from c mod modulus with |p|, q <= sqrt(modulus/2)."""
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, c % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num, den = r1, s1
    if den < 0:
        num, den = -num, -den
    if igcd(abs(num), den) != 1:
        return None
    return Rat(num, den)


def _poly_mod_p(coeffs, p):
    """Coefficients mod the prime p, or None if p divides a denominator."""
    out = []
    for c in coeffs:
        den = int(c.denominator) % p
        if den == 0:
            return None
        out.append(int(c.numerator) % p * pow(den, -1, p) % p)
    return out


def _eval_mod(coeffs_mod, r, p):
    acc = 0
    for c in reversed(coeffs_mod):
        acc = (acc * r + c) % p
    return acc


def hensel_vandermonde_sqrt(field, x):
    """Square root in Q[a]/(m), deg m >= 3, decided through degree-one primes.

    Any prime with a simple root of m gives a residue map to F_p; a
    non-residue value there certifies x is not a square, and for a genuine
    non-square such a witness prime exists (take a Frobenius class fixing
    the field but moving sqrt(x) in the Galois closure).  At completely
    split primes the root values are Hensel-lifted, the coordinate vector is
    solved from the Vandermonde system mod p^k over all sign choices,
    rationally reconstructed, and verified exactly.
    """
    d = field.degree
    mc = list(field.modulus)
    xs = list(x)
    p = 101
    while True:
        p += 2
        if p > 2_000_000:  # pragma: no cover - safety stop
            raise FieldError(
                "square decision did not converge for %s" % field.to_str(x)
            )
        if not is_prime(p):
            continue
        m_mod = _poly_mod_p(mc, p)
        x_mod = _poly_mod_p(xs, p)
        if m_mod is None or x_mod is None:
            continue
        roots = [r for r in range(p) if _eval_mod(m_mod, r, p) == 0]
        if not roots:
            continue
        mder_mod = [(i * c) % p for i, c in enumerate(m_mod)][1:]
        roots = [r for r in roots if _eval_mod(mder_mod, r, p) != 0]
        vals = [_eval_mod(x_mod, r, p) for r in roots]
        pairs = [(r, v) for r, v in zip(roots, vals) if v != 0]
        for _r, v in pairs:
            if pow(v, (p - 1) // 2, p) != 1:
                return None  # certified non-square at a degree-one prime
        if len(pairs) != d:
            continue
        sqrts = [_tonelli_shanks(v, p) for _r, v in pairs]
        result = _try_reconstruct_sqrt(
            field, xs, mc, p, [r for r, _v in pairs], sqrts
        )
        if result is not None:
            return result


def _try_reconstruct_sqrt(field, xs, mc, p, roots, sqrts):
    d = field.degree
    for k in (6, 12, 24, 48, 96):
        M = p ** k
        # lift roots of m to mod M by Newton iteration
        lroots = []
        for r in roots:
            rr, prec = r, 1
            while prec < k:
                prec = min(2 * prec, k)
                mm = p ** prec
                # mc and xs reduced mod p: their denominators are units mod mm
                mq = _poly_mod_p(mc, mm)
                num = _eval_mod(mq, rr, mm)
                den = _eval_mod([i * c for i, c in enumerate(mq)][1:], rr, mm)
                rr = (rr - num * pow(den, -1, mm)) % mm
            lroots.append(rr)
        # lift square roots by Newton iteration on s^2 = x(root)
        lsq = []
        for r, s in zip(lroots, sqrts):
            ss, prec = s, 1
            while prec < k:
                prec = min(2 * prec, k)
                mm = p ** prec
                val = _eval_mod(_poly_mod_p(xs, mm), r % mm, mm)
                ss = (ss + val * pow(ss, -1, mm)) % mm
                ss = ss * pow(2, -1, mm) % mm
            lsq.append(ss)
        for mask in range(1 << (d - 1)):
            targets = [lsq[0]]
            for i in range(1, d):
                targets.append(M - lsq[i] if (mask >> (i - 1)) & 1 else lsq[i])
            coords = _solve_vandermonde_mod(lroots, targets, M, p)
            if coords is None:
                continue
            cand = []
            ok = True
            for c in coords:
                q = _rational_reconstruct(c, M)
                if q is None:
                    ok = False
                    break
                cand.append(q)
            if not ok:
                continue
            rep = tuple(cand)
            if field.eq(field.mul(rep, rep), tuple(xs)):
                return rep
    return None


def _solve_vandermonde_mod(nodes, values, M, p):
    """Solve sum_j c_j * r_i^j = v_i mod M (nodes distinct mod p)."""
    d = len(nodes)
    rows = [[pow(r, j, M) for j in range(d)] + [v] for r, v in zip(nodes, values)]
    for col in range(d):
        piv = None
        for i in range(col, d):
            if rows[i][col] % p != 0:
                piv = i
                break
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, M)
        rows[col] = [v * inv % M for v in rows[col]]
        for i in range(d):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % M for a, b in zip(rows[i], rows[col])]
    return [rows[i][d] for i in range(d)]


# ----------------------------------------------------------------------
# implicitization by a grid of resultants


class InterpolationMismatch(PolynomialError):
    pass


def interpolate_bivariate(field, value, outer, inner, checks):
    """Coefficients {(i, j): c} of the polynomial P(u, v) = sum c u^i v^j
    that agrees with value(u, v) on the grid outer x inner.

    Each grid must be longer than the degree of P in its variable.  P is
    interpolated along `inner` at every outer value, then each coefficient
    along `outer`.  P is compared with `value` at every (u, v) of `checks`,
    points off the grid, and a mismatch raises InterpolationMismatch.
    """
    per_outer = [
        lagrange_interpolate(field, inner, [value(u, v) for v in inner])
        for u in outer
    ]
    terms = {}
    for j in range(max(p.degree for p in per_outer) + 1):
        q = lagrange_interpolate(field, outer, [p.coeff(j) for p in per_outer])
        for i, c in enumerate(q.coeffs):
            if not field.is_zero(c):
                terms[(i, j)] = c
    for u, v in checks:
        interp = field.zero
        for (i, j), c in terms.items():
            interp = field.add(interp, field.mul(
                c, field.mul(field_pow(field, u, i), field_pow(field, v, j))))
        if not field.eq(value(u, v), interp):
            raise InterpolationMismatch(
                "interpolated polynomial disagrees at an off-grid point")
    return terms


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


def grid_implicitize(curve):
    """Implicit equation of the image by the resultant grid (the reference).

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
        root = tripoly_kth_root(F, mapdeg)
        if root is None:
            raise CurveError(
                "resultant is not the %d-th power its restrictions indicate"
                % mapdeg
            )
        F = root.normalized()
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
        lines = [UniPoly(f, (a, b)) for a, b in zip(p0, p1)]
        r = F.substitute(lines, lambda c: UniPoly.const(f, c))
        if r.degree != deg:
            continue
        g = poly_gcd(r, r.derivative())
        if g.degree == 0:
            return 1
        _, parts = squarefree_decomposition(r)
        m = 0
        for _, mult in parts:
            m = igcd(m, mult)
        mults.append(m)
    if not mults:
        raise CurveError("could not certify the map degree")
    return min(mults)


# ----------------------------------------------------------------------
# the pencil resultant by a grid of resultants


def _bivar_from_tripoly(F, fld):
    """Dehomogenize a TriPoly at z = 1 into a y-degree-indexed list of
    x-polynomials."""
    max_y = max(e[1] for e in F.terms)
    rows = [dict() for _ in range(max_y + 1)]
    for (ex, ey, _ez), c in F.terms.items():
        rows[ey][ex] = fld.add(rows[ey].get(ex, fld.zero), c)
    out = []
    for row in rows:
        if row:
            deg = max(row)
            out.append(UniPoly(fld, [row.get(i, fld.zero) for i in range(deg + 1)]))
        else:
            out.append(UniPoly.zero(fld))
    return out


def _specialize(rows, xv, fld):
    return UniPoly(fld, [r.eval(xv) for r in rows])


def grid_pencil_resultant(F, pencil, fld):
    """P(x, lambda) = Res_y(f, g0 + lambda g1) as a lambda-degree-indexed
    list of x-polynomials, interpolated from a grid of univariate resultants
    and checked at one point off the grid."""
    f_rows = _bivar_from_tripoly(F, fld)
    deg_y_f = len(f_rows) - 1
    deg_y_g = max(len(pencil.g0), len(pencil.g1)) - 1
    max_xf = max((r.degree for r in f_rows if not r.is_zero()), default=0)
    max_xg = max(
        [r.degree for r in pencil.g0 if not r.is_zero()]
        + [r.degree for r in pencil.g1 if not r.is_zero()]
    )
    deg_x_bound = deg_y_g * max_xf + deg_y_f * max_xg
    deg_l_bound = deg_y_f
    xs = [fld.from_int(k) for k in range(deg_x_bound + 1)]
    ls = [fld.from_int(k) for k in range(deg_l_bound + 1)]

    def at_x(xv):
        # f and g0, g1 as polynomials in y at x = xv; none depends on lambda
        return tuple(_specialize(rows, xv, fld)
                     for rows in (f_rows, pencil.g0, pencil.g1))

    def res_at(lv, fy, g0y, g1y):
        gy = g0y + g1y.scale(lv)
        if fy.degree != deg_y_f or gy.degree != deg_y_g:
            raise ConicError("degree drop on the interpolation grid")
        return resultant(fy, gy)

    # P(x, lambda): interpolate along x at every lambda of the grid, then
    # each x-coefficient along lambda, and compare at one point off the grid
    grid = [at_x(xv) for xv in xs]
    per_lambda = [lagrange_interpolate(fld, xs, [res_at(lv, *g) for g in grid])
                  for lv in ls]
    by_x = [lagrange_interpolate(fld, ls, [p.coeff(i) for p in per_lambda])
            for i in range(max(p.degree for p in per_lambda) + 1)]
    p_by_lambda = [UniPoly(fld, [q.coeff(j) for q in by_x])
                   for j in range(max(q.degree for q in by_x) + 1)]
    lv, xv = fld.from_int(deg_l_bound + 3), fld.from_int(deg_x_bound + 3)
    if not fld.eq(res_at(lv, *at_x(xv)),
                  UniPoly(fld, [p.eval(xv) for p in p_by_lambda]).eval(lv)):
        raise ConicError("pencil resultant interpolation is inconsistent")
    return p_by_lambda


# ----------------------------------------------------------------------
# point distinctness by separating coordinates


def _location_char_poly(curve, claim, l1, l2):
    """Monic polynomial over the base field whose roots are the values of
    the rational coordinate L1/L2 at the claim's singular points."""
    f = curve.field
    x, y, z = curve.components()
    lin1 = x.scale(l1[0]) + y.scale(l1[1]) + z.scale(l1[2])
    lin2 = x.scale(l2[0]) + y.scale(l2[1]) + z.scale(l2[2])
    loc = claim.location
    if claim.stype.n % 2 == 0 and loc.kind == "roots":
        q = loc.poly
        # char poly of L1/L2 on the roots of q: Res_t(q(t), X*L2(t) - L1(t))
        # computed by interpolation in X
        deg = q.degree
        xs = [f.from_int(k) for k in range(deg + 1)]
        vals = []
        for xv in xs:
            vals.append(resultant(q, lin2.scale(xv) - lin1))
        chi = lagrange_interpolate(f, xs, vals)
        if chi.degree != deg:
            return None
        return chi.monic()
    # one point: the image of the first parameter (an odd claim's two
    # parameters have one image)
    work, params = loc.resolve(curve)
    field = work.field
    t = params[0]
    if t == "inf":
        num, den = lin1.coeff(curve.degree), lin2.coeff(curve.degree)
    else:
        num, den = lin1.map_field(field).eval(t), lin2.map_field(field).eval(t)
    if field.is_zero(den):
        return None
    val = field.div(num, den)
    if field != f:
        # the two-branch point is rational over the base field: its
        # coordinate value must descend
        val = field.descend(val)
        if val is None:
            return None
    return UniPoly(f, (f.neg(val), f.one))


_SEPARATOR_FORMS = [
    ((1, 0, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0)),
    ((1, 0, 0), (0, 1, 1)),
    ((0, 0, 1), (0, 1, 1)),
    ((0, 1, 0), (1, 0, 1)),
    ((1, 0, 0), (1, 1, 1)),
    ((0, 1, 0), (1, 1, 1)),
    ((0, 0, 1), (1, 1, 1)),
    ((1, -1, 0), (1, 1, 1)),
    ((1, 2, 3), (1, 1, 1)),
    ((1, 0, -1), (1, 2, 1)),
    ((2, -1, 1), (1, 1, -1)),
    ((1, 1, 1), (3, -2, 1)),
    ((0, 1, -1), (2, 1, 2)),
    ((3, 1, -2), (1, -3, 2)),
]


def separator_points_distinct(curve, claims):
    """Certify that the singular points named by the claims are pairwise
    distinct: for a separating rational coordinate, the product of the
    per-claim value polynomials must be squarefree."""
    f = curve.field
    for l1i, l2i in _SEPARATOR_FORMS:
        l1 = tuple(f.from_int(v) for v in l1i)
        l2 = tuple(f.from_int(v) for v in l2i)
        prod = UniPoly.one(f)
        ok = True
        for claim in claims:
            fac = _location_char_poly(curve, claim, l1, l2)
            if fac is None:
                ok = False
                break
            prod = prod * fac
        if not ok:
            continue
        if prod.degree <= 0:
            continue
        g = poly_gcd(prod, prod.derivative())
        if g.degree == 0:
            return True
    return False


# ----------------------------------------------------------------------
# points and maps


def horner_point(curve, t):
    """The image of a parameter of curve.field by Horner's rule in field
    arithmetic (`horner_eval`), or read off the coefficients of t^n at
    'inf'."""
    if t == "inf":
        coords = [c.coeff(curve.degree) for c in curve.components()]
    else:
        coords = [horner_eval(c, t) for c in curve.components()]
    return ProjectivePoint(curve.field, coords)


def projective_inverse(pmap):
    """The inverse of a ProjectiveMap: its adjugate divided by its
    determinant."""
    f = pmap.field
    m = pmap.rows
    det = pmap.det()
    cof = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            a = m[(i + 1) % 3][(j + 1) % 3]
            b = m[(i + 1) % 3][(j + 2) % 3]
            c = m[(i + 2) % 3][(j + 1) % 3]
            d = m[(i + 2) % 3][(j + 2) % 3]
            cof[j][i] = f.div(f.sub(f.mul(a, d), f.mul(b, c)), det)
    return ProjectiveMap(f, cof)


def moebius_transport(location, m):
    """The location on curve(m(s)), for m the MoebiusMap
    t -> (a t + b)/(c t + d), of a ParameterLocation on curve(t).

    A parameter t goes to m^-1(t) = (d t - b)/(a - c t), which is 'inf'
    where a = c t, and 'inf' goes to -d/c, or stays when c = 0.  A `roots`
    polynomial q of degree g goes to q(m(s)) (c s + d)^g, whose roots are
    m^-1 of the roots of q."""
    f = m.field

    def back(t):
        if t == "inf":
            return "inf" if f.is_zero(m.c) else f.neg(f.div(m.d, m.c))
        den = f.sub(m.a, f.mul(m.c, t))
        if f.is_zero(den):
            return "inf"
        return f.div(f.sub(f.mul(m.d, t), m.b), den)

    if location.kind in ("value", "infinity"):
        s = back("inf" if location.kind == "infinity" else location.value)
        return (ParameterLocation.at_infinity() if s == "inf"
                else ParameterLocation.at_value(s))
    if location.kind == "pair":
        return ParameterLocation.at_pair(*map(back, location.pair))
    q = location.poly
    num, den = UniPoly(f, (m.b, m.a)), UniPoly(f, (m.d, m.c))
    out = UniPoly.zero(f)
    for k, c in enumerate(q.coeffs):
        out = out + (num ** k * den ** (q.degree - k)).scale(c)
    return ParameterLocation.at_roots(out)


def moebius_and_projective_images(corpus, seed=1):
    """(record, m, mapped curve, claims) for each record: the curve after a
    seeded Moebius reparametrization m and a projective map, with the
    record's claims carried by m^-1.  Every third map fixes a = 0, which
    sends t = 0 to infinity and infinity to -d/c."""
    from sextic19.singularity import SingularityClaim, SingularityType

    rng = random.Random(seed)
    for rec in corpus:
        f = rec.field
        while True:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if rec.id % 3 == 0:
                a = 0
            if a * d - b * c:
                break
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            if leibniz_det(rows):
                break
        m = MoebiusMap.from_ints(f, a, b, c, d)
        curve = reparametrize(rec.curve, m).apply_projective(
            ProjectiveMap.from_ints(f, rows))
        claims = [SingularityClaim(SingularityType(cl.stype.n),
                                   moebius_transport(cl.location, m))
                  for cl in rec.claims]
        yield rec, m, curve, claims


# ----------------------------------------------------------------------
# the corpus file


def corpus_sha256(path=None):
    path = path or default_corpus_path()
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def roundtrip_identity(path=None):
    """parse -> serialize -> parse is the identity on the corpus document."""
    path = path or default_corpus_path()
    with open(path) as fh:
        doc = json.load(fh)
    again = json.loads(json.dumps(doc, sort_keys=True))
    return doc == again


# ----------------------------------------------------------------------
# the corpus schema by a JSON Schema library


def jsonschema_valid(doc, schema):
    """Whether jsonschema's draft-07 validator accepts doc."""
    import jsonschema

    return jsonschema.Draft7Validator(schema).is_valid(doc)


def interpretive_violation(inst, schema, refs, path=()):
    """The first violation of `schema` by `inst` as (path, message), or None
    when inst is valid; `refs` is what database._check_schema returns.  It
    re-reads the schema dicts at every node, as the library's check did
    before it was compiled."""
    if "$ref" in schema:  # draft 7 ignores the siblings of a $ref
        return interpretive_violation(inst, refs[schema["$ref"]], refs,
                                      path)
    if "type" in schema and not _TYPES[schema["type"]](inst):
        return path, "%r is not of type %r" % (inst, schema["type"])
    if "const" in schema and not _same(inst, schema["const"]):
        return path, "%r was expected" % (schema["const"],)
    if "enum" in schema and not any(_same(inst, e) for e in schema["enum"]):
        return path, "%r is not one of %r" % (inst, schema["enum"])
    if "oneOf" in schema:
        hits = sum(interpretive_violation(inst, sub, refs, path) is None
                   for sub in schema["oneOf"])
        if hits != 1:
            return path, "%r is valid under %d of the given schemas, not 1" \
                % (inst, hits)
    if isinstance(inst, str) and "pattern" in schema \
            and not re.search(schema["pattern"], inst):
        return path, "%r does not match %r" % (inst, schema["pattern"])
    if _TYPES["number"](inst):
        if "minimum" in schema and inst < schema["minimum"]:
            return path, "%r is less than the minimum of %r" \
                % (inst, schema["minimum"])
        if "maximum" in schema and inst > schema["maximum"]:
            return path, "%r is greater than the maximum of %r" \
                % (inst, schema["maximum"])
    if isinstance(inst, list):
        if len(inst) < schema.get("minItems", 0):
            return path, "%r is too short" % (inst,)
        if len(inst) > schema.get("maxItems", len(inst)):
            return path, "%r is too long" % (inst,)
        for i, item in enumerate(inst if "items" in schema else ()):
            err = interpretive_violation(item, schema["items"], refs,
                                         path + (i,))
            if err:
                return err
    if isinstance(inst, dict):
        for key in schema.get("required", ()):
            if key not in inst:
                return path, "%r is a required property" % key
        for key, sub in schema.get("properties", {}).items():
            err = key in inst and interpretive_violation(
                inst[key], sub, refs, path + (key,))
            if err:
                return err
    return None
