"""Independent oracles the tests compare the library against.

A fraction-free Sylvester/Bareiss determinant gives trivariate resultants
without interpolation, and an exhaustive height search looks for conic
points without Hilbert symbols.  A Fraction schoolbook multiply and an
extended-Euclid inverse check the number-field kernel.  The library itself
uses none of these.
"""

from sextic19.numberfield import QQ, FieldError, plist_divmod, plist_mul
from sextic19.polynomial import InexactDivision, PolynomialError, TriPoly
from sextic19.rationals import Rat, rat_sqrt


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


def fraction_mul(field, x, y):
    """Product in an extension field by schoolbook multiplication over the
    base field's own arithmetic, one rational operation at a time, then
    long division by the monic modulus.  Tower levels recurse here, so no
    level goes through ExtensionField.mul."""
    b = field.base
    bmul = b.mul if b == QQ else (lambda u, v: fraction_mul(b, u, v))
    d = field.degree
    full = [b.zero] * (2 * d - 1)
    for i, xi in enumerate(x):
        if b.is_zero(xi):
            continue
        for j, yj in enumerate(y):
            full[i + j] = b.add(full[i + j], bmul(xi, yj))
    m = field.modulus
    for i in range(2 * d - 2, d - 1, -1):
        hi = full[i]
        if not b.is_zero(hi):
            for j in range(d):
                full[i - d + j] = b.sub(full[i - d + j], bmul(hi, m[j]))
    return tuple(full[:d])


def euclid_inv(field, x):
    """Inverse in an extension field by the extended Euclidean algorithm on
    x and the modulus over the base field."""
    b = field.base

    def trim(p):
        p = list(p)
        while p and b.is_zero(p[-1]):
            p.pop()
        return p

    r0, r1 = list(field.modulus), trim(x)
    s0, s1 = [], [b.one]
    while r1:
        q, r = plist_divmod(b, r0, r1)
        r0, r1 = r1, r
        prod = plist_mul(b, q, s1)
        ns = list(s0) + [b.zero] * max(0, len(prod) - len(s0))
        for i, pi in enumerate(prod):
            ns[i] = b.sub(ns[i], pi)
        s0, s1 = s1, trim(ns)
    if len(r0) != 1:
        raise FieldError("modulus is reducible: gcd has degree %d"
                         % (len(r0) - 1))
    c = b.inv(r0[0])
    inv = [b.mul(c, s) for s in s0]
    return tuple(inv + [b.zero] * (field.degree - len(inv)))
