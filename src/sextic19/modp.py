"""Reduction of a number field modulo a prime of residue degree one, and
the polynomial arithmetic over F_p that certifies one-sided gcd facts.

A *place* of a field F is a pair (p, images): a prime p and the images mod
p of the flat basis monomials of F, fixed by one root mod p of each tower
level's modulus.  `place` tries the primes of `PRIMES` in order.  A prime
is usable when it divides no denominator of any level's modulus and each
level's modulus, its coefficients reduced through the place of the level
below, has a root mod p (`root`).  The first usable prime is cached on the
field, so the place dies with the field; Q's place is (PRIMES[0], (1,)).
`reduce` maps elements to F_p: the dot product of each element's integer
coordinates (`numberfield._int_vectors`, the one reader of the stored
form) with the images, times the inverse of the common denominator, or
None when p divides that denominator.

Roots mod p (Cantor and Zassenhaus, "A new algorithm for factoring
polynomials over finite fields", Math. Comp. 36, 1981).  g = gcd(f, t^p - t)
is the product of the distinct linear factors of f over F_p.  Modulo each
factor t - r of g, (t + delta)^((p-1)/2) is the Legendre symbol of
r + delta, so the gcd of g with that power minus one collects the roots r
with r + delta a nonzero square.  `root` keeps that gcd whenever it is a
proper factor, for the shifts delta = 1, ..., SHIFTS, until one linear
factor is left; with none left, it gives None.  Both powers run on
`numberfield.power` with a product mod the polynomial.

Soundness.  Evaluating each generator at its root is a ring map from
Z_(p)[basis], the elements whose coordinates are p-integral, to F_p: each
level's modulus is monic with p-integral coefficients, so these elements
form a ring, free over Z_(p) on the basis monomials, and the roots satisfy
the reduced moduli.  As a ring map onto a field its kernel is a maximal
ideal, and it extends to the valuation ring O_P of some prime P of F above
it, with a residue field F_q containing F_p.  Now let polynomials over F be
given whose coefficients are all p-integral, one of them with a leading
coefficient of nonzero image, and let G be their monic gcd over F.  That
leading coefficient is a unit of O_P, so the roots of G, which are roots of
that polynomial, are integral over O_P; the coefficients of G are symmetric
functions of them, integral over O_P and in F, hence in O_P, which is
integrally closed.  Dividing by the monic G keeps every input in O_P[t], so
the image of G, monic of degree deg G, divides every reduced input.  Hence

    deg gcd(reduced inputs) >= deg G.

A gcd of degree one mod p, with t - t0 dividing every input over F, gives
G = t - t0, and a gcd of degree zero gives G = 1.  A nonzero image shows a
nonzero element.  No condition on the discriminant or the index is needed.
As every certificate of the package does, the argument takes F to be a
field.  A prime that gives a larger degree, divides a denominator or
reduces a leading coefficient to zero certifies nothing, and the caller
runs its exact test instead.
"""

from operator import mul as _times

from .numberfield import _int_vectors, power

# the primes a place is sought at, in order: the first eight above 30000
PRIMES = (30011, 30013, 30029, 30047, 30059, 30071, 30089, 30091)
# the shifts delta = 1, ..., SHIFTS tried by the equal-degree splitting
SHIFTS = 16


def _trim(a):
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def mul(a, b, p):
    """The product of two coefficient lists over F_p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % p for c in out])


def rem(a, b, p):
    """a mod b over F_p, for b with a nonzero leading coefficient."""
    a = list(a)
    n = len(b) - 1
    inv = pow(b[-1], -1, p)
    for k in range(len(a) - 1, n - 1, -1):
        q = a.pop() * inv % p
        if q:
            for j in range(n):
                a[k - n + j] = (a[k - n + j] - q * b[j]) % p
    return _trim(a)


def gcd(a, b, p):
    """The monic gcd over F_p of two coefficient lists, not both zero."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, rem(a, b, p)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def derivative(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def value(a, x, p):
    """a(x) over F_p, by Horner's rule."""
    out = 0
    for c in reversed(a):
        out = (out * x + c) % p
    return out


def sub(a, b, p):
    """a - b over F_p."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim([c % p for c in out])


def root(f, p):
    """A root in F_p of the coefficient list f over F_p, or None when f has
    none or SHIFTS splittings leave more than one (see the module
    docstring).  p is an odd prime."""
    f = _trim(list(f))
    if len(f) == 2:
        return -f[0] * pow(f[1], -1, p) % p
    if len(f) < 2:
        return None
    tp = power(lambda a, b: rem(mul(a, b, p), f, p), [1], [0, 1], p)
    g = gcd(f, sub(tp, [0, 1], p), p)
    shifts = iter(range(1, SHIFTS + 1))
    while len(g) > 2:
        delta = next(shifts, None)
        if delta is None:
            return None
        h = power(lambda a, b: rem(mul(a, b, p), g, p), [1], [delta, 1],
                  (p - 1) // 2)
        d = gcd(g, sub(h, [1], p), p)
        if 1 < len(d) < len(g):
            g = d
    return -g[0] % p if len(g) == 2 else None


def reduce(field, pl, elems):
    """The images in F_p of elements of field at its place pl = (p, images),
    or None when p divides a denominator."""
    p, images = pl
    vectors, den = _int_vectors(field, elems)
    if not den % p:
        return None
    scale = pow(den, -1, p)
    return [sum(map(_times, v, images)) * scale % p for v in vectors]


def _basis_images(field, p):
    """The images mod p of the flat basis monomials of field, a root of each
    level's reduced modulus fixing them, or None when p is not usable."""
    if field.base is None:
        return (1,)
    low = _basis_images(field.base, p)
    if low is None:
        return None
    modulus = reduce(field.base, (p, low), field.modulus)
    r = None if modulus is None else root(modulus, p)
    if r is None:
        return None
    # flat index i * bd + j holds the monomial g^i times base monomial j
    return tuple(x * pow(r, i, p) % p
                 for i in range(field.degree) for x in low)


def place(field):
    """The place (p, images) of field at the first usable prime of PRIMES,
    or None when there is none; cached on the field."""
    if field.base is None:
        return PRIMES[0], (1,)
    try:
        return field._place
    except AttributeError:
        pass
    field._place = None
    for p in PRIMES:
        images = _basis_images(field, p)
        if images is not None:
            field._place = p, images
            break
    return field._place
