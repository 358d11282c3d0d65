"""Reduction of a number field modulo a prime of residue degree one, the
polynomial arithmetic over F_p that certifies one-sided gcd facts, and
square roots in simple extensions of Q decided and lifted mod p.  This is
the package's one module that computes modulo a prime.

A *place* of a field F is a pair (p, images): a prime p and the images mod
p of the flat basis monomials of F, fixed by one root mod p of each tower
level's modulus.  `embeddings` yields the images of every choice of such
roots, each level's modulus reduced through every embedding of the level
below.  `place` takes the first one at the first prime of `PRIMES` that
has one, so a field gets a place at p whenever some choice of roots works,
whichever root the splitting isolates first.  A prime that divides a
denominator of some level's modulus gives no embedding.  The place is
cached on the field, one per distinct field of a corpus load, whose records
share their fields; Q's place is (PRIMES[0], (1,)).  `reduce` maps elements
to F_p: the dot product of each element's integer coordinates
(`numberfield._int_vectors`, the one reader of the stored form) with the
images, times the inverse of the common denominator, or None when p divides
that denominator.

Roots mod p (Cantor and Zassenhaus, "A new algorithm for factoring
polynomials over finite fields", Math. Comp. 36, 1981).  g = gcd(f, t^p - t)
is the product of the distinct linear factors of f over F_p.  Modulo each
factor t - r of g, h = (t + delta)^((p-1)/2) is the Legendre symbol of
r + delta, so gcd(g, h - 1), gcd(g, h + 1) and gcd(g, t + delta) collect
the roots r with r + delta a nonzero square, a non-square and zero: three
factors whose product is g, with no polynomial division.  `roots` splits
each factor of degree two or more so, with the shifts delta = 1, ...,
SHIFTS in turn, and yields each root as soon as its factor is linear, so a
caller that needs one root pays for one.  A factor that SHIFTS shifts leave
unsplit yields nothing: a caller must treat a missing root as "not found",
never as "none exists".  Every power runs on `numberfield.power` with a
product mod the polynomial.

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

Square roots.  `sqrt` decides whether x is a square in F = Q[a]/(m),
deg m = d >= 3, and returns a root when it is.  It scans the odd primes p
from 103 on, below SQRT_PRIME_BOUND, skipping those that divide a
denominator of m or of x, and reads x at the simple roots r of m mod p (m'
nonzero at r) that `roots` finds.

- Refusal.  Let r be a simple root of m mod p, with p dividing no
  denominator.  Then (p, a - r) is a regular prime of F of degree one: its
  residue field is F_p, and the residue map a -> r extends to the valuation
  ring at that prime.  If x = y^2, then y is integral there, since x is, so
  the image of x is the square of the image of y in F_p.  Hence a nonzero
  image x(r) that is not a square mod p (Euler's criterion) proves that x is
  no square in F.  This is the only "not a square" verdict.  For a
  non-square x such a prime exists (a Frobenius class of the Galois closure
  that fixes a root of m and moves sqrt(x)), so the scan ends.
- Lifting.  At a prime where m splits completely, into d simple roots r_i
  with x(r_i) nonzero squares, F_p[t]/(m) is F_p^d, and Z_p[t]/(m) is
  Z_p^d by Hensel's lemma.  With w_i = 1/sqrt(x(r_i)) from
  `roots(t^2 - x(r_i))` and the Lagrange basis L_i at the r_i (built once),
  each sign choice starts from z_0 = sum +-w_i L_i, the sign of w_1 fixed,
  since y and -y are both roots.  The Newton step z <- z (3 - x z^2) / 2
  for 1/sqrt(x), in (Z/p^k)[t]/(m) with `mul` and `rem`, doubles the
  precision k, up to 128; all 2^(d-1) sign choices advance one doubling at
  a time.  After each doubling, x z is rationally reconstructed coordinate
  by coordinate (Cohen, GTM 138, 1.3.2 and 3.5), and y = x z is returned
  when y^2 = x holds exactly.
- A prime where the split or a reconstruction fails is skipped: it proves
  nothing either way.  Every root returned has passed the exact check
  y^2 = x.  Past SQRT_PRIME_BOUND the scan raises FieldError, a refusal,
  which `certify` reports as a FAIL.
"""

from itertools import product
from math import gcd as igcd
from math import isqrt
from operator import mul as _times

from .numberfield import QQ, FieldError, _int_vectors, power
from .rationals import Rat, is_prime

# the primes a place is sought at, in order: the first eight above 30000
PRIMES = (30011, 30013, 30029, 30047, 30059, 30071, 30089, 30091)
# the shifts delta = 1, ..., SHIFTS tried by the equal-degree splitting
SHIFTS = 16
# `sqrt` gives up, with FieldError, at the first prime above this bound
SQRT_PRIME_BOUND = 2_000_000


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


def roots(f, p):
    """Yield each distinct root in F_p of the coefficient list f over F_p
    as soon as the splitting isolates it; a factor that SHIFTS shifts leave
    unsplit yields nothing (see the module docstring).  p is an odd prime
    above SHIFTS."""
    f = _trim(list(f))
    if len(f) < 2:
        return
    tp = power(lambda a, b: rem(mul(a, b, p), f, p), [1], [0, 1], p)
    # (factor, the next shift to split it with)
    todo = [(gcd(f, sub(tp, [0, 1], p), p), 1)]
    while todo:
        g, delta = todo.pop()
        if len(g) == 2:
            yield -g[0] % p
            continue
        if len(g) < 2 or delta > SHIFTS:
            continue
        h = power(lambda a, b: rem(mul(a, b, p), g, p), [1], [delta, 1],
                  (p - 1) // 2)
        parts = [gcd(g, sub(h, [c], p), p) for c in (1, p - 1)]
        parts.append(gcd(g, [delta, 1], p))
        # the smallest factor first: it gives its first root soonest
        todo += sorted(((d, delta + 1) for d in parts),
                       key=lambda e: -len(e[0]))


def reduce(field, pl, elems):
    """The images in F_p of elements of field at its place pl = (p, images),
    or None when p divides a denominator."""
    p, images = pl
    vectors, den = _int_vectors(field, elems)
    if not den % p:
        return None
    scale = pow(den, -1, p)
    return [sum(map(_times, v, images)) * scale % p for v in vectors]


def embeddings(field, p):
    """Yield the images mod p of the flat basis monomials of field for each
    choice of a root of each level's reduced modulus, under each embedding
    of the level below; nothing when p divides a modulus's denominator."""
    if field.base is None:
        yield (1,)
        return
    for low in embeddings(field.base, p):
        modulus = reduce(field.base, (p, low), field.modulus)
        if modulus is None:
            return
        # flat index i * bd + j holds the monomial g^i times base monomial j
        for r in roots(modulus, p):
            yield tuple(x * pow(r, i, p) % p
                        for i in range(field.degree) for x in low)


def place(field):
    """The place (p, images) of field at the first prime of PRIMES that has
    an embedding, or None when there is none; cached on the field."""
    if field.base is None:
        return PRIMES[0], (1,)
    try:
        return field._place
    except AttributeError:
        pass
    field._place = None
    for p in PRIMES:
        images = next(embeddings(field, p), None)
        if images is not None:
            field._place = p, images
            break
    return field._place


def _rational_reconstruct(c, modulus):
    """The rational u/v with u = c v mod modulus and |u|, v <= sqrt(modulus
    / 2), or None when there is none."""
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, c % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or igcd(r1, s1) != 1:
        return None
    return Rat(r1, s1)


def sqrt(field, x):
    """A root y with y^2 = x of a nonzero element x of Q[a]/(m), deg m >= 3,
    or None when x is no square: refused by Euler's criterion at a simple
    root of m mod p, or lifted from a prime where m splits completely (see
    Square roots in the module docstring)."""
    coords = field.coords(x)
    p = 101
    while True:
        p += 2
        if p > SQRT_PRIME_BOUND:
            raise FieldError("square decision did not converge for %s"
                             % field.to_str(x))
        if not is_prime(p):
            continue
        at_p = (p, (1,))
        m, xs = reduce(QQ, at_p, field.modulus), reduce(QQ, at_p, coords)
        if m is None or xs is None:
            continue
        dm = derivative(m, p)
        simple, vals = [], []
        for r in roots(m, p):
            if value(dm, r, p):
                v = value(xs, r, p)
                if v and pow(v, (p - 1) // 2, p) != 1:
                    return None
                simple.append(r)
                vals.append(v)
        if len(simple) == field.degree and all(vals):
            y = _lift_sqrt(field, x, coords, p, simple, vals)
            if y is not None:
                return y


def _lift_sqrt(field, x, coords, p, rs, vals):
    """y with y^2 = x from the square roots of the nonzero squares vals =
    x(r_i) mod p at the d simple roots r_i of m, or None: every sign choice
    advances one Newton doubling at a time, and x z is reconstructed and
    checked exactly after each doubling."""
    d = len(rs)
    ws = []
    for v in vals:
        s = next(roots([-v % p, 0, 1], p), None)
        if s is None:
            return None
        ws.append(pow(s, -1, p))
    # the Lagrange basis at the roots: L_i(r_j) = 1 for j = i, else 0
    basis = []
    for i, r in enumerate(rs):
        li, den = [1], 1
        for j, s in enumerate(rs):
            if j != i:
                li = mul(li, [-s % p, 1], p)
                den = den * (r - s) % p
        scale = pow(den, -1, p)
        basis.append([c * scale % p for c in li])
    # z_0 = sum_i +-w_i L_i, the sign of w_1 fixed
    zs = []
    for signs in product((1, -1), repeat=d - 1):
        signed = [s * w for s, w in zip((1,) + signs, ws)]
        zs.append([sum(w * li[j] for w, li in zip(signed, basis)) % p
                   for j in range(d)])
    k = 1
    while k < 128:
        k *= 2
        pk = p ** k
        at = (pk, (1,))
        m, xk = reduce(QQ, at, field.modulus), reduce(QQ, at, coords)
        half = pow(2, -1, pk)
        for n, z in enumerate(zs):
            xz2 = rem(mul(xk, rem(mul(z, z, pk), m, pk), pk), m, pk)
            z = zs[n] = [c * half % pk for c in
                         rem(mul(z, sub([3], xz2, pk), pk), m, pk)]
            cs = []
            for c in rem(mul(xk, z, pk), m, pk):
                q = _rational_reconstruct(c, pk)
                if q is None:
                    break
                cs.append(q)
            else:
                y = field.from_coords(cs + [QQ.zero] * (d - len(cs)))
                if field.mul(y, y) == x:
                    return y
    return None
