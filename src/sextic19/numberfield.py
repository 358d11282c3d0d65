"""Exact arithmetic in Q and in towers of number fields.

Fields are either the rationals or an extension base[g]/(m(g)) with m monic
and squarefree over the base.  Corpus fields are Q[a]/(m) with deg m <= 6,
optionally with a quadratic generator on top (two-generator fields), and the
singularity analysis adjoins one more quadratic root when a curve's special
parameters live in a quadratic extension.  `build_tower`, which the corpus
loader and `number_field` call, refuses a modulus m with gcd(m, m') != 1
over its base (`is_squarefree`); irreducibility is not checked.

`field_sqrt` reduces a square root in a quadratic extension to square roots
in its base, and hands one in Q[a]/(m), deg m >= 3, to `modp.sqrt`.  This
module computes nothing modulo a prime: `modp` does.

Raw element representations are plain: an element of Q is a Rat (mpq or
Fraction), and an element of an extension is one flat tuple of its
degree_over_q rational coordinates, tower levels low first.  The tower
lives in the field, not in the element, so adding, comparing, hashing and
coercing up the tower work on the flat tuple alone.  The FieldElement
wrapper provides operator syntax on top of that.

Every product, in Q and in every extension, runs on one integer kernel
with no recursion through the tower.  `_int_vectors` writes the rational
coordinates of a list of elements as integers over one common denominator,
a list of degree_over_q ints per element, and `_elements` builds elements
from such integers.  They are the kernel's only contact with the stored
form, and the only functions that know that an element of Q is a bare Rat.

A field of degree n over Q with tower levels of degrees d_1, ..., d_L
indexes the unreduced product by its monomials x_1^e_1 ... x_L^e_L with
e_l <= 2 d_l - 2, its w = `_width` slots; the n basis monomials come
first, in the flat order of the stored form.  Entry `_table[i][j]` is the
slot of the product of basis monomials i and j.  Reduction scales the basis
slots by one integer D (`_den`) and adds hi * row for every other slot,
where the row holds the integer coordinates of D times that monomial.  Over
a simple field the slots are 1, g, ..., g^(2d-2) and the rows are g^(d+i).
Q is the degree-one case: one slot, the monomial 1, no rows and D = 1.
Each extension builds its table and rows once, from its base's, with one
base product per basis monomial of the base and coefficient of the modulus
(`_reduction_rows`).

One multiply-accumulate loop, `_mac`, adds scale * a_i * b_j into slot
at + table[i][j] of an accumulator, for the nonzero b_j only
(`_nonzero`).  With the field's table it sums the unreduced product of two
elements into one slot array.  Every kernel sums
all the products that make up one output coefficient into that
coefficient's slot array and reduces it once (`_ireduce`).  No rational is
formed until the end, so no intermediate gcd is paid; each output leaf is
built once as Rat(num, den), which divides out the gcd and makes the
denominator positive.

Soundness: the power-basis coordinates of an element are unique, and each
row holds the exact coordinates of its monomial, scaled by D.  Reduction
is linear, so reducing any sum of unreduced products gives D times the
coordinates of the sum of those products.  That holds for a signed sum
sum_i +-a_i b_i whose products are scaled to one common denominator: reduced
once, it equals the sum of the reduced products, each scaled and signed.
Every sum that a kernel below forms before it reduces therefore still
reduces to the canonical result, the same tuple that multiplying leaf by
leaf in rationals gives.  Zero
coordinates, zero coefficients and trailing zero coefficients add nothing
to a sum, so the kernels skip them.

`ExtensionField.inv` uses the same kernel (`_iinv`): the products x * e_j
with the basis elements e_j are the columns of the matrix of multiplication
by x, and 1/x solves that integer system against the coordinates of 1 by
fraction-free elimination, again with one Rat per output leaf.  Addition
and negation work coordinate by coordinate on the rationals.

`plist_dot` gives the signed sum sum_i +-a_i b_i of products of coefficient
lists (the minors a_i b_j - a_j b_i of `curve.cross`), and `plist_mul` is
its one-term case (polynomials and truncated series, cut to the first n
coefficients).  Each operand list is written once as integers over one
common denominator, and each product is scaled to the least common multiple
of the products' denominators.  The convolution itself, `_idot`, takes and
gives integers, and every list product of the module runs on it.  The
nonzero integers of b form one flat list, and its own slot table puts slot
s of output coefficient i + j at i * w + (j * w + s), so a_i times all of b
is one `_mac` at offset i * w, with the scale and sign of its product.
Every product adds into one slot array per output coefficient, reduced
once.  Integer sums and reduction
are exact, and the power-basis coordinates of each output coefficient are
unique, so the list is the same canonical one that one field.mul and one
field.add per pair of terms gives, summed product by product.  `sparse_dot`
and its one-term case `sparse_mul` are the same convolution on polynomials
stored as dicts from exponent tuples to coefficients (the TriPoly products,
the cofactor expansions of `polynomial.determinant` and the entries of
`hybrid_bezout`), one slot array per output monomial.  The stored form of
an element is unchanged: the integers live only inside the call.

`plist_shift` gives the coefficients of a(t + t0).  It takes the powers of
t0 once, each one integer product of the one before, over one common
denominator, and writes the list a once as integers.  Coefficient j is the
sum of C(k, j) a_k t0^(k-j) over k >= j, summed unreduced with the scale
C(k, j) and reduced once.  By the binomial theorem that is the coefficient
of t^j in a(t + t0), and every step is exact, so the list is the canonical
one that Horner's rule in field arithmetic gives.

`plist_divmod` writes the divisor once as integers over one denominator and
inverts its leading coefficient once.  Running from the top down,
coefficient k of the running remainder is computed once, when it leads (it
then gives quotient coefficient k - n, for n = deg den) or when it ends in
the remainder (k < n): num_k minus the sum of quo_s * den_(k-s) over the
quotient coefficients found so far, a sum of unreduced integer products
over one denominator, reduced once and built once as Rats.  The integers
of a quotient coefficient are divided by their gcd with its denominator,
which leaves the least common denominator of its Rats and the numerators
over it: the integers that reading those Rats back would give.  Long
division over a field has exactly one answer: the quotient q and remainder
r with num = q * den + r and deg r < deg den are unique, and every step
here is exact, so both are the canonical lists that one field.mul and one
field.sub per term give (Knuth, TAOCP vol. 2, 4.6.1).  The loop itself,
`_idivmod`, takes and gives integers.  Read from the top down, its quotient
is the series quotient of the reversed lists, and it runs on the loop of
`plist_quotients` below.

`plist_gcd` runs Euclid's algorithm on integer coordinates.  It writes
each list once as integers and drops its denominator.  Each step divides by
that loop, with the inverse of the leading coefficient solved in integers
by `_iinv` (one inverse per step); the quotient stays in integers, and the
remainder is put over one denominator and divided by the gcd of its
integers before it becomes the next divisor.  A nonzero constant remainder
ends the loop with the gcd one; only a gcd of positive degree is built as
elements, times the inverse of its leading coefficient.  Soundness:
scaling a list by a nonzero rational multiplies it by a unit of K[t], which
changes neither its divisors nor, up to such a unit, its remainder by any
divisor.  So each remainder here is a nonzero rational multiple of the
remainder that field arithmetic gives at the same step, the last nonzero
one is an associate of the gcd, and made monic it is the unique monic gcd.
A nonzero constant remainder is a unit, so the gcd is one.  Every remainder
is a true remainder up to a rational factor, not a pseudo-remainder, so no
power of an algebraic leading coefficient piles up in the coefficients
(Brown, "On Euclid's algorithm and the computation of polynomial greatest
common divisors", J. ACM 18, 1971).

Three loops on truncated series, and on polynomials, keep every
intermediate as integer coordinates over one denominator, write their
inputs as integers once, divide each intermediate by the gcd of its
integers and its denominator, and build elements only for the coefficients
they return.  Dividing the integers by their content g, their gcd with the
denominator, scales them by the nonzero rational 1/g, a unit, and the
denominator by the same 1/g, so every rational is unchanged.  Every other
step is an exact integer sum or `_idot`/`_imul` product, so each loop
gives the same canonical coefficients as the loop in field arithmetic it
replaced.

- `plist_quotients` gives the first n coefficients of num / den for one or
  more numerators and one den with den_0 != 0 (the chart quotients x/z and
  y/z of a germ, and 1/u in `TruncatedSeries.invert_unit`), sharing one
  inverse of den_0 solved by `_iinv`.  Its loop `_iquotient` computes
  q_k = (num_k - sum_(j >= 1) den_j q_(k-j)) / den_0 as one unreduced sum
  of products and one product by that inverse.  Series division has one
  answer: den is a unit of K[[s]], and q = num * den^(-1) mod s^n is the
  only series with q * den = num mod s^n, which the recurrence solves for
  term by term.
- `plist_compose` gives a(b), cut to n coefficients for series, by Horner's
  rule on integers: acc <- acc * b + a_k, one `_idot` product a step (one
  `_imul` when b is a constant, which is `UniPoly.eval`).  Horner's rule is
  an identity of polynomials, and truncating each product at s^n changes
  no coefficient below s^n, since every later step only multiplies by b
  and adds constants.
- `plist_peel` writes a as sum_m c_m u^m + r mod s^n for u of order e
  (Knuth, TAOCP vol. 2, 4.7): while the order o of r is a multiple m e of
  e, it sets c_m = r_o / lc(u)^m and r <- r - c_m u^m.  The coefficient of
  s^(me) in u^m = (lc(u) s^e + ...)^m is lc(u)^m, so the step clears the
  term of r at o; one inverse of lc(u), by `_iinv`, and
  its powers give every c_m, and the powers u^m are integer truncated
  products, each over one denominator.  The update is one `_idot` pass
  over the coefficients of r from o + 1 up.  Every c_m and the order where
  the peeling stops are determined by a and u alone, so they are the ones
  that peeling in field arithmetic gives.

`nullspace` eliminates on integer rows, with one integer product per entry
and no Rat until the unique reduced row echelon form is read off.

`power` is the one square-and-multiply routine of the package: `field_pow`
and the `**` of UniPoly and TriPoly call it with their own product, so a
first power costs no product and x^n costs bit_length(n) + popcount(n) - 2.

The flat form is private to this module, and only `coords`, `from_coords`
and `descend` split it at the base field.  Other modules see an element
only through its field: `coords` and `from_coords` read and build its
base-field coordinates (the corpus JSON keeps them nested), and `descend`
tests whether it lies in the base field, so a different stored form
(integers over a common denominator, say) would change this module alone.
"""

from bisect import bisect_left
from math import comb, gcd, isqrt, lcm
from operator import add, mul, sub

from .rationals import (
    QQ0,
    QQ1,
    Rat,
    rat,
    rat_sqrt,
    rat_str,
)


class FieldError(Exception):
    pass


class FieldMismatch(FieldError):
    pass


# ----------------------------------------------------------------------
# dense list-polynomial kernel over an arbitrary field, coefficients
# low-first: product and long division.  The UniPoly class in polynomial.py
# builds on the fields defined here, so the kernel lives in this module and
# UniPoly multiplies and divides through it.


def _plist_normalize(field, coeffs):
    coeffs = list(coeffs)
    while coeffs and field.is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


def plist_dot(field, terms, n=None):
    """The sum of sign * a * b over the terms (sign, a, b) of coefficient
    lists, sign 1 or -1, normalized and cut to its first n coefficients when
    n is given (see the module docstring)."""
    ops = []
    for sign, a, b in terms:
        # trailing zero coefficients (of a series padded to its truncation,
        # say) add nothing to a product
        a = _plist_normalize(field, a[:n])
        b = _plist_normalize(field, b[:n])
        if a and b:
            (xa, da), (xb, db) = _int_vectors(field, a), _int_vectors(field, b)
            ops.append((sign, xa, xb, da * db))
    if not ops:
        return []
    top = max(len(xa) + len(xb) - 1 for _s, xa, xb, _d in ops)
    if n is not None:
        top = min(top, n)
    # the products are summed over one common denominator m
    m = lcm(*[d for _s, _xa, _xb, d in ops])
    flat = _idot(field, [(sign * (m // d), xa, xb) for sign, xa, xb, d in ops],
                 top)
    return _plist_normalize(field, _elements(field, flat, m * field._den))


def plist_mul(field, a, b, n=None):
    """Product of two coefficient lists, cut to its first n coefficients
    when n is given: the one-term `plist_dot`, padded with zeros to the
    length of the product, as a truncated series keeps its length."""
    size = len(a) + len(b) - 1 if a and b else 0
    if n is not None:
        size = min(size, n)
    if size <= 0:
        return []
    out = plist_dot(field, [(1, a, b)], size)
    return out + [field.zero] * (size - len(out))


def plist_shift(field, a, t0):
    """The coefficient list of a(t + t0) (see the module docstring)."""
    n = len(a)
    if n < 2:
        return list(a)
    xa, da = _int_vectors(field, a)
    xp, dp = _int_powers(field, *_int_vector(field, t0), n)
    xp = [_nonzero(p) for p in xp]
    w = field._width
    acc = [0] * (n * w)
    for k, ak in enumerate(xa):
        if any(ak):
            for j in range(k + 1):
                _mac(acc, ak, field._table, xp[k - j], comb(k, j), j * w)
    return _elements(field, _ireduce(field, acc), da * dp * field._den)


def plist_divmod(field, num, den):
    """Quotient and normalized remainder of num by den (den normalized),
    each coefficient computed once (see the module docstring)."""
    xn, dnum = _int_vectors(field, num)
    xd, dden = _int_vectors(field, den)
    xi, dinv = _int_vector(field, field.inv(den[-1]))
    xq, rem = _idivmod(field, xn, dnum, xd, dden, xi, dinv)
    quo = [field.zero if q is None else _elements(field, *q)[0] for q in xq]
    return quo, _plist_normalize(
        field, [x for r, rd in rem for x in _elements(field, r, rd)])


def plist_gcd(field, a, b):
    """Monic gcd of two coefficient lists, not both zero: Euclid's algorithm
    on integer coordinates (see the module docstring)."""
    a, b = _plist_normalize(field, a), _plist_normalize(field, b)
    # divide the longer list by the shorter, or the zero list by the other
    if len(a) < len(b):
        a, b = b, a
    if not b:
        a, b = b, a
    (xa, _da), (xb, _db) = _int_vectors(field, a), _int_vectors(field, b)
    while len(xb) > 1:
        # 1/lc = xi/di, solved for the primitive part of lc and divided by
        # the gcd of its integers, which keeps the products by it small
        g = gcd(*xb[-1])
        xi, di = _iinv(field, [c // g for c in xb[-1]])
        h = gcd(di, *xi)
        xi, di = [c // h for c in xi], di // h * g
        rem = _idivmod(field, xa, 1, xb, 1, xi, di)[1]
        while rem and not any(rem[-1][0]):
            rem.pop()
        if not rem:
            # xb is the last nonzero remainder: times 1 / lc, it is monic
            xi = _nonzero(xi)
            monic = [c for v in xb for c in _imul(field, v, xi)]
            return _elements(field, monic, di * field._den)
        # the remainder over one denominator, divided by the gcd of its
        # integers: a rational multiple of it, with the same gcd
        m = lcm(*[rd for _r, rd in rem])
        rem = [[c * (m // rd) for c in r] for r, rd in rem]
        g = gcd(*[c for r in rem for c in r])
        xa, xb = xb, [[c // g for c in r] for r in rem]
    # a nonzero constant remainder: the gcd is one
    return [field.one] if xb else []


def plist_quotients(field, nums, den, n):
    """The first n coefficients of the series num / den for each coefficient
    list num of nums, den with a nonzero constant term: one series division
    each, sharing one inverse of den_0 (see the module docstring)."""
    xd, dd = _int_vectors(field, den[:n])
    xi, di = _iinv(field, xd[0], dd)
    out = []
    for num in nums:
        xa, da = _int_vectors(field, num[:n])
        out.append([field.zero if q is None else _elements(field, *q)[0]
                    for q in _iquotient(field, xa, da, xd, dd, xi, di, n)])
    return out


def plist_compose(field, a, b, n=None):
    """The normalized coefficient list of a(b), cut to its first n
    coefficients when n is given: Horner's rule on integer coordinates (see
    the module docstring)."""
    a = _plist_normalize(field, a[:n])
    b = _plist_normalize(field, b[:n])
    if not a or not b:
        return _plist_normalize(field, a[:1])
    (xa, da), (xb, db) = _int_vectors(field, a), _int_vectors(field, b)
    # acc / dacc is the integer polynomial sum_(j >= k) xa_j b^(j-k); a
    # constant b (an evaluation) keeps it one coefficient, one _imul a step
    acc, dacc = list(xa[-1]), 1
    b0 = _nonzero(xb[0]) if len(xb) == 1 else None
    for v in reversed(xa[:-1]):
        d = dacc * db * field._den
        if b0 is not None:
            acc = _imul(field, acc, b0)
        else:
            top = len(acc) // field.degree_over_q + len(xb) - 1
            acc = _idot(field, [(1, _split(field, acc), xb)],
                        top if n is None else min(top, n))
        if any(v):
            acc[:len(v)] = [x + c * d for x, c in zip(acc, v)]
        acc, dacc = _primitive(acc, d)
    return _plist_normalize(field, _elements(field, acc, dacc * da))


def plist_peel(field, a, u, e):
    """(c, stop) with a = sum_m c_m u^m + r mod t^n, n = len(a) = len(u),
    for u of order e >= 1: c lists the c_m for m * e < n, and stop is the
    order of r, which is not a multiple of e, or None when r vanishes below
    t^n.  Peels the lowest term of r while its order o = m * e is a multiple
    of e, on integer coordinates (see the module docstring)."""
    n, den, k = len(a), field._den, field.degree_over_q
    one = [1] + [0] * (k - 1)
    xr, dr = _int_vectors(field, a)
    xr = [c for v in xr for c in v]
    xu, du = _int_vectors(field, _plist_normalize(field, u[e:]))
    # u^m / t^(m e), each (integers, denominator)
    powers = [([one], 1)]
    c = [field.zero] * ((n - 1) // e + 1)
    inverses = None
    o = 0
    while True:
        o = next((j for j in range(o, n) if any(xr[j * k:(j + 1) * k])),
                 None)
        if o is None or o % e:
            return c, o
        m = o // e
        while len(powers) <= m:
            p, dp = powers[-1]
            flat = _idot(field, [(1, p, xu)], n - len(powers) * e)
            flat, dp = _primitive(flat, dp * du * den)
            powers.append((_split(field, flat), dp))
        if m and inverses is None:
            # lc(u)^(-j) for every j < len(c), over one denominator
            inverses, di = _int_powers(field, *_iinv(field, xu[0], du), len(c))
        # c_m = r_o lc(u)^(-m), since lc(u^m) = lc(u)^m
        li, dl = (inverses[m], di) if m else (one, 1)
        ro = xr[o * k:(o + 1) * k]
        cm, dc = _primitive(_imul(field, ro, _nonzero(li)), dr * dl * den)
        c[m] = _elements(field, cm, dc)[0]
        # r <- r - c_m u^m from o + 1 up (its term at o cancels), over the
        # lcm of the two denominators
        p, dp = powers[m]
        flat = _idot(field, [(1, p[1:], [cm])], n - o - 1)
        dd = dc * dp * den
        lm = lcm(dr, dd)
        fr, fd = lm // dr, lm // dd
        tail = [x * fr - y * fd for x, y in zip(xr[(o + 1) * k:], flat)]
        xr, dr = _primitive([0] * ((o + 1) * k) + tail, lm)


def nullspace(field, rows):
    """A basis of the solutions v of rows . v = 0: one vector per free column
    of the reduced row echelon form, with a one at that column and zeros at
    the other free columns.

    Gauss-Jordan elimination on integers.  Each row is written once as the
    integer coordinates of a nonzero multiple of itself, which spans the
    same row space.  A pivot row is multiplied by the inverse of its pivot
    and made primitive (divided by the gcd of its integers), so that its
    pivot is an integer D, and every other row with entry c in the pivot
    column becomes D * row - c * (pivot row), made primitive: one integer
    product per entry and no Rat.  At the end each pivot row is divided by
    its pivot, one Rat per leaf.  The reduced row echelon form is unique, so
    this is the one that elimination in field arithmetic reaches.
    """
    width = len(rows[0])

    def primitive(row):
        g = gcd(*[c for v in row for c in v])
        return [[c // g for c in v] for v in row] if g > 1 else row

    xs, _den = _int_vectors(field, [c for row in rows for c in row])
    rows = [xs[k:k + width] for k in range(0, len(xs), width)]
    pivots = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if any(rows[i][col])),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = _elements(field, rows[r][col], 1)[0]
        xi, _den = _int_vector(field, field.inv(pivot))
        xi = _nonzero(xi)
        prow = rows[r] = primitive([_imul(field, w, xi) for w in rows[r]])
        d = prow[col][0] * field._den   # _imul's products carry field._den
        live = [any(w) for w in prow]
        for i, row in enumerate(rows):
            c = _nonzero(row[col])
            if i != r and c:
                rows[i] = primitive([
                    [d * x - y for x, y in zip(v, _imul(field, w, c))] if on
                    else [d * x for x in v]
                    for v, w, on in zip(row, prow, live)])
        pivots.append(col)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [field.zero] * width
        vec[free] = field.one
        for row, col in zip(rows, pivots):
            vec[col] = _elements(field, [-c for c in row[free]],
                                 row[col][0])[0]
        basis.append(vec)
    return basis


def sparse_dot(field, terms):
    """The sum of sign * a * b over the terms (sign, a, b) of sparse
    polynomials, each a dict from exponent tuples to nonzero coefficients:
    the sparse form of the plist_dot convolution, one integer sum per output
    monomial over one common denominator, reduced once."""
    ops = []
    for sign, a, b in terms:
        if a and b:
            xa, da = _int_vectors(field, list(a.values()))
            xb, db = _int_vectors(field, list(b.values()))
            ops.append((sign, list(zip(a, xa)),
                        [(e, _nonzero(v)) for e, v in zip(b, xb)], da * db))
    m = lcm(*[d for _s, _pa, _pb, d in ops])
    start = {}              # output monomial -> start of its slot array
    acc = []
    for sign, pa, pb, d in ops:
        scale = sign * (m // d)
        for e1, c1 in pa:
            for e2, c2 in pb:
                e = tuple(map(add, e1, e2))
                k = start.get(e)
                if k is None:
                    k = start[e] = len(acc)
                    acc += [0] * field._width
                _mac(acc, c1, field._table, c2, scale, k)
    out = _elements(field, _ireduce(field, acc), m * field._den)
    return {e: c for e, c in zip(start, out) if not field.is_zero(c)}


def sparse_mul(field, a, b):
    """Product of two sparse polynomials: the one-term `sparse_dot`."""
    return sparse_dot(field, [(1, a, b)])


# ----------------------------------------------------------------------
# the integer kernel (see the module docstring)


def _int_coords(leaves):
    """(integer numerators, common denominator) of a list of rationals."""
    den = lcm(*[q.denominator for q in leaves])
    if den == 1:
        return [q.numerator for q in leaves], 1
    return [q.numerator * (den // q.denominator) for q in leaves], den


def _rats(nums, den):
    """Rat(c, den) for each integer c; a zero leaf needs no gcd."""
    return [Rat(c, den) if c else QQ0 for c in nums]


def _int_vectors(field, elems):
    """(the integer coordinates of each element, a list of degree_over_q
    ints, and one common denominator).  With `_elements`, the kernel's one
    contact with the stored form: a Rat over Q, a flat tuple of Rats
    otherwise."""
    n = field.degree_over_q
    nums, den = _int_coords(elems if n == 1 else [q for x in elems for q in x])
    return list(zip(*[iter(nums)] * n)), den


def _int_vector(field, x):
    """(integer coordinates, denominator) of one element."""
    (v,), den = _int_vectors(field, [x])
    return v, den


def _elements(field, nums, den):
    """The elements whose integer coordinates, one after the other in the
    flat list nums, are over den, in the stored form."""
    out = _rats(nums, den)
    n = field.degree_over_q
    return out if n == 1 else list(zip(*[iter(out)] * n))


def _nonzero(v):
    """The nonzero entries (j, v_j) of an integer list: the form in which
    `_mac` takes its second operand."""
    return [(j, y) for j, y in enumerate(v) if y]


def _mac(acc, a, table, b, scale=1, at=0):
    """Add scale * a_i * y into acc[at + table[i][j]] for each entry a_i of
    the integer list a and each entry (j, y) of b, and return acc.  With a
    field's `_table` and at = 0 this sums the unreduced product of two
    elements into one slot array."""
    for x, slots in zip(a, table):
        if x:
            x *= scale
            for j, y in b:
                acc[at + slots[j]] += x * y
    return acc


def _ireduce(field, full):
    """The integer coordinates, times field._den, of the sum of products in
    each slot array of full (consecutive arrays of field._width slots), one
    element after the other.  Reduction is linear, so a sum of products
    reduces to the sum of their reductions."""
    n, w, den = field.degree_over_q, field._width, field._den
    out = []
    for k in range(0, len(full), w):
        v = full[k:k + n] if den == 1 else [den * c for c in full[k:k + n]]
        for hi, row in zip(full[k + n:k + w], field._rows):
            if hi:
                for j, r in row:
                    v[j] += hi * r
        out += v
    return out


def _imul(field, a, b):
    """The integer coordinates of a * b times field._den, for b given by its
    nonzero entries (`_nonzero`)."""
    return _ireduce(field, _mac([0] * field._width, a, field._table, b))


def _idot(field, terms, top):
    """The integer coordinates, times field._den, of the first top
    coefficients of the sum of scale * a * b over the terms (scale, a, b) of
    lists of integer coordinates, one coefficient after the other in one
    flat list: the convolution of every list product in the package.

    b's nonzero integers form one flat list of (position, value), and the
    slot table puts slot s of output coefficient i + j at i * w + (j * w +
    s), so a_i times b is one _mac at offset i * w over the entries of the
    coefficients j < top - i.  A one-coefficient b needs no table of its
    own: the field's is that table."""
    w = field._width
    size = max(len(b) for _s, _a, b in terms)
    table = field._table if size == 1 else [
        [j * w + s for j in range(size) for s in row] for row in field._table]
    acc = [0] * (top * w)
    for scale, a, b in terms:
        bs = _nonzero([c for v in b for c in v])
        ends = [j for j, _y in bs]
        for i, ai in enumerate(a[:top]):
            if any(ai):
                cut = bisect_left(ends, (top - i) * len(ai))
                _mac(acc, ai, table, bs[:cut], scale, i * w)
    return _ireduce(field, acc)


def _split(field, flat):
    """The coefficients of a flat list of integer coordinates, one list of
    degree_over_q ints each."""
    n = field.degree_over_q
    return [flat[k:k + n] for k in range(0, len(flat), n)]


def _primitive(flat, den):
    """(flat, den) divided by the gcd of den and every integer of flat, with
    the sign that makes the denominator positive: the same rationals."""
    g = gcd(den, *flat)
    if den < 0:
        g = -g
    if g == 1:
        return flat, den
    return [c // g for c in flat], den // g


def _int_powers(field, v, d, n):
    """(integer coordinates of x^0, ..., x^(n-1), one common denominator)
    for x = v/d, n >= 2: each power is one _imul of the one before, scaled
    once to the denominator of the last."""
    powers = [([1] + [0] * (len(v) - 1), 1), (v, d)]
    vn = _nonzero(v)
    while len(powers) < n:
        p, dp = powers[-1]
        powers.append((_imul(field, p, vn), dp * d * field._den))
    top = powers[-1][1]
    return [[c * (top // dp) for c in p] for p, dp in powers], top


def _sub_products(field, x, dx, terms, de):
    """(integer coordinates, denominator) of x/dx - sum (q/dq) * (e/de) over
    the terms ((q, dq), e).  The products are summed unreduced over one
    denominator and reduced once."""
    if not terms:
        return x, dx
    m = lcm(*[dq for (_q, dq), _e in terms])
    acc = [0] * field._width
    for (q, dq), e in terms:
        _mac(acc, q, field._table, e, m // dq)
    scale = m * de * field._den
    return ([c * scale - dx * s for c, s in zip(x, _ireduce(field, acc))],
            dx * scale)


def _iquotient(field, xa, da, xb, db, xi, di, n):
    """The first n coefficients of the series quotient a / b, for a = xa/da
    and b = xb/db lists of integer coordinates, low first, given 1/b_0 =
    xi/di: q_k = (a_k - sum_(j >= 1) b_j q_(k-j)) / b_0.  Coefficient k is
    (integers, denominator) divided by their gcd, or None when it is zero."""
    xb = [_nonzero(v) for v in xb]
    xi = _nonzero(xi)
    zero = [0] * field.degree_over_q
    xq = []
    for k in range(n):
        # a_k - sum_j b_j q_(k-j), over the nonzero terms
        terms = [(xq[k - j], xb[j]) for j in range(1, min(k + 1, len(xb)))
                 if xq[k - j] is not None and xb[j]]
        r, rd = _sub_products(field, xa[k] if k < len(xa) else zero, da,
                              terms, db)
        q, dq = _imul(field, r, xi), rd * di * field._den
        xq.append(_primitive(q, dq) if any(q) else None)
    return xq


def _idivmod(field, xn, dnum, xd, dden, xi, dinv):
    """Long division of num = xn/dnum by den = xd/dden, lists of integer
    coordinates with den normalized, given 1/lc(den) = xi/dinv: (quotient,
    remainder).  Quotient coefficient s is (integers, denominator) divided
    by their gcd, or None when it is zero; remainder coefficient k < deg den
    is (integers, denominator), low first, not normalized.

    Read from the top down, the quotient is the series quotient of the
    reversed lists (`_iquotient`); each remainder coefficient k is then
    num_k - sum_s quo_s * den_(k-s)."""
    dn = len(xd) - 1
    nq = max(0, len(xn) - dn)
    xq = _iquotient(field, xn[::-1], dnum, xd[::-1], dden, xi, dinv, nq)
    xq.reverse()
    xd = [_nonzero(v) for v in xd]
    rem = []
    for k in range(min(dn, len(xn))):
        terms = [(xq[s], xd[k - s]) for s in range(min(k + 1, nq))
                 if xq[s] is not None and xd[k - s]]
        rem.append(_sub_products(field, xn[k], dnum, terms, dden))
    return xq, rem


def _slot_table(base, d):
    """The slot table of base[g]/(m), deg m = d: entry [i][j] is the slot of
    the product of basis monomials i and j.  A slot is a monomial x^s g^k,
    x^s a slot of the base and k <= 2d - 2: first the basis monomials in
    flat order, then for k < d the x^s g^k with x^s off the base's basis,
    then for k >= d every x^s g^k."""
    bn = base.degree_over_q
    n, nx = d * bn, len(base._rows)
    # pos[k][s]: the slot of x^s g^k
    pos = [list(range(k * bn, (k + 1) * bn))
           + list(range(n + k * nx, n + (k + 1) * nx)) for k in range(d)]
    top = n + d * nx
    pos += [list(range(top + i * (bn + nx), top + (i + 1) * (bn + nx)))
            for i in range(d - 1)]
    return [[p[x] for p in pos[k:k + d] for x in base._table[s]]
            for k in range(d) for s in range(bn)]


def _reduction_rows(base, d, nums, dt):
    """(rows, D) for base[g]/(m), deg m = d, where nums/dt are the flat
    coordinates of m without its leading one: for each slot after the basis
    monomials, in slot order, the nonzero (j, c) of the integer coordinates
    c of D * x^s g^k, D as small as keeps them integers.

    With db = base._den and dd = db^2 dt, the rows are built over
    D = dd^(d-1) and then divided by the gcd of D and all their entries.
    For k < d, dd * x^s g^k is db dt times the base's row of x^s at level k.
    g^d = -M/dt for M = nums, so level j of dd * x^s g^d is db^2 x^s (-M_j):
    for a basis monomial x^s, db times _imul(base, -M_j, e_s), with no base
    product for x^0 = 1; for another slot, the same sum over the base's row
    of x^s.  Each higher power is g times the one below: the levels shift
    up, and the top level times g^d is read off the rows of the basis
    monomials, with one factor dd more.
    """
    bn = base.degree_over_q
    db = base._den
    dd = db * db * dt
    # the base's rows, dense: db * x^s for x^s off its basis
    extra = [[r.get(j, 0) for j in range(bn)] for r in map(dict, base._rows)]
    f = db * dt * dd ** (d - 2)
    low = [[(k * bn + j, f * c) for j, c in enumerate(u) if c]
           for k in range(d) for u in extra]
    rows = []
    level = [[-db * db * c for c in nums]]
    units = [[(s, 1)] for s in range(1, bn)]
    tops = [[-c for c in nums[j:j + bn]] for j in range(0, d * bn, bn)]
    prods = [[_imul(base, t, e) for e in units] for t in tops]
    level += [[db * c for ps in prods for c in ps[s]] for s in range(bn - 1)]
    cols = [list(zip([db * c for c in t], *ps)) for t, ps in zip(tops, prods)]
    level += [[sum(map(mul, u, c)) for cs in cols for c in cs] for u in extra]
    basis_rows = level[:bn]
    for i in range(d - 1):
        if i:
            up = []
            for r in level:
                out = [0] * bn + [dd * c for c in r[:-bn]]
                for c, row in zip(r[-bn:], basis_rows):
                    if c:
                        out = [o + c * x for o, x in zip(out, row)]
                up.append(out)
            level = up
        scale = dd ** (d - 2 - i)
        rows += level if scale == 1 else [[scale * c for c in r]
                                          for r in level]
    den = dd ** (d - 1)
    g = gcd(den, *[c for r in low for _j, c in r], *[gcd(*r) for r in rows])
    rows = low + [[(j, c) for j, c in enumerate(r) if c] for r in rows]
    if g > 1:
        rows = [[(j, c // g) for j, c in r] for r in rows]
    return rows, den // g


def _solve_fraction_free(rows):
    """(numerators, denominator) of the solution of a nonsingular integer
    system given as n augmented rows, which are overwritten.

    Fraction-free Gauss-Jordan elimination (Bareiss): after the step on
    column k every entry is, up to sign, a minor of the input of order k + 1
    (pivot rows) or k + 2 (the others), so each division by the previous
    pivot is exact, and at the end every diagonal entry is the last pivot.
    Only the last column is read at the end, and a step reads no column
    left of its own, so the step on column k updates the columns after k
    alone: the entries it leaves are never read again.
    """
    n = len(rows)
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise FieldError("modulus is reducible: inverted a zero divisor")
        rows[k], rows[p] = rows[p], rows[k]
        pk, tail = rows[k][k], rows[k][k + 1:]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                row[k + 1:] = [(pk * r - f * q) // prev
                               for r, q in zip(row[k + 1:], tail)]
        prev = pk
    return [row[n] for row in rows], prev


def _iinv(field, v, scale=1):
    """(numerators, denominator) of the coordinates of scale / x for the
    nonzero element x with integer coordinates v.  The products x * e_j with
    the basis elements e_j are the columns of the matrix of multiplication
    by x, all times field._den, and scale / x solves that integer system
    against the coordinates of scale by fraction-free elimination."""
    n = field.degree_over_q
    cols = [_imul(field, v, [(j, 1)]) for j in range(n)]
    rows = [[c[i] for c in cols] + [0] for i in range(n)]
    rows[0][n] = scale * field._den
    return _solve_fraction_free(rows)


# ----------------------------------------------------------------------


class RationalField:
    """The field Q.  Raw elements are `Rat` values (see the rationals
    module)."""

    base = None
    name = None
    degree = 1
    degree_over_q = 1
    zero = QQ0
    one = QQ1
    # the integer kernel's tables (see the module docstring): one slot,
    # the monomial 1, and no reduction rows
    _table = ((0,),)
    _rows = ()
    _den = 1
    _width = 1

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return 1 / x

    def div(self, x, y):
        if y == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return x / y

    def is_zero(self, x):
        return x == 0

    def eq(self, x, y):
        return x == y

    def from_int(self, n):
        return Rat(n)

    def from_rat(self, q):
        return q if type(q) is Rat else Rat(q)

    def scalar_mul(self, q, x):
        return q * x

    def tower_chain(self):
        return [self]

    def coerce(self, x, src):
        if src == self:
            return x
        raise FieldMismatch("cannot coerce from %r to QQ" % (src,))

    def to_str(self, x):
        return rat_str(x)

    def random(self, rng, height=10):
        return Rat(rng.randint(-height, height), rng.randint(1, height))


QQ = RationalField()


class ExtensionField:
    """base[g]/(m(g)) with m monic squarefree over base.

    Raw elements are flat tuples of `degree_over_q` rationals: the base
    coordinates in the power basis 1, g, ..., g^(degree-1), each the base's
    own raw element, joined low first (`from_coords`, split by `coords`).

    A field holds its structure alone, built once here, and caches no
    elements; `modp.place` adds its place mod p, which depends on the field
    alone, so one field object may be shared.
    """

    def __init__(self, base, modulus, name):
        modulus = list(modulus)
        if len(modulus) < 3:
            raise FieldError("extension degree must be at least 2")
        if not base.eq(modulus[-1], base.one):
            raise FieldError("modulus must be monic")
        self.base = base
        self.modulus = tuple(modulus)
        self.name = name
        self.degree = len(modulus) - 1
        self.degree_over_q = self.degree * base.degree_over_q
        d = self.degree
        self.zero = (QQ0,) * self.degree_over_q
        self.one = (QQ1,) + self.zero[1:]
        self.gen = self.from_coords([base.zero, base.one]
                                    + [base.zero] * (d - 2))
        # the integer kernel (see the module docstring)
        self._table = _slot_table(base, d)
        self._rows, self._den = _reduction_rows(
            base, d, *_int_coords(self.from_coords(modulus[:-1])))
        self._width = self.degree_over_q + len(self._rows)

    def __repr__(self):
        return "%r[%s]" % (self.base, self.name)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and self.name == other.name
            and self.base == other.base
            and len(self.modulus) == len(other.modulus)
            and all(
                self.base.eq(a, b) for a, b in zip(self.modulus, other.modulus)
            )
        )

    def __hash__(self):
        return hash((self.name, self.degree, self.base))

    def add(self, x, y):
        return tuple(map(add, x, y))

    def sub(self, x, y):
        return tuple(map(sub, x, y))

    def neg(self, x):
        return tuple(-q for q in x)

    def mul(self, x, y):
        xs, xd = _int_coords(x)
        ys, yd = _int_coords(y)
        return tuple(_rats(_imul(self, xs, _nonzero(ys)),
                           xd * yd * self._den))

    def coords(self, x):
        """The base-field coordinates of x in the power basis."""
        bd = self.base.degree_over_q
        if bd == 1:
            return list(x)
        return [x[k:k + bd] for k in range(0, len(x), bd)]

    def from_coords(self, cs):
        """The element with base-field coordinates cs in the power basis."""
        cs = list(cs)
        if len(cs) != self.degree:
            raise FieldError("%d coordinates for an extension of degree %d"
                             % (len(cs), self.degree))
        return tuple(cs) if self.base == QQ else sum(cs, ())

    def descend(self, x):
        """x as an element of the base field, or None when x is not in it."""
        bd = self.base.degree_over_q
        if any(x[bd:]):
            return None
        return x[0] if bd == 1 else x[:bd]

    def inv(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("division by zero in %r" % self)
        # x = xs / xd, so 1/x = xd / xs
        xs, xd = _int_coords(x)
        return tuple(_rats(*_iinv(self, xs, xd)))

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def is_zero(self, x):
        return not any(x)

    def eq(self, x, y):
        return x == y

    def from_int(self, n):
        return (Rat(n),) + self.zero[1:]

    def from_rat(self, q):
        return (QQ.from_rat(q),) + self.zero[1:]

    def scalar_mul(self, q, x):
        return tuple(q * c for c in x)

    def tower_chain(self):
        return self.base.tower_chain() + [self]

    def coerce(self, x, src):
        """x from src, a field of the tower under self: its rational
        coordinates padded with zeros."""
        if src == self:
            return x
        if src in self.base.tower_chain():
            low = (x,) if src == QQ else x
            return low + self.zero[len(low):]
        raise FieldMismatch("cannot coerce from %r to %r" % (src, self))

    def to_str(self, x):
        b = self.base
        parts = []
        for i, xi in enumerate(self.coords(x)):
            if b.is_zero(xi):
                continue
            cs = b.to_str(xi)
            if i == 0:
                parts.append(cs)
            else:
                mon = self.name if i == 1 else "%s^%d" % (self.name, i)
                if cs == "1":
                    parts.append(mon)
                elif cs == "-1":
                    parts.append("-" + mon)
                elif ("+" in cs[1:]) or ("-" in cs[1:]) or "*" in cs:
                    parts.append("(%s)*%s" % (cs, mon))
                else:
                    parts.append("%s*%s" % (cs, mon))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def random(self, rng, height=10):
        return tuple(QQ.random(rng, height)
                     for _ in range(self.degree_over_q))


def power(mul, one, x, n):
    """x^n for an int n >= 0 in any ring with product `mul` and unit `one`,
    by left-to-right square and multiply: bit_length(n) - 1 squarings and
    popcount(n) - 1 products by x, so x^0 is `one` and x^1 is x itself."""
    if not n:
        return one
    out = x
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


def field_pow(field, x, n):
    """x^n in the field; a negative n inverts x once."""
    n = int(n)
    if n < 0:
        x, n = field.inv(x), -n
    return power(field.mul, field.one, x, n)


def coerce_into(field, value):
    """Coerce ints/rationals/raw reps into `field` raw representation."""
    if isinstance(value, FieldElement):
        return field.coerce(value.rep, value.field)
    if isinstance(value, int):
        return field.from_int(value)
    return field.from_rat(Rat(value))


class FieldElement:
    """Operator-friendly wrapper around a raw field representation."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _other(self, other):
        if isinstance(other, FieldElement):
            if other.field == self.field:
                return other.rep
            return self.field.coerce(other.rep, other.field)
        if isinstance(other, (int, Rat)) or type(other).__name__ == "Fraction":
            return coerce_into(self.field, other)
        return None

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.rep, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.rep, o))

    def __rsub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(o, self.rep))

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.rep, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.rep, o))

    def __rtruediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.div(o, self.rep))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.rep))

    def __pow__(self, n):
        return FieldElement(self.field, field_pow(self.field, self.rep, n))

    def __eq__(self, other):
        try:
            return self.field.eq(self.rep, self._other(other))
        except FieldMismatch:
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.rep))

    def is_zero(self):
        return self.field.is_zero(self.rep)

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.rep))

    def __repr__(self):
        return self.field.to_str(self.rep)


def element(field, value):
    return FieldElement(field, coerce_into(field, value))


def generator(field):
    if not isinstance(field, ExtensionField):
        raise FieldError("QQ has no generator")
    return FieldElement(field, field.gen)


# ----------------------------------------------------------------------
# construction helpers


def is_squarefree(field, coeffs):
    """Whether gcd(m, m') = 1 over field for the coefficient list m, low
    first, of elements of field: base[g]/(m) is a field only then."""
    dm = [field.scalar_mul(Rat(i), c) for i, c in enumerate(coeffs)][1:]
    return len(plist_gcd(field, coeffs, dm)) == 1


def number_field(minpoly, name="a"):
    """Q[name]/(m) for a monic squarefree rational minpoly (low-first coeffs)."""
    coeffs = [rat(c) for c in minpoly]
    if coeffs[-1] != 1:
        raise FieldError("minimal polynomial must be monic")
    if len(coeffs) == 2:
        return QQ
    return build_tower([(name, coeffs)])


def build_tower(generators, field=QQ):
    """Build field(g1)(g2)... from [(name, rational minpoly coeffs), ...],
    refusing a modulus that is not squarefree over the field below it."""
    for name, mp in generators:
        coeffs = [coerce_into(field, rat(c)) for c in mp]
        ext = ExtensionField(field, coeffs, name)
        if not is_squarefree(field, coeffs):
            raise FieldError("the modulus of %r is not squarefree over %r"
                             % (ext, field))
        field = ext
    return field


# ----------------------------------------------------------------------
# exact square roots / squareness decisions


def _sqrt_quadratic_ext(field, x):
    """Square root in a quadratic extension via reduction to the base field."""
    base = field.base
    half = base.from_rat(Rat(1, 2))
    b1, b0 = field.modulus[1], field.modulus[0]
    # centered generator h = g + B/2 with h^2 = e = B^2/4 - C
    e = base.sub(base.mul(base.mul(b1, b1), base.mul(half, half)), b0)
    # x = x0 + x1*g = y0 + y1*h with y1 = x1, y0 = x0 - x1*B/2
    x0, y1 = field.coords(x)
    y0 = base.sub(x0, base.mul(y1, base.mul(b1, half)))

    def back(u, v):
        # u + v*h = (u + v*B/2) + v*g
        return field.from_coords((base.add(u, base.mul(v, base.mul(b1, half))),
                                  v))

    if base.is_zero(y1):
        r = field_sqrt(base, y0)
        if r is not None:
            return back(r, base.zero)
        if base.is_zero(y0):
            return field.zero
        r = field_sqrt(base, base.div(y0, e))
        if r is not None:
            return back(base.zero, r)
        return None
    # (u + v h)^2 = u^2 + v^2 e + 2uv h
    nrm = field_sqrt(base, base.sub(base.mul(y0, y0), base.mul(e, base.mul(y1, y1))))
    if nrm is None:
        return None
    for sgn in (nrm, base.neg(nrm)):
        w = base.div(base.mul(base.add(y0, sgn), half), e)
        v = field_sqrt(base, w)
        if v is not None and not base.is_zero(v):
            u = base.mul(base.div(y1, v), half)
            return back(u, v)
    return None


def field_sqrt(field, x):
    """Exact square root of a raw element, or None if x is not a square."""
    if field == QQ:
        return rat_sqrt(x)
    if field.is_zero(x):
        return field.zero
    if field.degree == 2:
        return _sqrt_quadratic_ext(field, x)
    if field.base == QQ:
        # modp imports this module, so it is imported here
        from .modp import sqrt
        return sqrt(field, x)
    raise FieldError("square roots implemented over Q-towers with quadratic tops")


def is_square(field, x):
    return field_sqrt(field, x) is not None


# ----------------------------------------------------------------------


def adjoin_root(base_field, quad):
    """Adjoin a root th of a squarefree polynomial of degree <= 3 over
    base_field.

    `quad` is a low-first list of raw base_field elements.  Returns
    (field, roots) where `roots` lists every root representable in `field`:
    both roots for a quadratic (split or not), the distinguished root only
    for an irreducible cubic over Q.
    """
    coeffs = [c for c in quad]
    while coeffs and base_field.is_zero(coeffs[-1]):
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg == 1:
        root = base_field.neg(base_field.div(coeffs[0], coeffs[1]))
        return base_field, [root]
    if deg == 2:
        a2, a1, a0 = coeffs[2], coeffs[1], coeffs[0]
        inv2 = base_field.inv(a2)
        b = base_field.mul(a1, inv2)
        c = base_field.mul(a0, inv2)
        disc = base_field.sub(
            base_field.mul(b, b), base_field.scalar_mul(Rat(4), c)
        )
        if base_field.is_zero(disc):
            raise FieldError("quadratic is not squarefree")
        s = field_sqrt(base_field, disc)
        half = base_field.from_rat(Rat(1, 2))
        if s is not None:
            r1 = base_field.mul(base_field.sub(s, b), half)
            r2 = base_field.mul(base_field.sub(base_field.neg(s), b), half)
            return base_field, [r1, r2]
        ext = ExtensionField(base_field, [c, b, base_field.one], "th")
        th = ext.gen
        other = ext.sub(ext.neg(ext.coerce(b, base_field)), th)
        return ext, [th, other]
    if deg == 3 and base_field == QQ:
        mon = [c / coeffs[3] for c in coeffs]
        # x = y / L turns mon into a monic integer cubic in y, whose rational
        # roots are integers; a rational root decides reducibility
        L = lcm(*(int(c.denominator) for c in mon))
        y = _cubic_integer_root(
            *(int(c * L ** (3 - i)) for i, c in enumerate(mon[:3])))
        if y is not None:
            return base_field, [Rat(y, L)]
        ext = ExtensionField(base_field, mon, "th")
        return ext, [ext.gen]
    raise FieldError("adjoin_root supports degree 2 generally, degree 3 over Q")


def _cubic_integer_root(a0, a1, a2):
    """The least integer root of g = y^3 + a2 y^2 + a1 y + a0, or None.

    The roots lie in (-b, b) with b = 1 + max |a_i|.  A real critical point
    (-a2 -+ sqrt(d)) / 3, d = a2^2 - 3 a1, lies in (e - 1, e + 2) for
    e = (-a2 -+ isqrt(d)) // 3, so between two adjacent cuts e - 1 .. e + 2:
    g is strictly monotone on the integers between consecutive cuts, and
    bisection finds a root there in O(log b) steps.
    """
    def g(y):
        return ((y + a2) * y + a1) * y + a0

    b = 1 + max(abs(a0), abs(a1), abs(a2))
    s = isqrt(max(a2 * a2 - 3 * a1, 0))
    cuts = {-b, b}
    for e in ((-a2 - s) // 3, (-a2 + s) // 3):
        cuts.update(range(e - 1, e + 3))
    cuts = sorted(cuts)
    roots = []
    for lo, hi in zip(cuts, cuts[1:]):
        while hi - lo > 1 and g(lo) * g(hi) < 0:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if g(mid) * g(lo) > 0 else (lo, mid)
        roots += [y for y in (lo, hi) if g(y) == 0]
    return min(roots, default=None)
