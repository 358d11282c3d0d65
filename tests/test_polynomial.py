import random

import pytest

from sextic19.numberfield import (
    QQ,
    adjoin_root,
    field_pow,
    generator,
    number_field,
    power,
)
from sextic19.polynomial import (
    InexactDivision,
    PolynomialError,
    TriPoly,
    UniPoly,
    _field_kth_root,
    determinant,
    discriminant,
    hybrid_bezout,
    lagrange_interpolate,
    poly_gcd,
    resultant,
    squarefree_decomposition,
    squarefree_odd_even_split,
)
from sextic19.rationals import Rat
from sextic19.series import TruncatedSeries

from oracles import strip_z_power, tri_resultant_pair

P = lambda *c: UniPoly.from_ints(QQ, c)


def rand_poly(rng, deg, field=QQ):
    coeffs = [field.random(rng, 6) for _ in range(deg + 1)]
    while field.is_zero(coeffs[-1]):
        coeffs[-1] = field.random(rng, 6)
    return UniPoly(field, coeffs)


def test_derivative():
    assert P(3, 0, -12, 0, 1).derivative() == P(0, -24, 0, 4)


def test_exact_div():
    assert P(-1, 0, 1).exact_div(P(-1, 1)) == P(1, 1)
    with pytest.raises(InexactDivision):
        P(-1, 0, 1).exact_div(P(1, 1, 1))


def test_eval():
    # p = 20 t^2 - 55 t - 121 at t = 0
    assert P(-121, -55, 20).eval(QQ.zero) == Rat(-121)


def test_compose_taylor_reverse():
    f = P(1, 2, 0, 3)
    g = f.taylor_shift(Rat(2))
    assert g.eval(Rat(0)) == f.eval(Rat(2))
    rev = P(0, -3, 1).reverse(4)
    assert rev == P(0, 0, 1, -3)


def test_taylor_shift_stores_the_coefficients_of_compose(by_id):
    rng = random.Random(15)
    curves = [rec.curve for rec in by_id.values()]
    # the fields of a claim's quadratic roots: Q(a)(th) of degrees 8 and 12
    # (curves 10 and 7), the depth-4 tower Q < a < i < th (curve 16) and
    # Q(a)(b)(th) (curve 34)
    for rid in (10, 7, 16, 34):
        rec = by_id[rid]
        quad = next(c.location.poly for c in rec.claims
                    if getattr(c.location, "poly", None) is not None
                    and c.location.poly.degree == 2)
        ext, _ = adjoin_root(rec.field, list(quad.coeffs))
        curves.append(rec.curve.map_field(ext))
    assert sorted({c.field.degree_over_q for c in curves})[-2:] == [8, 12]
    assert [len(c.field.tower_chain()) for c in curves[-4:]] == [3, 3, 4, 4]
    for curve in curves:
        f = curve.field
        for comp in curve.components() + (P(3, -2), P(5), P()):
            comp = comp.map_field(f)
            for t0 in (f.zero, f.random(rng), f.random(rng, 1000)):
                want = comp.compose(UniPoly(f, (t0, f.one)))
                assert comp.taylor_shift(t0).coeffs == want.coeffs


def test_gcd_examples(by_id):
    a = P(-1, 1) * P(-1, 1) * P(2, 1)
    b = P(-1, 1) * P(3, 1)
    assert poly_gcd(a, b) == P(-1, 1)
    f = P(2, 0, 1) * P(5, 1)
    assert poly_gcd(f, UniPoly.zero(QQ)) == f.monic()
    # the gcd that locates the cusp pair of curve 36 on the line y = 4x:
    # f_L(t) = F(t, 4t, 1) has gcd(f_L, f_L') = t^2 - 5t + 7
    F = by_id[36].printed_implicit
    fld = F.field
    t = UniPoly.x(fld)
    four_t = t.scale(fld.from_int(4))
    fl = UniPoly.zero(fld)
    for (ex, ey, _ez), c in F.terms.items():
        term = UniPoly.const(fld, c) * t**ex * four_t**ey
        fl = fl + term
    g = poly_gcd(fl, fl.derivative())
    assert g == UniPoly.from_ints(fld, [7, -5, 1]).monic()


def test_resultant_values():
    assert resultant(P(-1, 0, 1), P(-2, 1)) == Rat(3)
    shared = P(-5, 1)
    assert resultant(shared * P(1, 1), shared * P(2, 1)) == 0


@pytest.mark.parametrize("seed", range(5))
def test_resultant_swap_sign(seed):
    rng = random.Random(seed)
    f = rand_poly(rng, rng.randint(1, 4))
    g = rand_poly(rng, rng.randint(1, 4))
    sign = -1 if (f.degree * g.degree) % 2 else 1
    assert resultant(f, g) == sign * resultant(g, f)


@pytest.mark.parametrize("seed", range(5))
def test_resultant_root_product(seed):
    # Res(f, g) = lc(f)^deg(g) * prod g(alpha_i) over the roots of f
    rng = random.Random(100 + seed)
    roots = [Rat(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))]
    lead = Rat(rng.randint(1, 5))
    f = UniPoly.const(QQ, lead)
    for r in roots:
        f = f * UniPoly(QQ, (-r, QQ.one))
    g = rand_poly(rng, rng.randint(1, 3))
    expected = lead ** g.degree
    for r in roots:
        expected *= g.eval(r)
    assert resultant(f, g) == expected


def test_discriminant_quadratic():
    rng = random.Random(7)
    for _ in range(5):
        b, c = Rat(rng.randint(-9, 9)), Rat(rng.randint(-9, 9))
        assert discriminant(UniPoly(QQ, (c, b, QQ.one))) == b * b - 4 * c
    assert discriminant(P(1, -2, 1)) == 0


@pytest.mark.parametrize("seed", range(4))
def test_discriminant_multiplicative(seed):
    rng = random.Random(200 + seed)
    f = rand_poly(rng, rng.randint(1, 3))
    g = rand_poly(rng, rng.randint(1, 3))
    r = resultant(f, g)
    assert discriminant(f * g) == discriminant(f) * discriminant(g) * r * r


def test_yun_examples():
    lead, parts = squarefree_decomposition(P(2, 1) * P(-1, 1) ** 2)
    assert lead == 1
    assert [(p.to_str(), m) for p, m in parts] == [("t + 2", 1), ("t - 1", 2)]
    lead, parts = squarefree_decomposition(P(1, 3, 1))
    assert parts == [(P(1, 3, 1), 1)]


@pytest.mark.parametrize("seed", range(5))
def test_yun_reconstruction(seed):
    rng = random.Random(300 + seed)
    f = UniPoly.const(QQ, Rat(rng.randint(1, 4)))
    for _ in range(rng.randint(1, 3)):
        base = rand_poly(rng, rng.randint(1, 2)).monic()
        f = f * base ** rng.randint(1, 3)
    lead, parts = squarefree_decomposition(f)
    back = UniPoly.const(QQ, lead)
    for p, m in parts:
        back = back * p ** m
    assert back == f
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert poly_gcd(parts[i][0], parts[j][0]).degree == 0


def test_odd_even_split():
    f = P(0, 6) * (P(-1, 1) ** 2) * (P(3, 1) ** 3)
    lead, odd, even = squarefree_odd_even_split(f)
    assert odd == (P(0, 1) * P(3, 1))
    assert even == (P(-1, 1) * P(3, 1))
    assert UniPoly.const(QQ, lead) * odd * even * even == f


def test_tri_resultant_conic():
    X, Y, Z = (TriPoly.variable(QQ, k) for k in range(3))
    # Res_t(tZ - X, t^2 Z - Y): exact value carries the Z content that the
    # implicitization step strips
    A = [-X, Z]
    B = [-Y, TriPoly.zero(QQ), Z]
    R = tri_resultant_pair(A, B, QQ)
    stripped, k = strip_z_power(R)
    assert k == 1
    unit = stripped.scalar_multiple_of(X * X - Y * Z)
    assert unit is not None
    same = tri_resultant_pair(A, A, QQ)
    assert same.is_zero()


@pytest.mark.parametrize("seed", range(3))
def test_tri_resultant_matches_field_resultant(seed):
    # specializing the trivariate resultant agrees with the field resultant
    rng = random.Random(400 + seed)
    f = rand_poly(rng, 3)
    g = rand_poly(rng, 2)
    A = [TriPoly(QQ, {(0, 0, 0): c}) for c in f.coeffs]
    B = [TriPoly(QQ, {(0, 0, 0): c}) for c in g.coeffs]
    R = tri_resultant_pair(A, B, QQ)
    val = R.terms.get((0, 0, 0), QQ.zero)
    assert val == resultant(f, g)


@pytest.mark.parametrize("mu,d", [(mu, d) for mu in range(1, 5)
                                  for d in range(mu, 7)])
def test_hybrid_bezout_determinant_sign(mu, d):
    # det H(P, Q) = (-1)^(mu(mu-1)/2) Res(P, Q), Res the Sylvester
    # determinant, with coefficients a + b X so that no cancellation hides
    # a sign
    rng = random.Random(100 * mu + d)
    X = TriPoly.variable(QQ, 0)

    def coeff(lead=False):
        c = TriPoly.const(QQ, Rat(rng.choice([1, 2, -3]) if lead
                                  else rng.randint(-4, 4)))
        return c + X.scale(Rat(rng.randint(-3, 3)))

    P = [coeff() for _ in range(mu)] + [coeff(lead=True)]
    Q = [coeff() for _ in range(d)] + [coeff(lead=True)]
    det = determinant(hybrid_bezout(P, Q))
    res = tri_resultant_pair(P, Q, QQ)
    assert not res.is_zero()
    assert det == (-res if mu * (mu - 1) // 2 % 2 else res)


@pytest.mark.parametrize("mu,d", [(1, 3), (2, 4), (3, 3), (3, 6)])
def test_hybrid_bezout_entries_are_sums_of_pair_differences(mu, d):
    # each Bezoutian entry, one signed sum, against the entries built by
    # subtracting P_i Q_j - P_j Q_i one pair at a time
    rng = random.Random(10 * mu + d)
    X, Y = TriPoly.variable(QQ, 0), TriPoly.variable(QQ, 1)

    def coeff():
        return (TriPoly.const(QQ, Rat(rng.randint(-4, 4)))
                + X.scale(Rat(rng.randint(-3, 3), rng.randint(1, 3)))
                + Y.scale(Rat(rng.randint(-3, 3))))

    P = [coeff() for _ in range(mu)] + [X + Y]
    Q = [coeff() for _ in range(d)] + [X - Y]
    zero = TriPoly.zero(QQ)
    padded = P + [zero] * (d - mu)
    want = [[zero] * d for _ in range(mu)]
    for i in range(mu):
        for j in range(i + 1, d + 1):
            b = padded[i] * Q[j] - padded[j] * Q[i]
            for a in range(i, min(j, mu)):
                want[a][i + j - 1 - a] = want[a][i + j - 1 - a] - b
    assert hybrid_bezout(P, Q)[:mu] == want


def test_gcd_of_two_zeros_raises():
    with pytest.raises(PolynomialError):
        poly_gcd(UniPoly.zero(QQ), UniPoly.zero(QQ))


def test_lagrange_roundtrip():
    f = P(1, 2, 0, 1)
    xs = [Rat(i) for i in range(5)]
    ys = [f.eval(x) for x in xs]
    assert lagrange_interpolate(QQ, xs, ys) == f


def test_number_field_coefficients():
    F = number_field([1, 0, 1], "i")
    i = generator(F)
    f = UniPoly(F, ((1 + i).rep, F.one))           # t + (1+i)
    g = UniPoly(F, ((2 * i).rep, F.zero, F.one))   # t^2 + 2i
    r = resultant(f, g)
    # t = -(1+i): (1+i)^2 + 2i = 4i
    assert F.eq(r, (4 * i).rep)


def test_term_strings():
    K = number_field([7, 0, 1], "a")
    a = generator(K)
    F = TriPoly(K, {(2, 1, 0): (1 + a).rep, (1, 0, 2): K.from_int(-1),
                    (0, 3, 0): K.one, (0, 0, 3): (a / 2).rep,
                    (1, 1, 1): K.from_rat(Rat(-3, 4))})
    assert F.to_str() == (
        "(1 + a)*X^2*Y + (-3/4)*X*Y*Z - X*Z^2 + Y^3 + (1/2*a)*Z^3")
    s = TruncatedSeries(QQ, [Rat(-2), Rat(1), Rat(0), Rat(-1, 3), Rat(-1)], 6)
    assert s.to_str() == "-2 + s + (-1/3)*s^3 - s^4 + O(s^6)"
    assert TruncatedSeries(K, [K.zero, (2 - a).rep], 3).to_str("u") == \
        "(2 - a)*u + O(u^3)"


def test_kth_root_of_a_huge_rational():
    # far beyond the float range: the root is found with exact integers
    assert _field_kth_root(QQ, Rat(7**1200), 3) == 7**400
    assert _field_kth_root(QQ, Rat(-(7**1200), 2**600), 3) == \
        Rat(-(7**400), 2**200)
    assert _field_kth_root(QQ, Rat(7**1200 + 1), 3) is None


def _power_cases():
    """(mul, one, x) in Q, in Q(sqrt 2), in Q[t] and in Q[X, Y, Z]."""
    K = number_field([Rat(-2), Rat(0), Rat(1)], "r")
    a = K.add(K.from_int(3), K.scalar_mul(Rat(-1, 2), K.gen))
    F = TriPoly.variable(QQ, 0) + TriPoly.variable(QQ, 1).scale(Rat(2)) \
        - TriPoly.const(QQ, Rat(1, 3))
    return [
        (QQ.mul, QQ.one, Rat(-3, 2)),
        (K.mul, K.one, a),
        (lambda u, v: u * v, UniPoly.one(QQ), P(1, -2, 0, 3)),
        (lambda u, v: u * v, TriPoly.const(QQ, QQ.one), F),
    ]


@pytest.mark.parametrize("case", range(4))
def test_power_is_repeated_multiplication(case):
    mul, one, x = _power_cases()[case]
    want = one
    for n in range(10):
        assert power(mul, one, x, n) == want
        want = mul(want, x)


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (4, 2),
                                         (7, 4), (8, 3), (9, 4)])
def test_power_makes_bit_length_plus_popcount_minus_two_products(n,
                                                                 products):
    calls = []

    def mul(u, v):
        calls.append(1)
        return u * v

    assert power(mul, 1, 3, n) == 3 ** n
    assert len(calls) == products


def test_powers_of_polynomials_and_field_elements():
    K = number_field([Rat(-2), Rat(0), Rat(1)], "r")
    x = K.add(K.one, K.gen)
    assert K.eq(field_pow(K, x, -3), field_pow(K, K.inv(x), 3))
    assert K.eq(field_pow(K, x, -3), K.inv(K.mul(x, K.mul(x, x))))
    assert field_pow(QQ, Rat(2, 3), -2) == Rat(9, 4)
    # a first power costs no product and is the operand itself
    f = P(1, 1)
    assert f ** 1 is f
    for g in (f, TriPoly.variable(QQ, 2)):
        with pytest.raises(PolynomialError, match="negative power"):
            g ** -1
