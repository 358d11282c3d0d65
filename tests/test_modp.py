"""The place of a field, the root finder mod p, the map-degree and
distinctness certificates taken mod p against the exact gcds they stand in
for, and square roots in simple extensions against the Hensel/Vandermonde
oracle they replaced."""

import random

import pytest

from oracles import hensel_vandermonde_sqrt, moebius_and_projective_images
from sextic19 import modp, numberfield, polynomial
from sextic19.autodual import discover_dual_claims
from sextic19.curve import (
    FIBER_PARAMETERS,
    ParameterLocation,
    ProjectiveMap,
    RationalPlaneCurve,
    _constants,
    _fiber_degree,
    _fiber_degree_mod,
    _fiber_degrees,
    dual,
    image_degree,
)
from sextic19.database import load_corpus
from sextic19.numberfield import (
    QQ,
    ExtensionField,
    FieldError,
    field_sqrt,
    number_field,
)
from sextic19.polynomial import UniPoly, poly_gcd
from sextic19.rationals import Rat, is_prime
from sextic19.singularity import (
    SingularityClaim,
    SingularityType,
    _squarefree_prime,
    certify,
    claimed_points_distinct,
)
from test_numberfield import RANDOM_TOWERS, _random_tower

P = 30011


def _from_roots(roots, p):
    """prod (t - r) over F_p."""
    out = [1]
    for r in roots:
        out = modp.mul(out, [-r % p, 1], p)
    return out


def _non_residue(p):
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


# ----------------------------------------------------------------------
# the root finder


@pytest.mark.parametrize("p", [101, 30011, 30013])
def test_root_of_planted_linear_factors(p):
    rng = random.Random(p)
    quadratic = [-_non_residue(p) % p, 0, 1]    # irreducible over F_p
    for size in range(1, 7):
        roots = rng.sample(range(p), size)
        f = _from_roots(roots, p)
        assert sorted(modp.roots(f, p)) == sorted(roots)
        # repeated roots, an irreducible factor and a non-monic scale: each
        # root once
        g = modp.mul(modp.mul(f, _from_roots(roots[:2] + roots[:1], p), p),
                     quadratic, p)
        g = [c * 5 % p for c in g]
        assert sorted(modp.roots(g, p)) == sorted(roots)


@pytest.mark.parametrize("p", [101, 30011])
def test_root_of_an_irreducible_quadratic_is_none(p):
    assert list(modp.roots([-_non_residue(p) % p, 0, 1], p)) == []
    assert list(modp.roots([1], p)) == []
    assert list(modp.roots([], p)) == []


def _counting_power(monkeypatch):
    """The (x, n) of every `power` call of modp, appended as it is made."""
    calls = []
    power = modp.power

    def counted(mul, one, x, n):
        calls.append((x, n))
        return power(mul, one, x, n)

    monkeypatch.setattr(modp, "power", counted)
    return calls


def test_root_finds_every_root_the_first_one_first(monkeypatch):
    calls = _counting_power(monkeypatch)
    rng = random.Random(7)
    for _ in range(20):
        roots = rng.sample(range(P), 6)
        calls.clear()
        first = next(modp.roots(_from_roots(roots, P), P))
        needed = len(calls)
        calls.clear()
        assert sorted(modp.roots(_from_roots(roots, P), P)) == sorted(roots)
        assert first in roots and needed < len(calls)
        # t^p, then (t + delta)^((p-1)/2) for the shifts of each factor
        assert calls[0] == ([0, 1], P)
        assert all(n == (P - 1) // 2 and x[1] == 1 and 1 <= x[0] < P
                   for x, n in calls[1:])


def test_roots_past_every_small_shift(monkeypatch):
    # t (t - r), r = 20125: r + delta and delta have one Legendre symbol
    # for delta = 1, ..., 16, so none of these shifts separates 0 from r
    r = 20125
    chi = lambda n: pow(n, (P - 1) // 2, P)
    assert all(chi(delta) == chi(r + delta) for delta in range(1, 17))
    calls = _counting_power(monkeypatch)
    assert sorted(modp.roots([0, P - r, 1], P)) == [0, r]
    assert len(calls) > 17


def test_place_through_the_second_root_of_the_base(monkeypatch):
    # p = 7 mod 8: 2 is a square mod p and -1 is not, so exactly one of the
    # roots +-s of t^2 - 2 is a square.  Over Q(a), a^2 = 2, the top modulus
    # t^2 - c a (c = +-1; x^4 - 2 is irreducible) is chosen to have
    # a root mod p only over the base root that `roots` yields second.
    p = 30047
    assert p % 8 == 7 and is_prime(p)
    first, second = modp.roots([p - 2, 0, 1], p)
    c = -1 if pow(first, (p - 1) // 2, p) == 1 else 1
    assert list(modp.roots([-c * first % p, 0, 1], p)) == []
    base = ExtensionField(QQ, [Rat(-2), Rat(0), Rat(1)], "a")
    field = ExtensionField(base, [base.from_coords([Rat(0), Rat(-c)]),
                                  base.zero, base.one], "b")
    images = list(modp.embeddings(field, p))
    assert len(images) == 2 and {e[1] for e in images} == {second}
    monkeypatch.setattr(modp, "PLACE_START", p)
    assert modp.place(field) == (p, images[0])


# the place prime of each record's field, 30011 where not listed
PLACE_PRIMES = {1: 30091, 7: 30047, 16: 30089, **dict.fromkeys(
    (4, 5, 6, 11, 12, 15, 30, 32, 34, 35, 36, 38, 39), 30013)}


def test_place_prime_of_every_corpus_field(corpus):
    assert {rec.id: modp.place(rec.field)[0] for rec in corpus} == {
        rec.id: PLACE_PRIMES.get(rec.id, P) for rec in corpus}


def test_place_past_the_first_eight_primes(by_id):
    # 366 is a square mod none of the eight primes 30011, ..., 30091 above
    # 30000, nor mod 30097, so Q(sqrt 366) has its first place at 30103
    primes = [p for p in range(30001, 30104, 2) if is_prime(p)]
    assert primes[7:] == [30091, 30097, 30103]
    assert [p for p in primes if list(modp.roots([-366 % p, 0, 1], p))] == [
        30103]
    field = number_field([-366, 0, 1], "s")
    assert modp.place(field)[0] == 30103
    # record 3's curve and claims, mapped into the field
    rec = by_id[3]
    claims = [SingularityClaim(c.stype, ParameterLocation.at_roots(
        c.location.poly.map_field(field)) if c.location.kind == "roots"
        else c.location) for c in rec.claims]
    cert = certify(rec.curve.map_field(field), claims, curve_id=3)
    assert cert.passed
    assert cert.checks["map_degree_prime"] == 30103
    assert cert.checks["distinct_prime"] == 30103


@pytest.mark.parametrize("rid", [1, 16, 34])
def test_place_of_a_two_generator_tower(rid):
    # a fresh load, so the place is built here and not read from a cache
    field = {r.id: r for r in load_corpus()}[rid].field
    assert "_place" not in vars(field)
    p, images = modp.place(field)
    assert modp.place(field) is field._place
    base = field.base
    assert base.base == QQ and p == PLACE_PRIMES[rid]
    low = images[:base.degree]
    r1, r2 = low[1], images[base.degree]
    # each level's reduced modulus vanishes at its root
    assert modp.value(modp.reduce(QQ, (p, (1,)), base.modulus), r1, p) == 0
    assert modp.value(modp.reduce(base, (p, low), field.modulus), r2, p) == 0
    assert images == tuple(r1 ** i * r2 ** j % p
                           for j in range(field.degree)
                           for i in range(base.degree))
    # the reduction is a ring map on p-integral elements
    rng = random.Random(rid)
    for _ in range(20):
        x, y = field.random(rng, 9), field.random(rng, 9)
        (xb, yb, sb, mb) = modp.reduce(field, (p, images), [
            x, y, field.add(x, y), field.mul(x, y)])
        assert sb == (xb + yb) % p and mb == xb * yb % p


def test_no_place_is_built_at_load():
    for rec in load_corpus():
        for level in rec.field.tower_chain():
            assert "_place" not in vars(level)


def test_certify_searches_one_place_per_distinct_field(monkeypatch):
    # a fresh load, so no place is cached; records that name one field
    # share it, so its place is searched through one object
    records = load_corpus()
    searched = []
    embeddings = modp.embeddings

    def counted(field, p):
        searched.append(field)
        return embeddings(field, p)

    monkeypatch.setattr(modp, "embeddings", counted)
    for rec in records:
        assert certify(rec.curve, rec.claims, curve_id=rec.id).passed
    ours = {id(r.field) for r in records if r.field != QQ}
    fields = {id(f): f for f in searched if id(f) in ours}
    assert len(fields) == len(set(fields.values())) == 23


def test_reduce_refuses_a_denominator_of_p():
    pl = modp.place(QQ)
    assert pl == (P, (1,))
    assert modp.reduce(QQ, pl, [Rat(3, 2), Rat(1, P)]) is None
    assert modp.reduce(QQ, pl, [Rat(3, 2), Rat(-1)]) == [
        3 * pow(2, -1, P) % P, P - 1]


# ----------------------------------------------------------------------
# the modular path against the exact one


def _exact(monkeypatch, fn, *args):
    """fn(*args) with no place for any field: the exact path alone."""
    with monkeypatch.context() as m:
        m.setattr(modp, "place", lambda field: None)
        return fn(*args)


def _check_fibers(curve):
    """The number of fibers certified mod p, after checking that the gcd
    mod p has the exact degree on every fiber it reads (a nonzero t^n
    coefficient mod p) and that `_fiber_degrees` gives the exact degrees,
    with a prime only on fibers of degree one."""
    f = curve.field
    phi = curve.components()
    n = max(c.degree for c in phi)
    p, reduced = modp.at_place(f, [c.coeffs for c in phi]) or (None, None)
    at_infinity = _constants(f, [c.coeff(n) for c in phi])
    exact = []
    certified = 0
    for t0 in FIBER_PARAMETERS:
        k = _fiber_degree(curve, t0, at_infinity)
        if k is not None:
            exact.append(k)
        if reduced is None:
            continue
        mod = _fiber_degree_mod(reduced, n, t0, p)
        if mod is not None:
            assert mod == k, (curve, t0)
            certified += mod == 1
    got = list(_fiber_degrees(curve))
    assert [k for k, _p in got] == exact
    assert all(q in (None, p) and (q is None or k == 1) for k, q in got)
    assert sum(q is not None for _k, q in got) == certified
    return certified


def _check_distinct(monkeypatch, curve, claims):
    """claimed_points_distinct mod p against its exact path; True when the
    prime certified it."""
    got = claimed_points_distinct(curve, claims)
    want = _exact(monkeypatch, claimed_points_distinct, curve, claims)
    assert want[1] is None
    assert got[0] == want[0]
    return got[1] is not None


def test_corpus_fibers_and_distinctness_mod_p(monkeypatch, corpus):
    fibers = distinct = 0
    for rec in corpus:
        fibers += _check_fibers(rec.curve)
        distinct += _check_distinct(monkeypatch, rec.curve, rec.claims)
    # every fiber of the corpus and every claim list is certified mod p
    assert fibers == len(corpus) * len(FIBER_PARAMETERS)
    assert distinct == len(corpus)


@pytest.mark.parametrize("rid", [26, 36, 38])
def test_dual_fibers_and_distinctness_mod_p(monkeypatch, by_id, rid):
    dual_curve = dual(by_id[rid].curve)
    claims = discover_dual_claims(by_id[rid], dual_curve)
    assert _check_fibers(dual_curve) == len(FIBER_PARAMETERS)
    assert _check_distinct(monkeypatch, dual_curve, claims)


def test_mapped_corpus_fibers_and_distinctness_mod_p(monkeypatch, corpus):
    fibers = distinct = 0
    for _rec, _m, curve, claims in moebius_and_projective_images(corpus):
        fibers += _check_fibers(curve)
        distinct += _check_distinct(monkeypatch, curve, claims)
    # one fiber, mapped curve 37's at t0 = 3, has degree two exactly: t0 is
    # the parameter of an A_6 cusp, where the minors vanish twice
    assert fibers == len(corpus) * len(FIBER_PARAMETERS) - 1
    assert distinct == len(corpus)


@RANDOM_TOWERS
def test_fibers_and_distinctness_mod_p_on_random_towers(monkeypatch,
                                                        degrees):
    # elements a + b g of the top generator g with small integers a and b:
    # exact gcds of random full elements over these towers take seconds
    f, rng = _random_tower(degrees)
    assert modp.place(f) is not None

    def element():
        return f.add(f.from_int(rng.randint(-9, 9)),
                     f.mul(f.from_int(rng.randint(-3, 3)), f.gen))

    comps = [UniPoly(f, [element() for _ in range(3)]) for _ in range(3)]
    curve = RationalPlaneCurve(f, *comps, check=False)
    assert _check_fibers(curve) == len(FIBER_PARAMETERS)
    # the same curve after t -> t^2: every fiber has degree two
    square = UniPoly(f, (f.zero, f.zero, f.one))
    doubled = RationalPlaneCurve(
        f, *(c.compose(square) for c in comps), check=False)
    assert _check_fibers(doubled) == 0
    # products of degree at most four, squarefree or with a square factor
    linear = [(f.neg(element()), f.one) for _ in range(3)]
    quadratic = (element(), element(), f.one)
    for factors, squarefree in ((linear, True),
                                (linear[:2] + [quadratic], True),
                                (linear + linear[:1], False),
                                ([quadratic, quadratic], False)):
        prod = UniPoly.one(f)
        for c in factors:
            prod = prod * UniPoly(f, c)
        assert (poly_gcd(prod, prod.derivative()).degree == 0) == squarefree
        assert (_squarefree_prime(f, factors) is not None) == squarefree


# ----------------------------------------------------------------------
# fallbacks


def test_unlucky_prime_falls_back(monkeypatch, by_id):
    # mod 23, curve 3's fiber at t0 = 7 has a gcd of degree two
    curve = by_id[3].curve
    monkeypatch.setattr(modp, "PLACE_START", 23)
    p, reduced = modp.at_place(QQ, [c.coeffs for c in curve.components()])
    assert p == 23
    assert _fiber_degree_mod(reduced, curve.degree, FIBER_PARAMETERS[0],
                             23) == 2
    got = list(_fiber_degrees(curve))
    assert got[0] == (1, None)
    assert image_degree(curve) == (6, 1, None)
    cert = certify(curve, by_id[3].claims, curve_id=3)
    assert cert.passed
    assert cert.checks["map_degree_prime"] is None


def test_denominator_of_p_falls_back(by_id):
    rec = by_id[3]
    scaled = rec.curve.apply_projective(ProjectiveMap(QQ, [
        [Rat(1, P), 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert modp.at_place(QQ, [c.coeffs for c in scaled.components()]) is None
    assert image_degree(scaled) == (6, 1, None)
    assert image_degree(rec.curve) == (6, 1, P)
    # a claimed parameter with p in its denominator
    at = SingularityClaim(SingularityType(2),
                          ParameterLocation.at_value(Rat(1, P)))
    assert claimed_points_distinct(rec.curve, rec.claims + [at]) == \
        (True, None)
    assert claimed_points_distinct(rec.curve, rec.claims) == (True, P)


def test_field_with_no_place_falls_back(monkeypatch, by_id):
    # record 6 is over Q(i); t^2 + 1 has no root mod 30011 = 3 mod 4, the
    # one prime below the lowered bound, so Q(i) has no place
    rec = by_id[6]
    assert P % 4 == 3
    monkeypatch.setattr(modp, "PRIME_BOUND", 30012)
    fresh = ExtensionField(QQ, rec.field.modulus, "i")
    assert modp.place(fresh) is None
    curve = RationalPlaneCurve(
        fresh, *(UniPoly(fresh, c.coeffs) for c in rec.curve.components()))
    assert image_degree(curve) == (6, 1, None)
    cert = certify(curve, rec.claims, curve_id=6)
    assert cert.passed
    assert cert.checks["map_degree_prime"] is None
    assert cert.checks["distinct_prime"] is None


def test_square_composed_nodal_cubic_has_map_degree_two():
    # (t^2 - 1 : t (t^2 - 1) : 1) after t -> t^2: every fiber mod p has a
    # gcd of degree two, so the exact path certifies map degree two
    P_ = lambda *c: UniPoly.from_ints(QQ, c)
    square = P_(0, 0, 1)
    x, y, z = P_(-1, 0, 1), P_(0, -1, 0, 1), P_(1)
    doubled = RationalPlaneCurve(QQ, *(c.compose(square) for c in (x, y, z)))
    p, reduced = modp.at_place(QQ, [c.coeffs for c in doubled.components()])
    assert p == P
    assert all(_fiber_degree_mod(reduced, 6, t0, P) == 2
               for t0 in FIBER_PARAMETERS)
    assert image_degree(doubled) == (3, 2, None)


def test_certificate_reports_the_primes(by_id):
    cert = certify(by_id[3].curve, by_id[3].claims, curve_id=3)
    assert cert.checks["map_degree_prime"] == P
    assert cert.checks["distinct_prime"] == P
    assert cert.to_dict()["checks"]["map_degree_prime"] == P
    rec = by_id[7]
    cert = certify(rec.curve, rec.claims, curve_id=7)
    assert cert.passed
    assert cert.checks["map_degree_prime"] == modp.place(rec.field)[0]
    assert cert.checks["distinct_prime"] == modp.place(rec.field)[0]


# ----------------------------------------------------------------------
# square roots


def _oracle_sqrt(monkeypatch, field, x):
    """field_sqrt(field, x) with the square roots in simple extensions of
    degree >= 3 taken by the oracle."""
    with monkeypatch.context() as m:
        m.setattr(modp, "sqrt", hensel_vandermonde_sqrt)
        return field_sqrt(field, x)


def _agree(monkeypatch, field, x):
    """field_sqrt(field, x), after checking it against the oracle: a root
    up to sign, or None for both."""
    got = field_sqrt(field, x)
    want = _oracle_sqrt(monkeypatch, field, x)
    if want is None:
        assert got is None, (field, x)
    else:
        assert got in (want, field.neg(want)), (field, x)
        assert field.mul(got, got) == x
    return got


def test_field_sqrt_matches_the_oracle_on_a_corpus_certify(monkeypatch,
                                                           corpus):
    calls = []

    def recording(field, x):
        calls.append((field, x))
        return field_sqrt(field, x)

    with monkeypatch.context() as m:
        m.setattr(numberfield, "field_sqrt", recording)
        m.setattr(polynomial, "field_sqrt", recording)
        for rec in corpus:
            assert certify(rec.curve, rec.claims, curve_id=rec.id).passed
    # ten curves take square roots over their cubic fields, curve 10 over
    # its quartic and curve 7 over its sextic one
    simple = [f for f, _x in calls if f.base == QQ and f.degree >= 3]
    assert len(calls) == 93
    assert sorted(f.degree for f in simple) == [3] * 10 + [4, 6]
    for field, x in calls:
        _agree(monkeypatch, field, x)


SQRT_FIELDS = [
    [-1, -1, -1, 1],
    [-4, 8, -4, 1],
    [Rat(1, 3), -1, 0, 1],              # a denominator in the modulus
    [7, 0, 0, 0, 1],
    [1, 0, 0, 0, 1],                    # Q(zeta_8): -1 is a square
    [-2, 0, 0, 0, 0, 1],
    [4, 2, -5, Rat(-5, 2), 5, -3, 1],
]


@pytest.mark.parametrize("minpoly", SQRT_FIELDS)
def test_field_sqrt_matches_the_oracle_on_random_elements(monkeypatch,
                                                          minpoly):
    field = number_field(minpoly)
    rng = random.Random(len(minpoly))
    squares = 0
    for _ in range(8):
        y = field.random(rng, 5)
        square = field.mul(y, y)
        assert _agree(monkeypatch, field, square) in (y, field.neg(y))
        for x in (field.neg(square), field.random(rng, 5)):
            squares += _agree(monkeypatch, field, x) is not None
    # -y^2 is a square exactly when -1 is; a random element is not
    assert squares == (8 if minpoly == [1, 0, 0, 0, 1] else 0)


def test_sqrt_refuses_only_by_euler_at_a_simple_root(monkeypatch):
    # every None comes out of the criterion at a root r with m'(r) != 0
    seen = []
    value = modp.value

    def recording(a, x, p):
        out = value(a, x, p)
        seen.append((tuple(a), x, p, out))
        return out

    monkeypatch.setattr(modp, "value", recording)
    field = number_field([-4, 8, -4, 1])
    x = field.from_coords([Rat(-28), Rat(20), Rat(28)])
    assert modp.sqrt(field, x) is None
    (a, r, p, v) = seen[-1]
    assert a == tuple(modp.reduce(QQ, (p, (1,)), field.coords(x)))
    assert v and pow(v, (p - 1) // 2, p) == p - 1
    m = modp.reduce(QQ, (p, (1,)), field.modulus)
    assert modp.value(m, r, p) == 0 and modp.value(
        modp.derivative(m, p), r, p)


def test_sqrt_prime_scan_is_bounded(monkeypatch, by_id):
    # t^3 - 2 splits completely mod p only when p = 1 mod 3 and 2 is a cube
    # mod p: 109 is the first such prime from 103 on, so below it no square
    # can be lifted
    field = number_field([-2, 0, 0, 1])
    y = field.from_coords([Rat(1), Rat(1), Rat(0)])
    x = field.mul(y, y)
    assert modp.sqrt(field, x) in (y, field.neg(y))
    monkeypatch.setattr(modp, "PRIME_BOUND", 108)
    with pytest.raises(FieldError, match="did not converge"):
        modp.sqrt(field, x)
    # certify turns the refusal into a FAIL at resolve: curve 10 takes square
    # roots over its quartic field
    monkeypatch.setattr(modp, "PRIME_BOUND", 102)
    rec = by_id[10]
    cert = certify(rec.curve, rec.claims, curve_id=10)
    assert not cert.passed
    failed = [v for v in cert.verdicts if not v.ok]
    assert failed and all(v.detail.startswith("resolve: square decision did "
                                              "not converge") for v in failed)
