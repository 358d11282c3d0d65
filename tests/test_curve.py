import random

import pytest

from sextic19.curve import (
    FIBER_PARAMETERS,
    CurveError,
    DegenerateCurve,
    MoebiusMap,
    ParameterLocation,
    ProjectiveMap,
    RationalPlaneCurve,
    cross,
    dual,
    implicitize,
    reparametrize,
    triples_proportional,
    verify_symmetry,
)
from sextic19.numberfield import QQ, plist_gcd
from sextic19.polynomial import TriPoly, UniPoly
from sextic19.rationals import Rat

P = lambda *c: UniPoly.from_ints(QQ, c)


def conic_curve():
    return RationalPlaneCurve(QQ, P(0, 0, 1), P(0, 1), P(1))


def test_implicitize_conic():
    F, mapdeg = implicitize(conic_curve())
    assert mapdeg == 1
    X, Y, Z = (TriPoly.variable(QQ, k) for k in range(3))
    assert F.scalar_multiple_of(X * Z - Y * Y) is not None


def test_implicitize_degenerate_line():
    line = RationalPlaneCurve(QQ, P(0, 1), P(1, 1), P(1))
    with pytest.raises(DegenerateCurve):
        implicitize(line)


def test_implicitize_detects_map_degree():
    # (t^4 : t^2 : 1) runs over the conic twice
    doubled = RationalPlaneCurve(QQ, P(0, 0, 0, 0, 1), P(0, 0, 1), P(1))
    F, mapdeg = implicitize(doubled)
    assert F.total_degree() == 2
    assert mapdeg == 2


# frozen output of the implicitization kernel on curve 3 (independently
# reproduced by the Sylvester/Bareiss route in the cross-check test below)
CASE3_IMPLICIT = {
    (0, 4, 2): "248832", (0, 6, 0): "7077888", (1, 2, 3): "5184",
    (1, 4, 1): "158976", (2, 0, 4): "27", (2, 2, 2): "792",
    (2, 4, 0): "-5328", (3, 0, 3): "-1", (3, 2, 1): "-60", (4, 2, 0): "1",
}


def test_case3_implicit_regression(by_id):
    F, mapdeg = implicitize(by_id[3].curve)
    assert mapdeg == 1
    assert {e: str(c) for e, c in F.terms.items()} == CASE3_IMPLICIT


def test_case3_kernel_cross_checked_by_bareiss(by_id):
    from oracles import strip_z_power, tri_resultant_pair

    curve = by_id[3].curve
    X, Y, Z = (TriPoly.variable(QQ, k) for k in range(3))
    x, y, z = curve.components()

    def rows(p, q, vp, vq):
        n = max(p.degree, q.degree)
        return [vp.scale(p.coeff(i)) + vq.scale(q.coeff(i))
                for i in range(n + 1)]

    R = tri_resultant_pair(rows(x, z, Z, -X), rows(y, z, Z, -Y), QQ)
    stripped, zpow = strip_z_power(R)
    assert zpow == 4
    F, _ = implicitize(curve)
    assert stripped.normalized().scalar_multiple_of(F) is not None


def test_dual_conic():
    D = dual(conic_curve())
    # (1 : -2t : t^2), the conic Y^2 - 4XZ
    F, _ = implicitize(D)
    X, Y, Z = (TriPoly.variable(QQ, k) for k in range(3))
    assert F.scalar_multiple_of(Y * Y - X * Z.scale(Rat(4))) is not None


def test_dual_degrees(by_id):
    assert dual(by_id[33].curve).degree == 5
    # curve 37 has four singular points: 30 - 19 - 4 = 7
    assert dual(by_id[37].curve).degree == 7


def test_reparametrize_identity(by_id):
    c = by_id[3].curve
    m = MoebiusMap.from_ints(QQ, 1, 0, 0, 1)
    r = reparametrize(c, m)
    assert triples_proportional(r.components(), c.components())


def test_reparametrize_degenerate_map():
    with pytest.raises(Exception):
        MoebiusMap.from_ints(QQ, 1, 2, 2, 4)


def test_case29_reparametrization_is_projective(by_id):
    c = by_id[29].curve
    m = MoebiusMap.from_ints(QQ, 0, -1, 1, 0)      # t -> -1/t
    T = ProjectiveMap.from_ints(QQ, [[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    assert triples_proportional(
        reparametrize(c, m).components(), c.apply_projective(T).components()
    )


def test_case37_reparametrization_is_projective(by_id):
    c = by_id[37].curve
    m = MoebiusMap.from_ints(QQ, 0, 1, -1, 1)      # t -> 1/(1-t)
    T = ProjectiveMap.from_ints(QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert triples_proportional(
        reparametrize(c, m).components(), c.apply_projective(T).components()
    )


def test_symmetry_claims(by_id):
    for rid in (3, 28, 29, 37):
        rec = by_id[rid]
        T, m = rec.symmetry
        assert verify_symmetry(rec.curve, T, m), rid
    # negative control: identity projective map with t -> -t
    rec = by_id[3]
    bad = ProjectiveMap.from_ints(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    m = MoebiusMap.from_ints(QQ, -1, 0, 0, 1)
    assert not verify_symmetry(rec.curve, bad, m)


def test_projective_map_det_against_leibniz(by_id):
    from oracles import leibniz_det

    # det -2: the cyclic cofactors already carry their signs
    T = ProjectiveMap.from_ints(QQ, [[1, 1, 0], [1, -1, 0], [0, 0, 1]])
    assert T.det() == -2
    with pytest.raises(CurveError, match="singular"):
        ProjectiveMap.from_ints(QQ, [[2, 2, 2], [-2, -2, -2], [-1, 2, 2]])
    T37, _m = by_id[37].symmetry      # a cyclic permutation of x, y, z
    assert T37.det() == 1
    rng = random.Random(7)
    singular = 0
    for _ in range(300):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        d = leibniz_det(rows)
        if d == 0:
            singular += 1
            with pytest.raises(CurveError, match="singular"):
                ProjectiveMap.from_ints(QQ, rows)
        else:
            assert ProjectiveMap.from_ints(QQ, rows).det() == d, rows
    assert 0 < singular < 300


def test_evaluate_locations(by_id):
    rec3 = by_id[3]
    pts = rec3.curve.evaluate(ParameterLocation.at_roots(rec3.p))
    for fld, pt in pts:
        assert pt.same_point(
            type(pt)(fld, (fld.zero, fld.zero, fld.one))
        )
    rec25 = by_id[25]
    (fld, pt), = rec25.curve.evaluate(ParameterLocation.at_value(QQ.zero))
    assert pt.coords == (QQ.zero, QQ.zero, QQ.one)
    (fld, pt), = conic_curve().evaluate(ParameterLocation.at_infinity())
    assert pt.coords == (QQ.one, QQ.zero, QQ.zero)


def test_evaluate_common_factor_violation():
    # evaluating where all components vanish is rejected
    c = conic_curve()
    with pytest.raises(Exception):
        RationalPlaneCurve(QQ, P(0, 1) * P(1, 1), P(0, 1), P(0, 2)) \
            .evaluate_at(QQ.zero)


@pytest.mark.parametrize("place", range(3))
def test_one_nonzero_component_is_the_shared_factor(place):
    # 2t alone: the gcd of the nonzero components is t, made monic
    comps = [P(0)] * 3
    comps[place] = P(0, 2)
    with pytest.raises(CurveError, match="^components share the factor t$"):
        RationalPlaneCurve(QQ, *comps)


def test_one_constant_component_builds():
    curve = RationalPlaneCurve(QQ, P(3), P(0), P(0))
    assert curve.degree == 0


def test_all_zero_components_are_degenerate():
    with pytest.raises(DegenerateCurve):
        RationalPlaneCurve(QQ, P(0), P(0), P(0))


@pytest.mark.parametrize("seed", range(3))
def test_implicitize_invariant_under_reparametrization(by_id, seed):
    rng = random.Random(seed)
    c = by_id[3].curve
    F, _ = implicitize(c)
    while True:
        a, b, cc, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * cc != 0:
            break
    m = MoebiusMap.from_ints(QQ, a, b, cc, d)
    F2, _ = implicitize(reparametrize(c, m))
    assert F2.scalar_multiple_of(F) is not None


@pytest.mark.parametrize("seed", range(3))
def test_implicitize_equivariant_under_projectivities(by_id, seed):
    rng = random.Random(10 + seed)
    c = by_id[3].curve
    F, _ = implicitize(c)
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        try:
            T = ProjectiveMap.from_ints(QQ, rows)
            break
        except Exception:
            continue
    F2, _ = implicitize(c.apply_projective(T))
    from oracles import apply_linear, projective_inverse

    Tinv = projective_inverse(T)
    assert F2.scalar_multiple_of(apply_linear(F, Tinv.rows)) is not None


def _gcd_inputs(curve):
    """The polynomial pairs whose gcds the curve's certificates take: its
    components, its Wronskian minors and its fiber minors for every t0 of
    FIBER_PARAMETERS, each list pair by pair and in the order of a reduce."""
    f = curve.field
    phi = curve.components()
    lists = [phi, cross([c.derivative() for c in phi], phi)]
    for t0 in FIBER_PARAMETERS:
        at_t0 = [UniPoly.const(f, c.eval(f.from_int(t0))) for c in phi]
        lists.append(cross(phi, at_t0))
    for polys in lists:
        polys = [p for p in polys if not p.is_zero()]
        yield from ((a, b) for i, a in enumerate(polys) for b in polys[i:])
        acc = polys[0]
        for p in polys[1:]:
            yield acc, p
            acc = UniPoly(f, plist_gcd(f, acc.coeffs, p.coeffs))


def test_plist_gcd_matches_euclid_on_corpus_gcds(corpus, by_id):
    # the integer Euclid against Euclid on field elements on every gcd of
    # the 39 curves and of the duals of the autodual curves 26, 36 and 38
    from oracles import euclid_plist_gcd

    curves = [rec.curve for rec in corpus]
    curves += [dual(by_id[rid].curve) for rid in (26, 36, 38)]
    count = 0
    for curve in curves:
        f = curve.field
        for a, b in _gcd_inputs(curve):
            assert plist_gcd(f, a.coeffs, b.coeffs) == \
                euclid_plist_gcd(f, a.coeffs, b.coeffs), (curve, a, b)
            count += 1
    assert count > 40 * 39


def test_cross_is_the_plain_formula(corpus):
    # each minor of cross is one signed sum, equal to a_i b_j - a_j b_i
    for rec in corpus:
        phi = rec.curve.components()
        dphi = [c.derivative() for c in phi]
        f = rec.field
        at_7 = [UniPoly.const(f, c.eval(f.from_int(7))) for c in phi]
        for a, b in ((dphi, phi), (phi, at_7), (phi, dphi)):
            want = tuple(a[i] * b[j] - a[j] * b[i]
                         for i, j in ((1, 2), (2, 0), (0, 1)))
            assert cross(a, b) == want
        assert all(m.is_zero() for m in cross(phi, phi))


def test_wronskian_minors_equal_the_gcd_in_component_order(corpus):
    # the minors divided by their gcd, taken lowest degree first and with
    # no division when it is one, against the gcd in component order with
    # every minor divided
    from functools import reduce

    from sextic19.curve import wronskian_minors
    from sextic19.polynomial import poly_gcd

    coprime = []
    for rec in corpus:
        phi = rec.curve.components()
        minors = cross([c.derivative() for c in phi], phi)
        g = reduce(poly_gcd, [m for m in minors if not m.is_zero()])
        want = [m.exact_div(g) if not m.is_zero() else m for m in minors]
        got, got_g = wronskian_minors(rec.curve)
        assert got_g == g and got == want, rec.id
        if g.degree == 0:
            coprime.append(rec.id)
    assert coprime == [1, 2, 3, 4, 6, 10, 12, 18]
