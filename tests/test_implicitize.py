"""The moving-line implicitization against the resultant-grid reference,
and the degrees that `image_degree` reads off one fiber against it."""

import pytest

from oracles import gauss_moving_lines, grid_implicitize
from sextic19.curve import (
    RationalPlaneCurve,
    dual,
    image_degree,
    implicitize,
    moving_lines,
)
from sextic19.numberfield import QQ, adjoin_root, generator
from sextic19.polynomial import TriPoly, UniPoly

CASES = [("curve", rid) for rid in range(1, 40)] + [
    ("dual", rid) for rid in (26, 36, 38, 33, 3, 37)]


@pytest.mark.parametrize("kind,rid", CASES,
                         ids=["%s%d" % case for case in CASES])
def test_agrees_with_resultant_grid(by_id, kind, rid):
    curve = by_id[rid].curve
    if kind == "dual":
        curve = dual(curve)
    F, mapdeg = implicitize(curve)
    G, grid_mapdeg = grid_implicitize(curve)
    assert F == G
    assert mapdeg == grid_mapdeg == 1


MOVING_CASES = [("curve", rid) for rid in range(1, 40)] + [
    ("dual", rid) for rid in (26, 36, 38)]


@pytest.mark.parametrize("kind,rid", MOVING_CASES,
                         ids=["%s%d" % case for case in MOVING_CASES])
def test_moving_lines_match_gauss_jordan_oracle(by_id, kind, rid):
    curve = by_id[rid].curve
    if kind == "dual":
        curve = dual(curve)
    half = curve.degree - curve.degree // 2
    for m in (half - 1, half, half + 1):
        got = [[c.coeffs for c in v] for v in moving_lines(curve, m)]
        want = [[c.coeffs for c in v] for v in gauss_moving_lines(curve, m)]
        assert got == want, m


def test_moving_lines_over_the_depth_four_tower(by_id):
    # curve 16 over Q < a < i < th, the field of its odd claim, shifted by
    # t -> t + th so that the elimination runs on elements of every level
    rec = by_id[16]
    ext, (th, _) = adjoin_root(rec.field,
                               list(rec.odd_claim.location.poly.coeffs))
    assert len(ext.tower_chain()) == 4
    comps = [c.map_field(ext).taylor_shift(th)
             for c in rec.curve.components()]
    curve = RationalPlaneCurve(ext, *comps)
    half = curve.degree - curve.degree // 2
    for m in (half - 1, half, half + 1):
        got = [[c.coeffs for c in v] for v in moving_lines(curve, m)]
        want = [[c.coeffs for c in v] for v in gauss_moving_lines(curve, m)]
        assert got == want, m
    assert got


@pytest.mark.parametrize("kind,rid", MOVING_CASES,
                         ids=["%s%d" % case for case in MOVING_CASES])
def test_image_degree_agrees_with_implicitize(by_id, kind, rid):
    curve = by_id[rid].curve
    if kind == "dual":
        curve = dual(curve)
    F, mapdeg = implicitize(curve)
    assert image_degree(curve)[:2] == (F.total_degree(), mapdeg)


def test_odd_degree_duals_have_unbalanced_mu_bases(by_id):
    # dual of 33: degree 5, mu = 2; dual of 3: degree 9, mu = 4
    for rid, n, mu in ((33, 5, 2), (3, 9, 4)):
        d = dual(by_id[rid].curve)
        assert d.degree == n
        assert moving_lines(d, mu - 1) == []
        assert len(moving_lines(d, mu)) == 1


def test_curve3_composed_with_a_square_has_map_degree_two(by_id):
    c = by_id[3].curve
    square = UniPoly.from_ints(QQ, (0, 0, 1))
    doubled = RationalPlaneCurve(
        QQ, *(comp.compose(square) for comp in c.components()))
    F, mapdeg = implicitize(doubled)
    assert mapdeg == 2
    assert F == implicitize(c)[0]
    assert image_degree(doubled) == (6, 2, None)


def test_fiber_through_infinity_is_skipped():
    # (s^2 : s t : t^2) after r(t) = t^2 / (t^2 - 7t + 49), a double cover of
    # the conic on which t = 7 and t = inf have the same image, so the
    # fiber at t0 = 7 shows only one of the two parameters over that point
    P = lambda *c: UniPoly.from_ints(QQ, c)
    s, t = P(0, 0, 1), P(49, -7, 1)
    doubled = RationalPlaneCurve(QQ, s * s, s * t, t * t)
    F, mapdeg = implicitize(doubled)
    assert mapdeg == 2
    X, Y, Z = (TriPoly.variable(QQ, k) for k in range(3))
    assert F.scalar_multiple_of(X * Z - Y * Y) is not None
    assert image_degree(doubled) == (2, 2, None)


def test_odd_map_degree_over_a_number_field(by_id):
    # (s^2 : s : 1) after s = t^3 + w t over Q(w), curve 36's field: the
    # resultant is a cube whose normalized leading coefficient is 1
    f = by_id[36].field
    s = UniPoly(f, (f.zero, generator(f).rep, f.zero, f.one))
    tripled = RationalPlaneCurve(f, s * s, s, UniPoly.one(f))
    F, mapdeg = implicitize(tripled)
    assert mapdeg == 3
    X, Y, Z = (TriPoly.variable(f, k) for k in range(3))
    assert F.scalar_multiple_of(X * Z - Y * Y) is not None
    assert image_degree(tripled) == (2, 3, None)
