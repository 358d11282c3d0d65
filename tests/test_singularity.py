import random

import pytest

from oracles import (
    horner_point,
    moebius_and_projective_images,
    newton_reversion,
    separator_points_distinct,
)
from sextic19.autodual import discover_dual_claims
from sextic19.curve import (
    MoebiusMap,
    ParameterLocation,
    ProjectiveMap,
    RationalPlaneCurve,
    dual,
    reparametrize,
)
from sextic19.numberfield import QQ
from sextic19.polynomial import UniPoly
from sextic19.singularity import (
    SingularityClaim,
    SingularityError,
    SingularityType,
    branch_type_at,
    certify,
    claimed_points_distinct,
    two_branch_type,
    verify_claim,
)

P = lambda *c: UniPoly.from_ints(QQ, c)


def resolved_germs(location, curve):
    """(curve over the parameters' field, the germs at the parameters)."""
    work, params = location.resolve(curve)
    return work, [work.germ(t) for t in params]


def test_type_invariants():
    for n in range(1, 20):
        st = SingularityType(n)
        assert st.mu == n
        assert st.delta == (n + 1) // 2
        assert st.branches == (1 if n % 2 == 0 else 2)
        assert st.mu == 2 * st.delta - st.branches + 1


@pytest.mark.parametrize("k", range(1, 10))
def test_standard_models(k):
    # (t^2, t^(2k+1), 1) has A_2k at t = 0
    curve = RationalPlaneCurve(
        QQ, P(0, 0, 1), P(*([0] * (2 * k + 1) + [1])), P(1)
    )
    assert branch_type_at(
        curve, curve.germ(QQ.zero), claimed=2 * k).n == 2 * k


def test_cusp():
    curve = RationalPlaneCurve(QQ, P(0, 0, 1), P(0, 0, 0, 1), P(1))
    assert branch_type_at(curve, curve.germ(QQ.zero)).n == 2


def test_smooth_point_rejected():
    curve = RationalPlaneCurve(QQ, P(0, 1), P(0, 0, 1), P(1))
    with pytest.raises(SingularityError):
        branch_type_at(curve, curve.germ(QQ.zero))


def test_high_multiplicity_rejected():
    curve = RationalPlaneCurve(QQ, P(0, 0, 0, 1), P(0, 0, 0, 0, 1), P(1))
    with pytest.raises(SingularityError):
        branch_type_at(curve, curve.germ(QQ.zero))


def test_node_on_cubic():
    curve = RationalPlaneCurve(QQ, P(-1, 0, 1), P(0, -1, 0, 1), P(1))
    loc = ParameterLocation.at_pair(QQ.from_int(1), QQ.from_int(-1))
    assert two_branch_type(*resolved_germs(loc, curve)).n == 1


def test_two_branch_images_differ():
    curve = RationalPlaneCurve(QQ, P(0, 0, 1), P(0, 1), P(1))
    loc = ParameterLocation.at_pair(QQ.from_int(1), QQ.from_int(2))
    with pytest.raises(SingularityError):
        two_branch_type(*resolved_germs(loc, curve))


def test_case3_types(by_id):
    rec = by_id[3]
    assert branch_type_at(rec.curve, rec.curve.germ("inf"), claimed=2).n == 2
    assert two_branch_type(
        *resolved_germs(ParameterLocation.at_roots(rec.p), rec.curve),
        claimed=17
    ).n == 17


def test_two_branch_symmetric(by_id):
    curve = RationalPlaneCurve(QQ, P(-1, 0, 1), P(0, -1, 0, 1), P(1))
    a = ParameterLocation.at_pair(QQ.from_int(1), QQ.from_int(-1))
    b = ParameterLocation.at_pair(QQ.from_int(-1), QQ.from_int(1))
    assert (two_branch_type(*resolved_germs(a, curve)).n
            == two_branch_type(*resolved_germs(b, curve)).n)


def test_case25_certificate(by_id):
    rec = by_id[25]
    cert = certify(rec.curve, rec.claims, curve_id=25)
    assert cert.passed
    assert cert.checks["milnor_total"] == 19
    assert cert.checks["delta_total"] == 10
    assert cert.checks["implicit_degree"] == 6


def test_reducible_cubic_location_fails(by_id):
    # (t - 4)(t^2 + 1): t = 4 is the A_2, t = +-i are smooth points, and the
    # A_4 at t = 0 is left out; the cubic claim must not certify on t = 4
    rec = by_id[25]
    claims = [
        rec.odd_claim,
        SingularityClaim(SingularityType(10),
                         ParameterLocation.at_infinity()),
        SingularityClaim(SingularityType(2),
                         ParameterLocation.at_roots(P(-4, 1, -4, 1))),
    ]
    cert = certify(rec.curve, claims, curve_id=25)
    assert not cert.passed
    cubic = cert.verdicts[2]
    assert not cubic.ok and cubic.computed is None
    assert "1 of its 3 roots" in cubic.detail
    assert cert.verdicts[0].ok and cert.verdicts[1].ok


def test_case25_swapped_locations_fail(by_id):
    rec = by_id[25]
    claims = [
        SingularityClaim(SingularityType(3),
                         ParameterLocation.at_roots(rec.p)),
        SingularityClaim(SingularityType(10),
                         ParameterLocation.at_infinity()),
        SingularityClaim(SingularityType(2),
                         ParameterLocation.at_value(QQ.zero)),
        SingularityClaim(SingularityType(4),
                         ParameterLocation.at_value(QQ.from_int(4))),
    ]
    cert = certify(rec.curve, claims, curve_id=25)
    assert not cert.passed
    bad = [v for v in cert.verdicts if not v.ok]
    assert len(bad) == 2


@pytest.mark.parametrize("seed", range(3))
def test_branch_type_invariance(by_id, seed):
    # the classified type is stable under projective maps of the plane and
    # Moebius changes of the parameter
    rng = random.Random(seed)
    rec = by_id[3]
    curve = rec.curve
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        try:
            T = ProjectiveMap.from_ints(QQ, rows)
            break
        except Exception:
            continue
    moved = curve.apply_projective(T)
    assert branch_type_at(moved, moved.germ("inf"), claimed=2).n == 2
    # shift the parameter so the pair location moves with it
    shift = rng.randint(1, 5)
    m = MoebiusMap.from_ints(QQ, 1, shift, 0, 1)   # t -> t + shift
    re = reparametrize(moved, m)
    shifted_p = rec.p.taylor_shift(QQ.from_int(shift))
    assert two_branch_type(
        *resolved_germs(ParameterLocation.at_roots(shifted_p), re), claimed=17
    ).n == 17


def test_certify_reports_locations(by_id):
    rec = by_id[3]
    cert = certify(rec.curve, rec.claims, curve_id=3)
    d = cert.to_dict()
    assert d["curve"] == 3
    assert all(v["ok"] for v in d["claims"])
    assert any("roots" in v["location"] for v in d["claims"])


def test_case37_odd_pair_is_node(by_id):
    rec = by_id[37]
    assert two_branch_type(
        *resolved_germs(rec.odd_claim.location, rec.curve), claimed=1
    ).n == 1


def test_case1_certificate(by_id):
    rec = by_id[1]
    cert = certify(rec.curve, rec.claims, curve_id=1)
    assert cert.passed
    assert cert.checks["milnor_total"] == 19
    assert cert.checks["delta_total"] == 10


def _count_passes(monkeypatch):
    from sextic19 import singularity

    calls = []
    for name in ("_two_branch_once", "_branch_type_once"):
        once = getattr(singularity, name)

        def counted(curve, where, trunc, once=once):
            calls.append(trunc)
            return once(curve, where, trunc)

        monkeypatch.setattr(singularity, name, counted)
    return calls


def test_low_claims_find_true_type_in_two_passes(by_id, monkeypatch):
    calls = _count_passes(monkeypatch)
    rec3 = by_id[3]
    assert two_branch_type(
        *resolved_germs(rec3.odd_claim.location, rec3.curve), claimed=1
    ).n == 17
    assert len(calls) == 2
    del calls[:]
    rec2 = by_id[2]
    assert branch_type_at(
        rec2.curve, rec2.curve.germ("inf"), claimed=2).n == 18
    assert len(calls) == 2


def test_claim_sized_truncation_is_one_pass(by_id, monkeypatch):
    calls = _count_passes(monkeypatch)
    rec3 = by_id[3]
    assert two_branch_type(
        *resolved_germs(rec3.odd_claim.location, rec3.curve), claimed=17
    ).n == 17
    assert calls == [10]
    del calls[:]
    assert branch_type_at(
        rec3.curve, rec3.curve.germ("inf"), claimed=2).n == 2
    assert calls == [4]


def _count_germs(monkeypatch):
    calls = []
    germ = RationalPlaneCurve.germ

    def counted(curve, t):
        calls.append(t)
        return germ(curve, t)

    monkeypatch.setattr(RationalPlaneCurve, "germ", counted)
    return calls


def test_each_branch_is_expanded_once_per_pass(by_id, monkeypatch):
    # the two-pass claims of test_low_claims_find_true_type_in_two_passes:
    # both passes truncate the germs that `evaluate` built, one per parameter
    germs = _count_germs(monkeypatch)
    calls = _count_passes(monkeypatch)
    rec3, rec2 = by_id[3], by_id[2]
    for curve, claim, parameters, true_n in (
            (rec3.curve, _claim(1, rec3.odd_claim.location), 2, 17),
            (rec2.curve, _claim(2, ParameterLocation.at_infinity()), 1, 18)):
        del germs[:], calls[:]
        verdict = verify_claim(curve, claim)
        assert verdict.computed.n == true_n and len(calls) == 2
        assert len(germs) == len(verdict.points) == parameters


def test_certify_makes_one_germ_per_resolved_parameter(corpus, monkeypatch):
    parameters = sum(len(c.location.resolve(rec.curve)[1])
                     for rec in corpus for c in rec.claims)
    germs = _count_germs(monkeypatch)
    for rec in corpus:
        assert certify(rec.curve, rec.claims, curve_id=rec.id).passed
    assert len(germs) == parameters


def test_claim_at_a_common_root_fails_at_evaluate():
    # t = 0 is a root of every component of an unchecked curve, so it has
    # no image: each claim there names no point, yet is resolved and counts
    curve = RationalPlaneCurve(QQ, P(0, -1, 1), P(0, -2, 1), P(0, 3, 1),
                               check=False)
    claims = [_claim(2, ParameterLocation.at_value(QQ.zero)),
              _claim(1, ParameterLocation.at_pair(QQ.zero, QQ.from_int(5)))]
    cert = certify(curve, claims)
    for v in cert.verdicts:
        assert not v.ok and v.computed is None
        assert v.detail.startswith("evaluate:") and "Traceback" not in v.detail
        assert v.points == [] and v.resolved
    assert cert.checks["milnor_total"] == 3 and not cert.passed


def _assert_claim_points_are_horner_images(curve, claims):
    cert = certify(curve, claims)
    for claim, verdict in zip(claims, cert.verdicts):
        work, params = claim.location.resolve(curve)
        # both roots of an adjoined quadratic, one of an irreducible cubic
        if claim.location.kind == "roots":
            assert len(params) == {2: 2, 3: 1}[claim.location.poly.degree]
        assert verdict.points == [repr(horner_point(work, t)) for t in params]


@pytest.mark.parametrize("rid", range(1, 40))
def test_claim_points_are_the_horner_images(by_id, rid):
    rec = by_id[rid]
    _assert_claim_points_are_horner_images(rec.curve, rec.claims)


@pytest.mark.parametrize("rid", [26, 36, 38])
def test_dual_claim_points_are_the_horner_images(by_id, rid):
    dual_curve = dual(by_id[rid].curve)
    _assert_claim_points_are_horner_images(
        dual_curve, discover_dual_claims(by_id[rid], dual_curve))


def _parameters(location):
    if location.kind == "infinity":
        return ["inf"]
    if location.kind == "value":
        return [location.value]
    return list(location.pair or ())


def test_certificates_survive_moebius_and_projective_maps(corpus):
    # each record PASSes after a Moebius reparametrization m and a
    # projective map, with its claims carried by m^-1; every third map
    # fixes a = 0, which sends t = 0 to infinity and infinity to -d/c
    to_finite = to_infinity = 0
    for rec, _m, curve, claims in moebius_and_projective_images(corpus):
        cert = certify(curve, claims, curve_id=rec.id)
        assert cert.passed, (rec.id, cert.to_dict())
        for old, new in zip(rec.claims, claims):
            for t, s in zip(_parameters(old.location),
                            _parameters(new.location)):
                to_finite += t == "inf" and s != "inf"
                to_infinity += t != "inf" and s == "inf"
    assert to_finite and to_infinity


@pytest.mark.parametrize("rid", [3, 10, 16])
def test_two_branch_graph_equals_newton_reversion(by_id, monkeypatch, rid):
    # curve 10's odd claim lives over a degree-8 field, curve 16's over a
    # tower; the peeled h with v2 = h(u2) is the Newton-reversion graph
    from sextic19.series import TruncatedSeries

    peels = []
    peel = TruncatedSeries.in_powers_of

    def recorded(v, u):
        out = peel(v, u)
        peels.append((v, u, out))
        return out

    monkeypatch.setattr(TruncatedSeries, "in_powers_of", recorded)
    rec = by_id[rid]
    claim = rec.odd_claim
    assert two_branch_type(*resolved_germs(claim.location, rec.curve),
                           claimed=claim.stype.n) == claim.stype
    assert peels
    for v2, u2, (h, stop) in peels:
        assert stop is None
        assert h.coeffs == v2.compose(newton_reversion(u2)).coeffs


def test_non_birational_pair_raises_after_two_passes(monkeypatch):
    # the nodal cubic (t^2 - 1, t^3 - t, 1) composed with t -> t^2: the
    # parameters 1 and -1 both map to the cubic's parameter 1, so they trace
    # one branch and the contact order is infinite
    curve = RationalPlaneCurve(
        QQ, P(-1, 0, 0, 0, 1), P(0, 0, -1, 0, 0, 0, 1), P(1)
    )
    loc = ParameterLocation.at_pair(QQ.from_int(1), QQ.from_int(-1))
    calls = _count_passes(monkeypatch)
    with pytest.raises(SingularityError, match="not birational"):
        two_branch_type(*resolved_germs(loc, curve), claimed=1)
    assert calls == [2, 11]


def test_non_squarefree_location_is_a_fail_verdict(by_id):
    rec = by_id[3]
    square = ParameterLocation.at_roots(P(1, -2, 1))
    claims = [SingularityClaim(SingularityType(17), square)] + rec.claims[1:]
    cert = certify(rec.curve, claims, curve_id=3)
    assert not cert.passed
    bad = cert.verdicts[0]
    assert not bad.ok and bad.computed is None
    assert bad.detail.startswith("resolve:")
    assert "squarefree" in bad.detail
    assert cert.verdicts[1].ok
    assert cert.to_dict()["claims"][0]["point_count"] == 1


def test_swapped_odd_and_even_locations_fail_cleanly(by_id):
    # the A_17 claim moves to t = inf and the A_2 claim to the roots of
    # t^2 - 3; both are refused and every check still runs
    rec = by_id[3]
    odd, even = rec.claims
    claims = [SingularityClaim(odd.stype, even.location),
              SingularityClaim(even.stype, odd.location)]
    cert = certify(rec.curve, claims, curve_id=3)
    assert not cert.passed
    assert not any(v.ok for v in cert.verdicts)
    assert "distinct_error" not in cert.checks


@pytest.mark.parametrize("rid", range(1, 40))
def test_parameter_test_agrees_with_separator_forms(by_id, rid):
    rec = by_id[rid]
    assert claimed_points_distinct(rec.curve, rec.claims)[0] is True
    assert separator_points_distinct(rec.curve, rec.claims)


@pytest.mark.parametrize("rid", [26, 36, 38])
def test_parameter_test_agrees_with_separator_forms_on_duals(by_id, rid):
    dual_curve = dual(by_id[rid].curve)
    claims = discover_dual_claims(by_id[rid], dual_curve)
    assert claimed_points_distinct(dual_curve, claims)[0] is True
    assert separator_points_distinct(dual_curve, claims)


def _claim(n, loc):
    return SingularityClaim(SingularityType(n), loc)


def _duplicated_claim(by_id):
    rec = by_id[25]
    return rec, rec.claims + [rec.claims[-1]]


def _even_claim_at_the_pair(by_id):
    # curve 36 has its A_7 at the pair {0, inf}; move an A_2 to t = 0
    rec = by_id[36]
    return rec, rec.claims[:2] + [_claim(2, ParameterLocation.at_value(
        rec.field.zero))] + rec.claims[3:]


def _infinity_twice(by_id):
    rec = by_id[36]
    return rec, rec.claims[:3] + [_claim(2, ParameterLocation.at_infinity())]


@pytest.mark.parametrize("make", [
    _duplicated_claim, _even_claim_at_the_pair, _infinity_twice])
def test_shared_parameters_are_not_distinct(by_id, make):
    rec, claims = make(by_id)
    assert claimed_points_distinct(rec.curve, claims) == (False, None)
    assert not separator_points_distinct(rec.curve, claims)
    cert = certify(rec.curve, claims, curve_id=rec.id)
    assert cert.checks["points_distinct"] is False
    assert "distinct_error" not in cert.checks
    assert not cert.passed


def test_zero_roots_polynomial_fails_at_resolve_only(by_id):
    # the refused claim names no parameter, so the distinctness test skips
    # it instead of taking gcd(0, 0)
    rec = by_id[3]
    zero = ParameterLocation.at_roots(UniPoly.zero(QQ))
    cert = certify(rec.curve, [rec.claims[0], _claim(2, zero)], curve_id=3)
    assert "distinct_error" not in cert.checks
    assert cert.checks["points_distinct"] is False
    assert not cert.passed
    assert cert.verdicts[1].detail.startswith("resolve:")


def test_points_distinct_needs_the_certified_claims(by_id):
    # curve 3 claimed as A_15 + A_4 at its own parameters: disjoint, with
    # delta 10 and a birational sextic, but neither claim certifies
    rec = by_id[3]
    claims = [_claim(15, rec.claims[0].location),
              _claim(4, rec.claims[1].location)]
    assert claimed_points_distinct(rec.curve, claims)[0] is True
    cert = certify(rec.curve, claims, curve_id=3)
    assert cert.checks["delta_total_ok"] and cert.checks["implicit_ok"]
    assert cert.checks["points_distinct"] is False
    assert not cert.passed


@pytest.mark.parametrize("poly", [UniPoly.zero(QQ), P(5), P(-1, 1)],
                         ids=["zero", "constant", "linear"])
def test_roots_claim_below_degree_two_is_refused(by_id, poly):
    # such a polynomial names no point count: the zero polynomial has
    # degree -1, which summed into milnor_total would be a wrong total
    rec = by_id[3]
    odd = rec.claims[0]
    claims = [odd, _claim(2, ParameterLocation.at_roots(poly))]
    cert = certify(rec.curve, claims, curve_id=3)
    assert not cert.passed
    bad = cert.verdicts[1]
    assert not bad.ok and bad.computed is None and bad.points == []
    assert bad.detail.startswith("resolve:")
    assert "degree %d" % poly.degree in bad.detail
    assert cert.verdicts[0].ok
    # the refused claim counts toward no total
    assert cert.checks["milnor_total"] == odd.stype.mu
    assert cert.checks["delta_total"] == odd.stype.delta
    out = cert.to_dict()["claims"][1]
    assert out["location"] == "roots of %s" % poly.to_str()
    assert out["point_count"] == max(poly.degree, 0)



def _over(field, *coeffs):
    return UniPoly(field, [field.from_int(c) for c in coeffs])


# Malformed locations: (record id, claimed A_n, location over the record's
# field, the stage that fails).  Each is added to the record's own claims.
MALFORMED = {
    "zero": (3, 2, lambda f: ParameterLocation.at_roots(UniPoly.zero(f)),
             "resolve"),
    "constant": (3, 2, lambda f: ParameterLocation.at_roots(_over(f, 5)),
                 "resolve"),
    "linear": (3, 2, lambda f: ParameterLocation.at_roots(_over(f, -1, 1)),
               "resolve"),
    "square": (3, 2, lambda f: ParameterLocation.at_roots(_over(f, 1, -2, 1)),
               "resolve"),
    # (t - 1)(t^2 + 1): one of its three roots is rational
    "reducible_cubic": (3, 2, lambda f: ParameterLocation.at_roots(
        _over(f, -1, 1, -1, 1)), "resolve"),
    # curve 4 lives over a quadratic field, where no cubic root is adjoined
    "cubic_over_extension": (4, 2, lambda f: ParameterLocation.at_roots(
        _over(f, -2, 0, 0, 1)), "resolve"),
    "even_at_pair": (3, 2, lambda f: ParameterLocation.at_pair(
        f.from_int(5), f.from_int(7)), "classify"),
    "odd_at_value": (3, 1, lambda f: ParameterLocation.at_value(
        f.from_int(5)), "classify"),
    "odd_at_infinity": (3, 1, lambda f: ParameterLocation.at_infinity(),
                        "classify"),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_location_is_a_fail_verdict(by_id, shape):
    rid, n, make, stage = MALFORMED[shape]
    rec = by_id[rid]
    bad_claim = _claim(n, make(rec.field))
    cert = certify(rec.curve, rec.claims + [bad_claim], curve_id=rid)
    assert not cert.passed
    *good, bad = cert.verdicts
    assert all(v.ok for v in good)
    assert not bad.ok and bad.computed is None
    assert bad.detail.startswith(stage + ":")
    assert "Traceback" not in bad.detail
    mu = sum(c.stype.mu * c.point_count() for c in rec.claims)
    if stage == "resolve":
        # an unresolved claim names no point and counts toward no total
        assert bad.points == [] and not bad.resolved
        assert cert.checks["milnor_total"] == mu
    else:
        assert bad.points and bad.resolved
        assert cert.checks["milnor_total"] == mu + n * bad_claim.point_count()


def test_each_roots_claim_adjoins_once(corpus, monkeypatch):
    from sextic19 import curve

    calls = []
    adjoin_root = curve.adjoin_root

    def counted(*args):
        calls.append(args)
        return adjoin_root(*args)

    monkeypatch.setattr(curve, "adjoin_root", counted)
    for rec in corpus:
        assert certify(rec.curve, rec.claims, curve_id=rec.id).passed
    roots = sum(c.location.kind == "roots" for r in corpus for c in r.claims)
    assert roots == 46
    assert len(calls) == roots


def test_certify_builds_no_implicit_equation(corpus, monkeypatch):
    # one fiber gcd of degree one certifies every corpus curve birational
    from sextic19 import curve

    calls = []
    implicitize = curve.implicitize

    def counted(*args):
        calls.append(args)
        return implicitize(*args)

    monkeypatch.setattr(curve, "implicitize", counted)
    for rec in corpus:
        assert certify(rec.curve, rec.claims, curve_id=rec.id).passed
    assert calls == []


def test_certify_reports_the_map_degree_of_a_double_cover(by_id):
    c = by_id[3].curve
    doubled = RationalPlaneCurve(
        QQ, *(comp.compose(P(0, 0, 1)) for comp in c.components()))
    checks = certify(doubled, [], curve_id=3).checks
    assert checks["map_degree"] == 2 and checks["implicit_degree"] == 6
    assert not checks["implicit_ok"] and "implicit_error" not in checks


def _record_series_kernels(monkeypatch):
    """Run each classifier at both of its truncations (the claim's and the
    genus bound's) and record every chart, peeling and composition it makes
    as (kind, inputs, output)."""
    from sextic19 import singularity
    from sextic19.series import TruncatedSeries

    calls = []

    def both_passes(once, curve, where, claim_trunc, bound_trunc):
        found = []
        for trunc in sorted({claim_trunc, bound_trunc} - {None}):
            try:
                found.append(once(curve, where, trunc))
            except singularity.TruncationExhausted:
                pass
        if not found:
            raise singularity.TruncationExhausted("order unseen")
        return found[-1]

    def recorder(kind, fn):
        def recorded(*args):
            out = fn(*args)
            calls.append((kind, args, out))
            return out
        return recorded

    monkeypatch.setattr(singularity, "_classify", both_passes)
    monkeypatch.setattr(singularity, "_affine_branch", recorder(
        "chart", singularity._affine_branch))
    for name in ("in_powers_of", "compose"):
        monkeypatch.setattr(TruncatedSeries, name, recorder(
            name, getattr(TruncatedSeries, name)))
    return calls


def _assert_series_kernels_match_the_oracles(monkeypatch, curve, claims):
    from oracles import (
        division_invert_unit,
        horner_compose,
        inverse_affine_branch,
        peeled_in_powers_of,
    )
    from sextic19.series import TruncatedSeries

    calls = _record_series_kernels(monkeypatch)
    for claim in claims:
        assert verify_claim(curve, claim).ok
    monkeypatch.undo()
    kinds = {kind for kind, _args, _out in calls}
    odd = any(c.stype.n % 2 for c in claims)
    assert kinds == {"chart", "in_powers_of"} | ({"compose"} if odd else set())
    # the genus bound g = 10 of a sextic gives 2g + 2 = 22 terms to one
    # branch and g + 1 = 11 to two, and every claim runs its bound pass
    truncs = {args[2] for kind, args, _out in calls if kind == "chart"}
    assert {22 for c in claims if c.stype.n % 2 == 0} | (
        {11} if odd else set()) <= truncs
    for kind, args, out in calls:
        if kind == "chart":
            _f, germ, trunc, chart = args
            want = inverse_affine_branch(germ, trunc, chart)
            assert [s.coeffs for s in out] == [s.coeffs for s in want]
            unit = TruncatedSeries.from_poly(germ.expansions[chart], trunc)
            assert (unit.invert_unit().coeffs
                    == division_invert_unit(unit).coeffs)
        elif kind == "in_powers_of":
            (c, stop), (want, want_stop) = out, peeled_in_powers_of(*args)
            assert (c.coeffs, c.trunc, stop) == (
                want.coeffs, want.trunc, want_stop)
        else:
            assert out.coeffs == horner_compose(*args).coeffs


@pytest.mark.parametrize("rid", range(1, 40))
def test_classifier_series_kernels_equal_the_oracles(by_id, monkeypatch, rid):
    # the affine charts, peelings and compositions of every claim, at the
    # claim's truncation and at the genus bound, are the ones that the
    # term-by-term loops in field arithmetic give
    rec = by_id[rid]
    _assert_series_kernels_match_the_oracles(monkeypatch, rec.curve,
                                             rec.claims)


@pytest.mark.parametrize("rid", [26, 36, 38])
def test_dual_classifier_series_kernels_equal_the_oracles(by_id, monkeypatch,
                                                          rid):
    dual_curve = dual(by_id[rid].curve)
    _assert_series_kernels_match_the_oracles(
        monkeypatch, dual_curve,
        discover_dual_claims(by_id[rid], dual_curve))
