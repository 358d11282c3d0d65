import random

import pytest

from sextic19.conic import (
    ConicError,
    conic_solvable_over_q,
    hilbert_symbol,
    pencil_reduce,
    pencil_resultant,
    relevant_places,
    verify_case24_solution,
    verify_case34_obstruction,
    verify_pencil_basepoints,
)
from sextic19.numberfield import QQ, field_sqrt, generator
from sextic19.polynomial import UniPoly
from sextic19.rationals import Rat, factorize

from oracles import brute_force_conic_search, rat_squarefree_split


def test_symbol_paper_value():
    assert hilbert_symbol(6, 5, 3) == -1


def test_symbol_trivial_cases():
    rng = random.Random(3)
    for place in ("inf", 2, 3, 5, 7):
        b = Rat(rng.randint(1, 50))
        assert hilbert_symbol(1, b, place) == 1
    for place in ("inf", 2, 3, 5, 7):
        a = Rat(rng.randint(2, 50))
        assert hilbert_symbol(a, -a, place) == 1


def test_symbol_zero_rejected():
    with pytest.raises(ConicError):
        hilbert_symbol(0, 5, 3)


@pytest.mark.parametrize("place", [0, 1, 4, 9, -3, "7", 3.0, None])
def test_symbol_place_must_be_a_prime(place):
    # place 1 used to loop forever in the valuation, place 0 divided by
    # zero, and composite places gave a meaningless symbol
    with pytest.raises(ConicError, match="neither inf nor a prime"):
        hilbert_symbol(2, 5, place)


@pytest.mark.parametrize("seed", range(10))
def test_symbol_bilinear(seed):
    rng = random.Random(seed)
    nz = lambda: Rat(rng.choice([v for v in range(-30, 31) if v]))
    a, a2, b = nz(), nz(), nz()
    for place in ("inf", 2, 3, 5, 7):
        assert hilbert_symbol(a * a2, b, place) == \
            hilbert_symbol(a, b, place) * hilbert_symbol(a2, b, place)


def test_symbol_product_formula():
    rng = random.Random(42)
    for _ in range(100):
        a = Rat(rng.choice([v for v in range(-60, 61) if v]))
        b = Rat(rng.choice([v for v in range(-60, 61) if v]))
        prod = 1
        for place in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1


def test_conic_paper_case():
    prob = conic_solvable_over_q(6, 5)
    assert prob.verdict == "unsolvable"
    assert 3 in prob.obstructions
    # the reduction 24 = 6 * 2^2, 1620 = 5 * 18^2 lands on the same conic
    prob2 = conic_solvable_over_q(24, 1620)
    assert prob2.verdict == "unsolvable"
    assert prob2.trace["reduced"] == ["6", "5"]
    assert 3 in prob2.obstructions


def test_conic_trivial_cases():
    prob = conic_solvable_over_q(1, 1)
    assert prob.verdict == "solvable"
    X, Y = prob.witness
    assert X * X + Y * Y == 1
    prob = conic_solvable_over_q(-1, -1)
    assert prob.verdict == "unsolvable"
    assert "inf" in prob.obstructions
    with pytest.raises(ConicError):
        conic_solvable_over_q(0, 5)


def test_conic_factors_each_coefficient_once(monkeypatch):
    from sextic19 import conic

    calls = []
    factorize = conic.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(conic, "factorize", counted)
    prob = conic_solvable_over_q(6, 5)
    assert prob.verdict == "unsolvable" and prob.obstructions == (2, 3)
    assert calls == [6, 5]
    calls.clear()
    assert relevant_places(Rat(-45, 8), 98) == ["inf", 2, 5]
    assert len(calls) == 2


def test_squarefree_split_matches_the_per_prime_oracle():
    from sextic19.conic import _squarefree_split

    rng = random.Random(11)
    for _ in range(200):
        q = Rat(rng.choice([-1, 1]) * rng.randint(1, 10 ** 5),
                rng.randint(1, 10 ** 4))
        s, c, primes = _squarefree_split(q)
        assert (s, c) == rat_squarefree_split(q)
        assert sorted(primes) == sorted(factorize(abs(s)))


def test_conic_against_brute_force_oracle():
    rng = random.Random(2024)
    checked_solvable = 0
    for _ in range(200):
        a = Rat(rng.choice([v for v in range(-20, 21) if v]))
        b = Rat(rng.choice([v for v in range(-20, 21) if v]))
        prob = conic_solvable_over_q(a, b)
        oracle = brute_force_conic_search(a, b, 50)
        if oracle is not None:
            X, Y = oracle
            assert a * X * X + b * Y * Y == 1
            assert prob.verdict == "solvable"
        if prob.verdict == "solvable":
            X, Y = prob.witness
            assert a * X * X + b * Y * Y == 1
            checked_solvable += 1
    assert checked_solvable > 20


def test_pencil_reduce_case36(by_id):
    rec = by_id[36]
    fld = rec.pencil.g0[0].field
    red = pencil_reduce(rec.printed_implicit.map_field(fld), rec.pencil, fld)
    l = UniPoly.x(QQ)
    base = l * l - l.scale(Rat(9)) + UniPoly.from_ints(QQ, [9])
    assert red.d1 == base.scale(Rat(6))
    assert red.d2 == (l - UniPoly.from_ints(QQ, [15])) * base.scale(Rat(2))
    assert red.qform.u_coeff == Rat(24)
    assert red.qform.const == Rat(1620)
    assert red.solvability.verdict == "unsolvable"
    assert 3 in red.solvability.obstructions
    # printed P1 coefficients, frozen
    assert red.p1[2] == UniPoly.from_ints(QQ, [-486, 0, 63, -15, 1])
    assert red.p1[1] == UniPoly.from_ints(QQ, [-12636, 2646, 234, -78, 4])
    assert red.p1[0] == UniPoly.from_ints(QQ, [-80109, 28053, -3375, 156, -2])


def test_pencil_reduce_case34(by_id):
    rec = by_id[34]
    fld = rec.pencil.g0[0].field      # Q(a), a^2 = -7
    red = pencil_reduce(rec.printed_implicit.map_field(fld), rec.pencil, fld)
    a = generator(fld)
    d_lambda = UniPoly(
        fld, [(-46 * a - 54).rep, (11 * a - 1).rep, fld.one]
    )
    assert red.d1.monic() == d_lambda
    # the final conic is pi X^2 + a Y^2 = 1 up to squares of the field:
    # 4*alpha / pi and the constant / a are both squares
    pi = ((1 - a) / 2).rep
    assert field_sqrt(fld, fld.div(red.qform.u_coeff, pi)) is not None
    assert field_sqrt(fld, fld.div(red.qform.const, a.rep)) is not None


@pytest.mark.parametrize("rid", [34, 36])
def test_pencil_resultant_matches_the_grid_oracle(by_id, rid):
    # term by term and sign included: curve 36's P1 shows a wrong sign,
    # curve 34's reduction does not
    from oracles import grid_pencil_resultant

    rec = by_id[rid]
    fld = rec.pencil.g0[0].field
    F = rec.printed_implicit.map_field(fld)
    got = pencil_resultant(F, rec.pencil, fld)
    want = grid_pencil_resultant(F, rec.pencil, fld)
    assert [p.coeffs for p in got] == [p.coeffs for p in want]


def test_pencil_reduce_evaluates_no_univariate_resultant(by_id, monkeypatch):
    import sys

    def refuse(*args):
        raise AssertionError("pencil_reduce evaluated a grid")

    for name in ("resultant", "lagrange_interpolate"):
        orig = getattr(sys.modules["sextic19.polynomial"], name)
        for mod in [m for k, m in sys.modules.items()
                    if k.startswith("sextic19.") and m is not None]:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, refuse)
    for rid in (34, 36):
        rec = by_id[rid]
        fld = rec.pencil.g0[0].field
        red = pencil_reduce(rec.printed_implicit.map_field(fld), rec.pencil,
                            fld)
        assert red.d1.degree == 2


def test_pencil_reduce_wrong_basepoint(by_id):
    import copy

    rec = by_id[36]
    fld = rec.pencil.g0[0].field
    pencil = copy.copy(rec.pencil)
    pencil.basepoint = pencil.basepoint * UniPoly.from_ints(fld, [3, 1])
    with pytest.raises(ConicError):
        pencil_reduce(rec.printed_implicit.map_field(fld), pencil, fld)


def test_pencil_basepoints(by_id):
    for rid in (34, 36):
        rep = verify_pencil_basepoints(by_id[rid])
        assert rep["ok"], rep
        assert rep["residual_degree"] == 2


def test_case34_obstruction():
    rep = verify_case34_obstruction()
    assert rep["ok"]
    names = rep["checks"]
    assert names["pi4_minus_3pi3_is_8"]["ok"]
    assert names["pi_basis_coordinates_integral"]["ok"]
    assert names["squares_mod_8"]["detail"] == "[0, 1, 4]"
    assert names["pi_residue_is_6"]["ok"]
    assert names["a_residue_is_5"]["ok"]
    assert names["congruence_solutions_all_even"]["ok"]


def test_case24_solution(by_id):
    rec = by_id[24]
    assert verify_case24_solution(rec)
    # perturbed witness fails
    fld = rec.field
    import copy

    bad = copy.deepcopy(rec)
    sol = list(bad.conic_reduction["solution"])
    sol[0] = fld.add(sol[0], fld.one)
    bad.conic_reduction = {
        "equation": rec.conic_reduction["equation"],
        "solution": sol,
    }
    assert not verify_case24_solution(bad)
    # the zero triple satisfies the equation trivially but is rejected
    zero = copy.deepcopy(rec)
    zero.conic_reduction = {
        "equation": rec.conic_reduction["equation"],
        "solution": [fld.zero, fld.zero, fld.zero],
    }
    assert not verify_case24_solution(zero)
