import random

import pytest

from oracles import (
    division_invert_unit,
    horner_compose,
    newton_reversion,
    peeled_in_powers_of,
    per_term_invert_unit,
)
from sextic19.numberfield import QQ, build_tower, number_field
from sextic19.polynomial import UniPoly
from sextic19.series import SeriesError, TruncatedSeries


def S(*coeffs, trunc=10):
    return TruncatedSeries(QQ, [QQ.from_int(c) for c in coeffs], trunc)


def rand_series(rng, field, trunc, order=0, height=5):
    coeffs = [field.zero] * order
    coeffs.append(field.random(rng, height))
    while field.is_zero(coeffs[-1]):
        coeffs[-1] = field.random(rng, height)
    while len(coeffs) < trunc:
        coeffs.append(field.random(rng, height))
    return TruncatedSeries(field, coeffs, trunc)


def test_invert_unit_geometric():
    inv = S(1, 1).invert_unit()
    assert [int(c) for c in inv.coeffs] == [1, -1, 1, -1, 1, -1, 1, -1, 1, -1]
    with pytest.raises(SeriesError):
        S(0, 1).invert_unit()


def test_compose_example():
    out = S(0, 0, 1).compose(S(0, 1, 1))
    assert [int(c) for c in out.coeffs[:5]] == [0, 0, 1, 2, 1]
    with pytest.raises(SeriesError):
        S(0, 1).compose(S(1, 1))


def test_mul_example():
    out = S(1, 1) * S(1, -1)
    assert [int(c) for c in out.coeffs[:3]] == [1, 0, -1]


def test_reversion_examples():
    ident = TruncatedSeries.identity(QQ, 8)
    assert S(0, 1, trunc=8).reversion() == ident
    half = S(0, 2, trunc=8).reversion()
    assert half.coeffs[1] == QQ.from_rat("1/2")
    f = S(0, 1, 1, trunc=8)
    g = f.reversion()
    assert f.compose(g) == ident
    assert g.compose(f) == ident
    with pytest.raises(SeriesError):
        S(0, 0, 1).reversion()


@pytest.mark.parametrize("seed", range(4))
def test_invert_unit_property(seed):
    rng = random.Random(seed)
    F = QQ if seed % 2 == 0 else number_field([1, 0, 1], "i")
    f = rand_series(rng, F, 12)
    prod = f * f.invert_unit()
    assert prod.coeffs[0] == F.one
    assert all(F.is_zero(c) for c in prod.coeffs[1:])


@pytest.mark.parametrize("seed", range(4))
def test_reversion_property(seed):
    rng = random.Random(50 + seed)
    F = QQ if seed % 2 == 0 else number_field([-2, 0, 1], "a")
    f = rand_series(rng, F, 10, order=1)
    g = f.reversion()
    ident = TruncatedSeries.identity(F, 10)
    assert f.compose(g) == ident
    assert g.compose(f) == ident


@pytest.mark.parametrize("seed", range(4))
def test_order_additivity(seed):
    rng = random.Random(90 + seed)
    a = rng.randint(0, 3)
    b = rng.randint(0, 3)
    f = rand_series(rng, QQ, 12, order=a)
    g = rand_series(rng, QQ, 12, order=b)
    assert (f * g).order() == a + b


def test_order_infinite_window():
    s = TruncatedSeries(QQ, (), 4)
    assert s.order() is None


@pytest.mark.parametrize("seed", range(4))
def test_mul_is_truncated_poly_product(seed):
    rng = random.Random(120 + seed)
    F = (QQ, number_field([1, 0, 1], "i"),
         build_tower([("a", [-2, 0, 1]), ("b", [3, 0, 1])]),
         number_field([-2, -2, 0, 1], "c"))[seed]
    f = rand_series(rng, F, 9)
    g = rand_series(rng, F, 12, order=2)
    g = TruncatedSeries(F, g.coeffs[:5], 12)   # a zero tail
    prod = (UniPoly(F, f.coeffs) * UniPoly(F, g.coeffs)).coeffs
    assert (f * g).coeffs == TruncatedSeries(F, prod, 9).coeffs
    assert (g * f).trunc == 9


ORACLE_FIELDS = {
    "QQ": QQ,
    "quadratic": number_field([-2, 0, 1], "a"),
    "cubic": number_field([-2, -2, 0, 1], "c"),
    "tower": build_tower([("a", [-2, 0, 1]), ("b", [3, 0, 1])]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_reversion_and_inverse_equal_the_oracles(name):
    # the peeled reversion and the inverse by one division store the same
    # coefficients as Newton iteration and the per-term loop; both oracles
    # are exact below their truncation, so one run at 42 terms gives the
    # oracle at every smaller n
    F = ORACLE_FIELDS[name]
    rng = random.Random(name)
    unit = rand_series(rng, F, 42, height=1)
    f = rand_series(rng, F, 42, order=1, height=1)
    inverse, reverse = per_term_invert_unit(unit), newton_reversion(f)
    for n in range(1, 43):
        got = unit.truncate(n).invert_unit()
        assert got.coeffs == inverse.coeffs[:n]
        if n == 1:
            with pytest.raises(SeriesError):
                f.truncate(n).reversion()
            continue
        assert f.truncate(n).reversion().coeffs == reverse.coeffs[:n]


def test_in_powers_of_stops_at_the_first_unpeelable_order():
    s = TruncatedSeries.identity(QQ, 10)
    u = S(0, 0, 2, 3, -2)                   # order 2
    c, stop = (u * u + s * s * s * s * s).in_powers_of(u)
    assert stop == 5
    assert [int(x) for x in c.coeffs] == [0, 0, 1, 0, 0]
    c, stop = (u * u * u).in_powers_of(u)
    assert stop is None
    assert [int(x) for x in c.coeffs] == [0, 0, 0, 1, 0]
    with pytest.raises(SeriesError):
        s.in_powers_of(S(1, 1))


EDGE_FIELDS = [QQ, number_field([-2, -2, 0, 1], "c")]


def _series(F, coeffs, trunc):
    return TruncatedSeries(F, [F.from_int(c) for c in coeffs], trunc)


def _peel_equals_oracle(r, u):
    (c, stop), (want, want_stop) = r.in_powers_of(u), peeled_in_powers_of(r, u)
    assert (c.coeffs, c.trunc, stop) == (want.coeffs, want.trunc, want_stop)
    return c, stop


@pytest.mark.parametrize("F", EDGE_FIELDS, ids=repr)
def test_peeling_edge_cases_equal_the_oracle(F):
    u = _series(F, [0, 0, 3, -1, 2], 10)                    # e = 2
    # the remainder vanishes below the truncation
    c, stop = _peel_equals_oracle(u * u * u.scale(F.from_int(5)) + u, u)
    assert stop is None
    assert [F.is_zero(x) for x in c.coeffs] == [True, False, True, False,
                                                True]
    # start orders not divisible by e: nothing is peeled
    for start in (1, 3):
        r = _series(F, [0] * start + [7, 1, 2], 10)
        c, stop = _peel_equals_oracle(r, u)
        assert stop == start and all(F.is_zero(x) for x in c.coeffs)
    # a divisible start, then an odd order
    _c, stop = _peel_equals_oracle(_series(F, [0, 0, 0, 0, 4, 1], 10), u)
    assert stop == 5
    # n = 1: only the constant term, c_0 = r_0
    c, stop = _peel_equals_oracle(_series(F, [6], 1), u)
    assert stop is None and c.coeffs == (F.from_int(6),)
    # zero top coefficients in r and u, and the zero series
    _peel_equals_oracle(_series(F, [0, 0, 1, 0, 0], 10),
                        _series(F, [0, 2, 0, 0], 10))
    c, stop = _peel_equals_oracle(TruncatedSeries.zero(F, 8), u)
    assert stop is None and all(F.is_zero(x) for x in c.coeffs)
    for bad in (_series(F, [1, 1], 10), TruncatedSeries.zero(F, 10)):
        with pytest.raises(SeriesError):
            r.in_powers_of(bad)
        with pytest.raises(SeriesError):
            peeled_in_powers_of(r, bad)


@pytest.mark.parametrize("F", EDGE_FIELDS, ids=repr)
def test_compose_and_inverse_edge_cases_equal_the_oracles(F):
    inner = _series(F, [0, 1, -2, 0, 0], 6)     # zero top coefficients
    for outer in (_series(F, [3, 0, 0, 2, 0, 0], 6),
                  _series(F, [5], 6), TruncatedSeries.zero(F, 6),
                  _series(F, [1, 2, 3], 1)):
        assert (outer.compose(inner).coeffs
                == horner_compose(outer, inner).coeffs)
    for unit in (_series(F, [2], 1), _series(F, [-3, 0, 0, 1, 0], 5),
                 _series(F, [1, 1], 7)):
        assert (unit.invert_unit().coeffs
                == division_invert_unit(unit).coeffs
                == per_term_invert_unit(unit).coeffs)
    for fn in (lambda: inner.compose(_series(F, [1, 1], 6)),
               lambda: horner_compose(inner, _series(F, [1, 1], 6))):
        with pytest.raises(SeriesError, match="inner constant term zero"):
            fn()
    for fn in (_series(F, [0, 1], 4).invert_unit,
               lambda: division_invert_unit(_series(F, [0, 1], 4))):
        with pytest.raises(SeriesError,
                           match="inversion requires a nonzero constant"):
            fn()
