import math
import random
import time

import pytest

from sextic19.numberfield import (
    QQ,
    ExtensionField,
    FieldError,
    adjoin_root,
    build_tower,
    element,
    field_sqrt,
    generator,
    is_square,
    is_squarefree,
    number_field,
    plist_divmod,
    plist_dot,
    plist_gcd,
    plist_mul,
    plist_quotients,
    sparse_dot,
    sparse_mul,
)
from sextic19.rationals import Rat


def test_cubic_field_reduction():
    # Q(a) with a^3 = 2a + 2
    F = number_field([-2, -2, 0, 1], "a")
    a = generator(F)
    assert a**2 * a == 2 * a + 2
    assert (a**3 - 2 * a - 2).is_zero()
    assert not (a - 1).is_zero()


def test_gaussian_division():
    G = number_field([1, 0, 1], "i")
    i = generator(G)
    assert element(G, 1) / (1 + i) == (1 - i) / 2


def test_eisenstein_unit():
    W = number_field([1, 1, 1], "w")
    w = generator(W)
    assert w * w**2 == 1


def test_number_field_of_degree_seven():
    # build_tower has no degree cap, and number_field none either
    F = number_field([-2, 0, 0, 0, 0, 0, 0, 1], "a")
    a = generator(F)
    assert F.degree == 7 and a**7 == 2
    with pytest.raises(FieldError, match="monic"):
        number_field([-2, 0, 0, 0, 0, 0, 0, 2])


def test_division_by_zero():
    F = number_field([-5, 0, 1], "a")
    with pytest.raises(ZeroDivisionError):
        element(F, 1) / element(F, 0)


def test_a_field_holds_its_structure_alone():
    # inverting, multiplying and building fields over it leave no cache
    F = number_field([-2, 0, 0, 1], "a")
    before = dict(vars(F))
    a = generator(F)
    for k in range(1, 6):
        assert (a + k) * (a + k).inverse() == 1
    number_field([-3, 0, 0, 1], "b")
    build_tower([("c", [-7, 0, 1])], F)
    assert vars(F) == before
    assert set(before) == {"base", "modulus", "name", "degree",
                           "degree_over_q", "zero", "one", "gen", "_table",
                           "_rows", "_den", "_width"}
    assert vars(QQ) == {}
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_field_mismatch_rejected():
    F = number_field([-5, 0, 1], "a")
    G = number_field([-3, 0, 1], "a")
    with pytest.raises(Exception):
        (generator(F) + generator(G)).is_zero()


def test_tower_arithmetic():
    T = build_tower([("a", [7, 0, 1]), ("b", [3, 0, 1])])
    assert T.degree_over_q == 4
    from sextic19.numberfield import FieldElement

    a = FieldElement(T, T.coerce(T.base.gen, T.base))
    b = generator(T)
    assert ((a * b) ** 2) == 21
    assert (a**2 + 7).is_zero()
    assert (1 / (1 + a + b)) * (1 + a + b) == 1


@pytest.mark.parametrize("seed", range(3))
def test_field_axioms_on_corpus_fields(corpus, seed):
    rng = random.Random(seed)
    for rec in corpus:
        f = rec.field
        x, y, z = (f.random(rng, 7) for _ in range(3))
        assert f.eq(f.add(f.add(x, y), z), f.add(x, f.add(y, z)))
        assert f.eq(f.mul(x, f.add(y, z)),
                    f.add(f.mul(x, y), f.mul(x, z)))
        if not f.is_zero(x):
            assert f.eq(f.mul(x, f.inv(x)), f.one)


def test_reduction_idempotent(corpus, by_id):
    # elements are kept reduced; multiplying by one or adding zero must not
    # change the stored representation or its hash
    rng = random.Random(11)
    fields = [rec.field for rec in corpus[:10]] + _adjoined_fields(by_id)
    assert max(len(f.tower_chain()) for f in fields) == 4
    for f in fields:
        x = f.random(rng, 9)
        for same in (f.mul(x, f.one), f.add(x, f.zero)):
            assert same == x
            assert hash(same) == hash(x)


def _kernel_operands(f, rng):
    """Dense, sparse, zero, one and generator operands of f."""
    dense = [f.random(rng, 40) for _ in range(12)]
    sparse = [_sparse(f, x, rng) for x in dense[:6]]
    return dense + sparse + [f.zero, f.one, f.gen, f.neg(f.one)]


def _sparse(f, x, rng):
    """x with every odd coordinate zero at each tower level and half of the
    rational leaves zero."""
    if f == QQ:
        return QQ.zero if rng.random() < 0.5 else x
    return f.from_coords(f.base.zero if i % 2 else _sparse(f.base, c, rng)
                         for i, c in enumerate(f.coords(x)))


def _kernel_fields(by_id):
    fields = {}
    for rec in by_id.values():
        if rec.field != QQ:
            fields.setdefault((repr(rec.field), str(rec.field.modulus)),
                              rec.field)
    # a root of 2t^2 - 5: the modulus t^2 - 5/2 has a non-integral row
    half, _ = adjoin_root(QQ, [Rat(-5), Rat(0), Rat(2)])
    assert half.modulus[0] == Rat(-5, 2)
    return list(fields.values()) + _adjoined_fields(by_id) + [half]


def _adjoined_fields(by_id):
    """The fields that the odd claims of curves 10, 7 and 16 adjoin a root
    in: Q(a)(th) of degrees 8 and 12, and the depth-4 tower Q < a < i < th
    of degree 8."""
    out = []
    for rid in (10, 7, 16):
        rec = by_id[rid]
        ext, _ = adjoin_root(rec.field,
                             list(rec.odd_claim.location.poly.coeffs))
        out.append(ext)
    return out


def test_mul_kernel_matches_fraction_oracle(by_id):
    from oracles import fraction_mul

    fields = _kernel_fields(by_id)
    assert sorted({f.degree_over_q for f in fields})[-3:] == [6, 8, 12]
    assert max(len(f.tower_chain()) for f in fields) == 4  # Q < a < i < th
    rng = random.Random(4)
    for f in fields:
        ops = _kernel_operands(f, rng)
        pairs = [(x, y) for x in ops[-4:] for y in ops]
        pairs += [(rng.choice(ops), rng.choice(ops)) for _ in range(40)]
        for x, y in pairs:
            got = f.mul(x, y)
            assert got == fraction_mul(f, x, y), (f, x, y)
            assert type(got) is tuple and len(got) == f.degree_over_q


RANDOM_TOWERS = pytest.mark.parametrize(
    "degrees",
    [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 3, 2), (3, 2, 3)],
    ids=lambda ds: "x".join(map(str, ds)))


def _random_tower(degrees):
    """(a tower with moduli of these degrees, monic with random non-integral
    coefficients over the level below, and the seeded rng that drew it).
    Products are defined on the quotient ring whether or not a modulus is
    irreducible."""
    rng = random.Random(sum(d * 10 ** i for i, d in enumerate(degrees)))
    f = QQ
    for level, d in enumerate(degrees):
        low = [f.random(rng, 9) for _ in range(d)]
        low[0] = f.from_rat(Rat(2 * rng.randint(-5, 5) + 1, 2))
        f = ExtensionField(f, low + [f.one], "g%d" % level)
    assert f._den > 1
    return f, rng


@RANDOM_TOWERS
def test_mul_kernel_on_random_towers(degrees):
    from oracles import fraction_mul

    f, rng = _random_tower(degrees)
    ops = _kernel_operands(f, rng)
    for x, y in [(rng.choice(ops), rng.choice(ops)) for _ in range(16)]:
        assert f.mul(x, y) == fraction_mul(f, x, y), (f, x, y)


@RANDOM_TOWERS
def test_list_kernels_on_random_towers(degrees):
    # every list kernel against its one-field-operation-per-term oracle, on
    # the towers of test_mul_kernel_on_random_towers
    from oracles import (schoolbook_plist_divmod, schoolbook_plist_mul,
                         schoolbook_tri_mul)
    from sextic19.polynomial import TriPoly, UniPoly

    f, rng = _random_tower(degrees)
    lists = _coefficient_lists(f, rng)
    for a, b in [(rng.choice(lists), rng.choice(lists)) for _ in range(6)]:
        want = schoolbook_plist_mul(f, a, b)
        for n in (None, 1, max(1, len(want) - 3), len(want) + 2):
            assert plist_mul(f, a, b, n) == want[:n], (f, a, b, n)
    dens = _divisors(f, lists)
    for num, den in [(rng.choice(lists), rng.choice(dens)) for _ in range(6)]:
        assert plist_divmod(f, num, den) == \
            schoolbook_plist_divmod(f, num, den), (f, num, den)
    for a in lists[1::3]:
        p = UniPoly(f, a)
        for t0 in (f.random(rng, 9), f.gen):
            want = p.compose(UniPoly(f, (t0, f.one)))
            assert p.taylor_shift(t0).coeffs == want.coeffs, (f, a, t0)
    polys = [_sparse_poly(f, rng, size) for size in (1, 3, 8)]
    for a in polys:
        for b in polys:
            want = schoolbook_tri_mul(TriPoly(f, a), TriPoly(f, b))
            assert sparse_mul(f, a, b) == want.terms, (f, a, b)


@RANDOM_TOWERS
def test_series_kernels_on_random_towers(degrees):
    # the series quotient, Horner's rule and peeling against the loops they
    # replaced, one field operation per term, on the towers of
    # test_mul_kernel_on_random_towers
    from oracles import (division_invert_unit, horner_compose, horner_eval,
                         horner_poly_compose, peeled_in_powers_of,
                         schoolbook_plist_mul)
    from sextic19.polynomial import UniPoly
    from sextic19.series import TruncatedSeries

    f, rng = _random_tower(degrees)
    lists = _coefficient_lists(f, rng)
    units = [a for a in lists if not f.is_zero(a[0])]
    for a in units:
        for n in (1, 9):
            u = TruncatedSeries(f, a, n)
            assert u.invert_unit().coeffs == division_invert_unit(u).coeffs
    for den in units[::3]:
        nums = [rng.choice(lists), rng.choice(lists), []]
        inverse = division_invert_unit(TruncatedSeries(f, den, 7)).coeffs
        assert plist_quotients(f, nums, den, 7) == [
            (schoolbook_plist_mul(f, num, inverse) + [f.zero] * 7)[:7]
            for num in nums], (f, nums, den)
    short = [b for b in lists if len(b) <= 2]
    for a in lists:
        p = UniPoly(f, a)
        for b in (rng.choice(short), [f.zero, f.one], [f.random(rng, 9)],
                  []):
            q = UniPoly(f, b)
            assert p.compose(q) == horner_poly_compose(p, q), (f, a, b)
        for x in (f.random(rng, 9), f.from_int(3), f.gen, f.zero):
            assert p.eval(x) == horner_eval(p, x), (f, a, x)
    inners = [TruncatedSeries(f, [f.zero] * k + b, 9)
              for k in (1, 2) for b in units[1::3]]
    for a in lists[::3]:
        s = TruncatedSeries(f, a, 9)
        u = rng.choice(inners)
        assert s.compose(u).coeffs == horner_compose(s, u).coeffs
        (c, stop), (want, want_stop) = (s.in_powers_of(u),
                                        peeled_in_powers_of(s, u))
        assert (c.coeffs, stop) == (want.coeffs, want_stop), (f, a, u)


def _normalized(f, a):
    a = list(a)
    while a and f.is_zero(a[-1]):
        a.pop()
    return a


def _signed_schoolbook_sum(f, terms):
    """The sum of sign * a * b over the terms, one schoolbook product and
    one field.add or field.sub per coefficient of each term, normalized."""
    from oracles import schoolbook_plist_mul

    out = []
    for sign, a, b in terms:
        prod = schoolbook_plist_mul(f, a, b)
        out += [f.zero] * (len(prod) - len(out))
        for k, c in enumerate(prod):
            out[k] = f.add(out[k], c) if sign > 0 else f.sub(out[k], c)
    return _normalized(f, out)


@RANDOM_TOWERS
def test_signed_sums_on_random_towers(degrees):
    # plist_dot and sparse_dot against schoolbook products summed term by
    # term: operands with trailing zeros, empty operands, unequal lengths
    # and sums that cancel in full or at the top
    from oracles import schoolbook_tri_mul
    from sextic19.polynomial import TriPoly

    f, rng = _random_tower(degrees)
    lists = _coefficient_lists(f, rng) + [[]]
    for _ in range(8):
        terms = [(rng.choice((1, -1)), rng.choice(lists), rng.choice(lists))
                 for _ in range(rng.randint(1, 4))]
        want = _signed_schoolbook_sum(f, terms)
        for n in (None, 1, 4, len(want) + 2):
            assert plist_dot(f, terms, n) == \
                _normalized(f, want[:n]), (f, terms, n)
    for a, b in [(rng.choice(lists), rng.choice(lists)) for _ in range(4)]:
        assert plist_dot(f, [(1, a, b), (-1, b, a)]) == []
        assert plist_dot(f, [(1, a, b), (-1, a, b)], 3) == []
    # a b - a c with b and c equal but for their constant terms: only
    # a * (b_0 - c_0) is left
    a, b = lists[3], lists[4]
    c = [f.add(b[0], f.one)] + b[1:]
    assert plist_dot(f, [(1, a, b), (-1, a, c)]) == \
        _normalized(f, [f.neg(x) for x in a])
    assert plist_dot(f, []) == [] and plist_dot(f, [(1, [], a)]) == []

    polys = [_sparse_poly(f, rng, size) for size in (0, 1, 3, 8)]
    for _ in range(6):
        terms = [(rng.choice((1, -1)), rng.choice(polys), rng.choice(polys))
                 for _ in range(rng.randint(1, 3))]
        want = TriPoly.zero(f)
        for sign, a, b in terms:
            prod = schoolbook_tri_mul(TriPoly(f, a), TriPoly(f, b))
            want = want + prod if sign > 0 else want - prod
        assert sparse_dot(f, terms) == want.terms, (f, terms)
    for a in polys:
        for b in polys:
            assert sparse_dot(f, [(1, a, b), (-1, b, a)]) == {}
    assert sparse_dot(f, []) == {}


@RANDOM_TOWERS
def test_plist_gcd_on_random_towers(degrees):
    # the integer Euclid against Euclid on field elements, with planted
    # common factors of degree 0 to 3
    from oracles import euclid_plist_gcd

    f, rng = _random_tower(degrees)

    def rand_list(length):
        # small heights: Euclid's coefficients grow fast over a degree-18
        # tower
        out = [f.random(rng, 3) for _ in range(length)]
        return out[:-1] + [f.one if f.is_zero(out[-1]) else out[-1]]

    for deg in range(4):
        for _ in range(2):
            g = rand_list(deg + 1)
            a = plist_mul(f, g, rand_list(rng.randint(1, 3)))
            b = plist_mul(f, g, rand_list(rng.randint(1, 3)))
            got = plist_gcd(f, a, b)
            assert got == euclid_plist_gcd(f, a, b), (f, a, b)
            assert len(got) >= deg + 1 and got[-1] == f.one
        # a zero operand, a constant operand and equal operands
        monic = euclid_plist_gcd(f, a, [])
        assert plist_gcd(f, a, []) == plist_gcd(f, [], a) == monic
        assert plist_gcd(f, a, [f.zero] * 3) == monic
        assert plist_gcd(f, a, a) == monic
        assert plist_gcd(f, a, rand_list(1)) == [f.one]
        assert plist_gcd(f, [f.gen], []) == [f.one]


def _coefficient_lists(f, rng):
    """Dense lists, lists with interior zero coefficients and lists with an
    all-zero tail, of lengths 1 to 9."""
    out = []
    for length in (1, 2, 5, 9):
        dense = [f.random(rng, 30) for _ in range(length)]
        holes = [c if i in (0, length - 1) or i % 2 else f.zero
                 for i, c in enumerate(dense)]
        out += [dense, holes, dense[:2] + [f.zero] * length]
    return out + [[f.zero] * 3]


def test_plist_mul_matches_schoolbook_oracle(by_id):
    from oracles import schoolbook_plist_mul

    rng = random.Random(6)
    for f in [QQ] + _kernel_fields(by_id):
        lists = _coefficient_lists(f, rng)
        pairs = [(a, b) for a in lists[::3] for b in lists]
        pairs += [(rng.choice(lists), rng.choice(lists)) for _ in range(12)]
        for a, b in pairs:
            want = schoolbook_plist_mul(f, a, b)
            full = len(want)
            for n in (None, 1, max(1, full - 3), full, full + 4):
                assert plist_mul(f, a, b, n) == want[:n], (f, a, b, n)
    assert plist_mul(QQ, [], [QQ.one], 3) == []


def _divisors(f, lists):
    """The nonzero lists normalized, and some of them shifted up so that
    their low coefficients are zero."""
    dens = []
    for a in lists:
        a = list(a)
        while a and f.is_zero(a[-1]):
            a.pop()
        if a:
            dens.append(a)
    return dens + [[f.zero] * k + d for k, d in zip((1, 2, 3), dens[3::3])]


def test_plist_divmod_matches_schoolbook_oracle(by_id):
    from oracles import schoolbook_plist_divmod

    rng = random.Random(8)
    for f in [QQ] + _kernel_fields(by_id):
        lists = _coefficient_lists(f, rng)
        # numerators with trailing zeros, as UniPoly never stores them
        nums = lists + [a + [f.zero] * 2 for a in lists[::4]]
        dens = _divisors(f, lists)
        assert any(f.is_zero(d[0]) for d in dens)
        pairs = [(a, b) for a in nums[::2] for b in dens[::3]]
        pairs += [(rng.choice(nums), rng.choice(dens)) for _ in range(12)]
        for num, den in pairs:
            quo, rem = plist_divmod(f, num, den)
            assert (quo, rem) == schoolbook_plist_divmod(f, num, den), \
                (f, num, den)


def test_plist_gcd_is_the_monic_gcd_of_plain_euclid(by_id):
    from oracles import schoolbook_plist_divmod

    rng = random.Random(9)
    for f in [QQ] + _kernel_fields(by_id):
        # plain Euclid's coefficients grow fast: short lists only
        lists = [a for a in _divisors(f, _coefficient_lists(f, rng))
                 if len(a) <= 5]
        for _ in range(4):
            g, a, b = (rng.choice(lists) for _ in range(3))
            a, b = plist_mul(f, g, a), plist_mul(f, g, b)
            got = plist_gcd(f, a, b)
            while b:
                a, b = b, schoolbook_plist_divmod(f, a, b)[1]
            inv = f.inv(a[-1])
            assert got == [f.mul(inv, c) for c in a], (f, g)


def _sparse_poly(f, rng, size):
    """A dict of up to `size` terms with exponents below 4 and random,
    sparse, zero-free coefficients."""
    terms = {}
    for _ in range(size):
        c = f.random(rng, 30)
        if rng.random() < 0.5:
            c = _sparse(f, c, rng)
        if not f.is_zero(c):
            terms[tuple(rng.randrange(4) for _ in range(3))] = c
    return terms


def test_sparse_mul_matches_schoolbook_tripoly_product(by_id):
    from oracles import schoolbook_tri_mul
    from sextic19.polynomial import TriPoly

    rng = random.Random(10)
    for f in [QQ] + _kernel_fields(by_id):
        polys = [_sparse_poly(f, rng, size) for size in (0, 1, 3, 8, 20)]
        # (X + 3Y)(X - 3Y): the XY terms cancel
        three = f.from_int(3)
        polys += [{(1, 0, 0): f.one, (0, 1, 0): c}
                  for c in (three, f.neg(three))]
        for a in polys:
            for b in polys:
                want = schoolbook_tri_mul(TriPoly(f, a), TriPoly(f, b))
                assert sparse_mul(f, a, b) == want.terms, (f, a, b)


def test_inv_kernel_matches_euclid_oracle(by_id):
    from oracles import euclid_inv, fraction_mul

    rng = random.Random(5)
    for f in _kernel_fields(by_id):
        for x in _kernel_operands(f, rng):
            if f.is_zero(x):
                continue
            got = f.inv(x)
            assert got == euclid_inv(f, x), (f, x)
            assert fraction_mul(f, x, got) == f.one


def test_inverting_a_zero_divisor_raises():
    # t^2 - 1 is squarefree but reducible: (g - 1)(g + 1) = 0
    F = number_field([-1, 0, 1], "g")
    with pytest.raises(FieldError, match="reducible"):
        F.inv(F.from_coords([Rat(-1), Rat(1)]))


@pytest.mark.parametrize("generators", [
    [("a", [0, 0, 1])],                         # t^2
    [("a", [1, 2, 1])],                         # (t + 1)^2
    [("a", [-2, 0, 1]), ("b", [0, 0, 1])],      # t^2 over Q(sqrt 2)
])
def test_build_tower_refuses_a_modulus_that_is_not_squarefree(generators):
    with pytest.raises(FieldError, match="is not squarefree over"):
        build_tower(generators)
    if len(generators) == 1:
        with pytest.raises(FieldError, match="is not squarefree over QQ"):
            number_field(generators[0][1])


def test_corpus_minpolys_squarefree(corpus):
    for rec in corpus:
        for gen in rec.field_E_desc["generators"]:
            coeffs = [Rat(c) for c in gen["minpoly"]]
            assert is_squarefree(QQ, coeffs), (rec.id, gen["name"])


def test_adjoin_quadratic_irreducible():
    ext, roots = adjoin_root(QQ, [Rat(-3), Rat(0), Rat(1)])
    assert ext.degree == 2
    th = roots[0]
    assert ext.eq(ext.mul(th, th), ext.from_int(3))
    assert ext.eq(ext.add(roots[0], roots[1]), ext.zero)


def test_adjoin_quadratic_split():
    ext, roots = adjoin_root(QQ, [Rat(2), Rat(-3), Rat(1)])
    assert ext == QQ
    assert sorted(roots) == [Rat(1), Rat(2)]


def test_adjoin_not_squarefree():
    with pytest.raises(FieldError):
        adjoin_root(QQ, [Rat(1), Rat(-2), Rat(1)])


def test_adjoin_over_cubic_field():
    # the A_4 pair field of curve 24: t^2 - (5a^2 - 20) over a cubic field
    F = number_field([-1, -1, -1, 1], "a")
    a = generator(F)
    q = [(-(5 * a**2 - 20)).rep, F.zero, F.one]
    ext, roots = adjoin_root(F, q)
    assert ext.degree == 2 and ext.degree_over_q == 6
    th = roots[0]
    assert ext.eq(ext.mul(th, th),
                  ext.coerce((5 * a**2 - 20).rep, F))


def test_adjoin_cubic_over_q():
    ext, roots = adjoin_root(
        QQ, [Rat(-3), Rat(-3), Rat(0), Rat(1)]
    )
    assert ext.degree == 3
    th = roots[0]
    assert ext.is_zero(
        ext.sub(ext.mul(ext.mul(th, th), th),
                ext.add(ext.scalar_mul(Rat(3), th), ext.from_int(3)))
    )


def _first_primes(n):
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


PRIMORIAL_40 = math.prod(_first_primes(40))


@pytest.mark.parametrize("coeffs, root", [
    ([10 ** 40, 0, 0, 1], None),                   # 10^40 is no cube
    ([PRIMORIAL_40, 0, 0, 1], None),               # squarefree constant
    ([-10 ** 39, 0, 0, 1], 10 ** 13),
    ([PRIMORIAL_40, -1, -PRIMORIAL_40, 1], -1),    # (t - P)(t^2 - 1)
    ([-PRIMORIAL_40, 0, 0, 2 ** 3 * 3 ** 3 * PRIMORIAL_40 ** 2], None),
    ([Rat(-3, 2), 1, -3, 2], Rat(3, 2)),           # (2t - 3)(t^2 + 1) / 2
])
def test_cubic_rational_root_test_is_fast(coeffs, root):
    start = time.perf_counter()
    ext, roots = adjoin_root(QQ, [Rat(c) for c in coeffs])
    assert time.perf_counter() - start < 1.0
    if root is None:
        assert ext.degree == 3
    else:
        assert ext == QQ and roots == [Rat(root)]


def _brute_rational_root(coeffs):
    """The least rational root of an integer cubic: 0, or p/q with p
    dividing the lowest nonzero coefficient and q the leading one."""
    low, c3 = next(c for c in coeffs if c), coeffs[3]
    candidates = [Rat(0)] + [Rat(s * p, q)
                             for p in range(1, abs(low) + 1) if low % p == 0
                             for q in range(1, abs(c3) + 1) if c3 % q == 0
                             for s in (1, -1)]
    found = [r for r in candidates
             if sum(c * r ** i for i, c in enumerate(coeffs)) == 0]
    return min(found) if found else None


def test_cubic_rational_root_test_matches_divisor_search():
    rng = random.Random(7)
    for _ in range(300):
        coeffs = [rng.randint(-30, 30) for _ in range(3)] + \
            [rng.choice([1, 2, 3, 4, 6, -5])]
        if rng.random() < 0.5:   # force a rational root r = p/q
            p, q = rng.randint(-12, 12), rng.choice([1, 2, 3])
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            coeffs = [-p * b, q * b - p * a, q * a - p, q]
        ext, roots = adjoin_root(QQ, [Rat(c) for c in coeffs])
        want = _brute_rational_root(coeffs)
        if want is None:
            assert ext.degree == 3, coeffs
        else:
            assert ext == QQ and roots == [want], coeffs


@pytest.mark.parametrize("minpoly", [
    [-5, 0, 1],            # quadratic
    [-1, -1, -1, 1],       # cubic
    [-4, 8, -4, 1],        # cubic
    [7, 0, 0, 0, 1],       # quartic
    [4, 2, -5, Rat(-5, 2), 5, -3, 1],   # sextic
])
def test_sqrt_roundtrip(minpoly):
    F = number_field(minpoly, "a")
    rng = random.Random(5)
    for _ in range(4):
        x = F.random(rng, 5)
        sq = F.mul(x, x)
        r = field_sqrt(F, sq)
        assert r is not None
        assert F.eq(r, x) or F.eq(r, F.neg(x))


def test_sqrt_rejects_nonsquares():
    F = number_field([-5, 0, 1], "a")
    a = generator(F)
    # 2 + a has negative norm in one real embedding
    assert not is_square(F, (2 + a).rep)
    # the discriminant-times-square shape that needs a degree-one prime
    # with a quadratic factor as witness
    G = number_field([-4, 8, -4, 1], "a")
    g = generator(G)
    assert not is_square(G, (28 * g**2 + 20 * g - 28).rep)


def test_sqrt_in_tower():
    T = build_tower([("a", [-2, 0, 1]), ("i", [1, 0, 1])])
    from sextic19.numberfield import FieldElement

    a = FieldElement(T, T.coerce(T.base.gen, T.base))
    i = generator(T)
    x = (3 + a + 2 * i - a * i)
    r = field_sqrt(T, (x * x).rep)
    assert r is not None
    assert T.eq(r, x.rep) or T.eq(r, T.neg(x.rep))
    # 2 = a^2 and -1 = i^2 are squares here, 3 is not
    assert is_square(T, T.from_int(2))
    assert is_square(T, T.from_int(-1))
    assert not is_square(T, T.from_int(3))


def _coordinate_fields(by_id):
    """Every distinct corpus field, and the fields that the claims of
    curves 7, 10 and 16 adjoin a root in."""
    fields = [rec.field for rec in by_id.values()]
    for rid in (7, 10, 16):
        rec = by_id[rid]
        fields += [c.location.resolve(rec.curve)[0].field
                   for c in rec.claims]
    out = []
    for f in fields:
        if f != QQ and f not in out:
            out.append(f)
    return out


def test_coords_roundtrip(by_id):
    rng = random.Random(11)
    fields = _coordinate_fields(by_id)
    assert sum(f.base != QQ for f in fields) >= 4   # towers are covered
    lift_rng = random.Random(12)
    depths = set()
    for f in fields:
        b, d = f.base, f.degree
        for _ in range(4):
            x = f.random(rng, 6)
            cs = f.coords(x)
            assert len(cs) == d
            assert f.eq(f.from_coords(cs), x)
            # an element of the base descends to itself
            low = cs[0]
            assert b.eq(f.descend(f.coerce(low, b)), low)
            assert b.eq(f.descend(f.from_coords([low] + [b.zero] * (d - 1))),
                        low)
            # any nonzero top coordinate keeps it out of the base
            for k in range(1, d):
                top = [low] + [b.zero] * (d - 1)
                top[k] = b.random(rng, 6)
                if b.is_zero(top[k]):
                    top[k] = b.one
                assert f.descend(f.from_coords(top)) is None
        assert f.descend(f.gen) is None
        with pytest.raises(FieldError):
            f.from_coords([b.one] * (d + 1))
        # an element of a field under f is coerced to its coordinates in
        # that field, lifted one level at a time with zeros on top
        chain = f.tower_chain()
        depths.add(len(chain))
        for k, src in enumerate(chain):
            y = src.random(lift_rng, 6)
            want = y
            for up in chain[k + 1:]:
                want = up.from_coords([want]
                                      + [up.base.zero] * (up.degree - 1))
            assert f.coerce(y, src) == want
    assert 4 in depths      # Q < a < i < th
