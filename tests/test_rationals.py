import pytest
from hypothesis import given, strategies as st

from sextic19.rationals import (
    FACTOR_TRIAL_BOUND,
    PRIME_TEST_BOUND,
    Rat,
    factorize,
    is_prime,
    rat,
    rat_sqrt,
    rat_str,
)

from oracles import is_rat_square, rat_squarefree_split, squarefree_part

nonzero = st.integers(min_value=-10**6, max_value=10**6).filter(bool)
positive = st.integers(min_value=1, max_value=10**6)


def test_parse_and_print():
    assert rat("81/2") == Rat(81, 2)
    assert rat("-34") == Rat(-34)
    assert rat_str(Rat(-6, 4)) == "-3/2"
    assert rat_str(Rat(8, 2)) == "4"


@given(nonzero, positive)
def test_square_roundtrip(p, q):
    x = Rat(p, q)
    assert rat_sqrt(x * x) == abs(x)
    assert is_rat_square(x * x)


@given(nonzero)
def test_squarefree_part(n):
    s, t = squarefree_part(n)
    assert s * t * t == n
    assert all(e == 1 for e in factorize(abs(s)).values())


@given(nonzero, positive)
def test_squarefree_split(p, q):
    x = Rat(p, q)
    s, c = rat_squarefree_split(x)
    assert Rat(s) * c * c == x
    assert c > 0


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}


def test_factorize_past_the_trial_bound():
    p, q = 100000000003, 100000000019      # both prime, above the bound
    assert p > FACTOR_TRIAL_BOUND
    assert factorize(4 * p) == {2: 2, p: 1}
    # a cofactor below the square of the bound is prime without a test
    assert factorize(6 * 1000003) == {2: 1, 3: 1, 1000003: 1}
    for composite in (1000003 * 1000033, p * q):
        with pytest.raises(ValueError, match="cannot factor"):
            factorize(composite)
    with pytest.raises(ValueError, match="proven primality bound"):
        factorize(p * q * 1000000000039)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(1, 10**4 + 1) if is_prime(n)] == \
        [n for n in range(1, 10**4 + 1) if trial(n)]


def test_is_prime_rejects_a_strong_pseudoprime():
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to bases 2, 3, 5, 7
    assert not is_prime(3215031751)
    assert is_prime(1000000000000000003)


def test_is_prime_refuses_past_its_proven_bound():
    assert not is_prime(PRIME_TEST_BOUND - 1)
    with pytest.raises(ValueError, match="proven primality bound"):
        is_prime(PRIME_TEST_BOUND)
