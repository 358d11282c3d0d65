"""Exact rational arithmetic helpers.

All scalar arithmetic in this package is done with arbitrary-precision
rationals.  We use gmpy2's mpq when available (much faster) and fall back to
the stdlib Fraction otherwise; both expose .numerator/.denominator and keep
values reduced with a positive denominator.
"""

import math

try:
    from gmpy2 import mpq as Rat
    from gmpy2 import isqrt as _isqrt

    def _int_is_square(n):
        from gmpy2 import is_square
        return n >= 0 and is_square(n)

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

    def _isqrt(n):
        return math.isqrt(n)

    def _int_is_square(n):
        return n >= 0 and math.isqrt(n) ** 2 == n

    HAVE_GMPY2 = False


QQ0 = Rat(0)
QQ1 = Rat(1)


def rat(value, den=None):
    """Coerce ints, strings like '-81/2', or rationals to Rat."""
    if den is not None:
        return Rat(value, den)
    return Rat(value)


def rat_str(q):
    """Canonical 'p' or 'p/q' string."""
    q = Rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def int_kth_root(n, k):
    """Floor k-th root of a nonnegative int, by integer Newton iteration."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) exceeds the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def rat_sqrt(q):
    """Exact square root of a rational, or None if q is not a square."""
    q = Rat(q)
    if q < 0:
        return None
    num, den = int(q.numerator), int(q.denominator)
    if not (_int_is_square(num) and _int_is_square(den)):
        return None
    return Rat(int(_isqrt(num)), int(_isqrt(den)))


# factorize divides by trial up to this bound
FACTOR_TRIAL_BOUND = 10 ** 6


def factorize(n):
    """Prime factorization of a positive int.

    Trial division removes every prime factor below B = FACTOR_TRIAL_BOUND.
    The cofactor left has no prime factor below B, so it is prime when it
    is below B^2, or when is_prime proves it.  Any other cofactor raises
    ValueError: it is a product of primes above B, or past the proven
    bound of is_prime, and this module does not factor it.
    """
    n = int(n)
    assert n >= 1
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f < FACTOR_TRIAL_BOUND:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n >= f * f and not is_prime(n):
        raise ValueError("cannot factor %d: no prime factor below %d, and "
                         "not a proven prime" % (n, FACTOR_TRIAL_BOUND))
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Miller-Rabin to the prime bases up to 41 is deterministic below this bound
# (Sorenson-Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017).
PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin test; ValueError from PRIME_TEST_BOUND on,
    where the bases are not proven to suffice."""
    n = int(n)
    if n >= PRIME_TEST_BOUND:
        raise ValueError("%d is past the proven primality bound %d"
                         % (n, PRIME_TEST_BOUND))
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1    # 2^s exactly divides n - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1
               or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _PRIME_BASES)
