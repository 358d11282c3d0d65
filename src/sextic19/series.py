"""Truncated power series over an exact field.

A series stores its coefficients for exponents 0..N-1; N is the truncation
order.  Every operation returns exact coefficients strictly below the
smaller truncation order of its inputs.  order() reports the exponent of
the first nonzero stored coefficient, or None when every stored coefficient
vanishes, in which case the caller must retry at a higher truncation.

Products run on `plist_mul`, the inverse of a unit on the series quotient
`plist_quotients` and composition on Horner's rule, `plist_compose`.
`in_powers_of` writes a series in powers of another by peeling one leading
term at a time (Knuth, TAOCP vol. 2, 4.7), on `plist_peel`; the
classifiers and `reversion` use it.  These kernels of numberfield work on
integer coordinates and build field elements only for the coefficients
they return.  At the at most 22 terms that the genus bound allows, plain
peeling costs less than Newton iteration.
"""

from .numberfield import plist_compose, plist_mul, plist_peel, plist_quotients
from .polynomial import format_terms, power_str


class SeriesError(Exception):
    pass


class TruncatedSeries:
    __slots__ = ("field", "coeffs", "trunc")

    def __init__(self, field, coeffs, trunc=None):
        coeffs = tuple(coeffs)
        if trunc is None:
            trunc = len(coeffs)
        if trunc < 1:
            raise SeriesError("truncation order must be >= 1")
        if len(coeffs) < trunc:
            coeffs = coeffs + (field.zero,) * (trunc - len(coeffs))
        elif len(coeffs) > trunc:
            coeffs = coeffs[:trunc]
        self.field = field
        self.coeffs = coeffs
        self.trunc = trunc

    @classmethod
    def from_poly(cls, poly, trunc):
        return cls(poly.field, poly.coeffs, trunc)

    @classmethod
    def zero(cls, field, trunc):
        return cls(field, (), trunc)

    @classmethod
    def identity(cls, field, trunc):
        """The series s."""
        return cls(field, (field.zero, field.one), trunc)

    def coeff(self, i):
        if 0 <= i < self.trunc:
            return self.coeffs[i]
        raise SeriesError("coefficient %d is beyond the truncation order" % i)

    def order(self):
        for i, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                return i
        return None

    def _common(self, other):
        return min(self.trunc, other.trunc)

    def __add__(self, other):
        n = self._common(other)
        f = self.field
        return TruncatedSeries(
            f, [f.add(self.coeffs[i], other.coeffs[i]) for i in range(n)], n
        )

    def __sub__(self, other):
        n = self._common(other)
        f = self.field
        return TruncatedSeries(
            f, [f.sub(self.coeffs[i], other.coeffs[i]) for i in range(n)], n
        )

    def __neg__(self):
        f = self.field
        return TruncatedSeries(f, [f.neg(c) for c in self.coeffs], self.trunc)

    def scale(self, c):
        f = self.field
        return TruncatedSeries(f, [f.mul(c, x) for x in self.coeffs], self.trunc)

    def __mul__(self, other):
        n = self._common(other)
        return TruncatedSeries(
            self.field, plist_mul(self.field, self.coeffs, other.coeffs, n), n
        )

    def truncate(self, n):
        if n == self.trunc:
            return self
        return TruncatedSeries(self.field, self.coeffs[:n], n)

    def invert_unit(self):
        """1/self mod s^n, for n = trunc: the series quotient 1/self."""
        f = self.field
        if f.is_zero(self.coeffs[0]):
            raise SeriesError("inversion requires a nonzero constant term")
        n = self.trunc
        return TruncatedSeries(
            f, plist_quotients(f, [[f.one]], self.coeffs, n)[0], n)

    def compose(self, inner):
        """self(inner(s)); requires inner(0) = 0."""
        f = self.field
        if not f.is_zero(inner.coeffs[0]):
            raise SeriesError("composition requires inner constant term zero")
        n = min(self.trunc, inner.trunc)
        return TruncatedSeries(
            f, plist_compose(f, self.coeffs, inner.coeffs, n), n)

    def in_powers_of(self, u):
        """(c, stop) with self = sum_m c_m u^m + r below the truncation.

        Peels the lowest term of r while its order is a multiple of
        e = ord u (numberfield.plist_peel).  c holds the c_m for m*e below
        the truncation, and stop is the order of r, which is not a multiple
        of e, or None when r vanishes below the truncation.  Every step is
        exact.
        """
        e = u.order()
        if not e:
            raise SeriesError("peeling requires a series u of positive order")
        n = self._common(u)
        c, stop = plist_peel(self.field, self.coeffs[:n], u.coeffs[:n], e)
        return TruncatedSeries(self.field, c, len(c)), stop

    def reversion(self):
        """Compositional inverse g with self(g) = g(self) = s: the series s
        peeled against self.  Requires order exactly 1."""
        if self.order() != 1:
            raise SeriesError("reversion requires a series of order exactly 1")
        s = TruncatedSeries.identity(self.field, self.trunc)
        return s.in_powers_of(self)[0]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries) or self.field != other.field:
            return False
        n = self._common(other)
        return all(
            self.field.eq(self.coeffs[i], other.coeffs[i]) for i in range(n)
        )

    def to_str(self, var="s"):
        body = format_terms(self.field, (
            (c, power_str(var, i)) for i, c in enumerate(self.coeffs)
        ))
        return "%s + O(%s^%d)" % (body, var, self.trunc)

    def __repr__(self):
        return self.to_str()
