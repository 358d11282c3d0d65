"""Truncated power series over an exact field.

A series stores its coefficients for exponents 0..N-1; N is the truncation
order.  Every operation returns exact coefficients strictly below the
smaller truncation order of its inputs.  order() reports the exponent of
the first nonzero stored coefficient, or None when every stored coefficient
vanishes, in which case the caller must retry at a higher truncation.
"""

from .numberfield import plist_mul
from .polynomial import format_terms, power_str, ring_power
from .rationals import Rat


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

    def __pow__(self, k):
        return ring_power(
            TruncatedSeries(self.field, (self.field.one,), self.trunc), self, k
        )

    def truncate(self, n):
        if n == self.trunc:
            return self
        return TruncatedSeries(self.field, self.coeffs[:n], n)

    def derivative(self):
        f = self.field
        out = [
            f.scalar_mul(Rat(i), self.coeffs[i]) for i in range(1, self.trunc)
        ]
        return TruncatedSeries(f, out, max(1, self.trunc - 1))

    def invert_unit(self):
        f = self.field
        a0 = self.coeffs[0]
        if f.is_zero(a0):
            raise SeriesError("inversion requires a nonzero constant term")
        inv0 = f.inv(a0)
        n = self.trunc
        out = [f.zero] * n
        out[0] = inv0
        for k in range(1, n):
            acc = f.zero
            for i in range(1, k + 1):
                ai = self.coeffs[i]
                if f.is_zero(ai):
                    continue
                acc = f.add(acc, f.mul(ai, out[k - i]))
            out[k] = f.neg(f.mul(acc, inv0))
        return TruncatedSeries(f, out, n)

    def compose(self, inner):
        """self(inner(s)); requires inner(0) = 0."""
        f = self.field
        if not f.is_zero(inner.coeffs[0]):
            raise SeriesError("composition requires inner constant term zero")
        n = min(self.trunc, inner.trunc)
        acc = TruncatedSeries.zero(f, n)
        inner = inner.truncate(n)
        for c in reversed(self.coeffs[:n]):
            acc = acc * inner
            if not f.is_zero(c):
                acc = TruncatedSeries(
                    f, (f.add(acc.coeffs[0], c),) + acc.coeffs[1:], n
                )
        return acc

    def reversion(self):
        """Compositional inverse g with self(g) = g(self) = s.

        Requires order exactly 1.  Newton iteration with doubling precision.
        """
        f = self.field
        if self.order() != 1:
            raise SeriesError("reversion requires a series of order exactly 1")
        n = self.trunc
        f1 = self.coeffs[1]
        g = TruncatedSeries(f, (f.zero, f.inv(f1)), 2)
        prec = 2
        fder = self.derivative()
        while prec < n:
            prec = min(2 * prec, n)
            ft = self.truncate(prec)
            gt = g.truncate(prec)
            err = ft.compose(gt) - TruncatedSeries.identity(f, prec)
            corr = err * fder.truncate(prec).compose(gt).invert_unit()
            g = gt - corr
        return g.truncate(n)

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
