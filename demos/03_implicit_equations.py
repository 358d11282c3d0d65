"""Implicit equations by exact resultants.

A moving line is a line a(t) X + b(t) Y + c(t) Z = 0 through the point
(x(t) : y(t) : z(t)) for every t.  Two moving lines of least degrees (a
mu-basis) have, as resultant in t, a constant times F^k: F the implicit
sextic and k the degree of the map onto it.  One gcd of the minors of a
fiber certifies k = 1, so the parametrization is birational.
"""

from sextic19.curve import implicitize
from sextic19.database import load_corpus

records = load_corpus()

# a quick one over Q
rec3 = records[2]
F3, mapdeg = implicitize(rec3.curve)
print("curve 3: degree %d, map degree %d" % (F3.total_degree(), mapdeg))
print("F =", F3.to_str())

# curve 36 is parametrized over Q(w), w^2 + w + 1 = 0, but its implicit
# equation has rational coefficients; the corpus carries the printed form
# and the computed one must match it up to a unit.
rec36 = records[35]
F36, _ = implicitize(rec36.curve)
printed = rec36.printed_implicit.map_field(rec36.field)
unit = F36.scalar_multiple_of(printed)
print("\ncurve 36 matches its printed implicit equation up to the unit",
      rec36.field.to_str(unit))
print("h =", rec36.printed_implicit_h.to_str("x"))

# curve 34: coefficients in Q(sqrt(-7)) even though the parametrization
# needs the extra generator b with b^2 = -3
rec34 = records[33]
F34, _ = implicitize(rec34.curve)
unit = F34.scalar_multiple_of(rec34.printed_implicit.map_field(rec34.field))
print("\ncurve 34 matches its printed implicit equation up to the unit",
      rec34.field.to_str(unit))
