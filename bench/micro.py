"""Kernel micro-timings on the corpus's own fields, each with an exact
identity check on every result it times.

Operands come from the corpus itself: the coefficients of the records'
parametrizations and, for the series kernels, the Taylor expansions of a
parametrization at a classifier location.  The fields are one of each degree
over Q that certification works in (see README.md).
"""

import random
import statistics
import time

from sextic19.database import load_corpus
from sextic19.numberfield import QQ, adjoin_root
from sextic19.polynomial import poly_gcd, resultant
from sextic19.series import TruncatedSeries

BATCHES = 5


class IdentityError(Exception):
    pass


def _require(ok, what):
    if not ok:
        raise IdentityError(what)


def _timed_us(run, items):
    """(median over the batches of the mean time per item in microseconds,
    every result) for `run` applied to each item of each batch."""
    per, results = [], []
    for batch in items:
        start = time.perf_counter()
        out = [run(*item) for item in batch]
        per.append((time.perf_counter() - start) / len(batch) * 1e6)
        results.append(out)
    return statistics.median(per), results


def _leaves(field, x):
    if field == QQ:
        return [x]
    out = []
    for c in x:
        out.extend(_leaves(field.base, c))
    return out


def _coeff_pool(curve):
    f = curve.field
    return [c for comp in curve.components() for c in comp.coeffs
            if not f.is_zero(c)]


def micro_fields(recs):
    """(label, field, operand pool, curve over the field) for each degree.

    d8 and d12 are the fields adjoined for the odd claims of curves 10 and 7;
    the pool there mixes lifted coefficients with the adjoined root."""
    by_id = {r.id: r for r in recs}
    out = []
    qq_pool = [q for c in _coeff_pool(by_id[10].curve)
               for q in _leaves(by_id[10].field, c) if q != 0]
    out.append(("d1", QQ, qq_pool, by_id[37].curve))
    for label, rid in (("d2", 6), ("d3", 2), ("d4", 10), ("d6", 7)):
        curve = by_id[rid].curve
        out.append((label, curve.field, _coeff_pool(curve), curve))
    for label, rid in (("d8", 10), ("d12", 7)):
        rec = by_id[rid]
        ext, roots = adjoin_root(rec.field,
                                 list(rec.odd_claim.location.poly.coeffs))
        curve = rec.curve.map_field(ext)
        pool = _coeff_pool(curve)
        pool = pool + [ext.add(c, ext.mul(c, roots[0])) for c in pool]
        out.append((label, ext, pool, curve))
    for label, fld, _pool, _curve in out:
        if fld.degree_over_q != int(label[1:]):
            raise IdentityError("%s field has degree %d over Q"
                                % (label, fld.degree_over_q))
    return out


def numberfield_micro(fields, rng, metrics):
    for label, f, pool, _curve in fields:
        pairs = [[(rng.choice(pool), rng.choice(pool)) for _ in range(100)]
                 for _ in range(BATCHES)]
        # every inverted element is distinct, so no cache inside the field
        # can answer it
        invs = [[(f.add(rng.choice(pool),
                        f.scalar_mul(k + 1, rng.choice(pool))),)
                 for k in range(20 * b, 20 * b + 20)]
                for b in range(BATCHES)]
        metrics["numberfield.mul_%s_us" % label], _ = _timed_us(f.mul, pairs)
        metrics["numberfield.inv_%s_us" % label], inverses = \
            _timed_us(f.inv, invs)
        for batch, out in zip(invs, inverses):
            for (x,), x_inv in zip(batch, out):
                _require(f.eq(f.mul(x, x_inv), f.one),
                         "x * x^-1 = 1 in %s" % label)


def _branch_series(curve, t0, n):
    """(f, u): f a centered component expansion of order exactly one and u
    a unit expansion, both at t = t0 truncated at n."""
    f = curve.field
    exps = [TruncatedSeries.from_poly(c.taylor_shift(t0), n)
            for c in curve.components()]
    unit = next(s for s in exps if not f.is_zero(s.coeffs[0]))
    lin = next(s for s in exps if not f.is_zero(s.coeffs[1]))
    return TruncatedSeries(f, (f.zero,) + lin.coeffs[1:], n), unit


def series_micro(fields, metrics):
    """Over QQ (curve 37 at t = 2) and over the degree-8 field of curve 10's
    A_13 claim (at its adjoined root).  The degree-8 kernels take seconds
    per call at n = 42, so they are timed once; the QQ ones three times."""
    by_label = {label: (fld, curve) for label, fld, _p, curve in fields}
    e8, curve10 = by_label["d8"]
    cases = (("q", by_label["d1"][1], QQ.from_int(2), 3),
             ("e8", curve10, e8.gen, 1))
    for tag, curve, t0, reps in cases:
        fld = curve.field
        for n in (22, 42):
            f, u = _branch_series(curve, t0, n)
            key = "series.%%s_n%d_%s_us" % (n, tag)
            once = [[()] for _ in range(reps)]
            metrics[key % "mul"], _ = _timed_us(lambda: f * u, once * 3)
            metrics[key % "reversion"], revs = _timed_us(f.reversion, once)
            g = revs[0][0]
            metrics[key % "compose"], comps = \
                _timed_us(lambda: f.compose(g), once)
            _require(comps[0][0] == TruncatedSeries.identity(fld, n),
                     "f o reversion(f) = s")
            one = TruncatedSeries(fld, (fld.one,), n)
            _require(u * u.invert_unit() == one, "u * u^-1 = 1")


def _deg6_pairs(curve, rng, shift, count):
    """`count` pairs (x - u z, y - v z) of degree six with small u, v; u is
    moved off the base field by `shift` on the adjoined field."""
    fld = curve.field
    x, y, z = curve.components()
    out = []
    for _ in range(50 * count):
        u = fld.add(fld.from_int(rng.randint(1, 9)), shift)
        v = fld.from_int(rng.randint(1, 9))
        a, b = x - z.scale(u), y - z.scale(v)
        if a.degree == 6 and b.degree == 6:
            out.append((a, b))
            if len(out) == count:
                return out
    raise IdentityError("no degree-6 resultant inputs on %r" % fld)


def polynomial_micro(fields, rng, metrics):
    for label, fld, _pool, curve in fields:
        if label not in ("d1", "d2", "d4", "d8"):
            continue
        shift = fld.gen if label == "d8" else fld.zero
        pairs = [_deg6_pairs(curve, rng, shift, 2) for _ in range(3)]
        metrics["polynomial.resultant_deg6_%s_us" % label], res = \
            _timed_us(resultant, pairs)
        gcd_in = [[(a, a.derivative()) for a, _b in batch] for batch in pairs]
        metrics["polynomial.gcd_deg6_%s_us" % label], gcds = \
            _timed_us(poly_gcd, gcd_in)
        for batch, out in zip(pairs, res):
            for (a, b), ab in zip(batch, out):
                ba = resultant(b, a)
                _require(fld.eq(ab, ba) or fld.eq(ab, fld.neg(ba)),
                         "Res(a, b) = +-Res(b, a)")
        for batch, out in zip(gcd_in, gcds):
            for (a, da), g in zip(batch, out):
                _require((a % g).is_zero() and (da % g).is_zero(),
                         "gcd divides both inputs")


def rationals_micro(fields, rng, metrics):
    pool = fields[0][2]
    triples = [[(rng.choice(pool), rng.choice(pool), rng.choice(pool))
                for _ in range(400)] for _ in range(BATCHES)]
    metrics["rationals.rat_muladd_us"], out = _timed_us(
        lambda a, b, c: a * b + c, triples)
    for batch, res in zip(triples, out):
        for (a, b, c), r in zip(batch, res):
            _require(r - c == a * b, "a * b + c - c = a * b")


def run_micro(seed):
    """Every micro metric, in microseconds per call."""
    rng = random.Random(seed)
    fields = micro_fields(load_corpus())
    metrics = {}
    numberfield_micro(fields, rng, metrics)
    series_micro(fields, metrics)
    polynomial_micro(fields, rng, metrics)
    rationals_micro(fields, rng, metrics)
    return metrics


def micro_names():
    names = ["numberfield.%s_d%d_us" % (k, d)
             for k in ("mul", "inv") for d in (1, 2, 3, 4, 6, 8, 12)]
    names += ["series.%s_n%d_%s_us" % (k, n, tag)
              for k in ("mul", "compose", "reversion")
              for n in (22, 42) for tag in ("q", "e8")]
    names += ["polynomial.%s_deg6_d%d_us" % (k, d)
              for k in ("resultant", "gcd") for d in (1, 2, 4, 8)]
    names.append("rationals.rat_muladd_us")
    return names
