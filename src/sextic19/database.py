"""The curve corpus: loading, validation, and record-level cross checks.

The corpus ships as JSON with exact rationals as 'p/q' strings and field
elements as nested coordinate lists over the field tower.  Parametrizations
are stored in the factored form in which they are printed; the loader
expands them, rebuilds every claim, and enforces the structural invariants
(degree six, no common factor, Milnor total 19, exactly one odd index,
location count matching the even entries).

`corpus/schema.json` is checked here, without a JSON Schema library, by a
short recursive checker of the draft-07 subset that the schema uses: `type`,
`required`, `properties`, `items` (one schema for every item), `$ref` (a
local pointer such as `#/definitions/rat`), `oneOf`, `const`, `enum`,
`pattern`, `minimum`, `maximum`, `minItems` and `maxItems`, with draft 7's
meaning of each (`true` is not an integer, `1.0` is one; `pattern` is an
unanchored search).  `$schema`, `title` and `definitions` are metadata.  A
schema that uses any other keyword, or a `const` or `enum` value that is
not a scalar, is refused with CorpusError before any document is checked,
so the schema cannot outgrow the checker unnoticed.

The check is compiled once per load: each schema node becomes one closure
that runs its keywords' steps in a fixed order (type, const, enum, oneOf,
pattern, minimum and maximum, the array keywords, then required and
properties), so the schema dicts are not re-read at every node of the
document.  A `$ref` reuses a valid verdict for a string it has already
seen.  That is sound because every keyword of the subset judges a string by
its value alone: the path only names where a violation is, and the array
and object keywords ignore strings.  An invalid string is checked again
wherever it occurs, so the first violation and its path are the ones the
uncompiled walk finds.  The checks of a recursive `$ref` reach each other,
so the compiled schema is taken apart once the document is checked.

Decoding parses each distinct rational string once per load, into a memo
that the load's records hold and that is dropped with them: the shipped
corpus holds 2606 rational strings with 233 distinct values.  Each
distinct field is built once per load: the 39 records share 24 field
objects.  Nothing is shared across loads.
"""

import json
import os
import re
from functools import cached_property, reduce
from importlib import resources
from operator import mul
from types import SimpleNamespace

from .curve import (
    CurveError,
    MoebiusMap,
    ParameterLocation,
    ProjectiveMap,
    RationalPlaneCurve,
    implicitize,
)
from .numberfield import QQ, FieldError, build_tower, field_pow
from .polynomial import (
    PolynomialError,
    TriPoly,
    UniPoly,
    homogenize_xy,
    squarefree_decomposition,
)
from .rationals import Rat
from .singularity import SingularityClaim, SingularityType


class CorpusError(Exception):
    pass


def default_corpus_path():
    env = os.environ.get("SEXTIC19_CORPUS")
    if env:
        return env
    return str(resources.files("sextic19").joinpath("corpus/sextics.json"))


def _schema_path():
    return str(resources.files("sextic19").joinpath("corpus/schema.json"))


def descend(polys):
    """Coerce UniPolys and TriPolys over one field down the tower, together:
    a level is dropped while every coefficient of every one lies in its
    base.  Returns the list of polys over that smallest common level."""
    top = polys[0].field
    coeffs = [c for p in polys
              for c in (p.coeffs if isinstance(p, UniPoly)
                        else p.terms.values())]
    fld = top
    while fld != QQ:
        down = [fld.descend(c) for c in coeffs]
        if any(c is None for c in down):
            break
        fld, coeffs = fld.base, down
    if fld == top:
        return polys
    it = iter(coeffs)
    return [UniPoly(fld, [next(it) for _ in p.coeffs], normalize=False)
            if isinstance(p, UniPoly)
            else TriPoly(fld, dict(zip(p.terms, it)), normalize=False)
            for p in polys]


class PencilData(SimpleNamespace):
    """Pencil of cubics g_lambda = g0 + lambda*g1 in the chart z = 1,
    stored as y-coefficient lists of x-polynomials (g0, g1), with the known
    basepoint divisor of the y-resultant (basepoint), all over the smallest
    tower level that holds their coefficients.  Pencils with equal
    attributes are equal."""


FLAG_KEYS = (
    "E_differs_from_F",
    "has_symmetry",
    "has_alt_parametrization",
    "has_printed_implicit",
    "has_pencil",
    "autodual_claimed",
)


class CurveRecord(SimpleNamespace):
    """One decoded corpus record; the optional sections are None when the
    record carries none, raw is the record as stored, and rationals the
    load's memo of parsed rationals (see _Decoder)."""

    printed_implicit = None
    printed_implicit_h = None
    pencil = None
    alt = None
    conic_reduction = None

    @cached_property
    def curve(self):
        return RationalPlaneCurve(self.field, self.x, self.y, self.z)

    @property
    def claims(self):
        return [self.odd_claim] + list(self.even_claims)

    def singular_point_count(self):
        return sum(c.point_count() for c in self.claims)

    def describe(self):
        gens = ", ".join(g["name"] for g in self.field_E_desc["generators"])
        field = "Q(%s)" % gens if gens else "Q"
        return "%2d  %-18s field %s" % (self.id, self.name, field)


class AltParametrization(SimpleNamespace):
    """A record's second parametrization: field, x, y, z, odd_location and
    first_generator_image."""

    @property
    def curve(self):
        return RationalPlaneCurve(self.field, self.x, self.y, self.z)


class _Decoder:
    """The decoders of one load.  Each distinct rational string is parsed
    once, into a memo shared by the records of the load and dropped with
    them, and each distinct field is built once (`field`).  Elements are
    built from the parsed Rat by the field's own from_rat and from_coords,
    so their stored form stays private to numberfield.

    The memo goes with the records, not with the decoder, because about 100
    of the 233 parsed rationals are used only by factors that decoding
    multiplies out.  Freed when the load ends, they would leave single free
    slots across many allocator pools, and the temporaries of the next
    computation would cycle through those scattered slots: a benchmark
    round of certify calls on freshly loaded records ran 3-4 % slower."""

    def __init__(self):
        self._rats = {}
        self._fields = {}

    def rat(self, text):
        q = self._rats.get(text)
        if q is None:
            try:
                q = self._rats[text] = Rat(text)
            except (ValueError, ZeroDivisionError):
                raise CorpusError("%r is not a rational" % text) from None
        return q

    def field(self, desc):
        """The field of a description, built once per load and keyed, level
        by level, by each generator's name and parsed minpoly ("1/2" and
        "2/4" give one field).  A field caches only its place mod p, which
        depends on the field alone, so every record that names it shares
        it."""
        fld, key = QQ, ()
        for g in desc["generators"]:
            gen = (g["name"], tuple(map(self.rat, g["minpoly"])))
            key += (gen,)
            if key not in self._fields:
                self._fields[key] = build_tower([gen], fld)
            fld = self._fields[key]
        return fld

    def elem(self, fld, data):
        if isinstance(data, str):
            return fld.from_rat(self.rat(data))
        if fld == QQ:
            raise CorpusError("nested coefficient for a rational value")
        return fld.from_coords([self.elem(fld.base, d) for d in data])

    def poly(self, fld, coeffs):
        return UniPoly(fld, [self.elem(fld, c) for c in coeffs])

    def factors(self, fld, factors):
        """The product of the factor powers, as printed; 1 for no
        factors."""
        powers = [self.poly(fld, fac["coeffs"]) ** fac["power"]
                  for fac in factors]
        return reduce(mul, powers) if powers else UniPoly.one(fld)

    def location(self, fld, data, components=None):
        kind = data["kind"]
        if kind == "infinity":
            return ParameterLocation.at_infinity()
        if kind == "value":
            return ParameterLocation.at_value(self.elem(fld, data["t"]))
        if kind == "roots":
            return ParameterLocation.at_roots(self.poly(fld, data["poly"]))
        if kind == "pair":
            def dec(v):
                return "inf" if v == "inf" else self.elem(fld, v)
            return ParameterLocation.at_pair(dec(data["t1"]), dec(data["t2"]))
        if kind == "double_roots":
            comp = components[data["component"]]
            _, parts = squarefree_decomposition(comp)
            quads = [p for p, m in parts if m == 2 and p.degree == 2]
            if len(quads) != 1:
                raise CorpusError(
                    "double_roots location needs exactly one squared quadratic"
                )
            return ParameterLocation.at_roots(quads[0])
        raise CorpusError("unknown location kind %r" % kind)

    def rows(self, fld, data):
        """The rows of a printed equation or pencil in the chart z = 1:
        h(x), and for each (ypow, lampow) the x-polynomial sum of coeffs(x)
        * h(x)^hpow over the rows with that key (lampow is 0 when absent).
        Each power of h is computed once."""
        h = self.poly(fld, data["h"])
        h_pows = {}
        rows = {}
        for row in data["terms"]:
            poly = self.poly(fld, row["coeffs"])
            hpow = int(row.get("hpow", 0))
            if hpow:
                if hpow not in h_pows:
                    h_pows[hpow] = h ** hpow
                poly = poly * h_pows[hpow]
            key = (int(row["ypow"]), row.get("lampow", 0))
            rows[key] = rows[key] + poly if key in rows else poly
        return h, rows

    def tripoly_hform(self, fld, data):
        """Printed implicit sextic: sum of coeffs(x) * y^ypow * h(x)^hpow,
        homogenized to degree six."""
        h, rows = self.rows(fld, data)
        terms = {(i, ypow): c for (ypow, _), poly in rows.items()
                 for i, c in enumerate(poly.coeffs)}
        return homogenize_xy(fld, terms, 6), h

    def pencil(self, fld, data):
        _, rows = self.rows(fld, data)
        n = 1 + max(ypow for ypow, _ in rows)
        bp = data["basepoint_factor"]
        base = self.factors(fld, bp["factors"]).scale(
            self.elem(fld, bp["scalar"]))
        polys = descend([rows.get((ypow, lam), UniPoly.zero(fld))
                         for lam in (0, 1) for ypow in range(n)] + [base])
        return PencilData(g0=polys[:n], g1=polys[n:2 * n],
                          basepoint=polys[-1])

    def record(self, data):
        fld = self.field(data["field_E"])
        comps = {
            name: self.factors(fld, data["parametrization"][name])
            for name in ("x", "y", "z")
        }
        p = self.poly(fld, data["p"]) if data["p"] is not None else None
        odd = SingularityClaim(
            SingularityType(data["odd"]["n"]),
            self.location(fld, data["odd"]["location"], comps),
        )
        evens = [
            SingularityClaim(
                SingularityType(e["n"]),
                self.location(fld, e["location"], comps),
            )
            for e in data["even"]
        ]
        symmetry = None
        if data.get("symmetry"):
            sm = data["symmetry"]
            symmetry = (
                ProjectiveMap(fld, [[self.elem(fld, v) for v in row]
                                    for row in sm["matrix"]]),
                MoebiusMap(fld, *[self.elem(fld, v) for v in sm["moebius"]]),
            )
        rec = CurveRecord(
            id=data["id"],
            name=data["name"],
            multiset=list(data["multiset"]),
            field=fld,
            field_F_desc=data["field_F"],
            field_E_desc=data["field_E"],
            x=comps["x"], y=comps["y"], z=comps["z"],
            p=p,
            odd_claim=odd,
            even_claims=evens,
            flags={k: bool(data["flags"].get(k, False)) for k in FLAG_KEYS},
            symmetry=symmetry,
            notes=data.get("notes", ""),
            raw=data,
            rationals=self._rats,
        )
        if data.get("printed_implicit"):
            F6, h6 = self.tripoly_hform(fld, data["printed_implicit"])
            [rec.printed_implicit] = descend([F6])
            [rec.printed_implicit_h] = descend([h6])
        if data.get("pencil"):
            rec.pencil = self.pencil(fld, data["pencil"])
        if data.get("alt_parametrization"):
            alt = data["alt_parametrization"]
            afld = self.field(alt["field"])
            rec.alt = AltParametrization(
                field=afld,
                x=self.factors(afld, alt["x"]),
                y=self.factors(afld, alt["y"]),
                z=self.factors(afld, alt["z"]),
                odd_location=self.location(afld, alt["odd_location"]),
                first_generator_image=self.poly(
                    afld, alt["first_generator_image"]
                ),
            )
        if data.get("conic_reduction"):
            cr = data["conic_reduction"]
            rec.conic_reduction = {
                "equation": [self.elem(fld, v) for v in cr["equation"]],
                "solution": [self.elem(fld, v) for v in cr["solution"]],
            }
        return rec


def _check_invariants(rec):
    errs = []
    if sum(rec.multiset) != 19:
        errs.append("Milnor indices sum to %d, not 19" % sum(rec.multiset))
    odd_indices = [n for n in rec.multiset if n % 2 == 1]
    if len(odd_indices) != 1:
        errs.append("%d odd indices, expected exactly one" % len(odd_indices))
    if odd_indices and rec.odd_claim.stype.n != odd_indices[0]:
        errs.append("odd claim does not match the multiset")
    even_from_multiset = [n for n in rec.multiset if n % 2 == 0]
    claimed = []
    for c in rec.even_claims:
        claimed.extend([c.stype.n] * c.point_count())
    if sorted(claimed) != sorted(even_from_multiset):
        errs.append(
            "even claims %s do not cover the multiset %s"
            % (claimed, even_from_multiset)
        )
    curve = rec.curve  # raises on common factors / degree mismatch
    if curve.degree != 6:
        errs.append("parametrization degree %d" % curve.degree)
    if errs:
        raise CorpusError("; ".join(errs))


# the draft-07 keywords that _violation implements, and those it ignores
_KEYWORDS = {"type", "required", "properties", "items", "$ref", "oneOf",
             "const", "enum", "pattern", "minimum", "maximum", "minItems",
             "maxItems"}
_METADATA = {"$schema", "title", "definitions"}

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}


def _same(inst, value):
    """JSON equality with a scalar `value` of const or enum: unlike ==, a
    boolean never equals a number."""
    return inst == value and isinstance(inst, bool) == isinstance(value, bool)


def _resolve(root, ref):
    """The subschema a local $ref such as '#/definitions/rat' points at."""
    node = root if ref.startswith("#/") else None
    for part in ref[2:].split("/"):
        node = node.get(part) if isinstance(node, dict) else None
    if node is None:
        raise CorpusError("schema $ref %r does not resolve" % ref)
    return node


def _check_schema(root):
    """Refuse a schema that uses a keyword _violation does not implement.
    Returns the subschema of each $ref, resolved once, by its ref."""
    refs = {}
    todo = [root]
    while todo:
        node = todo.pop()
        if not isinstance(node, dict):
            raise CorpusError("schema node %r is not an object" % (node,))
        unknown = sorted(set(node) - _KEYWORDS - _METADATA)
        kind = node.get("type", "object")
        if unknown or not (isinstance(kind, str) and kind in _TYPES):
            raise CorpusError("schema uses unsupported %s"
                              % (unknown or "type %r" % (kind,)))
        values = list(node.get("enum", ())) + [node.get("const")]
        if any(isinstance(v, (list, dict)) for v in values):
            raise CorpusError("schema compares with a non-scalar in %r"
                              % (node,))
        if "$ref" in node:
            refs[node["$ref"]] = _resolve(root, node["$ref"])
        todo.extend(node.get("oneOf", ()))
        todo.extend(node.get("properties", {}).values())
        todo.extend(node.get("definitions", {}).values())
        if "items" in node:
            todo.append(node["items"])
    return refs


def _violation(inst, schema, refs, path=()):
    """The first violation of `schema` by `inst` as (path, message), or None
    when inst is valid; `refs` is what _check_schema returns.  The schema is
    compiled for this one check (see the module docstring)."""
    # the compiled subschema of each $ref, set once all are compiled
    targets = {ref: [] for ref in refs}
    table = {ref: _memo(target) for ref, target in targets.items()}
    for ref, sub in refs.items():
        targets[ref].append(_compile(sub, table))
    try:
        err = _compile(schema, table)(inst)
    finally:
        # the checks of a recursive $ref reach themselves: break the cycles
        for target in targets.values():
            target.clear()
    if err is None:
        return None
    message, keys = err
    return path + tuple(reversed(keys)), message[0] % message[1:]


def _memo(target):
    """The check of a $ref whose compiled subschema is target[0]: it reuses
    a valid verdict for a string it has already seen."""
    valid = set()

    def check(inst):
        if type(inst) is not str:
            return target[0](inst)
        if inst in valid:
            return None
        err = target[0](inst)
        if err is None:
            valid.add(inst)
        return err
    return check


def _compile(schema, table):
    """The check of one schema node: a function of an instance that returns
    None when it is valid, else its first violation as (message, keys): the
    message as a format string and its arguments, formatted only when it is
    reported, and the keys of its path innermost first.  `table` holds the
    check of each $ref.  The node's tests, in the order of the module
    docstring, give the message of a violation at the node itself; then its
    properties or items are checked.  Only a dict meets the object keywords and only a list the
    array ones, so the two kinds never compete for the first violation."""
    if "$ref" in schema:  # draft 7 ignores the siblings of a $ref
        return table[schema["$ref"]]
    is_number = _TYPES["number"]
    tests = []
    if "type" in schema:
        kind = schema["type"]
        is_kind = _TYPES[kind]
        tests.append(lambda v: None if is_kind(v)
                     else ("%r is not of type %r", v, kind))
    if "const" in schema:
        const = schema["const"]
        tests.append(lambda v: None if _same(v, const)
                     else ("%r was expected", const))
    if "enum" in schema:
        enum = schema["enum"]
        tests.append(lambda v: None if any(_same(v, e) for e in enum)
                     else ("%r is not one of %r", v, enum))
    if "oneOf" in schema:
        subs = [_compile(sub, table) for sub in schema["oneOf"]]
        tests.append(lambda v: _one_of(v, subs))
    if "pattern" in schema:
        pattern = schema["pattern"]
        search = re.compile(pattern).search
        tests.append(lambda v: ("%r does not match %r", v, pattern)
                     if isinstance(v, str) and not search(v) else None)
    if "minimum" in schema:
        low = schema["minimum"]
        tests.append(lambda v: ("%r is less than the minimum of %r", v, low)
                     if is_number(v) and v < low else None)
    if "maximum" in schema:
        high = schema["maximum"]
        tests.append(lambda v: ("%r is greater than the maximum of %r", v,
                                high) if is_number(v) and v > high else None)
    if "minItems" in schema:
        shortest = schema["minItems"]
        tests.append(lambda v: ("%r is too short", v)
                     if isinstance(v, list) and len(v) < shortest else None)
    if "maxItems" in schema:
        longest = schema["maxItems"]
        tests.append(lambda v: ("%r is too long", v)
                     if isinstance(v, list) and len(v) > longest else None)
    if "required" in schema:
        required = schema["required"]
        tests.append(lambda v: _missing(v, required)
                     if isinstance(v, dict) else None)
    props = [(key, _compile(sub, table))
             for key, sub in schema.get("properties", {}).items()]
    items = _compile(schema["items"], table) if "items" in schema else None

    def check(inst):
        for test in tests:
            message = test(inst)
            if message is not None:
                return message, []
        if props and isinstance(inst, dict):
            for key, sub in props:
                err = key in inst and sub(inst[key])
                if err:
                    err[1].append(key)
                    return err
        elif items and isinstance(inst, list):
            for i, value in enumerate(inst):
                err = items(value)
                if err:
                    err[1].append(i)
                    return err
        return None
    return check


def _missing(inst, required):
    for key in required:
        if key not in inst:
            return "%r is a required property", key
    return None


def _one_of(inst, subs):
    hits = sum(sub(inst) is None for sub in subs)
    if hits != 1:
        return "%r is valid under %d of the given schemas, not 1", inst, hits
    return None


def load_corpus(path=None):
    """Load and validate the corpus; returns a list of CurveRecord."""
    path = path or default_corpus_path()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CorpusError("%s is not valid JSON: %s" % (path, exc)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError("cannot read the corpus %s: %s"
                          % (path, exc)) from exc
    with open(_schema_path()) as fh:
        schema = json.load(fh)
    err = _violation(doc, schema, _check_schema(schema))
    if err:
        raise CorpusError("schema violation at %s: %s"
                          % ("/".join(str(p) for p in err[0]), err[1]))
    decoder = _Decoder()
    records = []
    for data in doc["curves"]:
        try:
            rec = decoder.record(data)
            _check_invariants(rec)
        except (CorpusError, CurveError, FieldError, PolynomialError) as exc:
            raise CorpusError("record %d: %s" % (data["id"], exc)) from exc
        records.append(rec)
    if [r.id for r in records] != list(range(1, len(records) + 1)):
        raise CorpusError("record ids are not 1..%d" % len(records))
    return records


def cross_check_record(rec):
    """Internal-consistency report for one record.

    Verifies the Milnor sum and odd-index uniqueness, compares the printed
    implicit equation (where present) with the computed one up to a unit,
    and checks that an alternative parametrization cuts out the same sextic.
    """
    report = {"id": rec.id, "ok": True, "checks": {}}

    def record(name, ok, detail=""):
        report["checks"][name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            report["ok"] = False

    record("milnor_sum", sum(rec.multiset) == 19,
           "sum = %d" % sum(rec.multiset))
    record("one_odd_index",
           len([n for n in rec.multiset if n % 2 == 1]) == 1)

    F = None
    if rec.printed_implicit is not None or rec.alt is not None:
        F, mapdeg = implicitize(rec.curve)
        record("implicit_degree", F.total_degree() == 6 and mapdeg == 1,
               "degree %d, map degree %d" % (F.total_degree(), mapdeg))

    if rec.printed_implicit is not None:
        printed = rec.printed_implicit.map_field(rec.field)
        unit = F.scalar_multiple_of(printed)
        record("printed_implicit_matches", unit is not None,
               "unit %s" % (rec.field.to_str(unit) if unit else "none"))

    if rec.alt is not None:
        ok, detail, _diag = _alt_same_sextic(rec, F)
        record("alt_parametrization_same_curve", ok, detail)
    return report


def _alt_same_sextic(rec, F):
    """The two printed parametrizations of a record cut out the same curve.

    The primary implicit equation descends to the real subfield F
    (coefficients free of the second generator) and is mapped into the
    alternative field through the recorded image of the first generator.
    The alternative implicit equation is then matched against it up to a
    unit combined with a diagonal coordinate scaling (X, Y, Z) ->
    (l1 X, l2 Y, Z): the printed models are normalized per-parametrization,
    so their embeddings may differ by exactly such a rescaling.  Both sign
    choices for the abstract generator are admitted.  Returns
    (ok, detail, diagonal) with the certified scaling.
    """
    Falt, mapdeg = implicitize(rec.alt.curve)
    if Falt.total_degree() != 6 or mapdeg != 1:
        return False, "alternative parametrization degree %d" % Falt.total_degree(), None
    E = rec.field          # tower: Q(first generator) with a quadratic on top
    A = rec.alt.field
    down = {e: E.descend(c) for e, c in F.terms.items()}
    if any(c is None for c in down.values()):
        return False, "implicit equation does not descend to F", None
    # each coefficient as a rational polynomial in the first generator
    polys = {e: UniPoly(QQ, E.base.coords(c)).map_field(A)
             for e, c in down.items()}
    img_elem = rec.alt.first_generator_image.eval(A.gen)
    for flip in (False, True):
        use = A.neg(img_elem) if flip else img_elem
        mapped = TriPoly(A, {e: p.eval(use) for e, p in polys.items()})
        unit = Falt.scalar_multiple_of(mapped)
        if unit is not None:
            return True, "unit %s (generator sign %s)" % (
                A.to_str(unit), "-" if flip else "+"
            ), (A.one, A.one, A.one)
        rel = _diagonal_relation(A, mapped, Falt)
        if rel is not None:
            u, l1, l2 = rel
            return True, (
                "equal after the diagonal substitution (X, Y, Z) -> "
                "(%s * X, %s * Y, Z), unit %s (generator sign %s)"
                % (A.to_str(l1), A.to_str(l2), A.to_str(u),
                   "-" if flip else "+")
            ), (l1, l2, A.one)
    return False, "no generator image matches", None


def _diagonal_relation(A, mapped, target):
    """Find u, l1, l2 with target == u * mapped(l1 X, l2 Y, Z), or None."""
    if set(mapped.terms) != set(target.terms):
        return None
    try:
        e0 = next(e for e in mapped.terms if e[0] == 0 and e[1] == 0)
        ex = next(e for e in mapped.terms if e[0] == 1 and e[1] == 0)
        ey = next(e for e in mapped.terms if e[0] == 0 and e[1] == 1)
    except StopIteration:
        return None
    u = A.div(target.terms[e0], mapped.terms[e0])
    l1 = A.div(A.div(target.terms[ex], mapped.terms[ex]), u)
    l2 = A.div(A.div(target.terms[ey], mapped.terms[ey]), u)
    for e, c in mapped.terms.items():
        pred = A.mul(u, A.mul(field_pow(A, l1, e[0]), field_pow(A, l2, e[1])))
        if not A.eq(A.mul(pred, c), target.terms[e]):
            return None
    return u, l1, l2
