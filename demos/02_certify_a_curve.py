"""Certifying the singularity claims of one curve, step by step.

The A_10 + A_4 + A_3 + A_2 curve (record 25) is rational over Q, so every
computation below happens in exact rational arithmetic.  The per-claim
classifiers work on truncated power-series expansions of the
parametrization around the claimed parameters, its germs there; the
certificate then closes the global budget: a birational rational sextic
has total delta exactly ten, so when the claimed delta invariants already
reach ten at pairwise disjoint parameters, the claimed points are distinct
and no unclaimed singularity can exist.
"""

import json

from sextic19.database import load_corpus
from sextic19.singularity import branch_type_at, certify, two_branch_type

rec = load_corpus()[24]
curve = rec.curve
print(rec.describe())

# one-branch types at the germs of the claimed parameters
f = curve.field
print("\nbranch at t = 0:      ", branch_type_at(curve, curve.germ(f.zero)))
print("branch at t = 4:      ",
      branch_type_at(curve, curve.germ(f.from_int(4))))
print("branch at t = infinity:", branch_type_at(curve, curve.germ("inf")))

# the two roots of p carry the unique two-branch point
work, roots = rec.odd_claim.location.resolve(curve)
print("two branches at roots of %s: %s"
      % (rec.p.to_str(),
         two_branch_type(work, [work.germ(t) for t in roots])))

# the full certificate
cert = certify(curve, rec.claims, curve_id=rec.id)
print("\ncertificate passed:", cert.passed)
print(json.dumps(cert.to_dict()["checks"], indent=2, sort_keys=True))

# negative control: swapping two locations must break the certificate
from sextic19.curve import ParameterLocation
from sextic19.singularity import SingularityClaim, SingularityType

swapped = [
    rec.odd_claim,
    SingularityClaim(SingularityType(10), ParameterLocation.at_infinity()),
    SingularityClaim(SingularityType(2),
                     ParameterLocation.at_value(curve.field.zero)),
    SingularityClaim(SingularityType(4),
                     ParameterLocation.at_value(curve.field.from_int(4))),
]
bad = certify(curve, swapped, curve_id=rec.id)
print("\nswapped-locations control passes:", bad.passed)
for v in bad.verdicts:
    if not v.ok:
        print("  mismatch:", v.to_dict()["claimed"], "claimed at",
              v.where, "but computed", v.to_dict()["computed"])
