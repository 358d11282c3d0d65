"""Per-curve stage table: every corpus certificate run serially, with the
time of each claim's classifier, of point distinctness and of
implicitization.  Prints a Markdown table (about three minutes without
gmpy2).

    python3 bench/stages.py [curve ids...]
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from spans import Tracer  # noqa: E402

from sextic19 import singularity  # noqa: E402
from sextic19.database import load_corpus  # noqa: E402


def main(argv):
    recs = load_corpus()
    ids = [int(a) for a in argv] or [r.id for r in recs]
    print("| curve | field degree | certify s | classifier s per claim "
          "| distinct s | implicit s |")
    print("|---|---|---|---|---|---|")
    total = 0.0
    for rid in ids:
        rec = recs[rid - 1]
        claim_times = []
        verify_claim = singularity.verify_claim

        def timed_claim(curve, claim):
            t0 = time.perf_counter()
            try:
                return verify_claim(curve, claim)
            finally:
                claim_times.append((claim.stype.n,
                                    time.perf_counter() - t0))

        tracer = Tracer()
        tracer.patch()
        singularity.verify_claim = timed_claim
        try:
            t0 = time.perf_counter()
            cert = singularity.certify(rec.curve, rec.claims,
                                       curve_id=rec.id)
            wall = time.perf_counter() - t0
        finally:
            singularity.verify_claim = verify_claim
            tracer.unpatch()
        total += wall
        print("| %d | %d | %.2f | %s | %.2f | %.2f |%s" % (
            rec.id, rec.field.degree_over_q, wall,
            ", ".join("A_%d: %.2f" % c for c in claim_times),
            tracer.total("singularity.claimed_points_distinct"),
            tracer.total("curve.implicitize"),
            "" if cert.passed else " FAIL"))
    print("\nserial certify total %.1f s" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
