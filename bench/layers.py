"""Per-layer metrics read from the span tree of a traced round.

A time is the self time summed over a function's spans; a count is a number
of calls.  A workload that never reaches a layer would leave that layer's
metrics at zero, so the traced run ends with `probe`: a fixed small call
into each layer the workload does not reach (README.md lists them).
"""

TIMES = {
    "database.load_corpus_s": "database.load_corpus",
    "database.cross_check_record_s": "database.cross_check_record",
    "singularity.certify_s": "singularity.certify",
    "singularity.two_branch_type_s": "singularity.two_branch_type",
    "singularity.branch_type_at_s": "singularity.branch_type_at",
    "singularity.claimed_points_distinct_s":
        "singularity.claimed_points_distinct",
    "series.mul_s": "series.mul",
    "series.compose_s": "series.compose",
    "series.reversion_s": "series.reversion",
    "series.invert_unit_s": "series.invert_unit",
    "numberfield.adjoin_root_s": "numberfield.adjoin_root",
    "numberfield.field_sqrt_s": "numberfield.field_sqrt",
    "polynomial.resultant_s": "polynomial.resultant",
    "polynomial.poly_gcd_s": "polynomial.poly_gcd",
    "polynomial.lagrange_interpolate_s": "polynomial.lagrange_interpolate",
    "polynomial.squarefree_decomposition_s":
        "polynomial.squarefree_decomposition",
    "curve.implicitize_s": "curve.implicitize",
    "curve.dual_s": "curve.dual",
    "curve.verify_symmetry_s": "curve.verify_symmetry",
    "conic.pencil_reduce_s": "conic.pencil_reduce",
    "conic.conic_solvable_over_q_s": "conic.conic_solvable_over_q",
    "conic.hilbert_symbol_s": "conic.hilbert_symbol",
    "autodual.dual_degree_law_s": "autodual.dual_degree_law",
    "autodual.certify_autodual_s": "autodual.certify_autodual",
}


def layer_metrics(tracer):
    """{name: (value, unit)} for every span-tree metric."""
    out = {name: (tracer.self_time(span), "s")
           for name, span in TIMES.items()}
    out["cli.corpus_loads"] = (
        tracer.calls("database.load_corpus", under="cli.main"), "count")
    out["cli.verify_overhead_s"] = (
        tracer.total("cli.main")
        - tracer.total("singularity.certify", under="cli.main"), "s")
    claims = tracer.calls("singularity.verify_claim")
    passes = tracer.calls("singularity.pass", under="singularity.verify_claim")
    out["singularity.passes_per_claim"] = (passes / claims, "passes/claim")
    out["series.mul_calls"] = (tracer.calls("series.mul"), "count")
    out["numberfield.ext_mul_calls"] = (
        tracer.counts["numberfield.ext_mul"], "count")
    return out


# Layers each workload leaves unreached, and the probe calls that reach them.
UNREACHED = {
    "corpus": ("global",),
    "refute": ("cli", "global"),
    "global-certs": ("cli",),
}


def probe(workload):
    import io
    from contextlib import redirect_stdout

    from sextic19 import autodual, cli, conic, curve, database

    if "cli" in UNREACHED[workload]:
        with redirect_stdout(io.StringIO()):
            if cli.main(["--json", "--jobs", "1", "verify", "33"]) != 0:
                raise RuntimeError("probe: verify 33 failed")
    if "global" in UNREACHED[workload]:
        by_id = {r.id: r for r in database.load_corpus()}
        ok = [
            database.cross_check_record(by_id[3])["ok"],
            autodual.dual_degree_law(by_id[33]) == (5, 5),
            # curve 33's dual is a quintic, so this returns at its first test
            not autodual.certify_autodual(by_id[33])["ok"],
            curve.verify_symmetry(by_id[3].curve, *by_id[3].symmetry),
            conic.conic_solvable_over_q(6, 5).verdict == "unsolvable",
        ]
        rec = by_id[36]
        fld = rec.pencil.g0[0].field
        red = conic.pencil_reduce(rec.printed_implicit.map_field(fld),
                                  rec.pencil, fld)
        ok.append(red.solvability.verdict == "unsolvable")
        if not all(ok):
            raise RuntimeError("probe: a layer call gave a wrong answer")
