"""Benchmark of the sextic19 certifier.

    python3 bench/run.py --workload corpus|refute|global-certs \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
`src/` of that checkout and timed only through its CLI and its public
library functions.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, measured with tracing off; with --trace 1 they are
the per-layer ones of a traced round plus the kernel micro-timings.  A
stamped copy of the result is written to bench/out/.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
SETUP_CODE = ("import sextic19.database as d; "
              "assert len(d.load_corpus()) == 39")


def fatal(text):
    print("bench: %s" % text, file=sys.stderr)
    sys.exit(2)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "sextic19", "__init__.py")):
        fatal("no sextic19 package under %s; run from a source checkout"
              % ROOT)
    sys.path.insert(0, SRC)
    import sextic19

    if not os.path.abspath(sextic19.__file__).startswith(SRC + os.sep):
        fatal("sextic19 was imported from %s, not %s"
              % (sextic19.__file__, SRC))


def setup_seconds():
    """Median wall time of a fresh process that imports sextic19 and loads
    the schema-validated corpus."""
    from workloads import program_env, run_child

    env = program_env(ROOT)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        code, _out = run_child([sys.executable, "-c", SETUP_CODE], env, ROOT)
        times.append(time.perf_counter() - t0)
        if code != 0:
            fatal("set-up process exited %s" % code)
    return statistics.median(times)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def commit_id():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rounds(workload, rng, seconds):
    """Whole rounds until another round would end after `seconds`."""
    from sextic19.database import load_corpus

    rounds, lengths = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rnd = workload.run_round(rng, load_corpus(), traced=False)
        rnd.run_checks()
        rounds.append(rnd)
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return rounds


def end_to_end(workload, rng, seconds):
    setup = setup_seconds()
    rounds = run_rounds(workload, rng, seconds)

    def med(values):
        return statistics.median(values)

    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (med([r.wall for r in rounds]), "s"),
        "cpu_s": (med([r.cpu for r in rounds]), "s"),
        "slowest_item_s": (med([r.slowest for r in rounds]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return rounds, metrics


def traced(workload, rng, seed):
    import layers
    import micro
    from spans import Tracer

    from sextic19.database import load_corpus

    tracer = Tracer()
    tracer.patch()
    try:
        t0 = time.perf_counter()
        rnd = workload.run_round(rng, load_corpus(), traced=True)
        traced_wall = time.perf_counter() - t0
        layers.probe(workload.name)
    finally:
        tracer.unpatch()
    rnd.run_checks()
    metrics = layers.layer_metrics(tracer)
    metrics.update({k: (v, "us") for k, v in micro.run_micro(seed).items()})
    return [rnd], metrics, {"traced_round_s": traced_wall,
                            "span_tree": tracer.to_json()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "refute", "global-certs"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    import_program()
    sys.path.insert(0, BENCH)
    import checks
    import workloads
    from sextic19.database import load_corpus
    from sextic19.rationals import HAVE_GMPY2

    try:
        checks.selfcheck({r.id: r for r in load_corpus()})
    except checks.CheckerError as exc:
        fatal(str(exc))

    rng = random.Random(args.seed)
    workload = workloads.WORKLOADS[args.workload](ROOT)
    extra = {}
    if args.trace:
        rounds, metrics, extra = traced(workload, rng, args.seed)
    else:
        rounds, metrics = end_to_end(workload, rng, args.seconds)

    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print("bench: wrong output: %s" % p, file=sys.stderr)
    faults = {}
    for r in rounds:
        for k, v in r.faults.items():
            faults[k] = faults.get(k, 0) + v
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    stamp = dict(result, workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace,
                 rounds=[{"wall_s": r.wall, "cpu_s": r.cpu,
                          "slowest_item_s": r.slowest} for r in rounds],
                 faults=faults, problems=problems, nproc=os.cpu_count(),
                 python=platform.python_version(), have_gmpy2=HAVE_GMPY2,
                 commit=commit_id(), **extra)
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(stamp, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
