"""Per-layer tracing from outside the program.

`Tracer.patch()` replaces the traced functions of `sextic19` with wrappers
that record spans.  A module that did `from .polynomial import resultant`
holds its own reference, so every function is replaced in every `sextic19`
module whose globals name it, not only in the module that defines it.
Methods are replaced on their class.  `unpatch()` puts the originals back.

Spans are aggregated in memory by their path (the chain of traced callers),
so the span tree is kept without storing one record per call.  A span's
self time is its duration minus the durations of its direct traced
children.
"""

import sys
import time

# (module, attribute) of traced functions, and (module, class, method) of
# traced methods, each with the span name used for its metrics.
FUNCTIONS = [
    ("database", "load_corpus", "database.load_corpus"),
    ("database", "cross_check_record", "database.cross_check_record"),
    ("cli", "main", "cli.main"),
    ("cli", "_verify_worker", "cli.verify_worker"),
    ("singularity", "certify", "singularity.certify"),
    ("singularity", "verify_claim", "singularity.verify_claim"),
    ("singularity", "two_branch_type", "singularity.two_branch_type"),
    ("singularity", "branch_type_at", "singularity.branch_type_at"),
    ("singularity", "_two_branch_once", "singularity.pass"),
    ("singularity", "_branch_type_once", "singularity.pass"),
    ("singularity", "claimed_points_distinct",
     "singularity.claimed_points_distinct"),
    ("numberfield", "adjoin_root", "numberfield.adjoin_root"),
    ("numberfield", "field_sqrt", "numberfield.field_sqrt"),
    ("polynomial", "resultant", "polynomial.resultant"),
    ("polynomial", "poly_gcd", "polynomial.poly_gcd"),
    ("polynomial", "lagrange_interpolate", "polynomial.lagrange_interpolate"),
    ("polynomial", "squarefree_decomposition",
     "polynomial.squarefree_decomposition"),
    ("curve", "implicitize", "curve.implicitize"),
    ("curve", "dual", "curve.dual"),
    ("curve", "verify_symmetry", "curve.verify_symmetry"),
    ("conic", "pencil_reduce", "conic.pencil_reduce"),
    ("conic", "conic_solvable_over_q", "conic.conic_solvable_over_q"),
    ("conic", "hilbert_symbol", "conic.hilbert_symbol"),
    ("autodual", "dual_degree_law", "autodual.dual_degree_law"),
    ("autodual", "certify_autodual", "autodual.certify_autodual"),
]
METHODS = [
    ("series", "TruncatedSeries", "__mul__", "series.mul"),
    ("series", "TruncatedSeries", "compose", "series.compose"),
    ("series", "TruncatedSeries", "reversion", "series.reversion"),
    ("series", "TruncatedSeries", "invert_unit", "series.invert_unit"),
]
# Methods called too often for a span: only their calls are counted.
COUNTED = [
    ("numberfield", "ExtensionField", "mul", "numberfield.ext_mul"),
]


def _module(name):
    return sys.modules["sextic19." + name]


class Tracer:
    def __init__(self):
        self.tree = {}      # path -> [calls, total seconds, self seconds]
        self.counts = {}    # counted method name -> calls
        self._stack = []    # [path, seconds of direct children]
        self._undo = []

    def _span(self, name, fn):
        tree, stack, clock = self.tree, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            path = (stack[-1][0] + (name,)) if stack else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = tree.get(path)
                if rec is None:
                    rec = tree[path] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self):
        import sextic19.autodual  # noqa: F401  (load every traced module)
        import sextic19.cli  # noqa: F401
        import sextic19.conic  # noqa: F401

        modules = [m for k, m in sys.modules.items()
                   if k.startswith("sextic19.") and m is not None]
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(_module(mod_name), attr)
            wrapped = self._span(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        for mod_name, cls_name, meth, name in METHODS + COUNTED:
            cls = getattr(_module(mod_name), cls_name)
            orig = cls.__dict__[meth]
            make = self._counter if (mod_name, cls_name, meth, name) in \
                COUNTED else self._span
            setattr(cls, meth, make(name, orig))
            self._undo.append((cls, meth, orig))

    def unpatch(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    # -- reading the span tree

    def calls(self, name, under=None):
        return sum(rec[0] for path, rec in self.tree.items()
                   if path[-1] == name and (under is None or under in path))

    def total(self, name, under=None):
        """Wall time of the outermost spans of `name` (nested recursive
        spans of the same name are not counted twice)."""
        return sum(rec[1] for path, rec in self.tree.items()
                   if path[-1] == name and path.count(name) == 1
                   and (under is None or under in path))

    def self_time(self, name):
        return sum(rec[2] for path, rec in self.tree.items()
                   if path[-1] == name)

    def to_json(self):
        return [{"path": list(path), "calls": rec[0],
                 "total_s": rec[1], "self_s": rec[2]}
                for path, rec in sorted(self.tree.items())]
