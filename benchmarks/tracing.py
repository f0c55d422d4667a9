"""Layer tracing from outside the library.

`Tracer.install` replaces module attributes with wrappers that record a
span (name, start, end, parent, job) per call and bump counters.  Each
wrapper sits on the module whose globals the callers resolve: a name
bound by `from .lattice import f` is wrapped on the importing module.
Hot functions are counted without spans.  Spans stay in memory until
`write_spans`; `uninstall` restores the original attributes.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


def _len(key):
    return lambda out: {key: len(out)}


def _quadric(points):
    return {"empty": int(not points), "points": len(points)}


# (owner path, attribute, layer name, counter of the result)
SPANS = [
    ("linalg", "quadric_integer_points", "linalg.quadric_integer_points", _quadric),
    ("linalg", "row_kernel_transform", "linalg.row_kernel_transform", None),
    ("linalg", "solve", "linalg.solve", None),
    ("vinberg", "run", "vinberg.run", lambda rep: {"accepted": len(rep.accepted)}),
    ("vinberg", "gram_bound_check", "vinberg.gram_bound_check", None),
    ("cones", "is_arithmetic_type", "cones.is_arithmetic_type",
     lambda rep: {"rays": len(rep.cone.rays)}),
    ("cones", "k_element_tuples", "cones.k_element_tuples", _len("tuples")),
    ("kacmoody", "root_datum", "kacmoody.root_datum", None),
    ("kacmoody", "weyl_elements", "kacmoody.weyl_elements", _len("elements")),
    ("kacmoody", "real_root_tuples", "kacmoody.real_root_tuples", None),
    ("kacmoody", "imaginary_candidate_tuples", "kacmoody.imaginary_candidate_tuples", None),
    ("kacmoody", "solve_multiplicities", "kacmoody.solve_multiplicities",
     lambda res: {"mults": len(res.mults)}),
    ("kacmoody", "anti_invariance_check", "kacmoody.anti_invariance_check", None),
    ("kacmoody.GradedSeries", "binomial_factor", "kacmoody.GradedSeries.binomial_factor", None),
    ("qseries", "eta_power", "qseries.eta_power", None),
    ("qseries", "ramanujan_tau", "qseries.ramanujan_tau", None),
    ("qseries", "cusp_identity", "qseries.cusp_identity", None),
    ("weylstruct", "lattice_weyl_vector", "weylstruct.lattice_weyl_vector", None),
    ("weylstruct", "candidate_roots_for_weyl_vector",
     "weylstruct.candidate_roots_for_weyl_vector", None),
    ("weylstruct", "symmetry_group", "weylstruct.symmetry_group", None),
    ("weylstruct", "build_Pk_sample", "weylstruct.build_Pk_sample", None),
    ("cli", "invariants", "lattice.invariants", None),
    ("weylstruct", "invariants", "lattice.invariants", None),
    ("cli", "main", "cli.main", None),
] + [
    (owner, "is_crystallographic", "lattice.is_crystallographic",
     lambda ok: {"rejected": int(not ok)})
    for owner in ("vinberg", "kacmoody", "weylstruct")
]

GENERATORS = [("vinberg", "candidate_stream", "vinberg.candidate_stream")]

COUNTED = [
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("qseries.PowerSeries", "__mul__", "qseries.PowerSeries.__mul__"),
]


def _resolve(mods, path):
    obj = getattr(mods, path.split(".")[0])
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._saved = []

    # -- span bookkeeping --------------------------------------------------
    def run_job(self, name, call):
        """Run one job under a top-level "job" span; its layers nest inside."""
        self.job = name
        idx = self._enter("job")
        try:
            return call()
        finally:
            self._exit(idx)

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, orig, name, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            idx = self._enter(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._exit(idx)
            if counter is not None:
                for key, value in counter(out).items():
                    counts[f"{name}.{key}"] += value
            return out
        return wrapper

    def _generator_wrapper(self, orig, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            inner = orig(*args, **kwargs)
            while True:
                idx = self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                counts[name + ".yielded"] += 1
                yield item
        return wrapper

    def _count_wrapper(self, orig, name):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _swap(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, mods):
        for path, attr, name, counter in SPANS:
            owner = _resolve(mods, path)
            self._swap(owner, attr, self._span_wrapper(getattr(owner, attr), name, counter))
        for path, attr, name in GENERATORS:
            owner = _resolve(mods, path)
            self._swap(owner, attr, self._generator_wrapper(getattr(owner, attr), name))
        for path, attr, name in COUNTED:
            owner = _resolve(mods, path)
            self._swap(owner, attr, self._count_wrapper(getattr(owner, attr), name))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- reports -----------------------------------------------------------
    def layer_times(self):
        """(busy seconds, self seconds) per layer name.

        Busy time sums a layer's spans; self time subtracts the part of
        each span that its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy, own = defaultdict(float), defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child[idx]
        return busy, own

    def job_seconds(self):
        """Time inside jobs, the slices the host-speed timer ran included."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
