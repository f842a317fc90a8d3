"""Spans around the calls into biquot's modules, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
biquot module that binds it, so calls made through a by-name import (for
example ``cli.is_free`` or ``cohomology.groebner_basis``) are recorded too;
``restore`` puts the originals back.  A span is (name, parent, start, end)
in four flat arrays; self time is a span's duration minus the part its
child spans cover.  Observers record counts from arguments and results at
the same boundary.
"""

from __future__ import annotations

import array
import inspect
import json
import sys
from time import perf_counter

# (metric prefix, module, attribute path)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("freeness.is_free", "freeness", "is_free"),
    ("freeness.brute_force_free", "freeness", "brute_force_free"),
    ("lattices.hnf", "lattices", "hnf"),
    ("lattices.contains", "lattices", "LatticeSubgroup.contains"),
    ("lattices.smith_normal_form", "lattices", "smith_normal_form"),
    ("polyring.groebner_basis", "polyring", "groebner_basis"),
    ("polyring.reduce_poly", "polyring", "reduce_poly"),
    ("cohomology.GradedQuotient.init", "cohomology",
     "GradedQuotient.__init__"),
    ("cohomology.GradedQuotient.betti", "cohomology", "GradedQuotient.betti"),
    ("cohomology.GradedQuotient.top_degree", "cohomology",
     "GradedQuotient.top_degree"),
    ("cohomology.ideal_identities", "cohomology", "ideal_identities"),
    ("cohomology.pi3_cokernel", "cohomology", "pi3_cokernel"),
    ("classifier.rhs_search", "classifier", "rhs_search"),
    ("classifier.rank1_two_sided_search", "classifier",
     "rank1_two_sided_search"),
    ("classifier.sp4_su2squared_search", "classifier",
     "sp4_su2squared_search"),
    ("refchecks.run_all", "refchecks", "run_all"),
    ("weights.chern_pullback", "weights", "chern_pullback"),
    ("weights.euler_class", "weights", "euler_class"),
)


def jordan_totient(q, rank):
    """Number of elements of exact order q in (Z/q)^rank."""
    out = q ** rank
    p, m = 2, q
    while p * p <= m:
        if m % p == 0:
            out = out // p ** rank * (p ** rank - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out = out // m ** rank * (m ** rank - 1)
    return out


class Counts:
    """Counts taken from arguments and results at the traced boundaries."""

    OBSERVED = frozenset((
        "freeness.is_free", "freeness.brute_force_free", "lattices.hnf",
        "lattices.contains", "polyring.groebner_basis",
        "polyring.reduce_poly"))

    def __init__(self):
        self.free = 0
        self.hnf_outputs = set()
        self.contains_true = 0
        self.gb_out_len = 0
        self.reduce_zero = 0
        self.oracle_elements = 0

    def observe(self, name, bound, result):
        if name == "freeness.is_free":
            self.free += result.free
        elif name == "lattices.hnf":
            self.hnf_outputs.add(tuple(result))
        elif name == "lattices.contains":
            self.contains_true += bool(result)
        elif name == "polyring.groebner_basis":
            self.gb_out_len += len(result)
        elif name == "polyring.reduce_poly":
            rem = result[0] if isinstance(result, tuple) else result
            self.reduce_zero += rem.is_zero()
        elif name == "freeness.brute_force_free":
            self.oracle_elements += oracle_elements(bound(), result)


def oracle_elements(args, verdict):
    """Torus elements the oracle evaluated, computed from its arguments.

    Exhaustive runs walk every element of exact order 2..stop, where stop
    is the witness order or max_order; sampled runs draw ``samples``
    elements when they find no witness, and this counts the same number
    (an upper bound) when they do.
    """
    rank = args["action"].rank
    if not verdict.exhaustive:
        return args["samples"]
    stop = (verdict.witness_order if verdict.found_witness
            else args["max_order"])
    return sum(jordan_totient(q, rank) for q in range(2, stop + 1))


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counts = Counts()
        self.labels = {}        # span id -> job id, for the root spans
        self._patched = []

    def _id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def begin(self, name, label=None):
        sid = len(self.start)
        if label is not None:
            self.labels[sid] = label
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid):
        self.end[sid] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        tracer = self
        observed = name in Counts.OBSERVED
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(sid)
            if observed:
                def bound():
                    b = sig.bind(*args, **kwargs)
                    b.apply_defaults()
                    return b.arguments
                tracer.counts.observe(name, bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package="biquot"):
        """Patch every binding of each target in the package's modules."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == package or k.startswith(package + "."))
                   and m is not None]
        for name, mod, path in TARGETS:
            owner = sys.modules["%s.%s" % (package, mod)]
            attrs = path.split(".")
            for a in attrs[:-1]:
                owner = getattr(owner, a)
            original = owner.__dict__[attrs[-1]]
            wrapper = self.wrap(name, original)
            if len(attrs) > 1:  # a method: its class is the only binding
                self._patch(owner, attrs[-1], wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self):
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched = []

    # -- analysis -----------------------------------------------------------

    def summary(self):
        """{name: [calls, total_s, self_s]} over all recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out

    def calls_by_label(self, name):
        """{label of the root span: number of `name` spans beneath it}."""
        target = self.name_ids.get(name)
        root = []
        out = {}
        for i in range(len(self.start)):
            p = self.parent[i]
            root.append(i if p < 0 else root[p])
            if self.name[i] == target:
                label = self.labels.get(root[i])
                out[label] = out.get(label, 0) + 1
        return out

    def write(self, path):
        """Header line of JSON, then the four arrays as raw machine values."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": [["name", "i"], ["parent", "i"],
                                 ["start", "d"], ["end", "d"]],
                      "byteorder": sys.byteorder}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def layer_metrics(summary, counts, wall_traced, wall_untraced):
    """The per-layer metrics of BENCHMARK.json, from one traced pass."""
    def calls(name):
        return summary.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return summary.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return summary.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["freeness.is_free.calls"] = calls("freeness.is_free")
    m["freeness.is_free.self_s"] = self_s("freeness.is_free")
    m["freeness.is_free.total_s"] = total("freeness.is_free")
    m["freeness.free_frac"] = ratio(counts.free, calls("freeness.is_free"))
    m["freeness.brute_force_free.calls"] = calls("freeness.brute_force_free")
    m["freeness.brute_force_free.total_s"] = total("freeness.brute_force_free")
    m["freeness.oracle.elements"] = counts.oracle_elements
    m["freeness.oracle.elements_per_s"] = ratio(
        counts.oracle_elements, total("freeness.brute_force_free"))
    m["lattices.hnf.calls"] = calls("lattices.hnf")
    m["lattices.hnf.self_s"] = self_s("lattices.hnf")
    m["lattices.hnf.distinct_frac"] = ratio(len(counts.hnf_outputs),
                                            calls("lattices.hnf"))
    m["lattices.hnf.calls_per_is_free"] = ratio(calls("lattices.hnf"),
                                                calls("freeness.is_free"))
    m["lattices.contains.calls"] = calls("lattices.contains")
    m["lattices.contains.true_frac"] = ratio(counts.contains_true,
                                             calls("lattices.contains"))
    m["lattices.smith_normal_form.calls"] = calls("lattices.smith_normal_form")
    m["lattices.smith_normal_form.self_s"] = self_s(
        "lattices.smith_normal_form")
    m["polyring.groebner_basis.calls"] = calls("polyring.groebner_basis")
    m["polyring.groebner_basis.self_s"] = self_s("polyring.groebner_basis")
    m["polyring.groebner_basis.total_s"] = total("polyring.groebner_basis")
    m["polyring.groebner_basis.out_len"] = counts.gb_out_len
    m["polyring.reduce_poly.calls"] = calls("polyring.reduce_poly")
    m["polyring.reduce_poly.self_s"] = self_s("polyring.reduce_poly")
    m["polyring.reduce_poly.zero_frac"] = ratio(counts.reduce_zero,
                                                calls("polyring.reduce_poly"))
    m["cohomology.GradedQuotient.init.total_s"] = total(
        "cohomology.GradedQuotient.init")
    m["cohomology.GradedQuotient.betti.self_s"] = self_s(
        "cohomology.GradedQuotient.betti")
    m["cohomology.GradedQuotient.top_degree.self_s"] = self_s(
        "cohomology.GradedQuotient.top_degree")
    m["cohomology.ideal_identities.calls"] = calls(
        "cohomology.ideal_identities")
    m["cohomology.ideal_identities.self_s"] = self_s(
        "cohomology.ideal_identities")
    m["cohomology.pi3_cokernel.calls"] = calls("cohomology.pi3_cokernel")
    for name in ("classifier.rhs_search", "classifier.rank1_two_sided_search",
                 "classifier.sp4_su2squared_search", "refchecks.run_all",
                 "weights.chern_pullback", "weights.euler_class"):
        m[name + ".total_s"] = total(name)
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    m["trace.overhead_frac"] = wall_traced / wall_untraced - 1
    return m
