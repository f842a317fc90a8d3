"""Seeded job lists for the three benchmark workloads.

A job is plain data: the argv handed to ``biquot.cli.main`` (always with
``--format json``), or, for ``ideal_identities``, which has no subcommand,
the preset name and parameter of the ring it certifies.  ``spec`` carries
what the output checks need (the action or weights the input was built
from); the program never sees it.

Every workload is a closed loop: one client runs its jobs one after
another, and sends the next job only when the last one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    id: str
    family: str     # the output check: action, ring, preset, ideal, paper
    argv: tuple     # cli argv, or (preset, parameter) for an ideal job
    spec: dict = field(default_factory=dict, compare=False)

    def input_digest(self):
        text = json.dumps([self.id, self.family, list(self.argv)],
                          sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def _cli(*argv):
    return ("--format", "json") + tuple(str(a) for a in argv)


# ---------------------------------------------------------------------------
# freeness-scale
# ---------------------------------------------------------------------------


def su_weights(rng, n, rank, span):
    """n distinct weight vectors summing to zero (a map into SU(n)).

    Distinct weights make every left/right class a singleton, so a group
    factor has exactly n! bijection classes.
    """
    while True:
        ws = set()
        while len(ws) < n - 1:
            ws.add(tuple(rng.randint(-span, span) for _ in range(rank)))
        ws = sorted(ws)
        last = tuple(-sum(w[i] for w in ws) for i in range(rank))
        if last not in ws and max(abs(x) for x in last) <= 2 * span:
            return sorted(ws + [last])


def _group(rng, n, rank):
    return {"type": "group",
            "left": [list(w) for w in su_weights(rng, n, rank, 3)],
            "right": [list(w) for w in su_weights(rng, n, rank, 3)]}


def _sphere(rng, rank):
    ws = set()
    while len(ws) < 3:
        w = tuple(rng.randint(-2, 2) for _ in range(rank))
        if any(w):
            ws.add(w)
    return {"type": "sphere", "weights": [list(w) for w in sorted(ws)]}


# (family label, rank, sizes of the SU(n) group factors, jobs per pass)
FREENESS_MIX = (
    ("su-r2", 2, (6,), 4), ("su-r2", 2, (7,), 2), ("su-r2", 2, (8,), 1),
    ("su-r3", 3, (5,), 4), ("su-r3", 3, (6,), 2), ("su-r3", 3, (7,), 1),
    ("su2x-sphere", 2, (4, 4), 2), ("su2x-sphere", 2, (4, 5), 2),
    ("su2x-sphere", 2, (5, 4), 2), ("su2x-sphere", 2, (5, 5), 2),
    ("su2x-sphere", 2, (4, 6), 2), ("su2x-sphere", 2, (6, 4), 2),
)


def signed_permutation(rng, rank):
    """A random signed permutation of the torus coordinates, as a map on
    weight vectors.  It is an automorphism of Z^rank that keeps every
    entry's size, so verdicts, witness orders and the choices the search
    visits are unchanged."""
    perm = list(range(rank))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(rank)]
    return lambda w: [signs[i] * w[perm[i]] for i in range(rank)]


def present_action(rng, action):
    """The action in random coordinates, each group factor's sides in a
    random order (fixed points need equal eigenvalue multisets, which is
    symmetric in the two sides)."""
    t = signed_permutation(rng, action["rank"])
    factors = []
    for f in action["factors"]:
        if f["type"] == "group":
            left = sorted(t(w) for w in f["left"])
            right = sorted(t(w) for w in f["right"])
            if rng.random() < 0.5:
                left, right = right, left
            factors.append({"type": "group", "left": left, "right": right})
        else:
            factors.append({"type": "sphere",
                            "weights": sorted(t(w) for w in f["weights"])})
    return {"rank": action["rank"], "factors": factors}


def freeness_scale_jobs(seed, api):
    """The structures come from one fixed draw; the seed picks coordinates,
    sides and order.  Search cost varies several-fold between draws of the
    same size (pruning depth, number of violating lattices), which would
    swamp the spread of any timing across seeds."""
    pool = random.Random("freeness-scale-pool")
    rng = random.Random("freeness-scale:%d" % seed)
    jobs = []
    for label, rank, sizes, count in FREENESS_MIX:
        for k in range(count):
            factors = [_group(pool, n, rank) for n in sizes]
            if len(sizes) > 1:
                factors.append(_sphere(pool, rank))
            action = present_action(rng, {"rank": rank, "factors": factors})
            jid = "%s-%s-%d" % (label, "x".join(map(str, sizes)), k)
            jobs.append(Job(jid, "action",
                            _cli("free-check", "--json",
                                 json.dumps(action, sort_keys=True)),
                            {"action": action}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# paper
# ---------------------------------------------------------------------------


def _demo(name):
    """A bundled demo file, relative to the checkout root (the working
    directory of every run), so that job inputs do not depend on where the
    checkout lives."""
    return "demos/" + name


def paper_jobs(seed, api):
    """README's "Command line" section on the bundled demo inputs, the other
    bundled action files, and verify-paper.  The traffic is fixed; the seed
    only orders it."""
    cons = api.constructions
    actions = {}
    for name in ("g2_pair_3_28.json", "gromoll_meyer.json",
                 "torus_on_s3_x_s7.json"):
        with open(ROOT / _demo("actions/" + name)) as fh:
            actions[name] = json.load(fh)
    with open(ROOT / _demo("rings/cp3_sum.json")) as fh:
        cp3 = json.load(fh)
    jobs = [
        Job("catalog", "paper", _cli("catalog", "--max-g-dimension", 150)),
        Job("index-sp4-s3v", "paper",
            _cli("index", "--target", "Sp4", "--su2-class", "S3V"),
            {"index": 10}),
        Job("index-g2-weights", "paper",
            _cli("index", "--target", "G2", "--weights", "6,4,2,0,-2,-4,-6"),
            {"index": 28}),
        Job("free-check-gromoll-meyer", "action",
            _cli("free-check", "--named", "gromoll-meyer"),
            {"action": cons.gromoll_meyer_action().to_obj()}),
        Job("free-check-g2-oracle-60", "action",
            _cli("free-check", "--input", _demo("actions/g2_pair_3_28.json"),
                 "--oracle", 60),
            {"action": actions["g2_pair_3_28.json"]}),
        Job("free-check-gromoll-meyer-file", "action",
            _cli("free-check", "--input", _demo("actions/gromoll_meyer.json")),
            {"action": actions["gromoll_meyer.json"]}),
        Job("free-check-torus-s3-s7", "action",
            _cli("free-check", "--input",
                 _demo("actions/torus_on_s3_x_s7.json")),
            {"action": actions["torus_on_s3_x_s7.json"]}),
        Job("cohomology-cp-sum-4", "preset",
            _cli("cohomology", "--preset", "cp-sum:4"),
            {"preset": "cp-sum", "n": 4}),
        Job("cohomology-cp3-sum-file", "ring",
            _cli("cohomology", "--input", _demo("rings/cp3_sum.json")),
            {"ring": cp3}),
        Job("pi3-10", "paper", _cli("pi3", "--matrix", "[[10]]"),
            {"pi3": [10]}),
        Job("search-rank1-g2", "paper", _cli("search-rank1", "--group", "G2")),
        Job("search-rhs-16", "paper", _cli("search-rhs", "--max-dim", 16)),
        Job("verify-paper", "paper", _cli("verify-paper"),
            {"verify": True}),
    ]
    random.Random("paper:%d" % seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

# (rank, SU(n)) of the two-sided Chern-class rings c_j(L) - c_j(R), j >= 2.
# Rank-3 rings on SU(4) are left out: their Buchberger time ranges from
# milliseconds to about 30 s with the draw, which no run length can average.
CHERN_MIX = tuple((2, n) for n in range(4, 13)) + ((3, 3),) * 3

# (preset, parameter range) for cohomology --preset
PRESET_MIX = (("cp-sum", 56, 64), ("cp-sum", 24, 32), ("hp-sum", 16, 24),
              ("hp-sum", 8, 12), ("cp-hp-sum", 6, 10))

# (preset, parameter range) for ideal_identities certificates
IDEAL_MIX = (("cp-sum", 16, 32), ("cp-sum", 16, 32),
             ("cp-hp-sum", 2, 6), ("cp-hp-sum", 2, 6))


def chern_ring(api, rank, left, right):
    """Presentation JSON of Q[x]/(c_j(L) - c_j(R) : j = 2..n)."""
    ring = api.cohomology.classifying_ring(["circle"] * rank)
    lrep = api.weights.make_rep(rank, [tuple(w) for w in left])
    rrep = api.weights.make_rep(rank, [tuple(w) for w in right])
    rels = []
    for j in range(2, len(left) + 1):
        rel = (api.weights.chern_pullback(lrep, j, ring)
               - api.weights.chern_pullback(rrep, j, ring))
        if not rel.is_zero():
            rels.append(rel.to_obj())
    return {"generators": [{"name": n, "degree": d}
                           for n, d in zip(ring.names, ring.degrees)],
            "relations": rels}


def rings_jobs(seed, api):
    """As for freeness-scale, the weights and preset sizes are one fixed
    draw; the seed picks which side of each ring is L, and the order.
    Coordinates stay as drawn: Buchberger's cost in the graded order
    changes up to 3.5-fold when the variables are permuted."""
    pool = random.Random("rings-pool")
    rng = random.Random("rings:%d" % seed)
    jobs = []
    for k, (rank, n) in enumerate(CHERN_MIX):
        left = su_weights(pool, n, rank, 3)
        right = su_weights(pool, n, rank, 3)
        if rng.random() < 0.5:
            left, right = right, left
        ring = chern_ring(api, rank, left, right)
        jobs.append(Job("chern-r%d-su%d-%d" % (rank, n, k), "ring",
                        _cli("cohomology", "--json",
                             json.dumps(ring, sort_keys=True)),
                        {"ring": ring, "left": left, "right": right}))
    for k, (name, lo, hi) in enumerate(PRESET_MIX):
        n = pool.randint(lo, hi)
        jobs.append(Job("preset-%s-%d" % (name, k), "preset",
                        _cli("cohomology", "--preset", "%s:%d" % (name, n)),
                        {"preset": name, "n": n}))
    for k, (name, lo, hi) in enumerate(IDEAL_MIX):
        n = pool.randint(lo, hi)
        jobs.append(Job("ideal-%s-%d" % (name, k), "ideal", (name, n)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------


def ideal_sides(api, name, n):
    """The ring and the two sides of the identity certified on it."""
    cons = api.constructions
    if name == "cp-sum":
        q = cons.cp_sum_ring(n)
        u, v = q.ring.gens()
        return q, (u - v) * (u + v) ** (n - 1), u ** n - v ** n
    q = cons.cp_hp_sum_ring(n)
    x, z = q.ring.gens()
    return q, (x * x - z) ** (2 * n + 1), x ** (4 * n + 2) - z ** (2 * n + 1)


def run_job(api, job):
    """Run one job through the public entry point; return (exit code, text)."""
    if job.family == "ideal":
        q, lhs, rhs = ideal_sides(api, *job.argv)
        cert = api.cohomology.ideal_identities(q, lhs, rhs)
        obj = {"holds": cert.holds, "integral": cert.integral,
               "cofactors": [c.to_obj() for c in cert.cofactors]}
        return 0, json.dumps(obj, sort_keys=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.main(list(job.argv))
    return code, buf.getvalue()


_FREE_CHECK = Job("warmup", "action", _cli("free-check", "--named",
                                         "gromoll-meyer"))

# "tail_percentile" is where job_tail_ms reads: a ladder percentile that
# keeps at least 10 samples beyond it at the pass counts a 30 s run makes,
# placed inside a cluster of samples of one job rather than on the edge
# between two (paper: 13 jobs, 20% beyond is mid-way through the third
# slowest).  "exercises" names the per-layer metrics each workload must
# drive above zero in its traced pass; "bypasses" names layers it must
# never call.
WORKLOADS = {
    "freeness-scale": {
        "jobs": freeness_scale_jobs, "warmup": _FREE_CHECK,
        "tail_percentile": 75.0,
        "exercises": ("freeness.is_free.calls", "freeness.is_free.self_s",
                      "freeness.free_frac", "lattices.hnf.calls",
                      "lattices.hnf.self_s", "lattices.contains.calls",
                      "lattices.contains.true_frac",
                      "lattices.smith_normal_form.calls", "cli.main.calls",
                      "cli.main.self_s"),
        "bypasses": ("polyring.groebner_basis.calls",
                     "polyring.reduce_poly.calls",
                     "freeness.brute_force_free.calls")},
    "paper": {
        "jobs": paper_jobs, "warmup": _FREE_CHECK,
        "tail_percentile": 80.0,
        "exercises": ("freeness.is_free.calls", "freeness.free_frac",
                      "freeness.brute_force_free.calls",
                      "freeness.oracle.elements", "lattices.hnf.calls",
                      "lattices.contains.calls",
                      "lattices.smith_normal_form.calls",
                      "polyring.groebner_basis.calls",
                      "polyring.reduce_poly.calls",
                      "cohomology.GradedQuotient.init.total_s",
                      "cohomology.GradedQuotient.betti.self_s",
                      "cohomology.GradedQuotient.top_degree.self_s",
                      "cohomology.ideal_identities.calls",
                      "cohomology.pi3_cokernel.calls",
                      "classifier.rhs_search.total_s",
                      "classifier.rank1_two_sided_search.total_s",
                      "classifier.sp4_su2squared_search.total_s",
                      "refchecks.run_all.total_s", "cli.main.calls",
                      "weights.chern_pullback.total_s",
                      "weights.euler_class.total_s"),
        "bypasses": ()},
    "rings": {
        "jobs": rings_jobs, "tail_percentile": 90.0,
        "warmup": Job("warmup", "preset",
                      _cli("cohomology", "--preset", "cp-sum:4")),
        "exercises": ("polyring.groebner_basis.calls",
                      "polyring.groebner_basis.self_s",
                      "polyring.groebner_basis.out_len",
                      "polyring.reduce_poly.calls",
                      "polyring.reduce_poly.zero_frac",
                      "cohomology.GradedQuotient.init.total_s",
                      "cohomology.GradedQuotient.betti.self_s",
                      "cohomology.GradedQuotient.top_degree.self_s",
                      "cohomology.ideal_identities.calls",
                      "cohomology.ideal_identities.self_s",
                      "weights.chern_pullback.total_s",
                      "weights.euler_class.total_s", "cli.main.calls"),
        "bypasses": ("lattices.hnf.calls", "freeness.is_free.calls",
                     "freeness.brute_force_free.calls")},
}
