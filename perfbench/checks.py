"""Output checks, run outside the timed region.

Each check recomputes what it can without the code path under test:
Chern classes by expanding prod(1 + w.x), the finiteness of a Chern ring
from the weights alone, Betti tables of the presets in closed form, and
ideal certificates by re-expanding the cofactors.  Freeness verdicts are
checked against direct fixed-point evaluation and the brute-force oracle,
which shares no code with the lattice search.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import prod
from pathlib import Path

from workloads import ideal_sides

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Exhaustive oracle order for rank <= 2 verdicts.
ORACLE_ORDER = 12


def canonical(text):
    """Canonical form of a JSON output, independent of whitespace."""
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


def output_digest(text):
    return hashlib.sha256(canonical(text).encode()).hexdigest()


def load_digests(workload):
    if not DIGESTS.exists():
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {})


# ---------------------------------------------------------------------------
# small polynomial arithmetic on {exponent tuple: Fraction}
# ---------------------------------------------------------------------------


def _poly(obj):
    return {tuple(t["exps"]): Fraction(t["coeff"]) for t in obj}


def _mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def chern_classes(weights):
    """[c_0, c_1, ...] of a weight multiset, by expanding prod(1 + w.x)."""
    rank = len(weights[0])
    total = {(0,) * rank: Fraction(1)}
    for w in weights:
        factor = {(0,) * rank: Fraction(1)}
        for i, x in enumerate(w):
            if x:
                factor[tuple(int(i == k) for k in range(rank))] = Fraction(x)
        total = _mul(total, factor)
    by_degree = [dict() for _ in range(len(weights) + 1)]
    for m, c in total.items():
        by_degree[sum(m)][m] = c
    return by_degree


def chern_ring_finite(left, right, nrels):
    """Whether Q[x]/(c_j(L) - c_j(R)) is finite-dimensional, from the weights.

    The ideal vanishes exactly where the two eigenvalue multisets agree,
    a union of rational subspaces.  Fewer relations than variables always
    leave a positive-dimensional zero set.  At rank 2 a nonzero common zero
    lies on a line killed by some difference l - r, so it suffices to test
    those lines.  Returns None where no prediction is made.
    """
    rank = len(left[0])
    if sorted(map(tuple, left)) == sorted(map(tuple, right)) or nrels < rank:
        return False
    if rank != 2:
        return None
    for l in left:
        for r in right:
            d = (l[0] - r[0], l[1] - r[1])
            if d == (0, 0):
                continue
            x = (-d[1], d[0])
            if sorted(w[0] * x[0] + w[1] * x[1] for w in left) == \
                    sorted(w[0] * x[0] + w[1] * x[1] for w in right):
                return False
    return True


def preset_betti(name, n):
    """Closed-form Betti tables of the connected-sum presets."""
    if name == "cp-sum":        # CP^n # CP^n
        top, step = 2 * n, 2
    elif name == "hp-sum":      # HP^n # HP^n
        top, step = 4 * n, 4
    else:                       # CP^(4e+2) # HP^(2e+1)
        top, step = 8 * n + 4, 2
    b = [0] * (top + 1)
    for d in range(0, top + 1, step):
        if name == "cp-hp-sum":
            b[d] = 1 + (d % 4 == 0)
        else:
            b[d] = 2
    b[0] = b[top] = 1
    return b


# ---------------------------------------------------------------------------
# per-family checks; each returns a list of problems
# ---------------------------------------------------------------------------


def _check_action(api, job, obj):
    fr = api.freeness
    action = fr.action_from_obj(job.spec["action"])
    problems = []
    if obj["verdict"] == "not_free":
        w = obj["witness"]
        t = fr.TorusElement(tuple(Fraction(c) for c in w["coords"]))
        if t.order != w["order"]:
            problems.append("witness order %d != %d" % (w["order"], t.order))
        if not fr.has_fixed_point(action, t):
            problems.append("witness %s has no fixed point" % (t,))
        if fr.acts_trivially(action, t):
            problems.append("witness %s acts trivially" % (t,))
        if action.rank <= 2 and t.order <= ORACLE_ORDER:
            brute = fr.brute_force_free(action, t.order)
            if not brute.found_witness or brute.witness_order != t.order:
                problems.append("oracle finds no witness of order %d"
                                % t.order)
    elif action.rank <= 2:
        brute = fr.brute_force_free(action, ORACLE_ORDER)
        if brute.found_witness:
            problems.append("Free, but the oracle finds %s"
                            % (brute.witness,))
    return problems


def _regular_sequence(obj):
    """Total-rank and symmetry checks for a finite complete intersection."""
    betti = obj["betti"]
    gens = [g["degree"] for g in obj["generators"]]
    if not obj["finite_dimensional"] or len(obj["relations"]) != len(gens):
        return []
    rel_degrees = [sum(e * d for e, d in zip(r[0]["exps"], gens))
                   for r in obj["relations"]]
    expected = Fraction(prod(rel_degrees), prod(gens))
    problems = []
    if sum(betti) != expected:
        problems.append("total rank %d != %s" % (sum(betti), expected))
    if betti != betti[::-1]:
        problems.append("Betti table %s is not Poincare-symmetric" % betti)
    return problems


def _check_ring(api, job, obj):
    problems = _regular_sequence(obj)
    left, right = job.spec.get("left"), job.spec.get("right")
    if left is None:
        return problems
    cl, cr = chern_classes(left), chern_classes(right)
    want = [_add(cl[j], cr[j], -1) for j in range(2, len(left) + 1)]
    want = [p for p in want if p]
    got = [_poly(r) for r in obj["relations"]]
    if got != want:
        problems.append("relations are not c_j(L) - c_j(R)")
    finite = chern_ring_finite(left, right, len(want))
    if finite is not None and finite != obj["finite_dimensional"]:
        problems.append("finite_dimensional should be %s" % finite)
    return problems


def _check_preset(api, job, obj):
    problems = _regular_sequence(obj)
    want = preset_betti(job.spec["preset"], job.spec["n"])
    if obj["betti"] != want:
        problems.append("Betti table differs from the closed form")
    return problems


def _check_ideal(api, job, obj):
    if not (obj["holds"] and obj["integral"]):
        return ["identity not certified integrally"]
    q, lhs, rhs = ideal_sides(api, *job.argv)
    total = {}
    for cof, rel in zip(obj["cofactors"], q.relations):
        if any(Fraction(t["coeff"]).denominator != 1 for t in cof):
            return ["non-integral cofactor"]
        total = _add(total, _mul(_poly(cof), _poly(rel.to_obj())))
    if total != _add(_poly(lhs.to_obj()), _poly(rhs.to_obj()), -1):
        return ["cofactors do not re-expand to lhs - rhs"]
    return []


def _check_paper(api, job, obj):
    spec = job.spec
    if "index" in spec and obj["index"] != spec["index"]:
        return ["index %s != %d" % (obj["index"], spec["index"])]
    if "pi3" in spec and obj["pi3"]["invariant_factors"] != spec["pi3"]:
        return ["pi3 %s" % obj["pi3"]["name"]]
    if spec.get("verify") and obj["passed"] != obj["total"]:
        return ["verify-paper passed %d / %d" % (obj["passed"], obj["total"])]
    return []


CHECKS = {"action": _check_action, "ring": _check_ring,
          "preset": _check_preset, "ideal": _check_ideal,
          "paper": _check_paper}


def check_job(api, job, code, text, digests):
    """Problems with one job's result; an empty list means it passed."""
    if code != 0:
        return ["exit code %d" % code]
    try:
        problems = CHECKS[job.family](api, job, json.loads(text))
    except (KeyError, TypeError, ValueError) as exc:
        return ["malformed output: %r" % (exc,)]
    stored = digests.get(job.id)
    if stored and stored[0] == job.input_digest() \
            and stored[1] != output_digest(text):
        problems.append("output digest differs from the recorded one")
    return problems
