"""Command-line interface.

Subcommands: catalog, index, free-check, cohomology, pi3, search-rhs,
search-rank1, verify-paper.  Output is a readable table by default or JSON
with --format json; fractions serialize as "p/q" strings and torus
witnesses as coordinate lists mod 1, so runs compare bit-exactly.

Exit codes: 0 success; 1 malformed input (the message points at the
offending field); 2 internal inconsistency (a reference check or oracle
disagreement).
"""

from __future__ import annotations

import argparse
import json
import sys

from .groups import (Sp, parse_group, homogeneous_catalog,
                     degrees_of, profile)
from .weights import (dynkin_index, su2_rep_from_label, make_rep,
                      is_su2_class)
from .freeness import action_from_obj, is_free, brute_force_free
from .cohomology import GradedQuotient, pi3_cokernel
from .polyring import GradedPolyRing, poly_from_obj
from .classifier import (rank1_two_sided_search, rhs_search,
                         rhs_manifold_classes, sp4_su2squared_search)
from . import constructions as cons
from .refchecks import run_all

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_INCONSISTENT = 2


class SchemaError(ValueError):
    def __init__(self, field, message):
        super().__init__("%s: %s" % (field, message))
        self.field = field


def _emit(args, obj, table_lines):
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _load_json_input(args, field="input"):
    if getattr(args, "input", None):
        try:
            with open(args.input) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(field, str(exc))
    if getattr(args, "json", None):
        try:
            return json.loads(args.json)
        except json.JSONDecodeError as exc:
            raise SchemaError(field, str(exc))
    raise SchemaError(field, "provide --input FILE or --json TEXT")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_catalog(args):
    if args.max_g_dimension < 0:
        raise SchemaError("max-g-dimension", "must be >= 0, got %d"
                          % args.max_g_dimension)
    entries = homogeneous_catalog(args.max_g_dimension)
    obj = {"degrees": {}, "pairs": [e.to_obj() for e in entries]}
    lines = ["degrees:"]
    for fam, lo in (("A", 1), ("B", 3), ("C", 2), ("D", 4)):
        for l in range(lo, 9):
            gid = parse_group("%s%d" % (fam, l))
            obj["degrees"][str(gid)] = list(degrees_of(gid))
        lines.append("  %s_l within rank bounds; sample %s4: %s"
                     % (fam, fam, obj["degrees"].get("%s4" % fam, "-")))
    for name in ("G2", "F4", "E6", "E7", "E8"):
        gid = parse_group(name)
        obj["degrees"][name] = list(degrees_of(gid))
        lines.append("  %s: %s" % (name, obj["degrees"][name]))
    lines.append("")
    lines.append("homogeneous pairs (dim G <= %d): %d rows"
                 % (args.max_g_dimension, len(entries)))
    lines.append("%-6s %-28s %-14s %-10s %s"
                 % ("index", "pair", "added", "removed", "name"))
    for e in entries:
        lines.append("%-6d %-28s %-14s %-10s %s"
                     % (e.dynkin_index,
                        "%s/%s" % (e.g.name, e.h.name),
                        e.degrees_added, e.degrees_removed or "",
                        e.quotient_name))
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_index(args):
    try:
        target = parse_group(args.target)
    except ValueError as exc:
        raise SchemaError("target", str(exc))
    norm = profile(target).vector_index_norm
    if norm <= 0:
        raise SchemaError("target", "no weight data for %s" % target)
    if args.su2_class is not None:
        try:
            rep = su2_rep_from_label(args.su2_class)
            if not is_su2_class(target, args.su2_class):
                raise ValueError("not a class of homomorphisms SU(2) -> %s"
                                 % target.name)
        except ValueError as exc:
            raise SchemaError("su2-class", str(exc))
    elif args.weights is not None:
        try:
            ws = [int(x) for x in args.weights.split(",")]
        except ValueError as exc:
            raise SchemaError("weights", str(exc))
        rep = make_rep(1, [(w,) for w in ws])
    else:
        raise SchemaError("weights", "provide --su2-class or --weights")
    try:
        idx = dynkin_index(rep, norm)
    except ValueError as exc:
        raise SchemaError("weights", str(exc))
    obj = {"target": target.name, "normalization": norm, "index": idx,
           "weights": [w[0] for w in rep.sorted_weights()]}
    _emit(args, obj, ["dynkin index into %s: %d" % (target.name, idx)])
    return EXIT_OK


_NAMED_ACTIONS = {
    "gromoll-meyer": cons.gromoll_meyer_action,
    "sp4-block-su2xsu2": lambda: cons.sp4_su2xsu2_action("block"),
    "sp4-split-su2xsu2": lambda: cons.sp4_su2xsu2_action("split"),
}


def _action_from_args(args):
    if args.named:
        if args.named not in _NAMED_ACTIONS:
            raise SchemaError("named", "unknown action %r; known: %s"
                              % (args.named, sorted(_NAMED_ACTIONS)))
        return _NAMED_ACTIONS[args.named]()
    obj = _load_json_input(args)
    try:
        return action_from_obj(obj)
    except (KeyError, TypeError, ValueError) as exc:
        field, _, message = str(exc).partition(": ")
        if field in ("input", "rank", "factors", "trivial_lattice",
                     "d_family", "trivial_summand"):
            raise SchemaError(field, message)
        raise SchemaError("factors", str(exc))


def cmd_free_check(args):
    if args.oracle < 0 or args.oracle == 1:
        raise SchemaError("oracle", "order must be 0 (off) or >= 2, got %d"
                          % args.oracle)
    action = _action_from_args(args)
    verdict = is_free(action)
    obj = verdict.to_obj()
    lines = []
    if verdict.free:
        lines.append("Free (effective action; kernel lattice %s)"
                     % (list(map(list, verdict.kernel.basis)),))
    else:
        lines.append("NotFree: witness %s of order %d"
                     % (verdict.witness, verdict.witness_order))
        for part in obj["choice"]:
            lines.append("violating choice: %s" % (part,))
    for c in verdict.caveats:
        lines.append("caveat: %s" % c)
    if args.oracle:
        brute = brute_force_free(action, args.oracle)
        obj["oracle"] = brute.to_obj()
        # the oracle finds exactly the verdict's witness when its order is
        # in range, and nothing otherwise
        expect = not verdict.free and verdict.witness_order <= args.oracle
        agree = brute.found_witness == expect and (
            not expect or (brute.witness_order == verdict.witness_order
                           and brute.witness == verdict.witness))
        lines.append("oracle up to order %d: %s" % (
            args.oracle,
            "witness found at order %d" % brute.witness_order
            if brute.found_witness else "no witness"))
        if not agree:
            _emit(args, obj, lines + ["INTERNAL INCONSISTENCY: oracle "
                                      "disagrees with the lattice method"])
            return EXIT_INCONSISTENT
    _emit(args, obj, lines)
    return EXIT_OK


_RING_PRESETS = {
    "cp-sum": cons.cp_sum_ring,
    "hp-sum": cons.hp_sum_ring,
    "cp-hp-sum": cons.cp_hp_sum_ring,
    "spin-bundle-16": lambda n: cons.spin_bundle_ring(),
}


def _quotient_from_args(args):
    if args.preset:
        name, _, param = args.preset.partition(":")
        if name not in _RING_PRESETS:
            raise SchemaError("preset", "unknown preset %r; known: %s"
                              % (name, sorted(_RING_PRESETS)))
        try:
            n = int(param) if param else 2
        except ValueError:
            n = 0
        if n < 1:
            raise SchemaError("preset", "parameter of %s must be an integer "
                              ">= 1, got %r" % (name, param))
        return _RING_PRESETS[name](n)
    obj = _load_json_input(args)
    if not isinstance(obj, dict):
        raise SchemaError("input", "expected a JSON object, got %s"
                          % type(obj).__name__)
    try:
        gens = obj["generators"]
        if not isinstance(gens, list):
            raise ValueError("expected a list, got %r" % (gens,))
        names = tuple(g["name"] for g in gens)
        if not all(isinstance(n, str) and n for n in names):
            raise ValueError("names must be non-empty strings, got %r"
                             % (list(names),))
        degrees = tuple(g["degree"] for g in gens)
        # bool is an int subclass; JSON true/false are not degrees
        if not all(isinstance(d, int) and not isinstance(d, bool)
                   for d in degrees):
            raise ValueError("degrees must be integers, got %r"
                             % (list(degrees),))
        ring = GradedPolyRing(names, degrees)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("generators", str(exc))
    try:
        rels = obj.get("relations", [])
        if not isinstance(rels, list):
            raise ValueError("expected a list, got %r" % (rels,))
        return GradedQuotient(ring, [poly_from_obj(ring, r) for r in rels])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("relations", str(exc))


def cmd_cohomology(args):
    if args.max_degree is not None and args.max_degree < 0:
        raise SchemaError("max-degree", "must be >= 0, got %d"
                          % args.max_degree)
    q = _quotient_from_args(args)
    finite = q.is_finite_dimensional()
    max_degree = args.max_degree
    if max_degree is None:
        max_degree = q.top_degree() if finite else 20
    b = q.betti(max_degree)
    obj = q.to_obj()
    obj["betti"] = b
    obj["max_degree"] = max_degree
    obj["finite_dimensional"] = finite
    lines = ["ring: %s" % q,
             "betti ranks through degree %d:" % max_degree]
    lines.append("  deg  " + " ".join("%4d" % d for d in range(0, max_degree + 1, 2)))
    lines.append("  rank " + " ".join("%4d" % b[d]
                                      for d in range(0, max_degree + 1, 2)))
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_pi3(args):
    try:
        matrix = json.loads(args.matrix)
    except json.JSONDecodeError as exc:
        raise SchemaError("matrix", str(exc))
    if isinstance(matrix, int) and not isinstance(matrix, bool):
        matrix = [[matrix]]
    # bool is an int subclass; JSON true/false are not indices
    if not isinstance(matrix, list) or not matrix or not all(
            isinstance(r, list) and r and len(r) == len(matrix[0])
            and all(isinstance(x, int) and not isinstance(x, bool)
                    for x in r)
            for r in matrix):
        raise SchemaError("matrix", "expected a non-empty rectangular "
                          "integer matrix like [[10]]")
    group = pi3_cokernel(matrix)
    obj = {"matrix": matrix, "pi3": group.to_obj()}
    _emit(args, obj, ["pi3 = %s" % group])
    return EXIT_OK


def cmd_search_rhs(args):
    if args.max_dim < 3:
        raise SchemaError("max-dim", "the search starts at dimension 3, "
                          "got %d" % args.max_dim)
    entries = rhs_search(args.max_dim)
    classes = rhs_manifold_classes(entries)
    obj = {"max_dim": args.max_dim,
           "classes": {label: [e.to_obj() for e in es]
                       for label, es in classes.items()}}
    lines = ["rational homology sphere biquotients through dimension %d:"
             % args.max_dim,
             "%-24s %-5s %-6s %s" % ("class", "dim", "pi3", "presentations")]
    for label in sorted(classes, key=lambda l: (classes[l][0].dim, l)):
        es = classes[label]
        lines.append("%-24s %-5d %-6s %d" % (label, es[0].dim,
                                             str(es[0].pi3), len(es)))
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_search_rank1(args):
    try:
        g = parse_group(args.group)
        results, free = rank1_two_sided_search(g)
    except ValueError as exc:
        raise SchemaError("group", str(exc))
    if args.include_su2xsu2 and g != Sp(4):
        raise SchemaError("include-su2xsu2", "the SU(2)xSU(2) search runs "
                          "on Sp(4) only, not %s" % g.name)
    obj = {"group": g.name, "pairs": [r.to_obj() for r in results],
           "free": [r.to_obj() for r in free]}
    lines = ["two-sided SU(2) classes on %s: %d unordered pairs"
             % (g.name, len(results))]
    for r in results:
        if r.free:
            lines.append("  (%s | %s): free [%s], pi3 = %s"
                         % (r.left_label, r.right_label, r.mode, r.pi3))
        else:
            lines.append("  (%s | %s): not free [%s], witness order %d at %s"
                         % (r.left_label, r.right_label, r.mode,
                            r.witness_order, r.witness))
    if args.include_su2xsu2:
        pairs = [(r.left_label, r.right_label)
                 for r in sp4_su2squared_search()[1]]
        obj["su2xsu2_free"] = pairs
        lines.append("free SU(2)xSU(2) classes: %s" % pairs)
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_verify_paper(args):
    results = run_all()
    obj = {"checks": [{"name": n, "pass": ok, "detail": d}
                      for n, ok, d in results],
           "total": len(results),
           "passed": sum(1 for _, ok, _ in results if ok)}
    lines = []
    for n, ok, d in results:
        lines.append("%-42s %s%s" % (n, "PASS" if ok else "FAIL",
                                     "" if ok or not d else "  (%s)" % d))
    lines.append("passed %d / %d reference checks"
                 % (obj["passed"], obj["total"]))
    _emit(args, obj, lines)
    return EXIT_OK if obj["passed"] == obj["total"] else EXIT_INCONSISTENT


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="biquot",
        description="Exact freeness certificates, quotient cohomology, pi3, "
                    "and classification searches for two-sided compact "
                    "group actions.")
    p.add_argument("--format", choices=("table", "json"), default="table")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("catalog", help="dump the degree table and the "
                                       "homogeneous-pair catalog")
    c.add_argument("--max-g-dimension", type=int, default=150)
    c.set_defaults(fn=cmd_catalog)

    c = sub.add_parser("index", help="Dynkin index of a rank-1 weight "
                                     "multiset into a target group")
    c.add_argument("--target", required=True)
    c.add_argument("--su2-class", help="label like S3V, V+2C, 2S2V+C")
    c.add_argument("--weights", help="comma-separated integers")
    c.set_defaults(fn=cmd_index)

    c = sub.add_parser("free-check", help="decide freeness of a two-sided "
                                          "action given as JSON")
    c.add_argument("--input", help="JSON file with the action")
    c.add_argument("--json", help="inline JSON action")
    c.add_argument("--named", help="builtin action name: %s"
                   % ", ".join(sorted(_NAMED_ACTIONS)))
    c.add_argument("--oracle", type=int, default=0,
                   help="also run the brute-force oracle, exhaustive over "
                        "every torus element up to this order (cost grows "
                        "about as order^rank / rank)")
    c.set_defaults(fn=cmd_free_check)

    c = sub.add_parser("cohomology", help="Betti table of a graded quotient")
    c.add_argument("--input", help="JSON file with generators/relations")
    c.add_argument("--json", help="inline JSON presentation")
    c.add_argument("--preset", help="named family, e.g. cp-sum:4, hp-sum:3, "
                                    "cp-hp-sum:1, spin-bundle-16")
    c.add_argument("--max-degree", type=int)
    c.set_defaults(fn=cmd_cohomology)

    c = sub.add_parser("pi3", help="cokernel of a net Dynkin index matrix")
    c.add_argument("--matrix", required=True,
                   help="JSON integer matrix, e.g. [[10]] or [[1,-2]]")
    c.set_defaults(fn=cmd_pi3)

    c = sub.add_parser("search-rhs", help="classify rational homology "
                                          "sphere quotients by dimension")
    c.add_argument("--max-dim", type=int, default=16)
    c.set_defaults(fn=cmd_search_rhs)

    c = sub.add_parser("search-rank1", help="two-sided SU(2) classes on a "
                                            "rank-2 group")
    c.add_argument("--group", required=True)
    c.add_argument("--include-su2xsu2", action="store_true")
    c.set_defaults(fn=cmd_search_rank1)

    c = sub.add_parser("verify-paper", help="run every bundled "
                                            "reference-value check")
    c.set_defaults(fn=cmd_verify_paper)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print("input error at %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
