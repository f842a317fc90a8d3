"""Command-line interface.

Subcommands: catalog, index, free-check, cohomology, pi3, search-rhs,
search-rank1, verify-paper.  Output is a readable table by default or JSON
with --format json; fractions serialize as "p/q" strings and torus
witnesses as coordinate lists mod 1, so runs compare bit-exactly.

main builds the parser once per process, on its first call, so that
importing biquot does not pay for it.

Exit codes: 0 success; 1 malformed input or command line (the message
points at the offending field); 2 internal inconsistency (a reference check
or oracle disagreement).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .groups import (_MIN_RANK, SimpleGroupId, Sp, G2, F4, E6, E7, E8,
                     parse_group, homogeneous_catalog, degrees_of, index_norm)
from .weights import (dynkin_index, su2_rep_from_label, make_rep,
                      is_su2_class, defining_dimension)
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

# The largest cohomology --max-degree, generator and relation degree, and
# --preset parameter accepted: far past every documented use, so that no
# list is sized from an unchecked integer (cp-hp-sum:1000, the slowest
# preset at the bound, takes about 20 s).
_MAX_DEGREE = 100000
_MAX_PRESET = 1000
# The largest search-rhs --max-dim accepted: the search's cost grows about
# quadratically in it, and at the bound it takes about 1 s.
_MAX_DIM = 1000
# The largest catalog --max-g-dimension accepted: far past every group of
# the paper, and the catalog takes about 0.25 s and prints 0.3 MB at the
# bound, against 1.4 s and 2.2 MB at ten times it.
_MAX_G_DIMENSION = 100000
# The largest free-check --oracle order accepted: at rank 1 a pass to the
# bound takes about 0.2-0.4 s, and the cost grows about linearly in it.
_MAX_ORACLE = 100000
# The largest defining dimension of an index --su2-class target: the label
# expands into one weight per dimension, about 0.1 s at the bound.
_MAX_TARGET_DIMENSION = 100000


class SchemaError(ValueError):
    def __init__(self, field, message):
        super().__init__("%s: %s" % (field, message))
        self.field = field


class _Parser(argparse.ArgumentParser):
    """A parser whose command-line errors are schema errors: argparse's
    "argument --max-dim: invalid int value" names the field max-dim, and
    an error that names no argument (a missing or unknown one) the field
    arguments."""

    def error(self, message):
        name, sep, rest = message.partition(": ")
        if sep and name.startswith("argument "):
            raise SchemaError(name[len("argument "):].lstrip("-"), rest)
        raise SchemaError("arguments", message)


def _emit(args, obj, table_lines):
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _load_json(field, text=None, path=None):
    """The JSON value of text, or of the UTF-8 file at path.  A file that
    cannot be read, text that is not JSON, nesting deeper than the parser
    can recurse and an integer past Python's digit limit are all schema
    errors at field."""
    try:
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(field, str(exc))


def _load_json_input(args):
    if getattr(args, "input", None):
        return _load_json("input", path=args.input)
    if getattr(args, "json", None):
        return _load_json("input", args.json)
    raise SchemaError("input", "provide --input FILE or --json TEXT")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_catalog(args):
    if not 0 <= args.max_g_dimension <= _MAX_G_DIMENSION:
        raise SchemaError("max-g-dimension", "must be from 0 to %d, got %d"
                          % (_MAX_G_DIMENSION, args.max_g_dimension))
    entries = homogeneous_catalog(args.max_g_dimension)
    obj = {"degrees": {}, "pairs": [e.to_obj() for e in entries]}
    lines = ["degrees:"]
    for fam, lo in _MIN_RANK.items():
        for l in range(lo, 9):
            gid = SimpleGroupId(fam, l)
            obj["degrees"][str(gid)] = list(degrees_of(gid))
        lines.append("  %s_l within rank bounds; sample %s4: %s"
                     % (fam, fam, obj["degrees"].get("%s4" % fam, "-")))
    for gid in (G2, F4, E6, E7, E8):
        obj["degrees"][str(gid)] = list(degrees_of(gid))
        lines.append("  %s: %s" % (gid, obj["degrees"][str(gid)]))
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
        norm = index_norm(target)
    except ValueError as exc:
        raise SchemaError("target", str(exc))
    if args.su2_class is not None:
        try:
            if not is_su2_class(target, args.su2_class):
                raise ValueError("not a class of homomorphisms SU(2) -> %s"
                                 % target.name)
        except ValueError as exc:
            raise SchemaError("su2-class", str(exc))
        dim = defining_dimension(target)
        if dim > _MAX_TARGET_DIMENSION:
            raise SchemaError("target", "--su2-class needs a defining "
                              "dimension of at most %d, %s has %d"
                              % (_MAX_TARGET_DIMENSION, target.name, dim))
        rep = su2_rep_from_label(args.su2_class)
    elif args.weights is not None:
        try:
            ws = [int(x) for x in args.weights.split(",")]
        except ValueError as exc:
            raise SchemaError("weights", str(exc))
        dim = defining_dimension(target)
        if len(ws) != dim:
            raise SchemaError("weights", "%s needs %d weights, one per "
                              "dimension of its defining representation, "
                              "got %d" % (target.name, dim, len(ws)))
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
    except ValueError as exc:
        field, _, message = str(exc).partition(": ")
        raise SchemaError(field, message)


def cmd_free_check(args):
    if args.oracle != 0 and not 2 <= args.oracle <= _MAX_ORACLE:
        raise SchemaError("oracle", "order must be 0 (off) or from 2 to %d, "
                          "got %d" % (_MAX_ORACLE, args.oracle))
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
        agree = brute.witness == (
            verdict.witness if not verdict.free
            and verdict.witness_order <= args.oracle else None)
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
    "spin-bundle-16": cons.spin_bundle_ring,  # takes no parameter
}


def _quotient_from_args(args):
    if args.preset:
        name, sep, param = args.preset.partition(":")
        if name not in _RING_PRESETS:
            raise SchemaError("preset", "unknown preset %r; known: %s"
                              % (name, sorted(_RING_PRESETS)))
        if name == "spin-bundle-16":
            if sep:
                raise SchemaError("preset", "%s takes no parameter, got %r"
                                  % (name, param))
            return cons.spin_bundle_ring()
        try:
            n = int(param) if param else 2
        except ValueError:
            n = 0
        if not 1 <= n <= _MAX_PRESET:
            raise SchemaError("preset", "parameter of %s must be an integer "
                              "from 1 to %d, got %r"
                              % (name, _MAX_PRESET, param))
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
        if any(d > _MAX_DEGREE for d in degrees):
            raise ValueError("degrees must be at most %d, got %d"
                             % (_MAX_DEGREE, max(degrees)))
        ring = GradedPolyRing(names, degrees)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("generators", str(exc))
    try:
        rels = obj.get("relations", [])
        if not isinstance(rels, list):
            raise ValueError("expected a list, got %r" % (rels,))
        polys = [poly_from_obj(ring, r) for r in rels]
        top = max((ring.monomial_degree(m) for p in polys for m in p.terms),
                  default=0)
        if top > _MAX_DEGREE:
            raise ValueError("degrees must be at most %d, got %d"
                             % (_MAX_DEGREE, top))
        return GradedQuotient(ring, polys)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("relations", str(exc))


def cmd_cohomology(args):
    max_degree = args.max_degree
    if max_degree is not None and not 0 <= max_degree <= _MAX_DEGREE:
        raise SchemaError("max-degree", "must be from 0 to %d, got %d"
                          % (_MAX_DEGREE, max_degree))
    q = _quotient_from_args(args)
    finite = q.is_finite_dimensional()
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
    matrix = _load_json("matrix", args.matrix)
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
    if not 3 <= args.max_dim <= _MAX_DIM:
        raise SchemaError("max-dim", "must be from 3 (where the search "
                          "starts) to %d, got %d" % (_MAX_DIM, args.max_dim))
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
    except ValueError as exc:
        raise SchemaError("group", str(exc))
    if args.include_su2xsu2 and g != Sp(4):
        raise SchemaError("include-su2xsu2", "the SU(2)xSU(2) search runs "
                          "on Sp(4) only, not %s" % g.name)
    try:
        results, free = rank1_two_sided_search(g)
    except ValueError as exc:
        raise SchemaError("group", str(exc))
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


# Each subcommand: its name, its help line, the function it runs, and the
# (flag, keyword arguments) of each of its options.
_COMMANDS = (
    ("catalog", "dump the degree table and the homogeneous-pair catalog",
     cmd_catalog,
     (("--max-g-dimension", dict(type=int, default=150,
                                 help="0 to %d" % _MAX_G_DIMENSION)),)),
    ("index", "Dynkin index of a rank-1 weight multiset into a target group",
     cmd_index,
     (("--target", dict(required=True)),
      ("--su2-class", dict(help="label like S3V, V+2C, 2S2V+C")),
      ("--weights", dict(help="comma-separated integers, one per dimension "
                              "of the target's defining representation")))),
    ("free-check", "decide freeness of a two-sided action given as JSON",
     cmd_free_check,
     (("--input", dict(help="JSON file with the action")),
      ("--json", dict(help="inline JSON action")),
      ("--named", dict(help="builtin action name: %s"
                       % ", ".join(sorted(_NAMED_ACTIONS)))),
      ("--oracle", dict(
          type=int, default=0,
          help="also run the brute-force oracle, which covers every torus "
               "element up to this order Q by visiting only the orders "
               "that can hold the least witness, p^a with p^(a-1) dividing "
               "the kernel's index, as its smaller-order powers act "
               "trivially, and by testing one generator per cyclic "
               "subgroup: about Q^(rank-1)/((rank-1) log Q) prefixes; 0 "
               "(off) or 2 to %d" % _MAX_ORACLE)))),
    ("cohomology", "Betti table of a graded quotient", cmd_cohomology,
     (("--input", dict(help="JSON file with generators/relations")),
      ("--json", dict(help="inline JSON presentation")),
      ("--preset", dict(help="named family, e.g. cp-sum:4, hp-sum:3, "
                             "cp-hp-sum:1, spin-bundle-16; parameter 1 to "
                             "%d" % _MAX_PRESET)),
      ("--max-degree", dict(type=int, help="0 to %d" % _MAX_DEGREE)))),
    ("pi3", "cokernel of a net Dynkin index matrix", cmd_pi3,
     (("--matrix", dict(required=True, help="JSON integer matrix, e.g. "
                                            "[[10]] or [[1,-2]]")),)),
    ("search-rhs", "classify rational homology sphere quotients by "
                   "dimension", cmd_search_rhs,
     (("--max-dim", dict(type=int, default=16,
                         help="3 to %d" % _MAX_DIM)),)),
    ("search-rank1", "two-sided SU(2) classes on a rank-2 group",
     cmd_search_rank1,
     (("--group", dict(required=True)),
      ("--include-su2xsu2", dict(action="store_true")))),
    ("verify-paper", "run every bundled reference-value check",
     cmd_verify_paper, ()),
)


@functools.cache
def build_parser():
    """The command-line parser with every subcommand, built once per
    process; parsing leaves it unchanged."""
    p = _Parser(
        prog="biquot",
        description="Exact freeness certificates, quotient cohomology, pi3, "
                    "and classification searches for two-sided compact "
                    "group actions.")
    p.add_argument("--format", choices=("table", "json"), default="table")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text, fn, options in _COMMANDS:
        c = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            c.add_argument(flag, **kwargs)
        c.set_defaults(fn=fn)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SchemaError as exc:
        print("input error at %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
