"""Property-based tests.

Each property is derandomized and keeps no example database, so it runs
the same fixed examples on every run; max_examples keeps tier-1 cheap.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from biquot.cli import (  # noqa: E402
    SchemaError, _COMMANDS, build_parser, main)
from biquot.cohomology import GradedQuotient  # noqa: E402
from biquot.freeness import (  # noqa: E402
    GroupFactor, SphereFactor, TwoSidedAction, _violating_lattices,
    brute_force_free, is_free, kernel_lattice)
from biquot.polyring import GradedPolyRing, Poly  # noqa: E402
from test_cohomology import _monomials_by_box_filter  # noqa: E402

FIXED = settings(derandomize=True, database=None, deadline=None,
                 max_examples=40)

RINGS = (GradedPolyRing(("u", "v"), (2, 2)),
         GradedPolyRing(("x", "z"), (2, 4)),
         GradedPolyRing(("u", "v", "w"), (2, 2, 2)))


@st.composite
def presentations(draw):
    """A ring, homogeneous relations on it, and a second presentation of the
    same ideal: the relations permuted, each scaled by +-1, and one relation
    added to another of the same degree."""
    ring = draw(st.sampled_from(RINGS))
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        monos = _monomials_by_box_filter(
            ring, draw(st.sampled_from((2, 4))))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(monos),
                               max_size=len(monos)))
        rel = Poly(ring, dict(zip(monos, coeffs)))
        if not rel.is_zero():
            rels.append(rel)
    order = draw(st.permutations(range(len(rels))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(rels),
                          max_size=len(rels)))
    other = [signs[k] * rels[i] for k, i in enumerate(order)]
    same_degree = [(i, j) for i in range(len(other))
                   for j in range(len(other))
                   if i != j and other[i].degree() == other[j].degree()]
    pair = draw(st.sampled_from([None] + same_degree))
    if pair is not None:
        i, j = pair
        other[i] = other[i] + other[j]
    return ring, rels, other


@FIXED
@given(presentations())
def test_betti_ranks_do_not_depend_on_the_presentation(case):
    ring, rels, other = case
    q, q_other = GradedQuotient(ring, rels), GradedQuotient(ring, other)
    assert q.is_finite_dimensional() == q_other.is_finite_dimensional()
    assert q.betti(12) == q_other.betti(12)
    if q.is_finite_dimensional():
        assert q.top_degree() == q_other.top_degree()


def _weight_lists(rank, n):
    return st.lists(st.tuples(*[st.integers(-2, 2)] * rank),
                    min_size=n, max_size=n)


@st.composite
def actions_and_relabelings(draw):
    """A small action, and the same action with the weights permuted inside
    each factor and the two sides of each group factor swapped or not."""
    rank = draw(st.integers(1, 3))
    factors, relabeled = [], []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            n = draw(st.integers(2, 4))
            left = draw(_weight_lists(rank, n))
            right = draw(_weight_lists(rank, n))
            factors.append(GroupFactor(left, right))
            left, right = draw(st.permutations(left)), \
                draw(st.permutations(right))
            if draw(st.booleans()):
                left, right = right, left
            relabeled.append(GroupFactor(left, right))
        else:
            ws = draw(_weight_lists(rank, draw(st.integers(1, 3))))
            flag = draw(st.booleans())
            factors.append(SphereFactor(ws, flag))
            relabeled.append(SphereFactor(draw(st.permutations(ws)), flag))
    return TwoSidedAction(rank, factors), TwoSidedAction(rank, relabeled)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(actions_and_relabelings())
def test_witness_does_not_depend_on_weight_order_or_sides(case):
    action, relabeled = case
    v, w = is_free(action), is_free(relabeled)
    assert (v.free, v.witness, v.witness_order) \
        == (w.free, w.witness, w.witness_order)
    # the oracle finds the verdict's witness when its order is in range,
    # and nothing otherwise (in particular on a Free verdict)
    brute = brute_force_free(action, 12)
    if v.free or v.witness_order > 12:
        assert not brute.found_witness
    else:
        assert (brute.witness, brute.witness_order) \
            == (v.witness, v.witness_order)


@st.composite
def actions_and_factor_orders(draw):
    """A small action of two to four factors, and a permutation of them."""
    rank = draw(st.integers(1, 3))
    factors = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            n = draw(st.integers(2, 3))
            factors.append(GroupFactor(draw(_weight_lists(rank, n)),
                                       draw(_weight_lists(rank, n))))
        else:
            factors.append(SphereFactor(
                draw(_weight_lists(rank, draw(st.integers(1, 3)))),
                draw(st.booleans())))
    return TwoSidedAction(rank, factors), \
        draw(st.permutations(range(len(factors))))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(actions_and_factor_orders())
def test_search_does_not_depend_on_factor_order(case):
    # the search sweeps the factors fewest choices first, a stable sort,
    # so a permutation changes the sweep among factors of one size; the
    # choice is reported in the action's own factor order
    action, order = case
    permuted = TwoSidedAction(action.rank,
                              [action.factors[i] for i in order])
    kernel = kernel_lattice(action)
    assert kernel_lattice(permuted) == kernel
    assert _violating_lattices(permuted, kernel) \
        == _violating_lattices(action, kernel)
    v, w = is_free(action), is_free(permuted)
    assert (w.free, w.witness) == (v.free, v.witness)
    if not v.free:
        assert w.choice == tuple(v.choice[i] for i in order)


_KEYS = ("rank", "factors", "type", "left", "right", "weights", "d_family",
         "trivial_summand", "trivial_lattice", "generators", "name", "degree",
         "relations", "exps", "coeff")
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(("group", "sphere", "x", "1/2", "")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=8)


def _or_json(strategy):
    """The well-formed values of a field, or any JSON value in its place."""
    return strategy | _json


def _lists(strategy, max_size=3):
    return _or_json(st.lists(_or_json(strategy), max_size=max_size))


_vecs = _lists(st.lists(st.integers(-3, 3), min_size=1, max_size=2))
_factor = st.fixed_dictionaries(
    {"type": _or_json(st.sampled_from(("group", "sphere")))},
    optional={"left": _vecs, "right": _vecs, "weights": _vecs,
              "d_family": _json, "trivial_summand": _json})
_action = st.fixed_dictionaries(
    {"rank": st.integers(1, 2), "factors": _lists(_factor, 2)},
    optional={"trivial_lattice": _or_json(st.fixed_dictionaries(
        {"rank": st.integers(1, 2), "generators": _vecs}))})
_term = st.fixed_dictionaries(
    {"exps": _lists(st.integers(0, 3), 2),
     "coeff": _or_json(st.sampled_from(("1", "-2", "1/2")))})
_ring = st.fixed_dictionaries(
    {"generators": _lists(st.fixed_dictionaries(
        {"name": _or_json(st.sampled_from(("x", "y"))),
         "degree": _or_json(st.integers(-1, 4))}), 2)},
    optional={"relations": _lists(_lists(_term, 2), 2)})
_matrix = _or_json(st.lists(st.lists(st.integers(-3, 3), min_size=1,
                                     max_size=2), min_size=1, max_size=2))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.tuples(st.just("free-check"), _or_json(_action))
       | st.tuples(st.just("cohomology"), _or_json(_ring))
       | st.tuples(st.just("pi3"), _matrix))
def test_arbitrary_json_input_exits_0_or_1(case):
    """Malformed input exits 1 naming a field; it never gives a traceback
    or the exit code of an internal disagreement."""
    command, value = case
    text = json.dumps(value)
    flag = "--matrix=" if command == "pi3" else "--json="
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, flag + text])
    assert code in (0, 1), (command, text, err.getvalue())
    assert code == 0 or err.getvalue().startswith("input error at ")


_piece = st.tuples(
    st.sampled_from(("", "0", "1", "2")) | st.integers(0, 10 ** 12).map(str),
    st.sampled_from(("C", "V")) | st.integers(0, 12).map("S{}V".format))
_label = (st.lists(_piece, min_size=1, max_size=3).map(
    lambda ps: "+".join(m + p for m, p in ps))
    | st.text("0123456789CVS+ ", max_size=8))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.tuples(st.just("index"), st.sampled_from(
    ("Sp4", "SU(3)", "SU(6)", "G2", "Spin(8)")), _label)
       | st.tuples(st.just("cohomology"), st.sampled_from(
           ("cp-sum", "hp-sum", "cp-hp-sum", "spin-bundle-16", "moebius")),
           st.integers(-1, 6)))
def test_labels_and_presets_exit_0_or_1(case):
    """SU(2) class labels (multiplicities up to 10^12) and preset parameters
    exit 0 or 1, never with a traceback."""
    command, name, value = case
    argv = (["index", "--target", name, "--su2-class=" + value]
            if command == "index"
            else ["cohomology", "--preset", "%s:%d" % (name, value)])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    assert code == 0 or err.getvalue().startswith("input error at ")


_TOKENS = tuple(c[0] for c in _COMMANDS) + (
    "--format", "--format=json", "table", "json", "xml", "-h", "--he",
    "--form", "--", "--matrix", "[[4]]", "--max-dim")


def _parse_outcome(parser, argv):
    """What parsing argv gives: the namespace, the schema error, or the
    exit code with what was printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "namespace", vars(parser.parse_args(argv))
        except SchemaError as exc:
            return "schema error", exc.field, str(exc)
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.sampled_from(_TOKENS), max_size=6))
def test_the_picked_subcommand_parser_parses_as_the_full_one(argv):
    """main parses every command line with one parser per process; after
    all the parses before it, failed and --help ones included, that parser
    gives a fresh parser's namespace, schema error, or exit code and
    output."""
    assert _parse_outcome(build_parser(), argv) \
        == _parse_outcome(build_parser.__wrapped__(), argv)
