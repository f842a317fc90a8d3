import json
from fractions import Fraction

import pytest

from biquot import cli
from biquot.cli import main, EXIT_OK, EXIT_SCHEMA, EXIT_INCONSISTENT
from biquot.freeness import action_from_obj, BruteVerdict, TorusElement
from biquot import constructions as cons


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pi3_table_and_json(capsys):
    code, out, _ = run_cli(capsys, "pi3", "--matrix", "[[10]]")
    assert code == EXIT_OK and "Z/10" in out
    code, out, _ = run_cli(capsys, "--format", "json", "pi3",
                           "--matrix", "[[1,-2]]")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["pi3"]["name"] == "Z"


def test_pi3_schema_error(capsys):
    code, _, err = run_cli(capsys, "pi3", "--matrix", "nonsense")
    assert code == EXIT_SCHEMA and "matrix" in err
    code, _, err = run_cli(capsys, "pi3", "--matrix", '[["a"]]')
    assert code == EXIT_SCHEMA and "matrix" in err


def test_index_command(capsys):
    code, out, _ = run_cli(capsys, "index", "--target", "Sp(4)",
                           "--su2-class", "S3V")
    assert code == EXIT_OK and "10" in out
    code, out, _ = run_cli(capsys, "--format", "json", "index",
                           "--target", "G2", "--weights", "6,4,2,0,-2,-4,-6")
    assert json.loads(out)["index"] == 28
    code, _, err = run_cli(capsys, "index", "--target", "E8",
                           "--weights", "1,-1")
    assert code == EXIT_SCHEMA and "target" in err
    code, _, err = run_cli(capsys, "index", "--target", "Sp(4)")
    assert code == EXIT_SCHEMA
    # any spelling of a class, and the trivial class, are indexed
    code, out, _ = run_cli(capsys, "index", "--target", "G2",
                           "--su2-class", "V+V+3C")
    assert code == EXIT_OK and out == "dynkin index into G2: 1\n"
    code, out, _ = run_cli(capsys, "index", "--target", "Sp4",
                           "--su2-class", "4C")
    assert code == EXIT_OK and out == "dynkin index into Sp(4): 0\n"


def test_free_check_named_and_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "free-check", "--named", "gromoll-meyer")
    assert code == EXIT_OK and out.startswith("Free")
    payload = json.dumps(cons.gromoll_meyer_action().to_obj())
    code, out, _ = run_cli(capsys, "--format", "json", "free-check",
                           "--json", payload, "--oracle", "12")
    obj = json.loads(out)
    assert obj["verdict"] == "free"
    assert obj["oracle"]["found_witness"] is False
    # round trip: the serialized action reconstructs identically
    assert action_from_obj(cons.gromoll_meyer_action().to_obj()) \
        == cons.gromoll_meyer_action()


def test_free_check_witness_serialization(capsys):
    bad = {"rank": 1, "factors": [{
        "type": "group",
        "left": [[3], [1], [-1], [-3]],
        "right": [[1], [-1], [0], [0]]}]}
    code, out, _ = run_cli(capsys, "--format", "json", "free-check",
                           "--json", json.dumps(bad))
    obj = json.loads(out)
    assert obj["verdict"] == "not_free"
    assert obj["witness"] == {"coords": ["1/3"], "order": 3}
    code, _, err = run_cli(capsys, "free-check", "--json", '{"rank": 1}')
    assert code == EXIT_SCHEMA and "factors" in err
    code, _, err = run_cli(capsys, "free-check", "--named", "unknown")
    assert code == EXIT_SCHEMA


# its witness (1/3) has order 3
ORDER_3_ACTION = json.dumps({"rank": 1, "factors": [{
    "type": "group",
    "left": [[3], [1], [-1], [-3]],
    "right": [[2], [-2], [0], [0]]}]})


@pytest.mark.parametrize("order", [2, 3])
def test_free_check_oracle_below_and_at_the_witness_order(capsys, order):
    code, out, _ = run_cli(capsys, "--format", "json", "free-check",
                           "--json", ORDER_3_ACTION, "--oracle", str(order))
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["witness"] == {"coords": ["1/3"], "order": 3}
    assert obj["oracle"]["found_witness"] is (order == 3)
    assert obj["oracle"]["exhaustive"] is True


def test_free_check_oracle_witness_of_another_order_exits_2(capsys,
                                                            monkeypatch):
    half = TorusElement((Fraction(1, 2),))
    monkeypatch.setattr(cli, "brute_force_free",
                        lambda action, n: BruteVerdict(True, n, True, half, 2))
    code, out, _ = run_cli(capsys, "free-check", "--json", ORDER_3_ACTION,
                           "--oracle", "4")
    assert code == EXIT_INCONSISTENT
    assert "INTERNAL INCONSISTENCY" in out


@pytest.mark.parametrize("factor", [
    {"type": "group", "left": [[1.5], [0]], "right": [[0], [0]]},
    {"type": "group", "left": [[1], [-1]], "right": [[True], [0]]},
    {"type": "group", "left": [], "right": []},
    {"type": "sphere", "weights": []},
    {"type": "group", "left": [[1], [0, 1]], "right": [[0], [0]]},
    {"type": "sphere", "weights": [[1, 2]]},
])
def test_free_check_rejects_malformed_weights(capsys, factor):
    payload = json.dumps({"rank": 1, "factors": [factor]})
    code, out, err = run_cli(capsys, "free-check", "--json", payload)
    assert code == EXIT_SCHEMA and out == ""
    assert err.startswith("input error at factors")


@pytest.mark.parametrize("payload", [
    {"rank": 1.7, "factors": [{"type": "sphere", "weights": [[1]]}]},
    {"rank": True, "factors": [{"type": "sphere", "weights": [[1]]}]},
    {"rank": 0, "factors": [{"type": "sphere", "weights": [[]]}]},
])
def test_free_check_rejects_malformed_rank(capsys, payload):
    code, out, err = run_cli(capsys, "free-check", "--json",
                             json.dumps(payload))
    assert code == EXIT_SCHEMA and out == ""
    assert err.startswith("input error at rank")


@pytest.mark.parametrize("text,field", [
    ('{"factors": [{"type": "sphere", "weights": [[1]]}]}', "rank"),
    ("[1]", "input"),
    ('"action"', "input"),
    ("3", "input"),
    ('{"rank": 1, "factors": {}}', "factors"),
], ids=["missing-rank", "list", "string", "number", "factors-object"])
def test_free_check_names_top_level_field(capsys, text, field):
    code, out, err = run_cli(capsys, "free-check", "--json", text)
    assert code == EXIT_SCHEMA and out == ""
    assert err.startswith("input error at %s:" % field)


@pytest.mark.parametrize("factor", [
    5,
    {"left": [[1], [0]], "right": [[0], [1]]},
    {"type": "group", "left": [[1], [0]]},
    {"type": "sphere"},
    {"type": "torus", "weights": [[1]]},
], ids=["number", "no-type", "group-no-right", "sphere-no-weights",
        "unknown-type"])
def test_free_check_describes_factor_shape(capsys, factor):
    payload = json.dumps({"rank": 1, "factors": [factor]})
    code, out, err = run_cli(capsys, "free-check", "--json", payload)
    assert code == EXIT_SCHEMA and out == ""
    assert err.startswith('input error at factors: each factor must be '
                          '{"type": "group", "left": [...], "right": [...]} '
                          'or {"type": "sphere", "weights": [...]}; got ')


@pytest.mark.parametrize("factor,field", [
    # as a truthy string, "no" used to switch the trivial summand on
    ({"type": "sphere", "weights": [[3]], "trivial_summand": "no"},
     "trivial_summand"),
    ({"type": "sphere", "weights": [[3]], "trivial_summand": 0},
     "trivial_summand"),
    ({"type": "group", "left": [[1], [0]], "right": [[0], [0]],
      "d_family": "yes"}, "d_family"),
    ({"type": "group", "left": [[1], [0]], "right": [[0], [0]],
      "d_family": None}, "d_family"),
])
def test_free_check_requires_boolean_flags(capsys, factor, field):
    payload = json.dumps({"rank": 1, "factors": [factor]})
    code, out, err = run_cli(capsys, "free-check", "--json", payload)
    assert code == EXIT_SCHEMA and out == ""
    assert err.startswith("input error at %s:" % field)
    factor[field] = False
    code, out, _ = run_cli(capsys, "free-check", "--json",
                           json.dumps({"rank": 1, "factors": [factor]}))
    assert code == EXIT_OK and out.startswith("Free")


TRIVIAL_LATTICE_ACTION = {"rank": 1, "factors": [{
    "type": "group", "left": [[1], [-1]], "right": [[0], [0]]}]}


@pytest.mark.parametrize("lattice", [
    {"rank": 1, "generators": [[1.5]]},
    {"rank": 1, "generators": [[True]]},
    {"rank": 1, "generators": [[2, 0]]},
    {"rank": 2, "generators": [[2, 0]]},
    {"generators": [[2]]},
    [[2]],
    # a present key must hold a lattice, falsy values included
    False, {}, [], 0, None,
])
def test_free_check_rejects_malformed_trivial_lattice(capsys, lattice):
    payload = json.dumps(dict(TRIVIAL_LATTICE_ACTION, trivial_lattice=lattice))
    code, out, err = run_cli(capsys, "free-check", "--json", payload)
    assert code == EXIT_SCHEMA and out == ""
    assert err.startswith("input error at trivial_lattice")


def test_free_check_accepts_declared_trivial_lattice(capsys):
    for gens, kernel in (([[2]], "[[2]]"), ([], "[]")):
        payload = json.dumps(dict(TRIVIAL_LATTICE_ACTION, trivial_lattice={
            "rank": 1, "generators": gens}))
        code, out, _ = run_cli(capsys, "free-check", "--json", payload)
        assert code == EXIT_OK
        assert out == "Free (effective action; kernel lattice %s)\n" % kernel


@pytest.mark.parametrize("argv,field", [
    (("search-rhs", "--max-dim", "2"), "max-dim"),
    (("cohomology", "--preset", "cp-sum:x"), "preset"),
    (("cohomology", "--preset", "cp-sum:0"), "preset"),
    (("pi3", "--matrix", "[]"), "matrix"),
    (("pi3", "--matrix", "[[true]]"), "matrix"),
    (("cohomology", "--preset", "cp-sum:3", "--max-degree", "-3"),
     "max-degree"),
    (("free-check", "--named", "gromoll-meyer", "--oracle", "1"), "oracle"),
    (("free-check", "--named", "gromoll-meyer", "--oracle", "-5"), "oracle"),
    (("index", "--target", "", "--weights", "1,-1"), "target"),
    (("index", "--target", "Sp4", "--su2-class", "XYZ"), "su2-class"),
    (("search-rank1", "--group", ""), "group"),
    (("index", "--target", "Sp4", "--su2-class", "0V"), "su2-class"),
    (("index", "--target", "Sp4", "--su2-class", "0V+S3V"), "su2-class"),
    (("index", "--target", "Sp4", "--su2-class", ""), "su2-class"),
    (("catalog", "--max-g-dimension", "-1"), "max-g-dimension"),
    # labels that are not classes of the target
    (("index", "--target", "SU(3)", "--su2-class", "S2V+V+V"), "su2-class"),
    (("index", "--target", "G2", "--su2-class", "S4V+2C"), "su2-class"),
    (("index", "--target", "Spin(8)", "--su2-class", "2V"), "su2-class"),
    (("index", "--target", "Sp4", "--su2-class", "S2V+C"), "su2-class"),
    (("search-rank1", "--group", "SU3", "--include-su2xsu2"),
     "include-su2xsu2"),
    (("search-rank1", "--group", "G2", "--include-su2xsu2"),
     "include-su2xsu2"),
    (("search-rank1", "--group", "Sp6"), "group"),
])
def test_malformed_arguments_exit_1_naming_the_field(capsys, argv, field):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_SCHEMA and out == ""
    assert err.startswith("input error at %s" % field)


def test_cohomology_presets_and_json_input(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "cohomology", "--preset", "cp-sum:4")
    assert code == EXIT_OK and "betti" in out
    code, out, _ = run_cli(capsys, "--format", "json", "cohomology",
                           "--preset", "hp-sum:2")
    obj = json.loads(out)
    assert obj["betti"][4] == 2 and obj["betti"][8] == 1
    # JSON ring input round-trips through the schema
    payload = {
        "generators": [{"name": "u", "degree": 2}, {"name": "v", "degree": 2}],
        "relations": [
            [{"exps": [1, 1], "coeff": "1"}],
            [{"exps": [2, 0], "coeff": "1"}, {"exps": [0, 2], "coeff": "-1"}],
        ],
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "--format", "json", "cohomology",
                           "--input", str(path))
    obj = json.loads(out)
    assert obj["betti"] == [1, 0, 2, 0, 1]
    # round trip is semantic: reparsing the emitted relations rebuilds the
    # same polynomials
    from biquot.polyring import GradedPolyRing, poly_from_obj
    ring = GradedPolyRing(("u", "v"), (2, 2))
    emitted = [poly_from_obj(ring, r) for r in obj["relations"]]
    original = [poly_from_obj(ring, r) for r in payload["relations"]]
    assert emitted == original
    code, _, err = run_cli(capsys, "cohomology", "--preset", "moebius:2")
    assert code == EXIT_SCHEMA


UV_RING = [{"name": "u", "degree": 2}, {"name": "v", "degree": 2}]


@pytest.mark.parametrize("ring,field", [
    ({"generators": [{"name": "x", "degree": 2.9}]}, "generators"),
    ({"generators": UV_RING,
      "relations": [[{"exps": [1, 0, 5], "coeff": "1"}]]}, "relations"),
    ({"generators": UV_RING,
      "relations": [[{"exps": [1], "coeff": "1"}]]}, "relations"),
    ({"generators": [{"name": "u", "degree": 2}],
      "relations": [[{"exps": [True], "coeff": "1"}]]}, "relations"),
    ({"generators": [{"name": "u", "degree": 2}],
      "relations": [[{"exps": [-2], "coeff": "1"}]]}, "relations"),
    ({"generators": UV_RING,
      "relations": [[{"exps": [1, 1], "coeff": "1/0"}]]}, "relations"),
    # 5 and "5" would print alike
    ({"generators": [{"name": 5, "degree": 2},
                     {"name": "5", "degree": 2}]}, "generators"),
    ({"generators": [{"name": None, "degree": 2}]}, "generators"),
    ({"generators": [{"name": "", "degree": 2}]}, "generators"),
    ({"generators": {}}, "generators"),
    ({"generators": UV_RING, "relations": {}}, "relations"),
    ([UV_RING], "input"),
    ("ring", "input"),
    ({"generators": UV_RING, "relations": [{}]}, "relations"),
    ({"generators": UV_RING, "relations": ["ab"]}, "relations"),
    ({"generators": UV_RING, "relations": [{"exps": [1, 0]}]}, "relations"),
    ({"generators": UV_RING, "relations": [[1]]}, "relations"),
    # a unit relation leaves the zero ring, which has no top degree
    ({"generators": [], "relations": [[{"exps": [], "coeff": "1"}]]},
     "relations"),
    ({"generators": UV_RING, "relations": [[{"exps": [0, 0], "coeff": "3"}]]},
     "relations"),
], ids=["float-degree", "long-exps", "short-exps", "bool-exps",
        "negative-exps", "zero-denominator", "number-name", "null-name",
        "empty-name", "generators-object", "relations-object", "list",
        "string", "object-relation", "string-relation", "term-relation",
        "number-term", "unit-no-generators", "unit"])
def test_cohomology_rejects_malformed_rings(capsys, ring, field):
    code, out, err = run_cli(capsys, "cohomology", "--json", json.dumps(ring))
    assert code == EXIT_SCHEMA and out == ""
    assert err.startswith("input error at %s" % field)


def test_cohomology_describes_relation_shape(capsys):
    # a relation of the wrong shape is described, not indexed into; the
    # empty list stays the zero relation
    for relation in ({}, "ab", {"exps": [1, 0]}, [1]):
        ring = {"generators": UV_RING, "relations": [relation]}
        code, _, err = run_cli(capsys, "cohomology", "--json", json.dumps(ring))
        assert code == EXIT_SCHEMA
        assert err.startswith("input error at relations: relation %r: "
                              "expected a list of terms" % (relation,))
    ring = {"generators": UV_RING, "relations": [[]]}
    code, out, _ = run_cli(capsys, "cohomology", "--json", json.dumps(ring))
    assert code == EXIT_OK and out.startswith("ring: Z[u(2), v(2)] / ()")


def test_search_commands(capsys):
    code, out, _ = run_cli(capsys, "search-rank1", "--group", "G2")
    assert code == EXIT_OK and "witness order 5" in out
    code, out, _ = run_cli(capsys, "--format", "json", "search-rank1",
                           "--group", "Sp4", "--include-su2xsu2")
    obj = json.loads(out)
    assert [p["pair"] for p in obj["free"]] == [["V+2C", "2V"]]
    assert sorted(map(tuple, obj["su2xsu2_free"])) \
        == [("2V1", "V2+2C"), ("V1+V2", "4C")]
    code, _, err = run_cli(capsys, "search-rank1", "--group", "SU(5)")
    assert code == EXIT_SCHEMA
    code, out, _ = run_cli(capsys, "search-rhs", "--max-dim", "8")
    assert code == EXIT_OK and "Berger^7" in out


def test_search_rhs_json_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "--format", "json", "search-rhs",
                            "--max-dim", "11")
    code, out2, _ = run_cli(capsys, "--format", "json", "search-rhs",
                            "--max-dim", "11")
    assert out1 == out2
    obj = json.loads(out1)
    assert "G2//(S2V+2V|2S2V+C)" in obj["classes"]


def test_catalog_output(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--max-g-dimension", "60")
    assert code == EXIT_OK
    assert "Sp(4)/SU(2)" in out and "CaP^2" in out
    code, out, _ = run_cli(capsys, "--format", "json", "catalog",
                           "--max-g-dimension", "60")
    obj = json.loads(out)
    assert obj["degrees"]["G2"] == [2, 6]
    assert any(p["dynkin_index"] == 28 for p in obj["pairs"])


def test_verify_paper_all_pass(capsys, monkeypatch, reference_results):
    # both output formats render the session's run of the reference checks
    monkeypatch.setattr(cli, "run_all", lambda: reference_results)
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == EXIT_OK
    assert "FAIL" not in out
    lines = [l for l in out.splitlines() if "PASS" in l]
    assert len(lines) >= 50
    code, out, _ = run_cli(capsys, "--format", "json", "verify-paper")
    obj = json.loads(out)
    assert obj["passed"] == obj["total"] > 0
