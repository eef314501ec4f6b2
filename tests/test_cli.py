import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tropnp import cli, engine, subdivision
from tropnp.cli import (_transversality_report, dump_doc, load_input, main,
                        parse_input_spec, parse_output_doc, rat_str)
from tropnp.engine import (GenericityError, TNPSet, analyze_gamma,
                           analyze_sigma, cell_contribution, tnp_set)
from tropnp.faces import delta0, enumerate_tuple_faces
from tropnp.tropical import TropicalMap, TropicalPolynomial

from conftest import (corner_locus_pieces, fixture_path, product_set,
                      reference_transversality_report, union_equal)
from property_suite import random_map

F = Fraction

#: a planar map whose non-properness set is empty
EMPTY_SET_MAP = {"n": 2, "maps": [
    [{"exp": [1, 0], "val": "0"}, {"exp": [0, 1], "val": "0"}],
    [{"exp": [1, 1], "val": "0"}, {"exp": [2, 1], "val": "3"}]]}

#: the refusal of a curve given twice: every cell where it bends offends,
#: in the full complex and in the restricted complexes of faces 6 and 7
DUPLICATE_CURVE_REFUSAL = """transversality violation; offending cells:
  face=None (0,1) (1,0) | (0,1) (1,0): rank 1 < 1 + 1
  face=None (0,1) (1,0) (1,1) | (0,1) (1,0) (1,1): rank 2 < 2 + 2
  face=None (0,1) (1,1) | (0,1) (1,1): rank 1 < 1 + 1
  face=None (1,0) (1,1) | (1,0) (1,1): rank 1 < 1 + 1
  face=6 (0,1) (1,1) | (0,1) (1,1): rank 1 < 1 + 1
  face=7 (1,0) (1,1) | (1,0) (1,1): rank 1 < 1 + 1
"""


#: a map with an offending tuple-face (id 42) whose argmax set in the first
#: component is empty, so that its restricted complex decomposes by the
#: other two components alone
TWO_OF_THREE_OFFENDER = TropicalMap([
    TropicalPolynomial(3, {(0, 1, 1): 1, (1, 0, 1): -1}),
    TropicalPolynomial(3, {(1, 0, 2): -1, (1, 1, 0): -1, (1, 2, 0): -1,
                           (1, 2, 1): 0}),
    TropicalPolynomial(3, {(1, 0, 0): 1, (1, 0, 1): -1, (1, 1, 0): 1})])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInputParsing:
    def test_fixture_round_trips_through_the_parser(self):
        with open(fixture_path("map2d.json")) as fh:
            doc = json.load(fh)
        m, notices = parse_input_spec(doc)
        assert m.n == 2
        assert m[0].terms[(0, 2)] == -5
        assert not notices

    def test_series_coefficients(self):
        doc = {"n": 1, "maps": [[{"exp": [2], "series": "3t^5"}]]}
        m, _ = parse_input_spec(doc)
        assert m[0].terms[(2,)] == -5

    def test_rejects_floats(self):
        doc = {"n": 1, "maps": [[{"exp": [1], "val": 0.5}]]}
        with pytest.raises(Exception):
            parse_input_spec(doc)


GOOD_TERM = {"exp": [0, 1], "val": "0"}


def _doc(first_component, n=2):
    return {"n": n, "maps": [first_component, [GOOD_TERM]]}


@pytest.mark.parametrize("doc, extra", [
    (_doc([GOOD_TERM, 7]), []),
    (_doc([{"exp": [1, "x"], "val": "0"}]), []),
    (_doc([{"exp": [1, 0], "series": "0t^2"}]), []),
    (_doc([{"exp": [1, 0], "series": "t^1/0"}]), []),
    (_doc([{"exp": [1, 0], "val": "1/0"}]), []),
    (_doc([GOOD_TERM], n=2.5), []),
    (_doc([{"exp": [1, 0], "val": "1e-9999999"}]), []),
    (_doc([{"exp": [1, 0], "series": "1E-9999999t^2"}]), []),
    (None, ["--point=1,x"]),
    (None, ["--point=1,2,3"]),
    (None, ["--point=1e-9999999,0"]),
], ids=["term-not-an-object", "non-integer-exponent", "zero-series",
        "zero-series-exponent-denominator", "zero-denominator",
        "non-integer-n", "exponent-notation-val", "exponent-notation-series",
        "non-rational-point", "point-of-wrong-dimension",
        "exponent-notation-point"])
def test_malformed_input_exits_1_with_one_line(tmp_path, capsys, doc, extra):
    # Fraction expands "1e-9999999" into a power of ten: refused, not parsed
    if doc is None:
        cmd, path = "oracle", fixture_path("map2d.json")
    else:
        cmd, path = "compute", tmp_path / "m.json"
        path.write_text(json.dumps(doc))
    code, _, err = run(capsys, cmd, "--input", str(path), *extra)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


NOT_UTF8 = b"\xff\xfe"


@pytest.mark.parametrize("loader, data, reason", [
    ("--input", b"not json", "Expecting value"),
    ("--input", b"[1, 2]", "JSON object"),
    ("--input", NOT_UTF8, "can't decode byte 0xff"),
    ("--tnp", NOT_UTF8, "can't decode byte 0xff"),
], ids=["not-json", "json-list", "non-utf-8", "tnp-non-utf-8"])
def test_input_errors_name_the_file(tmp_path, capsys, loader, data, reason):
    # --input goes through load_input, --tnp through load_output_doc
    path = tmp_path / "m.json"
    path.write_bytes(data)
    command = "compute" if loader == "--input" else "newton"
    code, out, err = run(capsys, command, loader, str(path))
    assert code == 1 and not out
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert reason in err, err


MAP2D = fixture_path("map2d.json")


@pytest.mark.parametrize("argv, names", [
    (["newton", "--tnp", MAP2D], [MAP2D, "schema"]),
    (["oracle", "--input", MAP2D, "--grid", "--against", MAP2D],
     [MAP2D, "schema"]),
    (["oracle", "--input", MAP2D, "--grid", "--res=0"], ["--res"]),
    (["oracle", "--input", MAP2D, "--grid", "--res=-3", "--box=0,1"],
     ["--res"]),
    (["newton"], ["--input", "--tnp"]),
    (["newton", "--input", MAP2D, "--tnp", MAP2D], ["--input", "--tnp"]),
    (["newton", "--tnp", ""], ["No such file", "''"]),
    (["plot", "--input", MAP2D, "--svg", os.devnull, "--window", "0,0;0,0"],
     ["window", "0,0;0,0"]),
    (["plot", "--input", MAP2D, "--svg", os.devnull, "--window", "1,0;1,0"],
     ["window", "1,0;1,0"]),
    (["oracle", "--input", MAP2D, "--grid", "--box=3,1"], ["box", "3,1"]),
    (["oracle", "--input", MAP2D, "--grid", "--box=0,1;2,2"],
     ["box", "0,1;2,2"]),
    (["compute"], ["compute", "--input"]),
    (["compute", "--input", MAP2D, "--res", "3"], ["--res 3"]),
    (["oracle", "--input", MAP2D, "--grid", "--res", "x"], ["--res", "'x'"]),
    (["oracle", "--input", MAP2D], ["--point", "--grid"]),
    (["oracle", "--input", MAP2D, "--grid", "--point=-2,-4"],
     ["--point", "--grid"]),
    (["oracle", "--input", MAP2D, "--point=-2,-4", "--res", "0"], ["--res"]),
    (["oracle", "--input", MAP2D, "--point=-2,-4", "--box=5,1"], ["--box"]),
    (["oracle", "--input", MAP2D, "--point=-2,-4", "--against",
      "/nonexistent"], ["--against"]),
], ids=["newton-tnp-on-an-input", "against-an-input", "res-zero",
        "res-negative", "newton-without-a-source", "newton-with-two-sources",
        "newton-empty-tnp", "plot-empty-window", "plot-reversed-window", "oracle-reversed-box",
        "oracle-empty-box-axis", "compute-without-input",
        "compute-with-an-oracle-option", "res-not-an-integer",
        "oracle-without-a-question", "oracle-with-two-questions",
        "point-with-res", "point-with-box", "point-with-against"])
def test_refused_arguments_exit_1_with_one_line(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(name in err for name in names), err


def test_one_parser_serves_a_sequence_of_calls(monkeypatch, capsys):
    """main reuses the parser it built first; each call answers as it would
    on a freshly built parser."""
    sequence = [
        ["compute", "--product", "--input", MAP2D],
        ["compute", "--input", MAP2D],
        ["compute", "--input", MAP2D, "--res", "3"],
        ["oracle", "--input", MAP2D, "--point=-2,-4"],
        ["oracle", "--input", MAP2D, "--grid", "--res=3", "--box=-6,0"],
    ]
    reused = [run(capsys, *argv) for argv in sequence]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert reused == [run(capsys, *argv) for argv in sequence]
    assert [code for code, _, _ in reused] == [1, 0, 1, 0, 0]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--help"])
    assert exc.value.code == 0
    assert "--input" in capsys.readouterr().out


def test_output_document_without_pieces_is_refused(tmp_path, capsys):
    for doc, missing in [({"schema": "tnp/1", "n": 2}, "'tnp'"),
                         ({"schema": "tnp/1", "n": 2, "tnp": {"pieces": [
                             {"vertices": [["x", "1"]], "rays": [],
                              "lineality": []}]}}, "piece 0"),
                         ({"schema": "tnp/1", "n": 2, "tnp": {"pieces": [
                             {"vertices": [["1e-9999999", "1"]], "rays": [],
                              "lineality": []}]}}, "exponent notation")]:
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "newton", "--tnp", str(f))
        assert code == 1
        assert err.count("\n") == 1 and str(f) in err and missing in err, err


@pytest.mark.parametrize("key, value", [
    ("rays", [[1, -2, 5]]),
    ("rays", [[1]]),
    ("rays", [[True, 0]]),
    ("rays", [["1", "0"]]),
    ("rays", [-1, -1]),
    ("lineality", [[0, 1, 0]]),
    ("lineality", [[0.5, 1]]),
    ("vertices", [["0", "-2", "1"]]),
    ("vertices", [[0.5, "-2"]]),
    ("vertices", [[True, "-2"]]),
], ids=["ray-of-3", "ray-of-1", "bool-ray", "string-ray", "ray-not-a-vector",
        "lineality-of-3", "float-lineality", "vertex-of-3", "float-vertex",
        "bool-vertex"])
@pytest.mark.parametrize("reader", ["newton", "oracle"])
def test_malformed_piece_is_refused(tmp_path, capsys, key, value, reader):
    # piece 0 of map2d's document is the half-line (0, -2) + cone{(-1, -1)};
    # each vector of a piece needs n entries, integers in rays and lineality
    good = tmp_path / "good.json"
    code, _, _ = run(capsys, "compute", "--input", MAP2D, "--output", str(good))
    assert code == 0
    doc = json.loads(good.read_text())
    doc["tnp"]["pieces"][0][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = (["newton", "--tnp", str(bad)] if reader == "newton" else
            ["oracle", "--input", MAP2D, "--grid", "--res", "9", "--box=-12,4",
             "--against", str(bad)])
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith(f"error: {bad}: piece 0 is malformed") \
        and err.count("\n") == 1, err


@pytest.mark.parametrize("term", [
    {"exp": [1, 0], "series": ""},
    {"exp": [1, 0], "series": "  "},
    {"exp": [1, 0], "val": "1", "series": "t"},
    {"exp": [1, 0]},
], ids=["empty-series", "blank-series", "val-and-series", "no-value"])
def test_term_grammar_is_refused(tmp_path, capsys, term):
    # an empty series has no valuation, and a term gives one value, no
    # fewer and no more
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "maps": [[GOOD_TERM], [term]]}))
    code, out, err = run(capsys, "compute", "--input", str(path))
    assert code == 1 and not out
    assert err.startswith(f"error: {path}: component 1: ") \
        and err.count("\n") == 1, err


#: five components x_i + max(0, 1 + x_(i+1) - x_i), cyclically: above the
#: default dimension cap, and with an empty non-properness set
FIVE_CYCLE_MAP = {"n": 5, "maps": [
    [{"exp": [int(j == i) for j in range(5)], "val": "0"},
     {"exp": [int(j == (i + 1) % 5) for j in range(5)], "val": "1"}]
    for i in range(5)]}


@pytest.mark.parametrize("argv, code, check", [
    # the set is empty: its fan is that of a point
    (("newton",), 0, lambda out, err: json.loads(out)["fan"]["span_dim"] == 0),
    (("oracle", "--grid", "--res", "1"), 0,
     lambda out, err: json.loads(out)["grid"]["points"] == 1),
], ids=["newton", "oracle-grid"])
def test_dim_cap_reaches_the_engine(tmp_path, capsys, argv, code, check):
    # the engine's tuple-faces obey --dim-cap, and not the default cap 4
    path = tmp_path / "m.json"
    path.write_text(json.dumps(FIVE_CYCLE_MAP))
    got, out, err = run(capsys, *argv, "--input", str(path), "--dim-cap", "5")
    assert got == code and check(out, err), (got, out, err)
    assert run(capsys, *argv, "--input", str(path))[0] == 3


class TestComputeCommand:
    def test_output_document(self, tmp_path, capsys, map2d, map2d_target_terms):
        out = tmp_path / "out.json"
        code, _, _ = run(capsys, "compute", "--input", fixture_path("map2d.json"),
                         "--output", str(out))
        assert code == 0
        text = out.read_text()
        doc = json.loads(text)
        assert doc["schema"] == "tnp/1"
        assert doc["transversality"]["ok"]
        assert len(doc["tnp"]["pieces"]) == 5
        parsed = parse_output_doc(text)
        target = corner_locus_pieces(map2d_target_terms, 2)
        assert union_equal(parsed["tnp_pieces"], target)
        # round trip is exact: parsed pieces coincide with the engine's
        from tropnp.engine import tnp_set
        engine_keys = [p.canonical_key() for p in tnp_set(map2d).polytopes]
        parsed_keys = [p.canonical_key() for p in parsed["tnp_pieces"]]
        assert parsed_keys == engine_keys

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "compute", "--input", fixture_path("map2d.json"),
            "--output", str(a))
        run(capsys, "compute", "--input", fixture_path("map2d.json"),
            "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_constant_term_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 2, "maps": [[{"exp": [0, 0], "val": "1"}],
                             [{"exp": [0, 1], "val": "0"}]]}))
        code, _, err = run(capsys, "compute", "--input", str(bad))
        assert code == 1
        assert "constant" in err

    def test_dim_cap(self, tmp_path, capsys):
        doc = {"n": 3, "maps": [
            [{"exp": [1, 0, 0], "val": "0"}],
            [{"exp": [0, 1, 0], "val": "0"}],
            [{"exp": [0, 0, 1], "val": "0"}]]}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "compute", "--input", str(f), "--dim-cap", "2")
        assert code == 3

    def test_staircase_is_the_default(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        code, _, _ = run(capsys, "compute", "--input",
                         fixture_path("map2d.json"), "--output", str(out))
        assert code == 0
        assert json.loads(out.read_text())["tnp"]["assembly"] == "staircase"

    def test_product_flag(self, tmp_path, capsys):
        # compute has one assembly and no flag to choose it; the product
        # closure is the test reference conftest.product_set
        out = tmp_path / "p.json"
        for flag in ("--product", "--staircase"):
            code, stdout, err = run(capsys, "compute", "--input",
                                    fixture_path("map2d.json"), flag,
                                    "--output", str(out))
            assert code == 1 and not stdout and not out.exists()
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert flag in err and "Traceback" not in err

    def test_product_pieces_carry_the_canonical_constraints(self, tmp_path,
                                                            capsys):
        # the product closure of this map equals the staircase one, so its
        # pieces, inequality and equality rows included, must be the same
        out = tmp_path / "staircase.json"
        code, _, _ = run(capsys, "compute", "--input",
                         fixture_path("map3d_product.json"), "--output",
                         str(out))
        assert code == 0
        pieces = json.loads(out.read_text())["tnp"]["pieces"]
        product, _ = load_input(fixture_path("map3d_product.json"))
        assert pieces
        assert cli.tnp_json(product_set(product))["pieces"] == pieces

    def test_transversality_violation_exits_2(self, tmp_path, capsys):
        # the same curve twice overlaps itself: nothing is transversal
        comp = [{"exp": [1, 0], "val": "0"}, {"exp": [0, 1], "val": "0"},
                {"exp": [1, 1], "val": "2"}]
        f = tmp_path / "dup.json"
        f.write_text(json.dumps({"n": 2, "maps": [comp, comp]}))
        code, out, err = run(capsys, "compute", "--input", str(f))
        assert (code, out, err) == (2, "", DUPLICATE_CURVE_REFUSAL)


def _all_face_pieces(F, faces):
    """tnp_set's pieces read off restricted complexes built for every
    tuple-face, as compute built them for its all-face gate."""
    contexts = [analyze_gamma(F, f) for f in faces]
    pieces = []
    for ctx in contexts:
        if not (ctx.face.dicritical and ctx.face.pre_origin):
            continue
        for cell in ctx.complex:
            piece = cell_contribution(ctx, analyze_sigma(ctx, cell))
            if not piece.is_empty:
                pieces.append((piece.canonical_key(), ctx.face.id, cell.id))
    return pieces


def _pieces_or_refusal(build):
    try:
        return build()
    except GenericityError:
        return "not face-generic"


class TestTransversalityGate:
    """compute gates on the profiles of the full decomposition alone: a
    restricted complex is the star at infinity of the full one in its
    face's witness direction, so it offends only where the full complex
    does, and its offending profiles are restrictions of the full ones."""

    def test_map3d_refusal_is_pinned(self, capsys):
        with open(fixture_path("map3d_refusal.stderr"), encoding="utf-8") as fh:
            expected = fh.read()
        code, out, err = run(capsys, "compute", "--input",
                             fixture_path("map3d.json"))
        assert (code, out, err) == (2, "", expected)
        assert [line for line in err.splitlines()
                if line.startswith("  face=52 ")] == [
            "  face=52 (0,1,1) (1,1,1) | (1,2,4) | (1,0,0) (1,1,1) (2,1,1): "
            "rank 2 < 1 + 2",
            "  face=52 (0,1,1) (1,1,1) | (1,2,4) | (1,1,1) (2,1,1): "
            "rank 1 < 1 + 1",
            "  face=52 (0,1,1) (1,1,1) (2,2,2) | (1,2,4) | (1,1,1) (2,1,1): "
            "rank 2 < 2 + 1"]

    def test_no_verdict_builds_a_complex(self, monkeypatch, map2d, map3d):
        calls = dict.fromkeys(["decomposition", "analyze_gamma",
                               "cayley_profiles"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (cli, engine, subdivision):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counted(name, getattr(module, name)))
        # an acceptance and a refusal with offending faces alike read the
        # one lifted Cayley polytope of the map
        for F, refused in ((map2d, False), (map3d, True)):
            calls.update(dict.fromkeys(calls, 0))
            offenders = _transversality_report(
                F, enumerate_tuple_faces(delta0(F)))
            assert len(offenders) > 1 if refused else offenders == []
            assert calls == {"decomposition": 0, "analyze_gamma": 0,
                             "cayley_profiles": 1}

    def test_agrees_with_the_all_face_gate(self, map3d):
        rng = random.Random(1103)
        maps = [map3d, TWO_OF_THREE_OFFENDER]
        maps += [random_map(rng, n=3, min_terms=3, max_terms=3, exp_range=2)
                 for _ in range(40)]
        maps += [random_map(rng, n=2, min_terms=2, max_terms=3, exp_range=2,
                            val_range=1) for _ in range(40)]
        refused = {2: 0, 3: 0}
        face_offenders = {2: 0, 3: 0}
        for F in maps:
            faces = enumerate_tuple_faces(delta0(F))
            offenders = reference_transversality_report(F, faces)
            assert _transversality_report(F, faces) == offenders
            refused[F.n] += bool(offenders)
            face_offenders[F.n] += len(offenders[1:])
            if F is TWO_OF_THREE_OFFENDER:
                assert not faces[42].argmax[0]
                assert 42 in [o["face"] for o in offenders]
            expected = _pieces_or_refusal(lambda: _all_face_pieces(F, faces))
            for build in (lambda: tnp_set(F, faces=faces), lambda: tnp_set(F)):
                got = _pieces_or_refusal(lambda: [
                    (p.polyhedron.canonical_key(), p.face_id, p.cell_id)
                    for p in build().pieces])
                assert got == expected
        assert all(0 < refused[n] < 40 for n in (2, 3)), refused
        assert all(face_offenders.values()), face_offenders


MAP2D_REFUSED = fixture_path("map2d_refused.json")

#: what compute writes to stderr on map2d_refused, whose set the polyhedral
#: recipe would miss a 2-dimensional piece of
MAP2D_REFUSAL = """transversality violation; offending cells:
  face=None (2,3) (3,3) | (0,4) (2,3) (2,4): rank 2 < 1 + 2
  face=None (2,3) (3,3) | (0,4) (2,4): rank 1 < 1 + 1
  face=11 (2,3) (3,3) | (0,4) (2,4): rank 1 < 1 + 1
"""

#: every command that builds the set, as it runs on a map of n = 2 or 3
SET_BUILDERS = {
    "newton": lambda path, tmp: ["newton", "--input", path],
    "oracle-grid": lambda path, tmp: ["oracle", "--input", path, "--grid",
                                      "--res", "3"],
    "plot": lambda path, tmp: ["plot", "--input", path, "--svg",
                               str(tmp / "p.svg")],
}


class TestOneGate:
    """Every command that builds the set passes compute's transversality
    gate first, and refuses what compute refuses, in the same words."""

    def test_compute_refuses_map2d_refused(self, capsys):
        assert run(capsys, "compute", "--input", MAP2D_REFUSED) \
            == (2, "", MAP2D_REFUSAL)

    @pytest.mark.parametrize("command", sorted(SET_BUILDERS))
    def test_set_builders_refuse_it_alike(self, tmp_path, capsys, command):
        argv = SET_BUILDERS[command](MAP2D_REFUSED, tmp_path)
        assert run(capsys, *argv) == (2, "", MAP2D_REFUSAL)
        assert not (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize("command", ["newton", "oracle-grid"])
    def test_map3d_is_refused_alike(self, tmp_path, capsys, command):
        with open(fixture_path("map3d_refusal.stderr"), encoding="utf-8") as fh:
            expected = fh.read()
        argv = SET_BUILDERS[command](fixture_path("map3d.json"), tmp_path)
        assert run(capsys, *argv) == (2, "", expected)

    def test_the_oracle_still_answers_points(self, capsys):
        # the oracle never consults the engine, so the gate does not hold it
        code, out, err = run(capsys, "oracle", "--input", MAP2D_REFUSED,
                             "--point=0,0")
        assert code == 0 and not err
        assert json.loads(out)["verdict"]["member"] is True

    @pytest.mark.parametrize("argv", [
        ["compute"], ["faces"], ["newton"], ["oracle", "--point=-2,-4"],
        ["oracle", "--grid", "--res", "3"], ["plot", "--svg", "p.svg"]],
        ids=["compute", "faces", "newton", "oracle-point", "oracle-grid",
             "plot"])
    def test_every_reader_prints_the_notices(self, tmp_path, capsys,
                                             monkeypatch, argv):
        # map2d with its first coefficient given as a series whose
        # coefficient part "pi" is not rational
        with open(MAP2D, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["maps"][0][0] = {"exp": [0, 1], "series": "pi t^0"}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv[:1], "--input", str(path),
                             *argv[1:])
        assert code == 0
        assert err == ("notice: non-rational coefficient part 'pi' in "
                       "'pi t^0' discarded; only the exponent of t matters\n")


class TestOracleCommand:
    def test_point_verdict(self, capsys):
        code, out, _ = run(capsys, "oracle", "--input", fixture_path("map2d.json"),
                           "--point=-2,-4")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"]["member"] is True
        assert doc["verdict"]["ray"] == [1, -2]

    def test_grid_against_a_document_without_pieces(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(EMPTY_SET_MAP))
        out = tmp_path / "c.json"
        code, _, _ = run(capsys, "compute", "--input", str(f), "--output", str(out))
        assert code == 0
        assert json.loads(out.read_text())["tnp"]["pieces"] == []
        code, text, err = run(capsys, "oracle", "--input", str(f), "--grid",
                              "--res", "3", "--against", str(out))
        assert code == 0, err
        grid = json.loads(text)["grid"]
        assert grid["points"] == 9
        assert grid["members"] == 0 and grid["mismatches"] == []

    def test_grid_against_compute_output(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run(capsys, "compute", "--input", fixture_path("map2d.json"),
            "--output", str(out))
        code, text, _ = run(capsys, "oracle", "--input",
                            fixture_path("map2d.json"), "--grid",
                            "--box=-6,4", "--res", "5",
                            "--against", str(out))
        assert code == 0
        doc = json.loads(text)
        assert doc["grid"]["points"] == 25
        assert doc["grid"]["mismatches"] == []


class TestFacesCommand:
    def test_2d_table(self, capsys):
        code, out, _ = run(capsys, "faces", "--input", fixture_path("map2d.json"))
        assert code == 0
        doc = json.loads(out)
        table = doc["tuple_faces"]
        assert len(table) == 8
        hot = [f for f in table if f["dicritical"] and f["pre_origin"]]
        assert len(hot) == 1
        assert hot[0]["witness_normal"] == [1, -2]
        assert hot[0]["origin"] is True

    def test_3d_table_reproduces_the_classification(self, capsys):
        code, out, _ = run(capsys, "faces", "--input", fixture_path("map3d.json"))
        assert code == 0
        table = json.loads(out)["tuple_faces"]
        red = [f for f in table if f["witness_normal"] == [1, -1, 0]]
        assert red and red[0]["strictly_pre_origin"] and red[0]["dicritical"]
        bottom = [f for f in table if f["witness_normal"] == [0, 0, -1]]
        assert bottom and bottom[0]["origin"] and not bottom[0]["dicritical"]


class TestNewtonCommand:
    def test_from_input(self, capsys):
        code, out, _ = run(capsys, "newton", "--input", fixture_path("map2d.json"))
        assert code == 0
        fan = json.loads(out)["fan"]
        assert fan["face_vector"] == [4, 4]
        assert sorted(map(tuple, fan["facet_normals"])) \
            == [(-1, -1), (-1, 0), (0, -1), (1, 1)]

    def test_from_tnp_document(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run(capsys, "compute", "--input", fixture_path("map2d.json"),
            "--output", str(out))
        code, text, _ = run(capsys, "newton", "--tnp", str(out))
        assert code == 0
        assert json.loads(text)["fan"]["face_vector"] == [4, 4]
        assert text == run(capsys, "newton", "--input",
                           fixture_path("map2d.json"))[1]

    def test_document_pieces_are_taken_as_canonical(self, tmp_path, capsys,
                                                    monkeypatch):
        out = tmp_path / "c.json"
        run(capsys, "compute", "--input", fixture_path("map2d.json"),
            "--output", str(out))

        def recomputed(pieces):
            raise AssertionError("canonical union recomputed")
        monkeypatch.setattr(TNPSet, "_canonical_union",
                            staticmethod(recomputed))
        assert run(capsys, "newton", "--tnp", str(out))[0] == 0
        assert run(capsys, "oracle", "--input", fixture_path("map2d.json"),
                   "--grid", "--res", "3", "--against", str(out))[0] == 0

    def test_a_lone_ray_is_no_corner_locus(self, tmp_path, capsys):
        # one complement region lies on both sides of the ray
        doc = tmp_path / "ray.json"
        doc.write_text(json.dumps(orthant_document(2)))
        code, out, err = run(capsys, "newton", "--tnp", str(doc))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_tnp_honours_the_dimension_cap(self, tmp_path, capsys,
                                           monkeypatch):
        doc = tmp_path / "orthant.json"
        doc.write_text(json.dumps(orthant_document(5)))

        def geometry(*args):
            raise AssertionError("geometry ran above the cap")

        for name in ("poly_from_json", "recover_fan"):
            monkeypatch.setattr(cli, name, geometry)
        assert run(capsys, "newton", "--tnp", str(doc)) \
            == (3, "", "error: dimension 5 exceeds cap 4\n")
        assert run(capsys, "newton", "--tnp", str(doc), "--dim-cap", "2") \
            == (3, "", "error: dimension 5 exceeds cap 2\n")


def _fuzz_piece(n):
    """A piece of a tnp/1 document: points in [-2, 2]^n, rays and lines in
    {-1, 0, 1}^n, kept when its dimension is at most n - 1."""
    coords = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    units = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    return st.fixed_dictionaries({
        "vertices": st.lists(coords.map(lambda v: list(map(str, v))),
                             min_size=1, max_size=3),
        "rays": st.lists(units, max_size=2),
        "lineality": st.lists(units, max_size=n - 1),
    }).filter(lambda piece: cli.poly_from_json(piece, n).dim <= n - 1)


_fuzz_documents = st.sampled_from([2, 3]).flatmap(
    lambda n: st.fixed_dictionaries({
        "schema": st.just("tnp/1"), "n": st.just(n),
        "tnp": st.fixed_dictionaries(
            {"pieces": st.lists(_fuzz_piece(n), min_size=1, max_size=4)})}))


#: the three coordinate planes of R^3, the corner locus of a cube's
#: polynomial: Euler's relation at n = 3, which the draws rarely reach
_COORDINATE_PLANES = {"schema": "tnp/1", "n": 3, "tnp": {"pieces": [
    {"vertices": [["0", "0", "0"]], "rays": [],
     "lineality": [[int(j == k) for j in range(3)] for k in range(3) if k != i]}
    for i in range(3)]}}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fuzz_documents)
@example(_COORDINATE_PLANES)
def test_newton_tnp_fuzz(tmp_path_factory, doc):
    # a fan or one line of refusal; a full-dimensional polytope obeys
    # Euler's relation
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["newton", "--tnp", str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1), (code, err)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and not out
        return
    fan = json.loads(out)["fan"]
    n = doc["n"]
    if fan["span_dim"] == n:
        assert sum((-1) ** j * f for j, f in enumerate(fan["face_vector"])) \
            == 1 - (-1) ** n, fan


def orthant_document(n):
    """A tnp/1 document whose one piece is the orthant cone{e_1, ...,
    e_(n-1)} in R^n."""
    return {"schema": "tnp/1", "n": n, "tnp": {"pieces": [{
        "vertices": [["0"] * n],
        "rays": [[int(j == i) for j in range(n)] for i in range(n - 1)],
        "lineality": []}]}}


class TestPlotCommand:
    def test_svg_counts(self, tmp_path, capsys):
        svg = tmp_path / "p.svg"
        code, _, _ = run(capsys, "plot", "--input", fixture_path("map2d.json"),
                         "--svg", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.count('class="tnp"') == 5
        assert text.count('class="tnp-vertex"') == 2
        assert 'class="cell"' in text

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "plot", "--input", fixture_path("map2d.json"), "--svg", str(a))
        run(capsys, "plot", "--input", fixture_path("map2d.json"), "--svg", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_set_keeps_only_the_gray_skeleton(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(EMPTY_SET_MAP))
        svg = tmp_path / "e.svg"
        code, _, _ = run(capsys, "plot", "--input", str(f), "--svg", str(svg))
        assert code == 0
        text = svg.read_text()
        assert 'class="cell"' in text
        assert 'class="tnp"' not in text

    def test_dimension_three_is_refused(self, capsys):
        code, _, _ = run(capsys, "plot", "--input", fixture_path("map3d.json"),
                         "--svg", "/tmp/never.svg")
        assert code == 4

    def test_far_window_clips_rays_exactly(self, tmp_path, capsys):
        # the piece (4, 0) + R>=0 (1, 1) crosses the window from (104, 100)
        # to (110, 106), far beyond its vertex
        svg = tmp_path / "w.svg"
        code, _, _ = run(capsys, "plot", "--input", fixture_path("map2d.json"),
                         "--svg", str(svg), "--window=100,110;100,110")
        assert code == 0
        lines = [t for t in svg.read_text().splitlines() if 'class="tnp"' in t]
        assert len(lines) == 1
        assert 'x1="256.000" y1="640.000" x2="640.000" y2="256.000"' in lines[0]

    def test_overlay_point(self, tmp_path, capsys):
        svg = tmp_path / "o.svg"
        code, _, _ = run(capsys, "plot", "--input", fixture_path("map2d.json"),
                         "--svg", str(svg), "--point=-2,-4")
        assert code == 0
        assert 'class="virtual"' in svg.read_text()


def _fraction_text(v):
    """rat_str as first written: through a Fraction for every input."""
    f = F(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


_rationals = (st.integers() | st.fractions()
              | st.tuples(st.integers(), st.integers(1, 10 ** 6)).map(
                  lambda t: f"{t[0]}/{t[1]}")
              | st.integers().map(str))


class TestSerialization:
    def test_rationals_as_strings(self):
        assert rat_str(F(3, 2)) == "3/2"
        assert rat_str(F(-4)) == "-4"
        assert F(rat_str(F(22, 7))) == F(22, 7)

    @settings(max_examples=300, deadline=None)
    @given(_rationals)
    def test_same_text_as_through_a_fraction(self, v):
        assert rat_str(v) == _fraction_text(v)


#: sha256 of the documents as first written by `json.dumps`; any change to
#: the engine, the face table or the writer that moves a byte shows here
PINNED_DOCUMENTS = [
    (["compute", "--input", "map2d.json"],
     "74085549e620ec6b234e08480aadfb07c5d261c6cc6d35723e021435931c2e44"),
    # a "--product" row is the document of conftest.product_set with
    # "assembly": "product", as `compute --product` wrote it when the
    # product closure was an option of the program
    (["compute", "--input", "map2d.json", "--product"],
     "ad6ad047d1294e3d0681b590693e126a11580899854b90a7f33490befaefc965"),
    (["compute", "--input", "map2d_deg.json"],
     "fa4071f18be5ad74d3295320cc01fba87dc6ce95e1ea7e31cda51300793ac1e7"),
    (["compute", "--input", "map2d_deg.json", "--product"],
     "5b5faca4b4cb0d4774c487a14abf046d3c2c7a53da97b83cb50f7eec5e4dc0a2"),
    (["compute", "--input", "map3d_product.json"],
     "f17460e62b435bc8ca2acb312c205332fe938cf5467b6a0ed28d8259be5e906d"),
    (["compute", "--input", "map3d_product.json", "--product"],
     "ed7a524bfc00a58cf15ce4d20353f52a28c7d1819da8fa700809df78521556ea"),
    # two staircase pieces; the product set is one plane, reached through a
    # bending coordinate whose supremum over its cell is unbounded
    (["compute", "--input", "map3d_unbounded.json"],
     "69960e0ea8375176969de509ad898723d3918ec60ddabe8a667000db14116dc1"),
    (["compute", "--input", "map3d_unbounded.json", "--product"],
     "9447eaeca46fee48cad6aa2f6dbefcba61697a3744902d9c2324090c70f09e0b"),
    (["faces", "--input", "map3d.json"],
     "d7bc5460a3c051d6387bcfd00a34d6ef1e35f63b14460eccbcc174ec7920f4c7"),
    (["faces", "--input", "map2d.json"],
     "6efc509df7955375591520756b4aa314a4e88917f6e152e82c1abe52140575ba"),
    (["faces", "--input", "map2d_deg.json"],
     "543e4e41cb8a16a5c9000489169efdeed3f12f6a5ecb897b9fe0e1b0175cc3f1"),
    # Delta0 is a segment: the improper face is written too
    (["faces", "--input", "map2d_flat.json"],
     "65f9f3b05cccf4952a852e3fcf26c5c4611e13d25befc619e46a80d8e68cf19d"),
    (["compute", "--input", "map2d_flat.json"],
     "151e65ab8a4238cb8584adb4e2251e59a916bb1b84b52703372dc91e4e1e558f"),
]


@pytest.mark.parametrize("argv, digest", PINNED_DOCUMENTS,
                         ids=[" ".join(a) for a, _ in PINNED_DOCUMENTS])
def test_document_bytes_are_pinned(capsys, argv, digest):
    argv = [fixture_path(a) if a.endswith(".json") else a for a in argv]
    if "--product" in argv:
        out = _product_document(argv[argv.index("--input") + 1])
    else:
        code, out, err = run(capsys, *argv)
        assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _product_document(path):
    """The text of the compute document of the product closure."""
    F, _ = load_input(path)
    faces = enumerate_tuple_faces(delta0(F))
    assert not _transversality_report(F, faces)
    tnp = cli.tnp_json(product_set(F))
    tnp["assembly"] = "product"
    doc = {"schema": cli.SCHEMA, "n": F.n, "tnp": tnp,
           "tuple_faces": cli.faces_json(faces),
           "transversality": {"ok": True, "offending": []}}
    return dump_doc(doc, os.devnull)


_scalars = (st.none() | st.booleans() | st.integers()
            | st.text(alphabet=st.characters(codec="utf-8"))
            | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é☃𝄞", ""]))
_documents = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20)


class TestDocumentWriter:
    """dump_doc writes what json.dumps(indent=2, sort_keys=True) writes."""

    @settings(max_examples=300, deadline=None)
    @given(_documents, _documents)
    def test_matches_json_dumps(self, doc, shared):
        # a sub-object shared at two depths, as member faces are shared
        doc = {"doc": doc, "shared": shared, "deeper": [[shared], {"s": shared}]}
        assert dump_doc(doc, os.devnull) \
            == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_empty_containers_and_bools_next_to_ints(self):
        doc = {"a": [], "b": {}, "c": [True, 1, False, 0, None, -7],
               "d": [[], [{}]]}
        assert dump_doc(doc, os.devnull) \
            == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("bad", [1.5, (1, 2), {1: "x"}],
                             ids=["float", "tuple", "int-key"])
    def test_other_types_are_refused(self, bad):
        with pytest.raises(TypeError):
            dump_doc({"x": [bad]}, os.devnull)
