import json
from fractions import Fraction

import pytest

from tropnp.cli import (main, parse_input_spec, parse_output_doc, rat_str)
from tropnp.geom import union_equal
from tropnp.subdivision import corner_locus_pieces

from conftest import fixture_path

F = Fraction

#: a planar map whose non-properness set is empty
EMPTY_SET_MAP = {"n": 2, "maps": [
    [{"exp": [1, 0], "val": "0"}, {"exp": [0, 1], "val": "0"}],
    [{"exp": [1, 1], "val": "0"}, {"exp": [2, 1], "val": "3"}]]}


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
    (_doc([{"exp": [1, 0], "val": "1/0"}]), []),
    (_doc([GOOD_TERM], n=2.5), []),
    (None, ["--point=1,x"]),
    (None, ["--point=1,2,3"]),
], ids=["term-not-an-object", "non-integer-exponent", "zero-series",
        "zero-denominator", "non-integer-n", "non-rational-point",
        "point-of-wrong-dimension"])
def test_malformed_input_exits_1_with_one_line(tmp_path, capsys, doc, extra):
    if doc is None:
        cmd, path = "oracle", fixture_path("map2d.json")
    else:
        cmd, path = "compute", tmp_path / "m.json"
        path.write_text(json.dumps(doc))
    code, _, err = run(capsys, cmd, "--input", str(path), *extra)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


MAP2D = fixture_path("map2d.json")


@pytest.mark.parametrize("argv, names", [
    (["newton", "--tnp", MAP2D], [MAP2D, "schema"]),
    (["oracle", "--input", MAP2D, "--grid", "--against", MAP2D],
     [MAP2D, "schema"]),
    (["oracle", "--input", MAP2D, "--grid", "--res=0"], ["--res"]),
    (["oracle", "--input", MAP2D, "--grid", "--res=-3", "--box=0,1"],
     ["--res"]),
], ids=["newton-tnp-on-an-input", "against-an-input", "res-zero",
        "res-negative"])
def test_refused_arguments_exit_1_with_one_line(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(name in err for name in names), err


def test_output_document_without_pieces_is_refused(tmp_path, capsys):
    for doc, missing in [({"schema": "tnp/1", "n": 2}, "'tnp'"),
                         ({"schema": "tnp/1", "n": 2, "tnp": {"pieces": [
                             {"vertices": [["x", "1"]], "rays": [],
                              "lineality": []}]}}, "piece 0")]:
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "newton", "--tnp", str(f))
        assert code == 1
        assert err.count("\n") == 1 and str(f) in err and missing in err, err


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
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "compute", "--input", fixture_path("map2d.json"),
            "--output", str(a))
        run(capsys, "compute", "--input", fixture_path("map2d.json"),
            "--staircase", "--output", str(b))
        assert json.loads(a.read_text())["tnp"]["assembly"] == "staircase"
        assert a.read_bytes() == b.read_bytes()

    def test_product_flag(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code, _, _ = run(capsys, "compute", "--input", fixture_path("map2d.json"),
                         "--product", "--output", str(out))
        assert code == 0
        assert json.loads(out.read_text())["tnp"]["assembly"] == "product"

    def test_transversality_violation_exits_2(self, tmp_path, capsys):
        # the same curve twice overlaps itself: nothing is transversal
        comp = [{"exp": [1, 0], "val": "0"}, {"exp": [0, 1], "val": "0"},
                {"exp": [1, 1], "val": "2"}]
        f = tmp_path / "dup.json"
        f.write_text(json.dumps({"n": 2, "maps": [comp, comp]}))
        code, _, err = run(capsys, "compute", "--input", str(f))
        assert code == 2
        assert "transversality" in err


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

    def test_overlay_point(self, tmp_path, capsys):
        svg = tmp_path / "o.svg"
        code, _, _ = run(capsys, "plot", "--input", fixture_path("map2d.json"),
                         "--svg", str(svg), "--point=-2,-4")
        assert code == 0
        assert 'class="virtual"' in svg.read_text()


class TestSerialization:
    def test_rationals_as_strings(self):
        assert rat_str(F(3, 2)) == "3/2"
        assert rat_str(F(-4)) == "-4"
        assert F(rat_str(F(22, 7))) == F(22, 7)
