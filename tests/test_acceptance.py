"""Acceptance criteria, one test per criterion, each printing a PASS line
when its assertions hold (run with -s or -v to see them).

All tolerances are exact (rational arithmetic end to end); the only budgets
are wall-clock ones, asserted per criterion.
"""

import time
from fractions import Fraction

import pytest

from tropnp.cli import main as cli_main, parse_output_doc
from tropnp.engine import tnp_set
from tropnp.geom import Polyhedron
from tropnp.newton import recover_fan
from tropnp.oracle import boundary_samples, grid_compare, in_tnp

from conftest import (corner_locus_pieces, covered_by_union, fixture_path,
                      union_equal)
from property_suite import Disagreement, run_suite, summarize

F = Fraction

SUITE_SIZE = 200
SUITE_SEED = 20240607


def report(num, name, elapsed=None):
    stamp = f" [{elapsed:.1f} s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num}: PASS - {name}{stamp}")


@pytest.fixture(scope="module")
def engine_set(map2d):
    return tnp_set(map2d)


@pytest.fixture(scope="module")
def suite_reports():
    t0 = time.time()
    reports = run_suite(SUITE_SIZE, seed=SUITE_SEED)
    return reports, time.time() - t0


def test_criterion_1_end_to_end_equality(tmp_path, map2d_target_terms):
    """The computed set equals the known corner locus, exactly."""
    t0 = time.time()
    out = tmp_path / "c.json"
    code = cli_main(["compute", "--input", fixture_path("map2d.json"),
                     "--output", str(out)])
    assert code == 0
    parsed = parse_output_doc(out.read_text())
    target = corner_locus_pieces(map2d_target_terms, 2)
    assert union_equal(parsed["tnp_pieces"], target)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(1, "computed set equals the reference corner locus exactly", elapsed)


def test_criterion_2_oracle_grid_and_boundaries(map2d, engine_set):
    t0 = time.time()
    grid = grid_compare(map2d, engine_set, box=[(-12, 4), (-12, 4)],
                        resolution=33)
    assert grid.points == 33 * 33
    assert grid.mismatches == []
    samples = boundary_samples(engine_set, minimum=50)
    assert len(samples) >= 50
    for p in samples:
        assert engine_set.membership(p)
        assert in_tnp(map2d, p).member
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, f"33x33 grid: 0 mismatches; {len(samples)} boundary points agree",
           elapsed)


def test_criterion_3_witness_rays(map2d):
    labeled = {
        "slope-one ray at the left vertex": (-2, -4),
        "bounded segment": (2, -1),
        "slope-one ray at the right vertex": (6, 2),
        "horizontal ray": (-3, -2),
        "vertical ray": (4, -5),
    }
    for name, point in labeled.items():
        verdict = in_tnp(map2d, point)
        assert verdict.member, name
        assert verdict.ray == (1, -2), name
    report(3, "all five labeled pieces witness the ray (1, -2)")


def test_criterion_4_three_dimensional_containment(map3d):
    t0 = time.time()
    s = tnp_set(map3d)
    plane = Polyhedron.from_hrep(3, [], [((1, 0, 0), -1)])
    assert covered_by_union(plane, s.polytopes)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(4, "the plane {y1 = -1} x R^2 is contained exactly", elapsed)

    # stretch target (non-blocking): corner locus of the degree-4 output
    # polynomial of the second distinguished face
    stretch = {(0, 0, 0): F(-4), (1, 0, 0): F(-1), (0, 0, 1): F(-3),
               (2, 0, 0): F(-1), (1, 0, 1): F(0), (0, 0, 2): F(-3),
               (1, 0, 2): F(-1), (0, 0, 3): F(-4), (0, 0, 4): F(-7)}
    pieces = corner_locus_pieces(stretch, 3)
    uncovered = [p for p in pieces if not covered_by_union(p, s.polytopes)]
    if uncovered:
        # confirmed against the definition: sampled points of the uncovered
        # parts are genuinely outside the set, so the stretch target is not
        # a subset for this map; reported, not asserted
        outside = sum(
            1 for p in uncovered
            if not in_tnp(map3d, p.relative_interior_point()).member)
        print(f"ACCEPTANCE 4 (stretch, non-blocking): {len(uncovered)}/"
              f"{len(pieces)} stretch pieces not contained; oracle confirms "
              f"{outside}/{len(uncovered)} sampled points lie outside the set")
    else:
        print("ACCEPTANCE 4 (stretch, non-blocking): stretch locus contained")


def test_criterion_5_newton_recovery(engine_set):
    fan = recover_fan(engine_set)
    assert fan.face_vector == (4, 4)
    assert set(fan.facet_normals) == {(0, -1), (1, 1), (-1, 0), (-1, -1)}
    report(5, "face vector (4, 4) and the four facet normals recovered")


def test_criterion_6_randomized_property_suite(suite_reports):
    reports, elapsed = suite_reports
    assert len(reports) == SUITE_SIZE
    for r in reports:
        assert r.duality_ok, f"duality violation on map {r.seed_index}"
        assert r.pieces_ok, f"dimension bound broken on map {r.seed_index}"
        assert r.non_pre_origin_ok, f"non-pre-origin leak on map {r.seed_index}"
        assert r.bijection_ok, f"bijection broken on map {r.seed_index}"
        assert r.gate_implication_ok, \
            f"transversal full complex, offending restricted one on map " \
            f"{r.seed_index}"
        assert r.cayley_verdict_ok, \
            f"Cayley verdict differs from the full complex on map " \
            f"{r.seed_index}"
        if r.oracle_checked:
            assert r.oracle_ok, f"oracle mismatch on map {r.seed_index}"
        assert r.balanced, f"unbalanced output on map {r.seed_index}"
        assert r.ends_ok, \
            f"a component without a nonnegative end on map {r.seed_index}"
    checked = sum(r.oracle_checked for r in reports)
    impure = sum(r.impure for r in reports)
    assert checked > 0
    assert elapsed < 600.0
    report(6, f"{SUITE_SIZE} random maps clean; {checked} oracle-verified, "
              f"balanced, every component with a nonnegative end; "
              f"{impure} impure", elapsed)


def test_criterion_7_product_versus_staircase_probe(suite_reports):
    reports, _ = suite_reports
    disagreements = [d for r in reports for d in r.disagreements]
    unclassified = sum(r.unclassified for r in reports)
    assert unclassified == 0
    for d in disagreements:
        # the shipped default (the coupled staircase assembly) must be the
        # oracle-agreeing variant wherever the two unions differ
        assert d.oracle_favors in ("staircase", "both"), (
            f"oracle favors {d.oracle_favors} on face {d.face_id}, "
            f"cell {d.cell_id} at {d.probe}")
        assert d.oracle_member == d.staircase_union
    _write_probe_report(reports, disagreements)
    report(7, f"{len(disagreements)} assembly disagreements, all classified, "
              "0 unclassified")


def _write_probe_report(reports, disagreements):
    lines = ["product-versus-staircase probe", summarize(reports)]
    for d in disagreements:
        lines.append(
            f"  face {d.face_id} cell {d.cell_id} probe {d.probe}: "
            f"oracle={d.oracle_member} product={d.product_union} "
            f"staircase={d.staircase_union} -> favors {d.oracle_favors}")
    print("\n".join(lines))


def test_probe_report_names_each_disagreement(capsys):
    d = Disagreement(face_id=3, cell_id=1, probe=(F(1, 2), F(0)),
                     oracle_member=True, product_union=False,
                     staircase_union=True)
    _write_probe_report([], [d])
    assert ("  face 3 cell 1 probe (Fraction(1, 2), Fraction(0, 1)): "
            "oracle=True product=False staircase=True -> favors staircase"
            in capsys.readouterr().out.splitlines())
