"""One benchmark workload in one process.

run.py starts this file once per set-up measurement and once per measured
pass, so the process-global ``_factor_cells`` cache and the peak RSS never
carry over from one workload or pass to the next.  The worker imports tropnp
from ``src/`` of the checkout it lives in, makes its inputs from the seed,
runs jobs, checks every output, and prints one JSON object as the last line
of its standard output.

Modes:
  setup    set up and exit (run.py times whole processes of this mode)
  measure  run jobs until --seconds of program time have been spent
  trace    run the first --jobs jobs with the tracer installed
  replay   run the first --jobs jobs untraced (the tracer's baseline)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tropnp import cli, engine, oracle, subdivision  # noqa: E402

import tracer as tracing  # noqa: E402

REFERENCES = HERE / "references"
FIXTURES = HERE / "fixtures"

# Map pools are generated in set-up; a run that exhausts one stops early and
# says so.  The sizes leave room for a program several times faster.
POOL = {"compute-planar": 2500, "compute-3d": 300}
ROUNDS = 15                 # oracle-grid rounds generated in set-up
# The point path of a round: BOUNDARY_PER_ROUND of the set's boundary samples
# (15 rounds use 45 of the 51 each fixture gives, so no point repeats) and
# POINTS_PER_PIECE seeded points on every piece.  Verdict costs cluster by
# piece (map2d pieces at about 18-29 ms, map3d ones at 55-165 ms), so the
# median of a mix drawn at random jumps between clusters from seed to seed;
# with the same count per piece in every round it stays inside the map2d
# cluster.
BOUNDARY_PER_ROUND = 3
POINTS_PER_PIECE = {"map2d": 12, "map3d": 1}
# Grid resolution per axis: about 4 s of grid path and 2.5 s of point path
# per round, so that a run holds several rounds, the grid rate is a median
# over them and the verdict median has several hundred samples.
GRID_RES = {"map2d": 11, "map3d": 4}
# Unreferenced nonempty outputs checked against the oracle, and pieces per map.
SPOT_MAPS = {"compute-planar": 40, "compute-3d": 8}
SPOT_PIECES = 3
# A measured run goes on past --seconds until this many jobs are done, and
# reports its peak RSS after exactly this many: the unbounded factor-cell
# cache grows with every map, so a peak over a time window would grow with
# the program's speed.
RSS_JOBS = {"compute-planar": 300, "compute-3d": 20, "oracle-grid": 3}
# newton --tnp runs on nonempty compute-3d documents of at most this many
# pieces.  Its cost grows steeply with the piece count: at the baseline
# commit it took 0.02-0.1 s on up to 5 pieces, 4.5 s and 60 MB on one 6-piece
# output (seed 6, map 8), and 1-34 s and up to 400 MB on 8- to 18-piece ones,
# where one map would set a whole run's figures.  Skipped documents are
# counted and reported.
NEWTON_MAX_PIECES = 6


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def geometry_digest(doc) -> str:
    """Canonical piece geometry of a tnp/1 document, without the piece ids
    and provenance that a change to cell numbering may legitimately alter."""
    pieces = [{k: v for k, v in p.items() if k not in ("id", "provenance")}
              for p in doc["tnp"]["pieces"]]
    pieces.sort(key=lambda p: json.dumps(p, sort_keys=True))
    return digest({"assembly": doc["tnp"]["assembly"], "pieces": pieces})


def call_cli(argv):
    """(exit code, stderr text); a traceback becomes the code 'traceback'."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the benchmark counts it as a failed job
            code = "traceback"
            err.write(traceback.format_exc())
    return code, err.getvalue()


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def random_map(rng, n, min_terms, max_terms, max_exp):
    """An input document: n components, integer coefficients in [-9, 9],
    nonzero exponent vectors with entries in [0, max_exp]."""
    maps = []
    for _ in range(n):
        k = rng.randint(min_terms, max_terms)
        exps = set()
        while len(exps) < k:
            e = tuple(rng.randint(0, max_exp) for _ in range(n))
            if any(e):
                exps.add(e)
        maps.append([{"exp": list(e), "val": str(rng.randint(-9, 9))}
                     for e in sorted(exps)])
    return {"n": n, "maps": maps}


def map_pool(workload, seed):
    """Distinct maps in stream order.  compute-planar draws what the
    randomized acceptance suite draws (1-5 terms, exponents 0..4);
    compute-3d draws three terms per component with exponents in {0, 1, 2},
    a bias that makes most outputs nonempty, and starts with the map3d
    fixture."""
    rng = random.Random(f"{workload}:{seed}")
    docs, seen = [], set()
    if workload == "compute-3d":
        docs.append(json.loads((FIXTURES / "map3d.json").read_text()))
        seen.add(json.dumps(docs[0], sort_keys=True))
    while len(docs) < POOL[workload]:
        doc = (random_map(rng, 2, 1, 5, 4) if workload == "compute-planar"
               else random_map(rng, 3, 3, 3, 2))
        key = json.dumps(doc, sort_keys=True)
        if key not in seen:
            seen.add(key)
            docs.append(doc)
    return docs


def _is_prime(q):
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def generic_offsets(rng, dens, count):
    """Distinct offsets 1/q, q a prime coprime to every denominator: the
    grid offsets the oracle's own generic_offset would accept."""
    out, seen = [], set()
    while len(out) < count:
        q = rng.randrange(1000, 3000)
        while not _is_prime(q):
            q += 1
        if q not in seen and q > max(dens) + 1 and all(math.gcd(q, d) == 1
                                                       for d in dens):
            seen.add(q)
            out.append(Fraction(1, q))
    return out


def on_set_point(rng, piece):
    """A seeded point of a piece: a positive combination of its vertices
    plus small rational multiples of its rays and lineality."""
    verts = sorted(piece.vertices)
    weights = [rng.randint(1, 30) for _ in verts]
    total = sum(weights)
    pt = [sum(w * v[i] for w, v in zip(weights, verts)) / total
          for i in range(piece.n)]
    for r in sorted(piece.rays):
        c = Fraction(rng.randint(0, 120), rng.randint(1, 8))
        pt = [x + c * y for x, y in zip(pt, r)]
    for l in sorted(piece.lineality):
        c = Fraction(rng.randint(-120, 120), rng.randint(1, 8))
        pt = [x + c * y for x, y in zip(pt, l)]
    return tuple(pt)


def point_rounds(rng, s, key):
    """ROUNDS lists of distinct points on the set: each round has
    BOUNDARY_PER_ROUND of oracle.boundary_samples (seeded order, none used
    twice) and POINTS_PER_PIECE seeded points on every piece, shuffled."""
    samples = sorted(set(oracle.boundary_samples(s)))
    rng.shuffle(samples)
    if len(samples) < ROUNDS * BOUNDARY_PER_ROUND:
        raise RuntimeError("point_rounds: too few boundary samples")
    seen = set(samples)
    rounds = []
    for k in range(ROUNDS):
        pts = samples[k * BOUNDARY_PER_ROUND:(k + 1) * BOUNDARY_PER_ROUND]
        for piece in s.polytopes:
            for _ in range(POINTS_PER_PIECE[key]):
                for _ in range(1000):
                    p = on_set_point(rng, piece)
                    if p not in seen:
                        break
                else:
                    raise RuntimeError("point_rounds: too few distinct "
                                       "points on a piece")
                seen.add(p)
                pts.append(p)
        rng.shuffle(pts)
        rounds.append(pts)
    return rounds


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class ComputeWorkload:
    """tropnp compute on each map, then newton --tnp on nonempty documents
    (compute-3d only).  One job is one map."""

    def __init__(self, name, seed, tmp, refs):
        self.name = name
        self.tmp = tmp
        self.newton = name == "compute-3d"
        self.docs = map_pool(name, seed)
        seeds = refs.get("seeds", {})
        entries = list(seeds.get(str(seed), []))
        if self.newton:
            entries.insert(0, refs.get("fixture"))
        self.refs = entries
        self.has_seed_ref = str(seed) in seeds
        self.spot_limit = SPOT_MAPS[name]
        self.records = []

    def __len__(self):
        return len(self.docs)

    def job(self, i):
        """Run map i; returns the program seconds spent on it."""
        inp = self.tmp / f"map{i}.json"
        out = self.tmp / f"map{i}.out.json"
        inp.write_text(json.dumps(self.docs[i]))
        t0 = time.perf_counter()
        code, err = call_cli(["compute", "--input", str(inp), "--output", str(out)])
        dt = time.perf_counter() - t0
        rec = {"index": i, "code": code, "problem": None, "digest": None,
               "fan_code": None, "fan_digest": None, "nonempty": False,
               "newton_skipped": False, "seconds": dt}
        if code == 0:
            try:
                doc = json.loads(out.read_text())
                rec["problem"] = self._document_problem(doc)
                rec["digest"] = geometry_digest(doc)
                pieces = len(doc["tnp"]["pieces"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                rec["problem"] = f"unreadable output document: {exc!r}"
                pieces = 0
            rec["nonempty"] = pieces > 0
            rec["newton_skipped"] = self.newton and pieces > NEWTON_MAX_PIECES
            if self.newton and 0 < pieces <= NEWTON_MAX_PIECES:
                fan = self.tmp / f"map{i}.fan.json"
                t0 = time.perf_counter()
                fcode, ferr = call_cli(["newton", "--tnp", str(out),
                                        "--output", str(fan)])
                rec["seconds"] += time.perf_counter() - t0
                rec["fan_code"] = fcode
                if fcode == 0:
                    rec["fan_digest"] = digest(json.loads(fan.read_text())["fan"])
                else:
                    rec["problem"] = f"newton exit {fcode}: {ferr.strip()[-200:]}"
        elif code == cli.EXIT_GENERICITY:
            if not ("transversality violation" in err
                    or "not face-generic" in err):
                rec["problem"] = "exit 2 without a refusal message"
        else:
            rec["problem"] = f"exit {code}: {err.strip()[-200:]}"
        self.records.append(rec)
        return rec["seconds"]

    @staticmethod
    def _document_problem(doc):
        if doc.get("schema") != cli.SCHEMA:
            return "wrong schema"
        if doc["transversality"] != {"ok": True, "offending": []}:
            return "transversality block not ok"
        n = doc["n"]
        if any(p["dim"] > n - 1 for p in doc["tnp"]["pieces"]):
            return "piece of full dimension"
        return None

    def reference(self, i):
        return self.refs[i] if i < len(self.refs) else None

    @staticmethod
    def ref_entry(rec):
        return [rec["code"], rec["digest"], rec["fan_code"], rec["fan_digest"]]

    def check(self):
        """Compare outputs with the references, spot-check the unreferenced
        nonempty ones against the oracle; lines saying what was checked."""
        spot = referenced = 0
        for rec in self.records:
            ref = self.reference(rec["index"])
            referenced += ref is not None
            if rec["problem"] is not None:
                continue
            if ref is not None:
                if self.ref_entry(rec) != ref:
                    rec["problem"] = f"differs from the reference {ref}"
            elif rec["nonempty"] and spot < self.spot_limit:
                spot += 1
                rec["problem"] = self._oracle_spot_check(rec["index"])
        jobs = len(self.records)
        lines = ["every map: exit code 0 with a valid tnp/1 document, or a "
                 "refusal with exit 2"]
        if referenced:
            lines.append(f"{referenced} of {jobs} maps compared with outputs "
                         f"recorded at the baseline commit")
        if referenced < jobs:
            lines.append(
                ("no recorded reference for this seed" if not self.has_seed_ref
                 else f"{jobs - referenced} maps lie beyond the recorded prefix")
                + f"; {spot} of their nonempty outputs checked against the "
                  f"oracle at up to {SPOT_PIECES} piece points each")
        return lines

    def _oracle_spot_check(self, i):
        """Relative interior points of the first pieces must be members by
        the definition-level oracle, which never consults the engine."""
        F, _ = cli.load_input(str(self.tmp / f"map{i}.json"))
        parsed = cli.parse_output_doc((self.tmp / f"map{i}.out.json").read_text())
        for piece in parsed["tnp_pieces"][:SPOT_PIECES]:
            pt = piece.relative_interior_point()
            if not oracle.in_tnp(F, pt).member:
                return f"oracle rejects {tuple(map(str, pt))} of an output piece"
        return None

    def attempted(self):
        return len(self.records)

    def failed(self):
        return sum(1 for r in self.records if r["problem"] is not None)

    def stats(self):
        secs = sorted(r["seconds"] for r in self.records)
        return {
            "jobs": len(self.records),
            "seconds": secs,
            "program_s": sum(secs),
            "refusals": sum(1 for r in self.records if r["code"] == 2),
            "nonempty": sum(1 for r in self.records if r["nonempty"]),
            "newton": sum(1 for r in self.records if r["fan_code"] is not None),
            "newton_skipped": sum(1 for r in self.records if r["newton_skipped"]),
            "newton_max_pieces": NEWTON_MAX_PIECES,
            "failures": [f"map {r['index']}: {r['problem']}"
                         for r in self.records if r["problem"]][:10],
        }


class OracleWorkload:
    """The oracle on the map2d and map3d fixtures.  One job is one round: a
    grid_compare over an 11x11 map2d grid and a 4x4x4 map3d grid, each at a
    fresh seeded generic offset, then in_tnp on the round's points of each
    set (point_rounds)."""

    name = "oracle-grid"

    def __init__(self, name, seed, tmp, refs):
        rng = random.Random(f"{name}:{seed}")
        self.maps = {}
        for key in ("map2d", "map3d"):
            F, _ = cli.load_input(str(FIXTURES / f"{key}.json"))
            s = engine.tnp_set(F)
            dens = {c.denominator for p in F.components for c in p.terms.values()}
            dens |= {Fraction(v).denominator for pair in oracle.default_box(s)
                     for v in pair}
            self.maps[key] = {
                "F": F, "set": s,
                "offsets": generic_offsets(rng, dens, ROUNDS),
                "points": point_rounds(rng, s, key),
            }
        self.refs = refs.get("seeds", {}).get(str(seed), [])
        self.has_seed_ref = str(seed) in refs.get("seeds", {})
        self.records = []
        self.grid_seconds = []
        self.grid_points = 0
        self.round_grid_rates = []
        self.points_attempted = 0
        self.verdict_seconds = []

    def __len__(self):
        return ROUNDS

    def job(self, k):
        rec = {"index": k, "grids": {}, "bits": "", "problems": []}
        spent = 0.0
        points = 0
        for key, m in self.maps.items():
            size = GRID_RES[key] ** m["F"].n
            self.points_attempted += size
            t0 = time.perf_counter()
            try:
                report = oracle.grid_compare(m["F"], m["set"],
                                             resolution=GRID_RES[key],
                                             offset=m["offsets"][k])
            except Exception:
                report = None
                rec["problems"].append((size, traceback.format_exc(limit=2)))
            dt = time.perf_counter() - t0
            spent += dt
            if report is not None:
                self.grid_seconds.append(dt)
                self.grid_points += report.points
                points += report.points
                rec["grids"][key] = [report.points, report.members]
                if report.mismatches:
                    rec["problems"].append(
                        (len(report.mismatches),
                         f"{key}: oracle and engine disagree at "
                         f"{[tuple(map(str, x.point)) for x in report.mismatches[:3]]}"))
        if len(rec["grids"]) == len(self.maps):
            self.round_grid_rates.append(points / spent)
        for key, m in self.maps.items():
            for pt in m["points"][k]:
                self.points_attempted += 1
                t0 = time.perf_counter()
                try:
                    verdict = oracle.in_tnp(m["F"], pt)
                except Exception:
                    verdict = None
                dt = time.perf_counter() - t0
                spent += dt
                self.verdict_seconds.append(dt)
                if verdict is None:
                    rec["bits"] += "x"
                    rec["problems"].append((1, traceback.format_exc(limit=2)))
                    continue
                rec["bits"] += "1" if verdict.member else "0"
                if verdict.member != m["set"].membership(pt):
                    rec["problems"].append(
                        (1, f"{key}: oracle {verdict.member} and engine "
                            f"disagree at {tuple(map(str, pt))}"))
        self.records.append(rec)
        return spent

    @staticmethod
    def ref_entry(rec):
        return [rec["grids"].get("map2d"), rec["grids"].get("map3d"), rec["bits"]]

    def reference(self, k):
        return self.refs[k] if k < len(self.refs) else None

    def check(self):
        """Compare verdicts with the references; lines saying what was
        checked (every verdict was already compared with the engine)."""
        referenced = 0
        for rec in self.records:
            ref = self.reference(rec["index"])
            if ref is None:
                continue
            referenced += 1
            got = self.ref_entry(rec)
            for a, b in zip(got[:2], ref[:2]):
                if a != b:
                    rec["problems"].append(
                        (a[0] if a else 1,
                         f"grid [points, members] {a} differ from the "
                         f"reference {b}"))
            wrong = sum(1 for x, y in zip(got[2], ref[2]) if x != y)
            if wrong:
                rec["problems"].append(
                    (wrong, f"{wrong} point verdicts differ from the reference"))
        jobs = len(self.records)
        lines = ["every verdict compared with the engine set's closed "
                 "membership"]
        if referenced:
            lines.append(f"{referenced} of {jobs} rounds compared with verdicts "
                         f"recorded at the baseline commit")
        if referenced < jobs:
            lines.append("no recorded reference for this seed"
                         if not self.has_seed_ref else
                         f"{jobs - referenced} rounds lie beyond the recorded "
                         f"prefix")
        return lines

    def attempted(self):
        return self.points_attempted

    def failed(self):
        return sum(n for rec in self.records for n, _ in rec["problems"])

    def stats(self):
        return {
            "jobs": len(self.records),
            "program_s": sum(self.grid_seconds) + sum(self.verdict_seconds),
            "grid_points": self.grid_points,
            "grid_s": sum(self.grid_seconds),
            "grids": len(self.grid_seconds),
            "round_grid_rates": sorted(self.round_grid_rates),
            "grid_members": sum(g[1] for rec in self.records
                                for g in rec["grids"].values()),
            "seconds": sorted(self.verdict_seconds),
            "point_members": sum(rec["bits"].count("1") for rec in self.records),
            "failures": [f"round {rec['index']}: {msg.strip()[-200:]}"
                         for rec in self.records for _, msg in rec["problems"]][:10],
        }


WORKLOADS = {
    "compute-planar": ComputeWorkload,
    "compute-3d": ComputeWorkload,
    "oracle-grid": OracleWorkload,
}


def load_refs(workload):
    path = REFERENCES / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

# (name, unit, the end-to-end figure it should move and on which workload).
# Every *_s value is self time in CPU seconds unless the prediction says
# otherwise; counts are totals over the traced jobs.
_COMPUTE = "map_s.p50 on compute-planar and compute-3d"
_SUBDIV = _COMPUTE + "; points_per_s on oracle-grid"
_ENGINE = "map_s.p50 on compute-3d"
_ORACLE = "points_per_s and verdict_s on oracle-grid"
PER_LAYER = [
    ("cli.main_s", "s", "map_s.p50 on compute-planar"),
    ("cli.load_input_s", "s", "map_s.p50 on compute-planar"),
    ("cli.dump_doc_s", "s", "map_s.p50 on compute-planar"),
    ("cli.parse_output_doc_s", "s", "maps_per_s on compute-3d (newton --tnp)"),
    ("faces.delta0_s", "s", _COMPUTE + "; none on oracle-grid"),
    ("faces.enumerate_s", "s", _COMPUTE + "; none on oracle-grid"),
    ("faces.tuple_faces", "count", _COMPUTE),
    ("faces.relevant", "count", _COMPUTE + " (dicritical pre-origin faces)"),
    ("subdivision.decomposition_s", "s", _SUBDIV),
    ("subdivision.decomposition.calls", "count", _SUBDIV),
    ("subdivision.cells", "count", _SUBDIV),
    ("subdivision.factor_cells.hit_ratio", "ratio", _SUBDIV),
    ("subdivision.factor_cells.currsize", "count", _SUBDIV + "; peak_rss_mb"),
    ("geom.dd_insertions", "count", "every workload"),
    ("geom.dd_s", "s", "every workload"),
    ("geom.dd_rays.mean", "count", "every workload (rays after each insertion)"),
    ("geom.dd_rays.peak", "count", "every workload"),
    ("engine.tnp_set_s", "s", _ENGINE),
    ("engine.analyze_gamma.calls", "count", _ENGINE + "; base faces.relevant"),
    ("engine.analyze_gamma_s", "s", _ENGINE),
    ("engine.analyze_sigma_s", "s", _ENGINE),
    ("engine.cell_contribution_s", "s", _ENGINE),
    ("engine.canonical_union_s", "s", _ENGINE),
    ("engine.cells_analyzed", "count", _ENGINE),
    ("engine.cells_contributing", "count", _ENGINE + "; base engine.cells_analyzed"),
    ("engine.pieces", "count", _ENGINE),
    ("engine.canonical_pieces", "count", _ENGINE + "; base engine.pieces"),
    ("engine.parallel_map_s", "s",
     _ENGINE + "; points_per_s on oracle-grid (inclusive wall time)"),
    ("engine.parallel_map.items", "count", _ENGINE + "; points_per_s on oracle-grid"),
    ("engine.parallel_map.self_s", "s", "pool dispatch in the submitting thread"),
    ("engine.parallel_item_s", "s", "work-item code outside the wrapped calls"),
    ("oracle.in_tnp_s", "s", _ORACLE),
    ("oracle.in_tnp.calls", "count", _ORACLE),
    ("oracle.members", "count", _ORACLE + "; base oracle.in_tnp.calls"),
    ("oracle.grid_compare_s", "s", _ORACLE),
    ("newton.recover_fan_s", "s", "maps_per_s on compute-3d"),
    ("newton.calls", "count", "maps_per_s on compute-3d"),
    ("bench.harness_s", "s", "none: the benchmark's own work between calls"),
    ("trace.jobs", "count", "none: the base of every count"),
    ("trace.wall_s", "s", "none: wall time of the traced pass"),
    ("trace.self_sum_s", "s", "none: sum of all self times, against trace.wall_s"),
    ("trace.untraced_wall_s", "s", "none: the same jobs untraced"),
    ("trace.overhead_s", "s", "none: trace.wall_s - trace.untraced_wall_s"),
]


def per_layer(summary, cache0, cache1, jobs, wall):
    """Per-layer values of a traced pass.  Every *_s value is self time in
    CPU seconds, except engine.parallel_map_s: the inclusive wall time of the
    fanned-out work, the figure a change to the thread pool moves."""
    spans = summary["spans"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    c = summary["counters"]
    dd = summary["dd"]
    hits = cache1.hits - cache0.hits
    misses = cache1.misses - cache0.misses
    values = {
        "cli.main_s": self_s("cli.main"),
        "cli.load_input_s": self_s("cli.load_input"),
        "cli.dump_doc_s": self_s("cli.dump_doc"),
        "cli.parse_output_doc_s": self_s("cli.parse_output_doc"),
        "faces.delta0_s": self_s("faces.delta0"),
        "faces.enumerate_s": self_s("faces.enumerate"),
        "faces.tuple_faces": c.get("faces.tuple_faces", 0),
        "faces.relevant": c.get("faces.relevant", 0),
        "subdivision.decomposition_s": self_s("subdivision.decomposition"),
        "subdivision.decomposition.calls": calls("subdivision.decomposition"),
        "subdivision.cells": c.get("subdivision.cells", 0),
        "subdivision.factor_cells.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "subdivision.factor_cells.currsize": cache1.currsize,
        "geom.dd_insertions": dd["calls"],
        "geom.dd_s": dd["self_s"],
        "geom.dd_rays.mean": dd["rays_mean"],
        "geom.dd_rays.peak": dd["rays_peak"],
        "engine.tnp_set_s": self_s("engine.tnp_set"),
        "engine.analyze_gamma.calls": calls("engine.analyze_gamma"),
        "engine.analyze_gamma_s": self_s("engine.analyze_gamma"),
        "engine.analyze_sigma_s": self_s("engine.analyze_sigma"),
        "engine.cell_contribution_s": self_s("engine.cell_contribution"),
        "engine.canonical_union_s": self_s("engine.canonical_union"),
        "engine.cells_analyzed": c.get("engine.cells_analyzed", 0),
        "engine.cells_contributing": c.get("engine.cells_contributing", 0),
        "engine.pieces": c.get("engine.pieces", 0),
        "engine.canonical_pieces": c.get("engine.canonical_pieces", 0),
        "engine.parallel_map_s":
            spans.get("engine.parallel_map", {}).get("wall_s", 0.0),
        "engine.parallel_map.items": c.get("engine.parallel_map.items", 0),
        "engine.parallel_map.self_s": self_s("engine.parallel_map"),
        "engine.parallel_item_s": self_s("engine.parallel_item"),
        "oracle.in_tnp_s": self_s("oracle.in_tnp"),
        "oracle.in_tnp.calls": calls("oracle.in_tnp"),
        "oracle.members": c.get("oracle.members", 0),
        "oracle.grid_compare_s": self_s("oracle.grid_compare"),
        "newton.recover_fan_s": self_s("newton.recover_fan"),
        "newton.calls": calls("newton.recover_fan"),
        "bench.harness_s": self_s("bench"),
        "trace.jobs": jobs,
        "trace.wall_s": wall,
        "trace.self_sum_s": dd["self_s"] + sum(v["self_s"] for v in spans.values()),
    }
    return values


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_jobs(wl, mode, seconds, jobs):
    """Run the jobs of one pass; the peak RSS after RSS_JOBS jobs."""
    rss_jobs = RSS_JOBS[wl.name]
    spent, i, rss = 0.0, 0, None
    limit = len(wl) if mode == "measure" else min(jobs, len(wl))
    while i < limit and (mode != "measure" or spent < seconds or i < rss_jobs):
        spent += wl.job(i)
        i += 1
        if i == rss_jobs:
            rss = peak_rss_mb()
    return rss if rss is not None else peak_rss_mb()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "replay"),
                    required=True)
    ap.add_argument("--jobs", type=int, default=0)
    ap.add_argument("--tmp", required=True, help="scratch directory")
    ap.add_argument("--spans", help="write the traced spans here (JSON lines)")
    ap.add_argument("--record", action="store_true",
                    help="ignore recorded references and spot-check every "
                         "nonempty output against the oracle (record.py)")
    args = ap.parse_args(argv)

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.workload, args.seed, tmp,
                                  {} if args.record else load_refs(args.workload))
    if args.record:
        wl.spot_limit = math.inf
    if args.mode == "setup":
        return 0

    result = {}
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
        cache0 = subdivision._factor_cells.cache_info()
        t0 = time.perf_counter()
        tracer.run("bench", run_jobs, (wl, args.mode, args.seconds, args.jobs))
        wall = time.perf_counter() - t0
        cache1 = subdivision._factor_cells.cache_info()
        spans = tracer.spans()
        result["per_layer"] = per_layer(tracer.summary(), cache0, cache1,
                                        len(wl.records), wall)
        result["per_layer_table"] = PER_LAYER
        result["negative_self_spans"] = sum(1 for s in spans if s[6] < 0)
        result["spans"] = len(spans)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for s in spans:
                    fh.write(json.dumps(s) + "\n")
    else:
        t0 = time.perf_counter()
        result["peak_rss_mb"] = run_jobs(wl, args.mode, args.seconds, args.jobs)
        result["wall_s"] = time.perf_counter() - t0
        result["rss_jobs"] = min(RSS_JOBS[args.workload], len(wl.records))
    result["pool_exhausted"] = len(wl.records) == len(wl)

    result.update({
        "checks": wl.check(),
        "attempted": wl.attempted(),
        "failed": wl.failed(),
        "stats": wl.stats(),
        "ref_entries": [wl.ref_entry(r) for r in wl.records],
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
