"""Command line interface: compute, oracle, faces, newton, plot.

Input is a JSON document;  coefficients are exact rationals ("p/q" strings
or integers, no exponent notation), or leading series terms like "3t^5"
whose exponent carries the coefficient's valuation (val = -5 here).  All
output is canonical: the same input always produces byte-identical
documents.

Every command reads `--input` through `_read_map` and builds the set
through `_gated_set`, so all of them refuse a map that fails compute's
transversality gate alike; faces and oracle --point never build the set.

Exit codes: 0 success, 1 parse/validation error (an argument error too),
2 transversality or genericity violation, 3 dimension cap exceeded, 4 plot
on dimension != 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .geom import DIM_CAP, Polyhedron, vsub
from .tropical import (SupportError, TropicalMap, TropicalPolynomial,
                       exact_fraction, valuation_of_series)
from .subdivision import (cayley_profiles, decomposition, dual_ranks,
                          transversal)
from .faces import DimensionCapExceeded, delta0, enumerate_tuple_faces
from .engine import GenericityError, TNPSet, tnp_set
from .oracle import grid_compare, in_tnp, virtual_preimage
from .newton import FanError, recover_fan

SCHEMA = "tnp/1"

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GENERICITY = 2
EXIT_DIM_CAP = 3
EXIT_PLOT_DIM = 4

GRID_RES = 33  # oracle --grid points per axis when --res is not given


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def parse_rational(v) -> Fraction:
    if isinstance(v, bool):
        raise InputError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return exact_fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {v!r}") from exc
    raise InputError(f"not a rational: {v!r} (floats are not accepted)")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def parse_input_spec(doc: dict):
    """(TropicalMap, notices) from an input document."""
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    n, maps = doc.get("n"), doc.get("maps")
    if not _is_int(n):
        raise InputError("input needs integer 'n' and a 'maps' list")
    if n < 1:
        raise InputError("n must be at least 1")
    if not isinstance(maps, list) or len(maps) != n:
        raise InputError(f"'maps' must list exactly n = {n} term lists")
    notices = []
    components = []
    for i, term_list in enumerate(maps):
        if not isinstance(term_list, list):
            raise InputError(f"component {i}: terms must be a list")
        terms = {}
        for term in term_list:
            if not isinstance(term, dict):
                raise InputError(f"component {i}: term {term!r} is not an object")
            exp = term.get("exp")
            if not (isinstance(exp, list) and all(map(_is_int, exp))):
                raise InputError(
                    f"component {i}: exponent {exp!r} is not a list of integers")
            exp = tuple(exp)
            if "val" in term and "series" in term:
                raise InputError(f"component {i}: term {term!r} has both "
                                 "'val' and 'series'")
            if "val" in term:
                val = parse_rational(term["val"])
            elif "series" in term:
                if not isinstance(term["series"], str):
                    raise InputError(f"component {i}: series {term['series']!r} "
                                     "is not a string")
                try:
                    val, notes = valuation_of_series(term["series"])
                except ValueError as exc:
                    raise InputError(f"component {i}: {exc}") from exc
                notices.extend(notes)
            else:
                raise InputError(f"component {i}: term {term!r} needs 'val' "
                                 "or 'series'")
            if exp in terms:
                raise InputError(f"duplicate exponent {exp} in component {i}")
            terms[exp] = val
        try:
            components.append(TropicalPolynomial(n, terms))
        except SupportError as exc:
            raise InputError(f"component {i}: {exc}") from exc
    return TropicalMap(components), notices


def _read_text(path: str) -> str:
    """The UTF-8 text of a file; undecodable bytes name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {exc}") from exc


def load_input(path: str):
    """parse_input_spec of a file; errors name the file."""
    text = _read_text(path)
    try:
        return parse_input_spec(json.loads(text))
    except (InputError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def rat_str(v) -> str:
    """Canonical text of a rational: "p" or "p/q" in lowest terms."""
    if type(v) is not int and type(v) is not Fraction:
        v = Fraction(v)
    return str(v)


def vec_json(v):
    return [rat_str(x) for x in v]


def poly_json(p: Polyhedron) -> dict:
    ineqs, eqs = p.hrep()
    return {
        "dim": p.dim,
        "vertices": [vec_json(v) for v in p.vertices],
        "rays": [[int(x) for x in r] for r in p.rays],
        "lineality": [[int(x) for x in l] for l in p.lineality],
        "inequalities": [{"normal": [int(x) for x in a], "offset": rat_str(b)}
                         for a, b in ineqs],
        "equalities": [{"normal": [int(x) for x in a], "offset": rat_str(b)}
                       for a, b in eqs],
    }


def poly_from_json(doc: dict, n: int) -> Polyhedron:
    """A written piece: vertices of n rationals (no floats), rays and
    lineality vectors of n integers."""
    def vectors(key, kind):
        vecs = doc[key]
        if not isinstance(vecs, list) or any(
                not isinstance(v, list) or len(v) != n
                or kind == "integers" and not all(map(_is_int, v))
                for v in vecs):
            raise InputError(f"'{key}' must list vectors of {n} {kind}")
        return vecs

    vertices = [[exact_fraction(x) if isinstance(x, str) else parse_rational(x)
                 for x in v] for v in vectors("vertices", "rationals")]
    return Polyhedron.from_generators(n, vertices, vectors("rays", "integers"),
                                      vectors("lineality", "integers"))


def faces_json(faces) -> list:
    # member faces are shared between tuple-faces: one entry per polyhedron
    members = {}

    def member_json(m):
        entry = members.get(id(m))
        if entry is None:
            entry = members[id(m)] = poly_json(m)
        return entry

    out = []
    for f in faces:
        out.append({
            "id": f.id,
            "witness_normal": [int(x) for x in f.witness_normal],
            "dim": f.dim,
            "members": [member_json(m) for m in f.members],
            "dicritical": f.dicritical,
            "origin": f.origin,
            "pre_origin": f.pre_origin,
            "strictly_pre_origin": f.strictly_pre_origin,
            "origin_members": sorted(f.origin_members),
        })
    return out


def tnp_json(s) -> dict:
    pieces = []
    for pid, (p, prov) in enumerate(s.canonical):
        entry = poly_json(p)
        entry["id"] = pid
        entry["provenance"] = [{"face": g, "cell": c} for g, c in prov]
        pieces.append(entry)
    # the engine has one assembly; documents keep naming it
    return {"assembly": "staircase", "pieces": pieces}


def fan_json(fan) -> dict:
    return {
        "face_vector": list(fan.face_vector),
        "facet_normals": [[int(x) for x in v] for v in fan.facet_normals],
        "span_dim": fan.span_dim,
        "span_normals": [[int(x) for x in v] for v in fan.span_normals],
        "cones_by_dim": {
            str(d): [{"rays": [[int(x) for x in r] for r in c.rays],
                      "lineality": [[int(x) for x in l] for l in c.lineality]}
                     for c in cones]
            for d, cones in sorted(fan.cones_by_dim.items()) if cones
        },
    }


_encode_str = json.encoder.encode_basestring_ascii
_SCALAR_TEXT = {str: _encode_str, int: int.__repr__,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def _json_text(obj, depth: int, memo: dict) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` at nesting `depth`, for
    dicts with str keys, lists, str, int, bool and None.  The text of a dict
    is kept in `memo` by (id, depth), so a shared one, a member face above
    all, is encoded once; lists are written inline."""
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    kind = type(obj)
    if kind is list:
        return _block("[", _texts(obj, depth, memo), depth, "]")
    if kind is not dict:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    key = (id(obj), depth)
    text = memo.get(key)
    if text is None:
        keys = sorted(obj)
        if any(type(k) is not str for k in keys):
            raise TypeError("document keys must be str")
        values = _texts([obj[k] for k in keys], depth, memo)
        text = memo[key] = _block(
            "{", [f"{_encode_str(k)}: {t}" for k, t in zip(keys, values)],
            depth, "}")
    return text


def _texts(values, depth: int, memo: dict) -> list:
    """The texts of a container's values, one level below `depth`."""
    get = _SCALAR_TEXT.get
    return [enc(v) if (enc := get(type(v))) else _json_text(v, depth + 1, memo)
            for v in values]


def _block(open_: str, items: list, depth: int, close: str) -> str:
    """A container's text at nesting `depth` from its items' texts."""
    if not items:
        return open_ + close
    sep = "\n" + "  " * (depth + 1)
    return open_ + sep + ("," + sep).join(items) + "\n" + "  " * depth + close


def dump_doc(doc: dict, path=None) -> str:
    """Write the canonical text of a document: the text of
    `json.dumps(doc, indent=2, sort_keys=True)` and a newline."""
    text = _json_text(doc, 0, {}) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def parse_output_doc(text: str, dim_cap=None) -> dict:
    """Round-trip parse of a compute output: the document with its pieces
    as Polyhedron values under "tnp_pieces".  An n above `dim_cap`, when
    given, is refused before any piece is read."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise InputError(f'not a {SCHEMA} document (no "schema": "{SCHEMA}")')
    n = doc.get("n")
    if not _is_int(n) or n < 1:
        raise InputError("no positive integer 'n'")
    if dim_cap is not None and n > dim_cap:
        raise DimensionCapExceeded(f"dimension {n} exceeds cap {dim_cap}")
    tnp = doc.get("tnp")
    if not isinstance(tnp, dict) or not isinstance(tnp.get("pieces"), list):
        raise InputError("no 'tnp' piece list (not a compute output)")
    parsed = dict(doc)
    parsed["tnp_pieces"] = []
    for i, piece in enumerate(tnp["pieces"]):
        try:
            parsed["tnp_pieces"].append(poly_from_json(piece, n))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"piece {i} is malformed: {exc!r}") from exc
    return parsed


def load_output_doc(path: str, dim_cap=None) -> dict:
    """parse_output_doc of a file; errors name the file."""
    text = _read_text(path)
    try:
        return parse_output_doc(text, dim_cap)
    except (InputError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _read_map(args):
    """The input map of a command: `load_input` of `--input`, with its
    notices written to stderr, under the dimension cap."""
    F, notices = load_input(args.input)
    for note in notices:
        print(f"notice: {note}", file=sys.stderr)
    if F.n > args.dim_cap:
        raise DimensionCapExceeded(
            f"dimension {F.n} exceeds cap {args.dim_cap}")
    return F


def _transversality_report(F, faces):
    """The argmax profiles of the offending cells of the full decomposition
    and of the restricted decomposition of every tuple-face, all read off
    the lifted Cayley polytope of the map (`cayley_profiles`); no complex
    is built.  A tuple-face with argmax sets S_i restricts the components
    K = {i : S_i nonempty}; its restricted complex is the star at infinity
    of the full one in the face's witness direction (Maclagan and
    Sturmfels, 2015), so its profiles are the restrictions p|K, with () for
    a component outside K, of the full profiles p with p_i inside S_i for
    every i in K.  A transversal profile restricts to a transversal one, so
    only the full complex's offenders are scanned."""
    bad = [p for p in cayley_profiles(F.n, F.term_maps()) if not transversal(p)]
    if not bad:
        return []
    offenders = [{"face": None, "cells": sorted(bad)}]
    for face in faces:
        S = face.argmax
        cells = {tuple(d if s else () for d, s in zip(p, S)) for p in bad
                 if all(s.issuperset(d) for d, s in zip(p, S) if s)}
        cells = sorted(p for p in cells if not transversal(p))
        if cells:
            offenders.append({"face": face.id, "cells": cells})
    return offenders


def _refusal_line(face, profile) -> str:
    """An offending cell's face, argmax profile and failing rank equation."""
    union, summands = dual_ranks(profile)
    duals = " | ".join(" ".join("(" + ",".join(map(str, a)) + ")" for a in d)
                       or "-" for d in profile)
    return (f"  face={face} {duals}: rank {union} < "
            + " + ".join(map(str, summands)) + "\n")


class TransversalityViolation(Exception):
    """A map that the transversality gate refuses; its text is the list of
    offending cells, which `main` writes to stderr as it stands."""


def _gated_set(F, cap):
    """(tuple-faces, set) of a map that passes the transversality gate;
    the one path from a map to its set, for every command that builds it."""
    faces = enumerate_tuple_faces(delta0(F, dim_cap=cap))
    offenders = _transversality_report(F, faces)
    if offenders:
        raise TransversalityViolation(
            "transversality violation; offending cells:\n" + "".join(
                _refusal_line(o["face"], p) for o in offenders
                for p in o["cells"]))
    return faces, tnp_set(F, faces=faces)


def cmd_compute(args) -> int:
    F = _read_map(args)
    faces, s = _gated_set(F, args.dim_cap)
    doc = {
        "schema": SCHEMA,
        "n": F.n,
        "tnp": tnp_json(s),
        "tuple_faces": faces_json(faces),
        "transversality": {"ok": True, "offending": []},
    }
    dump_doc(doc, args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    F = _read_map(args)
    doc = {"schema": SCHEMA, "n": F.n}
    if args.point is not None:
        for option in ("res", "box", "against"):
            if getattr(args, option) is not None:
                raise InputError(f"--{option} applies to --grid only")
        pt = _parse_point(args.point, F.n)
        verdict = in_tnp(F, pt)
        doc["verdict"] = {
            "point": vec_json(pt),
            "member": verdict.member,
            "ray": [int(x) for x in verdict.ray] if verdict.ray else None,
            "cell": verdict.cell_id,
        }
    else:
        res = GRID_RES if args.res is None else args.res
        if res < 1:
            raise InputError(f"--res must be at least 1, got {res}")
        if args.against:
            parsed = load_output_doc(args.against)
            if parsed["n"] != F.n:
                raise InputError(f"--against document has n = {parsed['n']}, "
                                 f"the input has n = {F.n}")
            engine = _document_set(parsed)
        else:
            engine = _gated_set(F, args.dim_cap)[1]
        box = _parse_box(args.box, "box", F.n) if args.box else None
        report = grid_compare(F, engine, box=box, resolution=res)
        doc["grid"] = {
            "points": report.points,
            "members": report.members,
            "mismatches": [
                {"point": vec_json(m.point), "oracle": m.oracle,
                 "engine": m.engine} for m in report.mismatches],
        }
    dump_doc(doc, args.output)
    return EXIT_OK


def _document_set(parsed) -> TNPSet:
    """The set written in a parsed compute output."""
    return TNPSet.from_canonical(parsed["n"], parsed["tnp_pieces"])


def _parse_point(text: str, n: int):
    """n comma-separated exact rationals."""
    coords = text.split(",")
    if len(coords) != n:
        raise InputError(f"point {text!r} needs {n} coordinates")
    return [parse_rational(v) for v in coords]


def _parse_box(text: str, name: str, n: int):
    parts = text.split(";")
    if len(parts) not in (1, n):
        raise InputError(f"{name} needs 1 or {n} 'lo,hi' groups")
    box = [tuple(_parse_point(part, 2)) for part in parts]
    if any(lo >= hi for lo, hi in box):
        raise InputError(f"{name} {text!r} needs lo < hi on every axis")
    return box if len(box) == n else box * n


def cmd_faces(args) -> int:
    F = _read_map(args)
    faces = enumerate_tuple_faces(delta0(F, dim_cap=args.dim_cap))
    doc = {"schema": SCHEMA, "n": F.n, "tuple_faces": faces_json(faces)}
    dump_doc(doc, args.output)
    return EXIT_OK


def cmd_newton(args) -> int:
    if args.tnp is not None:
        source = _document_set(load_output_doc(args.tnp, args.dim_cap))
    else:
        source = _gated_set(_read_map(args), args.dim_cap)[1]
    fan = recover_fan(source)
    doc = {"schema": SCHEMA, "n": source.n, "fan": fan_json(fan)}
    dump_doc(doc, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# plotting (n = 2): deterministic hand-rolled SVG
# ---------------------------------------------------------------------------

def _clip(p, d, t_lo, t_hi, window):
    """The part of {p + t d : t_lo <= t <= t_hi} inside the window, as its
    endpoints in the order of increasing t; None if it misses the window.
    A bound of None leaves that side unbounded; d is nonzero."""
    for coord, dc, (lo, hi) in zip(p, d, window):
        if dc == 0:
            if coord < lo or coord > hi:
                return None
            continue
        ta, tb = Fraction(lo - coord, dc), Fraction(hi - coord, dc)
        if ta > tb:
            ta, tb = tb, ta
        t_lo = ta if t_lo is None else max(t_lo, ta)
        t_hi = tb if t_hi is None else min(t_hi, tb)
        if t_lo > t_hi:
            return None
    return tuple(tuple(a + t * b for a, b in zip(p, d)) for t in (t_lo, t_hi))


def _segments_of(piece, window):
    """1-dimensional piece -> clipped segment endpoints within the window:
    a line, a segment or rays, each clipped exactly."""
    verts = piece.vertices
    if piece.lineality:
        return [_clip(verts[0], piece.lineality[0], None, None, window)]
    if len(verts) == 2:
        return [_clip(verts[0], vsub(verts[1], verts[0]), 0, 1, window)]
    return [_clip(v, r, 0, None, window) for v in verts for r in piece.rays]


def _fmt(x) -> str:
    return f"{float(x):.3f}"


def render_svg(F, s, window=None, y_overlay=None, size=640) -> str:
    """Gray cell decomposition, highlighted non-properness set, optional
    virtual-preimage overlay for one value."""
    cx = decomposition(F.term_maps(), F.n)
    overlay = []
    if y_overlay is not None:
        overlay = [c.closure for c in virtual_preimage(F, y_overlay).cells
                   if c.dim >= 1]
    if window is None:
        pts = [v for c in cx.cells for v in c.closure.vertices]
        pts += [v for p in s.polytopes for v in p.vertices]
        pts += [v for p in overlay for v in p.vertices]
        if not pts:
            pts = [(Fraction(0), Fraction(0))]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        window = ((min(xs) - 2, max(xs) + 2), (min(ys) - 2, max(ys) + 2))
    (wx0, wx1), (wy0, wy1) = window
    scale = Fraction(size, max(wx1 - wx0, wy1 - wy0))

    def to_px(pt):
        return (_fmt((pt[0] - wx0) * scale), _fmt((wy1 - pt[1]) * scale))

    lines = []

    def emit(piece_list, klass, width, color):
        seen = set()
        for piece in piece_list:
            for seg in _segments_of(piece, window):
                if seg is None:
                    continue
                a, b = to_px(seg[0]), to_px(seg[1])
                key = (a, b)
                if key in seen or a == b:
                    continue
                seen.add(key)
                lines.append(
                    f'<line class="{klass}" x1="{a[0]}" y1="{a[1]}" '
                    f'x2="{b[0]}" y2="{b[1]}" stroke="{color}" '
                    f'stroke-width="{width}"/>')

    emit([c.closure for c in cx.cells if c.dim == 1], "cell", 1, "#999999")
    emit(s.polytopes, "tnp", 3, "#9013fe")
    if overlay:
        emit(overlay, "virtual", 2, "#f5a623")

    dots = []
    seen_dots = set()
    for piece in s.polytopes:
        for v in piece.vertices:
            px = to_px(v)
            if px not in seen_dots:
                seen_dots.add(px)
                dots.append(f'<circle class="tnp-vertex" cx="{px[0]}" '
                            f'cy="{px[1]}" r="4" fill="#9013fe"/>')

    h = _fmt((wy1 - wy0) * scale)
    w = _fmt((wx1 - wx0) * scale)
    body = "\n".join(lines + dots)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
            f'{body}\n</svg>\n')


def cmd_plot(args) -> int:
    F = _read_map(args)
    if F.n != 2:
        print(f"plot: only dimension 2 is drawable, got {F.n}", file=sys.stderr)
        return EXIT_PLOT_DIM
    window = tuple(_parse_box(args.window, "window", 2)) if args.window else None
    s = _gated_set(F, args.dim_cap)[1]
    y_overlay = _parse_point(args.point, 2) if args.point else None
    svg = render_svg(F, s, window=window, y_overlay=y_overlay)
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose errors are input errors, so that `main` reports them
    like any other: exit 1 and one line, with no usage block."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `tropnp` parser, built on the first call and reused after it,
    which pays only for callers running several commands in one process."""
    ap = _ArgumentParser(
        prog="tropnp",
        description="tropical non-properness set: exact computation and checks")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", help="output file (stdout when omitted)")
        p.add_argument("--dim-cap", type=int, default=DIM_CAP,
                       help=f"ambient dimension cap (default {DIM_CAP})")

    p = sub.add_parser("compute", help="compute the non-properness set")
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("oracle", help="definition-level membership checks")
    common(p)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--point", help="comma-separated rational coordinates")
    what.add_argument("--grid", action="store_true", help="grid comparison")
    p.add_argument("--box", help="'lo,hi' or per-axis 'lo,hi;lo,hi;...'")
    p.add_argument("--res", type=int,
                   help=f"grid points per axis (default {GRID_RES})")
    p.add_argument("--against", help="compare against a compute output file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("faces", help="tuple-face classification table")
    common(p)
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("newton", help="face-vector and facet slopes")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="input JSON file")
    source.add_argument("--tnp", help="previously computed output document")
    p.add_argument("--output", help="output file (stdout when omitted)")
    p.add_argument("--dim-cap", type=int, default=DIM_CAP)
    p.set_defaults(func=cmd_newton)

    p = sub.add_parser("plot", help="SVG rendering for n = 2")
    p.add_argument("--input", required=True)
    p.add_argument("--svg", required=True, help="output SVG file")
    p.add_argument("--window", help="'x0,x1;y0,y1'")
    p.add_argument("--point", help="overlay the virtual preimage of a point")
    # plot has no --dim-cap option: it reads its input under the default cap
    p.set_defaults(func=cmd_plot, dim_cap=DIM_CAP)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, SupportError, json.JSONDecodeError, OSError,
            KeyError, FanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TransversalityViolation as exc:
        sys.stderr.write(str(exc))
        return EXIT_GENERICITY
    except DimensionCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIM_CAP
    except GenericityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERICITY


if __name__ == "__main__":
    sys.exit(main())
