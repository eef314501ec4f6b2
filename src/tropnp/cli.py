"""Command line interface: compute, oracle, faces, newton, plot.

Input is a JSON document;  coefficients are exact rationals ("p/q" strings
or integers), or leading series terms like "3t^5" whose exponent carries
the coefficient's valuation (val = -5 here).  All output is canonical: the
same input always produces byte-identical documents.

Exit codes: 0 success, 1 parse/validation error, 2 transversality or
genericity violation, 3 dimension cap exceeded, 4 plot on dimension != 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .geom import DIM_CAP, Polyhedron
from .tropical import (MINUS_INF, SupportError, TropicalMap,
                       TropicalPolynomial, valuation_of_series)
from .subdivision import decomposition
from .faces import DimensionCapExceeded, delta0, enumerate_tuple_faces
from .engine import GenericityError, analyze_gamma, tnp_set
from .oracle import grid_compare, in_tnp
from .newton import FanError, recover_fan

SCHEMA = "tnp/1"

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GENERICITY = 2
EXIT_DIM_CAP = 3
EXIT_PLOT_DIM = 4


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
            return Fraction(v)
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
                raise InputError(f"term {term!r} needs 'val' or 'series'")
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
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


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
    if not doc["vertices"]:
        return Polyhedron.empty(n)
    return Polyhedron.from_generators(
        n, [[Fraction(x) for x in v] for v in doc["vertices"]],
        doc["rays"], doc["lineality"])


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
    return {"assembly": s.assembly, "pieces": pieces}


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
    dicts with str keys, lists, str, int, bool and None; the text of a
    container is kept in `memo` by (id, depth), so a shared one is encoded
    once."""
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    kind = type(obj)
    if kind is not dict and kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    key = (id(obj), depth)
    text = memo.get(key)
    if text is not None:
        return text
    if not obj:
        text = "{}" if kind is dict else "[]"
    else:
        if kind is dict:
            keys = sorted(obj)
            if any(type(k) is not str for k in keys):
                raise TypeError("document keys must be str")
            values = [obj[k] for k in keys]
        else:
            values = obj
        get = _SCALAR_TEXT.get
        items = [enc(v) if (enc := get(type(v))) else
                 _json_text(v, depth + 1, memo) for v in values]
        if kind is dict:
            items = [f"{_encode_str(k)}: {t}" for k, t in zip(keys, items)]
        sep = "\n" + "  " * (depth + 1)
        text = (("{" if kind is dict else "[") + sep + ("," + sep).join(items)
                + "\n" + "  " * depth + ("}" if kind is dict else "]"))
    memo[key] = text
    return text


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


def parse_output_doc(text: str) -> dict:
    """Round-trip parse of a compute output: the document with its pieces
    as Polyhedron values under "tnp_pieces"."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise InputError(f'not a {SCHEMA} document (no "schema": "{SCHEMA}")')
    n = doc.get("n")
    if not _is_int(n) or n < 1:
        raise InputError("no positive integer 'n'")
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


def load_output_doc(path: str) -> dict:
    """parse_output_doc of a file; errors name the file."""
    text = _read_text(path)
    try:
        return parse_output_doc(text)
    except (InputError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _check_dim_cap(n, cap):
    if n > cap:
        raise DimensionCapExceeded(f"dimension {n} exceeds cap {cap}")


def _transversality_report(F, contexts):
    """Transversality of the full decomposition and every restricted one."""
    offenders = []
    cx = decomposition(F.term_maps(), [MINUS_INF] * F.n, n=F.n)
    ok, bad = cx.is_transversal()
    if not ok:
        offenders.append({"face": None, "cells": bad})
    for ctx in contexts:
        ok, bad = ctx.complex.is_transversal()
        if not ok:
            offenders.append({"face": ctx.face.id, "cells": bad})
    return offenders


def cmd_compute(args) -> int:
    F, notices = load_input(args.input)
    for note in notices:
        print(f"notice: {note}", file=sys.stderr)
    _check_dim_cap(F.n, args.dim_cap)
    tup = delta0(F, dim_cap=args.dim_cap)
    faces = enumerate_tuple_faces(tup)
    contexts = [analyze_gamma(F, f) for f in faces]
    offenders = _transversality_report(F, contexts)
    if offenders:
        print("transversality violation; offending cells:", file=sys.stderr)
        for o in offenders:
            print(f"  face={o['face']} cells={o['cells']}", file=sys.stderr)
        return EXIT_GENERICITY
    s = tnp_set(F, staircase=not args.product, contexts=contexts)
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
    F, _ = load_input(args.input)
    _check_dim_cap(F.n, args.dim_cap)
    doc = {"schema": SCHEMA, "n": F.n}
    if args.point:
        pt = _parse_point(args.point, F.n)
        verdict = in_tnp(F, pt)
        doc["verdict"] = {
            "point": vec_json(pt),
            "member": verdict.member,
            "ray": [int(x) for x in verdict.ray] if verdict.ray else None,
            "cell": verdict.cell_id,
        }
    elif args.grid:
        if args.res < 1:
            raise InputError(f"--res must be at least 1, got {args.res}")
        if args.against:
            parsed = load_output_doc(args.against)
            if parsed["n"] != F.n:
                raise InputError(f"--against document has n = {parsed['n']}, "
                                 f"the input has n = {F.n}")
            engine = _EngineView(F.n, parsed["tnp_pieces"])
        else:
            engine = tnp_set(F)
        box = _parse_box(args.box, F.n) if args.box else None
        report = grid_compare(F, engine, box=box, resolution=args.res)
        doc["grid"] = {
            "points": report.points,
            "members": report.members,
            "mismatches": [
                {"point": vec_json(m.point), "oracle": m.oracle,
                 "engine": m.engine} for m in report.mismatches],
        }
    else:
        print("oracle: need --point or --grid", file=sys.stderr)
        return EXIT_PARSE
    dump_doc(doc, args.output)
    return EXIT_OK


class _EngineView:
    """Adapter giving a parsed piece list the TNPSet interface that the
    oracle's grid comparison and the fan recovery read."""

    def __init__(self, n, polytopes):
        self.n = n
        self.polytopes = list(polytopes)
        self.canonical = tuple((p, ()) for p in self.polytopes)

    @property
    def is_empty(self):
        return not self.polytopes

    def membership(self, y):
        return any(p.contains(y) for p in self.polytopes)

    def bounding_box(self):
        verts = [v for p in self.polytopes for v in p.vertices]
        if not verts:
            return None
        return [(min(v[i] for v in verts), max(v[i] for v in verts))
                for i in range(self.n)]


def _parse_point(text: str, n: int):
    """n comma-separated exact rationals."""
    coords = text.split(",")
    if len(coords) != n:
        raise InputError(f"point {text!r} needs {n} coordinates")
    return [parse_rational(v) for v in coords]


def _parse_box(text: str, n: int):
    parts = text.split(";")
    if len(parts) == 1:
        return [tuple(_parse_point(parts[0], 2))] * n
    if len(parts) != n:
        raise InputError(f"box needs 1 or {n} 'lo,hi' groups")
    return [tuple(_parse_point(part, 2)) for part in parts]


def cmd_faces(args) -> int:
    F, _ = load_input(args.input)
    _check_dim_cap(F.n, args.dim_cap)
    tup = delta0(F, dim_cap=args.dim_cap)
    faces = enumerate_tuple_faces(tup)
    doc = {"schema": SCHEMA, "n": F.n, "tuple_faces": faces_json(faces)}
    dump_doc(doc, args.output)
    return EXIT_OK


def cmd_newton(args) -> int:
    if (args.input is None) == (args.tnp is None):
        raise InputError("newton needs exactly one of --input and --tnp")
    if args.tnp:
        parsed = load_output_doc(args.tnp)
        source = _EngineView(parsed["n"], parsed["tnp_pieces"])
    else:
        F, _ = load_input(args.input)
        _check_dim_cap(F.n, args.dim_cap)
        source = tnp_set(F)
    fan = recover_fan(source)
    doc = {"schema": SCHEMA, "n": source.n, "fan": fan_json(fan)}
    dump_doc(doc, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# plotting (n = 2): deterministic hand-rolled SVG
# ---------------------------------------------------------------------------

def _clip_segment(p, q, window):
    """Clip segment [p, q] to the window box; None if outside."""
    (x0, x1), (y0, y1) = window
    t_lo, t_hi = Fraction(0), Fraction(1)
    dx, dy = q[0] - p[0], q[1] - p[1]
    for coord, d, lo, hi in ((p[0], dx, x0, x1), (p[1], dy, y0, y1)):
        if d == 0:
            if coord < lo or coord > hi:
                return None
            continue
        ta, tb = Fraction(lo - coord, d), Fraction(hi - coord, d)
        if ta > tb:
            ta, tb = tb, ta
        t_lo, t_hi = max(t_lo, ta), min(t_hi, tb)
        if t_lo > t_hi:
            return None
    a = (p[0] + t_lo * dx, p[1] + t_lo * dy)
    b = (p[0] + t_hi * dx, p[1] + t_hi * dy)
    return a, b


def _segments_of(piece, window):
    """1-dimensional piece -> clipped segment endpoints within the window."""
    verts = piece.vertices
    rays = piece.rays
    lins = piece.lineality
    (x0, x1), (y0, y1) = window
    big = 4 * (abs(x1 - x0) + abs(y1 - y0) + 1)
    if lins:
        l = lins[0]
        base = verts[0]
        p = (base[0] - big * l[0], base[1] - big * l[1])
        q = (base[0] + big * l[0], base[1] + big * l[1])
        return [_clip_segment(p, q, window)]
    if len(verts) == 2:
        return [_clip_segment(tuple(verts[0]), tuple(verts[1]), window)]
    segs = []
    for v in verts:
        for r in rays:
            far = (v[0] + big * r[0], v[1] + big * r[1])
            segs.append(_clip_segment(tuple(v), far, window))
    return segs


def _fmt(x) -> str:
    return f"{float(x):.3f}"


def render_svg(F, s, window=None, y_overlay=None, size=640) -> str:
    """Gray cell decomposition, highlighted non-properness set, optional
    virtual-preimage overlay for one value."""
    cx = decomposition(F.term_maps(), [MINUS_INF] * F.n, n=F.n)
    overlay = []
    if y_overlay is not None:
        oy = decomposition(F.term_maps(), list(y_overlay), n=F.n, bend_only=True)
        overlay = [c.closure for c in oy.cells if c.dim >= 1]
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
    F, _ = load_input(args.input)
    if F.n != 2:
        print(f"plot: only dimension 2 is drawable, got {F.n}", file=sys.stderr)
        return EXIT_PLOT_DIM
    window = None
    if args.window:
        window = tuple(_parse_box(args.window, 2))
        if any(lo >= hi for lo, hi in window):
            raise InputError(f"window {args.window!r} needs lo < hi on "
                             f"both axes")
    s = tnp_set(F)
    y_overlay = None
    if args.point:
        y_overlay = _parse_point(args.point, 2)
    svg = render_svg(F, s, window=window, y_overlay=y_overlay)
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    variants = p.add_mutually_exclusive_group()
    variants.add_argument("--staircase", action="store_true",
                          help="coupled staircase assembly (the default)")
    variants.add_argument("--product", action="store_true",
                          help="per-coordinate product closure, for "
                               "cross-checking; may exceed the true set")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("oracle", help="definition-level membership checks")
    common(p)
    p.add_argument("--point", help="comma-separated rational coordinates")
    p.add_argument("--grid", action="store_true", help="grid comparison")
    p.add_argument("--box", help="'lo,hi' or per-axis 'lo,hi;lo,hi;...'")
    p.add_argument("--res", type=int, default=33, help="grid points per axis")
    p.add_argument("--against", help="compare against a compute output file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("faces", help="tuple-face classification table")
    common(p)
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("newton", help="face-vector and facet slopes")
    p.add_argument("--input", help="input JSON file")
    p.add_argument("--tnp", help="previously computed output document")
    p.add_argument("--output", help="output file (stdout when omitted)")
    p.add_argument("--dim-cap", type=int, default=DIM_CAP)
    p.set_defaults(func=cmd_newton)

    p = sub.add_parser("plot", help="SVG rendering for n = 2")
    p.add_argument("--input", required=True)
    p.add_argument("--svg", required=True, help="output SVG file")
    p.add_argument("--window", help="'x0,x1;y0,y1'")
    p.add_argument("--point", help="overlay the virtual preimage of a point")
    p.set_defaults(func=cmd_plot)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SupportError, json.JSONDecodeError, OSError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIM_CAP
    except (GenericityError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERICITY
    except FanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
